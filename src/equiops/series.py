"""Truncated power series: one product and one division for every ring.

A series is a sparse dict {exponent: nonzero coefficient}; a missing
exponent is a zero coefficient.  Both functions drop every exponent at or
above `limit` and are generic over the coefficient ring: the caller passes
the ring product `times`, and the division also takes the inverse of the
divisor's constant term.  Coefficients need only `+`, `-`, unary `-` and
`is_zero`, which `Cyclo` and the quotient-ring `Poly` elements of the
period residues both have.
"""

from heapq import heapify, heappop, heappush


def mul(a, b, limit, times):
    """a * b below exponent `limit`."""
    out = {}
    for i, ai in a.items():
        for j, bj in b.items():
            k = i + j
            if k < limit:
                c = times(ai, bj)
                out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if not c.is_zero}


def div(a, b, limit, times, inv0):
    """a / b at the exponents 0 .. limit - 1 by the triangular recurrence.

    b has no negative exponent and its constant term b[0] has inverse
    `inv0`; terms of a below exponent 0 are ignored.  Only exponents that
    can carry a term are visited, in increasing order from a heap: those of
    a's support, and k + j for a quotient term at k and a divisor term at
    j > 0.  So the cost follows the number of terms, not `limit`, and a
    constant divisor only scales a.
    """
    tail = sorted((j, c) for j, c in b.items() if j > 0)
    out = {}
    todo = [k for k in a if 0 <= k < limit]
    heapify(todo)
    queued = set(todo)
    while todo:
        k = heappop(todo)
        acc = a.get(k)
        for j, bj in tail:
            if j > k:
                break
            c = out.get(k - j)
            if c is not None:
                term = times(bj, c)
                acc = -term if acc is None else acc - term
        if acc is not None:
            c = times(acc, inv0)
            if not c.is_zero:
                out[k] = c
                for j, _ in tail:
                    n = k + j
                    if n >= limit:
                        break
                    if n not in queued:
                        queued.add(n)
                        heappush(todo, n)
    return out
