"""Truncated power series: one product and one division for every ring.

A series is a sparse dict {exponent: nonzero coefficient}; a missing
exponent is a zero coefficient.  Both functions drop every exponent at or
above `limit` and are generic over the coefficient ring: the caller passes
the ring product `times`, and the division also takes the inverse of the
divisor's constant term.  Coefficients need only `+`, `-`, unary `-` and a
truth value that is false exactly for zero, so ints pass through as they
are, and so do `Cyclo` and the quotient-ring `Poly` elements of the period
residues, which both define `__bool__`.

Rational data stays in integers: `div_ints` divides two integer series
with no field inverse, by a substitution that makes the divisor's constant
term 1 and returns the quotient as ints over one denominator.

Callers: `QSeries` products and quotients (so `RatFn` Taylor series and
the Legendrian lift too) and the period residues of `equiops.operators`.
"""

from heapq import heapify, heappop, heappush
from math import gcd
from operator import mul as _times


def mul(a, b, limit, times):
    """a * b below exponent `limit`."""
    out = {}
    b = sorted(b.items())  # each row stops at the first exponent >= limit
    for i, ai in a.items():
        for j, bj in b:
            k = i + j
            if k >= limit:
                break
            c = times(ai, bj)
            out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if c}


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
            if c:
                out[k] = c
                for j, _ in tail:
                    n = k + j
                    if n >= limit:
                        break
                    if n not in queued:
                        queued.add(n)
                        heappush(todo, n)
    return out


def div_ints(a, b, limit):
    """(c, d) with a / b = c / d below `limit`, for int series a and b with
    b[0] != 0: c an int series and d a nonzero int.

    With g the content of b and b0 = b[0] / g, the substitution x = b0 t
    gives b(x) = g b0 u(t) for u = 1 + sum_{j>0} (b_j / g) b0^(j-1) t^j, an
    int series with constant term 1.  So the quotient c' of a(b0 t) by u is
    an int series, found by `div` with inverse 1, and coefficient k of a / b
    is c'_k / (g b0^(k+1)), here put over d = g b0^(top+1) for the top
    exponent of c'.
    """
    g = gcd(*b.values())
    b0 = b[0] // g
    out = div({k: v * b0 ** k for k, v in a.items() if 0 <= k < limit},
              {j: v // g * b0 ** (j - 1) if j else 1 for j, v in b.items()},
              limit, _times, 1)
    top = max(out, default=-1)
    return {k: v * b0 ** (top - k) for k, v in out.items()}, g * b0 ** (top + 1)
