"""Truncated power series: one product and one division.

A series is a sparse dict {exponent: nonzero coefficient}, cut below
`limit`, its coefficients ints or rows (the ints of an element of the field
of key m, see `cyclotomic`); `QSeries` keeps no `Cyclo` in its store, so
none reaches the kernel.  `mul` and `div` take ints, and the division needs
a divisor with constant term 1.

Exact data needs no field inverse: `div_ints` divides series of ints, or of
rows whose divisor has an int constant term, by a substitution that makes
that term 1, and returns the quotient over one denominator.  On rows,
`mul_rows` and the division sum each coefficient's row products unreduced
and reduce them once by the field polynomial of the key
(`cyclotomic._dot`), as `poly._conv` does.

Callers: `QSeries` products and quotients (so `RatFn` Taylor series and the
Legendrian lift too).  The tests check every path against a plain product
and quotient of their own on the `Cyclo` views.
"""

from heapq import heapify, heappop, heappush
from math import gcd

from .cyclotomic import _dot, _sparse, totient


def mul(a, b, limit):
    """a * b below exponent `limit`."""
    out = {}
    b = sorted(b.items())  # each row stops at the first exponent >= limit
    for i, ai in a.items():
        for j, bj in b:
            k = i + j
            if k >= limit:
                break
            c = ai * bj
            out[k] = out[k] + c if k in out else c
    return {k: c for k, c in out.items() if c}


def mul_rows(a, b, limit, m):
    """`mul` for series of rows at field key m."""
    pairs, zero = {}, [0] * totient(m)
    b = sorted((j, _sparse(v)) for j, v in b.items())
    for i, ai in a.items():
        ai = _sparse(ai)
        for j, bj in b:
            if i + j >= limit:
                break
            pairs.setdefault(i + j, []).append((ai, bj))
    out = [(k, _dot(zero, p, m)) for k, p in pairs.items()]
    return {k: v for k, v in out if any(v)}


def div(a, b, limit):
    """a / b at the exponents 0 .. limit - 1 by the triangular recurrence.

    b has no negative exponent and constant term b[0] = 1; terms of a below
    exponent 0 are ignored.  Only the exponents of `_walk` are visited, so
    the cost follows the number of terms, not `limit`.
    """
    tail = sorted((j, c) for j, c in b.items() if j > 0)
    out = {}
    for k in _walk(a, tail, limit, out):
        acc = a.get(k)
        for j, bj in tail:
            if j > k:
                break
            c = out.get(k - j)
            if c is not None:
                term = bj * c
                acc = -term if acc is None else acc - term
        if acc:
            out[k] = acc
    return out


def _walk(a, tail, limit, found):
    """The exponents that can carry a quotient term, increasing: a's support
    below `limit`, and k + j for each j in tail and k the caller has found."""
    todo = [k for k in a if 0 <= k < limit]
    heapify(todo)
    queued = set(todo)
    while todo:
        k = heappop(todo)
        yield k
        if k in found:
            for j, _ in tail:
                n = k + j
                if n >= limit:
                    break
                if n not in queued:
                    queued.add(n)
                    heappush(todo, n)


def _div_rows(a, b, limit, m):
    """`div` for series of rows at field key m, b[0] = 1."""
    zero = [0] * totient(m)
    tail = sorted((j, [(t, -x) for t, x in enumerate(v) if x]) for j, v in b.items() if j > 0)
    out, found = {}, {}
    for k in _walk(a, tail, limit, found):
        c = _dot(a.get(k, zero), [(found[k - j], bj) for j, bj in tail if k - j in found], m)
        if any(c):
            out[k], found[k] = c, _sparse(c)
    return out


def div_ints(a, b, limit, m=1):
    """(c, d) with a / b = c / d below `limit`, for series a and b of ints
    (m = 1) or of rows at field key m, b[0] a nonzero int (a row with a zero
    tail): c a series of the same kind and d a nonzero int.

    With g the content of b and b0 = b[0] / g, the substitution x = b0 t
    gives b(x) = g b0 u(t) for u = 1 + sum_{j>0} (b_j / g) b0^(j-1) t^j, an
    int series with constant term 1.  So the quotient c' of a(b0 t) by u is
    an int series, found by `div` (`_div_rows` on rows), and
    coefficient k of a / b is c'_k / (g b0^(k+1)), here put over
    d = g b0^(top+1) for the top exponent of c'.
    """
    if m == 1:
        g = gcd(*b.values())
        b0 = b[0] // g
        out = div({k: v * b0 ** k for k, v in a.items() if 0 <= k < limit},
                  {j: v // g * b0 ** (j - 1) if j else 1 for j, v in b.items()}, limit)
    else:  # the same on rows
        g = gcd(*[x for v in b.values() for x in v])
        b0, a = b[0][0] // g, {k: v for k, v in a.items() if 0 <= k < limit}
        u = {j: [x // g for x in v] for j, v in b.items() if j}
        out = _div_rows(scaled(a, [b0 ** k for k in a], m),
                        scaled(u, [b0 ** (j - 1) for j in u], m), limit, m)
    top = max(out, default=-1)
    return scaled(out, [b0 ** (top - k) for k in out], m), g * b0 ** (top + 1)


def scaled(items, cs, m):
    """The series `items` of ints (m = 1) or rows times the ints cs."""
    if m == 1:
        return {k: v * c for (k, v), c in zip(items.items(), cs)}
    return {k: tuple([x * c for x in v]) for (k, v), c in zip(items.items(), cs)}
