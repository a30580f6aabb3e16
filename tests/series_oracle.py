"""The reference for truncated series: a plain product and a plain
triangular quotient on dicts {exponent: coefficient}, written from the
definitions.  They share no code with `equiops.series`, whose kernels every
series path runs (ints, rows and the `Cyclo` views alike), so a truncation
or indexing fault there shows as a mismatch here.  Coefficients are `Cyclo`
values, or Fractions for series of rationals."""


def product(a, b, limit):
    """a * b below exponent `limit`: every pair of terms, summed."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            if i + j < limit:
                out[i + j] = out[i + j] + x * y if i + j in out else x * y
    return {k: c for k, c in out.items() if c}


def quotient(a, b, limit):
    """a / b at the exponents 0 .. limit - 1, for b with no negative
    exponent and b[0] != 0; terms of a below exponent 0 are ignored.  Term
    k solves a_k = b_0 c_k + sum_(0 < j <= k) b_j c_(k-j)."""
    out = {}
    for k in range(limit):
        c = (a.get(k, 0) - sum([b[j] * out[k - j] for j in b if 0 < j <= k and k - j in out],
                               0)) / b[0]
        if c:
            out[k] = c
    return out
