"""Irrational `QSeries` on integer rows: every operation against `Cyclo`
arithmetic on the `coeffs` views, and `eta_product`'s in-place factors
against a factor-by-factor product.

The seeded series mix ints, Fractions and elements at conductors 3, 4, 5,
8, 12, 24, 60 and 120, at exponent denominators 1, 2, 3 and 6; the seeds
past SEEDS draw the first operand from the real subfields Q(sqrt5), Q(sqrt2)
and Q(sqrt3) (real keys -5, -8 and -12), and the second from either.  The
references use nothing of `QSeries` but `coeffs`, `M`, `trunc` and
`valuation`, and the plain product and quotient of `series_oracle` on dicts
of `Cyclo`.
"""

import math
import random
from fractions import Fraction

import pytest

from equiops import series
from equiops.cyclotomic import Cyclo, rational, sqrt2, totient, zeta
from equiops.poly import Poly
from equiops.qseries import QSeries, eta_product, kronecker5
from series_oracle import product, quotient

N = 120
CONDUCTORS = (3, 4, 5, 8, 12, 24, 60, 120)
REAL_KEYS = (-5, -8, -12)
ZERO = rational(0)


def irrational(rng, conductor):
    """a + b zeta_c^k with b != 0: irrational at the conductor c; for c = -m,
    a + b (zeta_m^k + zeta_m^-k), real, the generator entering by the public
    constructor, which puts it on the real key -m."""
    m = abs(conductor)
    k = rng.choice([k for k in range(1, m) if math.gcd(k, m) == 1])
    gen = zeta(N, k * (N // m))
    if conductor < 0:
        gen = Cyclo(N, (gen + gen.inverse()).num)
    return rational(rng.randint(-3, 3)) + gen * rational(
        Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 1, 2))))


def element(rng, conductors):
    """An int, a Fraction or an irrational element at one of the conductors."""
    kind = rng.random()
    if kind < 0.25:
        return rng.randint(-5, 5)
    if kind < 0.35:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return irrational(rng, rng.choice(conductors))


def random_series(rng, conductors, lead=None, M=None):
    """A seeded series with terms from `element`, at exponent denominator M
    (random if not given); `lead`, if given, is its leading coefficient."""
    M = M or rng.choice((1, 2, 3, 6))
    start = rng.randint(-M, M)
    trunc = Fraction(start + rng.randint(4, 14), M)
    coeffs = {k: element(rng, conductors) for k in range(start, _limit(trunc, M))
              if rng.random() < 0.7}
    if lead is not None:
        coeffs[start] = lead
    return QSeries(M, coeffs, trunc)


def _limit(trunc, M):
    return math.ceil(trunc * M)


def view(s, M):
    """The `Cyclo` coefficients of s keyed at exponent denominator M."""
    return {k * (M // s.M): c for k, c in s.coeffs.items()}


def assert_store(s):
    """The store of `Poly`: ints at m = 1, else tuple rows of phi(m) ints,
    one of them irrational; den > 0 prime to all the ints; no `Cyclo`."""
    items, den, m = s._items, s._den, s._m
    assert den > 0 and all(Fraction(k, s.M) < s.trunc for k in items)
    assert not any(isinstance(v, Cyclo) for v in items.values())
    if m == 1:
        assert all(type(v) is int and v for v in items.values())
        assert math.gcd(den, *items.values()) == 1
    else:
        rows = list(items.values())
        assert all(type(r) is tuple and len(r) == totient(m) and any(r) for r in rows)
        assert any(any(r[1:]) for r in rows)
        assert math.gcd(den, *[x for r in rows for x in r]) == 1


def ref_sum(a, b, sign=1):
    M = math.lcm(a.M, b.M)
    trunc = min(a.trunc, b.trunc)
    out = view(a, M)
    for k, c in view(b, M).items():
        out[k] = out.get(k, ZERO) + c * sign
    return M, {k: c for k, c in out.items() if c and Fraction(k, M) < trunc}, trunc


def ref_product(a, b):
    M = math.lcm(a.M, b.M)
    trunc = min(a.trunc + b.valuation, b.trunc + a.valuation)
    return M, product(view(a, M), view(b, M), _limit(trunc, M)), trunc


def ref_quotient(a, b):
    """a / b by the plain quotient, after the shift of both leads to q^0."""
    M = math.lcm(a.M, b.M)
    x, y = view(a, M), view(b, M)
    sb = min(y)
    sa = min(x, default=sb)
    vb = Fraction(sb, M)
    trunc = min(a.trunc - vb, b.trunc - 2 * vb + a.valuation)
    out = quotient({k - sa: c for k, c in x.items()}, {j - sb: c for j, c in y.items()},
                   _limit(trunc, M) - sa + sb)
    return M, {k + sa - sb: c for k, c in out.items()}, trunc


def assert_matches(got, want):
    M, coeffs, trunc = want
    assert_store(got)
    assert (got.M, got.trunc) == (M, trunc)
    assert got.coeffs == coeffs
    # the rows sit at a field key whose conductor is a multiple of every
    # coefficient's conductor
    assert abs(got._m) % math.lcm(1, *[c._m for c in coeffs.values()]) == 0


SEEDS = range(24)
REAL_SEEDS = range(24, 36)


def first_conductors(seed):
    """The conductors the first operand draws from: the real keys past SEEDS."""
    return CONDUCTORS if seed in SEEDS else REAL_KEYS


@pytest.mark.parametrize("seed", SEEDS)
def test_sums_and_differences(seed):
    rng = random.Random(seed)
    a = random_series(rng, [rng.choice(CONDUCTORS)])
    b = random_series(rng, [rng.choice(CONDUCTORS)])  # two conductors in one operation
    assert_matches(a + b, ref_sum(a, b))
    assert_matches(b + a, ref_sum(a, b))
    assert_matches(a - b, ref_sum(a, b, -1))
    assert_matches(-a, ref_sum(QSeries.zero(a.trunc, a.M), a, -1))
    # a rational constant and an irrational one, in both operand orders
    c = irrational(rng, rng.choice(CONDUCTORS))
    for k in (Fraction(2, 3), c):
        want = ref_sum(a, QSeries.constant(k, a.trunc))
        assert_matches(a + k, want)
        assert_matches(k + a, want)
    assert (a - a).is_zero and (a - a)._m == 1


@pytest.mark.parametrize("seed", [*SEEDS, *REAL_SEEDS])
def test_products(seed):
    rng = random.Random(100 + seed)
    a = random_series(rng, [rng.choice(first_conductors(seed))])
    b = random_series(rng, [rng.choice(first_conductors(seed)), rng.choice(CONDUCTORS)])
    assert_matches(a * b, ref_product(a, b))
    assert_matches(b * a, ref_product(a, b))
    assert_matches(a * a, ref_product(a, a))
    rational_series = QSeries(rng.choice((1, 2)), {0: 3, 1: Fraction(-1, 2), 2: 5}, 4)
    assert_matches(a * rational_series, ref_product(a, rational_series))


@pytest.mark.parametrize("seed", [*SEEDS, *REAL_SEEDS])
@pytest.mark.parametrize("lead", ["irrational", "rational"])
def test_quotients(seed, lead):
    rng = random.Random(200 + seed)
    a = random_series(rng, [rng.choice(first_conductors(seed))])
    conductors = [rng.choice(first_conductors(seed)), rng.choice(CONDUCTORS)]
    first = (irrational(rng, conductors[0]) if lead == "irrational"
             else rng.choice((2, -3, Fraction(5, 4))))
    b = random_series(rng, conductors, lead=first)
    assert_matches(a / b, ref_quotient(a, b))
    # a divisor whose rows share a content, taken out by the substitution
    assert_matches(a / (b * 6), ref_quotient(a, b * 6))
    one = QSeries.constant(1, 10 ** 6)
    assert_matches(b.inverse(), ref_quotient(one, b))
    assert_matches(1 / b, ref_quotient(QSeries.constant(1, b.trunc), b))
    # an irrational constant divisor, coerced to a series known as far as a
    c = irrational(rng, conductors[1])
    assert_matches(a / c, ref_quotient(a, QSeries.constant(c, a.trunc)))


@pytest.mark.parametrize("seed", [*SEEDS, *REAL_SEEDS])
def test_powers(seed):
    rng = random.Random(300 + seed)
    a = random_series(rng, [rng.choice(first_conductors(seed))], M=rng.choice((1, 2)))
    square = ref_product(a, a)
    square_series = QSeries(square[0], square[1], square[2])
    assert_matches(a ** 2, square)
    assert_matches(a ** 3, ref_product(square_series, a))
    inverse = ref_quotient(QSeries.constant(1, 10 ** 6), a)
    inverse_series = QSeries(inverse[0], inverse[1], inverse[2])
    assert_matches(a ** -1, inverse)
    assert_matches(a ** -2, ref_product(inverse_series, inverse_series))
    assert a ** 0 == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_derivatives_and_truncation(seed):
    rng = random.Random(400 + seed)
    a = random_series(rng, [rng.choice(CONDUCTORS), rng.choice(CONDUCTORS)])
    M = a.M
    d = {k - M: c * rational(Fraction(k, M)) for k, c in a.coeffs.items() if k}
    assert_matches(a.derivative(), (M, d, a.trunc - 1))
    qd = {k: c * rational(Fraction(k, M)) for k, c in a.coeffs.items() if k}
    assert_matches(a.q_derivative(), (M, qd, a.trunc))
    t = a.valuation + Fraction(rng.randint(1, 5), rng.choice((1, 2, 3)))
    cut = min(a.trunc, t)
    assert_matches(a.truncated(t), (M, {k: c for k, c in a.coeffs.items()
                                        if Fraction(k, M) < cut}, cut))


@pytest.mark.parametrize("seed", SEEDS)
def test_of_poly_takes_the_rows(seed):
    rng = random.Random(500 + seed)
    cs = [element(rng, [rng.choice(CONDUCTORS)]) for _ in range(rng.randint(1, 7))]
    cs.append(irrational(rng, rng.choice(CONDUCTORS)))
    p = Poly(cs)
    trunc = rng.randint(1, len(cs) + 1)
    s = QSeries.of_poly(p, trunc)
    assert_matches(s, (1, {i: c for i, c in enumerate(p.coeffs) if c and i < trunc}, trunc))
    if trunc > p.degree:  # every term kept: the rows of p as they are
        nonzero = {i: v for i, v in enumerate(p._items) if any(v)}
        assert (s._items, s._den, s._m) == (nonzero, p._den, p._m)


def test_rational_results_leave_the_rows():
    s2 = sqrt2()
    root = QSeries(1, {0: s2, 1: 3}, 5)
    assert root._m == -8  # on the real subfield of Q(zeta_8)
    square = root * root  # 2 + 6 sqrt2 q + 9 q^2
    assert square._m == -8
    assert ((root - s2) * (root - s2))._m == 1
    assert (root / root)._m == 1 and root / root == 1


# -- eta products: in place against factor by factor ----------------------------

def reference_eta_product(exponent_of, trunc, scale):
    """prod (1 - q^(n s))^e(n) as a series at M = s.denominator, one plain
    product or quotient per factor and power."""
    M, limit = scale.denominator, math.ceil(trunc * scale.denominator)
    out = {0: Fraction(1)}
    for n in range(1, math.ceil(trunc / scale)):
        e, factor = exponent_of(n), {0: Fraction(1), n * scale.numerator: Fraction(-1)}
        for _ in range(abs(e)):
            out = product(out, factor, limit) if e > 0 else quotient(out, factor, limit)
    return M, {k: rational(c) for k, c in out.items()}


def level4_odd(n):
    return 2 if n % 2 else 0


def level4_even(n):
    return -4 if n % 4 == 2 else 0


EXPONENTS = {"one": lambda n: 1, "minus_one": lambda n: -1, "kronecker5": kronecker5,
             "level4_odd": level4_odd, "level4_even": level4_even,
             "mixed": lambda n: (3, -2, 0, -1)[n % 4]}


@pytest.mark.parametrize("scale", [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2),
                                   Fraction(3)])
@pytest.mark.parametrize("name", sorted(EXPONENTS))
@pytest.mark.parametrize("trunc", [Fraction(1, 2), 4, Fraction(23, 3), 12])
def test_eta_product_matches_the_factor_product(scale, name, trunc):
    got = eta_product(EXPONENTS[name], trunc, scale=scale)
    M, want = reference_eta_product(EXPONENTS[name], Fraction(trunc), scale)
    assert_store(got)
    assert (got.M, got.trunc, got._m) == (M, trunc, 1)
    assert got.coeffs == want


def test_exact_quotient_of_rows_visits_only_reachable_exponents(monkeypatch):
    # (p q) / q known to q^(10^4): the division walks the exponents up to
    # deg p + deg q, where the quotient p ends, not the 10^4 below the truncation
    visited = []
    walk = series._walk

    def counting(*args):
        for k in walk(*args):
            visited.append(k)
            yield k

    monkeypatch.setattr(series, "_walk", counting)
    rng = random.Random(7)
    p = Poly([irrational(rng, 8), 3, irrational(rng, 5)])
    q = Poly([irrational(rng, 12), 0, 1, irrational(rng, 3)])
    got = QSeries.of_poly(p * q, 10 ** 4) / QSeries.of_poly(q, 10 ** 4)
    assert got.trunc == 10 ** 4
    assert got.coeffs == {i: c for i, c in enumerate(p.coeffs) if c}
    assert visited and max(visited) <= p.degree + q.degree
