"""Polynomial and rational-function arithmetic."""

import copy
import math
import pickle
import random
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings, strategies as st

from equiops import poly as poly_module
from equiops.cyclotomic import (Cyclo, CycloError, imag_unit, rational, sqrt2,
                                sqrt5, zeta)
from equiops.moebius import Moebius, compose_after, moebius_apply
from equiops.operators import d_operator, pre_schwarzian, schwarzian
from equiops.parsing import parse_poly, parse_ratfn
from equiops.poly import Poly
from equiops.ratfn import INF, RatFn
from series_oracle import quotient


def rand_poly(rng, deg):
    coeffs = [rational(rng.randint(-5, 5)) for _ in range(deg + 1)]
    coeffs[-1] = rational(rng.choice([1, 2, -1]))
    return Poly(coeffs)


def test_poly_divmod_roundtrip():
    rng = random.Random(1)
    for _ in range(20):
        a = rand_poly(rng, rng.randint(0, 6))
        b = rand_poly(rng, rng.randint(1, 4))
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_poly_gcd_divides():
    rng = random.Random(2)
    for _ in range(10):
        g = rand_poly(rng, rng.randint(1, 3))
        a = g * rand_poly(rng, 2)
        b = g * rand_poly(rng, 2)
        d = a.gcd(b)
        assert (a % d).is_zero and (b % d).is_zero
        assert d.degree >= g.degree


def test_ratfn_reduced_and_monic():
    f = parse_ratfn("(2*z^2 - 2)/(4*z - 4)")
    assert f.den.is_monic
    assert f == parse_ratfn("(z + 1)/2")


def test_ratfn_field_ops():
    f = parse_ratfn("(z^2 - 1)/z")
    g = parse_ratfn("1/(z + 2)")
    assert (f + g) - g == f
    assert (f * g) / g == f
    assert f * f.inverse() == RatFn.constant(rational(1))


def test_ratfn_compose():
    f = parse_ratfn("z^2")
    g = parse_ratfn("(z + 1)/(z - 1)")
    h = f.compose(g)
    assert h == parse_ratfn("(z + 1)^2/(z - 1)^2")


@pytest.mark.parametrize("text, value", [
    ("z^2 + 1", RatFn.infinity()),
    ("1/(z^2 + 1)", RatFn.constant(rational(0))),
    ("(2*z + 1)/(z - 3)", RatFn.constant(rational(2))),
])
def test_ratfn_compose_with_infinity(text, value):
    assert parse_ratfn(text).compose(RatFn.infinity()) == value


def test_derivative_quotient_rule():
    f = parse_ratfn("(z^3 + 1)/(z - 2)")
    g = parse_ratfn("z^2 + 3")
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_taylor_coefficients():
    f = parse_ratfn("(z^2 - 1)/z")
    coeffs = f.taylor(rational(1), 5)
    expected = [0, 2, -1, 1, -1]
    assert [c for c in coeffs] == [rational(v) for v in expected]


def taylor_reference(f, p, n):
    """Taylor coefficients by the plain quotient of the Cyclo coefficient views."""
    zp = Poly((p, 1), f.order)
    num, den = f.num(zp), f.den(zp)
    sparse = lambda q: {k: c for k, c in enumerate(q.coeffs) if not c.is_zero}
    out = quotient(sparse(num), sparse(den), n)
    return [out.get(k, rational(0, f.order)) for k in range(n)]


@pytest.mark.parametrize("text, point", [
    ("(z^2 - 1)/z", 1), ("(z^3 + 1)/(3*z - 2)", 0),
    ("(2*z^4 - 7*z + 5)/(6*z^2 + 4*z + 9)", Fraction(-5, 3)),
    ("(z^5 + 1/7)/(z^3 - 12)", Fraction(1, 2)), ("z^3 - 4*z", Fraction(3, 5)),
    ("1/(z^2 + 3)^3", 0), ("(z - 1)^2/(z + 2)^4", 2), ("0", 3)])
def test_taylor_on_ints_matches_the_cyclo_path(text, point):
    # the integer division of div_ints against the field division, with
    # constant terms den(p) that are no unit and several sizes
    f = parse_ratfn(text)
    p = rational(point)
    for n in (0, 1, 2, 9):
        assert f.taylor(p, n) == taylor_reference(f, p, n)
        assert f.taylor_series(p, n).trunc == n
    g = f * Poly([sqrt5(), 1])  # an irrational map keeps the field division
    assert g.taylor(p, 6) == taylor_reference(g, p, 6)


def test_a_constant_takes_the_field_of_its_cyclo():
    # the den of zeta_60 as a constant is built at 60, not at the default 120
    c = RatFn.constant(zeta(60))
    assert c.order == c.num.order == c.den.order == 60
    z = RatFn.x(60)
    assert c * z == z * c == parse_ratfn("zeta*z", 60)
    assert c + z == parse_ratfn("z + zeta", 60)
    assert z / c == parse_ratfn("zeta^59*z", 60)
    assert c == RatFn(Poly.constant(zeta(60))) == RatFn(zeta(60))


def test_product_with_a_zero_factor_is_zero_over_one(monkeypatch):
    f = parse_ratfn("(z^2 + 3)/(2*z - 7)")
    zero = RatFn.constant(0)
    products = []
    multiply = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda p, q: products.append(1) or multiply(p, q))
    for r in (zero * f, f * zero, zero / f, f * 0, 0 * f):
        assert r.num.is_zero and r.den == Poly.one()
        assert (r.num._items, r.num._den, r.den._items, r.den._den) == ((), 1, (1,), 1)
        assert r == RatFn(0) and hash(r) == hash(RatFn(0))
    assert not products  # no product of the denominators is formed
    h = parse_ratfn("(z + zeta)/(z^2 - 5)", 60)
    r = RatFn.constant(0, 60) * h
    assert r.is_zero and r.order == 60 and r.den == Poly.one(60)


def test_evaluate_at_infinity():
    f = parse_ratfn("(3*z^2 + 1)/(z^2 - 5)")
    assert f.eval_at_infinity_symbol() == rational(3)
    g = parse_ratfn("z/(z^2+1)")
    assert g.eval_at_infinity_symbol() == rational(0)


@pytest.mark.parametrize("x", [1j, 0.5 + 1j, 2.0, 2.5])
def test_an_inexact_argument_is_refused(x):
    # the zero Poly has no coefficient for a Horner step to fail on
    f = parse_ratfn("(3*z^2 + 1)/(z^2 - 5)")
    for g in (f, f.num, f.den, Poly.one(), Poly.zero(), parse_poly("2*z - 1")):
        with pytest.raises(TypeError):
            g(x)


def test_infinity_arithmetic_guard():
    inf = RatFn.infinity()
    assert inf.is_infinity
    with pytest.raises(Exception):
        inf + inf


def test_cyclotomic_coefficients():
    p = parse_poly("z^4 - 2*(zeta^15+zeta^105)*z")
    root_scale = sqrt2()
    assert p.coeffs[1] == -(root_scale + root_scale)


# -- rational lane against a Fraction-list oracle and the Cyclo path --------

def frac_lists(min_size, max_size):
    return st.lists(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9)),
                    min_size=min_size, max_size=max_size).filter(
                        lambda cs: cs[-1] != 0)


def oracle_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def oracle_divmod(a, b):
    rem = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        q[i] = c
        for j, y in enumerate(b):
            rem[i + j] -= c * y
    return q, rem[:len(b) - 1]


def assert_coeffs(p, fracs):
    """p has exactly the coefficients fracs, as normalised Cyclo elements."""
    while fracs and fracs[-1] == 0:
        fracs = fracs[:-1]
    ref = [Cyclo(p.order, [f.numerator], f.denominator) for f in fracs]
    assert [(c.num, c.den, hash(c)) for c in p.coeffs] == \
        [(c.num, c.den, hash(c)) for c in ref]


def assert_divmod_identity(a, b):
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree
    return q, r


def assert_gcd_identity(a, b, c):
    """gcd(a c, b c) is monic, divides both products and is divisible by c."""
    g = (a * c).gcd(b * c)
    assert g.is_monic
    assert ((a * c) % g).is_zero and ((b * c) % g).is_zero
    assert (g % c).is_zero
    return g


@settings(max_examples=80, deadline=None)
@given(frac_lists(1, 7), frac_lists(1, 5))
def test_rational_mul_divmod_match_fraction_oracle(fa, fb):
    a, b = Poly(fa), Poly(fb)
    assert_coeffs(a * b, oracle_mul(fa, fb))
    assert_coeffs(b * a, oracle_mul(fa, fb))
    q, r = assert_divmod_identity(a, b)
    if len(fa) >= len(fb):
        oq, orem = oracle_divmod(fa, fb)
        assert_coeffs(q, oq)
        assert_coeffs(r, orem)
    else:
        assert q.is_zero and r == a


@settings(max_examples=40, deadline=None)
@given(frac_lists(1, 4), frac_lists(1, 4), frac_lists(2, 3))
def test_rational_gcd_identities(fa, fb, fc):
    assert_gcd_identity(Poly(fa), Poly(fb), Poly(fc))


def field_coeffs():
    """Coefficients from Q, Q(sqrt 5), Q(i) and zeta_120^k mixes."""
    surd = st.sampled_from([rational(1), sqrt5(), imag_unit(), zeta(120, 7),
                            zeta(120, 1) + zeta(120, 31), sqrt5() * imag_unit()])
    return st.builds(lambda s, x, y: s * rational(x) + rational(y), surd,
                     st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
                     st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


def field_polys(min_size, max_size):
    return st.lists(field_coeffs(), min_size=min_size, max_size=max_size).filter(
        lambda cs: not cs[-1].is_zero).map(Poly)


@settings(max_examples=30, deadline=None)
@given(field_polys(1, 5), field_polys(1, 4), frac_lists(1, 4))
def test_irrational_divmod_identities(a, b, fr):
    r = Poly(fr)
    assert_divmod_identity(a, b)
    # one operand rational, the other not
    assert_divmod_identity(a, r)
    assert_divmod_identity(r, b)
    assert (a * r) == (r * a)
    q, rem = (a * r).divmod(r)
    assert q == a and rem.is_zero


# -- gcd against monic Euclid, over Q(zeta), Q(zeta^7), Q(sqrt 5) and Q(i) ----

GCD_FIELDS = {"zeta": zeta(120, 1), "zeta7": zeta(120, 7), "sqrt5": sqrt5(),
              "i": imag_unit()}


def seeded_field_poly(rng, degree, gen):
    cs = [rational(rng.randint(-3, 3)) + gen * rational(rng.randint(-3, 3))
          for _ in range(degree)]
    return Poly(cs + [rational(rng.randint(1, 3)) + gen * rational(rng.randint(1, 3))])


def cubic_shape(name):
    """(a, b, g) of degrees 5, 4 and 3 over a field: a g and b g have
    degrees 8 and 7 and the cubic common factor g."""
    rng = random.Random("gcd-shape:" + name)
    return tuple(seeded_field_poly(rng, d, GCD_FIELDS[name]) for d in (5, 4, 3))


def euclid_gcd(a, b):
    """The monic gcd of two nonzero `Cyclo` coefficient lists by monic
    Euclid, the reference for `Poly.gcd`."""
    def trim(cs):
        while cs and cs[-1].is_zero:
            cs = cs[:-1]
        return cs
    a, b = trim(a), trim(b)
    while b:
        inv = b[-1].inverse()
        b = [c * inv for c in b]
        while len(a) >= len(b):
            t, k = a[-1], len(a) - len(b)
            a = trim([c - t * b[i - k] if i >= k else c for i, c in enumerate(a)])
        a, b = b, a
    inv = a[-1].inverse()
    return [c * inv for c in a]


@pytest.mark.parametrize("name", sorted(GCD_FIELDS))
def test_gcd_matches_monic_euclid(name):
    a, b, g = cubic_shape(name)
    rng = random.Random("gcd-mixed:" + name)
    r, s = (Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)]
                 + [Fraction(rng.randint(1, 5), rng.randint(1, 4))]) for d in (2, 3))
    # the cubic shape, coprime operands, and rational x irrational operands
    # with a rational or an irrational common factor
    for p, q in [(a * g, b * g), (a, b), (r * s, a * s), (r * g, a * g)]:
        got = p.gcd(q)
        assert got.coeffs == tuple(euclid_gcd(list(p.coeffs), list(q.coeffs)))
        assert got == q.gcd(p) and got.is_monic
    assert (a * g).gcd(b * g).degree >= 3


@settings(max_examples=15, deadline=None)
@given(field_polys(1, 3), field_polys(1, 3), field_polys(2, 3))
@example(*cubic_shape("zeta"))
@example(*cubic_shape("zeta7"))
@example(*cubic_shape("sqrt5"))
@example(*cubic_shape("i"))
def test_irrational_gcd_identities(a, b, c):
    assert_gcd_identity(a, b, c)


# -- squarefree decomposition over Q, Q(sqrt 5) and Q(zeta) ------------------

SQUAREFREE_FIELDS = {"Q": rational(0), "sqrt5": sqrt5(), "zeta": zeta(120, 1)}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(SQUAREFREE_FIELDS))
def test_squarefree_factors_are_monic_squarefree_and_coprime(name, seed):
    # Yun's factors are monic, squarefree and pairwise coprime, as the
    # Hermite reduction of period_residues needs
    rng = random.Random("squarefree:%s:%d" % (name, seed))
    a, b, c = (seeded_field_poly(rng, rng.randint(1, 2), SQUAREFREE_FIELDS[name])
               for _ in range(3))
    p = a * a * b ** 3 * c ** 3
    parts = p.squarefree_decomposition()
    assert max(i for _, i in parts) >= 3
    product = Poly.one(p.order)
    for k, (f, i) in enumerate(parts):
        assert f.is_monic and f.is_squarefree()
        assert all(f.gcd(g).degree == 0 for g, _ in parts[k + 1:])
        product = product * f ** i
    assert product == p.monic()


# -- field orders -------------------------------------------------------------

def test_poly_rejects_mixed_orders():
    with pytest.raises(CycloError):
        Poly([rational(1, 60), rational(2, 120)])
    assert Poly([rational(1, 60), 2]).order == 60
    p60 = Poly([rational(1, 60)])
    p120 = Poly([rational(1, 120), rational(1, 120)])
    q60 = Poly([rational(1, 60), rational(3, 60)])
    with pytest.raises(CycloError):
        p60 * p120
    with pytest.raises(CycloError):
        q60 * p120
    with pytest.raises(CycloError):
        q60.divmod(p120)
    with pytest.raises(CycloError):
        (q60 * q60).divmod(p120)
    with pytest.raises(CycloError):
        q60 + p120
    with pytest.raises(CycloError):
        q60.gcd(p120)
    # the int kernels of rational data check the field too
    x60, x120 = Poly.x(60), Poly.x(120)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a.divmod(b), lambda a, b: a.gcd(b),
               lambda a, b: (a * a + 1).divmod(b), lambda a, b: a.scale(b.leading),
               lambda a, b: a(b.leading)):
        with pytest.raises(CycloError):
            op(x60, x120)


# -- operator protocol and the hash/eq contract ---------------------------------

def with_operators_kept(f):
    """f after D, phi and S at dz have filled its memo."""
    for operator in (d_operator, pre_schwarzian, schwarzian):
        operator(f)
    return f


@pytest.mark.parametrize("value", [
    rational(Fraction(-7, 3)),
    sqrt5() * rational(Fraction(2, 9)) + imag_unit(),
    parse_poly("z^3 - (zeta^15+zeta^105)*z + 1/2"),
    parse_ratfn("(z^2 - zeta)/(3*z + 1)"),
    Poly([Fraction(-3, 4), 0, Fraction(5, 10 ** 20 + 39)]),
    Poly.zero(),
    parse_ratfn("(2*z + 1)/(z^2/3 + 1)"),
    with_operators_kept(parse_ratfn("(z^3 - zeta)/(z^2 + 2)")),
    d_operator(parse_ratfn("(2*z + 1)/(z - 3)")),
    d_operator(parse_ratfn("(z^3 + z)/(z - 2)")),
], ids=["rational", "irrational", "poly", "ratfn", "rational-poly", "zero-poly",
        "rational-ratfn", "ratfn-with-operators", "degenerate-dresult", "dresult"])
def test_values_survive_pickle_and_deepcopy(value):
    def polys(v):
        return [v] if isinstance(v, Poly) else [v.num, v.den] if isinstance(v, RatFn) else []
    for p in polys(value)[:1]:
        p.coeffs  # a view already built is copied along
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)
        assert repr(copied) == repr(value)
        if isinstance(value, Cyclo):
            assert copied.is_rational == value.is_rational
        if isinstance(value, RatFn):  # the memo stays behind and fills again
            assert copied.degenerate is value.degenerate and copied._ops == {}
            if not value.is_constant:
                assert d_operator(copied) == d_operator(value)
        for p, q in zip(polys(copied), polys(value)):
            assert p.is_rational == q.is_rational and p.coeffs == q.coeffs
            if q.is_rational:
                assert p.as_ints() == q.as_ints()
            assert p * p + p == q * q + q


@pytest.mark.parametrize("value", [
    parse_ratfn("(z^2 - 3)/(2*z + 1)"), with_operators_kept(parse_ratfn("z^3/(z + 1)")),
    d_operator(parse_ratfn("(2*z + 1)/(z - 3)")), d_operator(parse_ratfn("z^3/(z + 1)")),
], ids=["ratfn", "ratfn-with-operators", "degenerate-dresult", "dresult"])
@pytest.mark.parametrize("name", ["num", "den", "order", "degenerate", "_ops", "other"])
def test_ratfn_and_dresult_refuse_assignment(value, name):
    before = (value.num, value.den, value.order, getattr(value, "degenerate", None))
    with pytest.raises(AttributeError):
        setattr(value, name, RatFn.x())
    assert (value.num, value.den, value.order, getattr(value, "degenerate", None)) == before
    assert not hasattr(value, "other")


def test_ratfn_hash_matches_equality_on_unreduced_values():
    f = parse_ratfn("(z^2 - 3)/(2*z + 1)")
    g = RatFn(f.num.scale(2), f.den.scale(2))
    assert g == f
    assert hash(g) == hash(f)
    assert len({f, g}) == 1
    h = RatFn(f.num * parse_poly("z - 4"), f.den * parse_poly("z - 4"))
    assert h == f and hash(h) == hash(f)
    assert len({f, g, h, parse_ratfn("z")}) == 2


def test_ratfn_hash_and_equality_are_structural(monkeypatch):
    # every value is canonical, so neither needs a gcd or a cross product
    f = RatFn(parse_poly("z^5 + zeta^7*z^2 - 3"), parse_poly("2*z^4 + zeta*z + 1"))
    g = RatFn(f.num, f.den)
    others = [f + 1, RatFn.x(), f.inverse()]
    want = hash((f.num, f.den))

    def forbidden(*args):
        raise AssertionError("hash or == ran polynomial arithmetic")
    monkeypatch.setattr(Poly, "gcd", forbidden)
    monkeypatch.setattr(Poly, "__mul__", forbidden)
    assert hash(f) == hash(g) == want
    assert f == g and not f != g
    assert all(f != o for o in others) and f != 0
    assert len({f, g, *others}) == 4


# -- one substitution kernel ---------------------------------------------------

def substitute_poly(rng, degree, gen):
    """Small rational coefficients, with a + b*gen mixed in when gen is given;
    degree -1 is the zero polynomial."""
    cs = [rational(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))))
          for _ in range(degree + 1)]
    if degree >= 0:
        cs[-1] = rational(rng.choice((1, -2, Fraction(1, 3))))
        if gen is not None:
            cs[rng.randrange(degree + 1)] += gen * rational(rng.choice((-1, 1, 2)))
    return Poly(cs)


@pytest.mark.parametrize("gen", [None, sqrt5(), imag_unit(),
                                 rational(2) + zeta(120, 7) * rational(3)],
                         ids=["rational", "sqrt5", "imag", "zeta7"])
def test_substitute_matches_evaluation(gen):
    # P.substitute(p, q, D)(x) = P(p(x)/q(x)) q(x)^D wherever q(x) != 0;
    # q is 1, a constant or linear in turn
    rng = random.Random("substitute")
    points = [rational(Fraction(n, 3)) for n in (-5, -1, 0, 2, 7)]
    for trial in range(12):
        P = substitute_poly(rng, trial % 5 - 1, gen)  # zero, constant, ... quartic
        p = substitute_poly(rng, rng.randint(0, 2), gen)
        q = Poly.one() if trial % 3 == 0 else substitute_poly(rng, trial % 3 - 1, gen)
        for D in {max(P.degree, 0), max(P.degree, 0) + rng.randint(1, 2)}:
            S = P.substitute(p, q, D)
            for x in points:
                qx = q(x)
                if qx.is_zero:
                    continue
                assert S(x) == P(p(x) / qx) * qx ** D
        assert P(p) == P.substitute(p, Poly.one(), P.degree)
    with pytest.raises(ValueError):
        parse_poly("z^2").substitute(Poly.x(), Poly.one(), 1)


# -- Henrici arithmetic against the full-reduction oracle ----------------------

def henrici_poly(rng, degree, gen):
    """Small rational coefficients and a non-monic rational leading one.
    When gen is given, one coefficient below the leading one (or the
    constant, for degree 0) becomes a + b*gen."""
    cs = [rational(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))))
          for _ in range(degree + 1)]
    cs[-1] = rational(rng.choice((1, 2, -3, Fraction(1, 2))))
    if gen is not None:
        cs[rng.randrange(max(degree, 1))] += gen * rational(rng.choice((-2, -1, 1, 2)))
    return Poly(cs)


def henrici_pair(rng, gen, degree=2):
    """Two reduced maps whose nums and dens share planted factors s and t."""
    s, t = henrici_poly(rng, 1, gen), henrici_poly(rng, 1, None)
    factors = [Poly.one(), s, t, s * s, s * t][:degree + 3]  # s*t only at degree 2

    def side():
        return henrici_poly(rng, rng.randint(0, degree), gen) * rng.choice(factors)
    return RatFn(side(), side()), RatFn(side(), side())


def henrici_moebius(rng, gen):
    while True:
        try:
            return Moebius(*(henrici_poly(rng, 0, gen).coeffs[0] for _ in range(4)))
        except ValueError:
            continue


def assert_canonical(got, num, den):
    """got is the full reduction RatFn(num, den): same parts, repr and hash."""
    want = RatFn(num, den)
    assert type(got) is RatFn
    assert got.num == want.num and got.den == want.den
    assert got.den.is_monic
    assert repr(got) == repr(want)
    assert hash(got) == hash(want)


def check_against_full_reduction(f, g):
    a, b, c, d = f.num, f.den, g.num, g.den
    assert_canonical(f + g, a * d + c * b, b * d)
    assert_canonical(f - g, a * d - c * b, b * d)
    e = g - f  # f + e = g cancels the factors of b that d lacks: gcd(t, g) > 1
    assert_canonical(f + e, a * e.den + e.num * b, b * e.den)
    assert_canonical(f * g, a * c, b * d)
    assert_canonical(f ** 3, a ** 3, b ** 3)
    assert_canonical(f ** 0, Poly.one(), Poly.one())
    assert_canonical(f.derivative(), a.derivative() * b - a * b.derivative(), b * b)
    if g:
        assert_canonical(f / g, a * d, b * c)
        assert_canonical(g.inverse(), d, c)
        assert_canonical(g ** -2, d * d, c * c)
    for zero in (f - f, f * 0, 0 * g, g - g):
        assert_canonical(zero, Poly.zero(), Poly.one())


# (name, generator, pairs, degree): the oracle's own gcd over Q(zeta_120) is
# slow, so the zeta data is smaller
HENRICI_FIELDS = [("rational", None, 30, 2), ("sqrt5", sqrt5(), 6, 2),
                  ("imag", imag_unit(), 6, 2), ("zeta", zeta(120, 1), 2, 1),
                  ("zeta7", zeta(120, 7), 2, 1)]


@pytest.mark.parametrize("name,gen,pairs,degree", HENRICI_FIELDS,
                         ids=[case[0] for case in HENRICI_FIELDS])
def test_ratfn_arithmetic_matches_full_reduction(name, gen, pairs, degree):
    rng = random.Random("henrici:" + name)
    for _ in range(pairs):
        f, g = henrici_pair(rng, gen, degree)
        check_against_full_reduction(f, g)
        check_against_full_reduction(g, f)


@pytest.mark.parametrize("name,gen", [case[:2] for case in HENRICI_FIELDS[:3]],
                         ids=[case[0] for case in HENRICI_FIELDS[:3]])
def test_derivative_with_repeated_denominator_factors(name, gen):
    # den = s^3 t: gcd(den, den') = s^2 and the result needs no further gcd
    rng = random.Random("henrici-derivative:" + name)
    for _ in range(8):
        s, t = henrici_poly(rng, 1, gen), henrici_poly(rng, rng.randint(1, 2), None)
        f = RatFn(henrici_poly(rng, rng.randint(0, 3), gen), s ** 3 * t)
        a, b = f.num, f.den
        assert_canonical(f.derivative(), a.derivative() * b - a * b.derivative(), b * b)


def test_moebius_images_match_full_reduction():
    rng = random.Random("henrici-moebius")
    for gen in (None, sqrt5(), imag_unit()):
        for _ in range(6):
            f, g = henrici_pair(rng, gen)
            m = henrici_moebius(rng, gen)
            num = f.num.scale(m.a) + f.den.scale(m.b)
            den = f.num.scale(m.c) + f.den.scale(m.d)
            assert_canonical(moebius_apply(m, f), num, den)
            h = compose_after(f, m)
            assert_canonical(h, h.num, h.den)
            assert h == f.compose(m.as_ratfn())
            for x in (rational(n) for n in (-2, 0, 1, 5)):
                mx = m.as_ratfn()(x)
                if mx == INF or f.den(mx).is_zero:
                    continue
                assert h(x) == f(mx)
            fg = f.compose(g)
            assert_canonical(fg, fg.num, fg.den)


def test_ratfn_edge_cases_keep_their_errors():
    f = parse_ratfn("(2*z + 1)/(z - 3)")
    zero, inf = RatFn.constant(0), RatFn.infinity()
    with pytest.raises(ZeroDivisionError):
        f / zero
    with pytest.raises(ZeroDivisionError):
        zero ** -1
    with pytest.raises(ArithmeticError):
        f * inf
    with pytest.raises(ArithmeticError):
        inf.derivative()
    assert zero.inverse().is_infinity and inf.inverse() == zero
    assert (inf ** 2).is_infinity and inf ** 0 == 1
    assert repr(f.inverse()) == repr(RatFn(f.den, f.num))


# -- int storage against a Fraction reference ------------------------------------

def frac_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def frac_add(a, b):
    n = max(len(a), len(b))
    return frac_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                      for i in range(n)])


def frac_mul(a, b):
    return frac_trim(oracle_mul(a, b)) if a and b else []


def frac_gcd(a, b):
    """Monic gcd by Euclid over Q; [] only for two zeros."""
    a, b = frac_trim(a), frac_trim(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, frac_trim(oracle_divmod(a, b)[1])
    return [c / a[-1] for c in a] if a else []


def frac_power(a, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = frac_mul(out, a)
    return out


def frac_substitute(a, p, q, degree):
    """sum a_i p^i q^(degree - i)."""
    out = []
    for i, c in enumerate(a):
        out = frac_add(out, [c * t for t in frac_mul(frac_power(p, i), frac_power(q, degree - i))])
    return out


def frac_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def seeded_fracs(rng, degree):
    """Coefficients for degree -1 (zero) up: small, or with a large
    denominator, and a leading coefficient of either sign."""
    def coeff():
        den = rng.choice((1, 1, 2, 3, 7, 10 ** 20 + 39))
        return Fraction(rng.randint(-9, 9) * rng.choice((1, 1, 10 ** 18 + 3)), den)
    out = [coeff() for _ in range(degree + 1)]
    if out:
        out[-1] = rng.choice((1, -1)) * Fraction(rng.randint(1, 7), rng.choice((1, 5, 10 ** 20 + 39)))
    return out


def assert_storage(p, fracs):
    """p is int-stored and canonical, with exactly the coefficients fracs."""
    ints, den = p.as_ints()
    assert p.is_rational and den > 0
    assert not ints or ints[-1] != 0
    g = den
    for v in ints:
        g = math.gcd(g, v)
    assert g == 1
    assert [Fraction(v, den) for v in ints] == frac_trim(fracs)
    assert_coeffs(p, frac_trim(fracs))


FRACTION_POLYS = [(d, seed) for d in range(-1, 6) for seed in range(3)]


@pytest.mark.parametrize("degree,seed", FRACTION_POLYS)
def test_int_storage_matches_fraction_reference(degree, seed):
    rng = random.Random("int-storage:%d:%d" % (degree, seed))
    fa = seeded_fracs(rng, degree)
    fb = seeded_fracs(rng, rng.randint(-1, 4))
    a, b = Poly(fa), Poly(fb)
    assert_storage(a, fa)
    assert_storage(a + b, frac_add(fa, fb))
    assert_storage(a - b, frac_add(fa, [-c for c in fb]))
    assert_storage(-a, [-c for c in fa])
    for c in (Fraction(0), Fraction(-3, 10 ** 20 + 39), 5, rational(Fraction(2, 7))):
        assert_storage(a.scale(c), [Fraction(c.as_fraction() if isinstance(c, Cyclo) else c) * x
                                    for x in fa])
    assert_storage(a * b, frac_mul(fa, fb))
    assert_storage(a.derivative(), [i * c for i, c in enumerate(fa)][1:])
    if fa:
        assert_storage(a.monic(), [c / fa[-1] for c in fa])
    if fb:  # RatFn(a, b) rescales by the inverse of the lead of b, after the gcd
        f, inv = RatFn(a, b), b.leading.inverse()
        _, ca, cb = a.gcd_cofactors(b) if a.degree >= 1 and b.degree >= 1 else (None, a, b)
        want = (ca.scale(inv), cb.scale(inv)) if fa else (a, Poly.one())
        assert (f.num, f.den) == want and repr(f) == repr(RatFn(*want))
        assert f.den.is_monic and f.num.is_rational and f.den.is_rational
        if fa and cb.degree == b.degree:  # nothing cancelled
            assert_storage(f.num, [c / fb[-1] for c in fa])
            assert_storage(f.den, [c / fb[-1] for c in fb])
        q, r = a.divmod(b)
        if len(fa) >= len(fb):
            oq, orem = oracle_divmod(fa, fb)
        else:
            oq, orem = [], fa
        assert_storage(q, oq)
        assert_storage(r, orem)
    if fa or fb:
        assert_storage(a.gcd(b), frac_gcd(fa, fb))
        assert_storage(a.gcd(a * b), frac_gcd(fa, frac_mul(fa, fb)))
    p, q = seeded_fracs(rng, rng.randint(0, 2)), seeded_fracs(rng, rng.randint(-1, 1))
    for extra in (0, 2):
        D = max(degree, 0) + extra
        assert_storage(a.substitute(Poly(p), Poly(q), D), frac_substitute(fa, p, q, D))
    assert_storage(a(Poly(p)), frac_substitute(fa, p, [Fraction(1)], degree))
    for x in (0, Fraction(-7, 3), Fraction(1, 10 ** 20 + 39), rational(5)):
        value = a(x)
        assert isinstance(value, Cyclo)
        assert value == frac_eval(fa, x.as_fraction() if isinstance(x, Cyclo) else x)


def test_promotion_matches_the_cyclo_path():
    # a rational operand meets Q(sqrt5) and zeta data through its Cyclo view;
    # the results are those of Cyclo arithmetic on the coefficient lists
    rng = random.Random("promotion")
    for gen in (sqrt5(), zeta(120, 7), imag_unit()):
        for _ in range(4):
            r = Poly(seeded_fracs(rng, rng.randint(1, 4)))
            a = Poly([rational(rng.randint(-3, 3)) + gen * rational(rng.randint(-2, 2))
                      for _ in range(rng.randint(1, 3))] + [gen])
            assert r.is_rational and not a.is_rational
            with pytest.raises(CycloError):
                a.as_ints()
            ra, rc = r.coeffs, a.coeffs
            prod = [rational(0)] * (len(ra) + len(rc) - 1)
            for i, x in enumerate(ra):
                for j, y in enumerate(rc):
                    prod[i + j] = prod[i + j] + x * y
            assert (r * a).coeffs == tuple(prod) and (a * r) == (r * a)
            total = [x + y for x, y in zip_longest(ra, rc, fillvalue=rational(0))]
            assert (r + a) == Poly(total) and (a + r) == (r + a)
            assert_divmod_identity(r * a + r, a)
            assert_divmod_identity(a * a, r)
            assert r.gcd(r * a) == r.monic()
            assert (a * r).scale(rational(Fraction(-2, 3))) == a * r.scale(Fraction(-2, 3))
            assert (r - r * 1).is_zero and (a * gen - a * gen).is_rational


def test_rational_results_of_irrational_data_are_int_stored():
    s5 = Poly([sqrt5(), 1])
    conj = Poly([-sqrt5(), 1])
    p = s5 * conj  # z^2 - 5
    assert p.is_rational and p.as_ints() == ((-5, 0, 1), 1)
    assert p == parse_poly("z^2 - 5") and hash(p) == hash(parse_poly("z^2 - 5"))
    assert (s5 - Poly([sqrt5()])).as_ints() == ((0, 1), 1)
    assert Poly([sqrt5(), sqrt5() * rational(2)]).monic().as_ints() == ((1, 2), 2)


def test_equality_and_hash_across_constructions():
    fr = [Fraction(-3, 4), Fraction(0), Fraction(5, 6), Fraction(1, 10 ** 20 + 39)]
    built = [Poly(fr), Poly([rational(c) for c in fr]),
             Poly([Cyclo(120, [c.numerator], c.denominator) for c in fr]),
             Poly([rational(c) for c in fr] + [0, Fraction(0)]),
             parse_poly("(1/%d)*z^3 + (5/6)*z^2 - 3/4" % (10 ** 20 + 39))]
    for p in built:
        assert p == built[0] and hash(p) == hash(built[0])
        assert p.as_ints() == built[0].as_ints()
    assert len(set(built)) == 1
    assert Poly([2, 4]) != Poly([1, 2]) and Poly([Fraction(1, 2)]) != Poly([1])


def test_constants_hash_like_the_fractions_they_equal():
    pairs = [(rational(3), 3), (Poly.constant(3), 3), (RatFn.constant(3), 3),
             (Poly.constant(rational(3)), rational(3)),
             (rational(Fraction(-2, 9)), Fraction(-2, 9)),
             (RatFn.constant(Fraction(-2, 9)), Fraction(-2, 9)),
             (Poly.zero(), 0), (RatFn.x(), Poly.x())]
    for value, other in pairs:
        assert value == other and hash(value) == hash(other)
    assert {rational(1): "one"}.get(1) == "one"
    assert {3: "three"}.get(RatFn.constant(3)) == "three"
    irrational = sqrt5() * rational(2)
    assert Poly.constant(irrational) == irrational
    assert hash(Poly.constant(irrational)) == hash(irrational)
    # rationals, equal in every field order, compare and hash by value; so
    # equal hashes never meet an == that raises for mixed orders
    assert rational(3, 60) == rational(3, 120) == 3
    assert len({rational(3, 60), rational(3, 120), 3, Poly.constant(3, 60)}) == 1
    assert Poly.x(60) == Poly.x(120) and hash(Poly.x(60)) == hash(Poly.x(120))
    assert RatFn.constant(3, 60) == RatFn.constant(3, 120)
    with pytest.raises(CycloError):
        zeta(60) == zeta(120)
    with pytest.raises(CycloError):
        Poly([zeta(60)]) == Poly([zeta(120)])
    with pytest.raises(CycloError):
        Poly([zeta(60), 1]) == Poly([zeta(120)])


# -- the gcd kernel: GCDHEU with cofactors ------------------------------------

def heu_ints(rng, degree, size):
    """An int list of the degree, coefficients up to size, lead of either sign."""
    return ([rng.randint(-size, size) for _ in range(degree)]
            + [rng.choice((-1, 1)) * rng.randint(1, size)])


def int_mul(a, b):
    return [int(v) for v in oracle_mul(a, b)]


def heu_pairs():
    """(name, fa, fb) int-list pairs: coprime, with a common factor, one
    dividing the other, constants, and coefficients up to 10^30."""
    rng = random.Random("gcdheu")
    out = [("constants", [-6], [4]), ("constant-and-poly", [-7], [3, 0, -2]),
           ("poly-and-constant", [9, -3, 6], [-15]), ("content-only", [4, -8, 12], [-6, 18])]
    for size in (3, 10 ** 6, 10 ** 30):
        for i in range(4):
            g, a, b = (heu_ints(rng, rng.randint(lo, 3), size) for lo in (1, 0, 0))
            ag, bg = int_mul(a, g), int_mul(b, g)
            out += [("coprime-%d-%d" % (size, i), a, b),
                    ("common-%d-%d" % (size, i), ag, bg),
                    ("divides-%d-%d" % (size, i), g, ag),
                    ("divided-%d-%d" % (size, i), int_mul(ag, b), ag),
                    ("negated-%d-%d" % (size, i), [-v for v in ag], bg)]
    return out


HEU_PAIRS = heu_pairs()


@pytest.mark.parametrize("name, fa, fb", HEU_PAIRS, ids=[name for name, _, _ in HEU_PAIRS])
def test_gcd_heuristic_matches_prs_and_monic_euclid(name, fa, fb):
    h, qa, qb = poly_module._gcd_heuristic(fa, fb)
    assert h == poly_module._gcd_prs(fa, fb)
    assert int_mul(h, qa) == fa and int_mul(h, qb) == fb
    a, b = Poly([Fraction(v, 3) for v in fa]), Poly(fb)
    ref = frac_gcd([Fraction(v) for v in fa], [Fraction(v) for v in fb])
    for p, q in ((a, b), (b, a)):
        g, u, v = p.gcd_cofactors(q)
        assert_storage(g, ref)
        assert p.gcd(q) == g and g.is_monic
        assert g * u == p and g * v == q


def test_gcd_cofactors_with_zero_operands():
    zero = Poly.zero()
    for p in (Poly([Fraction(3, 2), 0, -3]), Poly([sqrt5(), 0, -3])):
        assert p.gcd_cofactors(zero) == (p.monic(), Poly.constant(-3), zero)
        assert zero.gcd_cofactors(p) == (p.monic(), zero, Poly.constant(-3))
    assert zero.gcd(zero).is_zero
    with pytest.raises(ZeroDivisionError):
        zero.gcd_cofactors(zero)
    assert Poly.constant(5).gcd_cofactors(zero) == (Poly.one(), 5, 0)


@pytest.mark.parametrize("name", ["rational"] + sorted(GCD_FIELDS))
def test_gcd_cofactors_multiply_back(name):
    if name == "rational":
        rng = random.Random("cofactors")
        a, b, g = (Poly(seeded_fracs(rng, d)) for d in (5, 4, 3))
    else:
        a, b, g = cubic_shape(name)
    for p, q in [(a * g, b * g), (a, b), (g, a * g), (a * g, g), (a * g, -(b * g))]:
        h, u, v = p.gcd_cofactors(q)
        assert h == p.gcd(q) and h.is_monic
        assert h * u == p and h * v == q
        assert u == p.exact_div(h) and v == q.exact_div(h)
    assert (a * g).gcd_cofactors(b * g)[0].degree >= 3


def test_gcd_falls_back_to_prs_when_every_xi_fails(monkeypatch):
    big = 10 ** 30
    g = Poly([big + 7, -3 * big, 1])
    a, b = Poly([5, 1]) * g, Poly([-2, 0, 3]) * g
    expected = (a.gcd(b), a.exact_div(a.gcd(b)), b.exact_div(a.gcd(b)))
    prs, calls = poly_module._gcd_prs, []

    def counted_prs(fa, fb):
        calls.append((fa, fb))
        return prs(fa, fb)
    # xi = 2 and its five growths are far below the coefficients, so no
    # candidate divides and the remainder sequence decides
    monkeypatch.setattr(poly_module, "_xi_start", lambda norm: 2)
    monkeypatch.setattr(poly_module, "_gcd_prs", counted_prs)
    assert a.gcd_cofactors(b) == expected
    assert len(calls) == 1
    assert expected[0] == g.monic()
