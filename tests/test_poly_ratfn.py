"""Polynomial and rational-function arithmetic."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equiops.cyclotomic import (Cyclo, CycloError, imag_unit, rational, sqrt2,
                                sqrt5, zeta)
from equiops.moebius import Moebius, compose_after, moebius_apply
from equiops.parsing import parse_poly, parse_ratfn
from equiops.poly import Poly
from equiops.ratfn import INF, RatFn


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


def test_evaluate_at_infinity():
    f = parse_ratfn("(3*z^2 + 1)/(z^2 - 5)")
    assert f.eval_at_infinity_symbol() == rational(3)
    g = parse_ratfn("z/(z^2+1)")
    assert g.eval_at_infinity_symbol() == rational(0)


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


@settings(max_examples=15, deadline=None)
@given(field_polys(1, 3), field_polys(1, 3), field_polys(2, 3))
def test_irrational_gcd_identities(a, b, c):
    assert_gcd_identity(a, b, c)


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


# -- operator protocol and the hash/eq contract ---------------------------------

def test_reflected_ops_return_not_implemented():
    p = parse_poly("z + 1")
    f = parse_ratfn("1/(z + 1)")
    assert p.__rsub__(1.5) is NotImplemented
    assert f.__rsub__(1.5) is NotImplemented
    assert f.__rtruediv__(1.5) is NotImplemented
    assert p.__floordiv__(1.5) is NotImplemented
    assert p.__mod__(1.5) is NotImplemented
    with pytest.raises(TypeError, match="unsupported operand"):
        1.5 - p
    with pytest.raises(TypeError, match="unsupported operand"):
        p // 1.5
    with pytest.raises(TypeError, match="unsupported operand"):
        p % 1.5
    with pytest.raises(TypeError, match="unsupported operand"):
        1.5 / f
    assert 1 - p == parse_poly("-z")
    assert 2 / f == parse_ratfn("2*z + 2")


@pytest.mark.parametrize("value", [
    rational(Fraction(-7, 3)),
    sqrt5() * rational(Fraction(2, 9)) + imag_unit(),
    parse_poly("z^3 - (zeta^15+zeta^105)*z + 1/2"),
    parse_ratfn("(z^2 - zeta)/(3*z + 1)"),
], ids=["rational", "irrational", "poly", "ratfn"])
def test_values_survive_pickle_and_deepcopy(value):
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)
        assert repr(copied) == repr(value)
        if isinstance(value, Cyclo):
            assert copied.is_rational == value.is_rational


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
