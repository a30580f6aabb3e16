"""Modular q-series: eta, Eisenstein, j, hauptmoduln and their relations."""

import cmath
import math
import operator
import random
from fractions import Fraction

import pytest

from equiops import series
from equiops.cyclotomic import CycloError, rational, sqrt2, sqrt5, totient
from equiops.poly import Poly
from equiops.qseries import (_INF, QSeries, delta_series, eisenstein, eta,
                             eta_product, hauptmodul, heins_value, j_series,
                             kronecker5, ramanujan_check, rogers_ramanujan,
                             rr_equals_j5, series_eval, verify_j_relation)
from series_oracle import product, quotient


def test_eta_pentagonal_numbers():
    series = eta(30)
    # q^{1/24} (1 - q - q^2 + q^5 + q^7 - q^12 - q^15 + ...)
    base = Fraction(1, 24)
    expected = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1, 22: 1, 26: 1}
    for k in range(27):
        coeff = series.coefficient(base + k)
        want = rational(expected.get(k, 0))
        assert coeff == want, (k, coeff)


def test_eisenstein_coefficients():
    e4 = eisenstein(4, 5)
    assert [e4.coefficient(k) for k in range(4)] == [
        rational(v) for v in (1, 240, 2160, 6720)]
    e6 = eisenstein(6, 5)
    assert [e6.coefficient(k) for k in range(4)] == [
        rational(v) for v in (1, -504, -16632, -122976)]


def test_delta_is_eta_24_and_discriminant():
    delta = delta_series(12)
    e4 = eisenstein(4, 14)
    e6 = eisenstein(6, 14)
    disc = (e4 ** 3 - e6 ** 2) / 1728
    assert (delta - disc.truncated(Fraction(12))).is_zero
    eta24 = eta(14) ** 24
    assert (delta - eta24.truncated(Fraction(12))).is_zero


def test_j_coefficients_integral():
    j = j_series(4)
    expected = {-1: 1, 0: 744, 1: 196884, 2: 21493760, 3: 864299970}
    for k, v in expected.items():
        assert j.coefficient(k) == rational(v)


def test_ramanujan_identities_exact():
    assert all(r.is_zero for r in ramanujan_check(30))


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_j_relations(level):
    assert verify_j_relation(level, 6).is_zero


def test_level3_constant_correction():
    # j_3 = -(sqrt2/6) eta^3(tau/3)/eta^3(3 tau) - sqrt2/2: leading terms
    j3 = hauptmodul(3, Fraction(3))
    s2 = sqrt2()
    assert j3.coefficient(Fraction(-1, 3)) == -s2 * rational(Fraction(1, 6))
    assert j3.coefficient(0).is_zero  # the -sqrt2/2 shift cancels exactly
    assert j3.coefficient(Fraction(2, 3)) == -s2 * rational(Fraction(5, 6))


def test_level4_product_expansion():
    # 2 q^{1/4} (1 - 2q + 5q^2 - 10q^3 + 18q^4 - ...)
    j4 = hauptmodul(4, Fraction(5))
    expected = [2, -4, 10, -20, 36]
    for k, v in enumerate(expected):
        assert j4.coefficient(Fraction(1, 4) + k) == rational(v)


def test_rogers_ramanujan_is_j5():
    assert rr_equals_j5(6).is_zero


def test_rr_continued_fraction_head():
    rr = rogers_ramanujan(3)
    # q^{1/5}(1 - q + q^2 - q^4 + ...)
    assert rr.coefficient(Fraction(1, 5)) == rational(1)
    assert rr.coefficient(Fraction(6, 5)) == rational(-1)
    assert rr.coefficient(Fraction(11, 5)) == rational(1)


def test_series_eval_j_at_i():
    value = series_eval(j_series(40), 1j)
    assert abs(value - 1728) < 1e-6


def test_series_eval_of_an_exact_series_has_no_tail():
    # 1 + 2q + 3q^2, and q^2 times it (known beyond _INF), have no tail
    p = QSeries.of_poly(Poly([1, 2, 3]))
    tau = 0.1 + 1j
    q = cmath.exp(2j * cmath.pi * tau)
    value = 1 + 2 * q + 3 * q * q
    assert abs(series_eval(p, tau) - value) < 1e-15
    assert abs(series_eval(p * QSeries.q_power(2, _INF), tau) - value * q * q) < 1e-15
    with pytest.raises(ValueError, match="tail estimate"):
        series_eval(QSeries.of_poly(Poly([1, 2, 3]), 3), tau)


def test_series_eval_tail_follows_growing_coefficients():
    # j(i) = 1728; the terms of j shrink more slowly than |q| = e^(-2 pi), so
    # the tail ratio is read from the last two terms: j to q^8 is 6e-8 off
    # and is refused at 1e-8, j to q^10 is 1.2e-11 off and is accepted
    assert abs(series_eval(j_series(8), 1j, 1) - 1728) > 1e-8
    with pytest.raises(ValueError, match="tail estimate"):
        series_eval(j_series(8), 1j, 1e-8)
    assert abs(series_eval(j_series(10), 1j, 1e-8) - 1728) < 1e-8


def test_heins_values():
    assert abs(heins_value(1j) + 1j) < 1e-8


def test_heins_equivariance():
    # H(tau+1) = H(tau)+1 and H(-1/tau) = -1/H(tau) numerically
    for tau in (1.3j, 0.4 + 1.1j, -0.2 + 0.8j, 0.15 + 0.9j, 2j):
        h = heins_value(tau)
        assert abs(heins_value(tau + 1) - (h + 1)) < 1e-6
        assert abs(heins_value(-1 / tau) - (-1 / h)) < 1e-6


def test_qseries_arithmetic_truncation():
    a = QSeries.q_power(Fraction(1, 2), Fraction(3)) + QSeries.constant(
        rational(1), Fraction(3), 1)
    b = a * a
    assert b.coefficient(Fraction(1, 2)) == rational(2)
    inv = a.inverse()
    prod = a * inv
    assert prod.coefficient(0) == rational(1)
    assert all(prod.coefficient(Fraction(k, 2)).is_zero
               for k in range(1, 4))


def test_inverse_of_a_constant_is_a_constant():
    # poly_of_series builds constants known to q^(10^9); their inverse
    # must not walk every exponent below the truncation
    inv = QSeries.constant(2, 10**9).inverse()
    assert inv.trunc == 10**9
    assert inv.coeffs == {0: rational(Fraction(1, 2))}
    assert inv == QSeries.constant(Fraction(1, 2), 10**9)


def test_inverse_visits_only_reachable_exponents():
    # 1/(1 - q^1000) to q^(10^6): 1000 terms, found without walking the
    # 10^6 exponents below the truncation
    s = QSeries(1, {0: rational(1), 1000: rational(-1)}, 10**6)
    inv = s.inverse()
    assert inv.trunc == 10**6
    assert inv.coeffs == {1000 * k: rational(1) for k in range(1000)}
    assert s * inv == 1


def test_inverse_keeps_last_term_when_trunc_times_m_is_fractional():
    # trunc * M = 3/2: the term q^(1/3) lies below the truncation q^(1/2)
    s = QSeries(3, {0: rational(2), 1: rational(1)}, Fraction(1, 2))
    inv = s.inverse()
    assert inv.trunc == Fraction(1, 2)
    assert inv.coefficient(0) == rational(Fraction(1, 2))
    assert inv.coefficient(Fraction(1, 3)) == rational(Fraction(-1, 4))
    assert s * inv == 1


@pytest.mark.parametrize("M, trunc", [
    (1, 5), (3, Fraction(7, 2)), (4, Fraction(5, 3)), (6, Fraction(-1, 2)),
    (5, 0), (2, _INF), (7, _INF)])
def test_truncation_filter_keeps_exponents_below_trunc(M, trunc):
    # the integer bound k < ceil(trunc * M) keeps exactly the k / M < trunc
    edge = int(_INF) * M
    coeffs = {k: rational(k % 5 - 2) for k in list(range(-25, 40)) + [edge - 1, edge]}
    s = QSeries(M, coeffs, trunc)
    assert s.coeffs == {k: c for k, c in coeffs.items()
                        if not c.is_zero and Fraction(k, M) < Fraction(trunc)}


# -- storage: ints over one denominator, Cyclo once irrational -------------

NAMED_TRUNC = 5


def named_series():
    t = NAMED_TRUNC
    named = {"eta": eta(t), "eta_q3": eta(t, scale=3),
             "eta_third": eta(t, scale=Fraction(1, 3)),
             "delta": delta_series(t), "j": j_series(t),
             "rogers_ramanujan": rogers_ramanujan(t)}
    for weight in (2, 4, 6):
        named["E%d" % weight] = eisenstein(weight, t)
    for level in (2, 3, 4, 5):
        named["j%d" % level] = hauptmodul(level, t)
    return named


NAMED = named_series()


def reference_pair(a, b):
    """The Cyclo dicts of a and b over their common exponent denominator."""
    M = math.lcm(a.M, b.M)
    return (M, {k * (M // a.M): c for k, c in a.coeffs.items()},
            {k * (M // b.M): c for k, c in b.coeffs.items()})


def assert_canonical(s):
    # the store of Poly: ints at m = 1, else rows of phi(m) ints with one
    # irrational, over den > 0 prime to all the ints
    items, den, m = s._items, s._den, s._m
    assert all(Fraction(k, s.M) < s.trunc for k in items) and den > 0
    if m == 1:
        assert all(type(v) is int and v for v in items.values())
        assert math.gcd(den, *items.values()) == 1
    else:
        rows = list(items.values())
        assert all(type(r) is tuple and len(r) == totient(m) and any(r) for r in rows)
        assert math.gcd(den, *[x for r in rows for x in r]) == 1
        assert any(any(r[1:]) for r in rows)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_series_storage_is_canonical(name):
    s = NAMED[name]
    assert_canonical(s)
    assert (name == "j3") == any(not c.is_rational for c in s.coeffs.values())


PAIRS = [(a, b) for a in sorted(NAMED) for b in ("eta", "E2", "j", "j3", "j5",
                                                 "rogers_ramanujan")]


@pytest.mark.parametrize("a, b", PAIRS)
def test_products_match_cyclo_reference(a, b):
    # the product of the storage against the plain product of the Cyclo views
    x, y = NAMED[a], NAMED[b]
    M, cx, cy = reference_pair(x, y)
    trunc = min(x.trunc + y.valuation, y.trunc + x.valuation)
    want = product(cx, cy, math.ceil(trunc * M))
    got = x * y
    assert_canonical(got)
    assert (got.M, got.trunc) == (M, trunc)
    assert got.coeffs == want
    assert (y * x).coeffs == want


@pytest.mark.parametrize("a, b", PAIRS)
def test_quotients_match_the_reciprocal_product(a, b):
    # one triangular pass against the product with the reciprocal
    x, y = NAMED[a], NAMED[b]
    want = x * y.inverse()
    got = x / y
    assert_canonical(got)
    assert (got.M, got.trunc) == (want.M, want.trunc)
    assert got.coeffs == want.coeffs


@pytest.mark.parametrize("b", ["j", "j3"])
def test_quotient_of_zero(b):
    y = NAMED[b]
    got = QSeries.zero(4) / y
    want = QSeries.zero(4) * y.inverse()
    assert got.is_zero and want.is_zero
    assert (got.M, got.trunc) == (want.M, want.trunc)
    assert got.trunc == 4 - y.valuation


@pytest.mark.parametrize("name", sorted(NAMED))
def test_reciprocals_match_cyclo_reference(name):
    # the reciprocal of the storage against the plain quotient of the Cyclo view
    s = NAMED[name]
    v = s.leading()[0]
    shift = int(v * s.M)
    unit = {k - shift: c for k, c in s.coeffs.items()}
    out = quotient({0: rational(1)}, unit, math.ceil((s.trunc - v) * s.M))
    got = s.inverse()
    assert_canonical(got)
    assert got.trunc == s.trunc - 2 * v
    assert got.coeffs == {k - shift: c for k, c in out.items()}
    assert s * got == 1


def test_rational_results_of_irrational_data_are_int_stored():
    s2 = sqrt2()
    root = QSeries(1, {1: s2}, 5)
    # sqrt2 = zeta_8 + zeta_8^-1, the generator of the real key -8
    assert (root._items, root._den, root._m) == ({1: (0, 1)}, 1, -8)
    assert root.coeffs == {1: s2}
    square = root * root
    built = QSeries.q_power(2, 6) * 2
    assert square == built
    assert (square.M, square._items, square._den, square.trunc) == \
        (built.M, built._items, built._den, built.trunc) == (1, {2: 2}, 1, 6)
    assert type(square._items[2]) is int
    half = QSeries(1, {1: s2 * rational(Fraction(1, 2))}, 5) ** 2
    assert (half._items, half._den) == ({2: 1}, 2)
    # sqrt2 - sqrt2 q cancels against its Cyclo view down to ints
    mixed = QSeries(1, {0: s2, 1: rational(3)}, 5) - QSeries.constant(s2, 5)
    assert (mixed._items, mixed._den) == ({1: 3}, 1)


def test_public_constructor_normalises_any_coefficients():
    a = QSeries(2, {0: Fraction(3, 4), 1: 6, 3: rational(Fraction(-9, 2)),
                    4: rational(0), 20: rational(1)}, 4)
    assert (a._items, a._den) == ({0: 3, 1: 24, 3: -18}, 4)
    assert a.coeffs == {0: rational(Fraction(3, 4)), 1: rational(6),
                        3: rational(Fraction(-9, 2))}
    assert a.coefficient(Fraction(1, 2)) == rational(6)
    assert a.coefficient(1).is_zero and a.coefficient(Fraction(1, 3)).is_zero


@pytest.mark.parametrize("seed", range(12))
def test_div_ints_matches_fraction_recurrence(seed):
    # non-unit, negative and content-carrying constant terms, gaps in the
    # support, and numerator terms below exponent 0
    rng = random.Random(seed)
    g = rng.choice([1, 2, 6])
    b = {0: g * rng.choice([1, -1, 2, -3, 12])}
    b.update({j: g * rng.randint(-9, 9) for j in rng.sample(range(1, 9), 4)})
    b = {j: v for j, v in b.items() if v}
    a = {k: rng.randint(-20, 20) for k in rng.sample(range(-2, 9), 5)}
    limit = rng.randint(1, 12)
    c, d = series.div_ints(a, b, limit)
    want = quotient({k: Fraction(v) for k, v in a.items()},
                    {j: Fraction(v) for j, v in b.items()}, limit)
    assert {k: Fraction(v, d) for k, v in c.items()} == want


def test_constructor_rejects_coefficients_of_another_field():
    with pytest.raises(CycloError, match="mismatched cyclotomic orders"):
        QSeries(1, {0: sqrt5(60), 1: sqrt5(120)}, 5)
    with pytest.raises(CycloError, match="mismatched cyclotomic orders"):
        QSeries(1, {0: sqrt5(60)}, 5)
    s = QSeries(1, {0: sqrt5(60), 1: 2}, 5, 60)
    assert s.order == 60 and s.coefficient(0) == sqrt5(60)


def test_exponent_denominators_and_keys_are_checked():
    # M is a positive int and the keys are the int numerators k of q^(k/M)
    s = QSeries(1, {1: 1}, 3)
    for bad in (0, -1, 2.0, Fraction(1, 2), None):
        with pytest.raises(ValueError, match="positive int"):
            QSeries(bad, {0: 1, 1: 2}, 3)
        with pytest.raises(ValueError, match="positive int"):
            QSeries.zero(3, bad)
        with pytest.raises(ValueError, match="positive int"):
            QSeries.constant(1, 3, bad)
        with pytest.raises(ValueError, match="positive int"):
            s.rescaled(bad)
    for key in (Fraction(1, 2), 1.0, "1"):
        with pytest.raises(TypeError, match="exponent keys"):
            QSeries(2, {0: 1, key: 1}, 3)
    assert s.rescaled(1) is s and s.rescaled(2) == s and s.rescaled(2).M == 2
    assert QSeries.zero(3, 2) + QSeries.constant(1, 3) == QSeries.constant(1, 3)


def test_derivative_and_dense_view():
    # 3 q^-1 + q^(1/2)/2 + 5 q^2 + O(q^4)
    s = QSeries(2, {-2: 3, 1: Fraction(1, 2), 4: 5}, 4)
    d = s.derivative()
    assert d.trunc == 3
    assert d.coeffs == {-4: rational(-3), -1: rational(Fraction(1, 4)), 2: rational(10)}
    assert s.dense(5) == [0, rational(Fraction(1, 2)), 0, 0, rational(5)]
    assert len(s.dense(8)) == 8
    with pytest.raises(ValueError, match="beyond truncation"):
        s.dense(9)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_arithmetic_rejects_series_of_another_field(op):
    a = QSeries(1, {1: 1}, 5, 60)
    b = QSeries(1, {0: sqrt2(120)}, 5, 120)
    with pytest.raises(CycloError, match="mismatched cyclotomic orders"):
        op(a, b)
    with pytest.raises(CycloError, match="mismatched cyclotomic orders"):
        op(b, a)


def test_a_sum_with_zero_takes_the_field_of_the_other_term():
    b = QSeries(1, {0: sqrt2(120)}, 5, 120)
    assert (QSeries.zero(5, 1, 60) + b).order == (b + QSeries.zero(5, 1, 60)).order == 120


def test_truth_value_is_nonzero():
    assert QSeries.q_power(1, 5) and QSeries(1, {0: sqrt2()}, 5)
    assert not QSeries.zero(5)
    assert not QSeries.q_power(6, 5)  # beyond the truncation


@pytest.mark.parametrize("trunc", list(range(1, 16)) + [Fraction(13, 2), Fraction(6, 5)])
def test_rogers_ramanujan_depth_matches_a_deep_build(trunc):
    t = Fraction(trunc)
    f = QSeries.constant(1, t, 1)
    for k in range(2 * int(t) + 8, 0, -1):
        f = QSeries.q_power(k, t) / f + 1
    deep = (QSeries.q_power(Fraction(1, 5), t + Fraction(1, 5)) / f).truncated(t)
    got = rogers_ramanujan(trunc)
    assert (got.M, got.trunc, got.export_lines()) == (deep.M, deep.trunc, deep.export_lines())


def test_powers_keep_the_truncation():
    s = QSeries(1, {-1: 2, 0: 1, 3: Fraction(1, 3)}, 4)
    assert (s ** 3).trunc == (s * s * s).trunc == 2
    assert (s ** 3).coeffs == (s * s * s).coeffs
    assert s ** 1 is s
    assert s ** 0 == QSeries.constant(1, 4)
    assert (s ** -2 * s * s - 1).is_zero


# -- the named series against their constructions from eta powers and E_6 --


def ref_hauptmodul(level, t):
    """The hauptmoduln from powers and quotients of eta and two eta products."""
    pad, s2 = t + 2, sqrt2()
    if level == 2:  # 16 eta(tau/2)^8 eta(2 tau)^16 / eta(tau)^24
        num = eta(pad, scale=Fraction(1, 2)) ** 8 * eta(pad, scale=2) ** 16
        return (num / eta(pad) ** 24 * 16).truncated(t)
    if level == 3:  # -(sqrt2/6) (eta(tau/3) / eta(3 tau))^3 - sqrt2/2
        quot = eta(pad, scale=Fraction(1, 3)) ** 3 / eta(pad, scale=3) ** 3
        return (quot * (-s2 / 6) - s2 / 2).truncated(t)
    if level == 4:  # 2 q^(1/4) prod (1 - q^(2n-1))^2 times prod (1 - q^(4n-2))^-4
        prod = eta_product(lambda n: 2 if n % 2 else 0, t + 1)
        prod = prod * eta_product(lambda n: -4 if n % 4 == 2 else 0, t + 1)
        return (QSeries.q_power(Fraction(1, 4), t + 1) * 2 * prod).truncated(t)
    return (QSeries.q_power(Fraction(1, 5), t + 1) * eta_product(kronecker5, t + 1)).truncated(t)


def ref_j(t):
    """1728 E_4^3 / (E_4^3 - E_6^2)."""
    cube = eisenstein(4, t + 2) ** 3
    return (cube * 1728 / (cube - eisenstein(6, t + 2) ** 2)).truncated(t)


def ref_delta(t):
    return eta(t) ** 24


def same_series(got, want):
    assert (got, got.trunc, got.export_lines()) == (want, want.trunc, want.export_lines())


ORACLE_TRUNCS = [1, 2, 3, 7, 12, Fraction(5, 2), Fraction(13, 3), Fraction(11, 5)]


@pytest.mark.parametrize("t", ORACLE_TRUNCS, ids=str)
@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_hauptmodul_matches_its_eta_power_construction(level, t):
    same_series(hauptmodul(level, t), ref_hauptmodul(level, Fraction(t)))


@pytest.mark.parametrize("t", ORACLE_TRUNCS, ids=str)
def test_j_and_delta_match_their_eisenstein_and_eta_power_constructions(t):
    same_series(j_series(t), ref_j(Fraction(t)))
    same_series(delta_series(t), ref_delta(t))
