"""Differential operators: Schwarzian/D duality, phi-operators, brackets,
deformations and period residues."""

import importlib.util
import pathlib
import random
from fractions import Fraction

import pytest

from equiops.cyclotomic import Cyclo, rational
from equiops.operators import (FormCoeff, d_operator, dd_deformation_h,
                               deform_corollary, general_binomial,
                               klein_vector_field, period_residues,
                               phi_biweight, phi_operator, pre_schwarzian,
                               rankin_cohen, schwarzian)
from equiops.parsing import parse_poly, parse_ratfn
from equiops.poly import Poly
from equiops.properties import (IDENTITY_CHECKS, KLEIN_MAP,
                                check_bracket_closure, identity_inputs,
                                random_moebius, random_ratfn)
from equiops.ratfn import RatFn
from equiops.report import load_config

RNG_SEED = 20260826


def test_schwarzian_of_square():
    assert schwarzian(parse_ratfn("z^2")) == parse_ratfn("3/(4*z^2)")


def test_schwarzian_vanishes_exactly_on_moebius():
    rng = random.Random(1)
    m = random_moebius(rng)
    assert schwarzian(m.as_ratfn()).is_zero
    f = random_ratfn(rng, 4)
    assert not schwarzian(f).is_zero


def test_d_operator_examples():
    assert d_operator(parse_ratfn("z^2")) == parse_ratfn("-3*z^2")
    deg = d_operator(parse_ratfn("z"))
    assert deg.degenerate and deg.is_infinity


def test_phi_operator_klein():
    v5 = parse_poly("z^11 + 11*z^6 - z")
    k = phi_operator(RatFn(v5, Poly.one(v5.order)), -12)
    assert k == parse_ratfn(KLEIN_MAP)


def test_phi_biweight_matches_vector_field():
    v5 = parse_poly("z^11 + 11*z^6 - z")
    zero = Poly.zero(v5.order)
    assert klein_vector_field(v5, 12) == phi_biweight(
        RatFn(v5, Poly.one(v5.order)), RatFn(zero, Poly.one(v5.order)), -12)


def test_klein_vector_field_degenerate_cases():
    z = parse_poly("z")
    # alpha' + beta = 0: the map is 4 z^2 / 0, the flagged constant infinity
    inf = klein_vector_field(z * z, 4, z.scale(-2))
    assert inf.degenerate and inf.is_infinity
    with pytest.raises(ValueError, match="identically degenerate"):
        klein_vector_field(Poly.zero(z.order), 4)
    with pytest.raises(ValueError, match="beta exceeds"):
        klein_vector_field(z * z, 4, z ** 3)
    with pytest.raises(TypeError):
        klein_vector_field(parse_ratfn("z"), 4)
    constant = klein_vector_field(z ** 3, 3)
    assert constant.degenerate and constant == RatFn.constant(0, z.order)


def test_general_binomial_negative():
    # falling factorial: (-6)(-7)/2
    assert general_binomial(Fraction(-6), 2) == Fraction(21)
    assert general_binomial(Fraction(3), 5) == 0


def test_rankin_cohen_bracket_example():
    v4 = parse_ratfn("z^5 - z")
    bracket = rankin_cohen(v4, -6, v4, -6, 2)
    vv = parse_ratfn("30*(z^5 - z)*(20*z^3) - 25*(5*z^4 - 1)^2")
    assert bracket == vv


def test_bracket_closure_vanishing_and_nonvanishing():
    # P8 on the tetrahedral forms: [v3,f3]_2 vanishes, and [v3,f3]_1 is the
    # Jacobian of the vertex and face quartics, a multiple of the edge form
    cfg = load_config("A4")
    assert check_bracket_closure(cfg, "v3", "f3", 2) == (
        True, "[v3,f3]_2 vanishes")
    assert check_bracket_closure(cfg, "v3", "f3", 1) == (
        True, "[v3,f3]_1 has weight -6")
    v3, f3, e3 = (cfg.form(name) for name in ("v3", "f3", "e3"))
    bracket = rankin_cohen(RatFn(v3.poly), v3.weight, RatFn(f3.poly),
                           f3.weight, 1)
    assert bracket.num.monic() == e3.poly.monic()
    assert e3.weight == v3.weight + f3.weight + 2


def test_identities_on_seeded_samples():
    # five draws of the P1-P7 suite as the report runs it, one seed each
    for seed in range(7301, 7306):
        x = identity_inputs(random.Random(seed), 5)
        for check_id, check in IDENTITY_CHECKS:
            ok, detail = check(x)
            assert ok, "seed %d, %s: %s" % (seed, check_id, detail)


def test_dd_deformation_h_formula():
    # H = -2 S^2 / X(S) makes D(Df) = f + fdot/(H + phi)
    f = parse_ratfn("(z^3 + z)/(z - 2)")
    s = schwarzian(f)
    assert dd_deformation_h(f) == (s * s * (-2)) / s.derivative()


def test_deform_corollary_endpoints():
    f = parse_ratfn("z^3 + z")
    z = RatFn.x(f.order)
    zero = RatFn.constant(rational(0))
    assert deform_corollary(f, z, zero) == d_operator(f)


def test_ramification_not_globally_preserved():
    # f = z^3 + z: the dual gains critical points at the zeros of S, so
    # flat divisor equality fails while support agreement holds.
    from equiops.divisors import ramification_divisor
    f = parse_ratfn("z^3 + z")
    fhat = d_operator(f)
    rf = ramification_divisor(f)
    rdf = ramification_divisor(fhat)
    assert rf != rdf
    assert rf.agrees_with_on_support(rdf)


def test_period_residues_examples():
    assert [(p.poly, v.as_fraction()) for p, v in period_residues(
        parse_ratfn("z^2"), parse_ratfn("-3*z^2"))] == [(Poly.x(), 1)]
    assert [(p.poly, v.as_fraction()) for p, v in period_residues(
        parse_ratfn("z^3"), parse_ratfn("-2*z^3"))] == [(Poly.x(), 2)]
    assert period_residues(parse_ratfn("z"), parse_ratfn("z + 1")) == []


def test_period_residues_at_multiple_poles():
    # fhat = D f gives only simple poles; these g = f'/(f - fhat) have poles
    # of order 2 and 3, with a non-integer period varying over a bundle
    z = parse_ratfn("z")
    assert repr(period_residues(z, z - z * z * (z - 1))) == "[(Place(1), 2), (Place(0), -2)]"
    assert repr(period_residues(z, z - (z * z + 1) ** 2 * (z - 2))) == (
        "[(Place(2), 2/25), (Place(roots of z^2 + 1), (7/25)*z - 1/25)]")
    assert repr(period_residues(z * z, z * z - (z * z - 2) ** 3 * z)) == (
        "[(Place(roots of z^2 - 2), (3/32)*z)]")


def test_a_constant_period_is_a_field_element():
    # repr cannot tell a constant Poly from a Cyclo: a constant period is a
    # Cyclo on a point and on a bundle alike, even where no integer locus
    # takes it, and a varying one is a Poly
    z = parse_ratfn("z")
    [(_, on_bundle)] = period_residues(z, parse_ratfn("z - 3*(z^2 + 1)/(2*z)"))
    (_, at_point), (_, varying) = period_residues(z, z - (z * z + 1) ** 2 * (z - 2))
    assert isinstance(on_bundle, Cyclo) and on_bundle.as_fraction() == Fraction(2, 3)
    assert isinstance(at_point, Cyclo) and at_point.as_fraction() == Fraction(2, 25)
    assert isinstance(varying, Poly)


def _replay_script():
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "qzeta_residues.py"
    spec = importlib.util.spec_from_file_location("qzeta_residues", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# sha256 of repr(period_residues(f, D f)) for the maps (degree, seed) with
# a + b zeta_120 coefficients of scripts/qzeta_residues.py.  The degree-2
# digests were recorded with the Z[zeta] remainder-sequence gcd, which took
# 3-7 s per map, the others with the Taylor series mod s, which took 4.9,
# 6.0 and 20.3 s
QZETA_RESIDUE_DIGESTS = {
    (2, 1): "cdcc6a12f3f70fd9afc8e3db8e2596a1d654b192d0fdf684719cff5170fa1ae8",
    (2, 2): "ac06bd5d3fdeba1f2b741a1ef99fd87a98da33d32df775e91727062dfaacf10a",
    (2, 3): "b03a9a1df60c8ac85d7c8eba2802fc1ca01ac9de2a6d6885407038e900f46d46",
    (3, 1): "88f3830d0a93da6d948ea7c31f8bf3af739a786f192a0ca48090186f00ab3b2e",
    (3, 2): "260469bff1085e6207be4152116f0af6c9856e7aa2692c046415a2a484285e18",
    (4, 1): "f55e529f7afa3751276c601d9f1a7fb21a8a9e27194414ec15fdab7fbdf62355",
}


def _qzeta_id(key):
    # the seed alone at degree 2, which keeps the ids of the first three maps
    degree, seed = key
    return str(seed) if degree == 2 else "%d:%d" % key


@pytest.mark.parametrize("key", sorted(QZETA_RESIDUE_DIGESTS), ids=_qzeta_id)
def test_period_residues_over_q_zeta_are_unchanged_and_fast(key):
    seconds, digest = _replay_script().run_one(*key)
    assert digest == QZETA_RESIDUE_DIGESTS[key]
    assert seconds < 1.0


# sha256 of repr(check(...)) for the checks P1 and P5 of
# scripts/qzeta_residues.py on the same maps, P5 with its seeded h; recorded
# when P1 and P5 compared reduced RatFn values, before they cross-multiplied
# the unreduced forms
QZETA_CHECK_DIGESTS = {
    ("P1", 2, 1): "746ef6a7383c97e61333499555c1af051519affa50153ef2739197b7332f582e",
    ("P1", 2, 2): "746ef6a7383c97e61333499555c1af051519affa50153ef2739197b7332f582e",
    ("P1", 2, 3): "746ef6a7383c97e61333499555c1af051519affa50153ef2739197b7332f582e",
    ("P1", 3, 1): "746ef6a7383c97e61333499555c1af051519affa50153ef2739197b7332f582e",
    ("P1", 3, 2): "746ef6a7383c97e61333499555c1af051519affa50153ef2739197b7332f582e",
    ("P1", 4, 1): "746ef6a7383c97e61333499555c1af051519affa50153ef2739197b7332f582e",
    ("P5", 2, 1): "4164c646077845cefb013a99ff57099bbe4e292b5c26c76dacdeee9c01a432b7",
    ("P5", 2, 2): "4164c646077845cefb013a99ff57099bbe4e292b5c26c76dacdeee9c01a432b7",
    ("P5", 2, 3): "4164c646077845cefb013a99ff57099bbe4e292b5c26c76dacdeee9c01a432b7",
    ("P5", 3, 1): "4164c646077845cefb013a99ff57099bbe4e292b5c26c76dacdeee9c01a432b7",
    ("P5", 3, 2): "4164c646077845cefb013a99ff57099bbe4e292b5c26c76dacdeee9c01a432b7",
    ("P5", 4, 1): "4164c646077845cefb013a99ff57099bbe4e292b5c26c76dacdeee9c01a432b7",
}


@pytest.mark.parametrize("case", sorted(QZETA_CHECK_DIGESTS), ids="%s:%d:%d".__mod__)
def test_p1_and_p5_over_q_zeta_are_unchanged(case):
    check, degree, seed = case
    assert _replay_script().run_one(degree, seed, check)[1] == QZETA_CHECK_DIGESTS[case]


def _orders_of_derivative(f):
    """{order: product of the monic places where f' has that order}, from the
    Yun factors of the numerator (orders > 0) and denominator (< 0) of f'."""
    df = f.derivative()
    out = {}
    for poly, sign in ((df.num, 1), (df.den, -1)):
        for s, i in poly.squarefree_decomposition():
            out[sign * i] = out.get(sign * i, Poly.one(f.order)) * s
    return out


def _oracle_maps(field):
    if field == "zeta120":
        return [_replay_script().qzeta_map(3, 1)]
    rng = random.Random(RNG_SEED + 2)
    return [random_ratfn(rng, 4) for _ in range(20)]


@pytest.mark.parametrize("field", ["Q", "zeta120"])
def test_periods_of_d_f_are_the_orders_of_the_derivative(field):
    # D f = f - 2 f'^2/f'', so g = f'/(f - D f) = f''/(2 f') and the period
    # at a place is the order of f' there: an oracle that shares no step
    # with Hermite reduction or the loci
    for f in _oracle_maps(field):
        got = {}
        for place, value in period_residues(f, d_operator(f)):
            assert value.is_rational and value.as_fraction().denominator == 1
            c = int(value.as_fraction())
            got[c] = got.get(c, Poly.one(f.order)) * place.poly
        assert got == _orders_of_derivative(f)


def test_period_residues_are_integers():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(5):
        f = random_ratfn(rng, 4)
        fhat = d_operator(f)
        if fhat.degenerate:
            continue
        for place, value in period_residues(f, fhat):
            assert value.is_rational
            assert value.as_fraction().denominator == 1


def test_pre_schwarzian_constant_rejected():
    with pytest.raises(ValueError):
        pre_schwarzian(RatFn.constant(rational(5)))
