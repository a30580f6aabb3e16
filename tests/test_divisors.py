"""Divisors of rational maps and quadratic differentials."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from equiops.cyclotomic import imag_unit, rational, sqrt5
from equiops.divisors import (Divisor, Place, quadratic_differential_poles,
                              quadratic_differential_zeros,
                              ramification_divisor, zero_divisor, pole_divisor)
from equiops.operators import schwarzian
from equiops.parsing import parse_poly, parse_ratfn
from equiops.poly import Poly
from equiops.ratfn import INF


def test_zero_pole_degree_balance():
    f = parse_ratfn("(z^3 - z)/(z^2 - 4)")
    z = zero_divisor(f)
    p = pole_divisor(f)
    assert z.degree == p.degree == 3
    assert z.multiplicity_at(0) == 1
    assert z.multiplicity_at(1) == 1
    assert p.multiplicity_at(2) == 1
    assert p.multiplicity_at("inf") == 1


def test_ramification_degree():
    # deg f = 3 map: Ram has degree 2*3 - 2 = 4
    f = parse_ratfn("(z^3 - 3*z)/1")
    r = ramification_divisor(f)
    assert r.degree == 4
    assert r.multiplicity_at(1) == 1
    assert r.multiplicity_at(-1) == 1
    assert r.multiplicity_at("inf") == 2


def test_quadratic_differential_orders():
    # S(z^2) = 3/(4 z^2): double poles at 0; at infinity the chart factor
    # w^-4 makes 4 + 0 - 2 = 2.
    s = schwarzian(parse_ratfn("z^2"))
    poles = quadratic_differential_poles(s)
    assert poles.multiplicity_at(0) == 2
    assert poles.multiplicity_at("inf") == 2
    assert quadratic_differential_zeros(s).is_zero


def test_divisor_arithmetic():
    d1 = Divisor([(Place.point(rational(1)), 2), (Place.infinity(), 1)])
    d2 = Divisor([(Place.point(rational(1)), 1)])
    diff = d1 - d2
    assert diff.multiplicity_at(1) == 1
    assert diff.multiplicity_at("inf") == 1
    assert (d1 - d1).is_zero


def test_bundle_refinement_equality():
    # same divisor presented as a bundle vs. split points
    bundle = Divisor([(Place.bundle(parse_poly("z^2 - 1")), 1)])
    split = Divisor([(Place.point(rational(1)), 1),
                     (Place.point(rational(-1)), 1)])
    assert bundle == split


def test_agrees_on_support():
    big = Divisor([(Place.bundle(parse_poly("z^2 - 1")), 1),
                   (Place.point(rational(3)), 5)])
    small = Divisor([(Place.point(rational(1)), 1),
                     (Place.point(rational(-1)), 1)])
    assert small.agrees_with_on_support(big)
    assert not big.agrees_with_on_support(small)


@pytest.mark.parametrize("other", [1, "a", None])
def test_a_foreign_operand_is_refused(other):
    d = Divisor([(Place.point(rational(1)), 2)])
    for op in (lambda: d + other, lambda: d - other, lambda: other + d):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("m", [2.5, 2.0, Fraction(5, 2), Fraction(2), rational(2), "2"])
def test_a_multiplicity_that_is_not_an_int_is_refused(m):
    # the constructor's int() truncated 2.5 to 2, and scale kept any multiplier
    with pytest.raises(TypeError):
        Divisor([(Place.point(1), m)])
    with pytest.raises(TypeError):
        Divisor([(Place.point(1), 2)]).scale(m)


def test_integer_multiplicities_are_kept():
    d = Divisor([(Place.point(1), 3), (Place.infinity(), True)])
    assert d.multiplicity_at(1) == 3 and d.multiplicity_at(INF) == 1
    assert d.scale(-2) == Divisor([(Place.point(1), -6), (Place.infinity(), -2)])
    assert d.scale(0).is_zero and d.scale(False).is_zero
    assert all(type(m) is int for m in d.scale(True).refined_items().values())


# roots of the linear factors of the pool, in the field; the pool also has
# z^2 + 1, irreducible over both, whose roots +-i lie in Q(zeta_120)
FIELD_ROOTS = {"Q": [rational(r) for r in range(-2, 3)],
               "sqrt5": [rational(-1), rational(1), sqrt5(), -sqrt5(), (1 + sqrt5()) / 2]}


@st.composite
def drawn_pairs(draw, field):
    """(Place, multiplicity) pairs: the Yun factors of one or two random
    products of pool factors, each with a sign, plus a place at infinity."""
    pool = [Poly([-r, 1]) for r in FIELD_ROOTS[field]] + [parse_poly("z^2 + 1")]
    pairs = []
    for _ in range(draw(st.integers(1, 2))):
        sign = draw(st.sampled_from([1, -1]))
        poly = Poly.one()
        for f in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)):
            poly = poly * f ** draw(st.integers(1, 3))
        pairs += [(Place.bundle(f), sign * m) for f, m in poly.squarefree_decomposition()]
    return pairs + [(Place.infinity(), draw(st.integers(-2, 2)))]


def _mult(pairs, x):
    """Multiplicity at x summed over unrefined pairs."""
    if x == INF:
        return sum(m for p, m in pairs if p.poly is None)
    return sum(m for p, m in pairs if p.poly is not None and p.poly(x).is_zero)


@pytest.mark.parametrize("field", ["Q", "sqrt5"])
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_divisors_are_refined_when_built(field, data):
    pa, pb = data.draw(drawn_pairs(field)), data.draw(drawn_pairs(field))
    a, b = Divisor(pa, 120), Divisor(pb, 120)
    # every place of a drawn divisor: its multiplicity is known at each
    points = FIELD_ROOTS[field] + [imag_unit(), -imag_unit(), INF]
    for d, pairs in ((a, pa), (b, pb), (a + b, pa + pb), (a - b, pa + [(p, -m) for p, m in pb])):
        items = d.refined_items()
        polys = [k for k in items if k != INF]
        assert 0 not in items.values()
        assert all(k.is_monic and k.is_squarefree() for k in polys)
        assert all(f.gcd(g).degree == 0 for f, g in combinations(polys, 2))
        assert [d.multiplicity_at(x) for x in points] == [_mult(pairs, x) for x in points]
        assert d.support().refined_items() == dict.fromkeys(items, 1)
    assert a + b - b == a and (a + b).degree == a.degree + b.degree
    for other in (b, a + b):
        agree = all(a.multiplicity_at(x) == other.multiplicity_at(x)
                    for x in points if a.multiplicity_at(x))
        assert a.agrees_with_on_support(other) == agree
