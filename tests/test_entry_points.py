"""Every argument that the operators read as a rational function enters one
way, `ratfn._ratfn_of` (through `_as_ratfn`): a `RatFn`, a `Poly` and an
exact scalar of one value give one result at each entry point, and a float,
a list or a tuple raises TypeError there."""

from fractions import Fraction

import pytest

from equiops.cyclotomic import rational, sqrt5, zeta
from equiops.dynamics import CxMap, iteration_map, poly_roots
from equiops.moebius import cross_ratio
from equiops.ncalg import MatFn, NCPoly, deform_family, nc_eval
from equiops.operators import (FormCoeff, deform_corollary, period_residues, phi_biweight,
                               phi_operator, rankin_cohen)
from equiops.parsing import parse_poly, parse_ratfn
from equiops.poly import Poly
from equiops.properties import check_critical_identity
from equiops.ratfn import RatFn

F = parse_ratfn("(z^3 + 2)/(z - 1)")
G = parse_ratfn("z^2 + 1")
ALPHA = parse_ratfn("z^3 - z")
BETA = parse_ratfn("z + 2")
Z2 = MatFn([[parse_ratfn("z^2")]])

# entry point -> a call that passes its argument x where a RatFn is read
ENTRY_POINTS = {
    "FormCoeff": lambda x: FormCoeff(x).alpha,
    "deform_corollary.h": lambda x: deform_corollary(F, G, x),
    "phi_operator": lambda x: phi_operator(x, 2),
    "phi_biweight.alpha": lambda x: phi_biweight(x, BETA, 2),
    "phi_biweight.beta": lambda x: phi_biweight(ALPHA, x, 2),
    "rankin_cohen.alpha": lambda x: rankin_cohen(x, 2, ALPHA, 4, 1),
    "rankin_cohen.beta": lambda x: rankin_cohen(ALPHA, 4, x, 2, 1),
    "period_residues.fhat": lambda x: period_residues(F, x),
    "CxMap": lambda x: (lambda c: (c.num, c.den))(CxMap(x)),
    "iteration_map": lambda x: iteration_map(x, "newton"),
    "poly_roots": lambda x: poly_roots(x),
    "check_critical_identity": lambda x: check_critical_identity(x, 2),
    "cross_ratio": lambda x: cross_ratio(x, 0, 1, "inf"),
    "MatFn": lambda x: MatFn([[x, 1], [0, x]]),
    "MatFn.scalar": lambda x: MatFn.scalar(x, 2),
    "nc_eval.coefficient": lambda x: nc_eval(NCPoly({(1,): x}), Z2),
    "deform_family.t": lambda x: deform_family(Z2, x),
}
SITES = sorted(ENTRY_POINTS)
SCALARS = [0, 3, Fraction(-2, 3), sqrt5(), rational(1) + zeta(120, 7)]


def outcome(site, x):
    """The canonical text of the value at the site, or the type and message
    of what it raised."""
    try:
        return "value", repr(ENTRY_POINTS[site](x))
    except (ArithmeticError, ValueError) as e:
        return type(e).__name__, str(e)


@pytest.mark.parametrize("c", SCALARS, ids=repr)
@pytest.mark.parametrize("site", SITES)
def test_a_ratfn_a_poly_and_a_scalar_give_one_result(site, c):
    expected = outcome(site, RatFn.constant(c))
    assert outcome(site, Poly.constant(c)) == expected
    assert outcome(site, c) == expected


@pytest.mark.parametrize("site", SITES)
def test_a_ratfn_and_a_poly_give_one_result(site):
    p = parse_poly("2*z^2 - z + 5")
    assert outcome(site, p) == outcome(site, RatFn(p))
    assert outcome(site, Poly([5, -1, 2])) == outcome(site, RatFn(p))  # a Poly from a list


@pytest.mark.parametrize("value", [1.5, [1, 2], (1, 2)], ids=repr)
@pytest.mark.parametrize("site", SITES)
def test_anything_else_raises_type_error(site, value):
    with pytest.raises(TypeError):
        ENTRY_POINTS[site](value)


@pytest.mark.parametrize("value", [[1, 2], (1, 2), 1.5], ids=repr)
def test_ratfn_takes_no_list_tuple_or_float(value):
    with pytest.raises(TypeError):
        RatFn(value)
    with pytest.raises(TypeError):
        RatFn(Poly([1, 2]), value)
