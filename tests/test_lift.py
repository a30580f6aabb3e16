"""Series form of the Legendrian lift and its contact conditions."""

import random

import pytest

from equiops.cyclotomic import rational, sqrt5
from equiops.lift import legendrian_lift_series
from equiops.operators import FormCoeff, d_operator
from equiops.parsing import parse_ratfn
from equiops.poly import Poly
from equiops.properties import random_ratfn
from equiops.ratfn import RatFn


def test_lift_contact_and_duality_example():
    f = parse_ratfn("z^3 + z")
    lift = legendrian_lift_series(f, p=rational(1), n=8)
    for residual in lift.contact_residuals():
        assert all(c.is_zero for c in residual)
    # determinant is -fdot(p), constant along the curve
    det = lift.determinant()
    assert det[0] == -f.derivative()(rational(1))
    assert all(c.is_zero for c in det[1:])


def test_maurer_cartan_structure():
    f = parse_ratfn("(z^2 - 1)/z")
    lift = legendrian_lift_series(f, p=rational(2), n=8)
    mc = lift.mc_form()
    # [[0, S], [1, 0]] shape: diagonal vanishes, lower-left is 1
    assert all(c.is_zero for c in mc[0][0])
    assert all(c.is_zero for c in mc[1][1])
    one = mc[1][0]
    assert one[0] == rational(1) and all(c.is_zero for c in one[1:])


def test_second_projection_recovers_dual():
    rng = random.Random(99)
    for _ in range(3):
        f = random_ratfn(rng, 4)
        fhat = d_operator(f)
        if fhat.degenerate:
            continue
        p = rational(rng.randint(2, 9))
        try:
            lift = legendrian_lift_series(f, p=p, n=8)
        except ValueError:  # p not regular for this sample
            continue
        pi2 = lift.pi2_series()
        target = list(fhat.taylor(p, 8))[:len(pi2)]
        assert pi2[:len(target)] == target


@pytest.mark.parametrize("n", [-1, 0, 1, 2])
def test_lift_rejects_orders_below_three(n):
    with pytest.raises(ValueError, match="at least 3"):
        legendrian_lift_series(parse_ratfn("z^3 + z"), p=rational(1), n=n)


def test_lift_at_the_smallest_order():
    lift = legendrian_lift_series(parse_ratfn("z^3 + z"), p=rational(1), n=3)
    assert [len(row) for row in lift.contact_residuals()] == [1, 1, 1, 1]
    assert all(c.is_zero for r in lift.contact_residuals() for c in r)
    assert lift.determinant() == [rational(-4), rational(0)]


@pytest.mark.parametrize("theta", [None, "z^2 + 1", "1/(z + 4)"])
def test_lift_on_irrational_data(theta):
    # f = z^3 + sqrt5 z keeps every entry on the Cyclo storage
    f = RatFn(Poly([0, sqrt5(), 0, 1]))
    form = None if theta is None else FormCoeff(parse_ratfn(theta))
    p = rational(1)
    lift = legendrian_lift_series(f, form, p=p, n=8)
    assert any(not c.is_rational for c in lift.psi1)
    for residual in lift.contact_residuals():
        assert len(residual) == 6 and all(c.is_zero for c in residual)
    mc = lift.mc_form()
    assert mc[1][0] == [rational(1)] + [rational(0)] * 5
    det = lift.determinant()
    fdot = (form or FormCoeff.dz()).xderiv(f)
    assert det == [-fdot(p)] + [rational(0)] * 6
    assert lift.pi2_series() == d_operator(f, form).taylor(p, 7)


def test_lift_rejects_a_form_vanishing_at_p():
    # fdot = (z + z^3)/z is 1 at 0, but theta = z dz vanishes there
    f = parse_ratfn("z^2/2 + z^4/4")
    with pytest.raises(ZeroDivisionError, match="theta vanishes at p"):
        legendrian_lift_series(f, FormCoeff(parse_ratfn("z")), p=0, n=5)


def test_pi2_rejects_a_pole_of_the_dual():
    # phi(0) = 0 for z^3 + z, so psidot2(0) = 0 and D f has a pole at 0
    f = parse_ratfn("z^3 + z")
    lift = legendrian_lift_series(f, p=0, n=5)
    assert all(c.is_zero for r in lift.contact_residuals() for c in r)
    with pytest.raises(ZeroDivisionError, match="pole"):
        lift.pi2_series()
    with pytest.raises(ZeroDivisionError, match="pole"):
        d_operator(f).taylor(rational(0), 4)
