"""Identities P1-P7 on maps with irrational coefficients.

The acceptance suite draws rational maps only; these seeded maps have
coefficients in Q(sqrt5), Q(i) or Q(zeta_120), so every check runs through
irrational Cyclo arithmetic, field gcds and the norm-tower inverse.
"""

import random

import pytest

from equiops import properties as pr
from equiops.cyclotomic import imag_unit, rational, sqrt5, zeta
from equiops.moebius import Moebius
from equiops.operators import d_operator, schwarzian
from equiops.parsing import parse_ratfn
from equiops.poly import Poly
from equiops.ratfn import RatFn

SEED = 20261018


def field_coeff(rng, gen):
    """a + b*gen with small integers a and b != 0."""
    return rational(rng.randint(-3, 3)) + gen * rational(rng.choice((-2, -1, 1, 2)))


def field_poly(rng, degree, gen):
    return Poly([field_coeff(rng, gen) for _ in range(degree + 1)])


def nondegenerate(f):
    if f.is_constant or f.is_infinity:
        return False
    fd = f.derivative()
    if fd.is_zero or fd.derivative().is_zero or schwarzian(f).is_zero:
        return False
    return not d_operator(f).degenerate


def field_map(rng, gen, num_degree, den_degree):
    while True:
        den = field_poly(rng, den_degree, gen) if den_degree else Poly.one()
        f = RatFn(field_poly(rng, num_degree, gen), den)
        if nondegenerate(f):
            return f


def field_moebius(rng, gen):
    while True:
        try:
            return Moebius(*(field_coeff(rng, gen) for _ in range(4)))
        except ValueError:
            continue


def field_inputs(rng, gen, den_degree):
    """Every coefficient of every input lies in Q(gen) minus Q."""
    return (field_map(rng, gen, 2, den_degree), field_map(rng, gen, 2, 0),
            field_moebius(rng, gen),
            RatFn(field_poly(rng, 1, gen), field_poly(rng, 1, gen)),
            field_poly(rng, 2, gen), rng.choice([-4, -6, 3]))


def zeta_mix_inputs(rng):
    """A quadratic map with one coefficient a + b*zeta^k, the rest rational."""
    gen = zeta(120, rng.choice((1, 2)))
    while True:
        coeffs = [rational(rng.randint(-3, 3)) for _ in range(3)]
        coeffs[2] = rational(rng.choice((1, 2, 3, -1, -2, -3)))
        coeffs[rng.randrange(3)] = field_coeff(rng, gen)
        f = RatFn(Poly(coeffs))
        if nondegenerate(f):
            break
    alpha = Poly([rational(rng.randint(-3, 3)), field_coeff(rng, gen),
                  rational(rng.choice((1, 2, 3)))])
    return (f, pr.random_ratfn(rng, 2), pr.random_moebius(rng),
            RatFn(pr.random_poly(rng, 2), pr.random_poly(rng, 1)), alpha,
            rng.choice([-4, -6, 3]))


CASES = [("sqrt5", 0), ("sqrt5", 1), ("imag", 0), ("imag", 1),
         ("sqrt5_ratfn", 0), ("zeta", 0)]


@pytest.mark.parametrize("field,index", CASES)
def test_identities_on_irrational_maps(field, index):
    rng = random.Random("%d:%s:%d" % (SEED, field, index))
    if field == "zeta":
        f, w, m, h, alpha, k = zeta_mix_inputs(rng)
    else:
        gen = imag_unit() if field == "imag" else sqrt5()
        den_degree = 1 if field == "sqrt5_ratfn" else 0
        f, w, m, h, alpha, k = field_inputs(rng, gen, den_degree)
    assert not all(c.is_rational for c in f.num.coeffs + f.den.coeffs)
    x = pr.IdentityInputs(f, w, m, h, alpha, k)
    for check_id, check in pr.IDENTITY_CHECKS:
        ok, detail = check(x)
        assert ok, (check_id, detail)


def test_cocycle_on_one_zeta_coefficient_and_a_degree_2_w():
    # P2 on this pair spent seconds in gcds of full-size unreduced results
    # over Q(zeta_120); arithmetic on reduced halves takes a fraction of one
    f = RatFn(Poly([rational(0), rational(2) + zeta(120) * rational(2), rational(2)]))
    w = parse_ratfn("(-3*z^2 - 2*z - 1)/(z^2 - 4*z)")
    ok, detail = pr.check_cocycle(f, w)
    assert ok, detail
