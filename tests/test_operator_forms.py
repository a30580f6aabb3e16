"""The operators on the forms of f = N/D against their RatFn-chain
definitions.

`equiops.operators` computes D, phi, S, the deformation and the phi
operators from polynomial forms with one reduction each.  The functions
below are the definitions as chains of reduced RatFn operations, X(f) =
f'/alpha along theta = alpha dz; both sides are canonical, so num and den
must agree coefficient for coefficient.
"""

import random
import sys
import threading
from fractions import Fraction

import pytest

from equiops import properties as pr
from equiops.cyclotomic import CycloError, imag_unit, rational, sqrt5, zeta
from equiops.operators import (FormCoeff, d_operator, dd_deformation_h,
                               deform_corollary,
                               phi_biweight, phi_operator, pre_schwarzian,
                               schwarzian)
from equiops.parsing import parse_ratfn
from equiops.poly import Poly
from equiops.ratfn import RatFn

SEED = 20261019


# -- the chain definitions ---------------------------------------------


def xderiv(f, theta):
    return f.derivative() / theta.alpha


def chain_pre_schwarzian(f, theta):
    fd = xderiv(f, theta)
    return -xderiv(fd, theta) / (fd * 2)


def chain_schwarzian(f, theta):
    phi = chain_pre_schwarzian(f, theta)
    return xderiv(phi, theta) + phi * phi


def chain_d_operator(f, theta):
    fd = xderiv(f, theta)
    fdd = xderiv(fd, theta)
    if fdd.is_zero:
        return RatFn.infinity(f.order)
    return f - (fd * fd * 2) / fdd


def chain_deform(f, theta, h):
    fd = xderiv(f, theta)
    den = h - xderiv(fd, theta) / (fd * 2)
    if den.is_zero:
        return RatFn.infinity(f.order)
    return f + fd / den


def chain_phi(alpha, k):
    return RatFn.x(alpha.order) + (alpha * k) / alpha.derivative()


def chain_phi_biweight(alpha, beta, k):
    return RatFn.x(alpha.order) + (alpha * k) / (alpha.derivative() + beta)


def same(got, want):
    return got.num == want.num and got.den == want.den


# -- seeded inputs ------------------------------------------------------


def coeff(rng, gen):
    """A small rational for gen None, else a + b*gen with b != 0."""
    a = rational(rng.randint(-3, 3))
    return a if gen is None else a + gen * rational(rng.choice((-2, -1, 1, 2)))


def poly(rng, degree, gen):
    cs = [coeff(rng, gen) for _ in range(degree + 1)]
    if gen is None and cs[-1].is_zero:
        cs[-1] = rational(1)
    return Poly(cs)


def field_map(rng, gen, num_degree, den_degree):
    """A map that is not Moebius, so that its Schwarzian is nonzero."""
    while True:
        den = poly(rng, den_degree, gen) if den_degree else Poly.one()
        f = RatFn(poly(rng, num_degree, gen), den)
        if f.degree >= 2 and not schwarzian(f).is_zero:
            return f


FIELDS = {"Q": lambda: None, "sqrt5": sqrt5, "i": imag_unit,
          "zeta120": lambda: zeta(120, 1)}


def thetas(rng, f, gen, g_gen):
    """theta = dz, a constant alpha, S(f) dz (as in P1), w' dz (as in P2)
    and dg with g of degree 3 over Q(g_gen)."""
    w = pr.random_ratfn(rng, 3)
    g = RatFn(poly(rng, 3, g_gen), poly(rng, 1, g_gen))
    while g.degree != 3:
        g = RatFn(poly(rng, 3, g_gen), poly(rng, 1, g_gen))
    const = coeff(rng, gen)
    if const.is_zero:
        const = rational(2)
    return {"dz": FormCoeff.dz(), "constant": FormCoeff(RatFn.constant(const)),
            "S(f)": FormCoeff(schwarzian(f)), "w'": FormCoeff.d_of(w),
            "dg": FormCoeff.d_of(g)}


def maps(field, count):
    rng = random.Random("%d:%s" % (SEED, field))
    gen = FIELDS[field]()
    shapes = ((2, 0), (2, 1), (3, 1)) if field != "Q" else ((3, 2), (4, 1), (2, 2))
    return [(rng, gen, field_map(rng, gen, *shapes[i % len(shapes)]))
            for i in range(count)]


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_operators_match_the_chain(field):
    # over Q(zeta_120) two maps and a rational g keep the chain near two seconds
    zeta_field = field == "zeta120"
    for rng, gen, f in maps(field, 2 if zeta_field else 3):
        for name, theta in thetas(rng, f, gen, None if zeta_field else gen).items():
            where = "%s, %s, theta %s" % (field, f, name)
            assert same(pre_schwarzian(f, theta), chain_pre_schwarzian(f, theta)), where
            assert same(schwarzian(f, theta), chain_schwarzian(f, theta)), where
            fhat = d_operator(f, theta)
            want = chain_d_operator(f, theta)
            assert same(fhat, want), where
            assert fhat.degenerate == want.is_constant, where


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_deformation_matches_the_chain(field):
    for rng, gen, f in maps(field, 2):
        z = RatFn.x(f.order)
        g = RatFn(poly(rng, 3, gen))
        h = RatFn(poly(rng, 2, gen), poly(rng, 1, gen))
        for g_map in (z, g):
            theta = FormCoeff.d_of(g_map)
            for hv in (RatFn.constant(0), RatFn.constant(1), h):
                value = deform_corollary(f, g_map, hv)
                want = chain_deform(f, theta, hv)
                assert same(value, want), (field, str(f), str(g_map), str(hv))
                assert value.degenerate == want.is_constant
        assert same(deform_corollary(f, z, 0), d_operator(f))


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_phi_operators_match_the_chain(field):
    rng = random.Random("%d:phi:%s" % (SEED, field))
    gen = FIELDS[field]()
    for _ in range(3):
        alphas = (RatFn(poly(rng, 4, gen)), RatFn(poly(rng, 3, gen), poly(rng, 2, gen)))
        betas = (RatFn.constant(0), RatFn(poly(rng, 2, gen)),
                 RatFn(poly(rng, 1, gen), poly(rng, 2, gen)))
        k = rng.choice((-12, -6, -4, 3, 5))
        for alpha in alphas:
            assert same(phi_operator(alpha, k), chain_phi(alpha, k))
            for beta in betas:
                if (alpha.derivative() + beta).is_zero:
                    continue
                assert same(phi_biweight(alpha, beta, k),
                            chain_phi_biweight(alpha, beta, k))


def test_phi_operators_take_polys_and_scalars():
    alpha = parse_ratfn("z^5 - z")
    assert same(phi_operator(alpha.num, -6), chain_phi(alpha, -6))
    assert same(phi_biweight(alpha.num, 3, -6),
                chain_phi_biweight(alpha, RatFn.constant(3), -6))
    assert same(phi_biweight(alpha, alpha.num, 0), RatFn.x())
    assert same(phi_biweight(5, parse_ratfn("1/z"), 2), chain_phi_biweight(
        RatFn.constant(5), parse_ratfn("1/z"), 2))


def test_affine_maps_have_the_degenerate_dual_infinity():
    for text in ("z", "3*z - 2", "-z/2 + 7"):
        f = parse_ratfn(text)
        for theta in (None, FormCoeff(parse_ratfn("2"))):
            value = d_operator(f, theta)
            assert value.degenerate and value.is_infinity
            assert same(value, RatFn.infinity())


def test_moebius_maps_have_a_constant_degenerate_dual():
    rng = random.Random(SEED)
    seen = 0
    while seen < 5:
        f = pr.random_moebius(rng).as_ratfn()
        if f.den.degree < 1:
            continue
        seen += 1
        value = d_operator(f)
        assert value.degenerate and value.is_constant and not value.is_infinity
        assert same(value, chain_d_operator(f, FormCoeff.dz()))


def test_nondegenerate_duals_are_flagged_so():
    f = parse_ratfn("(z^3 + z)/(z - 2)")
    assert not d_operator(f).degenerate
    assert not deform_corollary(f, RatFn.x(), parse_ratfn("1/z")).degenerate


CONSTANT = RatFn.constant(rational(5))
INFINITY = RatFn.infinity()


@pytest.mark.parametrize("call, message", [
    (lambda: d_operator(CONSTANT), "D of a constant"),
    (lambda: pre_schwarzian(CONSTANT), "pre-Schwarzian of a constant"),
    (lambda: schwarzian(CONSTANT), "pre-Schwarzian of a constant"),
    (lambda: deform_corollary(CONSTANT, RatFn.x(), 1), "deformation of a constant"),
    (lambda: phi_operator(CONSTANT, 3), "form with vanishing derivative"),
    (lambda: phi_operator(5, 3), "form with vanishing derivative"),
    (lambda: phi_biweight(RatFn.x(), -1, 3), "degenerate denominator alpha' + beta"),
])
def test_constant_inputs_raise_value_error(call, message):
    with pytest.raises(ValueError, match="^%s$" % message.replace("+", r"\+")):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: d_operator(INFINITY), "derivative of the constant infinity"),
    (lambda: pre_schwarzian(INFINITY), "derivative of the constant infinity"),
    (lambda: schwarzian(INFINITY), "derivative of the constant infinity"),
    (lambda: deform_corollary(INFINITY, RatFn.x(), 1), "derivative of the constant infinity"),
    (lambda: phi_operator(INFINITY, 3), "derivative of the constant infinity"),
    (lambda: phi_biweight(INFINITY, 1, 3), "derivative of the constant infinity"),
    (lambda: phi_biweight(RatFn.x(), INFINITY, 3), "arithmetic with the constant infinity"),
    (lambda: deform_corollary(parse_ratfn("z^2"), RatFn.x(), INFINITY),
     "arithmetic with the constant infinity"),
])
def test_the_constant_infinity_raises_arithmetic_error(call, message):
    # a ValueError is not an ArithmeticError, so this also tells them apart
    with pytest.raises(ArithmeticError, match="^%s$" % message):
        call()


def test_the_chain_raises_what_the_library_raises():
    # the contracts above are those of the chain definitions
    with pytest.raises(ArithmeticError, match="derivative of the constant infinity"):
        chain_d_operator(INFINITY, FormCoeff.dz())
    with pytest.raises(ArithmeticError, match="arithmetic with the constant infinity"):
        chain_deform(parse_ratfn("z^2"), FormCoeff.dz(), INFINITY)
    with pytest.raises(ArithmeticError, match="arithmetic with the constant infinity"):
        chain_phi_biweight(RatFn.x(), INFINITY, 3)


@pytest.mark.parametrize("max_degree", [-1, 0, 1])
def test_random_ratfn_rejects_degrees_below_two_before_drawing(max_degree):
    # every map of degree 1 is Moebius, so the draw would never end
    rng = random.Random(SEED)
    state = rng.getstate()
    with pytest.raises(ValueError, match="max_degree >= 2"):
        pr.random_ratfn(rng, max_degree)
    assert rng.getstate() == state


@pytest.mark.parametrize("max_degree, text", [
    (2, "-z^2 - 2/3*z + 2/3"),
    (6, "(-3*z^5 - z^4 + 3*z^3 + 2*z^2 - 2*z - 4)/(z^2 - 5)"),
])
def test_random_ratfn_draws_are_unchanged(max_degree, text):
    # the check draws nothing, so a valid call gives the map it gave before
    assert pr.random_ratfn(random.Random(SEED), max_degree) == parse_ratfn(text)


def chain_dd_deformation_h(f, theta):
    s = chain_schwarzian(f, theta)
    return -(s * s * 2) / xderiv(s, theta)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_dd_deformation_h_matches_the_chain(field):
    for rng, gen, f in maps(field, 1):
        for name, theta in thetas(rng, f, gen, None).items():
            assert same(dd_deformation_h(f, theta), chain_dd_deformation_h(f, theta)), name


def test_dd_deformation_h_of_a_constant_schwarzian():
    # along theta = dz/z the identity map has the constant Schwarzian 1/4
    f = RatFn.x()
    theta = FormCoeff(parse_ratfn("1/z"))
    assert schwarzian(f, theta) == RatFn.constant(Fraction(1, 4))
    assert chain_schwarzian(f, theta) == RatFn.constant(Fraction(1, 4))
    with pytest.raises(ValueError, match="^Schwarzian with vanishing X-derivative$"):
        dd_deformation_h(f, theta)


@pytest.mark.parametrize("alpha", [parse_ratfn("z^2 + 1").num, 3, rational(3)])
def test_theta_may_be_given_by_a_poly_or_scalar_alpha(alpha):
    f = parse_ratfn("(z^3 + z)/(z - 2)")
    theta = FormCoeff(RatFn(alpha))
    assert same(d_operator(f, alpha), d_operator(f, theta))
    assert same(schwarzian(f, alpha), chain_schwarzian(f, theta))
    assert same(pre_schwarzian(f, alpha), chain_pre_schwarzian(f, theta))


def test_a_zero_alpha_is_rejected():
    with pytest.raises(ValueError, match="^form coefficient must be a nonzero function$"):
        d_operator(parse_ratfn("z^2"), 0)


# -- D, phi and S kept on the map at theta = dz --------------------------

OPERATORS = {"phi": (pre_schwarzian, chain_pre_schwarzian),
             "S": (schwarzian, chain_schwarzian),
             "D": (d_operator, chain_d_operator)}
DZ = {"None": lambda: None, "dz": FormCoeff.dz,
      "d_of(z)": lambda: FormCoeff.d_of(RatFn.x())}


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_a_second_call_at_dz_returns_the_kept_value(name):
    operator = OPERATORS[name][0]
    f = parse_ratfn("(z^3 - 2*z + 1)/(z^2 + 3)")
    first = operator(f)
    assert operator(f) is first
    for spelling in DZ.values():
        assert operator(f, spelling()) is first
    # an equal map is another object and keeps a value of its own
    g = RatFn(f.num, f.den)
    assert operator(g) is not first and same(operator(g), first)


@pytest.mark.parametrize("field", ["Q", "zeta120"])
@pytest.mark.parametrize("spelling", sorted(DZ))
def test_each_spelling_of_dz_gives_the_chain_value(field, spelling):
    for _, _, f in maps(field, 2):
        f = RatFn(f.num, f.den)  # nothing kept yet
        for operator, chain in OPERATORS.values():
            want = chain(f, FormCoeff.dz())
            assert same(operator(f, DZ[spelling]()), want), (spelling, str(f))
            assert same(operator(f), want), (spelling, str(f))


@pytest.mark.parametrize("field", ["Q", "zeta120"])
def test_another_theta_after_dz_gives_its_own_chain_value(field):
    for rng, _, f in maps(field, 2):
        for operator, _ in OPERATORS.values():
            operator(f)
        w = pr.random_ratfn(rng, 3)
        for theta in (FormCoeff.d_of(w), FormCoeff(RatFn.constant(2)),
                      FormCoeff(RatFn.constant(-1)), FormCoeff(parse_ratfn("1/z"))):
            for operator, chain in OPERATORS.values():
                assert same(operator(f, theta), chain(f, theta)), (str(f), repr(theta))


def test_a_dz_of_another_field_order_is_not_read_from_the_memo():
    # dz over Q(zeta_12) does not meet f over Q(zeta_120), kept value or not
    f = parse_ratfn("(z^3 - 2*z + 1)/(z^2 + 3)")
    d_operator(f)
    with pytest.raises(CycloError):
        d_operator(f, FormCoeff.dz(12))


def test_threads_computing_one_operator_share_one_value():
    # every thread gets the value setdefault kept, whichever finished first
    f = parse_ratfn("(z^4 - 2*z + 1)/(z^3 + 3*z - 1)")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            g = RatFn(f.num, f.den)
            results = []
            start = threading.Barrier(4, timeout=60)

            def call():
                start.wait()
                results.append(d_operator(g))

            workers = [threading.Thread(target=call) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
            assert len(results) == 4 and all(r is results[0] for r in results)
    finally:
        sys.setswitchinterval(interval)
