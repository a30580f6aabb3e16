"""P1 and P5 on the unreduced operator forms, and the reduced operator
values against their definitions mod p.

`check_duality` (P1) and `check_inversion` (P5) decide num/den = g as
num g.den = den g.num (`properties._equals`) on the unreduced forms of
`equiops.operators`, with no gcd.  Their verdicts must agree with the
reduced comparison `RatFn(num, den) == g`, on true and on perturbed false
cases, and every raise of the reduced path must stay a raise.

The reduced values that `d_operator`, `schwarzian`, `pre_schwarzian` and
`deform_corollary` return are no longer read by P1 and P5, so an oracle that
shares no step with the forms checks them.  Q(zeta_120) maps onto F_p at a
prime p = 1 (mod 120) by zeta -> r, a root of Phi_120 mod p
(`cyclotomic._split_roots`).  At a seeded point z0 the Taylor coefficients
of f, alpha and h at z0 are taken mod p, and the definitions are evaluated
on those truncated series along X = (1/alpha) d/dz for theta = alpha dz:

    fd = X f,  fdd = X fd,  phi = -fdd/(2 fd),  S = X phi + phi^2,
    D f = f - 2 fd^2/fdd,  Phi_h f = f + fd/(h + phi) along X = (1/g') d/dz;

at theta = dz these are phi = -f''/(2f'), S = phi' + phi^2 and
D f = f - 2f'^2/f''.  Their constant terms must equal the image of the
reduced value at z0.  The maps have degrees that the RatFn chain of
`tests/test_operator_forms.py` does not reach in its time.
"""

import random

import pytest

from equiops import properties as pr
from equiops.cyclotomic import _is_prime, _split_roots, imag_unit, rational, sqrt5, zeta
from equiops.moebius import _cross_ratio_form, cross_ratio
from equiops.operators import (FormCoeff, _d_form, _deform_form, _schwarzian_form,
                               d_operator, deform_corollary, pre_schwarzian,
                               schwarzian)
from equiops.poly import Poly
from equiops.ratfn import RatFn

N = 120
P = next(p for p in range(N * (2**31 // N) + 1, 2**32, N) if _is_prime(p))  # p = 1 (mod N)
POWERS = _split_roots(N, P)[0]  # (r^0, ..., r^31) for each root r of Phi_120 mod P
TERMS = 5  # S reads three derivatives of f; the constant term is all that is compared
SEED = 20261022

FIELDS = {"Q": lambda: None, "sqrt5": sqrt5, "i": imag_unit,
          "zeta120": lambda: zeta(N, 1)}


# -- the image in F_p and the series at z0 ---------------------------------


def image(c, root):
    """The image mod P of a Cyclo under zeta -> the root-th root of Phi_120."""
    return sum(x * w for x, w in zip(c.num, POWERS[root])) * pow(c.den, -1, P) % P


def taylor(poly, z0, root):
    """Taylor coefficients of poly at z0 mod P, TERMS of them."""
    out = [0] * TERMS
    coeffs = [image(c, root) for c in poly.coeffs]
    for k in range(TERMS):  # Horner on the k-th derivative over k!
        acc = 0
        for j in range(len(coeffs) - 1, k - 1, -1):
            acc = (acc * z0 + coeffs[j] * _binomial(j, k)) % P
        out[k] = acc
    return out


def _binomial(j, k):
    out = 1
    for t in range(k):
        out = out * (j - t) // (t + 1)
    return out


def mul(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) % P for k in range(TERMS)]


def inv(a):
    if a[0] == 0:
        raise ZeroDivisionError("a pole at z0")
    out, lead = [0] * TERMS, pow(a[0], -1, P)
    for k in range(TERMS):
        acc = (1 if k == 0 else 0) - sum(a[i] * out[k - i] for i in range(1, k + 1))
        out[k] = acc * lead % P
    return out


def add(a, b, s=1):
    return [(x + s * y) % P for x, y in zip(a, b)]


def scale(a, c):
    return [x * c % P for x in a]


def deriv(a):
    # the last term is unknown; only constant terms are read, TERMS - 3 deep
    return [(k + 1) * a[k + 1] % P for k in range(TERMS - 1)] + [0]


def series(f, z0, root):
    return mul(taylor(f.num, z0, root), inv(taylor(f.den, z0, root)))


def value(f, z0, root):
    """f(z0) mod P from the reduced num and den."""
    return series(f, z0, root)[0]


# -- the definitions on series ---------------------------------------------


def definitions(f, alpha, z0, root):
    """(phi, S, D f) at z0 mod P along X = (1/alpha) d/dz."""
    x = inv(series(alpha, z0, root))
    fs = series(f, z0, root)
    fd = mul(deriv(fs), x)
    fdd = mul(deriv(fd), x)
    phi = scale(mul(fdd, inv(fd)), (P - 1) * pow(2, -1, P) % P)
    s = add(mul(deriv(phi), x), mul(phi, phi))
    dual = add(fs, scale(mul(mul(fd, fd), inv(fdd)), 2), -1)
    return phi[0], s[0], dual[0]


def deformation(f, g, h, z0, root):
    """Phi_h f at z0 mod P along X = (1/g') d/dz."""
    x = inv(series(g.derivative(), z0, root))
    fs = series(f, z0, root)
    fd = mul(deriv(fs), x)
    phi = scale(mul(mul(deriv(fd), x), inv(fd)), (P - 1) * pow(2, -1, P) % P)
    return add(fs, mul(fd, inv(add(series(h, z0, root), phi))))[0]


# -- seeded data -------------------------------------------------------------


def coeff(rng, gen):
    a = rational(rng.randint(-3, 3))
    return a if gen is None else a + gen * rational(rng.choice((-2, -1, 1, 2)))


def poly(rng, degree, gen):
    cs = [coeff(rng, gen) for _ in range(degree + 1)]
    if cs[-1].is_zero:
        cs[-1] = rational(1)
    return Poly(cs)


def draw(rng, gen, num_degree, den_degree):
    while True:
        f = RatFn(poly(rng, num_degree, gen), poly(rng, den_degree, gen))
        if f.num.degree == num_degree and f.den.degree == den_degree and f.degree >= 2:
            return f


# (num degree, den degree) of f per field, past the chain's degrees 4 and 3
SHAPES = {"Q": (8, 7), "sqrt5": (6, 5), "i": (6, 5), "zeta120": (5, 4)}


def cases(field):
    rng = random.Random("%d:%s" % (SEED, field))
    gen = FIELDS[field]()
    f = draw(rng, gen, *SHAPES[field])
    alpha = draw(rng, gen, 2, 1)
    g = RatFn(poly(rng, 3, gen))
    h = RatFn(poly(rng, 2, gen), poly(rng, 1, gen))
    points = [(rng.randrange(P), rng.randrange(32)) for _ in range(3)]
    return f, alpha, g, h, points


def checked(points, check):
    """Run check(z0, root) at each point, skipping the rare poles at z0;
    at least two points must be checked."""
    done = 0
    for z0, root in points:
        try:
            check(z0, root)
        except ZeroDivisionError:
            continue
        done += 1
    assert done >= 2


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_phi_s_and_d_are_their_definitions_mod_p(field):
    f, alpha, _, _, points = cases(field)
    for theta in (None, FormCoeff(alpha)):
        a = theta.alpha if theta else RatFn.constant(1)
        values = pre_schwarzian(f, theta), schwarzian(f, theta), d_operator(f, theta)

        def check(z0, root):
            want = definitions(f, a, z0, root)
            got = tuple(value(v, z0, root) for v in values)
            assert got == want, (field, theta, z0, root)
        checked(points, check)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_the_deformation_is_its_definition_mod_p(field):
    f, _, g, h, points = cases(field)
    for g_map in (RatFn.x(), g):
        for hv in (RatFn.constant(0), h):
            got = deform_corollary(f, g_map, hv)

            def check(z0, root):
                assert value(got, z0, root) == deformation(f, g_map, hv, z0, root), \
                    (field, str(g_map), str(hv), z0, root)
            checked(points, check)


def test_the_oracle_tells_a_wrong_value_apart():
    f, _, _, _, points = cases("zeta120")
    z0, root = points[0]
    want = definitions(f, RatFn.constant(1), z0, root)
    for op, wrong in zip((pre_schwarzian, schwarzian, d_operator), want):
        assert value(op(f) + 1, z0, root) != wrong


# -- the cross-multiplied verdicts of P1 and P5 ------------------------------

# (num degree, den degree) of the P1 and P5 maps and how many per field; P1
# over Q(zeta_120) takes about a second at degree 3, so that field takes one
# map of degree 2
VERDICT_CASES = {"Q": (4, 3, 2), "sqrt5": (3, 2, 2), "i": (3, 2, 2), "zeta120": (2, 1, 1)}


def verdict_cases(field):
    """Seeded (f, h) with f not Moebius, so D f is not degenerate."""
    rng = random.Random("%d:verdicts:%s" % (SEED, field))
    gen = FIELDS[field]()
    *shape, count = VERDICT_CASES[field]
    out = []
    while len(out) < count:
        f = draw(rng, gen, *shape)
        h = RatFn(poly(rng, 2, gen), poly(rng, 1, gen))
        if not d_operator(f).degenerate:
            out.append((f, h))
    return out


def verdicts(num, den, gs):
    """The verdicts of _equals on each g, which must be those of the reduced
    comparison RatFn(num, den) == g."""
    reduced = RatFn(num, den)
    out = [pr._equals(num, den, g) for g in gs]
    assert out == [reduced == g for g in gs]
    return out


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_cross_multiplied_verdicts_agree_with_the_reduced_ones(field):
    z, one = RatFn.x(), RatFn.constant(1)
    for f, h in verdict_cases(field):
        s, fhat = schwarzian(f), d_operator(f)
        theta_hat = FormCoeff(s)
        num, den = _schwarzian_form(fhat, theta_hat)
        forms = [_deform_form(f, z, c) for c in (0, 1, h)]
        pairs = {"D(fhat)": (_d_form(fhat, theta_hat), f),
                 "S(fhat) S(f)": ((num * s.num, den * s.den), one),
                 "cross-ratio": (_cross_ratio_form((f.num, f.den), *forms), h)}
        # true for g, false for the perturbed g + 1 and g z
        for name, (pair, g) in pairs.items():
            assert verdicts(*pair, (g, g + 1, g * z)) == [True, False, False], (field, name)
        # D along thetahat is projectively equivariant, so it takes fhat + 1 to f + 1
        for wrong in (fhat + 1, fhat * z):
            assert verdicts(*_d_form(wrong, theta_hat), (f,)) == [False], field
        assert pr.check_duality(f) == (True, "D-dual recovered=True, S-inverse=True")
        assert pr.check_inversion(f, h) == (True, "cross-ratio equals h=True")


ZERO = Poly.zero()
ZERO_OVER_ZERO = "^0/0 is not a rational function$"


def test_a_zero_over_zero_pair_raises():
    g = RatFn.x()
    for call in (lambda: pr._equals(ZERO, ZERO, g), lambda: RatFn(ZERO, ZERO),
                 lambda: _cross_ratio_form((g.num, g.den), (ZERO, ZERO), (g.num, g.den),
                                           (Poly.one(), ZERO))):
        with pytest.raises(ZeroDivisionError, match=ZERO_OVER_ZERO):
            call()


F = RatFn(Poly([rational(1), rational(0), rational(-2), rational(1)]), Poly([rational(3), rational(1)]))
H = RatFn(Poly([rational(2), rational(1)]))


def test_a_zero_over_zero_dual_or_deformation_still_raises(monkeypatch):
    # D f and Phi_h f are never 0/0 (D L(N) - N L(D) = -2 AB W^2), so the
    # forms are replaced: the check must raise, not return a verdict
    monkeypatch.setattr(pr, "_d_form", lambda f, theta: (ZERO, ZERO))
    with pytest.raises(ZeroDivisionError, match=ZERO_OVER_ZERO):
        pr.check_duality(F)
    monkeypatch.setattr(pr, "_deform_form", lambda f, g, h: (ZERO, ZERO))
    with pytest.raises(ZeroDivisionError, match=ZERO_OVER_ZERO):
        pr.check_inversion(F, H)


def test_a_degenerate_quadruple_still_raises(monkeypatch):
    with pytest.raises(ZeroDivisionError, match="^degenerate quadruple$"):
        cross_ratio(F, F, F, F)
    monkeypatch.setattr(pr, "_deform_form", lambda f, g, h: (f.num * 2, f.den * 2))
    with pytest.raises(ZeroDivisionError, match="^degenerate quadruple$"):
        pr.check_inversion(F, H)


@pytest.mark.parametrize("call, error, message", [
    (lambda: pr.check_duality(RatFn.constant(5)), ValueError, "pre-Schwarzian of a constant"),
    (lambda: pr.check_duality(RatFn.infinity()), ArithmeticError,
     "derivative of the constant infinity"),
    (lambda: pr.check_inversion(RatFn.constant(5), H), ValueError, "deformation of a constant"),
    (lambda: pr.check_inversion(F, RatFn.infinity()), ArithmeticError,
     "arithmetic with the constant infinity"),
])
def test_the_checks_raise_what_the_reduced_path_raised(call, error, message):
    with pytest.raises(error, match="^%s$" % message):
        call()
