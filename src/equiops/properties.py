"""Seeded randomized identity checks shared by the test suite and CLI.

Each check returns (ok, detail) where detail is a short human-readable
witness string.  All algebra is exact; randomness only selects inputs.
The P1-P7 suite is defined once, as the seeded draw `identity_inputs` and
the ordered table `IDENTITY_CHECKS`; the report and the tests iterate it.
The ncalg suite is defined the same way, by `ncalg_inputs` and
`NCALG_CHECKS`.
"""

from collections import namedtuple

from .cyclotomic import DEFAULT_ORDER, rational
from .divisors import (Divisor, quadratic_differential_poles,
                       ramification_divisor)
from .moebius import (Moebius, cross_ratio, form_invariance_check,
                      moebius_apply)
from .ncalg import (GenMoebius, MatFn, deform_family, gen_moebius_apply,
                    nc_d_operator, nc_eval, nc_phi_deform, s_poly)
from .operators import (FormCoeff, d_operator, dd_deformation_h,
                        deform_corollary, phi_operator, pre_schwarzian,
                        rankin_cohen, schwarzian)
from .poly import Poly
from .ratfn import RatFn


def random_poly(rng, degree, order=DEFAULT_ORDER):
    coeffs = [rational(rng.randint(-5, 5), order) for _ in range(degree + 1)]
    coeffs[-1] = rational(rng.choice([1, 2, 3, -1, -2, -3]), order)
    return Poly(coeffs, order)


def random_ratfn(rng, max_degree=6, order=DEFAULT_ORDER):
    """Random non-degenerate rational function (fdd != 0, f non-Moebius)."""
    while True:
        nd = rng.randint(1, max_degree)
        dd = rng.randint(0, max_degree - 1)
        f = RatFn(random_poly(rng, nd, order), random_poly(rng, dd, order))
        if f.is_constant or f.is_infinity:
            continue
        fd = f.derivative()
        if fd.is_zero or fd.derivative().is_zero:
            continue
        if schwarzian(f).is_zero:
            continue
        return f


def random_moebius(rng, order=DEFAULT_ORDER):
    while True:
        a, b, c, d = (rational(rng.randint(-4, 4), order) for _ in range(4))
        try:
            return Moebius(a, b, c, d, order)
        except ValueError:
            continue


# Inputs of one P1-P7 run: maps f and w, a Moebius m, an invariant h and a
# form alpha of weight k.
IdentityInputs = namedtuple("IdentityInputs", "f w m h alpha k")


def identity_inputs(rng, f_degree):
    """Seeded draw of the P1-P7 inputs; f has degree at most f_degree."""
    f = random_ratfn(rng, f_degree)
    w = random_ratfn(rng, 3)
    m = random_moebius(rng)
    h = RatFn(random_poly(rng, 2), random_poly(rng, 1))
    alpha = random_poly(rng, 4)
    k = rng.choice([-4, -6, -12, 3, 5])
    return IdentityInputs(f, w, m, h, alpha, k)


def check_duality(f):
    """P1: with fhat = D f and thetahat = (S f) dz, D recovers f and the
    Schwarzian inverts."""
    s = schwarzian(f)
    fhat = d_operator(f)
    if fhat.degenerate:
        return False, "degenerate dual"
    theta_hat = FormCoeff(s)
    back = d_operator(fhat, theta_hat)
    ok1 = back == f
    shat = schwarzian(fhat, theta_hat)
    ok2 = (shat * s) == RatFn.constant(rational(1, f.order), f.order)
    return ok1 and ok2, "D-dual recovered=%s, S-inverse=%s" % (ok1, ok2)


def check_cocycle(f, w):
    """P2: (phi_w f) dw = (phi_z f - phi_z w) dz."""
    lhs = pre_schwarzian(f, FormCoeff.d_of(w)) * w.derivative()
    rhs = pre_schwarzian(f) - pre_schwarzian(w)
    return lhs == rhs, "cocycle residual zero=%s" % (lhs == rhs)


def check_equivariance(f, m):
    """P3: D(T o f) = T o D(f) and S(T o f) = S(f)."""
    tf = moebius_apply(m, f)
    ok1 = d_operator(tf) == moebius_apply(m, d_operator(f))
    ok2 = schwarzian(tf) == schwarzian(f)
    return ok1 and ok2, "D equivariant=%s, S invariant=%s" % (ok1, ok2)


def check_dd_identity(f):
    """P4: D(D f) = f + fd/(H + phi) with H = -2 S^2 / X(S)."""
    fhat = d_operator(f)
    if fhat.degenerate:
        return False, "degenerate dual"
    h = dd_deformation_h(f)
    phi = pre_schwarzian(f)
    den = h + phi
    if den.is_zero:
        return False, "H + phi vanishes"
    lhs = d_operator(fhat)
    rhs = f + f.derivative() / den
    return lhs == rhs, "DD identity zero=%s" % (lhs == rhs)


def check_inversion(f, h):
    """P5: cross_ratio(f, Phi_0 f, Phi_1 f, Phi_h f) = h."""
    z = RatFn.x(f.order)
    one = RatFn.constant(rational(1, f.order), f.order)
    p0 = deform_corollary(f, z, RatFn.constant(rational(0, f.order), f.order))
    p1 = deform_corollary(f, z, one)
    ph = deform_corollary(f, z, h)
    value = cross_ratio(f, p0, p1, ph, f.order)
    return value == h, "cross-ratio equals h=%s" % (value == h)


def check_ramification(f):
    """P6: Ram(D f) agrees with Ram(f) on its support, and the poles of
    the Schwarzian quadratic differential are twice that support."""
    fhat = d_operator(f)
    if fhat.degenerate:
        return False, "degenerate dual"
    rf = ramification_divisor(f)
    rdf = ramification_divisor(fhat)
    ok1 = rf.agrees_with_on_support(rdf)
    from .divisors import INF, Place
    support = Divisor(
        [(Place.infinity() if key == INF else Place.bundle(key), 1)
         for key, mult in rf.refined_items().items() if mult != 0],
        f.order)
    poles = quadratic_differential_poles(schwarzian(f))
    ok2 = poles == support.scale(2)
    return ok1 and ok2, "support agreement=%s, S-poles=2*supp=%s" % (ok1, ok2)


def check_critical_identity(alpha, k, order=DEFAULT_ORDER):
    """P7: -(k+1) (phi_alpha)' (alpha')^2 = [alpha, alpha]_2."""
    phi = phi_operator(alpha, k)
    alpha_r = RatFn(alpha) if isinstance(alpha, Poly) else alpha
    ap = alpha_r.derivative()
    lhs = phi.derivative() * ap * ap * rational(-(k + 1), order)
    rhs = rankin_cohen(alpha_r, k, alpha_r, k, 2)
    return lhs == rhs, "critical identity zero=%s" % (lhs == rhs)


# The P1-P7 suite: (check id, check of one IdentityInputs), in report order.
IDENTITY_CHECKS = (
    ("P1.duality", lambda x: check_duality(x.f)),
    ("P2.cocycle", lambda x: check_cocycle(x.f, x.w)),
    ("P3.equivariance", lambda x: check_equivariance(x.f, x.m)),
    ("P4.dd", lambda x: check_dd_identity(x.f)),
    ("P5.inversion", lambda x: check_inversion(x.f, x.h)),
    ("P6.ramification", lambda x: check_ramification(x.f)),
    ("P7.critical", lambda x: check_critical_identity(x.alpha, x.k)),
)


def check_bracket_closure(config, name_a, name_b, n):
    """P8: the Rankin-Cohen bracket of two configured forms is again a
    form of weight k + l + 2n with the product character."""
    fa = config.form(name_a)
    fb = config.form(name_b)
    bracket = rankin_cohen(RatFn(fa.poly), fa.weight, RatFn(fb.poly), fb.weight, n)
    if bracket.is_zero:
        return True, "[%s,%s]_%d vanishes" % (name_a, name_b, n)
    if not bracket.den.is_constant:
        return False, "bracket not polynomial"
    poly = bracket.num
    weight = fa.weight + fb.weight + 2 * n
    for gen, ca, cb in zip(config.generators, fa.characters, fb.characters):
        ok, witness = form_invariance_check(poly, weight, ca * cb, gen)
        if not ok:
            return False, "bracket fails invariance: %s" % (witness,)
    return True, "[%s,%s]_%d has weight %d" % (name_a, name_b, n, weight)


def random_gen_moebius(rng):
    """Generalized Moebius map: four 2x2 blocks, entries in [-3, 3]."""
    while True:
        blocks = [[[rational(rng.randint(-3, 3)) for _ in range(2)]
                   for _ in range(2)] for _ in range(4)]
        try:
            return GenMoebius(*blocks)
        except ValueError:
            continue


def random_matfn(rng, degree):
    """2x2 polynomial matrix f with fdot and fddot regular; each entry has
    degree `degree()`, drawn before its coefficients."""
    while True:
        f = MatFn([[random_poly(rng, degree()) for _ in range(2)]
                   for _ in range(2)])
        fdot = f.derivative()
        if not fdot.det().is_zero and not fdot.derivative().det().is_zero:
            return f


def ncalg_inputs(rng, degree):
    """Seeded draw of one ncalg run: (T, f), T first."""
    return random_gen_moebius(rng), random_matfn(rng, degree)


def check_nc_equivariance(op, t, f):
    """op(T f) = T op(f) for the generalized Moebius action of T."""
    ok = op(gen_moebius_apply(t, f)) == gen_moebius_apply(t, op(f))
    return ok, "equivariant=%s" % ok


def check_semi_invariance(poly, t, f):
    """poly(T f) = (c f + d) poly(f) (c f + d)^{-1} for T = (a, b; c, d)."""
    cfd = MatFn(t.c) * f + MatFn(t.d)
    ok = nc_eval(poly, gen_moebius_apply(t, f)) == \
        cfd * nc_eval(poly, f) * cfd.inverse()
    return ok, "semi-invariant=%s" % ok


# The ncalg suite: (check id, check of one (T, f)), in report order.
NCALG_CHECKS = (
    ("D", lambda t, f: check_nc_equivariance(nc_d_operator, t, f)),
    ("S1", lambda t, f: check_semi_invariance(s_poly(1), t, f)),
    ("phi_S1", lambda t, f: check_nc_equivariance(
        lambda g: nc_phi_deform(g, s_poly(1)), t, f)),
    ("phi_S2", lambda t, f: check_nc_equivariance(
        lambda g: nc_phi_deform(g, s_poly(2)), t, f)),
    ("family", lambda t, f: check_nc_equivariance(
        lambda g: deform_family(g, 2), t, f)),
)
