"""Every verification suite, defined once for the report, CLI and tests.

Each check returns (ok, detail) where detail is a short human-readable
witness string.  The algebra is exact; randomness only selects inputs,
and the dynamics and Heins checks compare floats against tolerances.
P1 and P5 decide num/den = g as num g.den = den g.num (`_equals`), with no
gcd, on unreduced forms, nonzero multiples of the reduced values; the tests
check the reduced operator values against their definitions mod p.
`suite_checks` lists the (check id, thunk) pairs of a named suite:

- identities: P1-P7 (`IDENTITY_CHECKS`) on the seeded draws of
  `identity_inputs`;
- klein: the icosahedral map, the syzygies, phi-equivariance and
  Rankin-Cohen brackets over A4, S4 and A5;
- dynamics: the superattracting cycles of the Klein and Halley maps;
- qseries: Ramanujan's identities, the hauptmodul j-relations,
  Rogers-Ramanujan and the Heins function;
- ncalg: the S_n golden values and `NCALG_CHECKS` on the seeded draws of
  `ncalg_inputs`.
"""

import random
from collections import namedtuple
from functools import cache, partial
from itertools import combinations_with_replacement

from . import qseries as qs
from .cyclotomic import DEFAULT_ORDER, rational
from .divisors import quadratic_differential_poles, ramification_divisor
from .dynamics import CxMap, cycle_report, iteration_map, poly_roots
from .moebius import (Moebius, _cross_ratio_form, equivariance_check,
                      form_invariance_check, moebius_apply)
from .ncalg import (GenMoebius, MatFn, deform_family, gen_moebius_apply,
                    nc_d_operator, nc_eval, nc_phi_deform, s_poly)
from .operators import (FormCoeff, _d_form, _deform_form, _schwarzian_form,
                        d_operator, dd_deformation_h, klein_vector_field,
                        phi_operator, pre_schwarzian, rankin_cohen, schwarzian)
from .parsing import parse_cyclo, parse_poly, parse_ratfn
from .poly import Poly
from .ratfn import RatFn, _as_ratfn

SUITES = ("identities", "klein", "dynamics", "qseries", "ncalg", "all")

GROUP_NAMES = ("A4", "S4", "A5")

# e^2 - f^3 = c v^n for each group: the index n of its vertex, face and
# edge forms v_n, f_n, e_n, and the constant c.
SYZYGIES = {"A4": (3, "16*(zeta^15+zeta^105)"), "S4": (4, "-108"),
            "A5": (5, "1728")}

# Klein's icosahedral map phi(v5, -12), degree 11.
KLEIN_MAP = "(z^11 + 66*z^6 - 11*z)/(-11*z^10 - 66*z^5 + 1)"


def random_poly(rng, degree, order=DEFAULT_ORDER):
    coeffs = [rational(rng.randint(-5, 5), order) for _ in range(degree + 1)]
    coeffs[-1] = rational(rng.choice([1, 2, 3, -1, -2, -3]), order)
    return Poly(coeffs, order)


def random_ratfn(rng, max_degree=6, order=DEFAULT_ORDER):
    """Random non-degenerate rational function (fdd != 0, f non-Moebius);
    every map of degree below 2 is Moebius, so max_degree must be >= 2."""
    if max_degree < 2:
        raise ValueError("random_ratfn needs max_degree >= 2, got %r" % (max_degree,))
    while True:
        nd = rng.randint(1, max_degree)
        dd = rng.randint(0, max_degree - 1)
        f = RatFn(random_poly(rng, nd, order), random_poly(rng, dd, order))
        # an affine f, the one with fdd = 0, is Moebius: S(f) = 0
        if not f.is_constant and not schwarzian(f).is_zero:
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


def _equals(num, den, g):
    """num/den == g for an unreduced pair, as num g.den == den g.num with no
    gcd: a/b = c/d iff ad = bc for b, d != 0, and the constant infinity (1, 0)
    meets only a pair (n, 0).  0/0 raises, as in RatFn(num, den)."""
    if num.is_zero and den.is_zero:
        raise ZeroDivisionError("0/0 is not a rational function")
    return num * g.den == den * g.num


def check_duality(f):
    """P1: with fhat = D f and thetahat = (S f) dz, D recovers f (L(Nhat) D =
    L(Dhat) N) and the Schwarzian inverts (S(fhat, thetahat) S f = 1)."""
    s = schwarzian(f)
    fhat = d_operator(f)
    if fhat.degenerate:
        return False, "degenerate dual"
    theta_hat = FormCoeff(s)
    ok1 = _equals(*_d_form(fhat, theta_hat), f)
    num, den = _schwarzian_form(fhat, theta_hat)
    ok2 = _equals(num * s.num, den * s.den, RatFn.constant(rational(1, f.order), f.order))
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
    """P5: cross_ratio(f, Phi_0 f, Phi_1 f, Phi_h f) = h, on the unreduced forms."""
    z = RatFn.x(f.order)
    forms = [_deform_form(f, z, c) for c in (0, 1, h)]
    ok = _equals(*_cross_ratio_form((f.num, f.den), *forms), _as_ratfn(h, f.order))
    return ok, "cross-ratio equals h=%s" % ok


def check_ramification(f):
    """P6: Ram(D f) agrees with Ram(f) on its support, and the poles of
    the Schwarzian quadratic differential are twice that support."""
    fhat = d_operator(f)
    if fhat.degenerate:
        return False, "degenerate dual"
    rf = ramification_divisor(f)
    rdf = ramification_divisor(fhat)
    ok1 = rf.agrees_with_on_support(rdf)
    poles = quadratic_differential_poles(schwarzian(f))
    ok2 = poles == rf.support().scale(2)
    return ok1 and ok2, "support agreement=%s, S-poles=2*supp=%s" % (ok1, ok2)


def check_critical_identity(alpha, k, order=DEFAULT_ORDER):
    """P7: -(k+1) (phi_alpha)' (alpha')^2 = [alpha, alpha]_2."""
    phi = phi_operator(alpha, k)
    alpha_r = _as_ratfn(alpha, order)
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


def check_nc_equivariance(op, t, f, tf):
    """op(T f) = T op(f) for the generalized Moebius action of T; tf is T f."""
    ok = op(tf) == gen_moebius_apply(t, op(f))
    return ok, "equivariant=%s" % ok


def check_semi_invariance(poly, t, f, tf):
    """poly(T f) = (c f + d) poly(f) (c f + d)^{-1} for T = (a, b; c, d), tf = T f."""
    cfd = MatFn(t.c) * f + MatFn(t.d)
    ok = nc_eval(poly, tf) == cfd * nc_eval(poly, f) * cfd.inverse()
    return ok, "semi-invariant=%s" % ok


# The ncalg suite: (check id, check of one (T, f) and tf = T f), in report
# order; the five checks of a draw share tf and so its form.
NCALG_CHECKS = (
    ("D", partial(check_nc_equivariance, nc_d_operator)),
    ("S1", partial(check_semi_invariance, s_poly(1))),
    ("phi_S1", partial(check_nc_equivariance, lambda g: nc_phi_deform(g, s_poly(1)))),
    ("phi_S2", partial(check_nc_equivariance, lambda g: nc_phi_deform(g, s_poly(2)))),
    ("family", partial(check_nc_equivariance, lambda g: deform_family(g, 2))),
)


# -- klein: the icosahedral map and the polyhedral groups ---------------

def check_klein_map(a5):
    """phi(v5, -12) is Klein's icosahedral map."""
    k = phi_operator(a5.vertex_form.poly, -12)
    return (k == parse_ratfn(KLEIN_MAP),
            "phi(v5, -12) equals the icosahedral map")


def check_vector_field(a5):
    """The vector-field construction of the Klein map agrees with phi."""
    v5 = a5.vertex_form.poly
    return (klein_vector_field(v5, 12) == phi_operator(v5, -12),
            "vector-field construction matches the phi-operator")


def check_syzygy(cfg):
    """e^2 - f^3 = c v^n with the constant c of `SYZYGIES`."""
    n, const = SYZYGIES[cfg.name]
    e = cfg.form("e%d" % n).poly
    face = cfg.form("f%d" % n).poly
    lhs = e * e - face * face * face
    rhs = (cfg.vertex_form.poly ** n).scale(parse_cyclo(const))
    return lhs == rhs, "syzygy e^2 - f^3 = c v^n for %s" % cfg.name


def phi_images(cfg):
    """(form, phi of the form, (ok, witness) of its equivariance on every
    generator) for each configured invariant, in config order."""
    pairs = list(zip(cfg.generators, cfg.rho_generators))
    for form in cfg.forms:
        op = phi_operator(RatFn(form.poly), form.weight)
        yield form, op, equivariance_check(op, pairs)


def check_phi_equivariance(cfg):
    """phi of every configured invariant is equivariant."""
    for form, _, (ok, witness) in phi_images(cfg):
        if not ok:
            return False, "phi(%s) fails: %s" % (form.name, witness)
    return True, "phi of every invariant is equivariant"


def check_brackets(cfg):
    """P8 on every pair of configured forms, n = 1, 2."""
    pairs = list(combinations_with_replacement(
        [form.name for form in cfg.forms], 2))
    for a, b in pairs:
        for n in (1, 2):
            ok, detail = check_bracket_closure(cfg, a, b, n)
            if not ok:
                return False, detail
    return True, ("Rankin-Cohen brackets [a,b]_n of %d form pairs, "
                  "n = 1, 2, are forms" % len(pairs))


# -- dynamics: superattracting cycles ------------------------------------

def klein_cycles(a5, tol=1e-9):
    """Period-2 cycle report of the Klein map at the 20 roots of f5."""
    kmap = klein_vector_field(a5.vertex_form.poly, 12)
    roots = poly_roots(a5.form("f5").poly, tol=1e-10)
    return cycle_report(kmap, roots, 2, tol=tol)


def check_klein_cycles(a5):
    """The 20 roots of f5 lie on superattracting 2-cycles of the Klein map."""
    rep = klein_cycles(a5)
    worst_mult = max(abs(r.multiplier) for r in rep.records)
    ok = len(rep.records) == 20 and rep.passed and worst_mult < 1e-7
    return ok, "20 roots of f5: residual<1e-9=%s, multiplier max %.2e" % (
        rep.passed, worst_mult)


def check_halley_superattracting():
    """+-1 are superattracting fixed points of Halley's map for z^2 - 1."""
    cmap = CxMap(iteration_map(parse_poly("z^2 - 1"), "halley"))
    worst = 0.0
    for z0 in (1.0, -1.0):
        worst = max(worst, abs(cmap(z0) - z0), abs(cmap.derivative_at(z0)))
    return worst < 1e-10, "Halley residual/derivative max %.2e" % worst


def check_phi_fixed_points(a5):
    """The Klein map fixes the roots of v5."""
    v5 = a5.vertex_form.poly
    cmap = CxMap(phi_operator(v5, -12))
    worst = max(abs(cmap(r) - r) for r in poly_roots(v5, tol=1e-10))
    return worst < 1e-9, "phi fixes v5 roots, max residual %.2e" % worst


# -- qseries: q-expansions and hauptmoduln -------------------------------

def check_ramanujan():
    ok = all(r.is_zero for r in qs.ramanujan_check(60))
    return ok, "Ramanujan identities exact to order 60"


def check_j_relation(n, order=10):
    res = qs.verify_j_relation(n, order)
    return res.is_zero, "j-relation level %d residual %r" % (n, res)


def check_rogers_ramanujan():
    return (qs.rr_equals_j5(6).is_zero,
            "Rogers-Ramanujan fraction matches j5 to order 6")


def check_heins_at_i():
    value = qs.heins_value(1j)
    return abs(value + 1j) < 1e-8, "heins_value(i) = %r" % (value,)


# -- ncalg: golden values of the S_n hierarchy ----------------------------

def check_s_poly_golden():
    s1 = s_poly(1).canonical_text()
    s2 = s_poly(2).canonical_text()
    ok = s1 == "p2 + 3 p1^2" and s2 == "p3 + 4 p2 p1 + 4 p1 p2 + 12 p1^3"
    return ok, "S1=%s; S2=%s" % (s1, s2)


def check_s3_p2sq():
    c = s_poly(3).coefficient((2, 2))
    return c == 8, ("S3 p2^2 coefficient is %r "
                    "(recursion and scalar oracle give 8)" % (c,))


def check_homogeneity():
    ok = all(s_poly(n).weight() == n + 1 for n in range(1, 6))
    return ok, "S_n homogeneous of weight n+1 for n=1..5"


def suite_checks(name, configs, seed=0, order=10, count=None):
    """Yield the (check id, thunk) pairs of a suite in `SUITES`, in run
    order; 'all' runs every suite.  configs(group name) returns the
    GroupConfig; a thunk returns (ok, detail).  The seeded draws of the
    identities (count, default 20) and ncalg (count, default 6) suites
    happen as the pairs are yielded."""
    if name in ("identities", "all"):
        rng = random.Random(seed)
        for i in range(count or 20):
            x = identity_inputs(rng, 5)
            for check_id, check in IDENTITY_CHECKS:
                yield "identities.%02d.%s" % (i, check_id), partial(check, x)
    if name in ("klein", "all"):
        yield "klein.phi_v5", lambda: check_klein_map(configs("A5"))
        yield "klein.vector_field", lambda: check_vector_field(configs("A5"))
        for group in GROUP_NAMES:
            for check_id, check in (("syzygy", check_syzygy),
                                    ("equivariance", check_phi_equivariance),
                                    ("bracket", check_brackets)):
                yield ("klein.%s.%s" % (check_id, group),
                       lambda check=check, group=group: check(configs(group)))
    if name in ("dynamics", "all"):
        yield "dynamics.klein_2cycles", lambda: check_klein_cycles(
            configs("A5"))
        yield "dynamics.halley_superattracting", check_halley_superattracting
        yield "dynamics.phi_fixed_points", lambda: check_phi_fixed_points(
            configs("A5"))
    if name in ("qseries", "all"):
        yield "qseries.ramanujan", check_ramanujan
        for n in (2, 3, 4, 5):
            yield "qseries.j_relation.%d" % n, partial(check_j_relation, n,
                                                       order)
        yield "qseries.rogers_ramanujan", check_rogers_ramanujan
        yield "qseries.heins_at_i", check_heins_at_i
    if name in ("ncalg", "all"):
        yield "ncalg.s_poly_golden", check_s_poly_golden
        yield "ncalg.s3_p2sq", check_s3_p2sq
        yield "ncalg.homogeneity", check_homogeneity
        rng = random.Random(seed)
        for i in range(count or 6):
            t, f = ncalg_inputs(rng, partial(rng.randint, 2, 3))
            # T f once per draw, built by the first check to run; an error fails each check
            tf = cache(partial(gen_moebius_apply, t, f))
            for check_id, check in NCALG_CHECKS:
                yield "ncalg.%02d.%s" % (i, check_id), \
                    lambda check=check, t=t, f=f, tf=tf: check(t, f, tf())
