"""Seeded inputs and item bodies for the four benchmark workloads.

Every workload has a fixed pool of items.  Entry ``<kind>:<i>`` of a
workload's pool is built from ``random.Random("<workload>:<kind>:<i>")``
alone, so its inputs, and therefore the digest of its outputs, never
change; the digests are recorded in ``golden.json``.  The run seed fixes
the order in which the pool's entries run (see ``pool``).  Every run thus
does the same work, which keeps the end-to-end numbers steady on a noisy
machine, while each entry's inputs still come from a seeded generator.

An item is one input together with all of its checks.  ``run_item`` returns
the named check verdicts and the computed outputs whose canonical text is
digested.  Library calls happen only inside ``run_item``; ``build_inputs``
runs before timing starts.
"""

import hashlib
import random

from equiops import ncalg as nc
from equiops import properties as pr
from equiops import qseries as qs
from equiops.cyclotomic import imag_unit, rational, sqrt5, zeta
from equiops.dynamics import (NonConvergenceError, cycle_report,
                              iteration_map, poly_roots)
from equiops.lift import legendrian_lift_series
from equiops.moebius import Moebius, equivariance_check
from equiops.operators import (d_operator, klein_vector_field,
                               period_residues, phi_operator, schwarzian)
from equiops.poly import Poly
from equiops.ratfn import RatFn

# workload -> {item kind: number of pool entries}.  identities, field and
# series have an odd number of entries, so that the median item time falls
# on the copies of one entry rather than between two entries of different
# cost.
POOL = {
    "identities": {"rational": 13},
    "field": {"sqrt5": 3, "imag": 3, "sqrt5_ratfn": 1, "zeta_mix": 2,
              "phi_equivariance": 4},
    "ncalg": {"triangular": 8},
    "series": {"ramanujan": 1, "j_relation": 4, "rogers_ramanujan": 1,
               "lift_periods": 10, "newton_cycles": 8, "klein_cycles": 1},
}

# (check name, properties function): looked up at call time, so that the
# traced run sees the wrapped function.
IDENTITY_CHECKS = (
    ("P1.duality", "check_duality"),
    ("P2.cocycle", "check_cocycle"),
    ("P3.equivariance", "check_equivariance"),
    ("P4.dd", "check_dd_identity"),
    ("P5.inversion", "check_inversion"),
    ("P6.ramification", "check_ramification"),
    ("P7.critical", "check_critical_identity"),
)


def catalogue(workload):
    """The pool entries of a workload as "<kind>:<index>" keys."""
    return ["%s:%d" % (kind, i)
            for kind, count in POOL[workload].items() for i in range(count)]


def pool(workload, seed):
    """The pool in the seeded order of one run."""
    keys = catalogue(workload)
    random.Random("%s:order:%d" % (workload, seed)).shuffle(keys)
    return keys


# -- input generators --------------------------------------------------


def _rng(workload, kind, index):
    return random.Random("%s:%s:%d" % (workload, kind, index))


def _field_coeff(rng, gen):
    """a + b*gen with small integers a and b != 0."""
    return rational(rng.randint(-3, 3)) + gen * rational(
        rng.choice((-2, -1, 1, 2)))


def _field_poly(rng, degree, gen):
    """Polynomial of exact degree whose every coefficient is irrational."""
    return Poly([_field_coeff(rng, gen) for _ in range(degree + 1)])


def _nondegenerate(f):
    """The filter of properties.random_ratfn, plus a non-degenerate dual."""
    if f.is_constant or f.is_infinity:
        return False
    fd = f.derivative()
    if fd.is_zero or fd.derivative().is_zero or schwarzian(f).is_zero:
        return False
    return not d_operator(f).degenerate


def _field_map(rng, num_degree, den_degree, gen):
    while True:
        num = _field_poly(rng, num_degree, gen)
        den = (_field_poly(rng, den_degree, gen) if den_degree
               else Poly.one())
        f = RatFn(num, den)
        if _nondegenerate(f):
            return f


def _field_moebius(rng, gen):
    while True:
        try:
            return Moebius(*(_field_coeff(rng, gen) for _ in range(4)))
        except ValueError:
            continue


def _rational_map(rng, max_degree):
    while True:
        f = pr.random_ratfn(rng, max_degree)
        if not d_operator(f).degenerate:
            return f


def _identity_inputs(rng):
    """The input shape of acceptance criterion 4: rational data."""
    f = _rational_map(rng, rng.randint(2, 6))
    w = pr.random_ratfn(rng, 3)
    m = pr.random_moebius(rng)
    h = RatFn(pr.random_poly(rng, 2), pr.random_poly(rng, 1))
    alpha = pr.random_poly(rng, 4)
    k = rng.choice([-4, -6, -12, 3, 5])
    return {"f": f, "w": w, "m": m, "h": h, "alpha": alpha, "k": k}


def _field_inputs(rng, gen, num_degree, den_degree):
    """Every coefficient of every input lies in Q(gen) minus Q."""
    f = _field_map(rng, num_degree, den_degree, gen)
    w = _field_map(rng, 2, 0, gen)
    m = _field_moebius(rng, gen)
    h = RatFn(_field_poly(rng, 1, gen), _field_poly(rng, 1, gen))
    alpha = _field_poly(rng, 2, gen)
    k = rng.choice([-4, -6, 3])
    return {"f": f, "w": w, "m": m, "h": h, "alpha": alpha, "k": k}


def _zeta_mix_inputs(rng):
    """A quadratic map with one coefficient a + b*zeta^k (k = 1 or 2),
    everything else rational and w of degree at most 2.

    This is the mixed shape that completes.  A degree-(2, 2) w, or zeta^k
    spread over w, m and h as well, stalls the cocycle check (NOTES.md).
    """
    gen = zeta(120, rng.choice((1, 2)))
    while True:
        coeffs = [rational(rng.randint(-3, 3)) for _ in range(3)]
        coeffs[2] = rational(rng.choice((1, 2, 3, -1, -2, -3)))
        slot = rng.randrange(3)
        coeffs[slot] = _field_coeff(rng, gen)
        f = RatFn(Poly(coeffs))
        if _nondegenerate(f):
            break
    w = pr.random_ratfn(rng, 2)
    m = pr.random_moebius(rng)
    h = RatFn(pr.random_poly(rng, 2), pr.random_poly(rng, 1))
    alpha = Poly([rational(rng.randint(-3, 3)), _field_coeff(rng, gen),
                  rational(rng.choice((1, 2, 3)))])
    k = rng.choice([-4, -6, 3])
    return {"f": f, "w": w, "m": m, "h": h, "alpha": alpha, "k": k}


def _invariant_product(rng, cfg):
    """A seeded product of the configured invariants with its weight
    (the random combinations of acceptance criterion 3)."""
    while True:
        exps = [rng.randint(0, 2) for _ in cfg.forms]
        if sum(exps) == 0:
            continue
        weight = sum(a * form.weight for a, form in zip(exps, cfg.forms))
        if weight >= -48:
            return exps, weight


def _triangular_pair(rng):
    """Upper-triangular 2x2 (T, f): T blocks with entries in [-2, 2],
    f with quadratic diagonal and off-diagonal entry of degree 0..2."""
    zero = rational(0)
    while True:
        blocks = [[[rational(rng.randint(-2, 2)), rational(rng.randint(-2, 2))],
                   [zero, rational(rng.randint(-2, 2))]] for _ in range(4)]
        try:
            t = nc.GenMoebius(*blocks)
            break
        except ValueError:
            continue
    while True:
        f = nc.MatFn([[pr.random_poly(rng, 2),
                       pr.random_poly(rng, rng.randint(0, 2))],
                      [Poly.zero(), pr.random_poly(rng, 2)]])
        if f.derivative().det().is_zero:
            continue
        if f.derivative().derivative().det().is_zero:
            continue
        return {"t": t, "f": f}


def _lift_inputs(rng):
    """A rational map with a regular expansion point (criteria 9 and 10)."""
    while True:
        f = _rational_map(rng, 4)
        p = rational(rng.randint(2, 9))
        try:
            legendrian_lift_series(f, p=p, n=8)
            d_operator(f).taylor(p, 8)
        except (ValueError, ZeroDivisionError):  # p is not regular here
            continue
        return {"f": f, "p": p}


def _newton_inputs(rng):
    """A squarefree integer polynomial of degree 6..12 whose roots the
    Aberth iteration resolves."""
    while True:
        p = pr.random_poly(rng, rng.randint(6, 12))
        if not p.is_squarefree():
            continue
        try:
            poly_roots(p, tol=1e-10)
        except NonConvergenceError:
            continue
        return {"poly": p}


def build_inputs(workload, kind, index, configs):
    """Inputs of one catalogue entry; ``configs`` maps group name to config."""
    rng = _rng(workload, kind, index)
    if kind == "rational":
        return _identity_inputs(rng)
    if kind == "sqrt5":
        return _field_inputs(rng, sqrt5(), 2, 0)
    if kind == "imag":
        return _field_inputs(rng, imag_unit(), 2, 0)
    if kind == "sqrt5_ratfn":
        return _field_inputs(rng, sqrt5(), 2, 1)
    if kind == "zeta_mix":
        return _zeta_mix_inputs(rng)
    if kind == "phi_equivariance":
        cfg = configs[rng.choice(("A4", "S4", "A5"))]
        exps, weight = _invariant_product(rng, cfg)
        return {"cfg": cfg, "exps": exps, "weight": weight}
    if kind == "triangular":
        return _triangular_pair(rng)
    if kind == "ramanujan":
        return {"order": 60}
    if kind == "j_relation":
        return {"level": index + 2, "order": 10}
    if kind == "rogers_ramanujan":
        return {"order": 6}
    if kind == "lift_periods":
        return _lift_inputs(rng)
    if kind == "newton_cycles":
        return _newton_inputs(rng)
    if kind == "klein_cycles":
        return {"cfg": configs["A5"]}
    raise ValueError("unknown item kind %r" % (kind,))


# -- item bodies -------------------------------------------------------


def _identities_item(x):
    checks = []
    args = {"P1.duality": (x["f"],), "P2.cocycle": (x["f"], x["w"]),
            "P3.equivariance": (x["f"], x["m"]), "P4.dd": (x["f"],),
            "P5.inversion": (x["f"], x["h"]),
            "P6.ramification": (x["f"],),
            "P7.critical": (x["alpha"], x["k"])}
    for name, function in IDENTITY_CHECKS:
        ok, _ = getattr(pr, function)(*args[name])
        checks.append((name, ok))
    outputs = [d_operator(x["f"]), schwarzian(x["f"]),
               phi_operator(x["alpha"], x["k"])]
    return checks, outputs


def _phi_item(x):
    cfg = x["cfg"]
    prod = Poly.one(cfg.order)
    for form, a in zip(cfg.forms, x["exps"]):
        for _ in range(a):
            prod = prod * form.poly
    op = phi_operator(RatFn(prod, Poly.one(cfg.order)), x["weight"])
    ok, _ = equivariance_check(op, list(zip(cfg.generators,
                                            cfg.rho_generators)))
    return [("phi.equivariant", ok)], [cfg.name, op]


def _ncalg_item(x):
    t, f = x["t"], x["f"]
    s1, s2 = nc.s_poly(1), nc.s_poly(2)
    tf = nc.gen_moebius_apply(t, f)
    d_f = nc.nc_d_operator(f)
    ok_d = nc.nc_d_operator(tf) == nc.gen_moebius_apply(t, d_f)
    cfd = nc.MatFn(t.c) * f + nc.MatFn(t.d)
    s1_f = nc.nc_eval(s1, f)
    ok_s1 = nc.nc_eval(s1, tf) == cfd * s1_f * cfd.inverse()
    phi1 = nc.nc_phi_deform(f, s1)
    ok_phi1 = nc.nc_phi_deform(tf, s1) == nc.gen_moebius_apply(t, phi1)
    phi2 = nc.nc_phi_deform(f, s2)
    ok_phi2 = nc.nc_phi_deform(tf, s2) == nc.gen_moebius_apply(t, phi2)
    fam = nc.deform_family(f, 2)
    ok_fam = nc.deform_family(tf, 2) == nc.gen_moebius_apply(t, fam)
    checks = [("D.equivariant", ok_d), ("S1.semi_invariant", ok_s1),
              ("PhiS1.equivariant", ok_phi1), ("PhiS2.equivariant", ok_phi2),
              ("family.equivariant", ok_fam)]
    return checks, [tf, d_f, s1_f, phi1, phi2, fam]


def _series_lines(s):
    return ["trunc %s" % (s.trunc,)] + s.export_lines()


def _ramanujan_item(x):
    residuals = qs.ramanujan_check(x["order"])
    e2 = qs.eisenstein(2, 12)
    checks = [("ramanujan.%d" % i, r.is_zero)
              for i, r in enumerate(residuals, 1)]
    return checks, [_series_lines(r) for r in residuals] + [_series_lines(e2)]


def _j_relation_item(x):
    level = x["level"]
    residual = qs.verify_j_relation(level, x["order"])
    jn = qs.hauptmodul(level, 6)
    return ([("j_relation.%d" % level, residual.is_zero)],
            [_series_lines(residual), _series_lines(jn)])


def _rogers_ramanujan_item(x):
    residual = qs.rr_equals_j5(x["order"])
    rr = qs.rogers_ramanujan(x["order"])
    return ([("rr_equals_j5", residual.is_zero)],
            [_series_lines(residual), _series_lines(rr)])


def _lift_item(x):
    f, p = x["f"], x["p"]
    fhat = d_operator(f)
    lift = legendrian_lift_series(f, p=p, n=8)
    contact = all(c.is_zero for residual in lift.contact_residuals()
                  for c in residual)
    pi2 = lift.pi2_series()
    target = list(fhat.taylor(p, 8))[:len(pi2)]
    periods = period_residues(f, fhat)
    integral = all(v.is_rational and v.as_fraction().denominator == 1
                   for _, v in periods)
    checks = [("lift.contact", contact), ("lift.pi2", pi2[:len(target)] == target),
              ("periods.integral", integral)]
    return checks, [pi2, periods]


def _roots_text(roots):
    return sorted("%.8e%+.8ej" % (z.real + 0.0, z.imag + 0.0) for z in roots)


def _newton_item(x):
    p = x["poly"]
    roots = poly_roots(p, tol=1e-10)
    rep = cycle_report(iteration_map(p, "newton"), roots, 1, tol=1e-9)
    superattracting = all(r.classification == "superattracting"
                          for r in rep.records)
    checks = [("roots.count", len(roots) == p.degree),
              ("newton.fixed", rep.passed),
              ("newton.superattracting", superattracting)]
    return checks, [_roots_text(roots)]


def _klein_item(x):
    cfg = x["cfg"]
    kmap = klein_vector_field(cfg.vertex_form.poly, 12)
    roots = poly_roots(cfg.form("f5").poly, tol=1e-10)
    rep = cycle_report(kmap, roots, 2, tol=1e-9)
    worst = max(abs(r.multiplier) for r in rep.records)
    checks = [("klein.roots", len(roots) == 20), ("klein.cycles", rep.passed),
              ("klein.superattracting", worst < 1e-7)]
    return checks, [kmap, _roots_text(roots)]


ITEM_BODIES = {
    "rational": _identities_item, "sqrt5": _identities_item,
    "imag": _identities_item, "sqrt5_ratfn": _identities_item,
    "zeta_mix": _identities_item, "phi_equivariance": _phi_item,
    "triangular": _ncalg_item, "ramanujan": _ramanujan_item,
    "j_relation": _j_relation_item, "rogers_ramanujan": _rogers_ramanujan_item,
    "lift_periods": _lift_item, "newton_cycles": _newton_item,
    "klein_cycles": _klein_item,
}


def run_item(kind, inputs):
    """Run one item; returns ([(check name, ok)], outputs)."""
    return ITEM_BODIES[kind](inputs)


def digest(outputs):
    """sha256 of the canonical text of the outputs.

    Library values print through their canonical ``repr``; nested lists
    and tuples are walked; floats were formatted by the item body.
    """
    h = hashlib.sha256()

    def feed(value):
        if isinstance(value, (list, tuple)):
            h.update(b"[")
            for v in value:
                feed(v)
                h.update(b",")
            h.update(b"]")
        elif isinstance(value, str):
            h.update(value.encode())
        else:
            h.update(repr(value).encode())
        h.update(b"\n")

    feed(outputs)
    return h.hexdigest()


# -- golden values -------------------------------------------------------


def golden_checks(configs):
    """Values printed in the paper and the acceptance gate, checked exactly."""
    from equiops.parsing import parse_ratfn
    klein = parse_ratfn("(z^11 + 66*z^6 - 11*z)/(-11*z^10 - 66*z^5 + 1)")
    j = qs.j_series(3)
    return [
        ("golden.klein_map",
         phi_operator(configs["A5"].vertex_form.poly, -12) == klein),
        ("golden.S1", nc.s_poly(1).canonical_text() == "p2 + 3 p1^2"),
        ("golden.S2", nc.s_poly(2).canonical_text()
         == "p3 + 4 p2 p1 + 4 p1 p2 + 12 p1^3"),
        ("golden.S3_p2sq", nc.s_poly(3).coefficient((2, 2)) == 8),
        ("golden.j_744", j.coefficient(0) == 744),
        ("golden.j_196884", j.coefficient(1) == 196884),
        ("golden.j_pole", j.coefficient(-1) == 1),
    ]

