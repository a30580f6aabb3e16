"""Verification suites and machine-readable reports.

A Report is a JSON-serializable record of a named suite run: one record per
check (id, status, detail, wall time), plus toolkit version, the hash of the
shipped group configs, and the RNG seed, so runs are replayable bit-for-bit.
"""

import hashlib
import json
import os
import random
import time

from . import __version__ as VERSION
from . import configs as _configs_pkg
from .ratfn import RatFn

ENV_CONFIG_DIR = "EQUIOPS_CONFIG_DIR"

GROUP_NAMES = ("A4", "S4", "A5")

SUITES = ("identities", "klein", "dynamics", "qseries", "ncalg", "all")


def config_dir(override=None):
    """Directory holding the group configs: flag > env var > packaged."""
    if override:
        return override
    env = os.environ.get(ENV_CONFIG_DIR)
    if env:
        return env
    return os.path.dirname(_configs_pkg.__file__)


def config_path(name, override=None):
    return os.path.join(config_dir(override), name + ".config")


def config_hash(override=None):
    digest = hashlib.sha256()
    for name in GROUP_NAMES:
        path = config_path(name, override)
        with open(path, "rb") as handle:
            digest.update(name.encode())
            digest.update(handle.read())
    return digest.hexdigest()


class CheckRecord:
    __slots__ = ("check_id", "status", "detail", "seconds")

    def __init__(self, check_id, status, detail, seconds):
        self.check_id = check_id
        self.status = status
        self.detail = detail
        self.seconds = seconds

    def to_dict(self):
        return {"id": self.check_id,
                "status": "pass" if self.status else "fail",
                "detail": self.detail,
                "seconds": round(self.seconds, 4)}


class Report:
    __slots__ = ("suite", "checks", "version", "confighash", "seed")

    def __init__(self, suite, checks, confighash, seed):
        self.suite = suite
        self.checks = sorted(checks, key=lambda c: c.check_id)
        self.version = VERSION
        self.confighash = confighash
        self.seed = seed

    @property
    def passed(self):
        return all(c.status for c in self.checks)

    def to_dict(self):
        return {"suite": self.suite,
                "status": "pass" if self.passed else "fail",
                "version": self.version,
                "config_hash": self.confighash,
                "seed": self.seed,
                "checks": [c.to_dict() for c in self.checks]}

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def emit_report(report, path):
    if not report.suite:
        raise ValueError("empty suite name")
    with open(path, "w") as handle:
        handle.write(report.to_json())
        handle.write("\n")
    return path


class _Collector:
    def __init__(self):
        self.records = []

    def run(self, check_id, func):
        start = time.perf_counter()
        try:
            ok, detail = func()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, "error: %r" % (exc,)
        self.records.append(
            CheckRecord(check_id, bool(ok), str(detail),
                        time.perf_counter() - start))


def _load_config(name, cfg_dir=None):
    from .moebius import load_group_config
    return load_group_config(config_path(name, cfg_dir))


def _suite_identities(collector, seed, count=20):
    from . import properties as pr
    rng = random.Random(seed)
    for i in range(count):
        x = pr.identity_inputs(rng, 5)
        for check_id, check in pr.IDENTITY_CHECKS:
            collector.run("identities.%02d.%s" % (i, check_id),
                          lambda check=check, x=x: check(x))


def _suite_klein(collector, cfg_dir=None):
    from itertools import combinations_with_replacement

    from .moebius import equivariance_check
    from .operators import klein_vector_field, phi_operator
    from .parsing import parse_ratfn
    from .properties import check_bracket_closure

    cfg = _load_config("A5", cfg_dir)
    v5 = cfg.vertex_form.poly

    def klein_formula():
        k = phi_operator(v5, -12)
        target = parse_ratfn(
            "(z^11 + 66*z^6 - 11*z)/(-11*z^10 - 66*z^5 + 1)")
        return k == target, "phi(v5, -12) equals the icosahedral map"
    collector.run("klein.phi_v5", klein_formula)

    def field_match():
        k = phi_operator(v5, -12)
        return (klein_vector_field(v5, 12) == k,
                "vector-field construction matches the phi-operator")
    collector.run("klein.vector_field", field_match)

    for name in GROUP_NAMES:
        cfg = _load_config(name, cfg_dir)

        def syzygy(cfg=cfg):
            n = {"A4": 3, "S4": 4, "A5": 5}[cfg.name]
            e = cfg.form("e%d" % n).poly
            fface = cfg.form("f%d" % n).poly
            v = cfg.vertex_form.poly
            lhs = e * e - fface * fface * fface
            const = {
                "A4": "16*(zeta^15+zeta^105)", "S4": "-108", "A5": "1728"}
            from .parsing import parse_cyclo
            rhs = (v ** n).scale(parse_cyclo(const[cfg.name]))
            return lhs == rhs, "syzygy e^2 - f^3 = c v^n for %s" % cfg.name
        collector.run("klein.syzygy.%s" % name, syzygy)

        def equivariant(cfg=cfg):
            for form in cfg.forms:
                op = phi_operator(
                    RatFn(form.poly), form.weight)
                ok, witness = equivariance_check(
                    op, list(zip(cfg.generators, cfg.rho_generators)))
                if not ok:
                    return False, "phi(%s) fails: %s" % (form.name, witness)
            return True, "phi of every invariant is equivariant"
        collector.run("klein.equivariance.%s" % name, equivariant)

        def brackets(cfg=cfg):
            pairs = list(combinations_with_replacement(
                [form.name for form in cfg.forms], 2))
            for a, b in pairs:
                for n in (1, 2):
                    ok, detail = check_bracket_closure(cfg, a, b, n)
                    if not ok:
                        return False, detail
            return True, ("Rankin-Cohen brackets [a,b]_n of %d form pairs, "
                          "n = 1, 2, are forms" % len(pairs))
        collector.run("klein.bracket.%s" % name, brackets)


def _suite_dynamics(collector, cfg_dir=None):
    from .dynamics import CxMap, cycle_report, iteration_map, poly_roots
    from .operators import klein_vector_field
    from .parsing import parse_poly

    cfg = _load_config("A5", cfg_dir)
    v5 = cfg.vertex_form.poly
    kmap = klein_vector_field(v5, 12)
    f5 = cfg.form("f5").poly

    def superattracting():
        roots = poly_roots(f5, tol=1e-10)
        rep = cycle_report(kmap, roots, 2, tol=1e-9)
        worst_mult = max(abs(r.multiplier) for r in rep.records)
        ok = rep.passed and worst_mult < 1e-7
        return ok, "20 roots of f5: residual<1e-9=%s, multiplier max %.2e" % (
            rep.passed, worst_mult)
    collector.run("dynamics.klein_2cycles", superattracting)

    def halley_super():
        h = iteration_map(parse_poly("z^2 - 1"), "halley")
        cmap = CxMap(h)
        worst = 0.0
        for z0 in (1.0, -1.0):
            worst = max(worst, abs(cmap(z0) - z0), abs(cmap.derivative_at(z0)))
        return worst < 1e-10, "Halley residual/derivative max %.2e" % worst
    collector.run("dynamics.halley_superattracting", halley_super)

    def phi_fixed():
        from .operators import phi_operator
        cmap = CxMap(phi_operator(v5, -12))
        roots = poly_roots(v5, tol=1e-10)
        worst = max(abs(cmap(r) - r) for r in roots)
        return worst < 1e-9, "phi fixes v5 roots, max residual %.2e" % worst
    collector.run("dynamics.phi_fixed_points", phi_fixed)


def _suite_qseries(collector, order=10):
    from . import qseries as qs

    def ramanujan():
        residuals = qs.ramanujan_check(60)
        ok = all(r.is_zero for r in residuals)
        return ok, "Ramanujan identities exact to order 60"
    collector.run("qseries.ramanujan", ramanujan)

    for n in (2, 3, 4, 5):
        def jrel(n=n):
            res = qs.verify_j_relation(n, order)
            return res.is_zero, "j-relation level %d residual %r" % (n, res)
        collector.run("qseries.j_relation.%d" % n, jrel)

    def rr():
        res = qs.rr_equals_j5(6)
        return res, "Rogers-Ramanujan fraction matches j5 to order 6"
    collector.run("qseries.rogers_ramanujan", rr)

    def heins():
        value = qs.heins_value(1j)
        return abs(value + 1j) < 1e-8, "heins_value(i) = %r" % (value,)
    collector.run("qseries.heins_at_i", heins)


def _suite_ncalg(collector, seed, count=6):
    from . import ncalg as nc
    from . import properties as pr

    def golden():
        s1 = nc.s_poly(1).canonical_text()
        s2 = nc.s_poly(2).canonical_text()
        ok = (s1 == "p2 + 3 p1^2" and
              s2 == "p3 + 4 p2 p1 + 4 p1 p2 + 12 p1^3")
        return ok, "S1=%s; S2=%s" % (s1, s2)
    collector.run("ncalg.s_poly_golden", golden)

    def s3_coeff():
        c = nc.s_poly(3).coefficient((2, 2))
        return c == 8, ("S3 p2^2 coefficient is %r "
                        "(recursion and scalar oracle give 8)" % (c,))
    collector.run("ncalg.s3_p2sq", s3_coeff)

    def homogeneous():
        ok = all(nc.s_poly(n).weight() == n + 1 for n in range(1, 6))
        return ok, "S_n homogeneous of weight n+1 for n=1..5"
    collector.run("ncalg.homogeneity", homogeneous)

    rng = random.Random(seed)
    for i in range(count):
        t, f = pr.ncalg_inputs(rng, lambda: rng.randint(2, 3))
        for check_id, check in pr.NCALG_CHECKS:
            collector.run("ncalg.%02d.%s" % (i, check_id),
                          lambda check=check, t=t, f=f: check(t, f))


def run_suite(name, seed=0, order=10, count=None, cfg_dir=None):
    """Execute one named suite (or 'all') and return a Report."""
    if name not in SUITES:
        raise ValueError("unknown suite %r (choose from %s)"
                         % (name, ", ".join(SUITES)))
    collector = _Collector()
    if name in ("identities", "all"):
        _suite_identities(collector, seed, count or 20)
    if name in ("klein", "all"):
        _suite_klein(collector, cfg_dir)
    if name in ("dynamics", "all"):
        _suite_dynamics(collector, cfg_dir)
    if name in ("qseries", "all"):
        _suite_qseries(collector, order)
    if name in ("ncalg", "all"):
        _suite_ncalg(collector, seed, count or 6)
    return Report(name, collector.records, config_hash(cfg_dir), seed)
