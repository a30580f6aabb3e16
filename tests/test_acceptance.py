"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Each test prints `criterion N: PASS|FAIL (elapsed / budget) label` and
asserts both the mathematical check and its runtime budget.
"""

import random
import time

from equiops.cyclotomic import rational
from equiops.dynamics import CxMap, iteration_map
from equiops.moebius import equivariance_check
from equiops.operators import (d_operator, period_residues, phi_biweight,
                               phi_operator)
from equiops.parsing import parse_poly
from equiops.poly import Poly
from equiops.ratfn import RatFn
from equiops.report import load_config
from equiops import ncalg as nc
from equiops import properties as pr
from equiops import qseries as qs
from equiops.lift import legendrian_lift_series

SEED = 20260826


def _verdict(num, ok, elapsed, budget, label):
    print("criterion %d: %s (%.2fs / budget %ds) %s" % (
        num, "PASS" if ok else "FAIL", elapsed, budget, label))
    assert ok, "criterion %d failed: %s" % (num, label)
    assert elapsed < budget, "criterion %d over budget: %.2fs >= %ds" % (
        num, elapsed, budget)


def test_criterion_1_klein_reproduction():
    start = time.perf_counter()
    ok, _ = pr.check_klein_map(load_config("A5"))
    _verdict(1, ok, time.perf_counter() - start, 1,
             "phi(v5, -12) equals the degree-11 icosahedral map exactly")


def test_criterion_2_syzygies():
    start = time.perf_counter()
    ok = all(pr.check_syzygy(load_config(name))[0]
             for name in pr.GROUP_NAMES)
    _verdict(2, ok, time.perf_counter() - start, 5,
             "e^2 - f^3 = c v^n exactly for A4, S4, A5")


def test_criterion_3_equivariance_suite():
    start = time.perf_counter()
    rng = random.Random(SEED)
    ok = True
    for name in pr.GROUP_NAMES:
        cfg = load_config(name)
        pairs = list(zip(cfg.generators, cfg.rho_generators))
        good, _ = pr.check_phi_equivariance(cfg)
        ok = ok and good
        for form in cfg.forms:
            alpha = RatFn(form.poly, Poly.one(cfg.order))
            op = phi_biweight(alpha, Poly.zero(cfg.order), form.weight)
            good, _ = equivariance_check(op, pairs)
            ok = ok and good
        # random invariant combinations: products of the shipped forms
        # (weights add; polynomial degree may be lower when a form
        # vanishes at infinity, so the configured weights are used)
        forms = list(cfg.forms)
        combos = 0
        while combos < 10:
            exps = [rng.randint(0, 2) for _ in forms]
            if sum(exps) == 0:
                continue
            prod = Poly.one(cfg.order)
            weight = 0
            for form, a in zip(forms, exps):
                for _ in range(a):
                    prod = prod * form.poly
                    weight += form.weight
            if weight < -48:
                continue
            op = phi_operator(RatFn(prod, Poly.one(cfg.order)), weight)
            good, _ = equivariance_check(op, pairs)
            ok = ok and good
            combos += 1
    _verdict(3, ok, time.perf_counter() - start, 60,
             "phi of every invariant and of 30 random invariant products "
             "is exactly equivariant on all generators")


def test_criterion_4_operator_identity_suite():
    start = time.perf_counter()
    rng = random.Random(SEED + 4)
    ok = True
    for _ in range(100):
        x = pr.identity_inputs(rng, rng.randint(2, 6))
        for _, check in pr.IDENTITY_CHECKS:
            good, _ = check(x)
            ok = ok and good
    _verdict(4, ok, time.perf_counter() - start, 120,
             "duality, cocycle, equivariance, D*D, inversion, ramification "
             "and critical identities exact on 100 seeded rational maps")


def test_criterion_5_dynamics():
    start = time.perf_counter()
    ok = pr.check_klein_cycles(load_config("A5"))[0]
    ok = ok and pr.check_halley_superattracting()[0]
    hmap = CxMap(iteration_map(parse_poly("z^2 - 1"), "halley"))
    for z0 in (1.0, -1.0):
        step = 1e-5
        second = (hmap(z0 + step) - 2 * hmap(z0) + hmap(z0 - step)) / step**2
        ok = ok and abs(second) < 1e-3  # finite-difference H'' estimate
    _verdict(5, ok, time.perf_counter() - start, 10,
             "20 superattracting 2-cycles of the icosahedral map and "
             "superattracting Halley fixed points at +-1")


def test_criterion_6_qseries():
    start = time.perf_counter()
    ok = pr.check_ramanujan()[0]
    for n in (2, 3, 4, 5):
        ok = ok and pr.check_j_relation(n, 10)[0]
    ok = ok and pr.check_rogers_ramanujan()[0]
    _verdict(6, ok, time.perf_counter() - start, 120,
             "Ramanujan identities to order 60, j-relations for n=2..5 to "
             "order 10 (level-3 additive constant corrected to -sqrt2/2 and "
             "level-4 product exponents doubled, both found by solving the "
             "leading coefficients), Rogers-Ramanujan matches j5 to order 6")


def test_criterion_7_heins():
    start = time.perf_counter()
    ok = pr.check_heins_at_i()[0]
    points = (1.3j, 0.4 + 1.1j, -0.2 + 0.8j, 0.15 + 0.9j, 2j)
    for tau in points:
        h = qs.heins_value(tau)
        ok = ok and abs(qs.heins_value(tau + 1) - (h + 1)) < 1e-6
        ok = ok and abs(qs.heins_value(-1 / tau) - (-1 / h)) < 1e-6
    _verdict(7, ok, time.perf_counter() - start, 5,
             "heins_value(i) = -i and S/T equivariance at 5 sample points")


def test_criterion_8_ncalg():
    start = time.perf_counter()
    ok = pr.check_s_poly_golden()[0]
    # S3 printed elsewhere with p2^2 coefficient 6; the recursion and the
    # independent scalar-differentiation oracle both give 8.
    ok = ok and pr.check_s3_p2sq()[0]

    rng = random.Random(SEED + 8)

    # the hierarchy images coincide with the phi-deformations: checking
    # Phi(S1)/Phi(S2) equivariance below then covers both images
    f0 = pr.random_matfn(rng, lambda: 2)
    op0 = nc.theorem2_substitute(nc.NCExpr.var(0))
    op1 = nc.theorem2_substitute(nc.NCExpr.var(1))
    ok = ok and op0.apply(f0) == nc.nc_phi_deform(f0, nc.s_poly(1))
    ok = ok and op1.apply(f0) == nc.nc_phi_deform(f0, nc.s_poly(2))
    for _ in range(20):
        t, f = pr.ncalg_inputs(rng, lambda: 2)
        tf = nc.gen_moebius_apply(t, f)  # shared by the five checks
        ok = ok and all(check(t, f, tf)[0] for _, check in pr.NCALG_CHECKS)
    _verdict(8, ok, time.perf_counter() - start, 120,
             "S1/S2 verbatim, S3 phi2^2 coefficient 8 (reported), and exact "
             "equivariance of D, S1, Phi(S1), the deformation family and "
             "both hierarchy images at 20 seeded 2x2 (T, f)")


def test_criterion_9_legendrian_lift():
    start = time.perf_counter()
    rng = random.Random(SEED + 9)
    ok = True
    done = 0
    while done < 10:
        f = pr.random_ratfn(rng, 4)
        fhat = d_operator(f)
        if fhat.degenerate:
            continue
        p = rational(rng.randint(2, 9))
        try:
            lift = legendrian_lift_series(f, p=p, n=8)
        except ValueError:  # p not regular for this sample
            continue
        for residual in lift.contact_residuals():
            ok = ok and all(c.is_zero for c in residual)
        pi2 = lift.pi2_series()
        target = list(fhat.taylor(p, 8))[:len(pi2)]
        ok = ok and pi2[:len(target)] == target
        done += 1
    _verdict(9, ok, time.perf_counter() - start, 30,
             "contact condition and pi2 = Df to order 8 at 10 seeded maps")


def test_criterion_10_period_residues():
    start = time.perf_counter()
    rng = random.Random(SEED + 10)
    ok = True
    done = 0
    while done < 20:
        f = pr.random_ratfn(rng, 4)
        fhat = d_operator(f)
        if fhat.degenerate:
            continue
        for _, value in period_residues(f, fhat):
            ok = ok and value.is_rational
            ok = ok and value.as_fraction().denominator == 1
        done += 1
    _verdict(10, ok, time.perf_counter() - start, 30,
             "all period values are exact integers at 20 seeded maps")
