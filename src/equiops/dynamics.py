"""Floating-point complex dynamics for rational maps.

Compiles exact rational functions into double-precision maps, builds
Newton/Halley iteration maps, extracts polynomial roots by simultaneous
iteration, and classifies fixed points and cycles by their multipliers.
"""

import cmath
import math
import random

from .ratfn import RatFn, _as_ratfn

SUPERATTRACTING_TOL = 1e-6
REPELLING_TOL = 1e-6

ROOT_ITERATION_CAP = 200
ROOT_SEED = 0x5EED


class NonConvergenceError(RuntimeError):
    """Root finding did not reach the requested tolerance.

    Carries the best roots found so far in ``partial``.
    """

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


def _complex_coeffs(p):
    return [complex(c) for c in p.coeffs]


def _horner(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _horner_deriv(coeffs, z):
    acc = 0j
    for k in range(len(coeffs) - 1, 0, -1):
        acc = acc * z + k * coeffs[k]
    return acc


class CxMap:
    """Double-precision shadow of an exact rational map.

    Evaluation is projective: both value and derivative are computed from
    the homogeneous pair (num, den), so points near poles do not overflow.
    """

    __slots__ = ("num", "den")

    def __init__(self, ratfn):
        ratfn = _as_ratfn(ratfn)
        self.num = _complex_coeffs(ratfn.num)
        self.den = _complex_coeffs(ratfn.den)

    def pair(self, z):
        """Homogeneous value (num(z), den(z))."""
        return _horner(self.num, z), _horner(self.den, z)

    def __call__(self, z):
        n, d = self.pair(z)
        if d == 0:
            return complex("inf")
        return n / d

    def derivative_at(self, z):
        n = _horner(self.num, z)
        d = _horner(self.den, z)
        np = _horner_deriv(self.num, z)
        dp = _horner_deriv(self.den, z)
        if d == 0:
            return complex("inf")
        return (np * d - n * dp) / (d * d)

    def iterate(self, z, count):
        for _ in range(count):
            z = self(z)
        return z

    def cycle_multiplier(self, z, period):
        """Product of derivatives along the orbit of length ``period``."""
        mult = 1 + 0j
        w = z
        for _ in range(period):
            mult *= self.derivative_at(w)
            w = self(w)
        return mult


def iteration_map(f, method):
    """Exact Newton or Halley iteration map of a polynomial or rational f."""
    f = _as_ratfn(f)
    if f.is_constant:
        raise ValueError("iteration map of a constant function")
    z = RatFn.x(f.order)
    fp = f.derivative()
    if method == "newton":
        return z - f / fp
    if method == "halley":
        fpp = fp.derivative()
        return z + (f * fp * 2) / (f * fpp - fp * fp * 2)
    raise ValueError("method must be 'newton' or 'halley'")


def _backward_error(coeffs, z):
    """|P(z)| relative to sum |a_k| |z|^k, the Horner roundoff scale."""
    az = abs(z)
    scale = sum(abs(c) * az ** k for k, c in enumerate(coeffs))
    if scale == 0:
        scale = 1.0
    return abs(_horner(coeffs, z)) / scale


def poly_roots(p, tol=1e-10):
    """All roots of a polynomial by Aberth-Ehrlich simultaneous iteration.

    Deterministic: initial points sit on a perturbed circle scaled by the
    coefficient magnitudes, with a fixed RNG seed.  A root is accepted when
    its relative backward error |P(z)| / sum |a_k||z|^k is below tol.
    Raises NonConvergenceError (with partial results) after the iteration cap.
    """
    p = _as_ratfn(p)
    if p.den.degree != 0:
        raise ValueError("poly_roots needs a polynomial")
    coeffs = _complex_coeffs(p.num)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    n = len(coeffs) - 1
    if n < 1:
        raise ValueError("degree must be at least 1")
    lead = coeffs[-1]
    coeffs = [c / lead for c in coeffs]
    # Fujiwara root bound from coefficient magnitudes.
    radius = 2.0 * max(abs(coeffs[n - 1 - k]) ** (1.0 / (k + 1))
                       for k in range(n))
    if radius == 0:
        radius = 1.0
    rng = random.Random(ROOT_SEED)
    zs = []
    for k in range(n):
        angle = 2 * math.pi * (k + 0.25) / n + 0.1 * rng.random()
        r = radius * (0.5 + 0.1 * rng.random())
        zs.append(r * cmath.exp(1j * angle))
    for _ in range(ROOT_ITERATION_CAP):
        stationary = True
        for k in range(n):
            z = zs[k]
            pv = _horner(coeffs, z)
            dv = _horner_deriv(coeffs, z)
            if dv == 0:
                zs[k] = z + (0.01 + 0.01j)
                stationary = False
                continue
            ratio = pv / dv
            repulse = sum(1 / (z - zs[j]) for j in range(n)
                          if j != k and z != zs[j])
            denom = 1 - ratio * repulse
            if denom == 0:
                zs[k] = z + (0.01 + 0.01j)
                stationary = False
                continue
            step = ratio / denom
            zs[k] = z - step
            if abs(step) > 1e-14 * (1.0 + abs(z)):
                stationary = False
        if stationary:
            break
    if all(_backward_error(coeffs, z) <= tol for z in zs):
        return zs
    raise NonConvergenceError(
        "root finder did not reach tolerance %g within %d iterations"
        % (tol, ROOT_ITERATION_CAP), zs)


def classify_multiplier(mult):
    m = abs(mult)
    if m < SUPERATTRACTING_TOL:
        return "superattracting"
    if m < 1 - REPELLING_TOL:
        return "attracting"
    if m > 1 + REPELLING_TOL:
        return "repelling"
    return "indifferent"


class CycleRecord:
    __slots__ = ("point", "residual", "multiplier", "classification")

    def __init__(self, point, residual, multiplier, classification):
        self.point = point
        self.residual = residual
        self.multiplier = multiplier
        self.classification = classification

    def line(self):
        return "point=%.12g%+.12gj residual=%.3e multiplier=%.3e class=%s" % (
            self.point.real, self.point.imag, self.residual,
            abs(self.multiplier), self.classification)


class CycleReport:
    __slots__ = ("records", "period", "tol", "passed")

    def __init__(self, records, period, tol):
        self.records = records
        self.period = period
        self.tol = tol
        self.passed = all(r.residual < tol for r in records)

    def text(self):
        lines = ["cycle report: period=%d tol=%.3e %s" % (
            self.period, self.tol, "PASS" if self.passed else "FAIL")]
        lines.extend(r.line() for r in self.records)
        return "\n".join(lines)

    def __str__(self):
        return self.text()


def cycle_report(r, points, period, tol=1e-9):
    """Residual, multiplier and class of each point as a period-``period`` cycle."""
    if period < 1:
        raise ValueError("period must be at least 1")
    cmap = r if isinstance(r, CxMap) else CxMap(r)
    records = []
    for z in points:
        w = cmap.iterate(z, period)
        if not (abs(w) < float("inf")):
            raise ValueError("orbit of %r passes through a pole" % (z,))
        residual = abs(w - z)
        mult = cmap.cycle_multiplier(z, period)
        records.append(CycleRecord(z, residual, mult, classify_multiplier(mult)))
    return CycleReport(records, period, tol)
