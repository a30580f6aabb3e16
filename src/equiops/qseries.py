"""Truncated q-expansions with exact cyclotomic coefficients.

Exponents live in (1/M)Z for a per-series denominator M; arithmetic tracks
the truncation order pessimistically so a vanishing residual is a proof up
to the reported order.  The coefficient map is a sparse series in the
integer numerators, so products and reciprocals run on the truncated
product and division of `equiops.series` with no conversion.  Named series
cover the eta function and its rescalings, Eisenstein series, the modular
j function and the level 2..5 hauptmoduln, and the Rogers-Ramanujan
continued fraction.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction

from . import series
from .cyclotomic import DEFAULT_ORDER, Cyclo, rational, sqrt2
from .parsing import cyclo_literal

_INF = Fraction(10**9)


class QSeries:
    """Finite q-expansion: coefficient map plus truncation order.

    coeffs maps integer numerators k to Cyclo values, the term being
    coeff * q^(k/M); exponents >= trunc are unknown.
    """

    __slots__ = ("M", "coeffs", "trunc", "order")

    def __init__(self, M, coeffs, trunc, order=DEFAULT_ORDER):
        self.M = M
        self.order = order
        self.trunc = Fraction(trunc)
        limit = math.ceil(self.trunc * M)  # k / M < trunc for ints k < limit
        self.coeffs = {k: c for k, c in coeffs.items() if k < limit and not c.is_zero}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(trunc, M=1, order=DEFAULT_ORDER):
        return QSeries(M, {}, trunc, order)

    @staticmethod
    def constant(c, trunc, M=1, order=DEFAULT_ORDER):
        if not isinstance(c, Cyclo):
            c = rational(c, order)
        return QSeries(M, {0: c}, trunc, order)

    @staticmethod
    def q_power(e, trunc, order=DEFAULT_ORDER):
        e = Fraction(e)
        return QSeries(e.denominator, {e.numerator: rational(1, order)}, trunc, order)

    # -- structure ----------------------------------------------------

    def rescaled(self, M):
        """Same series with exponent denominator M (a multiple of self.M)."""
        if M == self.M:
            return self
        if M % self.M:
            raise ValueError("new denominator must be a multiple")
        r = M // self.M
        return QSeries(M, {k * r: c for k, c in self.coeffs.items()}, self.trunc, self.order)

    def _common(self, other):
        M = self.M * other.M // math.gcd(self.M, other.M)
        return self.rescaled(M), other.rescaled(M)

    @property
    def valuation(self):
        """Exponent of the lowest known term; trunc for the zero series."""
        if not self.coeffs:
            return self.trunc
        return Fraction(min(self.coeffs), self.M)

    def coefficient(self, e):
        e = Fraction(e)
        if e >= self.trunc:
            raise ValueError("coefficient beyond truncation order")
        if (e * self.M).denominator != 1:
            return rational(0, self.order)
        return self.coeffs.get(int(e * self.M), rational(0, self.order))

    def leading(self):
        if not self.coeffs:
            raise ValueError("no known terms")
        k = min(self.coeffs)
        return Fraction(k, self.M), self.coeffs[k]

    @property
    def is_zero(self):
        return not self.coeffs

    def truncated(self, trunc):
        return QSeries(self.M, self.coeffs, min(self.trunc, Fraction(trunc)), self.order)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QSeries):
            return other
        if isinstance(other, (int, Fraction, Cyclo)):
            return QSeries.constant(other, self.trunc, 1, self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        out = dict(a.coeffs)
        for k, c in b.coeffs.items():
            out[k] = out[k] + c if k in out else c
        return QSeries(a.M, out, min(a.trunc, b.trunc), a.order)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.M, {k: -c for k, c in self.coeffs.items()}, self.trunc, self.order)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        trunc = min(a.trunc + b.valuation, b.trunc + a.valuation)
        out = series.mul(a.coeffs, b.coeffs, math.ceil(trunc * a.M),
                         operator.mul)
        return QSeries(a.M, out, trunc, a.order)

    __rmul__ = __mul__

    def inverse(self):
        """Reciprocal; the leading term must be known and nonzero."""
        v, lead = self.leading()
        # self = q^v u with u(0) = lead; 1/u is known below q^(trunc - v)
        shift = int(v * self.M)
        n_terms = self.trunc - v
        unit = {k - shift: c for k, c in self.coeffs.items()}
        out = series.div({0: rational(1, self.order)}, unit,
                         math.ceil(n_terms * self.M), operator.mul,
                         lead.inverse())
        return QSeries(self.M, {k - shift: c for k, c in out.items()},
                       n_terms - v, self.order)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = None
        base = self
        first = True
        while k:
            if k & 1:
                result = base if first else result * base
                first = False
            k >>= 1
            if k:
                base = base * base
        if first:
            return QSeries.constant(1, self.trunc, 1, self.order)
        return result

    def q_derivative(self):
        """q d/dq, term by term."""
        out = {
            k: c * rational(Fraction(k, self.M), self.order)
            for k, c in self.coeffs.items()
        }
        return QSeries(self.M, out, self.trunc, self.order)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero

    def __hash__(self):
        raise TypeError("unhashable (mutually truncated comparisons)")

    # -- output -------------------------------------------------------

    def export_lines(self):
        """One line per term: `num/den coefficient`, ascending exponents."""
        lines = []
        for k in sorted(self.coeffs):
            e = Fraction(k, self.M)
            lines.append("%d/%d %s" % (e.numerator, e.denominator,
                                       cyclo_literal(self.coeffs[k])))
        return lines

    def __repr__(self):
        shown = []
        for k in sorted(self.coeffs)[:6]:
            e = Fraction(k, self.M)
            shown.append("%s q^(%s)" % (cyclo_literal(self.coeffs[k]), e))
        tail = " + ..." if len(self.coeffs) > 6 else ""
        return "QSeries(%s%s; O(q^%s))" % (" + ".join(shown) or "0", tail, self.trunc)


# -- named series -----------------------------------------------------


def eta_product(exponent_of, trunc, order=DEFAULT_ORDER, scale=Fraction(1)):
    """prod_{n>=1} (1 - q^(n s))^e(n) with integer exponents e(n)."""
    s = Fraction(scale)
    M = s.denominator
    limit = Fraction(trunc)
    result = QSeries.constant(1, limit, M, order)
    n = 1
    while n * s < limit:
        e = exponent_of(n)
        if e:
            factor = QSeries(
                (n * s).denominator,
                {0: rational(1, order), (n * s).numerator: rational(-1, order)},
                limit, order)
            result = result * factor ** e if e > 0 else result * factor.inverse() ** (-e)
        n += 1
    return result


def eta(trunc, order=DEFAULT_ORDER, scale=Fraction(1)):
    """Dedekind eta of (scale * tau): q^(scale/24) prod (1 - q^(n scale))."""
    s = Fraction(scale)
    pre = QSeries.q_power(s / 24, Fraction(trunc) + s / 24, order)
    return pre * eta_product(lambda n: 1, trunc, order, s)


def bernoulli(n):
    """Bernoulli number B_n (B_1 = -1/2), exact."""
    a = []
    for m in range(n + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


def _sigma(n, k):
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** k
            e = n // d
            if e != d:
                total += e ** k
        d += 1
    return total


def eisenstein(weight, trunc, order=DEFAULT_ORDER):
    """E_{2k} = 1 - (4k/B_{2k}) sum sigma_{2k-1}(n) q^n."""
    if weight % 2 or weight < 2:
        raise ValueError("even weight >= 2 required")
    k = weight // 2
    c = Fraction(-4 * k, 1) / bernoulli(weight)
    limit = Fraction(trunc)
    coeffs = {0: rational(1, order)}
    n = 1
    while n < limit:
        coeffs[n] = rational(c * _sigma(n, weight - 1), order)
        n += 1
    return QSeries(1, coeffs, limit, order)


def delta_series(trunc, order=DEFAULT_ORDER):
    return eta(trunc, order) ** 24


def j_series(trunc, order=DEFAULT_ORDER):
    t = Fraction(trunc) + 2
    e4 = eisenstein(4, t, order)
    e6 = eisenstein(6, t, order)
    num = e4 ** 3 * 1728
    den = e4 ** 3 - e6 ** 2
    return (num / den).truncated(trunc)


def kronecker5(n):
    r = n % 5
    if r == 0:
        return 0
    return 1 if r in (1, 4) else -1


def hauptmodul(level, trunc, order=DEFAULT_ORDER):
    """Level 2..5 hauptmoduln, normalized so j = k_n f_n(j_n)^3 / v_n(j_n)^n
    holds with the constants of j_relation_data."""
    t = Fraction(trunc)
    if level == 2:
        # lambda = 16 eta(tau/2)^8 eta(2 tau)^16 / eta(tau)^24
        pad = t + 2
        num = eta(pad, order, Fraction(1, 2)) ** 8 * eta(pad, order, 2) ** 16
        den = eta(pad, order) ** 24
        return (num / den * 16).truncated(t)
    if level == 3:
        pad = t + 2
        s2 = sqrt2(order)
        quot = (eta(pad, order, Fraction(1, 3)) ** 3
                / eta(pad, order, 3) ** 3)
        scale = QSeries.constant(-s2 * rational(Fraction(1, 6), order), pad, 1, order)
        shift = QSeries.constant(-s2 * rational(Fraction(1, 2), order), pad, 1, order)
        return (scale * quot + shift).truncated(t)
    if level == 4:
        pre = QSeries.q_power(Fraction(1, 4), t + 1, order) * 2
        prod = eta_product(lambda n: 2 if n % 2 else 0, t + 1, order)
        prod = prod * eta_product(
            lambda n: -4 if n % 4 == 2 else 0, t + 1, order)
        return (pre * prod).truncated(t)
    if level == 5:
        pre = QSeries.q_power(Fraction(1, 5), t + 1, order)
        prod = eta_product(kronecker5, t + 1, order)
        return (pre * prod).truncated(t)
    raise ValueError("level must be 2, 3, 4 or 5")


def j_relation_data(level, order=DEFAULT_ORDER):
    """(k_n, f_n, v_n) with j = k_n f_n(j_n)^3 / v_n(j_n)^n."""
    def poly(text):
        from .parsing import parse_poly
        return parse_poly(text, order)

    if level == 2:
        return rational(256, order), poly("z^2 - z + 1"), poly("z^2 - z")
    if level == 3:
        s2 = sqrt2(order)
        k3 = rational(-54, order) * s2
        return k3, poly("z^4 - 2*(zeta^15+zeta^105)*z"), poly("z^3 + (zeta^15+zeta^105)/4")
    if level == 4:
        return rational(16, order), poly("z^8 + 14*z^4 + 1"), poly("z^5 - z")
    if level == 5:
        return rational(-1, order), poly("z^20 - 228*z^15 + 494*z^10 + 228*z^5 + 1"), poly("z^11 + 11*z^6 - z")
    raise ValueError(level)


def poly_of_series(p, s):
    """p(s) by Horner for a Poly p and QSeries s."""
    if p.is_zero:
        return QSeries.zero(s.trunc, 1, s.order)
    acc = QSeries.constant(p.leading, _INF, 1, s.order)
    for k in range(p.degree - 1, -1, -1):
        acc = acc * s + QSeries.constant(p.coeffs[k], _INF, 1, s.order)
    return acc


def verify_j_relation(level, trunc, order=DEFAULT_ORDER):
    """Residual j - k_n f_n(j_n)^3 / v_n(j_n)^n, zero up to `trunc`."""
    t = Fraction(trunc)
    jn = hauptmodul(level, t + 2, order)
    kn, fn, vn = j_relation_data(level, order)
    num = poly_of_series(fn, jn) ** 3 * kn
    den = poly_of_series(vn, jn) ** level
    rhs = num / den
    return (j_series(t, order) - rhs).truncated(t)


def ramanujan_check(trunc, order=DEFAULT_ORDER):
    """Residuals of the three Ramanujan derivative identities in q d/dq."""
    t = Fraction(trunc)
    e2 = eisenstein(2, t, order)
    e4 = eisenstein(4, t, order)
    e6 = eisenstein(6, t, order)
    r1 = e2.q_derivative() - (e2 * e2 - e4) * Fraction(1, 12)
    r2 = e4.q_derivative() - (e2 * e4 - e6) * Fraction(1, 3)
    r3 = e6.q_derivative() - (e2 * e6 - e4 * e4) * Fraction(1, 2)
    return r1, r2, r3


def rogers_ramanujan(trunc, depth=None, order=DEFAULT_ORDER):
    """The continued fraction q^(1/5)/(1 + q/(1 + q^2/(1 + ...))).

    Depth is doubled until the expansion below `trunc` stabilizes twice.
    """
    t = Fraction(trunc)

    def build(d):
        f = QSeries.constant(1, t, 1, order)
        for k in range(d, 0, -1):
            f = QSeries.q_power(k, t, order) / f + 1
        return QSeries.q_power(Fraction(1, 5), t + Fraction(1, 5), order) / f

    if depth is not None:
        return build(depth).truncated(t)
    d = max(4, int(t) + 1)
    prev = build(d)
    stable = 0
    while stable < 2:
        d *= 2
        cur = build(d)
        if (cur - prev).is_zero:
            stable += 1
        else:
            stable = 0
        prev = cur
        if d > 4096:
            raise RuntimeError("continued fraction failed to stabilize")
    return prev.truncated(t)


def rr_equals_j5(trunc, order=DEFAULT_ORDER):
    """Residual of RR fraction minus the level-5 hauptmodul."""
    t = Fraction(trunc)
    return (rogers_ramanujan(t, order=order) - hauptmodul(5, t, order)).truncated(t)


# -- numeric evaluation -----------------------------------------------


def series_eval(s, tau, tail_bound=1e-12):
    """Evaluate at q = exp(2 pi i tau), Im tau > 0, with a geometric tail
    estimate from the last retained terms."""
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    q = cmath.exp(2j * cmath.pi * tau)
    total = 0.0
    last_mag = 0.0
    for k in sorted(s.coeffs):
        e = Fraction(k, s.M)
        term = complex(s.coeffs[k]) * _cpow(q, e)
        total += term
        last_mag = abs(term)
    r = abs(q) ** (1.0 / s.M)
    tail = last_mag * r / (1 - r) if r < 1 else float("inf")
    if tail > tail_bound:
        raise ValueError("tail estimate %.3g above bound %.3g; extend the series"
                         % (tail, tail_bound))
    return total


def _cpow(q, e):
    return cmath.exp(complex(e) * cmath.log(q))


def heins_value(tau, terms=40, tail_bound=1e-8, order=DEFAULT_ORDER):
    """tau + (6/(pi i)) / E_2(tau)."""
    e2 = eisenstein(2, terms, order)
    v = series_eval(e2, tau, tail_bound)
    if abs(v) < 1e-12:
        raise ZeroDivisionError("E_2 vanishes numerically at tau")
    return tau + 6.0 / (1j * math.pi) / v
