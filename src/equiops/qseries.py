"""Truncated q-expansions with exact cyclotomic coefficients.

`QSeries` is the one truncated-series value, for q-expansions and for the
Taylor series in t = z - p of the Legendrian lift.  Exponents live in
(1/M)Z for a per-series denominator M; arithmetic tracks the truncation
order pessimistically so a vanishing residual is a proof up to the
reported order.  Named series cover the eta function and its rescalings,
Eisenstein series, the modular j function and the level 2..5 hauptmoduln,
and the Rogers-Ramanujan continued fraction.  Eta, Delta, 1/Delta (j is
E_4^3 times it) and the hauptmoduln, read from the table `_HAUPTMODULN`, are
each one eta quotient c q^v prod (1 - q^(k s))^e(k) of the in-place kernel
`eta_product`, with no series power or quotient.

The coefficient store is that of `Poly`, (items, den, m) keyed by exponent:
the term at q^(k/M) is items[k] / den, ints (m = 1) or rows at the field
key m (see `poly`), the join of the keys of the terms: the real key -8,
two ints a row, for the sqrt2 of level 3.  `poly` enters scalars, lifts
items to the key operands meet at, normalises and reads the values and
checks field orders; this module keeps exponents and truncation.  Products
run `series.mul` on ints and `series.mul_rows` on rows.  A quotient,
reciprocals included, is one triangular pass of `series.div_ints`, after
multiplying both operands by the norm cofactor of an irrational lead on its
key (`cyclotomic._norm`), which makes that lead an int.  `Cyclo` values
appear only in the `coeffs` and `dense` views.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import repeat

from . import series
from .cyclotomic import (DEFAULT_ORDER, Cyclo, CycloError, _Field, _Immutable, _mul_vec, _norm,
                         rational, sqrt2)
from .parsing import cyclo_literal
from .poly import _entered, _item, _join, _lifted, _same_field, _store

_INF = Fraction(10**9)


class QSeries(_Field, _Immutable):
    """Finite q-expansion: coefficients plus truncation order.

    coeffs maps integer numerators k to Cyclo values, the term being
    coeff * q^(k/M); exponents >= trunc are unknown.
    """

    # the term at k/M is _items[k] / _den at field key _m, see the module
    # docstring
    __slots__ = ("M", "_items", "_den", "_m", "trunc", "order")

    def __new__(cls, M, coeffs, trunc, order=DEFAULT_ORDER):
        if any(isinstance(c, Cyclo) and c.order != order for c in coeffs.values()):
            raise CycloError("mismatched cyclotomic orders in one series")
        items = {k: c if isinstance(c, (int, Cyclo)) else rational(c, order)
                 for k, c in coeffs.items()}
        return _canonical(M, items, 1, 1, Fraction(trunc), order)

    def __reduce__(self):
        # the stored form; the guard blocks slot restore
        return (_make, (self.M, self._items, self._den, self._m, self.trunc, self.order))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(trunc, M=1, order=DEFAULT_ORDER):
        return _make(M, {}, 1, 1, Fraction(trunc), order)

    @staticmethod
    def constant(c, trunc, M=1, order=DEFAULT_ORDER):
        v, den, m = _entered(c, order)
        return _canonical(M, {0: v}, den, m, Fraction(trunc), order)

    @staticmethod
    def q_power(e, trunc, order=DEFAULT_ORDER):
        e = Fraction(e)
        return _canonical(e.denominator, {e.numerator: 1}, 1, 1, Fraction(trunc), order)

    @staticmethod
    def of_poly(p, trunc=_INF):
        """The `Poly` p in q, known below q^trunc (exactly by default): its
        items, in the same store."""
        return _canonical(1, dict(enumerate(p._items)), p._den, p._m, Fraction(trunc), p.order)

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients as a map {k: Cyclo}, for the terms at q^(k/M),
        built on each read."""
        return {k: self._value(k) for k in self._items}

    def dense(self, n):
        """The coefficients at q^(k/M) for k = 0 .. n - 1, as `Cyclo`."""
        if n > _limit(self.trunc, self.M):
            raise ValueError("coefficient beyond truncation order")
        return [self._value(k) for k in range(n)]

    def _value(self, k):
        """The coefficient at q^(k/M) as a `Cyclo`."""
        v = self._items.get(k)
        return rational(0, self.order) if v is None else _item(v, self._den, self._m, self.order)

    def rescaled(self, M):
        """Same series with exponent denominator M (a multiple of self.M)."""
        if M == self.M:
            return self
        if M % self.M:
            raise ValueError("new denominator must be a multiple")
        r = M // self.M
        return _make(M, {k * r: v for k, v in self._items.items()}, self._den,
                     self._m, self.trunc, self.order)

    def _common(self, other):
        """Both operands at one exponent denominator and field key, in one field."""
        _same_field(self, other)
        M = math.lcm(self.M, other.M)
        a, b = self.rescaled(M), other.rescaled(M)
        if a._m == b._m:
            return a, b
        m = _join(a._m, b._m)
        return [s if s._m == m else
                _make(M, dict(zip(s._items, _lifted(s._items.values(), s._m, m))), s._den, m,
                      s.trunc, s.order) for s in (a, b)]

    @property
    def valuation(self):
        """Exponent of the lowest known term; trunc for the zero series."""
        return Fraction(min(self._items), self.M) if self._items else self.trunc

    def coefficient(self, e):
        e = Fraction(e)
        if e >= self.trunc:
            raise ValueError("coefficient beyond truncation order")
        k = e * self.M
        return self._value(int(k)) if k.denominator == 1 else rational(0, self.order)

    def leading(self):
        if not self._items:
            raise ValueError("no known terms")
        k = min(self._items)
        return Fraction(k, self.M), self._value(k)

    @property
    def is_zero(self):
        return not self._items

    def truncated(self, trunc):
        return _canonical(self.M, self._items, self._den, self._m,
                          min(self.trunc, Fraction(trunc)), self.order)

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
        x, y, den, d, m = a._items, b._items, a._den, b._den, a._m
        if den != d:  # over den * d; the normaliser takes out the common part
            x, y, den = series.scaled(x, repeat(d), m), series.scaled(y, repeat(den), m), den * d
        out = dict(x)
        for k, v in y.items():
            out[k] = v if k not in out else out[k] + v if m == 1 else [
                s + t for s, t in zip(out[k], v)]
        return _canonical(a.M, out, den, m, min(a.trunc, b.trunc), (a or b).order)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.M, series.scaled(self._items, repeat(-1), self._m), self._den,
                     self._m, self.trunc, self.order)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        trunc = min(a.trunc + b.valuation, b.trunc + a.valuation)
        limit, m = _limit(trunc, a.M), a._m
        out = (series.mul(a._items, b._items, limit) if m == 1
               else series.mul_rows(a._items, b._items, limit, m))
        return _normalised(a.M, out, a._den * b._den, m, trunc, a.order)

    __rmul__ = __mul__

    def inverse(self):
        """Reciprocal; the leading term must be known and nonzero."""
        return QSeries.constant(1, _INF, 1, self.order) / self

    def __truediv__(self, other):
        """Quotient in one triangular pass; other's leading term must be known."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        if not b._items:
            raise ValueError("no known terms")
        sb = min(b._items)
        sa = min(a._items, default=sb)
        vb = Fraction(sb, a.M)
        # that of a times 1/b, which is known below q^(b.trunc - 2 vb)
        trunc = min(a.trunc - vb, b.trunc - 2 * vb + a.valuation)
        # a / b = q^((sa - sb) / M) x / y with x(0), y(0) != 0 (the kernels
        # ignore exponents below 0); a's den goes to the result
        x, m = {k - sa: v for k, v in a._items.items()}, a._m
        y = {j - sb: v for j, v in b._items.items()}
        if m != 1 and any(y[0][1:]):  # an irrational lead: times r, lead r its norm
            r = _norm(y[0], m)[0]
            x, y = ({k: _mul_vec(v, r, m) for k, v in s.items()} for s in (x, y))
        if b._den != 1:
            x = series.scaled(x, repeat(b._den), m)
        out, den = series.div_ints(x, y, _limit(trunc, a.M) - sa + sb, m)
        return _normalised(a.M, {k + sa - sb: c for k, c in out.items()},
                           den * a._den, m, trunc, a.order)

    def derivative(self):
        """d/dq, term by term."""
        items, M = self._items, self.M
        return _canonical(M, {k - M: v for k, v in series.scaled(items, items, self._m).items()},
                          self._den * M, self._m, self.trunc - 1, self.order)

    def q_derivative(self):
        """q d/dq, term by term."""
        return _canonical(self.M, series.scaled(self._items, self._items, self._m),
                          self._den * self.M, self._m, self.trunc, self.order)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.order != self.order and self._m == o._m == 1:
            # rational data compares by value in any field order, like Poly
            o = _make(o.M, o._items, o._den, 1, o.trunc, self.order)
        return (self - o).is_zero

    # -- output -------------------------------------------------------

    def _terms(self):
        """(exponent, `Cyclo` coefficient) pairs, ascending exponents."""
        return [(Fraction(k, self.M), self._value(k)) for k in sorted(self._items)]

    def export_lines(self):
        """One line per term: `num/den coefficient`, ascending exponents."""
        return ["%d/%d %s" % (e.numerator, e.denominator, cyclo_literal(c))
                for e, c in self._terms()]

    def __repr__(self):
        shown = ["%s q^(%s)" % (cyclo_literal(c), e) for e, c in self._terms()[:6]]
        tail = " + ..." if len(self._items) > 6 else ""
        return "QSeries(%s%s; O(q^%s))" % (" + ".join(shown) or "0", tail, self.trunc)


_new = object.__new__
# slot setters: build series past the immutability guard
_set_M, _set_items, _set_den, _set_m, _set_trunc, _set_order = (
    s.__set__ for s in (QSeries.M, QSeries._items, QSeries._den, QSeries._m, QSeries.trunc,
                        QSeries.order))


def _limit(trunc, M):
    """ceil(trunc * M): k / M < trunc exactly for the ints k below it."""
    return -(-trunc.numerator * M // trunc.denominator)


def _make(M, items, den, m, trunc, order):
    """The series of a canonical (items, den, m)."""
    s = _new(QSeries)
    _set_M(s, M)
    _set_items(s, items)
    _set_den(s, den)
    _set_m(s, m)
    _set_trunc(s, trunc)
    _set_order(s, order)
    return s


def _canonical(M, items, den, m, trunc, order):
    """The series sum items[k] / den q^(k/M) + O(q^trunc), for a dict of ints
    and `Cyclo` elements (m = 1) or rows at field key m, and an int den != 0."""
    limit = _limit(trunc, M)
    return _normalised(M, {k: v for k, v in items.items()
                           if (v if m == 1 else any(v)) and k < limit}, den, m, trunc, order)


def _normalised(M, items, den, m, trunc, order):
    """`_canonical` of nonzero items below trunc, as the kernels return them."""
    values, d, m = _store(list(items.values()), den, m)
    return _make(M, dict(zip(items, values)), d, m, trunc, order)


# -- named series -----------------------------------------------------


def eta_product(exponent_of, trunc, order=DEFAULT_ORDER, scale=Fraction(1)):
    """prod_{n>=1} (1 - q^(n s))^e(n) with integer exponents e(n), each factor
    (1 - q^(n s))^(+-1) applied in place to the ints c below q^trunc."""
    s = Fraction(scale)
    M, limit = s.denominator, Fraction(trunc)
    c = [1] + [0] * (_limit(limit, M) - 1)
    for n in range(1, math.ceil(limit / s)):  # n s < limit
        e, t = exponent_of(n), n * s.numerator
        for _ in range(abs(e)):
            if e > 0:  # times 1 - q^(t/M): c[k] -= c[k - t] on the old values
                c[t:] = [x - y for x, y in zip(c[t:], c)]
            else:  # over 1 - q^(t/M): c[k] += c[k - t] walking up
                for k in range(t, len(c)):
                    c[k] += c[k - t]
    return _canonical(M, dict(enumerate(c)), 1, 1, limit, order)


def _eta_quotient(c, v, s, e, trunc, order):
    """c q^v prod_{k>=1} (1 - q^(k s))^e(k), the product known below q^trunc;
    c multiplies the product, of valuation 0, where a scalar costs no terms."""
    return QSeries.q_power(v, _INF, order) * (eta_product(e, trunc, order, s) * c)


def eta(trunc, order=DEFAULT_ORDER, scale=Fraction(1)):
    """Dedekind eta of (scale * tau): q^(scale/24) prod (1 - q^(n scale))."""
    s = Fraction(scale)
    return _eta_quotient(1, s / 24, s, lambda n: 1, trunc, order)


def bernoulli(n):
    """Bernoulli number B_n (B_1 = -1/2), exact."""
    a = []
    for m in range(n + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


def _sigma(n, k):
    """The divisor sum sigma_k(n), divisors found in pairs (d, n/d)."""
    return sum(e ** k for e in {e for d in range(1, math.isqrt(n) + 1) if n % d == 0
                                for e in (d, n // d)})


def eisenstein(weight, trunc, order=DEFAULT_ORDER):
    """E_{2k} = 1 - (4k/B_{2k}) sum sigma_{2k-1}(n) q^n."""
    if weight % 2 or weight < 2:
        raise ValueError("even weight >= 2 required")
    c = Fraction(-2 * weight) / bernoulli(weight)
    items = {n: c.numerator * _sigma(n, weight - 1) for n in range(1, math.ceil(trunc))}
    items[0] = c.denominator
    return _canonical(1, items, c.denominator, 1, Fraction(trunc), order)


def delta_series(trunc, order=DEFAULT_ORDER):
    """Delta = q prod (1 - q^n)^24, known below q^(trunc + 1) as eta^24 is."""
    return _eta_quotient(1, 1, 1, lambda n: 24, trunc, order)


def j_series(trunc, order=DEFAULT_ORDER):
    """j = E_4^3 / Delta, 1/Delta = q^-1 prod (1 - q^n)^-24 known below q^trunc."""
    t = Fraction(trunc) + 1
    return eisenstein(4, t, order) ** 3 * _eta_quotient(1, -1, 1, lambda n: -24, t, order)


def kronecker5(n):
    return (0, 1, -1, -1, 1)[n % 5]


# level: (c, v, s, e) of the eta quotient c q^v prod (1 - q^(k s))^e(k), that is
#   2: 16 eta(tau/2)^8 eta(2 tau)^16 / eta(tau)^24
#   3: (eta(tau/3) / eta(3 tau))^3, then mapped h -> -sqrt2 (h/6 + 1/2)
#   4: 2 q^(1/4) prod (1 - q^(2n-1))^2 / (1 - q^(4n-2))^4
#   5: q^(1/5) prod (1 - q^n)^(n/5), with the Legendre symbol (n/5)
_HAUPTMODULN = {
    2: (16, Fraction(1, 2), Fraction(1, 2), lambda k: (0, 8, -16, 8)[k % 4]),
    3: (1, Fraction(-1, 3), Fraction(1, 3), lambda k: 3 if k % 9 else 0),
    4: (2, Fraction(1, 4), 1, lambda k: (0, 2, -4, 2)[k % 4]),
    5: (1, Fraction(1, 5), 1, kronecker5),
}


def hauptmodul(level, trunc, order=DEFAULT_ORDER):
    """Level 2..5 hauptmoduln, normalized so j = k_n f_n(j_n)^3 / v_n(j_n)^n
    holds with the constants of j_relation_data."""
    if level not in _HAUPTMODULN:
        raise ValueError("level must be 2, 3, 4 or 5")
    t = Fraction(trunc)
    h = _eta_quotient(*_HAUPTMODULN[level], t + 1, order)
    if level == 3:  # a scalar times q^(-1/3) + ... is known 1/3 less far
        s2 = sqrt2(order)
        h = h * (-s2 / 6) - s2 / 2
    return h.truncated(t)


def j_relation_data(level, order=DEFAULT_ORDER):
    """(k_n, f_n, v_n) with j = k_n f_n(j_n)^3 / v_n(j_n)^n."""
    def poly(text):
        from .parsing import parse_poly
        return parse_poly(text, order)

    if level == 2:
        return rational(256, order), poly("z^2 - z + 1"), poly("z^2 - z")
    if level == 3:
        return rational(-54, order) * sqrt2(order), poly("z^4 - 2*(zeta^15+zeta^105)*z"), poly("z^3 + (zeta^15+zeta^105)/4")
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
    e2, e4, e6 = (eisenstein(w, t, order) for w in (2, 4, 6))
    r1 = e2.q_derivative() - (e2 * e2 - e4) * Fraction(1, 12)
    r2 = e4.q_derivative() - (e2 * e4 - e6) * Fraction(1, 3)
    r3 = e6.q_derivative() - (e2 * e6 - e4 * e4) * Fraction(1, 2)
    return r1, r2, r3


def rogers_ramanujan(trunc, order=DEFAULT_ORDER):
    """The continued fraction q^(1/5)/(1 + q/(1 + q^2/(1 + ...))).

    Cut at depth d, the innermost level errs at q^(2d+1) and level k
    multiplies the error by q^k, so the fraction first errs at
    q^(1/5 + d(d-1)/2 + 2d + 1); d is the least depth that puts this at or
    above `trunc`.
    """
    t = Fraction(trunc)
    d = 0
    while Fraction(1, 5) + d * (d - 1) // 2 + 2 * d + 1 < t:
        d += 1
    f = QSeries.constant(1, t, 1, order)
    for k in range(d, 0, -1):
        f = QSeries.q_power(k, t, order) / f + 1
    return (QSeries.q_power(Fraction(1, 5), t + Fraction(1, 5), order) / f).truncated(t)


def rr_equals_j5(trunc, order=DEFAULT_ORDER):
    """Residual of RR fraction minus the level-5 hauptmodul."""
    t = Fraction(trunc)
    return (rogers_ramanujan(t, order=order) - hauptmodul(5, t, order)).truncated(t)


# -- numeric evaluation -----------------------------------------------


def series_eval(s, tau, tail_bound=1e-12):
    """Evaluate at q = exp(2 pi i tau), Im tau > 0, with a geometric tail
    from the last term, of ratio per step 1/M the larger of |q|^(1/M) and
    that of the last two terms; a series known exactly has none."""
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    q = cmath.exp(2j * cmath.pi * tau)
    terms = [(e, complex(c) * cmath.exp(complex(e) * cmath.log(q))) for e, c in s._terms()]
    r = abs(q) ** (1.0 / s.M)
    if len(terms) > 1 and terms[-2][1]:
        (e0, t0), (e1, t1) = terms[-2:]
        r = max(r, (abs(t1) / abs(t0)) ** (1.0 / float((e1 - e0) * s.M)))
    last = abs(terms[-1][1]) if terms else 0.0
    tail = 0.0 if s.trunc >= _INF else last * r / (1 - r) if r < 1 else float("inf")
    if tail > tail_bound:
        raise ValueError("tail estimate %.3g above bound %.3g; extend the series"
                         % (tail, tail_bound))
    return sum([t for _, t in terms], 0.0)


def heins_value(tau, terms=40, tail_bound=1e-8, order=DEFAULT_ORDER):
    """tau + (6/(pi i)) / E_2(tau)."""
    e2 = eisenstein(2, terms, order)
    v = series_eval(e2, tau, tail_bound)
    if abs(v) < 1e-12:
        raise ZeroDivisionError("E_2 vanishes numerically at tau")
    return tau + 6.0 / (1j * math.pi) / v
