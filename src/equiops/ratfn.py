"""Reduced rational functions on the sphere, with divisor queries.

A RatFn is a quotient num/den of polynomials over Q(zeta_N) with
gcd(num, den) = 1 and den monic; zero is 0/1.  The constant infinity is
(1, 0) and is flagged degenerate by `is_infinity`.  Behavior at the point
at infinity is always obtained through the chart z -> 1/w.

Arithmetic keeps that invariant without reducing a full-size result
(Henrici's method; Knuth, TAOCP vol. 2, 4.5.1).  Because both operands are
reduced, the gcds run on their halves, each one `Poly.gcd_cofactors` call
that also returns both quotients by the gcd (over Z the exact divisions
that check GCDHEU's candidate), so nothing is divided twice:

* (a/b)(c/d) divides out gcd(a, d) and gcd(c, b) before it multiplies, and
  division is the product with d/c;
* a/b + c/d takes g = gcd(b, d).  With b = g b1, d = g d1, the numerator
  t = a d1 + c b1 is prime to b1 and d1, so only h = gcd(t, g) can cancel,
  leaving (t/h)/(b1 d1 (g/h)), and for g = 1 the sum (a d + c b)/(b d) is
  already reduced;
* a power or reciprocal of a coprime pair is coprime, and so is the image
  of a reduced map under an invertible Moebius map, before or after it;
  these only rescale so that den is monic;
* the derivative of a/b is (a' e - a b'/g)/(b e) with g = gcd(b, b') and
  e = b/g, and it is reduced as it stands: in characteristic 0 every
  irreducible p with p^m || b has p^(m-1) || g, so p divides e exactly
  once and divides neither a nor b'/g, hence not the numerator.

A reduced value is canonical, so every result equals the full reduction
`RatFn(num, den)` of the unreduced one, coefficient for coefficient, and
equality and hashing compare num and den structurally.  `RatFn(num, den)`
is the one public constructor and always reduces; results already known to
be reduced are only rescaled, by `_canonical`.  Every composition, by a
rational map or a Moebius map, substitutes into the binary forms of num and
den with `Poly.substitute`.

Every value enters one way, `_ratfn_of`: a RatFn as it is, a Poly over 1,
an exact scalar as a constant, None for anything else.  It is `_coerce`,
and `_as_ratfn`, raising TypeError for None, takes every RatFn argument of
`operators`, `dynamics`, `properties`, `moebius` and `ncalg`.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import DEFAULT_ORDER, Cyclo, _Field, _Immutable, rational
from .poly import Poly, _lead_inverse

INF = "inf"


class RatFn(_Field, _Immutable):
    """num/den, reduced with den monic.  `RatFn(num, den)` reduces any pair,
    with a gcd only when both parts have degree >= 1.  Every value is
    canonical, so equality and hashing compare num and den.  Immutable:
    `_ops` keeps D f, phi f and S f at theta = dz once built by `operators`,
    and equality, hashing and pickling ignore it."""

    __slots__ = ("num", "den", "order", "_ops")

    def __init__(self, num, den=None):
        num = num if isinstance(num, Poly) else Poly.constant(num)
        den = den if isinstance(den, Poly) else Poly.constant(1 if den is None else den, num.order)
        if num.is_zero and den.is_zero:
            raise ZeroDivisionError("0/0 is not a rational function")
        _, num, den = _cancel(num, den)
        _fill(self, *_normal(num, den))

    def __reduce__(self):
        # the value alone, without the memo; the guard blocks slot restore
        return (_canonical, (self.num, self.den))

    # -- constructors -------------------------------------------------

    @staticmethod
    def x(order=DEFAULT_ORDER):
        return _canonical(Poly.x(order), Poly.one(order))

    @staticmethod
    def constant(c, order=DEFAULT_ORDER):
        num = Poly.constant(c, order)  # at the order of a Cyclo c
        return _canonical(num, Poly.one(num.order))

    @staticmethod
    def infinity(order=DEFAULT_ORDER):
        return _canonical(Poly.one(order), Poly.zero(order))

    # -- queries ------------------------------------------------------

    @property
    def is_infinity(self):
        return self.den.is_zero

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_constant(self):
        return self.num.is_constant and self.den.is_constant

    @property
    def degenerate(self):
        """A constant D f, deformation or Klein field marks a degenerate input."""
        return self.is_constant

    def constant_value(self):
        """Cyclo value of a finite constant, or the string 'inf'."""
        if self.is_infinity:
            return INF
        if not self.is_constant:
            raise ValueError("not a constant")
        return self.num.constant_value()

    @property
    def degree(self):
        """Degree as a map of the sphere."""
        if self.is_infinity:
            return 0
        return max(self.num.degree, self.den.degree)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # with den 1 the value equals its num, and a constant its value
        if self.den.degree == 0:
            return hash(self.num)
        return hash((self.num, self.den))

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        return _ratfn_of(other, self.order)

    def _check_finite(self, o=None):
        if self.is_infinity or (o is not None and o.is_infinity):
            raise ArithmeticError("arithmetic with the constant infinity")

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check_finite(o)
        a, b, c, d = self.num, self.den, o.num, o.den
        g, b1, d1 = _cancel(b, d)
        if g is None or g.degree < 1:
            return _canonical(a * d + c * b, b * d)
        _, t, g1 = _cancel(a * d1 + c * b1, g)
        return _canonical(t, b1 * d1 * g1)

    __radd__ = __add__

    def __neg__(self):
        if self.is_infinity:
            return self
        return _canonical(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check_finite(o)
        return _product(self.num, self.den, o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check_finite(o)
        if o.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return _product(self.num, self.den, o.den, o.num)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (1 / self) ** (-k)
        return _canonical(self.num ** k, self.den ** k)

    def inverse(self):
        """Reciprocal 1/f (not compositional inverse)."""
        if self.is_infinity:
            return RatFn.constant(0, self.order)
        if self.is_zero:
            return RatFn.infinity(self.order)
        return _canonical(self.den, self.num)

    # -- calculus -----------------------------------------------------

    def derivative(self):
        """Formal d/dz, reduced without a gcd of the result (see the module
        docstring)."""
        if self.is_infinity:
            raise ArithmeticError("derivative of the constant infinity")
        a, b = self.num, self.den
        _, e, dq = _cancel(b, b.derivative())
        return _canonical(a.derivative() * e - a * dq, b * e)

    def wronskian_poly(self):
        """num' * den - num * den'; its zeros are the finite ramification points."""
        return self.num.derivative() * self.den - self.num * self.den.derivative()

    # -- composition and evaluation -----------------------------------

    def compose(self, g):
        """self(g(z)) for a rational g.

        Substituting a reduced g into the coprime binary forms of self keeps
        them coprime (their resultant is a power of Res(self) times a power
        of Res(g)), so the result needs no gcd.
        """
        g = self._coerce(g)
        if g.is_infinity:
            value = self.eval_at_infinity_symbol()
            if value == INF:
                return RatFn.infinity(self.order)
            return RatFn.constant(value, self.order)
        return _canonical(*_substituted(self, g.num, g.den))

    def __call__(self, x):
        """Evaluate at a Cyclo, Fraction or int value or the symbol 'inf';
        `dynamics.CxMap` evaluates at floats and complex numbers."""
        if isinstance(x, str):
            if x != INF:
                raise ValueError("unknown symbolic point %r" % (x,))
            return self.eval_at_infinity_symbol()
        n = self.num(x)
        d = self.den(x)
        if isinstance(d, Cyclo) and d.is_zero:
            if isinstance(n, Cyclo) and n.is_zero:
                raise ZeroDivisionError("indeterminate value; function not reduced?")
            return INF
        return n / d

    def eval_at_infinity_symbol(self):
        """Value at z = infinity: a Cyclo or the symbol 'inf'."""
        dn, dd = self.num.degree, self.den.degree
        if dn > dd:
            return INF
        if dn < dd:
            return rational(0, self.order)
        return self.num.leading / self.den.leading

    def taylor(self, p, n_terms):
        """Taylor coefficients at a point p where den(p) != 0."""
        return self.taylor_series(p, n_terms).dense(n_terms)

    def taylor_series(self, p, n_terms):
        """The Taylor expansion at a point p where den(p) != 0, a `QSeries`
        in t = z - p known below t^n_terms."""
        from .qseries import QSeries  # qseries imports parsing, which imports ratfn

        zp = Poly((p, 1), self.order)
        den = QSeries.of_poly(self.den(zp))
        if den.valuation:
            raise ZeroDivisionError("pole at the expansion point")
        return QSeries.of_poly(self.num(zp), n_terms) / den

    def __repr__(self):
        from .parsing import ratfn_literal

        return ratfn_literal(self)


_set_num, _set_den, _set_order, _set_ops = (
    s.__set__ for s in (RatFn.num, RatFn.den, RatFn.order, RatFn._ops))


def _fill(self, num, den):
    """Set the slots of a new RatFn from a normal pair, with an empty memo."""
    _set_num(self, num)
    _set_den(self, den)
    _set_order(self, num.order)
    _set_ops(self, {})


def _normal(num, den):
    """(num, den) rescaled so that den is monic, with 0/1 for zero and 1/0
    for infinity."""
    if num.is_zero:
        return num, Poly.one(num.order)
    if den.is_zero:
        return Poly.one(num.order), den
    if den.is_monic:
        return num, den
    if den.is_rational:  # the int path of monic(), with no Cyclo inverse
        ints, d = den.as_ints()
        return num.scale(Fraction(d, ints[-1])), den.monic()
    inv = _lead_inverse(den)
    return num * inv, den * inv


def _ratfn_of(value, order):
    """value as a RatFn, with no gcd: an exact scalar (int, Fraction, Cyclo)
    at `order`, a Cyclo at its own; None for anything else."""
    if isinstance(value, RatFn):
        return value
    if isinstance(value, (int, Fraction, Cyclo)):
        value = Poly.constant(value, order)
    return _canonical(value, Poly.one(value.order)) if isinstance(value, Poly) else None


def _as_ratfn(value, order=DEFAULT_ORDER):
    """`_ratfn_of`, raising TypeError where it gives None."""
    f = _ratfn_of(value, order)
    if f is None:
        raise TypeError("not a rational function, polynomial or exact scalar: %r" % (value,))
    return f


def _canonical(num, den):
    """The RatFn of a coprime pair (den zero for infinity), built without
    __init__ and with no gcd: a rescale at most."""
    self = object.__new__(RatFn)
    _fill(self, *_normal(num, den))
    return self


def _cancel(p, q):
    """`p.gcd_cofactors(q)`, but (None, p, q) if an operand has degree < 1:
    a constant has gcd 1, and where one is zero (a zero sum or product, the
    derivative of a constant den) no cancellation is needed."""
    return p.gcd_cofactors(q) if p.degree >= 1 and q.degree >= 1 else (None, p, q)


def _product(a, b, c, d):
    """(a/b)(c/d) for coprime pairs (a, b) and (c, d) with b, d nonzero."""
    if a.degree < 0 or c.degree < 0:  # 0/1 at once, without forming b d
        return _canonical(Poly.zero(a.order), Poly.one(a.order))
    _, a, d = _cancel(a, d)
    _, c, b = _cancel(c, b)
    return _canonical(a * c, b * d)


def _substituted(f, p, q):
    """Numerator and denominator of f(p/q), both homogenised to the degree
    of f and not normalised."""
    deg = max(f.num.degree, f.den.degree)
    return f.num.substitute(p, q, deg), f.den.substitute(p, q, deg)

