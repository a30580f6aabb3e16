"""Reduced rational functions on the sphere, with divisor queries.

A RatFn is a quotient num/den of polynomials over Q(zeta_N) with
gcd(num, den) = 1 and den monic.  The constant infinity is (1, 0) and is
flagged degenerate by `is_infinity`.  Behavior at the point at infinity is
always obtained through the chart z -> 1/w.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from . import series
from .cyclotomic import DEFAULT_ORDER, Cyclo, rational
from .poly import Poly

INF = "inf"


class RatFn:
    __slots__ = ("num", "den", "order")

    def __init__(self, num, den=None, reduce=True):
        if not isinstance(num, Poly):
            num = Poly.constant(num) if not isinstance(num, (list, tuple)) else Poly(num)
        if den is None:
            den = Poly.one(num.order)
        elif not isinstance(den, Poly):
            den = Poly.constant(den, num.order) if not isinstance(den, (list, tuple)) else Poly(den, num.order)
        if num.is_zero and den.is_zero:
            raise ZeroDivisionError("0/0 is not a rational function")
        if den.is_zero:
            num = Poly.one(num.order)
        elif reduce:
            g = num.gcd(den)
            if g.degree >= 1:
                num = num.exact_div(g)
                den = den.exact_div(g)
            if not den.is_monic:
                inv = den.leading.inverse()
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den
        self.order = num.order

    # -- constructors -------------------------------------------------

    @staticmethod
    def x(order=DEFAULT_ORDER):
        return RatFn(Poly.x(order), reduce=False)

    @staticmethod
    def constant(c, order=DEFAULT_ORDER):
        return RatFn(Poly.constant(c, order), reduce=False)

    @staticmethod
    def infinity(order=DEFAULT_ORDER):
        return RatFn(Poly.one(order), Poly.zero(order), reduce=False)

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

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.num * o.den) == (o.num * self.den)

    def __hash__(self):
        # unreduced values compare equal to their reduced form, which is canonical
        r = RatFn(self.num, self.den)
        return hash((r.num, r.den))

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFn):
            return other
        if isinstance(other, Poly):
            return RatFn(other, reduce=False)
        if isinstance(other, (int, Fraction, Cyclo)):
            return RatFn.constant(other, self.order)
        return None

    def _check_finite(self, o=None):
        if self.is_infinity or (o is not None and o.is_infinity):
            raise ArithmeticError("arithmetic with the constant infinity")

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check_finite(o)
        return RatFn(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        if self.is_infinity:
            return self
        return RatFn(-self.num, self.den, reduce=False)

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
        self._check_finite(o)
        return RatFn(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check_finite(o)
        if o.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return RatFn(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if k < 0:
            return (1 / self) ** (-k)
        return RatFn(self.num ** k, self.den ** k)

    def inverse(self):
        """Reciprocal 1/f (not compositional inverse)."""
        if self.is_infinity:
            return RatFn.constant(0, self.order)
        if self.is_zero:
            return RatFn.infinity(self.order)
        return RatFn(self.den, self.num)

    # -- calculus -----------------------------------------------------

    def derivative(self):
        """Formal d/dz."""
        if self.is_infinity:
            raise ArithmeticError("derivative of the constant infinity")
        return RatFn(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def wronskian_poly(self):
        """num' * den - num * den'; its zeros are the finite ramification points."""
        return self.num.derivative() * self.den - self.num * self.den.derivative()

    # -- composition and evaluation -----------------------------------

    def compose(self, g, reduce=True):
        """self(g(z)) for a rational g."""
        g = self._coerce(g)
        if g.is_infinity:
            return RatFn.constant(self.eval_at_infinity_symbol(), self.order)
        p, q = g.num, g.den
        deg = max(self.num.degree, self.den.degree)
        # homogenize both num and den of self to common degree
        pq_pows = [Poly.one(self.order)]
        p_pows = [Poly.one(self.order)]
        for _ in range(deg):
            pq_pows.append(pq_pows[-1] * q)
            p_pows.append(p_pows[-1] * p)
        def substitute(poly):
            acc = Poly.zero(self.order)
            for i, c in enumerate(poly.coeffs):
                if not c.is_zero:
                    acc = acc + (p_pows[i] * pq_pows[deg - i]).scale(c)
            return acc
        return RatFn(substitute(self.num), substitute(self.den), reduce=reduce)

    def compose_mobius_arg(self, a, b, c, d, reduce=True):
        """self((a z + b)/(c z + d))."""
        deg = max(self.num.degree, self.den.degree)
        num = self.num.compose_mobius(a, b, c, d)
        den = self.den.compose_mobius(a, b, c, d)
        low = Poly((d, c), self.order)
        num = num * low ** (deg - self.num.degree)
        den = den * low ** (deg - self.den.degree)
        return RatFn(num, den, reduce=reduce)

    def __call__(self, x):
        """Evaluate at a Cyclo/Fraction/int/complex value or the symbol 'inf'."""
        if isinstance(x, str):
            if x != INF:
                raise ValueError("unknown symbolic point %r" % (x,))
            return self.eval_at_infinity_symbol()
        if isinstance(x, complex):
            n, d = self.num(x), self.den(x)
            if d == 0:
                return complex("inf")
            return n / d
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
        num = self.num.taylor_shift(p)
        den = self.den.taylor_shift(p)
        if den.is_zero or den.coeffs[0].is_zero:
            raise ZeroDivisionError("pole at the expansion point")
        out = series.div(_sparse(num.coeffs), _sparse(den.coeffs), n_terms,
                         operator.mul, den.coeffs[0].inverse())
        zero = rational(0, self.order)
        return [out.get(k, zero) for k in range(n_terms)]

    def __repr__(self):
        from .parsing import ratfn_literal

        return ratfn_literal(self)



def _sparse(coeffs):
    """Dense coefficient list as a sparse series {exponent: coefficient}."""
    return {k: c for k, c in enumerate(coeffs) if not c.is_zero}
