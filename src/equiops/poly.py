"""Univariate polynomials over a cyclotomic field.

Coefficient lists are stored low degree first with no trailing zeros, as a
tuple of `Cyclo`; every coefficient has the polynomial's field order.  That
form is canonical, so equality and hashing compare the coefficient tuples.

Composition.  `substitute(p, q, degree)` is the one substitution kernel: the
binary form sum c_i p^i q^(degree - i), by Horner in p.  Evaluation at a
polynomial, the Taylor shift, Moebius images of forms and `RatFn.compose`
all call it.

Rational lane.  When both operands have only rational coefficients (the
common case), multiplication, division with remainder and the gcd run on
Python int lists: each operand is written once as an int list over a
common denominator, the kernel works on ints (a convolution, a
pseudo-division by the leading coefficient, a primitive remainder
sequence), and each output coefficient becomes one rational `Cyclo`.  The
results are the same `Poly` values the general path computes.  Any
irrational coefficient sends the operation down the general `Cyclo` path,
and the gcd there is monic Euclid with content control.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd

from .cyclotomic import DEFAULT_ORDER, Cyclo, CycloError, rational


class Poly:
    """A polynomial over Q(zeta_order), canonical: equal values have equal
    coefficient tuples."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=DEFAULT_ORDER):
        cs = []
        field = None
        for c in coeffs:
            if isinstance(c, Cyclo):
                if field is None:
                    field = order = c.order
                elif c.order != field:
                    raise CycloError("mixed cyclotomic orders in one polynomial: %d vs %d"
                                     % (field, c.order))
                cs.append(c)
            else:
                cs.append(Fraction(c))
        cs = [c if isinstance(c, Cyclo) else rational(c, order) for c in cs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)
        self.order = order

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(order=DEFAULT_ORDER):
        return Poly((), order)

    @staticmethod
    def one(order=DEFAULT_ORDER):
        return Poly((1,), order)

    @staticmethod
    def x(order=DEFAULT_ORDER):
        return Poly((0, 1), order)

    @staticmethod
    def constant(c, order=DEFAULT_ORDER):
        return Poly((c,), order)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_constant(self):
        return len(self.coeffs) <= 1

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return not self.is_zero and self.leading == 1

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return self.coeffs[0] if self.coeffs else rational(0, self.order)

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            other = Poly.constant(other, self.order)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction, Cyclo)):
            return Poly.constant(other, self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out, self.order)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs], self.order)

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
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return Poly.zero(self.order)
        if len(a) == 1:
            c = a[0]
            return Poly([c * x for x in b], self.order)
        if len(b) == 1:
            c = b[0]
            return Poly([c * x for x in a], self.order)
        ints = _int_forms(self, o)
        if ints is not None:
            (fa, da), (fb, db) = ints
            out = [0] * (len(fa) + len(fb) - 1)
            for i, ai in enumerate(fa):
                if ai:
                    for j, bj in enumerate(fb):
                        out[i + j] += ai * bj
            return _from_ints(out, da * db, self.order)
        out = [rational(0, self.order)] * (len(a) + len(b) - 1)
        nz_b = [(j, bj) for j, bj in enumerate(b) if not bj.is_zero]
        for i, ai in enumerate(a):
            if not ai.is_zero:
                for j, bj in nz_b:
                    out[i + j] = out[i + j] + ai * bj
        return Poly(out, self.order)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def scale(self, c):
        if not isinstance(c, Cyclo):
            c = rational(c, self.order)
        return Poly([c * x for x in self.coeffs], self.order)

    def divmod(self, other):
        """Quotient and remainder; requires other nonzero."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.zero(self.order), self
        ints = _int_forms(self, other)
        if ints is not None:
            # pseudo-division: lc^e * fa = q * fb + r over the integers,
            # e = deg a - deg b + 1, so every quotient step divides exactly
            (fa, da), (fb, db) = ints
            n = len(fb) - 1
            lc = fb[-1]
            scale = lc ** (len(fa) - n)
            rem = [v * scale for v in fa]
            q = [0] * (len(fa) - n)
            for i in range(len(q) - 1, -1, -1):
                c = rem[i + n]
                if c:
                    c //= lc
                    q[i] = c * db
                    for j, bj in enumerate(fb):
                        rem[i + j] -= c * bj
            den = da * scale
            return _from_ints(q, den, self.order), _from_ints(rem[:n], den, self.order)
        inv_lead = other.leading.inverse()
        rem = list(self.coeffs)
        db = other.degree
        q = [rational(0, self.order)] * (len(rem) - db)
        bco = other.coeffs
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if not c.is_zero:
                c = c * inv_lead
                q[i - db] = c
                for j, bj in enumerate(bco):
                    if not bj.is_zero:
                        rem[i - db + j] = rem[i - db + j] - c * bj
        return Poly(q, self.order), Poly(rem[:db], self.order)

    def __floordiv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.divmod(o)[0]

    def __mod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.divmod(o)[1]

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    # -- calculus, evaluation -----------------------------------------

    def derivative(self):
        return Poly([c * i for i, c in enumerate(self.coeffs)][1:], self.order)

    def __call__(self, x):
        """Horner evaluation at a Cyclo/Fraction/int/complex or Poly."""
        if isinstance(x, Poly):
            return self.substitute(x, 1, self.degree)
        if isinstance(x, complex):
            acc = 0j
            for c in reversed(self.coeffs):
                acc = acc * x + complex(c)
            return acc
        acc = rational(0, self.order)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def substitute(self, p, q, degree):
        """The binary form of self of the given degree at (p : q):
        sum c_i p^i q^(degree - i), for degree >= deg self.

        Horner in p with a table of powers of q, then one factor
        q^(degree - deg self).  For q = 1 the table is skipped.  This is
        every composition: self(p) is (p, 1, deg self), the Taylor shift is
        (z + p, 1, deg self), and self((a z + b)/(c z + d)) (c z + d)^degree
        is (a z + b, c z + d, degree).
        """
        n = self.degree
        if degree < n:
            raise ValueError("degree %d is below the polynomial's degree %d"
                             % (degree, n))
        if n < 0:
            return self
        unit = q == 1
        q_pows = [Poly.one(self.order)]
        for _ in range(0 if unit else n):
            q_pows.append(q_pows[-1] * q)
        acc = Poly.constant(self.coeffs[-1], self.order)
        for i in range(n - 1, -1, -1):
            acc = acc * p
            c = self.coeffs[i]
            if not c.is_zero:
                acc = acc + (c if unit else q_pows[n - i].scale(c))
        if degree > n:
            acc = acc * q ** (degree - n)
        return acc

    # -- normalization, gcd -------------------------------------------

    def monic(self):
        if self.is_zero or self.is_monic:
            return self
        inv = self.leading.inverse()
        return Poly([c * inv for c in self.coeffs], self.order)

    def rational_content_normalized(self):
        """Divide by a positive rational making integer data small; zero stays zero."""
        if self.is_zero:
            return self
        num_g = 0
        den_l = 1
        for c in self.coeffs:
            for n in c.num:
                num_g = _int_gcd(num_g, n)
            den_l = den_l * c.den // _int_gcd(den_l, c.den)
        if num_g == 0:
            return self
        factor = Fraction(den_l, num_g)
        if factor == 1:
            return self
        return Poly([c * factor for c in self.coeffs], self.order)

    def gcd(self, other):
        a, b = self, other
        if a.is_zero:
            return b.monic()
        if b.is_zero:
            return a.monic()
        ints = _int_forms(a, b)
        if ints is not None:
            return _gcd_rational(ints[0][0], ints[1][0], a.order)
        if a.degree < b.degree:
            a, b = b, a
        a = a.rational_content_normalized()
        b = b.rational_content_normalized()
        while not b.is_zero:
            b = b.monic()
            _, r = a.divmod(b)
            a, b = b, r.rational_content_normalized()
        return a.monic()

    def squarefree_decomposition(self):
        """Yun's algorithm: list of (factor, multiplicity), factors monic squarefree."""
        if self.degree < 1:
            return []
        p = self.monic()
        dp = p.derivative()
        a = p.gcd(dp)
        out = []
        b = p.exact_div(a)
        c = dp.exact_div(a)
        i = 1
        while b.degree >= 1:
            d = c - b.derivative()
            f = b.gcd(d)
            if f.degree >= 1:
                out.append((f, i))
            b = b.exact_div(f)
            c = d.exact_div(f)
            i += 1
        return out

    def is_squarefree(self):
        return self.degree >= 1 and self.gcd(self.derivative()).degree == 0

    def __repr__(self):
        from .parsing import poly_literal

        return poly_literal(self)


def _int_form(p):
    """(ints, den) with p.coeffs[i] == ints[i] / den, or None when p has an
    irrational coefficient."""
    den = 1
    for c in p.coeffs:
        if not c.is_rational:
            return None
        if den % c.den:
            den = den * c.den // _int_gcd(den, c.den)
    return [c.num[0] * (den // c.den) for c in p.coeffs], den


def _int_forms(a, b):
    """Int forms of two nonzero polynomials over one field, or None unless
    both are all-rational."""
    if a.order != b.order:
        raise CycloError("mismatched cyclotomic orders: %d vs %d" % (a.order, b.order))
    fa = _int_form(a)
    if fa is None:
        return None
    fb = _int_form(b)
    if fb is None:
        return None
    return fa, fb


def _from_ints(ints, den, order):
    """The polynomial with coefficients ints[i] / den; den != 0."""
    ratio = Cyclo._ratio
    return Poly([ratio(order, v, den) for v in ints], order)


def _primitive(ints):
    g = _int_gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _gcd_rational(fa, fb, order):
    """Monic gcd of two nonzero int polynomials by a primitive PRS."""
    fa, fb = _primitive(fa), _primitive(fb)
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        rem = list(fa)
        db = len(fb) - 1
        lead_b = fb[-1]
        while rem and len(rem) - 1 >= db:
            lr = rem[-1]
            dr = len(rem) - 1
            rem = [v * lead_b for v in rem]
            for j in range(db + 1):
                rem[dr - db + j] -= lr * fb[j]
            while rem and rem[-1] == 0:
                rem.pop()
        fa, fb = fb, _primitive(rem)
    return _from_ints(fa, fa[-1], order)
