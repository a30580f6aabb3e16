"""Univariate polynomials over a cyclotomic field.

Storage.  Each polynomial has one canonical storage, chosen by its data.
With only rational coefficients it is FLINT's fmpq_poly layout: an int
tuple `ints`, low degree first with no trailing zeros, over one
denominator `den` > 0 with gcd(content(ints), den) = 1; zero is ((), 1).
With any irrational coefficient it is a tuple of `Cyclo`, every one of the
polynomial's field order.  `coeffs` reads the `Cyclo` tuple either way: for
rational data it is a view built on first use.  Both storages are
canonical, so equality and hashing compare them directly; a constant
hashes like its value, and so a rational one like its `Fraction`.

Rational lane.  When every operand is rational, add, sub, neg, scale, mul
(a convolution), divmod (a pseudo-division), gcd (a primitive remainder
sequence), monic, derivative and substitute read and write (ints, den) and
build no `Cyclo`.  A rational operand that meets an irrational one takes the
general `Cyclo` path through its view, and a result whose coefficients all
come out rational is stored as ints again, so both paths give the same
values.  One pseudo-division serves divmod on both storages and the
remainder sequence: over the integers a step scales the remainder by
lead / gcd(top, lead), no more than exact division needs; over Q(zeta) it
divides by the leading coefficient.  The gcd over Q(zeta) is monic Euclid
with content control.

Composition.  `substitute(p, q, degree)` is the one substitution kernel: the
binary form sum c_i p^i q^(degree - i), by Horner in p.  Evaluation at a
polynomial, the Taylor shift, Moebius images of forms and `RatFn.compose`
all call it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd

from .cyclotomic import DEFAULT_ORDER, Cyclo, CycloError, rational


class Poly:
    """A polynomial over Q(zeta_order), canonical: equal values have equal
    storage."""

    # _ints/_den for rational data (_coeffs then caches the Cyclo view);
    # _ints None and _coeffs the Cyclo tuple otherwise
    __slots__ = ("_ints", "_den", "_coeffs", "order", "degree")

    def __init__(self, coeffs, order=DEFAULT_ORDER):
        cs = list(coeffs)
        field = None
        for i, c in enumerate(cs):
            if isinstance(c, Cyclo):
                if field is None:
                    field = order = c.order
                elif c.order != field:
                    raise CycloError("mixed cyclotomic orders in one polynomial: %d vs %d"
                                     % (field, c.order))
            elif not isinstance(c, int):
                cs[i] = Fraction(c)
        _store(self, cs, order)

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(order=DEFAULT_ORDER):
        return _make((), 1, order)

    @staticmethod
    def one(order=DEFAULT_ORDER):
        return _make((1,), 1, order)

    @staticmethod
    def x(order=DEFAULT_ORDER):
        return _make((0, 1), 1, order)

    @staticmethod
    def constant(c, order=DEFAULT_ORDER):
        return Poly((c,), order)

    # -- basic queries ------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients as a tuple of `Cyclo`, low degree first."""
        cs = self._coeffs
        if cs is None:
            ratio, order, den = Cyclo._ratio, self.order, self._den
            cs = self._coeffs = tuple([ratio(order, v, den) for v in self._ints])
        return cs

    @property
    def is_rational(self):
        return self._ints is not None

    def as_ints(self):
        """(ints, den) with coefficient i equal to ints[i] / den."""
        if self._ints is None:
            raise CycloError("not a rational polynomial")
        return self._ints, self._den

    @property
    def is_zero(self):
        return self.degree < 0

    @property
    def is_constant(self):
        return self.degree <= 0

    @property
    def leading(self):
        if self.degree < 0:
            raise ValueError("zero polynomial has no leading coefficient")
        if self._ints is None:
            return self._coeffs[-1]
        return Cyclo._ratio(self.order, self._ints[-1], self._den)

    @property
    def is_monic(self):
        if self._ints is None:
            return self._coeffs[-1] == 1
        return self.degree >= 0 and self._ints[-1] == self._den

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        if self._ints is None:
            return self._coeffs[0]
        return Cyclo._ratio(self.order, self._ints[0] if self._ints else 0, self._den)

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._ints is not None and o._ints is not None:
            # rational data compares by value in any field order, like Cyclo
            return self._ints == o._ints and self._den == o._den
        _same_field(self, o)
        return self._ints is None and o._ints is None and self._coeffs == o._coeffs

    def __hash__(self):
        # a constant hashes like its value, as it compares equal to it
        if self.degree <= 0:
            return hash(self.constant_value())
        return hash(self._coeffs if self._ints is None else (self._ints, self._den))

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Cyclo, Fraction)):
            return Poly.constant(other, self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.degree < 0:
            return self
        if self.degree < 0:
            return o
        _same_field(self, o)
        a, b, den = self._ints, o._ints, self._den
        if a is None or b is None:
            a, b, den = self.coeffs, o.coeffs, None
        elif den != o._den:
            g = _int_gcd(den, o._den)
            a = [v * (o._den // g) for v in a]
            b = [v * (den // g) for v in b]
            den = den // g * o._den
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return _from_coeffs(out, self.order) if den is None else _canonical(out, den, self.order)

    __radd__ = __add__

    def __neg__(self):
        if self._ints is None:
            return _from_coeffs([-c for c in self._coeffs], self.order)
        return _make(tuple([-v for v in self._ints]), self._den, self.order)

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
        if self.degree < 0 or o.degree < 0:
            return Poly.zero(self.order)
        _same_field(self, o)
        if self._ints is not None and o._ints is not None:
            return _canonical(_conv(self._ints, o._ints), self._den * o._den, self.order)
        return _from_coeffs(_conv(self.coeffs, o.coeffs, rational(0, self.order)), self.order)

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
        if self._ints is not None:
            r = _ratio_of(c, self.order)
            if r is not None:
                return _canonical([v * r[0] for v in self._ints], self._den * r[1], self.order)
        if not isinstance(c, Cyclo):
            c = rational(c, self.order)
        return _from_coeffs([c * x for x in self.coeffs], self.order)

    def divmod(self, other):
        """Quotient and remainder; requires other nonzero."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.zero(self.order), self
        _same_field(self, other)
        fa, fb = self._ints, other._ints
        if fa is not None and fb is not None:
            q, rem, scale = _pseudo_divmod(fa, fb, _int_step(fb[-1]))
            db, den = other._den, self._den * scale
            return (_canonical([v * db for v in q], den, self.order),
                    _canonical(rem, den, self.order))
        inv = other.leading.inverse()
        q, rem, _ = _pseudo_divmod(self.coeffs, other.coeffs, lambda top: (1, top * inv))
        return _from_coeffs(q, self.order), _from_coeffs(rem, self.order)

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
        if self._ints is None:
            return _from_coeffs([c * i for i, c in enumerate(self._coeffs)][1:], self.order)
        return _canonical([v * i for i, v in enumerate(self._ints)][1:], self._den, self.order)

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
        acc = Poly.zero(self.order)
        for i in range(n, -1, -1):
            acc = acc * p
            c = self._coefficient(i)
            if c:
                acc = acc + (c if unit else q_pows[n - i] * c)
        if degree > n:
            acc = acc * q ** (degree - n)
        return acc

    def _coefficient(self, i):
        """Coefficient i as a constant polynomial."""
        if self._ints is None:
            return Poly((self._coeffs[i],), self.order)
        return _canonical([self._ints[i]], self._den, self.order)

    # -- normalization, gcd -------------------------------------------

    def monic(self):
        if self.is_zero or self.is_monic:
            return self
        a = self._ints
        if a is None:
            inv = self.leading.inverse()
            return _from_coeffs([c * inv for c in self._coeffs], self.order)
        # ints / lead, over gcd(content, lead) = content, signed so den > 0
        lead = a[-1]
        g = _content(a, lead)
        if lead < 0:
            g = -g
        return _make(tuple([v // g for v in a]), lead // g, self.order)

    def rational_content_normalized(self):
        """Divide by a positive rational making integer data small; zero stays zero."""
        if self.degree < 0:
            return self
        num_g = 0
        den_l = 1
        for c in self.coeffs:
            for n in c.num:
                num_g = _int_gcd(num_g, n)
            den_l = den_l * c.den // _int_gcd(den_l, c.den)
        factor = Fraction(den_l, num_g)
        if factor == 1:
            return self
        return _from_coeffs([c * factor for c in self.coeffs], self.order)

    def gcd(self, other):
        a, b = self, other
        if a.is_zero:
            return b.monic()
        if b.is_zero:
            return a.monic()
        _same_field(a, b)
        if a._ints is not None and b._ints is not None:
            ints, lead = _gcd_rational(a._ints, b._ints)
            return _make(ints, lead, a.order)
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


_new = object.__new__


def _make(ints, den, order):
    """The rational polynomial of a canonical (ints, den)."""
    p = _new(Poly)
    p._ints, p._den, p._coeffs, p.order, p.degree = ints, den, None, order, len(ints) - 1
    return p


def _canonical(ints, den, order):
    """The rational polynomial ints / den, for an int list and den != 0."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return _make((), 1, order)
    if den < 0:
        den = -den
        ints = [-v for v in ints]
    if den != 1:
        g = _content(ints, den)
        if g != 1:
            den //= g
            ints = [v // g for v in ints]
    return _make(tuple(ints), den, order)


def _store(p, cs, order):
    """Fill p with the canonical storage of the coefficient list cs: ints,
    Fractions and `Cyclo` elements of the order."""
    while cs and not cs[-1]:
        cs.pop()
    p.order, p.degree = order, len(cs) - 1
    pairs, den = [], 1
    for c in cs:
        if isinstance(c, Cyclo):
            if not c.is_rational:
                p._ints = p._den = None
                p._coeffs = tuple([c if isinstance(c, Cyclo) else rational(c, order) for c in cs])
                return p
            n, d = c.num[0], c.den
        elif isinstance(c, int):
            n, d = c, 1
        else:
            n, d = c.numerator, c.denominator
        pairs.append((n, d))
        if den % d:
            den = den * d // _int_gcd(den, d)
    # reduced terms over their lcm: the content is prime to den
    p._ints, p._den, p._coeffs = tuple([n * (den // d) for n, d in pairs]), den, None
    return p


def _from_coeffs(cs, order):
    """The polynomial of a coefficient list, as `_store` takes it."""
    return _store(_new(Poly), cs, order)


def _same_field(a, b):
    if a.order != b.order and a.degree >= 0 and b.degree >= 0:
        raise CycloError("mismatched cyclotomic orders: %d vs %d" % (a.order, b.order))


def _ratio_of(x, order):
    """(n, d) with x == n / d for an int, a Fraction or a rational `Cyclo`;
    None for anything else."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Cyclo):
        if not x.is_rational:
            return None
        if x.order != order:
            raise CycloError("mismatched cyclotomic orders: %d vs %d" % (order, x.order))
        return x.num[0], x.den
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return None


def _content(ints, g=0):
    """gcd(g, content of ints), stopping at 1."""
    for v in ints:
        g = _int_gcd(g, v)
        if g == 1:
            break
    return g


def _conv(a, b, zero=0):
    """The product of two nonzero coefficient sequences, ints or `Cyclo`,
    summed onto `zero`."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return [v * c for v in a]
    out = [zero] * (len(a) + len(b) - 1)
    for j, bj in enumerate(b):
        if bj:
            for i, ai in enumerate(a, j):
                out[i] += ai * bj
    return out


def _primitive(ints):
    """The primitive part of a nonzero int polynomial, with positive lead."""
    g = _content(ints)
    if ints[-1] < 0:
        g = -g
    return [v // g for v in ints] if g != 1 else ints


def _int_step(lead):
    """The step of an int pseudo-division by a divisor with this lead: the
    least (m, c) with m top = c lead, so numbers grow only as needed."""
    def step(top):
        g = _int_gcd(top, lead)
        return lead // g, top // g
    return step


def _pseudo_divmod(fa, fb, step):
    """(q, rem, scale) with scale fa = q fb + rem and deg rem < deg fb, for
    coefficient lists with deg fa >= deg fb: ints or `Cyclo`.  Each step
    takes (m, c) = step(top) for the top coefficient of rem and sets
    rem <- m rem - c x^k fb; over a field m is 1 and c is top / lead."""
    n = len(fb) - 1
    low = fb[:-1]
    rem, q, scale = list(fa), [], 1
    while len(rem) > n:
        top = rem.pop()
        c = 0
        if top:
            m, c = step(top)
            if m != 1:
                rem = [v * m for v in rem]
                q = [v * m for v in q]
                scale *= m
            k = len(rem) - n
            rem[k:] = [r - c * b if b else r for r, b in zip(rem[k:], low)]
        q.append(c)
    q.reverse()
    return q, rem, scale


def _gcd_rational(fa, fb):
    """The monic gcd of two nonzero int polynomials by a primitive PRS, as
    canonical (ints, lead)."""
    fa, fb = _primitive(fa), _primitive(fb)
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while len(fb) > 1:
        rem = _pseudo_divmod(fa, fb, _int_step(fb[-1]))[1]
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            return tuple(fb), fb[-1]
        fa, fb = fb, _primitive(rem)
    return (1,), 1
