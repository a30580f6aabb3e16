"""Univariate polynomials over a cyclotomic field.

Storage.  Every polynomial has one layout, `(items, den)`: coefficient i is
items[i] / den, low degree first with no trailing zeros, and zero is
((), 1).  With only rational coefficients the items are ints and den > 0 is
prime to their content, FLINT's fmpq_poly layout.  With any irrational
coefficient the items are the `Cyclo` coefficients themselves, all of the
polynomial's field order, over den = 1.  `coeffs` reads the `Cyclo` tuple
either way: the items, or for ints a view built on first use.  One
normaliser, `_store`, brings every result to this layout and stores a
result whose values all come out rational as ints, so equal values have
equal storage: equality and hashing compare (items, den) directly, and a
constant hashes like its value, so a rational one like its `Fraction`.
The store is shared with `QSeries` (items a dict keyed by exponent):
`_store`, the item view `_item` and the field check `_same_field` serve both.

One path per operation.  Add, neg, scale, mul (a convolution), derivative
and substitute read and write (items, den) alone: ints and `Cyclo` mix in
one list, and `_canonical` sorts out the result, so rational data builds
no `Cyclo`.  A pseudo-division serves divmod and the gcd, and only its step
depends on the storage: over Z it scales the remainder by
lead / gcd(top, lead), no more than exact division needs; over Q(zeta)
divmod subtracts top / lead times the divisor.

Gcd.  `gcd_cofactors(b)` gives (g, a / g, b / g), g monic, and every
reduction by a gcd goes through it; `gcd` is its first part.  Over Z it is
GCDHEU (Char, Geddes and Gonnet 1989; Liao and Fateman 1995): both
primitive parts are evaluated at xi >= 2 min(|a|, |b|) + 29 (max-norms),
the symmetric xi-adic digits of one integer gcd of the values give a
candidate, and the candidate is taken only if it divides both operands
exactly, those quotients being the cofactors.  Else xi grows; after six
tries, and over Z[zeta] always, the gcd is a primitive remainder sequence
(Brown-Collins; Knuth, TAOCP vol. 2, 4.6.1) whose remainders are made
primitive, with a step over Z[zeta] that multiplies by the divisor's lead,
so no field inverse is taken before the final `monic`.

Composition.  `substitute(p, q, degree)` is the one substitution kernel: the
binary form sum c_i p^i q^(degree - i), by Horner in p.  Evaluation at a
polynomial, the Taylor shift, Moebius images of forms and `RatFn.compose`
all call it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, isqrt, lcm as _int_lcm

from .cyclotomic import DEFAULT_ORDER, Cyclo, CycloError, _lift, _normal, _power, rational


class Poly:
    """A polynomial over Q(zeta_order), canonical: equal values have equal
    storage."""

    # coefficient i is _items[i] / _den, see the module docstring; _coeffs
    # caches the Cyclo tuple
    __slots__ = ("_items", "_den", "_coeffs", "order", "degree")

    def __init__(self, coeffs, order=DEFAULT_ORDER):
        cs = list(coeffs)
        field = None
        for c in cs:
            if isinstance(c, Cyclo):
                if field is None:
                    field = order = c.order
                elif c.order != field:
                    raise CycloError("mixed cyclotomic orders in one polynomial: %d vs %d"
                                     % (field, c.order))
        cs = [c if isinstance(c, (int, Cyclo)) else rational(c, order) for c in cs]
        p = _canonical(cs, 1, order)
        self._items, self._den, self._coeffs, self.order, self.degree = \
            p._items, p._den, None, p.order, p.degree

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
        if isinstance(c, Cyclo):
            order = c.order  # its field, as in Poly([c])
        r = _ratio_of(c, order)
        return _canonical([c], 1, order) if r is None else _canonical([r[0]], r[1], order)

    # -- basic queries ------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients as a tuple of `Cyclo`, low degree first."""
        cs = self._coeffs
        if cs is None:
            den, order = self._den, self.order
            cs = self._coeffs = tuple([_item(v, den, order) for v in self._items])
        return cs

    @property
    def is_rational(self):
        return not self._items or isinstance(self._items[-1], int)

    def as_ints(self):
        """(ints, den) with coefficient i equal to ints[i] / den."""
        if not self.is_rational:
            raise CycloError("not a rational polynomial")
        return self._items, self._den

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
        return _item(self._items[-1], self._den, self.order)

    @property
    def is_monic(self):
        return self.degree >= 0 and self._items[-1] == self._den

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return _item(self._items[0] if self._items else 0, self._den, self.order)

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # rational data compares by value in any field order, like Cyclo
        if self.order != o.order and not (self.is_rational and o.is_rational):
            _same_field(self, o)
        return self._den == o._den and self._items == o._items

    def __hash__(self):
        # a constant hashes like its value, as it compares equal to it
        if self.degree <= 0:
            return hash(self.constant_value())
        return hash((self._items, self._den))

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
        a, b, den, d = self._items, o._items, self._den, o._den
        if den != d:  # over den * d; the normaliser takes out the common part
            a, b, den = [v * d for v in a], [v * den for v in b], den * d
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return _canonical(out, den, self.order)

    __radd__ = __add__

    def __neg__(self):
        return _make(tuple([-v for v in self._items]), self._den, self.order)

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
        return _canonical(_conv(self._items, o._items), self._den * o._den, self.order)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, k) if k else Poly.one(self.order)

    def scale(self, c):
        r = _ratio_of(c, self.order)
        if r is None:
            return _canonical([v * c for v in self._items], self._den, self.order)
        return _canonical([v * r[0] for v in self._items], self._den * r[1], self.order)

    def divmod(self, other):
        """Quotient and remainder; requires other nonzero."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.zero(self.order), self
        _same_field(self, other)
        fa, fb = self._items, other._items
        lead = fb[-1]
        if isinstance(lead, int) and isinstance(fa[-1], int):
            step = _int_step
        else:
            inv = (lead if isinstance(lead, Cyclo) else rational(lead, self.order)).inverse()
            step = lambda top, lead: (1, top * inv)  # noqa: E731
        q, rem, scale = _pseudo_divmod(fa, fb, step)
        db, den = other._den, self._den * scale
        return (_canonical([v * db for v in q], den, self.order),
                _canonical(rem, den, self.order))

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
        return _canonical([v * i for i, v in enumerate(self._items)][1:], self._den, self.order)

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
            c = _canonical([self._items[i]], self._den, self.order)
            if c:
                acc = acc + (c if unit else q_pows[n - i] * c)
        if degree > n:
            acc = acc * q ** (degree - n)
        return acc

    # -- normalization, gcd -------------------------------------------

    def monic(self):
        if self.degree < 0 or self.is_monic:
            return self
        return _monic(self._items, self.order)

    def gcd(self, other):
        """The monic gcd; over Z the first part of `gcd_cofactors`."""
        if self.degree < 0 or other.degree < 0:
            return (other if self.degree < 0 else self).monic()
        _same_field(self, other)
        if self.is_rational and other.is_rational:
            return self.gcd_cofactors(other)[0]
        return _monic(_gcd_prs(self._items, other._items, self.order), self.order)

    def gcd_cofactors(self, other):
        """(g, self / g, other / g) for the monic gcd g of two polynomials,
        not both zero: over Z by GCDHEU, whose check divides out the
        cofactors, otherwise the gcd and then exact division."""
        if self.degree >= 0 and other.degree >= 0 and self.is_rational and other.is_rational:
            _same_field(self, other)
            h, qa, qb = _gcd_heuristic(self._items, other._items)
            if len(h) == 1:
                return Poly.one(self.order), self, other
            lead = h[-1]
            return (_canonical(h, lead, self.order),
                    _canonical([v * lead for v in qa], self._den, self.order),
                    _canonical([v * lead for v in qb], other._den, self.order))
        g = self.gcd(other)
        return (g, self, other) if g.degree == 0 else (g, self.exact_div(g), other.exact_div(g))

    def squarefree_decomposition(self):
        """Yun's algorithm: list of (factor, multiplicity), factors monic squarefree."""
        if self.degree < 1:
            return []
        p = self.monic()
        _, b, c = p.gcd_cofactors(p.derivative())
        out, i = [], 1
        while b.degree >= 1:
            f, b, c = b.gcd_cofactors(c - b.derivative())
            if f.degree >= 1:
                out.append((f, i))
            i += 1
        return out

    def is_squarefree(self):
        return self.degree >= 1 and self.gcd(self.derivative()).degree == 0

    def __repr__(self):
        from .parsing import poly_literal

        return poly_literal(self)


_new = object.__new__


def _make(items, den, order):
    """The polynomial of a canonical (items, den)."""
    p = _new(Poly)
    p._items, p._den, p._coeffs, p.order, p.degree = items, den, None, order, len(items) - 1
    return p


def _canonical(items, den, order):
    """The polynomial items / den, for ints and `Cyclo` elements of the order
    (a list, or a tuple without trailing zeros) and an int den != 0."""
    while items and not items[-1]:
        items.pop()
    if not items:
        return _make((), 1, order)
    items, den = _store(items, den, order)
    return _make(tuple(items), den, order)


def _store(values, den, order):
    """The storage form of values / den, for a list of ints and `Cyclo`
    elements of the order and an int den != 0: ints over a den > 0 prime to
    their content, else the `Cyclo` values over 1.  The one normaliser of
    `Poly` and `QSeries`; values that all come out rational are stored as
    ints, so equal values have equal storage."""
    if not values or not isinstance(values[-1], Cyclo):
        try:
            g = _int_gcd(den, *values)
        except TypeError:  # a Cyclo value below an int
            pass
        else:
            if den < 0:
                g = -g
            return ([v // g for v in values], den // g) if g != 1 else (values, den)
    for v in values:
        if isinstance(v, Cyclo) and v._m != 1:
            break
    else:  # all values rational: ints over one denominator
        m = _int_lcm(*[v.den for v in values if isinstance(v, Cyclo)])
        return _store([v._v[0] * (m // v.den) if isinstance(v, Cyclo) else v * m
                       for v in values], den * m, order)
    if den != 1:
        inv = Cyclo._ratio(order, 1, den)
        values = [inv * v for v in values]
    return [_item(v, 1, order) for v in values], 1


def _item(v, den, order):
    """The stored value v over den as a `Cyclo`: the item view of `Poly` and
    `QSeries`."""
    return v if isinstance(v, Cyclo) else Cyclo._ratio(order, v, den)


def _monic(items, order):
    """The monic polynomial of a nonzero item list of one storage."""
    lead = items[-1]
    if isinstance(lead, Cyclo):
        inv = lead.inverse()
        return _canonical([v * inv for v in items], 1, order)
    return _canonical(items, lead, order)


def _same_field(a, b):
    """Reject two nonzero operands (`Poly` or `QSeries`) of different orders."""
    if a.order != b.order and a and b:
        raise CycloError("mismatched cyclotomic orders: %d vs %d" % (a.order, b.order))


def _ratio_of(x, order):
    """(n, d) with x == n / d for an int, a Fraction or a rational `Cyclo` of
    the order; None for an irrational one."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Cyclo):
        if x.order != order:
            raise CycloError("mismatched cyclotomic orders: %d vs %d" % (order, x.order))
        return (x._v[0], x.den) if x._m == 1 else None
    x = x if isinstance(x, Fraction) else Fraction(x)
    return x.numerator, x.denominator


def _conv(a, b):
    """The product of two nonzero coefficient sequences of ints or `Cyclo`."""
    if len(a) < len(b):
        a, b = b, a
    out = [v * b[0] for v in a]
    if len(b) > 1:
        out += [0] * (len(b) - 1)
        for j in range(1, len(b)):
            bj = b[j]
            if bj:
                for i, ai in enumerate(a, j):
                    out[i] += ai * bj
    return out


def _primitive(items, order):
    """A nonzero item list over its content, in one storage: ints divided by
    their gcd with a positive lead, or else `Cyclo` elements (ints among them
    read as rationals) scaled to integer vectors of content 1."""
    try:
        g = _int_gcd(*items)
    except TypeError:  # a Cyclo item
        cs = [_item(v, 1, order) for v in items]
        # the stored vectors at the lcm conductor M: Z[zeta_M] meets each
        # subfield in its own ring of integers, so the content is the same
        M, m = _int_lcm(*[c._m for c in cs]), _int_lcm(*[c.den for c in cs])
        vecs = [[n * (m // c.den) for n in _lift(c._v, c._m, M)] for c in cs]
        g = _int_gcd(*[n for vec in vecs for n in vec])
        return [_normal(order, M, [n // g for n in vec], 1) for vec in vecs]
    if items[-1] < 0:
        g = -g
    return [v // g for v in items] if g != 1 else items


def _int_step(top, lead):
    """The step of an int pseudo-division: the least (m, c) with
    m top = c lead, so numbers grow only as needed."""
    g = _int_gcd(top, lead)
    return lead // g, top // g


def _ring_step(top, lead):
    """The step of a pseudo-division over Z[zeta]: lead rem - top x^k fb."""
    return lead, top


def _pseudo_divmod(fa, fb, step):
    """(q, rem, scale) with scale fa = q fb + rem and deg rem < deg fb, for
    item lists with deg fa >= deg fb.  Each step takes (m, c) =
    step(top, lead) for the top item of rem and the lead of fb and sets
    rem <- m rem - c x^k fb; over a field m is 1 and c is top / lead."""
    n = len(fb) - 1
    low, lead = fb[:-1], fb[-1]
    rem, q, scale = list(fa), [], 1
    while len(rem) > n:
        top = rem.pop()
        c = 0
        if top:
            m, c = step(top, lead)
            if m != 1:
                rem = [v * m for v in rem]
                q = [v * m for v in q]
                scale *= m
            k = len(rem) - n
            rem[k:] = [r - c * b if b else r for r, b in zip(rem[k:], low)]
        q.append(c)
    q.reverse()
    return q, rem, scale


def _xi_start(norm):
    """The first xi of GCDHEU for the smaller max-norm of its operands."""
    return 2 * norm + 29


def _horner(items, xi):
    acc = 0
    for v in reversed(items):
        acc = acc * xi + v
    return acc


def _int_quotient(fa, fb):
    """fa / fb for int lists, fb primitive with a positive lead, or None
    unless fb divides fa: then it does over Z (Gauss), so no step of the
    pseudo-division rescales."""
    q, rem, _ = _pseudo_divmod(fa, fb, _int_step)
    return None if any(rem) else q


def _gcd_heuristic(fa, fb):
    """(h, fa / h, fb / h) for two nonzero int lists, h their primitive gcd
    with a positive lead, by GCDHEU (see the module docstring)."""
    pa, pb = _primitive(fa, None), _primitive(fb, None)
    xi = _xi_start(min(max(map(abs, pa)), max(map(abs, pb))))
    for _ in range(6):
        v, h, half = _int_gcd(_horner(pa, xi), _horner(pb, xi)), [], (xi - 1) // 2
        while v:  # symmetric digits, in (-xi/2, xi/2]
            v, d = divmod(v + half, xi)
            h.append(d - half)
        h = _primitive(h, None)  # the values are nonzero: xi is above every root
        if len(h) == 1:
            return h, fa, fb
        qa, qb = _int_quotient(fa, h), _int_quotient(fb, h)
        if qa is not None and qb is not None:
            return h, qa, qb
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    h = _gcd_prs(pa, pb, None)
    return h, _int_quotient(fa, h), _int_quotient(fb, h)


def _gcd_prs(fa, fb, order):
    """A gcd of two nonzero item lists, up to a unit, by a primitive
    remainder sequence: over Z for ints, over Z[zeta] otherwise."""
    fa, fb = _primitive(fa, order), _primitive(fb, order)
    if len(fa) < len(fb):
        fa, fb = fb, fa
    step = _int_step if isinstance(fa[-1], int) and isinstance(fb[-1], int) else _ring_step
    while len(fb) > 1:
        rem = _pseudo_divmod(fa, fb, step)[1]
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            return fb
        fa, fb = fb, _primitive(rem, order)
    return [1]
