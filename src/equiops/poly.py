"""Univariate polynomials over a cyclotomic field.

Storage.  Every polynomial has one layout, `(items, den, m)`: coefficient i
is items[i] / den, low degree first with no trailing zeros; zero is
((), 1, 1).  With rational coefficients only, m = 1 and the items are ints,
FLINT's fmpq_poly layout.  Otherwise each item is a row, the ints of the
coefficient on the power basis of the field of key m (see `cyclotomic`), as
ANTIC's nf_elem (Hart 2015) stores one field element: phi(m) ints on that
of Q(zeta_m) for a conductor m | order, or phi(m) / 2 on that of
theta = zeta_m + zeta_m^-1 for the real key -m.  These are the keys of
`Cyclo`, decided once where a value enters (`cyclotomic._sized`), so a
`Cyclo` enters the store on its own key and a row is read back as a `Cyclo`
on the same key, with no test or change of key either way: Q(sqrt5) data
is two ints a coefficient, not four.  Operands meet at the join of their
keys (`cyclotomic._join`), the lcm of the conductors, a real key only if
both are real.  Either way den > 0 is prime to all the ints.  `coeffs`,
`leading` and `constant_value` are `Cyclo` views built on first use.  One
normaliser, `_store`, brings every result to this layout, with ints for
values that all come out rational, so equal values have equal storage up
to the key: equality meets at the join, and a constant hashes like its
value.  `QSeries` shares the store (items keyed by exponent, irrational
ones as `Cyclo` views over 1): a scalar enters by `_entered`, items move
to a key by `_lifted`, and `_store`, `_item` and `_same_field` serve both.

One path per operation, a branch for ints and one for rows.  Add, neg,
scale, mul, derivative and substitute read and write (items, den, m) alone,
operands meeting at the join of their keys, so no `Cyclo` is built; a
coefficient of a product of rows is summed unreduced and reduced once by
the field polynomial of the key.  A pseudo-division serves divmod and the
gcd: for a rational lead l it scales the remainder by l / gcd(top, l), no
more than exact division needs, and divmod makes an irrational divisor
monic first.  An irrational lead is inverted on its key by the norm tower
of `cyclotomic._norm`, with no `Cyclo` built.  Divmod and the gcd take an
exact scalar as `//` and `%` do.

Gcd.  `gcd_cofactors(b)` gives (g, a / g, b / g), g monic, and every
reduction by a gcd goes through it; `gcd` is its first part.  Over Z it is
GCDHEU (Char, Geddes and Gonnet 1989; Liao and Fateman 1995): both
primitive parts are evaluated at xi >= 2 min(|a|, |b|) + 29 (max-norms),
the symmetric xi-adic digits of one integer gcd of the values give a
candidate, and the candidate is taken only if it divides both operands
exactly, those quotients being the cofactors.  Else xi grows; after six
tries the gcd is a primitive remainder sequence (Brown-Collins; Knuth,
TAOCP vol. 2, 4.6.1).  Over Q(zeta_m) it is a modular gcd (Langemyr and
McCallum 1989; Encarnacion 1995) at the primes p = 1 (mod m), largest
first, where Phi_m has phi(m) roots w and zeta -> w maps Z[zeta_m] onto
F_p; on the real key -m, Psi_m has the phi(m) / 2 roots w + 1/w and
theta -> w + 1/w maps Z[theta] onto F_p, so each prime takes half the
images.  At each root the images of the integer rows have a monic gcd by
Euclid mod p; a prime at which a lead vanishes is skipped.  Both leads
being units there, g has coefficients integral at the prime and reduces to
a divisor of every image gcd: an image of degree 0 proves the operands
coprime, and none has degree below deg g.  An image of the degree of an
operand x makes x / lead(x) the candidate, taken if it divides the other.
Otherwise images of one degree at all the roots give the rows of g mod
p by Lagrange interpolation, primes are joined by CRT, and rational
reconstruction over one common denominator gives a candidate, taken only
if it divides both operands, those quotients being the cofactors.  Images
of a higher degree are dropped as unlucky; a lower degree starts over.

Composition.  `substitute(p, q, degree)` is the one substitution kernel: the
binary form sum c_i p^i q^(degree - i), by Horner in p.  Evaluation at a
polynomial, the Taylor shift, Moebius images of forms and `RatFn.compose`
all call it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, repeat
from math import gcd as _int_gcd, isqrt, lcm as _int_lcm
from operator import mul

from .cyclotomic import (DEFAULT_ORDER, Cyclo, CycloError, _Ring, _accumulate, _dot, _exact, _join,
                         _lift, _norm, _normal, _power, _reduction_rows, _sparse, _split_prime,
                         _split_roots, rational)


class Poly(_Ring):
    """A polynomial over Q(zeta_order), canonical: equal values have equal
    storage at one field key."""

    # coefficient i is _items[i] / _den at field key _m, see the module
    # docstring; _coeffs caches the Cyclo tuple
    __slots__ = ("_items", "_den", "_m", "_coeffs", "order", "degree")

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
        p = _canonical(cs, 1, 1, order)
        self._items, self._den, self._m, self._coeffs, self.order, self.degree = \
            p._items, p._den, p._m, None, p.order, p.degree

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(order=DEFAULT_ORDER):
        return _make((), 1, 1, order)

    @staticmethod
    def one(order=DEFAULT_ORDER):
        return _make((1,), 1, 1, order)

    @staticmethod
    def x(order=DEFAULT_ORDER):
        return _make((0, 1), 1, 1, order)

    @staticmethod
    def constant(c, order=DEFAULT_ORDER):
        order = c.order if isinstance(c, Cyclo) else order  # its field, as in Poly([c])
        v, den, m = _entered(c, order)
        return _make((v,), den, m, order) if v else Poly.zero(order)

    # -- basic queries ------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients as a tuple of `Cyclo`, low degree first."""
        cs = self._coeffs
        if cs is None:
            den, m, order = self._den, self._m, self.order
            cs = self._coeffs = tuple([_item(v, den, m, order) for v in self._items])
        return cs

    @property
    def is_rational(self):
        return self._m == 1

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
        return _item(self._items[-1], self._den, self._m, self.order)

    @property
    def is_monic(self):
        if self.degree < 0:
            return False
        lead = self._items[-1]
        return lead == self._den if self._m == 1 else lead[0] == self._den and not any(lead[1:])

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return _item(self._items[0] if self._items else 0, self._den, self._m, self.order)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # rational data compares by value in any field order, like Cyclo
        if self.order != o.order and not (self.is_rational and o.is_rational):
            _same_field(self, o)
        a, b, _ = _aligned(self, o)  # a value may be stored at two keys
        return self._den == o._den and tuple(a) == tuple(b)

    def __hash__(self):
        # a constant hashes like its value, as it compares equal to it
        if self.degree <= 0:
            return hash(self.constant_value())
        return hash((self._items, self._den) if self._m == 1 else (self.coeffs, 1))

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Cyclo, Fraction)):
            return Poly.constant(other, self.order)
        return None

    def _operand(self, other):
        """The argument of divmod and the gcd as a `Poly`, as `//` and `%`
        take it: TypeError for a float or a foreign type."""
        o = other if isinstance(other, Poly) else self._coerce(other)
        if o is None:
            raise TypeError("a Poly operand must be exact, not %s" % type(other).__name__)
        return o

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.degree < 0:
            return self
        if self.degree < 0:
            return o
        _same_field(self, o)
        a, b, m = (self._items, o._items, self._m) if self._m == o._m else _aligned(self, o)
        den, d = self._den, o._den
        if den != d:  # over den * d; the normaliser takes out the common part
            a, b, den = _scaled(a, repeat(d), m), _scaled(b, repeat(den), m), den * d
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = out[i] + v if m == 1 else [x + y for x, y in zip(out[i], v)]
        return _canonical(out, den, m, self.order)

    __radd__ = __add__

    def __neg__(self):
        if self._m != 1:
            return self.scale(-1)
        return _make(tuple([-v for v in self._items]), self._den, 1, self.order)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.degree < 0 or o.degree < 0:
            return Poly.zero(self.order)
        _same_field(self, o)
        for p, q in ((self, o), (o, self)):
            if p.degree == 0 and p._m == 1:  # a rational constant, often 1: a scaling
                n, d = p._items[0], p._den
                return q if n == d else _canonical(_scaled(q._items, repeat(n), q._m), q._den * d,
                                                   q._m, q.order)
        a, b, m = (self._items, o._items, self._m) if self._m == o._m else _aligned(self, o)
        return _canonical(_conv(a, b, m), self._den * o._den, m, self.order)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, k) if k else Poly.one(self.order)

    def scale(self, c):
        v, den, m = _entered(c, self.order)
        if m != 1:
            return self * _make((v,), den, m, self.order)
        return _canonical(_scaled(self._items, repeat(v), self._m), self._den * den,
                          self._m, self.order)

    def divmod(self, other):
        """Quotient and remainder; requires other nonzero."""
        other = self._operand(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.zero(self.order), self
        _same_field(self, other)
        fa, fb, m = _aligned(self, other)
        if m != 1 and any(fb[-1][1:]):  # an irrational lead: divide by other / lead
            inv = _lead_inverse(other)
            q, rem = self.divmod(other * inv)
            return q * inv, rem
        q, rem, scale = _pseudo_divmod(fa, fb) if m == 1 else _row_divmod(fa, fb, m)
        db, den = other._den, self._den * scale
        return (_canonical(_scaled(q, repeat(db), m), den, m, self.order),
                _canonical(rem, den, m, self.order))

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
        out = _scaled(self._items, range(self.degree + 1), self._m)[1:]
        return _canonical(out, self._den, self._m, self.order)

    def __call__(self, x):
        """Horner evaluation at a Cyclo, Fraction, int or Poly; `dynamics.CxMap`
        evaluates at floats and complex numbers."""
        if isinstance(x, Poly):
            return self.substitute(x, 1, self.degree)
        if isinstance(x, (float, complex)):  # the zero Poly runs no Horner step
            raise TypeError("a Poly evaluates at exact values, not at a %s" % type(x).__name__)
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
            c = _canonical([self._items[i]], self._den, self._m, self.order)
            if c:
                acc = acc + (c if unit else q_pows[n - i] * c)
        if degree > n:
            acc = acc * q ** (degree - n)
        return acc

    # -- normalization, gcd -------------------------------------------

    def monic(self):
        if self.degree < 0 or self.is_monic:
            return self
        return _monic(self._items, self._m, self.order)

    def gcd(self, other):
        """The monic gcd: the first part of `gcd_cofactors`, or the other
        operand made monic when one is zero."""
        other = self._operand(other)
        if self.degree < 0 or other.degree < 0:
            return (other if self.degree < 0 else self).monic()
        return self.gcd_cofactors(other)[0]

    def gcd_cofactors(self, other):
        """(g, self / g, other / g) for the monic gcd g of two polynomials,
        not both zero: GCDHEU over Z, the modular kernel over Q(zeta), each
        dividing out the cofactors in its check."""
        other = self._operand(other)
        if self.degree < 0 or other.degree < 0:
            g = self.gcd(other)
            return (g, self, other) if g.degree == 0 else (g, self.exact_div(g), other.exact_div(g))
        _same_field(self, other)
        if not (self.is_rational and other.is_rational):
            return _modular_gcd(self, other)
        h, qa, qb = _gcd_heuristic(self._items, other._items)
        if len(h) == 1:
            return Poly.one(self.order), self, other
        lead = h[-1]
        return (_canonical(h, lead, 1, self.order),
                _canonical([v * lead for v in qa], self._den, 1, self.order),
                _canonical([v * lead for v in qb], other._den, 1, self.order))

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


def _make(items, den, m, order):
    """The polynomial of a canonical (items, den, m)."""
    p = _new(Poly)
    p._items, p._den, p._m, p._coeffs, p.order, p.degree = \
        items, den, m, None, order, len(items) - 1
    return p


def _canonical(items, den, m, order):
    """The polynomial items / den, for ints and `Cyclo` elements of the order
    (m = 1) or rows at field key m (a list, or a tuple without trailing
    zeros) and an int den != 0."""
    while items and not (items[-1] if m == 1 else any(items[-1])):
        items.pop()
    if not items:
        return _make((), 1, 1, order)
    items, den, m = _store(items, den, m)
    return _make(tuple(items), den, m, order)


def _store(values, den, m=1):
    """The storage form (values, den, m) of values / den, for an int den != 0
    and ints (m = 1) or rows of phi(m) ints; `Cyclo` values enter as rows
    (`_rows`).  The one normaliser of `Poly` and `QSeries`: den > 0 prime to
    all the ints, tuple rows, and values that all come out rational stored
    as ints, m = 1, so equal values have equal storage."""
    if m != 1 and not any(any(r[1:]) for r in values):
        values, m = [r[0] for r in values], 1
    if m == 1:
        try:
            g = _int_gcd(den, *values)
        except TypeError:  # Cyclo values entering: rows at the join of their keys
            return _store(*_rows(values, den))
        g = -g if den < 0 else g
        return ([v // g for v in values], den // g, 1) if g != 1 else (values, den, 1)
    g = den
    for r in values:
        if g in (1, -1):  # den is often 1 already
            break
        g = _int_gcd(g, *r)
    g = -abs(g) if den < 0 else abs(g)
    return [tuple([x // g for x in r]) if g != 1 else tuple(r) for r in values], den // g, m


def _rows(values, den):
    """(rows, den, m) for values / den, ints and `Cyclo` elements: the rows
    at the join m of their keys over one den (ints if m = 1)."""
    entered = [_entered(c, c.order) if isinstance(c, Cyclo) else (c, 1, 1) for c in values]
    m, d = 1, _int_lcm(*[e for _, e, _ in entered])
    for _, _, k in entered:
        if k != m:
            m = _join(m, k)
    if m == 1:
        return [v * (d // e) for v, e, _ in entered], den * d, 1
    rows = [_lift((v,) if k == 1 else v, k, m) for v, _, k in entered]
    return [r if e == d else [x * (d // e) for x in r]
            for r, (_, e, _) in zip(rows, entered)], den * d, m


def _item(v, den, m, order):
    """The stored value v (an int for m = 1, else a row at field key m) over
    den as a `Cyclo` on the same key: the item view of `Poly` and `QSeries`."""
    return Cyclo._ratio(order, v, den) if m == 1 else _normal(order, m, v, den)


def _aligned(a, b):
    """(x, y, m): the items of two polynomials at the join m of their keys,
    ints if m = 1, else tuple rows."""
    m = _join(a._m, b._m)
    x, y = [p._items if p._m == m else _lifted(p._items, p._m, m) for p in (a, b)]
    return x, y, m


def _lifted(values, k, m):
    """Stored values at field key k (ints if k = 1, else rows) as tuple rows
    at key m, a field holding k's: the one lift of the store."""
    return [tuple(_lift((v,) if k == 1 else v, k, m)) for v in values]


def _scaled(items, cs, m):
    """The items times the ints cs, one each."""
    return ([v * c for v, c in zip(items, cs)] if m == 1
            else [[x * c for x in v] for v, c in zip(items, cs)])


def _monic(items, m, order):
    """The monic polynomial of a nonzero item list at field key m."""
    lead = items[-1]
    if m == 1 or not any(lead[1:]):
        return _canonical(items, lead if m == 1 else lead[0], m, order)
    c, norm = _norm(lead, m)  # lead c = norm
    return _canonical(_conv(items, [c], m), norm, m, order)


def _lead_inverse(p):
    """The constant polynomial 1 / lead(p) for a nonzero p: den c / N for an
    irrational lead v / den at p's key, v c = N its norm there."""
    v, den, m = p._items[-1], p._den, p._m
    if m == 1 or not any(v[1:]):
        return _canonical([den], v if m == 1 else v[0], 1, p.order)
    c, norm = _norm(v, m)
    return _canonical([[den * x for x in c]], norm, m, p.order)


def _same_field(a, b):
    """Reject two nonzero operands (`Poly` or `QSeries`) of different orders."""
    if a.order != b.order and a and b:
        raise CycloError("mismatched cyclotomic orders: %d vs %d" % (a.order, b.order))


def _entered(c, order):
    """The stored form (v, den, m) of an exact scalar c of the order: an int
    over den at m = 1 if c is rational, else its row on its key m, which
    `Cyclo` decided where it entered.  The one scalar entry of `Poly` and
    `QSeries`."""
    if isinstance(c, int):
        return c, 1, 1
    if isinstance(c, Cyclo):
        if c.order != order:
            raise CycloError("mismatched cyclotomic orders: %d vs %d" % (order, c.order))
        return (c._v[0], c.den, 1) if c._m == 1 else (c._v, c.den, c._m)
    c = c if isinstance(c, Fraction) else _exact(c)
    return c.numerator, c.denominator, 1


def _conv(a, b, m=1):
    """The product of two nonzero item lists: ints, or rows at field key m
    whose products are summed unreduced and reduced once per coefficient."""
    if len(a) < len(b):
        a, b = b, a
    if m != 1:
        d, a = len(a[0]), [[(t, x) for t, x in enumerate(v) if x] for v in a]
        out = [[0] * (2 * d - 1) for _ in range(len(a) + len(b) - 1)]
        for j, bj in enumerate(b):
            bj = [(t, x) for t, x in enumerate(bj) if x]
            for acc, ai in zip(out[j:], a):
                for s, x in ai:
                    for t, y in bj:
                        acc[s + t] += x * y
        return [_accumulate(v[:d], v[d:], _reduction_rows(m)) for v in out]
    out = [v * b[0] for v in a]
    if len(b) > 1:
        out += [0] * (len(b) - 1)
        for j in range(1, len(b)):
            bj = b[j]
            if bj:
                for i, ai in enumerate(a, j):
                    out[i] += ai * bj
    return out


def _primitive(items):
    """A nonzero int list over its content: divided by the gcd of its ints,
    with a positive lead."""
    g = _int_gcd(*items)
    if items[-1] < 0:
        g = -g
    return [v // g for v in items] if g != 1 else items


def _pseudo_divmod(fa, fb):
    """(q, rem, scale) with scale fa = q fb + rem and deg rem < deg fb, for
    int lists with deg fa >= deg fb.  Each step takes the least (m, c) with
    m top = c lead for the top item of rem and the lead of fb, and sets
    rem <- m rem - c x^k fb, so numbers grow only as needed."""
    n = len(fb) - 1
    low, lead = fb[:-1], fb[-1]
    rem, q, scale = list(fa), [], 1
    while len(rem) > n:
        top = rem.pop()
        c = 0
        if top:
            g = _int_gcd(top, lead)
            m, c = lead // g, top // g
            if m != 1:
                rem = [v * m for v in rem]
                q = [v * m for v in q]
                scale *= m
            k = len(rem) - n
            rem[k:] = [r - c * b if b else r for r, b in zip(rem[k:], low)]
        q.append(c)
    q.reverse()
    return q, rem, scale


def _row_divmod(fa, fb, n):
    """`_pseudo_divmod` of rows at field key n, for fb with a rational lead;
    the divisor's rows are made sparse once, each product reduced once."""
    lead, k0, low = fb[-1][0], len(fb) - 1, [_sparse(r) for r in fb[:-1]]
    rem, q, scale = list(fa), [], 1
    while len(rem) > k0:
        top = rem.pop()
        if any(top):
            g = _int_gcd(lead, *top)
            top, s = [x // g for x in top], lead // g
            if s != 1:
                rem, q, scale = _scaled(rem, repeat(s), n), _scaled(q, repeat(s), n), scale * s
            less = [(t, -x) for t, x in enumerate(top) if x]
            for i, row in enumerate(low, len(rem) - k0):
                rem[i] = _dot(rem[i], [(less, row)], n)
        q.append(top)
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
    q, rem, _ = _pseudo_divmod(fa, fb)
    return None if any(rem) else q


def _gcd_heuristic(fa, fb):
    """(h, fa / h, fb / h) for two nonzero int lists, h their primitive gcd
    with a positive lead, by GCDHEU (see the module docstring)."""
    pa, pb = _primitive(fa), _primitive(fb)
    xi = _xi_start(min(max(map(abs, pa)), max(map(abs, pb))))
    for _ in range(6):
        v, h, half = _int_gcd(_horner(pa, xi), _horner(pb, xi)), [], (xi - 1) // 2
        while v:  # symmetric digits, in (-xi/2, xi/2]
            v, d = divmod(v + half, xi)
            h.append(d - half)
        h = _primitive(h)  # the values are nonzero: xi is above every root
        if len(h) == 1:
            return h, fa, fb
        qa, qb = _int_quotient(fa, h), _int_quotient(fb, h)
        if qa is not None and qb is not None:
            return h, qa, qb
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    h = _gcd_prs(pa, pb)
    return h, _int_quotient(fa, h), _int_quotient(fb, h)


def _gcd_prs(fa, fb):
    """The primitive gcd of two nonzero int lists by a primitive remainder
    sequence, GCDHEU's fallback."""
    fa, fb = _primitive(fa), _primitive(fb)
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while len(fb) > 1:
        rem = _pseudo_divmod(fa, fb)[1]
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            return fb
        fa, fb = fb, _primitive(rem)
    return fb


def _modular_gcd(a, b):
    """`gcd_cofactors` of two nonzero polynomials over the field of key
    m != 1, the join of their keys, from images at split primes (see the module
    docstring)."""
    fa, fb, m = _aligned(a, b)
    low = min(a.degree, b.degree)
    x, y = (b, a) if b.degree == low else (a, b)
    bound, tried, residues, modulus = low, False, None, 1
    for p in map(_split_prime, repeat(m), count()):
        powers, lagrange = _split_roots(m, p)
        images = []
        for w in powers:
            ia, ib = _image(fa, w, p), _image(fb, w, p)
            if not (ia[-1] and ib[-1]):  # a lead vanishes: skip the prime
                break
            h = _gcd_mod(ia, ib, p)
            d = len(h) - 1
            if d == 0:  # certified: the monic gcd reduces to a divisor of h
                return Poly.one(a.order), a, b
            if d > bound:  # unlucky
                break
            if d < bound:
                bound, residues, modulus = d, None, 1
                if images:  # the roots before were unlucky
                    break
            if d == low and not tried:  # x / lead(x) may be the gcd
                tried, g = True, x.monic()
                q = _exact_quotient(y, g)
                if q is not None:
                    c = _canonical([x._items[-1]], x._den, x._m, x.order)  # lead(x)
                    return (g, c, q) if x is a else (g, q, c)
                bound = d - 1
                break
            images.append(h[:-1])
        else:  # one degree at every root: rows mod p, then CRT
            rows = [sum(map(mul, t, vs)) % p for vs in zip(*images) for t in lagrange]
            if residues is None:
                residues = rows
            else:
                s = pow(modulus, -1, p)
                residues = [r + modulus * ((v - r) * s % p) for r, v in zip(residues, rows)]
            modulus *= p
            g = _reconstruct(residues, modulus, len(lagrange), m, a.order)
            if g is not None:
                qa = _exact_quotient(a, g)
                qb = None if qa is None else _exact_quotient(b, g)
                if qb is not None:
                    return g, qa, qb


def _image(rows, powers, p):
    """The rows' values mod p at the root whose powers are given."""
    return [sum(map(mul, r, powers)) % p for r in rows]


def _gcd_mod(a, b, p):
    """The monic gcd mod p of two int lists with nonzero leads, by Euclid."""
    while b:
        inv, n, a = pow(b[-1], -1, p), len(b) - 1, list(a)
        while len(a) > n:
            c = a.pop() * inv % p
            if c:
                k = len(a) - n
                a[k:] = [(u - c * v) % p for u, v in zip(a[k:], b)]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [v * inv % p for v in a]


def _reconstruct(residues, modulus, width, m, order):
    """The monic polynomial whose low coefficients have, in turn, the rows
    of the given width of the residues mod the modulus, by rational
    reconstruction over one common denominator; None if it fails."""
    half, den, nums = isqrt(modulus // 2), 1, []
    for v in residues:
        r0, r1, t0, t1 = modulus, v * den % modulus, 0, 1
        while r1 > half:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if abs(t1) > half:
            return None
        if t1 != 1:  # r1 / t1 = v den: a larger denominator
            nums, den = [u * abs(t1) for u in nums], den * abs(t1)
        nums.append(r1 if t1 > 0 else -r1)
    if den > half:
        return None
    rows = [nums[i:i + width] for i in range(0, len(nums), width)]
    rows.append([den] + [0] * (width - 1))
    return _canonical(rows, den, m, order)


def _exact_quotient(a, g):
    """a / g, or None unless g divides a."""
    q, r = a.divmod(g)
    return None if r else q
