"""Divisors on the projective line with exact symbolic places.

A place is either the point at infinity, a single finite point with
coordinate in Q(zeta_N), or a "bundle": a monic squarefree polynomial whose
roots are taken with one common multiplicity.  Equality of divisors never
needs the roots themselves; it refines bundles against each other by gcd
splitting until supports line up.
"""

from __future__ import annotations

from .cyclotomic import Cyclo, rational
from .poly import Poly
from .ratfn import INF


class Place:
    """One point or bundle of points, without multiplicity."""

    __slots__ = ("kind", "data")

    AT_INFINITY = "infinity"
    POINT = "point"
    BUNDLE = "bundle"

    def __init__(self, kind, data=None):
        self.kind = kind
        self.data = data

    @staticmethod
    def infinity():
        return Place(Place.AT_INFINITY)

    @staticmethod
    def point(value):
        if not isinstance(value, Cyclo):
            value = rational(value)
        return Place(Place.POINT, value)

    @staticmethod
    def bundle(poly):
        """Monic squarefree polynomial; degree-1 bundles collapse to points."""
        poly = poly.monic()
        if poly.degree == 1:
            return Place(Place.POINT, -poly.coeffs[0])
        return Place(Place.BUNDLE, poly)

    @property
    def degree(self):
        if self.kind == Place.BUNDLE:
            return self.data.degree
        return 1

    def as_poly(self, order):
        """Monic vanishing polynomial; None for the place at infinity."""
        if self.kind == Place.AT_INFINITY:
            return None
        if self.kind == Place.POINT:
            return Poly.x(order) - Poly.constant(self.data, order)
        return self.data

    def __repr__(self):
        if self.kind == Place.AT_INFINITY:
            return "Place(inf)"
        if self.kind == Place.POINT:
            return "Place(%r)" % (self.data,)
        return "Place(roots of %r)" % (self.data,)


class Divisor:
    """Formal integer combination of places."""

    def __init__(self, pairs=(), order=None):
        # pairs: iterable of (Place, multiplicity)
        self.pairs = [(p, int(m)) for p, m in pairs if int(m) != 0]
        self.order = order

    @staticmethod
    def zero(order=None):
        return Divisor((), order)

    @property
    def degree(self):
        return sum(p.degree * m for p, m in self.pairs)

    @property
    def is_zero(self):
        return self._flatten() == {}

    def __add__(self, other):
        return Divisor(self.pairs + other.pairs, self.order or other.order)

    def __neg__(self):
        return Divisor([(p, -m) for p, m in self.pairs], self.order)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        return Divisor([(p, m * k) for p, m in self.pairs], self.order)

    def multiplicity_at(self, x):
        """Multiplicity at a single point (Cyclo/int/Fraction or 'inf')."""
        total = 0
        for p, m in self.pairs:
            if isinstance(x, str) and x == INF:
                if p.kind == Place.AT_INFINITY:
                    total += m
                continue
            if p.kind == Place.AT_INFINITY:
                continue
            val = x if isinstance(x, Cyclo) else rational(x, self.order or p.data.order)
            if p.kind == Place.POINT:
                if p.data == val:
                    total += m
            else:
                if p.data(val).is_zero:
                    total += m
        return total

    def refined_items(self):
        """Support/multiplicity pairs over a common refinement of all
        bundles: keys are 'inf' or monic pairwise-coprime polynomials."""
        return self._flatten()

    def agrees_with_on_support(self, other):
        """True when other has the same multiplicity as self at every
        place in the support of self."""
        mine = self._flatten()
        diff = (other - self)._flatten()
        for key, m in mine.items():
            if m == 0:
                continue
            if key == INF:
                if diff.get(INF, 0) != 0:
                    return False
                continue
            for k2, m2 in diff.items():
                if k2 == INF or m2 == 0:
                    continue
                if key.gcd(k2).degree >= 1:
                    return False
        return True

    def _flatten(self):
        """Split bundles to a common refinement; map refined place key -> mult.

        Keys are 'inf' or monic irreducible-enough factors (hashable Poly).
        Points become degree-1 polys so they can interact with bundles.
        """
        inf_mult = 0
        polys = []  # list of (Poly monic squarefree, mult)
        order = self.order
        for p, m in self.pairs:
            if p.kind == Place.AT_INFINITY:
                inf_mult += m
                continue
            if order is None:
                order = p.data.order
            polys.append((p.as_poly(order), m))
        # pairwise gcd refinement
        factors = _refine([q for q, _ in polys])
        out = {}
        if inf_mult:
            out[INF] = inf_mult
        for q, m in polys:
            rem = q
            for f in factors:
                if rem.degree < 1:
                    break
                # the factors are pairwise coprime and cover q, so
                # gcd(rem, f) is 1 or f: one division by f decides which
                rest, r = rem.divmod(f)
                if r.is_zero:
                    out[f] = out.get(f, 0) + m
                    rem = rest
        return {k: v for k, v in out.items() if v != 0}

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return (self - other)._flatten() == {}

    def __repr__(self):
        if not self.pairs:
            return "Divisor(0)"
        return "Divisor(%s)" % ", ".join("%+d %r" % (m, p) for p, m in self.pairs)


def _refine(polys):
    """Pairwise-coprime monic factors covering every poly in the list."""
    work = [p for p in polys if p.degree >= 1]
    done = []
    while work:
        f = work.pop()
        split = False
        for i, g in enumerate(done):
            h, f1, g1 = f.gcd_cofactors(g)
            if h.degree >= 1:
                done.pop(i)
                for piece in (h, g1, f1):
                    if piece.degree >= 1:
                        work.append(piece)
                split = True
                break
        if not split:
            done.append(f)
    return done


def zero_divisor(f):
    """Divisor of zeros of a rational function, with multiplicities."""
    return _poly_part(f.num, f.order) + _infinity_part(f.den.degree - f.num.degree, f.order)


def pole_divisor(f):
    """Divisor of poles (positive multiplicities)."""
    return _poly_part(f.den, f.order) + _infinity_part(f.num.degree - f.den.degree, f.order)


def ramification_divisor(f):
    """Critical points of f weighted by local multiplicity minus one.

    Total degree is 2 deg(f) - 2.
    """
    if f.is_constant or f.is_infinity:
        raise ValueError("ramification of a constant map")
    w = f.wronskian_poly()
    d = f.degree
    div = _poly_part(w, f.order)
    at_inf = 2 * d - 2 - w.degree
    if at_inf:
        div = div + Divisor([(Place.infinity(), at_inf)], f.order)
    return div


def quadratic_differential_poles(s):
    """Pole divisor of s(z) dz^2 as a quadratic differential.

    In the chart w = 1/z the coefficient picks up w^-4, so the order at
    infinity is 4 + deg num - deg den.
    """
    div = _poly_part(s.den, s.order)
    at_inf = 4 + s.num.degree - s.den.degree
    if at_inf > 0:
        div = div + Divisor([(Place.infinity(), at_inf)], s.order)
    return div


def quadratic_differential_zeros(s):
    """Zero divisor of s(z) dz^2; the order at infinity is
    deg den - deg num - 4 when positive."""
    div = _poly_part(s.num, s.order)
    at_inf = s.den.degree - s.num.degree - 4
    if at_inf > 0:
        div = div + Divisor([(Place.infinity(), at_inf)], s.order)
    return div


def _poly_part(poly, order):
    pairs = []
    for factor, mult in poly.squarefree_decomposition():
        pairs.append((Place.bundle(factor), mult))
    return Divisor(pairs, order)


def _infinity_part(mult, order):
    if mult > 0:
        return Divisor([(Place.infinity(), mult)], order)
    return Divisor.zero(order)
