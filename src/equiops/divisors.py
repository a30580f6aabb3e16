"""Divisors on the projective line with exact symbolic places.

A place is the point at infinity or the set of roots of a monic squarefree
polynomial over Q(zeta_N), so a single point is a place of degree 1.  A
divisor is refined once, when it is built: its places are split by gcd into
pairwise coprime ones (factor refinement into a coprime base), so equality,
degrees, multiplicities and supports never need the roots themselves.
"""

from __future__ import annotations

from operator import index

from .cyclotomic import Cyclo, rational
from .poly import Poly
from .ratfn import INF


class Place:
    """The roots of a monic squarefree polynomial, or infinity (poly None),
    without multiplicity."""

    __slots__ = ("poly",)

    def __init__(self, poly=None):
        self.poly = poly

    @staticmethod
    def infinity():
        return Place()

    @staticmethod
    def point(value):
        if not isinstance(value, Cyclo):
            value = rational(value)
        return Place(Poly([-value, 1]))

    @staticmethod
    def bundle(poly):
        """The roots of a squarefree polynomial."""
        return Place(poly.monic())

    @property
    def degree(self):
        return 1 if self.poly is None else self.poly.degree

    def __repr__(self):
        if self.poly is None:
            return "Place(inf)"
        if self.poly.degree == 1:
            return "Place(%r)" % (-self.poly.coeffs[0],)
        return "Place(roots of %r)" % (self.poly,)


class Divisor:
    """Formal integer combination of places, kept refined: `_mult` maps INF
    or a monic squarefree Poly to a nonzero multiplicity, the Polys pairwise
    coprime."""

    def __init__(self, pairs=(), order=None):
        # pairs: iterable of (Place, multiplicity), each multiplicity an int
        self.order = order
        self._mult = _refined({}, [(INF if p.poly is None else p.poly, index(m)) for p, m in pairs])

    @staticmethod
    def _of(mult, order):
        d = Divisor((), order)
        d._mult = mult
        return d

    @staticmethod
    def zero(order=None):
        return Divisor((), order)

    @property
    def degree(self):
        return sum((1 if key == INF else key.degree) * m for key, m in self._mult.items())

    @property
    def is_zero(self):
        return not self._mult

    def __add__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return Divisor._of(_refined(self._mult, other._mult.items()), self.order or other.order)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return self + (-other)

    def scale(self, k):
        k = index(k)  # TypeError for a multiplier that is not an int
        return Divisor._of({key: m * k for key, m in self._mult.items()} if k else {}, self.order)

    def multiplicity_at(self, x):
        """Multiplicity at a single point (Cyclo/int/Fraction or 'inf')."""
        if isinstance(x, str) and x == INF:
            return self._mult.get(INF, 0)
        for key, m in self._mult.items():
            if key != INF:
                val = x if isinstance(x, Cyclo) else rational(x, self.order or key.order)
                if key(val).is_zero:  # the keys are coprime: at most one vanishes
                    return m
        return 0

    def refined_items(self):
        """Support/multiplicity pairs: keys are 'inf' or monic pairwise
        coprime polynomials."""
        return dict(self._mult)

    def support(self):
        """The divisor with multiplicity 1 at each place of the support."""
        return Divisor._of(dict.fromkeys(self._mult, 1), self.order)

    def agrees_with_on_support(self, other):
        """True when other has the same multiplicity as self at every
        place in the support of self."""
        # the two supports meet where their refined sum reaches 2
        return 2 not in (self.support() + (other - self).support())._mult.values()

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return (self - other).is_zero

    def __repr__(self):
        if not self._mult:
            return "Divisor(0)"
        return "Divisor(%s)" % ", ".join("%+d %r" % (m, Place(None if key == INF else key))
                                         for key, m in self._mult.items())


def _refined(coprime, pairs):
    """Factor refinement (Bach, Driscoll and Shallit 1993): merge (key,
    multiplicity) pairs into a refined dict, splitting each polynomial key
    by gcd against the pairwise coprime ones already there."""
    inf = coprime.get(INF, 0)
    out = [(g, n) for g, n in coprime.items() if g != INF]
    for f, m in pairs:
        if f == INF:
            inf += m
            continue
        nxt = []
        for g, n in out:
            if f.degree >= 1:
                h, f, g = f.gcd_cofactors(g)
                if h.degree >= 1:
                    nxt.append((h, n + m))
            if g.degree >= 1:
                nxt.append((g, n))
        if f.degree >= 1:
            nxt.append((f, m))
        out = nxt
    mult = {INF: inf} if inf else {}
    mult.update((g, n) for g, n in out if n)
    return mult


def zero_divisor(f):
    """Divisor of zeros of a rational function, with multiplicities."""
    return _roots(f.num, f.den.degree - f.num.degree, f.order)


def pole_divisor(f):
    """Divisor of poles (positive multiplicities)."""
    return _roots(f.den, f.num.degree - f.den.degree, f.order)


def ramification_divisor(f):
    """Critical points of f weighted by local multiplicity minus one.

    Total degree is 2 deg(f) - 2.
    """
    if f.is_constant or f.is_infinity:
        raise ValueError("ramification of a constant map")
    w = f.wronskian_poly()
    return _roots(w, 2 * f.degree - 2 - w.degree, f.order)


def quadratic_differential_poles(s):
    """Pole divisor of s(z) dz^2 as a quadratic differential.

    In the chart w = 1/z the coefficient picks up w^-4, so the order at
    infinity is 4 + deg num - deg den.
    """
    return _roots(s.den, 4 + s.num.degree - s.den.degree, s.order)


def quadratic_differential_zeros(s):
    """Zero divisor of s(z) dz^2; the order at infinity is
    deg den - deg num - 4 when positive."""
    return _roots(s.num, s.den.degree - s.num.degree - 4, s.order)


def _roots(poly, at_inf, order):
    """The roots of poly with their multiplicities, plus infinity at_inf
    times when that is positive.  The Yun factors are monic, squarefree and
    coprime, so the divisor is refined as it stands."""
    mult = {INF: at_inf} if at_inf > 0 else {}
    mult.update(poly.squarefree_decomposition())
    return Divisor._of(mult, order)
