"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are represented on the power basis 1, zeta, ..., zeta^(phi(N)-1)
modulo the N-th cyclotomic polynomial, with a common integer denominator.
The representation is canonical: equal field elements have identical
coefficient vectors.  The default order N = 120 contains i, sqrt(2),
sqrt(3), sqrt(5) and all third, fourth, fifth and eighth roots of unity.

Rational lane.  Every element records at construction whether it is
rational.  When all operands of +, -, *, /, negation or inverse are
rational, the result is computed on the two integers n/d alone: one gcd,
then the cached zero tail of the coefficient vector is appended, so no
phi(N)-entry vector is built or walked.  A lane-built element is
indistinguishable from a normalised one: the same `num`, `den`, `order`,
hash, equality and repr as `Cyclo(order, [n], d)`.  Irrational operands
always take the general vector path.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd

DEFAULT_ORDER = 120


class CycloError(ArithmeticError):
    pass


def _poly_divmod_int(num, den):
    """Exact division of integer polynomials (den monic). Lists, low degree first."""
    num = list(num)
    d = len(den) - 1
    q = [0] * max(0, len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            q[i - d] = c
            for j in range(d + 1):
                num[i - d + j] -= c * den[j]
    while num and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Integer coefficient list (low degree first) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    poly = [0] * n + [1]
    poly[0] = -1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod_int(poly, cyclotomic_polynomial(d))
            assert not r
            poly = q
    return tuple(poly)


def totient(n):
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _zero_tail(n):
    """The phi(n) - 1 zero coefficients that follow a rational element's n/d."""
    return (0,) * (totient(n) - 1)


@lru_cache(maxsize=None)
def _reduction_rows(n):
    """zeta^k on the power basis, for k = deg .. 2*deg-2 (needed after products)."""
    phi_n = cyclotomic_polynomial(n)
    d = len(phi_n) - 1
    rows = []
    # x^d = -(phi - x^d)
    cur = [-c for c in phi_n[:d]]
    rows.append(tuple(cur))
    for _ in range(d - 2):
        prev = rows[-1]
        nxt = [0] * d
        for j, c in enumerate(prev):
            if c:
                if j + 1 < d:
                    nxt[j + 1] += c
                else:
                    top = rows[0]
                    for t, ct in enumerate(top):
                        nxt[t] += c * ct
        rows.append(tuple(nxt))
    return tuple(rows)


class Cyclo:
    """An element of Q(zeta_N), immutable and hashable."""

    __slots__ = ("order", "num", "den", "_rat")

    def __init__(self, order, num, den=1, _normalized=False):
        d = totient(order)
        if not _normalized:
            num = list(num)
            if len(num) < d:
                num += [0] * (d - len(num))
            elif len(num) > d:
                raise ValueError("coefficient vector longer than phi(N)")
            if den < 0:
                den = -den
                num = [-c for c in num]
            elif den == 0:
                raise ZeroDivisionError("zero denominator")
            g = den
            for c in num:
                g = gcd(g, c)
                if g == 1:
                    break
            if g > 1:
                den //= g
                num = [c // g for c in num]
            num = tuple(num)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_rat", not any(num[1:]))

    def __setattr__(self, *a):
        raise AttributeError("Cyclo is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def _ratio(order, n, d):
        """The rational n/d for ints n and d != 0: one gcd, no vector walk."""
        if d < 0:
            n, d = -n, -d
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
        self = _new(Cyclo)
        _set_order(self, order)
        _set_num(self, (n,) + _zero_tail(order))
        _set_den(self, d)
        _set_rat(self, True)
        return self

    @staticmethod
    def from_rational(value, order=DEFAULT_ORDER):
        if type(value) is int:
            return Cyclo._ratio(order, value, 1)
        f = value if isinstance(value, Fraction) else Fraction(value)
        return Cyclo._ratio(order, f.numerator, f.denominator)

    @staticmethod
    def zeta_pow(k, order=DEFAULT_ORDER):
        """zeta_N^k as a field element."""
        k %= order
        d = totient(order)
        if k < d:
            num = [0] * d
            num[k] = 1
            return Cyclo(order, tuple(num), 1, _normalized=True)
        # reduce x^k mod Phi_N by repeated multiplication of a basis row
        e = Cyclo.zeta_pow(d - 1, order)
        for _ in range(k - (d - 1)):
            e = e._mul_zeta()
        return e

    def _mul_zeta(self):
        d = len(self.num)
        shifted = [0] + list(self.num[: d - 1])
        top = self.num[d - 1]
        if top:
            row = _reduction_rows(self.order)[0]
            shifted = [s + top * r for s, r in zip(shifted, row)]
        return Cyclo(self.order, shifted, self.den)

    # -- helpers ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclo):
            if other.order != self.order:
                raise CycloError("mismatched cyclotomic orders: %d vs %d" % (self.order, other.order))
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclo.from_rational(other, self.order)
        return None

    @property
    def is_zero(self):
        return self._rat and not self.num[0]

    @property
    def is_rational(self):
        return self._rat

    def as_fraction(self):
        if not self.is_rational:
            raise CycloError("not a rational element")
        return Fraction(self.num[0], self.den)

    def __bool__(self):
        return not self.is_zero

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._rat and o._rat:
            return Cyclo._ratio(self.order, self.num[0] * o.den + o.num[0] * self.den,
                                self.den * o.den)
        if self.den == o.den:
            return Cyclo(self.order, [a + b for a, b in zip(self.num, o.num)], self.den)
        return Cyclo(
            self.order,
            [a * o.den + b * self.den for a, b in zip(self.num, o.num)],
            self.den * o.den,
        )

    __radd__ = __add__

    def __neg__(self):
        if self._rat:
            return Cyclo._ratio(self.order, -self.num[0], self.den)
        return Cyclo(self.order, tuple(-c for c in self.num), self.den, _normalized=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._rat and o._rat:
            return Cyclo._ratio(self.order, self.num[0] * o.den - o.num[0] * self.den,
                                self.den * o.den)
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
        a, b = self.num, o.num
        if self._rat:
            r = self.num[0]
            if o._rat or r == 0:
                return Cyclo._ratio(self.order, r * b[0], self.den * o.den)
            return Cyclo(self.order, [r * c for c in b], self.den * o.den)
        if o._rat:
            r = o.num[0]
            if r == 0:
                return Cyclo.from_rational(0, self.order)
            return Cyclo(self.order, [r * c for c in a], self.den * o.den)
        d = len(a)
        conv = [0] * (2 * d - 1)
        nz_b = [(j, bj) for j, bj in enumerate(b) if bj]
        for i, ai in enumerate(a):
            if ai:
                for j, bj in nz_b:
                    conv[i + j] += ai * bj
        rows = _reduction_rows(self.order)
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = rows[k - d]
                for t, rt in enumerate(row):
                    if rt:
                        out[t] += c * rt
        return Cyclo(self.order, out, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("division by zero in Q(zeta_%d)" % self.order)
        if self._rat:
            return Cyclo._ratio(self.order, self.den, self.num[0])
        # extended Euclid in Q[x] against Phi_N
        phi_n = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        a = [Fraction(c, self.den) for c in self.num]
        while a and a[-1] == 0:
            a.pop()
        r0, r1 = phi_n, a
        s0, s1 = [], [Fraction(1)]
        while True:
            # r0 = q*r1 + r2
            r2 = list(r0)
            q = [Fraction(0)] * max(1, len(r2) - len(r1) + 1)
            inv_lead = 1 / r1[-1]
            for i in range(len(r2) - 1, len(r1) - 2, -1):
                c = r2[i] * inv_lead
                if c:
                    q[i - (len(r1) - 1)] = c
                    for j, rj in enumerate(r1):
                        r2[i - (len(r1) - 1) + j] -= c * rj
            while r2 and r2[-1] == 0:
                r2.pop()
            s2 = list(s0)
            ql = len(q)
            s2 += [Fraction(0)] * max(0, ql + len(s1) - 1 - len(s2))
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        s2[i + j] -= qi * sj
            while s2 and s2[-1] == 0:
                s2.pop()
            if not r2:
                # r1 is the gcd; must be a nonzero constant
                c = r1[0]
                inv_poly = [s / c for s in s1]
                break
            r0, r1 = r1, r2
            s0, s1 = s1, s2
        d = totient(self.order)
        den = 1
        for f in inv_poly:
            den = den * f.denominator // gcd(den, f.denominator)
        num = [int(f * den) for f in inv_poly] + [0] * (d - len(inv_poly))
        return Cyclo(self.order, num, den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o._rat:
            n = o.num[0]
            if n == 0:
                raise ZeroDivisionError("division by zero in Q(zeta_%d)" % self.order)
            if self._rat:
                return Cyclo._ratio(self.order, self.num[0] * o.den, self.den * n)
            return Cyclo(self.order, [c * o.den for c in self.num], self.den * n)
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclo.from_rational(1, self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- comparisons, hashing, conversion ------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.order, self.num, self.den))

    def __complex__(self):
        z = cmath.exp(2j * cmath.pi / self.order)
        acc = 0j
        p = 1 + 0j
        for c in self.num:
            if c:
                acc += c * p
            p *= z
        return acc / self.den

    def is_root_of_unity(self):
        """True when self generates a finite multiplicative group (order divides 2N)."""
        return not self.is_zero and (self ** (2 * self.order)) == 1

    def __repr__(self):
        from .parsing import cyclo_literal

        return cyclo_literal(self)


_new = object.__new__
# slot setters: build lane elements without the immutability guard
_set_order = Cyclo.order.__set__
_set_num = Cyclo.num.__set__
_set_den = Cyclo.den.__set__
_set_rat = Cyclo._rat.__set__


def rational(value, order=DEFAULT_ORDER):
    return Cyclo.from_rational(value, order)


def zeta(order=DEFAULT_ORDER, power=1):
    return Cyclo.zeta_pow(power, order)


def sqrt2(order=DEFAULT_ORDER):
    if order % 8:
        raise CycloError("sqrt(2) requires 8 | N")
    k = order // 8
    return Cyclo.zeta_pow(k, order) + Cyclo.zeta_pow(-k, order)


def sqrt3(order=DEFAULT_ORDER):
    if order % 12:
        raise CycloError("sqrt(3) requires 12 | N")
    k = order // 12
    return Cyclo.zeta_pow(k, order) + Cyclo.zeta_pow(-k, order)


def sqrt5(order=DEFAULT_ORDER):
    if order % 5:
        raise CycloError("sqrt(5) requires 5 | N")
    k = order // 5
    z = Cyclo.zeta_pow(k, order)
    return z - z * z - z ** 3 + z ** 4


def imag_unit(order=DEFAULT_ORDER):
    if order % 4:
        raise CycloError("i requires 4 | N")
    return Cyclo.zeta_pow(order // 4, order)
