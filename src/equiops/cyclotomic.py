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

Inverse by a norm tower.  Gal(Q(zeta_N)/Q) is (Z/N)^*, sigma_k acting as
zeta -> zeta^k.  Each order caches a chain of subgroups of prime index p
per step, the step generated by one sigma_k.  An irrational element's
integer vector b goes down the chain: a step with sigma_k(b) == b is
skipped (b already lies in the smaller fixed field, which makes Q(i) and
Q(sqrt5) elements cheap), otherwise the cofactor
c = sigma_k(b) sigma_k^2(b) ... sigma_k^(p-1)(b) is collected and b
becomes b*c.  At the bottom b is the rational norm, and the inverse is the
product of the cofactors over it.  All of it is integer arithmetic, with
sigma_k read from one cached table of zeta^j, 0 <= j < N; the same table
gives `zeta_pow` and the reduction rows of products.
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
def _zeta_powers(n):
    """zeta^j for 0 <= j < n on the power basis, as sparse rows ((t, c), ...).

    Built in one shift-and-reduce sweep: zeta^(j+1) is zeta^j shifted up one
    place, a coefficient carried past zeta^(d-1) folded back in through
    zeta^d = zeta^d - Phi_n(zeta), a combination of lower powers.
    """
    phi_n = cyclotomic_polynomial(n)
    d = len(phi_n) - 1
    top = [-c for c in phi_n[:d]]
    cur = [1] + [0] * (d - 1)
    rows = []
    for _ in range(n):
        rows.append(tuple((t, c) for t, c in enumerate(cur) if c))
        carry = cur[-1]
        cur = [0] + cur[:-1]
        if carry:
            cur = [a + carry * r for a, r in zip(cur, top)]
    return tuple(rows)


@lru_cache(maxsize=None)
def _reduction_rows(n):
    """Sparse rows of zeta^k, for k = deg .. 2*deg-2 (needed after products)."""
    d = totient(n)
    powers = _zeta_powers(n)
    return tuple(powers[k % n] for k in range(d, 2 * d - 1))


@lru_cache(maxsize=None)
def _galois_tower(n):
    """Steps (k, p) of a chain {1} = H_0 < H_1 < ... < H_r = (Z/n)^*.

    H_(i+1) is generated by H_i and sigma_k: zeta -> zeta^k, and has prime
    index p over H_i (sigma_k^p lies in H_i).
    """
    sub = {1 % n}
    steps = []
    for g in range(2, n):
        if gcd(g, n) != 1:
            continue
        while g not in sub:
            m, x = 1, g
            while x not in sub:
                x = x * g % n
                m += 1
            p = next(q for q in range(2, m + 1) if m % q == 0)
            k = pow(g, m // p, n)
            sub = {s * pow(k, i, n) % n for s in sub for i in range(p)}
            steps.append((k, p))
    return tuple(steps)


def _mul_vec(a, b, n):
    """Product of two power-basis integer vectors of Q(zeta_n), reduced mod Phi_n."""
    d = len(a)
    conv = [0] * (2 * d - 1)
    nz_b = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in nz_b:
                conv[i + j] += ai * bj
    out = conv[:d]
    for c, row in zip(conv[d:], _reduction_rows(n)):
        if c:
            for t, rt in row:
                out[t] += c * rt
    return out


@lru_cache(maxsize=None)
def _constant_rows(n):
    """(m, c) for each m < 2*deg - 1 whose zeta^m has constant coefficient c != 0."""
    d = totient(n)
    powers = _zeta_powers(n)
    return tuple((m, c) for m in range(2 * d - 1)
                 for t, c in powers[m % n] if t == 0)


def _constant_of_product(a, b, n):
    """The constant coefficient of the product of a and b, alone."""
    d = len(a)
    total = 0
    for m, c in _constant_rows(n):
        lo, hi = max(0, m - d + 1), min(m, d - 1)
        total += c * sum(a[i] * b[m - i] for i in range(lo, hi + 1))
    return total


def _conjugate(a, k, n):
    """sigma_k(a) for the automorphism zeta -> zeta^k, on an integer vector."""
    powers = _zeta_powers(n)
    out = [0] * len(a)
    for j, aj in enumerate(a):
        if aj:
            for t, c in powers[j * k % n]:
                out[t] += aj * c
    return out


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

    def __reduce__(self):
        # rebuild through the constructor: the guard above blocks slot restore
        return (Cyclo, (self.order, self.num, self.den, True))

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
        num = [0] * totient(order)
        for t, c in _zeta_powers(order)[k % order]:
            num[t] = c
        return Cyclo(order, tuple(num), 1, _normalized=True)

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
        return Cyclo(self.order, _mul_vec(a, b, self.order), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("division by zero in Q(zeta_%d)" % self.order)
        if self._rat:
            return Cyclo._ratio(self.order, self.den, self.num[0])
        # Norm tower: down each step (k, p) of the Galois chain, b <- b * c
        # with c = sigma_k(b) ... sigma_k^(p-1)(b), until b is the rational
        # norm of num; then num^-1 is the product of the cofactors c over it.
        n = self.order
        steps = _galois_tower(n)
        b = list(self.num)
        cof = None
        for i, (k, p) in enumerate(steps):
            s = _conjugate(b, k, n)
            if s == b:
                continue  # b already lies in the fixed field of the next step
            c = s
            for _ in range(p - 2):
                s = _conjugate(s, k, n)
                c = _mul_vec(c, s, n)
            cof = c if cof is None else _mul_vec(cof, c, n)
            if i == len(steps) - 1:
                # b * c is the rational norm: its constant coefficient is all
                b = [_constant_of_product(b, c, n)]
            else:
                b = _mul_vec(b, c, n)
        return Cyclo(n, [self.den * c for c in cof], b[0])

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
        if isinstance(other, Cyclo) and self._rat and other._rat:
            # Q lies in every Q(zeta_N): rationals compare by value in any order
            return self.num[0] == other.num[0] and self.den == other.den
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a rational element hashes like the Fraction it equals, in any order
        if self._rat:
            return hash(Fraction(self.num[0], self.den))
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
