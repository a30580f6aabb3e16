"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Conductor storage.  An element of Q(zeta_N) is stored at a conductor m | N:
phi(m) ints on the power basis of Q(zeta_m), zeta_m = zeta_N^(N/m), over
one positive denominator prime to their content.  `order` is N, the field
the user works in, and operands of different orders are rejected.  Operands
of different conductors are embedded into their lcm, and a result keeps
that conductor with no search, except that a zero tail makes it rational:
the rational lane is the case m = 1, n/d stored as (n,) over d, so +, -, *,
/ and inverse of rationals are one gcd.  The least conductor is searched
for only where data enters, the public constructor `Cyclo(order, num, den)`
and the parser's constants, one prime at a time; `zeta_pow` knows it.  At
N = 120, i, sqrt(2), sqrt(3), sqrt(5) and zeta_3 live at conductors 4, 8,
12, 5 and 3.  `num` is the vector at N, built on first read; Z[zeta_N]
meets Q(zeta_m) in Z[zeta_m], so den is the same at every conductor and
(order, num, den) is canonical: hashing, equality and printing use it.
`_normal` brings one vector to this form; routed through `poly._store`,
the normaliser of `Poly` and `QSeries` rows, a call took a third longer.

Field keys.  The tables (`totient`, the reduction rows, the embeddings of
`_lift`, the roots at split primes and the projector of `_in_subfield`)
are keyed by one int: a conductor m for Q(zeta_m), or -m for its real
subfield Q(zeta_m)+ on the power basis of theta = zeta_m + zeta_m^-1,
reduced by theta's minimal polynomial Psi_m.  For m = 5 that is
theta^2 + theta - 1, and sqrt(5) = 1 + 2 theta.  `Cyclo` is stored at
conductors alone; the row store of `poly` uses both kinds of key.

Inverse by a norm tower.  Gal(Q(zeta_m)/Q) is (Z/m)^*, sigma_k acting as
zeta -> zeta^k, and Gal(Q(zeta_m)+/Q) is (Z/m)^* / {1, -1}.  Each field key
caches a chain of subgroups of prime index p per step, the step generated
by one sigma_k.  An irrational element's integer vector b goes down the
chain (`_norm`): a step with sigma_k(b) == b is skipped (b lies in the
smaller fixed field already), otherwise the cofactor
c = sigma_k(b) ... sigma_k^(p-1)(b) is collected and b becomes b*c.  At the
bottom b is the rational norm, and the inverse is the product of the
cofactors over it.  `Cyclo.inverse` takes it at the conductor, the row
store of `poly` at the key of its rows.  Conjugates, products, embeddings
and `zeta_pow` all read one cached table of zeta^j, 0 <= j < m.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from numbers import Rational

DEFAULT_ORDER = 120


class CycloError(ArithmeticError):
    pass


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Integer coefficient list (low degree first) of the n-th cyclotomic polynomial."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1, divided by Phi_d for d | n, d < n
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_polynomial(d)
            k = len(den) - 1
            q = [0] * (len(poly) - k)
            for i in range(len(poly) - 1, k - 1, -1):  # den is monic
                q[i - k] = c = poly[i]
                for j in range(k + 1):
                    poly[i - k + j] -= c * den[j]
            poly = q
    return tuple(poly)


@lru_cache(maxsize=None)
def _field_polynomial(k):
    """The minimal polynomial of the generator of field key k: Phi_k for
    k > 0; for k = -m, Psi_m, that of theta = zeta_m + zeta_m^-1.  Phi_m is
    palindromic of degree 2h, x^-h Phi_m(x) = a_h + sum_(j>0) a_(h+j) D_j(theta)
    for the Dickson polynomials D_j(x + 1/x) = x^j + x^-j."""
    if k > 0:
        return cyclotomic_polynomial(k)
    a = cyclotomic_polynomial(-k)
    h = len(a) // 2
    psi, prev, cur = [a[h]] + [0] * h, [2], [0, 1]  # D_0, D_1
    for j in range(1, h + 1):
        for t, c in enumerate(cur):
            psi[t] += a[h + j] * c
        prev, cur = cur, [x - y for x, y in zip([0] + cur, prev + [0, 0])]
    return tuple(psi)


def totient(n):
    """The degree of field key n: phi(n), or phi(m) / 2 for n = -m."""
    return len(_field_polynomial(n)) - 1


def _powers_mod(poly, count):
    """x^j for 0 <= j < count mod a monic int polynomial, as sparse rows
    ((t, c), ...): each is the last shifted up, a carry past x^(d-1)
    reduced by poly."""
    top = [-c for c in poly[:-1]]
    cur = [1] + [0] * (len(top) - 1)
    rows = []
    for _ in range(count):
        rows.append(tuple((t, c) for t, c in enumerate(cur) if c))
        carry = cur[-1]
        cur = [0] + cur[:-1]
        if carry:
            cur = [a + carry * r for a, r in zip(cur, top)]
    return tuple(rows)


@lru_cache(maxsize=None)
def _zeta_powers(n):
    """zeta^j for 0 <= j < n on the power basis, as sparse rows."""
    return _powers_mod(cyclotomic_polynomial(n), n)


@lru_cache(maxsize=None)
def _reduction_rows(n):
    """Sparse rows of the generator's powers k = deg .. 2*deg-2 at field key
    n (needed after products)."""
    d = totient(n)
    return _powers_mod(_field_polynomial(n), 2 * d - 1)[d:]


def _is_prime(n):
    """Miller-Rabin with the bases 2, 7 and 61, deterministic for n < 2^32."""
    if n < 2 or any(n % q == 0 for q in (2, 3, 5, 7, 61)):
        return n in (2, 3, 5, 7, 61)
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _split_prime(k, i):
    """The i-th largest prime p = 1 (mod m) below 2^31 for field key k = m
    or -m, found when first asked for: the field polynomial has distinct
    roots mod p."""
    m = abs(k)
    p = (2 ** 31 - 2) // m * m + 1 if i == 0 else _split_prime(m, i - 1) - m
    while not _is_prime(p):
        p -= m
    return p


@lru_cache(maxsize=None)
def _split_roots(k, p):
    """(powers, lagrange) for the roots r of the field polynomial P of key k
    mod a split prime p, w^j for a primitive m-th root w and j prime to m,
    or w^j + w^-j, j <= m / 2, for k = -m: powers[i] is (r^0, ..., r^(d-1))
    for the i-th root, so a row's value there is its dot product with it,
    and lagrange[t] holds coordinate t of the Lagrange basis
    P / ((x - r) P'(r)) for each r, so a row is the dot product of
    lagrange[t] with its values."""
    m, phi = abs(k), [c % p for c in _field_polynomial(k)]
    d, primes = len(phi) - 1, [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
    w = next(w for w in (pow(g, (p - 1) // m, p) for g in range(2, p))
             if all(pow(w, m // q, p) != 1 for q in primes))
    roots = ([pow(w, j, p) for j in range(1, m + 1) if gcd(j, m) == 1] if k > 0 else
             [(pow(w, j, p) + pow(w, -j, p)) % p for j in range(1, m // 2 + 1) if gcd(j, m) == 1])
    powers, columns = [], []
    for r in roots:
        powers.append(tuple(pow(r, t, p) for t in range(d)))
        col, c = [0] * d, 0
        for t in range(d, 0, -1):  # P / (x - r), top down
            col[t - 1] = c = (phi[t] + c * r) % p
        s = pow(sum(x * y for x, y in zip(col, powers[-1])), -1, p)
        columns.append([x * s % p for x in col])
    return tuple(powers), tuple(zip(*columns))


@lru_cache(maxsize=None)
def _galois_tower(n):
    """Steps (k, p) of a chain H_0 < ... < H_r = (Z/m)^* for field key n, m
    = |n|: H_0 = {1} for a conductor n = m, {1, -1} (which fixes the real
    subfield) for n = -m; H_(i+1) is generated by H_i and sigma_k, and has
    prime index p over H_i."""
    m = abs(n)
    sub = {1 % m, -1 % m} if n < 0 else {1 % m}
    steps = []
    for g in range(2, m):
        if gcd(g, m) != 1:
            continue
        while g not in sub:
            e, x = 1, g
            while x not in sub:
                x = x * g % m
                e += 1
            p = next(q for q in range(2, e + 1) if e % q == 0)
            k = pow(g, e // p, m)
            sub = {s * pow(k, i, m) % m for s in sub for i in range(p)}
            steps.append((k, p))
    return tuple(steps)


def _norm(v, n):
    """(c, N) with v c = N, a nonzero int, for an irrational integer vector
    v at field key n: down each step (k, p) of the Galois chain b <- b c,
    with c = sigma_k(b) ... sigma_k^(p-1)(b), to the rational norm b."""
    b, cof = list(v), None
    for k, p in _galois_tower(n):
        s = _conjugate(b, k, n)
        if s == b:
            continue  # b already lies in the fixed field of the next step
        c = s
        for _ in range(p - 2):
            s = _conjugate(s, k, n)
            c = _mul_vec(c, s, n)
        cof = c if cof is None else _mul_vec(cof, c, n)
        b = _mul_vec(b, c, n)
    return cof, b[0]


def _accumulate(out, v, rows):
    """out + sum_j v_j rows_j, in place, for sparse rows ((t, c), ...)."""
    for vj, row in zip(v, rows):
        if vj:
            for t, c in row:
                out[t] += vj * c
    return out


@lru_cache(maxsize=None)
def _power_rows(n, k, count):
    """The rows at field key n of g^j, j < count: for a conductor n,
    g = zeta_n^k (sigma_k, or the embedding of Q(zeta_(n/k)) for k | n); for
    n = -m, g = zeta_m^k + zeta_m^-k, sigma_k(theta) on the real subfield."""
    if n > 0:
        return tuple(_zeta_powers(n)[j * k % n] for j in range(count))
    z = _zeta_powers(-n)
    return _powers_of(_in_subfield(_accumulate([0] * totient(-n), [1, 1], [z[k], z[-k]]), n, -n),
                      n, count)


def _powers_of(g, n, count):
    """The sparse rows of g^j, j < count, for a vector g at field key n."""
    rows = [[1] + [0] * (len(g) - 1)]
    for _ in range(count - 1):
        rows.append(_mul_vec(rows[-1], g, n))
    return tuple(tuple(_sparse(r)) for r in rows)


def _mul_vec(a, b, n):
    """The product of two integer vectors at field key n, b of length
    totient(n)."""
    return _dot([0] * len(b), [(_sparse(a), _sparse(b))], n)


def _dot(v, pairs, n):
    """v plus the products x y of pairs of sparse vectors ((t, c), ...) at
    field key n, v of length totient(n): summed unreduced, reduced once by
    the field polynomial of the key."""
    d = len(v)
    acc = [*v, *[0] * (d - 1)]
    for x, y in pairs:
        for s, a in x:
            for t, b in y:
                acc[s + t] += a * b
    return _accumulate(acc[:d], acc[d:], _reduction_rows(n))


def _sparse(v):
    """The nonzero entries (t, c) of an integer vector."""
    return [(t, c) for t, c in enumerate(v) if c]


def _conjugate(a, k, n):
    """sigma_k(a) for the automorphism zeta -> zeta^k, on an integer vector
    at field key n."""
    return _accumulate([0] * len(a), a, _power_rows(n, k, len(a)))


@lru_cache(maxsize=None)
def _embedding(k, n):
    """The sparse rows at field key n of the basis of a subfield of key k:
    the powers of zeta_k, or of theta = zeta_m + zeta_m^-1 for k = -m, which
    is zeta^r + zeta^-r at a conductor n = r m; at a real key n, the rows at
    the conductor -n read on its basis."""
    if k > 0 and n > 0:
        return _power_rows(n, n // k, totient(k))
    if n < 0:
        w = totient(-n)
        return tuple(tuple(_sparse(_in_subfield(_accumulate([0] * w, [1], [row]), n, -n)))
                     for row in _embedding(k, -n))
    z, r = _zeta_powers(n), n // -k
    return _powers_of(_accumulate([0] * totient(n), [1, 1], [z[r], z[-r]]), n, totient(k))


def _lift(v, m, n):
    """The vector v at field key m as a vector at key n, a field holding it:
    for conductors, m | n."""
    return v if m == n else _accumulate([0] * totient(n), v, _embedding(m, n))


@lru_cache(maxsize=None)
def _projector(d, m):
    """(checks, columns, D) for the subfield of key d at key m, as sparse
    rows over the vector x at m: x lies in the subfield iff x . f = 0 for
    every f of checks, and coordinate j of its vector at d is then
    x . columns[j] / D.
    Gauss-Jordan takes [E | I], E the embedding, to [R | T] with R = T E the
    identity on the pivot columns: x in the subfield is x[cols] R, its
    vector x[cols] T."""
    w = totient(m)
    rows = [{t: Fraction(c) for t, c in row} | {w + j: Fraction(1)}
            for j, row in enumerate(_embedding(d, m))]
    cols = []
    for row in rows:
        c = min(t for t, x in row.items() if x)  # below w: E has full rank
        p = row[c]
        row.update((t, x / p) for t, x in list(row.items()))
        for other in rows:
            f = other.get(c) if other is not row else 0
            if f:
                for t, x in row.items():
                    other[t] = other.get(t, 0) - f * x
        cols.append(c)
    big = lcm(*[x.denominator for row in rows for x in row.values()])
    rows = [{t: int(x * big) for t, x in row.items() if x} for row in rows]

    def spread(t, own=None):  # column t of big [R | T] read off x[cols], less big x[own]
        f = [0] * w
        for c, row in zip(cols, rows):
            f[c] = row.get(t, 0)
        if own is not None:
            f[own] -= big
        return tuple(_sparse(f))
    return (tuple(spread(c, c) for c in range(w) if c not in cols),
            tuple(spread(w + j) for j in range(len(rows))), big)


def _in_subfield(x, d, m):
    """The vector at key d of the vector x at key m, or None unless x lies
    in the subfield of key d: the one projection, for the least conductor of
    `Cyclo` and the real keys of `poly`."""
    checks, columns, big = _projector(d, m)
    for f in checks:
        if sum([x[t] * c for t, c in f]):
            return None
    return [sum([x[t] * c for t, c in f]) // big for f in columns]


class _Immutable:
    """The guard of the exact value types: their verdicts compare stored
    fields, so no field is assigned or deleted once built.  Builders set
    slots past it (`_set`, slot descriptors); a guarded type pickles by a
    `__reduce__`, since pickle and deepcopy restore slots by setattr.  The
    operator protocol of the ring types is `_Ring` and `_Field` below."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__


# sets a slot of a new immutable value
_set = object.__setattr__


class _Ring:
    """The operator protocol of the ring value types, from each type's own
    `_coerce` (an operand as a value of the type, None for a foreign one),
    `+`, unary `-` and `is_zero`: a foreign operand gets `NotImplemented`.
    Slot-less, so a type inherits it without the guard (`Poly`)."""

    __slots__ = ()

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o - self

    def __bool__(self):
        return not self.is_zero


class _Field(_Ring):
    """The ring protocol plus the reflected quotient, from `/`, and integer
    powers by `_power`, through `inverse` for k < 0; x ** 0 is the coerced 1."""

    __slots__ = ()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k) if k else self._coerce(1)


class Cyclo(_Field, _Immutable):
    """An element of Q(zeta_N), immutable and hashable."""

    # the ints _v at conductor _m over den; _num caches `num`
    __slots__ = ("order", "_m", "_v", "den", "_num")

    def __new__(cls, order, num, den=1):
        num, d = list(num), totient(order)
        if len(num) > d:
            raise ValueError("coefficient vector longer than phi(N)")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        return _sized(_normal(order, order, num + [0] * (d - len(num)), den))

    def __reduce__(self):
        # rebuild the stored form: the guard blocks slot restore
        return (_make, (self.order, self._m, self._v, self.den))

    @property
    def num(self):
        """The coefficient vector on the power basis of Q(zeta_N)."""
        try:
            return self._num
        except AttributeError:
            num = tuple(_lift(self._v, self._m, self.order))
            _set_num(self, num)
            return num

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
        return _make(order, 1, (n,), d)

    @staticmethod
    def from_rational(value, order=DEFAULT_ORDER):
        if type(value) is int:
            return _make(order, 1, (value,), 1)
        f = value if isinstance(value, Fraction) else _exact(value)
        return _make(order, 1, (f.numerator,), f.denominator)

    @staticmethod
    def zeta_pow(k, order=DEFAULT_ORDER):
        """zeta_N^k as a field element, at its conductor."""
        g = gcd(k, order)
        m, sign = order // g, 1
        j = k // g % m
        if m % 4 == 2:  # zeta_m^j = -zeta_(m/2)^((j + m/2)/2), j odd
            m //= 2
            j, sign = (j + m) // 2 % m, -1
        return _normal(order, m, _accumulate([0] * totient(m), [sign], [_zeta_powers(m)[j]]), 1)

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
        return self._m == 1 and not self._v[0]

    @property
    def is_rational(self):
        return self._m == 1

    def as_fraction(self):
        if self._m != 1:
            raise CycloError("not a rational element")
        return Fraction(self._v[0], self.den)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else _plus(self, o, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, self._m, tuple([-c for c in self._v]), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else _plus(self, o, -1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._m != 1 and o._m != 1:
            a, b, m = _common(self, o)
            return _normal(self.order, m, _mul_vec(a, b, m), self.den * o.den)
        x, y = (self, o) if self._m == 1 else (o, self)
        r, d = x._v[0], x.den  # the rational factor x = r / d
        if y._m == 1 or not r:
            return Cyclo._ratio(self.order, r * y._v[0], d * y.den)
        return _normal(self.order, y._m, [r * c for c in y._v], d * y.den)

    __rmul__ = __mul__

    def inverse(self):
        n = self._m
        if n == 1:
            if not self._v[0]:
                raise ZeroDivisionError("division by zero in Q(zeta_%d)" % self.order)
            return Cyclo._ratio(self.order, self.den, self._v[0])
        cof, norm = _norm(self._v, n)
        return _normal(self.order, n, [self.den * c for c in cof], norm)

    def __truediv__(self, other):
        o = other if isinstance(other, int) else self._coerce(other)
        if o is None:
            return NotImplemented
        if not isinstance(o, int) and o._m != 1:
            return self * o.inverse()
        n, e = (o, 1) if isinstance(o, int) else (o._v[0], o.den)  # o = n / e
        if not n:
            raise ZeroDivisionError("division by zero in Q(zeta_%d)" % self.order)
        return _normal(self.order, self._m, [c * e for c in self._v], self.den * n)

    # -- comparisons, hashing, conversion ------------------------------

    def __eq__(self, other):
        if isinstance(other, Cyclo) and self._m == 1 and other._m == 1:
            # Q lies in every Q(zeta_N): rationals compare by value in any order
            return self._v == other._v and self.den == other.den
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._m == o._m:
            return self._v == o._v and self.den == o.den
        if self.den != o.den or self._m == 1 or o._m == 1:
            return False
        a, b, _ = _common(self, o)
        return list(a) == list(b)

    def __hash__(self):
        # a rational element hashes like the Fraction it equals, in any order
        if self._m == 1:
            return hash(Fraction(self._v[0], self.den))
        return hash((self.order, self.num, self.den))

    def __complex__(self):
        if self._m == 1:
            return complex(self._v[0]) / self.den
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
# slot setters: build elements without the immutability guard
_set_order, _set_m, _set_v, _set_den, _set_num = (
    s.__set__ for s in (Cyclo.order, Cyclo._m, Cyclo._v, Cyclo.den, Cyclo._num))


def _make(order, m, v, den):
    """The element of a stored form: the tuple v at conductor m over den."""
    c = _new(Cyclo)
    _set_order(c, order)
    _set_m(c, m)
    _set_v(c, v)
    _set_den(c, den)
    return c


def _normal(order, m, vec, den):
    """The element vec / den at conductor m (ints, den != 0) in lowest
    terms; a zero tail makes it rational (m = 1)."""
    if not any(vec[1:]):
        return Cyclo._ratio(order, vec[0], den)
    if den < 0:
        den, vec = -den, [-c for c in vec]
    g = den
    for c in vec:
        g = gcd(g, c)
        if g == 1:
            break
    if g > 1:
        den, vec = den // g, [c // g for c in vec]
    return _make(order, m, tuple(vec), den)


def _sized(c):
    """c at the least conductor m that holds it, the search for data entering.
    The conductors that hold an element are closed under gcd, so a prime p
    for which m / p fails fails at every smaller m as well."""
    x, m = c._v, c._m
    for p in [p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))]:
        while m % p == 0:
            v = _in_subfield(x, m // p, m)
            if v is None:
                break
            x, m = v, m // p
    return c if m == c._m else _make(c.order, m, tuple(x), c.den)


def _common(x, y):
    """(a, b, m): the stored vectors of x and y at the lcm m of their conductors."""
    if x._m == y._m:
        return x._v, y._v, x._m
    m = lcm(x._m, y._m)
    return _lift(x._v, x._m, m), _lift(y._v, y._m, m), m


def _plus(x, y, s):
    """x + s y for s = 1 or -1: a difference needs no negated temporary."""
    xd, yd = x.den, y.den
    if x._m == 1 and y._m == 1:
        return Cyclo._ratio(x.order, x._v[0] * yd + s * y._v[0] * xd, xd * yd)
    a, b, m = _common(x, y)
    if xd == yd:
        vec = [p + q for p, q in zip(a, b)] if s > 0 else [p - q for p, q in zip(a, b)]
    else:
        vec = ([p * yd + q * xd for p, q in zip(a, b)] if s > 0
               else [p * yd - q * xd for p, q in zip(a, b)])
        xd *= yd
    return _normal(x.order, m, vec, xd)


def _power(base, k):
    """base ** k for an int k >= 1 by square and multiply, the first factor
    base itself, so a series keeps its truncation; None for k = 0.  The one
    power kernel of `Cyclo`, `Poly` and `QSeries`."""
    result = None
    while k:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return result


def _exact(value):
    """The Fraction of an exact rational number that is neither an int nor a
    Fraction; a float raises TypeError, as it does in +, -, * and /."""
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError("not an exact rational number: %r" % (value,))


def rational(value, order=DEFAULT_ORDER):
    return Cyclo.from_rational(value, order)


def zeta(order=DEFAULT_ORDER, power=1):
    return Cyclo.zeta_pow(power, order)


def _twice_real(q, order, name):
    """zeta_q + zeta_q^-1 in Q(zeta_N), which is sqrt(2) for q = 8 and sqrt(3) for q = 12."""
    if order % q:
        raise CycloError("%s requires %d | N" % (name, q))
    return Cyclo.zeta_pow(order // q, order) + Cyclo.zeta_pow(-order // q, order)


def sqrt2(order=DEFAULT_ORDER):
    return _twice_real(8, order, "sqrt(2)")


def sqrt3(order=DEFAULT_ORDER):
    return _twice_real(12, order, "sqrt(3)")


def sqrt5(order=DEFAULT_ORDER):
    if order % 5:
        raise CycloError("sqrt(5) requires 5 | N")
    z = Cyclo.zeta_pow(order // 5, order)
    return z - z * z - z ** 3 + z ** 4


def imag_unit(order=DEFAULT_ORDER):
    if order % 4:
        raise CycloError("i requires 4 | N")
    return Cyclo.zeta_pow(order // 4, order)
