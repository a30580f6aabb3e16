"""Row storage of `Poly` over Q(zeta): every kernel against per-coefficient
`Cyclo` arithmetic, on seeded coefficient lists that mix ints with elements
at conductors 3, 4, 5, 8, 12, 24, 60 and 120, and with elements of the real
subfields Q(sqrt5), Q(sqrt2) and Q(sqrt3), stored on the real keys -5, -8
and -12.

The references below use nothing of `Poly` but its `coeffs` view: a
schoolbook product, a field long division, a monic Euclid, a primitive
pseudo-remainder sequence over Z[zeta] and term-by-term derivative, scaling
and substitution, all on `Cyclo` coefficients.
"""

import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import equiops.poly as poly_module
from equiops.cyclotomic import (Cyclo, CycloError, _conjugate, _field_polynomial, _galois_tower,
                                _is_prime, _lift, _mul_vec, _norm, _split_prime, _split_roots,
                                imag_unit, rational, sqrt2, sqrt3, sqrt5, totient, zeta)
from equiops.poly import Poly
from equiops.qseries import QSeries
from equiops.ratfn import RatFn

N = 120
CONDUCTORS = (3, 4, 5, 8, 12, 24, 60, 120)
# the real keys -m and the generator of each: Q(zeta_m)+ on the powers of
# zeta_m + zeta_m^-1
REAL_FIELDS = {-5: sqrt5, -8: sqrt2, -12: sqrt3}
ZERO = rational(0)


def element(rng):
    """An int, a Fraction, or a small element at one of the CONDUCTORS."""
    kind = rng.random()
    if kind < 0.2:
        return rng.randint(-4, 4)
    if kind < 0.3:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    c = rng.choice(CONDUCTORS)
    k = rng.choice([k for k in range(1, c) if math.gcd(k, c) == 1])
    gen = zeta(N, k * (N // c))
    return rational(rng.randint(-3, 3)) + gen * rational(Fraction(rng.choice((-2, -1, 1, 3)),
                                                                 rng.choice((1, 1, 2))))


def real_element(rng):
    """An int, or a + b g with b != 0 for g = sqrt5, sqrt2 or sqrt3: an
    element of one real subfield."""
    if rng.random() < 0.2:
        return rng.randint(-4, 4)
    gen = REAL_FIELDS[rng.choice(sorted(REAL_FIELDS))]()
    return rational(rng.randint(-3, 3)) + gen * rational(Fraction(rng.choice((-2, -1, 1, 3)),
                                                                  rng.choice((1, 1, 2))))


def coefficient_list(rng, degree, draw=element):
    cs = [draw(rng) for _ in range(degree + 1)]
    while not cs[-1]:
        cs[-1] = draw(rng)
    return cs


def cyclo(c):
    return c if isinstance(c, Cyclo) else rational(c)


def trim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero:
        cs.pop()
    return cs


def ref_add(a, b):
    n = max(len(a), len(b))
    a, b = a + [ZERO] * (n - len(a)), b + [ZERO] * (n - len(b))
    return trim([x + y for x, y in zip(a, b)])


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return trim(out)


def ref_divmod(a, b):
    """Field long division of Cyclo lists, b nonzero."""
    rem, inv = list(a), b[-1].inverse()
    q = [ZERO] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + len(b) - 1] * inv
        q[k] = c
        for j, y in enumerate(b):
            rem[k + j] = rem[k + j] - c * y
    return trim(q), trim(rem[:len(b) - 1])


def ref_monic(a):
    inv = a[-1].inverse()
    return [c * inv for c in a]


def ref_gcd(a, b):
    """The monic gcd by Euclid over the field, a and b not both zero."""
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_content_free(a):
    """a nonzero list times the rational that makes all ints of its
    coefficients, on the power basis at N, coprime integers."""
    den = math.lcm(*[c.den for c in a])
    g = math.gcd(*[x * (den // c.den) for c in a for x in c.num])
    return [c * rational(Fraction(den, g)) for c in a]


def ref_prs_gcd(a, b):
    """The monic gcd of two nonzero lists by a primitive pseudo-remainder
    sequence over Z[zeta]: each step multiplies the remainder by the
    divisor's lead, so no field inverse is taken before the final monic."""
    a, b = ref_content_free(a), ref_content_free(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        rem, lead = list(a), b[-1]
        while len(rem) >= len(b):  # rem <- lead rem - top x^k b
            top = rem.pop()
            k = len(rem) - len(b) + 1
            rem = [c * lead for c in rem]
            for j, y in enumerate(b[:-1]):
                rem[k + j] = rem[k + j] - top * y
        rem = trim(rem)
        if not rem:
            break
        a, b = b, ref_content_free(rem)
    return ref_monic(b)


def ref_derivative(a):
    return trim([c * rational(i) for i, c in enumerate(a)][1:])


def ref_power(a, k):
    out = [rational(1)]
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_substitute(a, p, q, degree):
    out = []
    for i, c in enumerate(a):
        term = ref_mul(ref_mul([c], ref_power(p, i)), ref_power(q, degree - i))
        out = ref_add(out, term)
    return out


def assert_canonical(p):
    """The storage invariants of (items, den, m)."""
    items, den, m = p._items, p._den, p._m
    assert den > 0 and N % abs(m) == 0 and m not in (-1, -2, -3, -4)
    assert not items or (items[-1] if m == 1 else any(items[-1]))
    if m == 1:
        assert all(type(v) is int for v in items)
        assert math.gcd(den, *items) == 1
    else:
        assert all(type(r) is tuple and len(r) == totient(m) for r in items)
        assert math.gcd(den, *[x for r in items for x in r]) == 1
        assert any(any(r[1:]) for r in items)  # else it would be ints


def assert_matches(p, ref):
    assert_canonical(p)
    assert list(p.coeffs) == trim(ref)
    assert p.degree == len(trim(ref)) - 1
    if p:
        assert p.leading == trim(ref)[-1]


SEEDS = range(40)
# the seeds past SEEDS draw a from the real subfields and b from either kind,
# so the operands meet at the join of a real key with a conductor
REAL_SEEDS = range(40, 64)


def pair(seed):
    rng = random.Random("rows:%d" % seed)
    first = element if seed in SEEDS else real_element
    second = element if seed in SEEDS else lambda r: (element if r.random() < 0.5
                                                      else real_element)(r)
    a = coefficient_list(rng, rng.randint(0, 6), first)
    b = coefficient_list(rng, rng.randint(0, 6), second)
    return Poly(a), Poly(b), [cyclo(c) for c in a], [cyclo(c) for c in b], rng


@pytest.mark.parametrize("seed", [*SEEDS, *REAL_SEEDS])
def test_ring_operations_match_the_cyclo_reference(seed):
    p, q, ra, rb, rng = pair(seed)
    assert_matches(p, ra)
    assert_matches(p * q, ref_mul(ra, rb))
    assert_matches(q * p, ref_mul(ra, rb))
    assert_matches(p + q, ref_add(ra, rb))
    assert_matches(p - q, ref_add(ra, [-c for c in rb]))
    assert_matches(-p, [-c for c in ra])
    assert_matches(p.derivative(), ref_derivative(ra))
    c = cyclo(element(rng))
    assert_matches(p.scale(c), [x * c for x in ra])
    if ra:
        assert_matches(p.monic(), ref_monic(ra))


@pytest.mark.parametrize("seed", [*SEEDS, *REAL_SEEDS])
def test_divmod_matches_field_long_division(seed):
    p, q, ra, rb, _ = pair(seed)
    if not rb:
        return
    quo, rem = p.divmod(q)
    rq, rr = ref_divmod(ra, rb)
    assert_matches(quo, rq)
    assert_matches(rem, rr)
    # an exact quotient by the monic divisor q / lead(q) is lead(q) p
    quo, rem = (p * q).divmod(q.monic())
    assert_matches(quo, [c * rb[-1] for c in ra])
    assert rem.is_zero and (p * q).exact_div(q) == p


@pytest.mark.parametrize("seed", range(40))
def test_gcd_cofactors_match_monic_euclid(seed):
    # seeds from 24 on: g and a in the real subfields, b of either kind
    rng = random.Random("rows-gcd:%d" % seed)
    draws = (element,) * 3 if seed < 24 else (real_element, real_element, element)
    g, a, b = (Poly(coefficient_list(rng, rng.randint(lo, hi), draw))
               for (lo, hi), draw in zip(((1, 2), (0, 2), (0, 2)), draws))
    pa, pb = a * g, b * g
    h, u, v = pa.gcd_cofactors(pb)
    ref = ref_gcd(list(pa.coeffs), list(pb.coeffs))
    assert_matches(h, ref)
    assert h * u == pa and h * v == pb
    assert_matches(u, ref_divmod(list(pa.coeffs), ref)[0])
    assert h.degree >= g.degree and h.is_monic
    assert pa.gcd(pb) == h == pb.gcd(pa)


@pytest.mark.parametrize("seed", range(16))
def test_substitute_matches_the_binary_form(seed):
    rng = random.Random("rows-sub:%d" % seed)
    a = Poly(coefficient_list(rng, rng.randint(0, 4)))
    p = Poly(coefficient_list(rng, rng.randint(0, 2)))
    q = Poly(coefficient_list(rng, rng.randint(0, 1)))
    degree = a.degree + rng.randint(0, 2)
    ra, rp, rq = (list(x.coeffs) for x in (a, p, q))
    assert_matches(a.substitute(p, q, degree), ref_substitute(ra, rp, rq, degree))
    assert_matches(a.substitute(p, 1, a.degree), ref_substitute(ra, rp, [rational(1)], a.degree))
    assert a(p) == a.substitute(p, 1, a.degree)


@pytest.mark.parametrize("seed", range(12))
def test_squarefree_decomposition_multiplies_back(seed):
    rng = random.Random("rows-sqf:%d" % seed)
    f1, f2 = (Poly(coefficient_list(rng, 1)) for _ in range(2))
    p = f1 * f2 * f2 if f1.monic() != f2.monic() else f1 * f2
    parts = p.squarefree_decomposition()
    prod = [rational(1)]
    for f, k in parts:
        assert f.is_monic and f.degree >= 1
        assert ref_gcd(list(f.coeffs), ref_derivative(list(f.coeffs))) == [rational(1)]
        prod = ref_mul(prod, ref_power(list(f.coeffs), k))
    assert prod == ref_monic(list(p.coeffs))
    if f1.monic() != f2.monic() and ref_gcd(list(f1.coeffs), list(f2.coeffs)) == [rational(1)]:
        assert sorted(k for _, k in parts) == [1, 2]


@pytest.mark.parametrize("seed", SEEDS)
def test_equality_hash_and_pickle(seed):
    p, q, ra, rb, _ = pair(seed)
    for x in (p, q, p * q):
        back = pickle.loads(pickle.dumps(x))
        assert (back._items, back._den, back._m, back.order) == \
            (x._items, x._den, x._m, x.order)
        assert back == x and hash(back) == hash(x)
        assert x == Poly(list(x.coeffs)) and hash(x) == hash(Poly(list(x.coeffs)))
    assert (p == q) == (ra == rb)


def test_one_value_at_two_conductors_is_equal():
    i, w = imag_unit(), zeta(N, 40)  # conductors 4 and 3
    p = Poly([i, 2, sqrt5()])  # conductor 20
    lifted = p * Poly.constant(w) * Poly.constant(w.inverse())
    assert lifted._m == 60 and p._m == 20
    assert lifted == p and p == lifted and hash(lifted) == hash(p)
    assert lifted != p + 1 and p + 1 != lifted
    assert Poly.constant(i) == i and hash(Poly.constant(i)) == hash(i)
    # a real value on its real key and at a conductor, by a product that
    # keeps the join of the keys
    for gen, key in ((sqrt5(), -5), (sqrt2(), -8), (sqrt3(), -12)):
        real = Poly([gen, 1, gen / 2])
        at_conductor = real * Poly.constant(i) * Poly.constant(i.inverse())
        assert (real._m, at_conductor._m) == (key, math.lcm(-key, 4))
        assert totient(key) == 2 and all(len(r) == 2 for r in real._items)
        for x, y in ((real, at_conductor), (at_conductor, real)):
            assert x == y and hash(x) == hash(y) and x.coeffs == y.coeffs
            assert x != y + 1 and repr(x) == repr(y)
            back = pickle.loads(pickle.dumps(x))
            assert back._m == x._m and back == y and hash(back) == hash(y)
        assert Poly.constant(gen) == gen and hash(Poly.constant(gen)) == hash(gen)


def field_poly(rng, degree):
    """A polynomial over Q(sqrt5) of the shape of the `field` benchmark pool:
    every coefficient a + b sqrt5, -3 <= a <= 3 and b in {-2, -1, 1, 2}."""
    return Poly([rational(rng.randint(-3, 3)) + sqrt5() * rational(rng.choice((-2, -1, 1, 2)))
                 for _ in range(degree + 1)])


def test_golden_ratio_data_is_stored_on_two_int_rows():
    """Q(sqrt5) data stays on the real key -5, two ints a coefficient, through
    products, gcds, the reduction of a RatFn and the store of QSeries."""
    rng = random.Random("two-int-rows")
    for _ in range(6):
        g, a, b = field_poly(rng, 1), field_poly(rng, 2), field_poly(rng, 2)
        ga, gb = g * a, g * b
        h, u, v = ga.gcd_cofactors(gb)
        f = RatFn(ga, gb)
        stored = [g, a, b, ga, gb, h, u, v, f.num, f.den, ga.monic(), ga.divmod(b)[0],
                  ga.derivative()]
        for p in stored:
            assert p.is_rational or (p._m == -5 and all(len(r) == 2 for r in p._items))
        assert all(p._m == -5 for p in (g, a, b, ga, gb, u, v))
        s = QSeries.of_poly(ga, 4)
        assert s._m == -5 and all(len(r) == 2 for r in s._items.values())
        assert (s * s)._m == -5 and (s / QSeries.of_poly(g, 4))._m == -5


def test_rational_products_of_rows_are_ints():
    s5 = sqrt5()
    p = Poly([-s5, 1]) * Poly([s5, 1])  # z^2 - 5
    assert (p._items, p._den, p._m) == ((-5, 0, 1), 1, 1)
    assert p == Poly([-5, 0, 1]) and hash(p) == hash(Poly([-5, 0, 1]))
    i = imag_unit()
    q = Poly([i, 1]) * Poly([-i, 1]) * Fraction(1, 2)  # (z^2 + 1) / 2
    assert (q._items, q._den, q._m) == ((1, 0, 1), 2, 1)
    r = Poly([sqrt2(), 0, sqrt2() * rational(3)]).scale(sqrt2())
    assert (r._items, r._den, r._m) == ((2, 0, 6), 1, 1)


def test_mixed_field_orders_are_rejected():
    a, b = Poly([sqrt5(60), 1], 60), Poly([sqrt5(), 1])
    for op in (lambda x, y: x + y, lambda x, y: x * y, lambda x, y: x.divmod(y),
               lambda x, y: x.gcd(y), lambda x, y: x == y):
        with pytest.raises(CycloError):
            op(a, b)
        with pytest.raises(CycloError):
            op(b, a)
    with pytest.raises(CycloError):
        Poly([sqrt5(60), sqrt5()])
    # rational data compares by value in any order
    assert Poly([3, 1], 60) == Poly([3, 1]) and Poly([3, 1]) == Poly([3, 1], 60)


def assert_row_store(s):
    """An irrational series in the store of Poly: rows of totient(m) ints at
    a field key m != 1 (a conductor, or -m for a real subfield), one of them
    irrational, over den > 0 prime to all the ints."""
    rows = list(s._items.values())
    assert s._m != 1 and s._den > 0 and any(any(r[1:]) for r in rows)
    assert all(type(r) is tuple and len(r) == totient(s._m) for r in rows)
    assert math.gcd(s._den, *[x for r in rows for x in r]) == 1


def test_qseries_of_an_irrational_poly():
    s5, i = sqrt5(), imag_unit()
    p = Poly([s5, 0, i * rational(Fraction(2, 3)), 1])
    s = QSeries.of_poly(p, 6)
    assert s.coeffs == {0: s5, 2: i * rational(Fraction(2, 3)), 3: rational(1)}
    assert_row_store(s)
    assert s.trunc == 6
    square = s * s
    ref = ref_mul(list(p.coeffs), list(p.coeffs))
    assert square.coeffs == {k: c for k, c in enumerate(ref) if k < 6 and not c.is_zero}
    rational_part = QSeries.of_poly(Poly([-s5, 1]) * Poly([s5, 1]))
    assert (rational_part._items, rational_part._den) == ({0: -5, 2: 1}, 1)


def test_qseries_irrational_results_over_a_denominator():
    s2 = sqrt2()
    half = QSeries(1, {0: Fraction(1, 2), 1: 1, 3: Fraction(-3, 4)}, 6)  # ints over 4
    root = QSeries(1, {0: s2, 2: s2 * rational(3)}, 6)
    ref = {0: rational(Fraction(1, 2)) + s2, 1: rational(1), 2: s2 * rational(3),
           3: rational(Fraction(-3, 4))}
    assert (half + root).coeffs == ref and (root + half).coeffs == ref
    assert (half - root).coeffs == {k: c - 2 * root.coeffs.get(k, ZERO) for k, c in ref.items()}
    assert (root / half).coeffs == {k: c for k, c in
                                    (QSeries.constant(1, 6) / half * root).coeffs.items()}
    assert (root * half).coeffs == (half * root).coeffs
    for s in (half + root, root / half, root * half):
        assert_row_store(s)


@pytest.mark.parametrize("order", [(60, 120), (120, 60)])
def test_qseries_equality_of_rationals_across_orders(order):
    m, n = order
    assert QSeries.constant(1, 5, 1, m) == QSeries.constant(1, 5, 1, n)
    assert QSeries.constant(1, 5, 1, m) != QSeries.constant(2, 5, 1, n)
    a = QSeries(2, {0: 3, 1: Fraction(1, 2)}, 4, m)
    assert a == QSeries(2, {0: 3, 1: Fraction(1, 2)}, 4, n)
    assert a != QSeries(2, {0: 3}, 4, n)
    with pytest.raises(CycloError):
        QSeries.constant(sqrt5(m), 5, 1, m) == QSeries.constant(sqrt5(n), 5, 1, n)
    with pytest.raises(CycloError):
        QSeries.constant(sqrt5(m), 5, 1, m) == QSeries.constant(1, 5, 1, n)


INT_OPS = [
    ("add", lambda x, n: x + n, lambda x, n: x + rational(n)),
    ("radd", lambda x, n: n + x, lambda x, n: rational(n) + x),
    ("sub", lambda x, n: x - n, lambda x, n: x - rational(n)),
    ("rsub", lambda x, n: n - x, lambda x, n: rational(n) - x),
    ("mul", lambda x, n: x * n, lambda x, n: x * rational(n)),
    ("rmul", lambda x, n: n * x, lambda x, n: rational(n) * x),
    ("truediv", lambda x, n: x / n, lambda x, n: x * rational(Fraction(1, n))),
]


@pytest.mark.parametrize("name, direct, via", INT_OPS, ids=[op[0] for op in INT_OPS])
def test_int_operands_give_the_stored_form_of_a_rational_operand(name, direct, via):
    rng = random.Random("int-ops:" + name)
    values = [rational(Fraction(3, 4)), rational(0), sqrt5(),
              imag_unit() * rational(Fraction(-5, 6))]
    values += [cyclo(element(rng)) for _ in range(30)]
    for x in values:
        for n in (-6, -1, 0, 1, 2, 15):
            if name == "truediv" and n == 0:
                with pytest.raises(ZeroDivisionError):
                    direct(x, n)
                continue
            got, want = direct(x, n), via(x, n)
            assert (got._m, got._v, got.den, got.order) == (want._m, want._v, want.den, want.order)


# -- the modular gcd over Q(zeta_m) ---------------------------------------------

def conductor_poly(rng, c, degree):
    """A polynomial of the degree whose coefficients are ints or a + b zeta_c^k,
    at least one of them irrational: its conductor is c."""
    units = [k for k in range(1, c) if math.gcd(k, c) == 1]

    def coeff():
        if rng.random() < 0.25:
            return rng.randint(-4, 4)
        gen = zeta(N, rng.choice(units) * (N // c))
        return rational(rng.randint(-3, 3)) + gen * rational(Fraction(rng.choice((-2, -1, 1, 3)),
                                                                      rng.choice((1, 1, 2))))
    while True:
        cs = [coeff() for _ in range(degree)] + [coeff() or 1]
        if any(isinstance(x, Cyclo) and not x.is_rational for x in cs):
            return Poly(cs)


def modgcd_cases(c):
    """(name, a, b) pairs at conductor c for every case of the kernel."""
    rng = random.Random("modgcd:%d" % c)
    a, b, g = (conductor_poly(rng, c, 2) for _ in range(3))
    r, s = Poly([rng.randint(-5, 5), rng.randint(-3, 3), 2]), Poly([rng.randint(-4, 4), 1])
    out = [("coprime", a, b)]
    for d in (1, 2, 3):
        h = conductor_poly(rng, c, d)
        out.append(("common-%d" % d, a * h, b * h))
    out += [("divides", g, a * g), ("divided", a * g, g),
            ("associates", a, a.scale(conductor_poly(rng, c, 0).leading)),
            ("zero", Poly.zero(), a), ("zero-right", a, Poly.zero()),
            ("constant", conductor_poly(rng, c, 0), a), ("rational-constant", a, Poly([3])),
            ("rational-common", r * s, a * s), ("rational-coprime", r, b),
            ("rational-divides", s, a * s)]
    return out


def real_poly(rng, key, degree):
    """A polynomial of the degree whose coefficients are ints or a + b g,
    for the generator g of the real key, at least one of them irrational."""
    gen = REAL_FIELDS[key]()

    def coeff():
        if rng.random() < 0.25:
            return rng.randint(-4, 4)
        return rational(rng.randint(-3, 3)) + gen * rational(Fraction(rng.choice((-2, -1, 1, 3)),
                                                                      rng.choice((1, 1, 2))))
    while True:
        cs = [coeff() for _ in range(degree)] + [coeff() or 1]
        if any(isinstance(x, Cyclo) and not x.is_rational for x in cs):
            return Poly(cs)


def real_modgcd_cases(key):
    """(name, a, b) pairs on the real key for every case of the kernel, and
    pairs that meet a conductor or another real key at their join."""
    rng = random.Random("modgcd:%d" % key)
    a, b, g = (real_poly(rng, key, 2) for _ in range(3))
    out = [("coprime", a, b)]
    for d in (1, 2):
        h = real_poly(rng, key, d)
        out.append(("common-%d" % d, a * h, b * h))
    other = -8 if key != -8 else -5
    h = real_poly(rng, key, 1)
    out += [("divides", g, a * g), ("divided", a * g, g),
            ("associates", a, a.scale(real_poly(rng, key, 0).leading)),
            ("constant", real_poly(rng, key, 0), a), ("rational-constant", a, Poly([3])),
            ("joined-conductor", a * h, conductor_poly(rng, 4, 1) * h),
            ("joined-real", a * h, real_poly(rng, other, 1) * h)]
    return out


MODGCD_CASES = ([(c, name, a, b) for c in CONDUCTORS for name, a, b in modgcd_cases(c)]
                + [(k, name, a, b) for k in REAL_FIELDS for name, a, b in real_modgcd_cases(k)])


@pytest.mark.parametrize("c, name, a, b", MODGCD_CASES,
                         ids=["%d-%s" % (c, name) for c, name, _, _ in MODGCD_CASES])
def test_modular_gcd_matches_the_zeta_remainder_sequence(c, name, a, b):
    ra, rb = list(a.coeffs), list(b.coeffs)
    ref = ref_prs_gcd(ra, rb) if ra and rb else ref_monic(ra or rb)
    for p, q in ((a, b), (b, a)):
        g, u, v = p.gcd_cofactors(q)
        assert_matches(g, ref)
        assert_canonical(u)
        assert_canonical(v)
        assert g * u == p and g * v == q
        assert p.gcd(q) == g
    if name.startswith("common"):
        assert g.degree >= int(name[-1])
    if name.startswith("joined"):
        assert g.degree >= 1


def test_split_primes_and_root_tables():
    for m in (3, 4, 5, 8, 12, 24, 60, 120):
        primes = [_split_prime(m, i) for i in range(4)]
        assert primes == sorted(primes, reverse=True) and primes[0] < 2 ** 31
        assert all(p % m == 1 and _is_prime(p) for p in primes)
        assert not any(_is_prime(q) for q in range(primes[-1] + m, 2 ** 31, m)
                       if q not in primes)
        powers, lagrange = _split_roots(m, primes[0])
        p, d = primes[0], totient(m)
        roots = [w[1] for w in powers]
        assert len(powers) == len(set(roots)) == d
        assert all(pow(w, m, p) == 1 for w in roots)
        rng = random.Random("roots:%d" % m)
        row = [rng.randrange(p) for _ in range(d)]
        values = [sum(x * y for x, y in zip(row, w)) % p for w in powers]
        assert [sum(x * y for x, y in zip(t, values)) % p for t in lagrange] == row
    # the real keys -m: the roots of Psi_m are w + 1/w for the roots w of
    # Phi_m, one for each pair {w, 1/w}, and the Lagrange rows invert the
    # table of powers
    for m in (5, 8, 12, 24, 60, 120):
        p = _split_prime(-m, 0)
        assert p == _split_prime(m, 0) and [_split_prime(-m, i) for i in range(3)] == \
            [_split_prime(m, i) for i in range(3)]
        zetas = [w[1] for w in _split_roots(m, p)[0]]
        powers, lagrange = _split_roots(-m, p)
        d, psi = totient(-m), _field_polynomial(-m)
        roots = [w[1] if d > 1 else w[0] for w in powers]
        assert d == len(psi) - 1 == totient(m) // 2 == len(powers) == len(set(roots))
        assert sorted(roots) == sorted({(w + pow(w, -1, p)) % p for w in zetas})
        assert all(sum(c * pow(r, t, p) for t, c in enumerate(psi)) % p == 0 for r in roots)
        assert all(w == tuple(pow(r, t, p) for t in range(d)) for w, r in zip(powers, roots))
        assert [[sum(x * w[s] for x, w in zip(t, powers)) % p for s in range(d)]
                for t in lagrange] == [[int(s == t) for s in range(d)] for t in range(d)]
    assert [n for n in range(2, 400) if _is_prime(n)] == [
        n for n in range(2, 400) if all(n % q for q in range(2, n))]
    # strong pseudoprimes to some of the bases, and Carmichael numbers
    assert not any(map(_is_prime, (561, 1105, 1729, 2047, 25326001, 3215031751)))


def test_norms_and_conjugates_on_every_key():
    """sigma_k on a real key is sigma_k at its conductor read back, the
    Galois chain of -m climbs from {1, -1} to (Z/m)^*, and the norm
    cofactor c of an irrational v makes v c a nonzero int on either key."""
    rng = random.Random("norms")
    for m in (5, 8, 12, 24, 60, 120):
        steps, d = _galois_tower(-m), totient(-m)
        assert math.prod(p for _, p in steps) == d
        for _ in range(4):
            v = [rng.randint(-3, 3) for _ in range(d)]
            v[rng.randrange(1, d) if d > 1 else 0] = rng.choice((-2, -1, 1, 2))
            at_m = _lift(v, -m, m)
            for k in (k for k in range(2, m) if math.gcd(k, m) == 1):
                assert _lift(_conjugate(v, k, -m), -m, m) == _conjugate(at_m, k, m)
            if d == 1 or not any(v[1:]):
                continue
            for w, key in ((v, -m), (at_m, m)):
                c, norm = _norm(w, key)
                assert norm and _mul_vec(w, c, key) == [norm] + [0] * (len(w) - 1)
    x = rational(2) + sqrt5() * rational(3)
    assert x.inverse() * x == 1 and Poly.constant(x)._m == -5


def test_no_table_is_built_at_import():
    code = ("import equiops, equiops.poly as p, equiops.cyclotomic as c; "
            "print(c._split_prime.cache_info().currsize, c._split_roots.cache_info().currsize)")
    # the child imports equiops from this checkout, whatever the caller's path
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["0", "0"]


# Phi_5 has the roots 4, 5, 9 and 3 mod 11, and 2, 4, 8 and 16 mod 31
SMALL_PRIMES = (11, 31, 41, 61, 71)


@pytest.fixture
def small_primes(monkeypatch):
    """The kernel's primes for m = 5 replaced by SMALL_PRIMES: (the primes
    it asked for, the moduli of its rational reconstructions)."""
    asked, moduli = [], []
    reconstruct = poly_module._reconstruct

    def prime(m, i):
        assert m == 5
        asked.append(SMALL_PRIMES[i])
        return SMALL_PRIMES[i]

    def counted(residues, modulus, *args):
        moduli.append(modulus)
        return reconstruct(residues, modulus, *args)
    monkeypatch.setattr(poly_module, "_split_prime", prime)
    monkeypatch.setattr(poly_module, "_reconstruct", counted)
    return asked, moduli


def zeta5(k=1):
    return zeta(N, 24 * k)


def check_gcd(a, b, want):
    g, u, v = a.gcd_cofactors(b)
    assert g == want and g.is_monic
    assert g * u == a and g * v == b
    assert_matches(g, ref_prs_gcd(list(a.coeffs), list(b.coeffs)))


def test_a_lead_vanishing_at_a_root_skips_the_prime(small_primes):
    # zeta - 3 vanishes at the root 3 mod 11, where the images are coprime
    # although the gcd is x + 1/(zeta - 3), whose rows over 121 take three
    # primes of CRT
    h = Poly([1, zeta5() - 3])
    a, b = h * Poly([5, 1]), h * Poly([7, 1])
    check_gcd(a, b, h.monic())
    assert small_primes == ([11, 31, 41, 61], [31, 31 * 41, 31 * 41 * 61])


def test_a_root_image_of_too_high_a_degree_is_dropped(small_primes):
    # x + zeta^2 and x + 3 share a root mod 11 at the root 5 alone, after
    # the root 4 gave degree 1; 2 is no operand's degree
    h = Poly([zeta5(), 1])
    a, b = h * Poly([zeta5(2), 1]) * Poly([1, 1]), h * Poly([3, 1]) * Poly([7, 1])
    check_gcd(a, b, h)
    assert small_primes == ([11, 31], [31])


def test_a_lower_degree_starts_the_accumulation_over(small_primes):
    # x + 2 and x + 13 agree mod 11, so every image there has degree 2
    h = Poly([zeta5(), 1])
    a, b = h * Poly([2, 1]) * Poly([4, 1]), h * Poly([13, 1]) * Poly([5, 1])
    check_gcd(a, b, h)
    assert small_primes == ([11, 31], [11, 31])


def test_a_lower_degree_after_an_earlier_root_restarts_the_prime(small_primes):
    # x + zeta and x + 15 agree at the root 4 mod 11 alone, where the images
    # have degree 2; the root 5 then gives degree 1, so the image at 4 was
    # unlucky and the prime is left for the next one
    h = Poly([zeta5(2), 1])
    a, b = h * Poly([zeta5(), 1]) * Poly([1, 1]), h * Poly([15, 1]) * Poly([7, 1])
    check_gcd(a, b, h)
    assert small_primes == ([11, 31], [31])


def test_a_common_denominator_beyond_the_bound_waits_for_a_prime(small_primes):
    # the gcd's coefficient 1/2 + zeta/4 has rows 1/2 and 1/4, each within
    # the bound sqrt(11 / 2) alone, but their common denominator 4 is not
    h = Poly([Fraction(1, 2) + zeta5() / 4, 1])
    a, b = h * Poly([1, 1]), h * Poly([zeta5(), 1])
    check_gcd(a, b, h)
    assert small_primes == ([11, 31], [11, 11 * 31])


def test_an_operand_candidate_that_fails_lowers_the_bound(small_primes):
    # x + 1 and x + 342 agree mod 11 and mod 31: mod 11 the candidate
    # b / lead(b) does not divide a, so the images of degree 2 mod 31 are
    # dropped, not reconstructed
    h = Poly([zeta5(), 1])
    a, b = h * Poly([1, 1]), h * Poly([342, 1]) * rational(3)
    check_gcd(a, b, h)
    assert small_primes == ([11, 31, 41], [41])


def test_crt_over_many_primes_reconstructs_large_coefficients(small_primes):
    # the numerator 200 needs a modulus M with sqrt(M / 2) >= 200; the
    # images mod 41 have an extra common root, and mod 11 the reconstruction
    # gives a candidate that does not divide
    h = Poly([rational(Fraction(200, 7)) + zeta5(3), 1])
    a, b = h * Poly([zeta5(), 2]), h * Poly([1, 0, zeta5(2)])
    check_gcd(a, b, h)
    assert small_primes == (list(SMALL_PRIMES), [11, 11 * 31, 11 * 31 * 61, 11 * 31 * 61 * 71])
