"""Field axioms and known constants of the cyclotomic arithmetic layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equiops.cyclotomic import (Cyclo, CycloError, DEFAULT_ORDER, imag_unit,
                                rational, sqrt2, sqrt3, sqrt5, totient, zeta)
from equiops.poly import Poly
from equiops.qseries import QSeries
from equiops.ratfn import RatFn

ORDER = DEFAULT_ORDER


def small_cyclo():
    return st.builds(
        lambda pairs: sum((zeta(ORDER, p % ORDER) * rational(Fraction(a, b))
                           for p, a, b in pairs),
                          rational(0)),
        st.lists(st.tuples(st.integers(0, ORDER - 1),
                           st.integers(-9, 9),
                           st.integers(1, 9)),
                 max_size=4))


def fractions():
    return st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


def normalised(value):
    """The reference element: the normalising constructor on a full vector."""
    f = Fraction(value)
    return Cyclo(ORDER, [f.numerator], f.denominator)


def assert_same_element(c, value):
    ref = normalised(value)
    assert (c.order, c.num, c.den) == (ref.order, ref.num, ref.den)
    assert hash(c) == hash(ref)
    assert c == ref and repr(c) == repr(ref)
    assert c.is_rational and ref.is_rational
    assert c.is_zero == (value == 0)


@settings(max_examples=80, deadline=None)
@given(fractions(), fractions(), st.integers(-9, 9))
def test_rational_lane_matches_normalising_constructor(x, y, k):
    a, b = rational(x), rational(y)
    assert_same_element(a, x)
    assert_same_element(rational(k), k)
    assert_same_element(a + b, x + y)
    assert_same_element(a - b, x - y)
    assert_same_element(a * b, x * y)
    assert_same_element(-a, -x)
    assert_same_element(a + k, x + k)
    assert_same_element(k - a, k - x)
    assert_same_element(a * k, x * k)
    assert_same_element(a ** 3, x ** 3)
    if y:
        assert_same_element(b.inverse(), 1 / y)
        assert_same_element(a / b, x / y)
        assert_same_element(k / b, k / y)
    else:
        with pytest.raises(ZeroDivisionError):
            b.inverse()
        with pytest.raises(ZeroDivisionError):
            a / b
    if k:
        assert_same_element(a / k, x / k)


def test_rational_lane_negative_divisors():
    assert_same_element(rational(Fraction(-3, 4)).inverse(), Fraction(-4, 3))
    assert_same_element(rational(6) / rational(-4), Fraction(-3, 2))
    assert_same_element(rational(0) / rational(-5), 0)
    assert_same_element(rational(Fraction(-2, 9)) / -6, Fraction(1, 27))
    assert_same_element(Cyclo._ratio(ORDER, 10, -4), Fraction(-5, 2))
    assert_same_element(Cyclo._ratio(ORDER, 0, -7), 0)


@settings(max_examples=40, deadline=None)
@given(small_cyclo(), fractions())
def test_mixed_operands_match_reference(a, x):
    # one rational and one irrational operand: compare with vectors built
    # by the normalising constructor
    p, q = x.numerator, x.denominator
    r = rational(x)
    total = Cyclo(ORDER, [a.num[0] * q + p * a.den] + [c * q for c in a.num[1:]],
                  a.den * q)
    product = Cyclo(ORDER, [c * p for c in a.num], a.den * q)
    assert a + r == total and r + a == total
    assert hash(a + r) == hash(total)
    assert (a + r).is_rational == a.is_rational
    assert a - r == total - 2 * r
    assert r - a == -(a - r)
    assert a * r == product and r * a == product
    assert (a * r).is_rational == (p == 0 or a.is_rational)
    if p:
        assert (a / r) * r == a
    if not a.is_zero:
        assert (r / a) * a == r


def test_lane_rejects_mixed_orders():
    with pytest.raises(CycloError):
        rational(1, 60) + rational(1, 120)
    with pytest.raises(CycloError):
        rational(1, 60) * rational(2, 120)
    with pytest.raises(CycloError):
        rational(1, 60) / rational(2, 120)


@settings(max_examples=60, deadline=None)
@given(small_cyclo(), small_cyclo(), small_cyclo())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + rational(0) == a
    assert a * rational(1) == a
    assert (a - a).is_zero


@settings(max_examples=40, deadline=None)
@given(small_cyclo())
def test_multiplicative_inverse(a):
    if a.is_zero:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert (a * a.inverse() == rational(1))


# -- the norm-tower inverse at orders with phi(N) a power of 2 and not ------

INVERSE_ORDERS = (3, 4, 5, 7, 8, 9, 12, 15, 21, 24, 60, 120)
SURDS = ((8, sqrt2), (12, sqrt3), (5, sqrt5), (4, imag_unit))


def nonzero_fractions():
    return fractions().filter(bool)


@st.composite
def subfield_elements(draw, order):
    """a + b*g for a surd or a root of unity g, sometimes plus c*h for a
    second generator h (an element of a degree-4 subfield)."""
    gens = [make(order) for need, make in SURDS if order % need == 0]
    gens.append(zeta(order, draw(st.integers(1, order - 1))))
    terms = draw(st.lists(st.sampled_from(gens), min_size=1, max_size=2))
    x = rational(draw(fractions()), order)
    for g in terms:
        x = x + g * rational(draw(nonzero_fractions()), order)
    return x


@st.composite
def dense_elements(draw, order):
    """A full coefficient vector with one coefficient of at least 200 bits."""
    d = totient(order)
    big = st.integers(-2 ** 256, 2 ** 256)
    num = draw(st.lists(big, min_size=d - 1, max_size=d - 1))
    num.insert(draw(st.integers(0, d - 1)),
               draw(st.integers(2 ** 200, 2 ** 256)) * draw(st.sampled_from((1, -1))))
    return Cyclo(order, num, draw(st.integers(1, 2 ** 256)))


@st.composite
def field_pairs(draw):
    order = draw(st.sampled_from(INVERSE_ORDERS))
    kinds = st.one_of(subfield_elements(order).filter(bool), dense_elements(order))
    return draw(kinds), draw(kinds)


def assert_canonical(c):
    ref = Cyclo(c.order, list(c.num), c.den)
    assert (c.num, c.den) == (ref.num, ref.den)
    assert hash(c) == hash(ref) and repr(c) == repr(ref)


@settings(max_examples=100, deadline=None)
@given(field_pairs())
def test_norm_tower_inverse(pair):
    a, b = pair
    one = rational(1, a.order)
    inv = a.inverse()
    assert a * inv == one and inv * a == one
    assert_canonical(inv)
    assert inv.is_rational == a.is_rational
    # the inverse of a dense 200-bit element of Q(zeta_120) has 8000-bit
    # coefficients, and inverting that back takes seconds
    if a.order != 120 or max(abs(c) for c in a.num).bit_length() < 200:
        assert inv.inverse() == a
    assert a / b == a * b.inverse()
    assert_canonical(a / b)


@pytest.mark.parametrize("order", INVERSE_ORDERS)
def test_inverse_of_zero_raises(order):
    for zero in (rational(0, order), Cyclo(order, [0] * totient(order), 5)):
        with pytest.raises(ZeroDivisionError):
            zero.inverse()
        with pytest.raises(ZeroDivisionError):
            zeta(order) / zero


def test_zeta_powers_wrap_around():
    for order in INVERSE_ORDERS:
        z = zeta(order)
        acc = rational(1, order)
        for k in range(2 * order + 1):
            assert Cyclo.zeta_pow(k, order) == acc
            assert Cyclo.zeta_pow(-k, order) * acc == 1
            acc = acc * z


def test_primitive_root_order():
    z = zeta(ORDER)
    acc = z
    for _ in range(ORDER - 1):
        assert acc != rational(1)
        acc = acc * z
    assert acc == rational(1)


def test_surd_constants():
    assert sqrt2() * sqrt2() == rational(2)
    assert sqrt3() * sqrt3() == rational(3)
    assert sqrt5() * sqrt5() == rational(5)
    i = imag_unit()
    assert i * i == rational(-1)


def test_rational_detection():
    assert (sqrt2() * sqrt2()).is_rational
    assert (sqrt2() * sqrt2()).as_fraction() == Fraction(2)
    assert not sqrt2().is_rational


def test_roots_of_unity():
    assert zeta(ORDER, 30).is_root_of_unity()
    assert (zeta(ORDER, 24) ** 5) == rational(1)  # primitive 5th root
    assert not (sqrt2()).is_root_of_unity()


def test_complex_embedding():
    import cmath
    z = complex(zeta(ORDER))
    assert abs(z - cmath.exp(2j * cmath.pi / ORDER)) < 1e-12
    assert abs(complex(sqrt2()) - 2 ** 0.5) < 1e-12


FLOAT_CALLS = [
    ("rational", lambda: rational(0.1)),
    ("Poly", lambda: Poly([0.1])),
    ("Poly.scale", lambda: Poly.one().scale(0.1)),
    ("RatFn.constant", lambda: RatFn.constant(0.1)),
    ("QSeries.constant", lambda: QSeries.constant(0.1, 3)),
]


@pytest.mark.parametrize("name, call", FLOAT_CALLS, ids=[name for name, _ in FLOAT_CALLS])
def test_exact_constructors_reject_floats(name, call):
    # 0.1 would be 3602879701896397/36028797018963968; + - * / reject floats too
    with pytest.raises(TypeError):
        call()
