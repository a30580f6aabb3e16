"""The contract of the eight exact value types, once for all of them.

equiops decides its identities by comparing exact values, so every verdict
rests on these holding for `Cyclo`, `Poly`, `RatFn`, `QSeries`, `Moebius`,
`NCPoly`, `MatFn` and `GenMoebius`:

* `==` agrees with `hash`, also for one value stored at two conductors, or
  on a real key and at a conductor;
  the types compared under truncation or entrywise as matrices (`QSeries`,
  `NCPoly`, `MatFn`, `GenMoebius`) refuse to hash, as each defines
  `__eq__` and no `__hash__`;
* rational data compares by value across field orders; irrational data of
  two orders raises `CycloError`, and so does arithmetic across two orders;
* a foreign operand gets `NotImplemented` from every operator method, in
  both operand orders, `**` included, and an int acts as a constant; to the
  group types `Moebius` and `GenMoebius` an int, a `Cyclo` and a value of
  another type are foreign too;
* the truth value means nonzero;
* pickle and deepcopy round-trip and leave the memos `RatFn._ops` and
  `MatFn._form` behind;
* no attribute can be assigned or deleted, except on `Poly`.

The six ring types take `-`, reflected `-` and truth, and the fields
reflected `/` and `**`, from one protocol base, `cyclotomic._Ring` or
`_Field`; `tests/test_imports.py` checks that no type copies them.

Each value is built from four coefficients drawn by hypothesis: nonzero
rationals, or a + b zeta_c^u with b != 0 at conductors c = 4, 5, 8 and 120,
or a + b (zeta_c^u + zeta_c^-u) in the real subfields for c = 5, 8 and 12,
which `Poly` and `QSeries` store on the real keys -5, -8 and -12.

`Poly.divmod`, `exact_div`, `gcd` and `gcd_cofactors` take an exact scalar
as `//` and `%` do, and raise TypeError for a float or a foreign value.
"""

import copy
import operator
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from equiops.cyclotomic import CycloError, imag_unit, rational, sqrt5, zeta
from equiops.moebius import Moebius
from equiops.ncalg import GenMoebius, MatFn, NCPoly, _form_of
from equiops.operators import pre_schwarzian
from equiops.poly import Poly
from equiops.qseries import QSeries
from equiops.ratfn import RatFn

N = 120
BUILD = {
    "Cyclo": lambda c, order: c[0],
    "Poly": lambda c, order: Poly(c, order),
    "RatFn": lambda c, order: RatFn(Poly(c[:2], order), Poly([c[2], 1], order)),
    "QSeries": lambda c, order: QSeries(1, dict(enumerate(c)), 4, order),
    "Moebius": lambda c, order: Moebius(1, c[0], c[1], 1 + c[0] * c[1], order),
    "NCPoly": lambda c, order: NCPoly({(): c[0], (1,): c[1], (2, 1): c[2], (1, 2): c[3]}),
    "MatFn": lambda c, order: MatFn([[Poly(c[:2], order), c[2]], [0, c[3]]], order),
    "GenMoebius": lambda c, order: GenMoebius([[1, c[0]], [0, 1]], [[c[1], 0], [0, c[2]]],
                                              [[0, 0], [0, 0]], [[1, 0], [c[3], 1]], order),
}
KINDS = sorted(BUILD)
HASHABLE = {"Cyclo", "Poly", "RatFn", "Moebius"}
INVERTIBLE = {"Moebius", "GenMoebius"}  # never zero, so always true
RING = (operator.add, operator.sub, operator.mul)
FIELD = RING + (operator.truediv,)
ARITHMETIC = {"Cyclo": FIELD, "Poly": RING, "RatFn": FIELD, "QSeries": FIELD,
              "Moebius": (operator.mul,), "NCPoly": RING, "MatFn": RING, "GenMoebius": ()}
OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv, operator.floordiv,
             operator.mod, operator.pow)
METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
           "__rtruediv__", "__floordiv__", "__mod__", "__pow__", "__eq__")
FOREIGN = (1.5, None, "a", (1, 2))
# the constants of the ring types, and values that neither group type takes
GROUP_FOREIGN = (3, rational(3), Moebius.identity(), MatFn([[1]]))

# a negative c stands for the real a + b (zeta_|c|^u + zeta_|c|^-u)
CONDUCTORS = (4, 5, 8, 120, -5, -8, -12)
FRACTIONS = sorted({Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)})
small = st.sampled_from([f for f in FRACTIONS if f])


@st.composite
def irrational(draw, conductors):
    """(a, b, c, u): a + b zeta_c^u with b != 0 and u a unit mod c, or
    a + b (zeta_m^u + zeta_m^-u) for c = -m."""
    c = draw(st.sampled_from(conductors))
    u = draw(st.sampled_from([u for u in range(1, abs(c)) if gcd(u, c) == 1]))
    return draw(st.sampled_from(FRACTIONS)), draw(small), c, u


def rationals():
    return st.lists(small.map(lambda a: (a, 0, 1, 0)), min_size=4, max_size=4)


def irrationals(conductors=CONDUCTORS):
    return st.lists(irrational(conductors), min_size=4, max_size=4)


def samples():
    return st.one_of(rationals(), irrationals())


def coefficients(data, order=N):
    """a + b zeta_c^u for each (a, b, c, u) of data, and
    a + b (zeta_m^u + zeta_m^-u) for c = -m."""
    return [rational(a, order) + rational(b, order) * (
        zeta(order, u * order // c) if c > 0 else
        zeta(order, -u * order // c) + zeta(order, u * order // c)) for a, b, c, u in data]


def build(kind, data, order=N):
    return BUILD[kind](coefficients(data, order), order)


def lifted(kind, data):
    """The value of build(kind, data) from coefficients stored at the lcm of
    their conductor and 3: x w / w, w = zeta_3, keeps the lcm for an irrational x."""
    w = zeta(N, N // 3)
    return BUILD[kind]([x * w / w for x in coefficients(data)], N)


def at_conductor(x):
    """x times i times 1 / i: a ring value whose stored rows keep the join of
    their key with i's conductor 4, so a value on a real key moves to a
    conductor."""
    i = imag_unit()
    return x * i * i.inverse()


def slots(value):
    return [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())]


cases = settings(max_examples=6, deadline=None)
by_kind = pytest.mark.parametrize("kind", KINDS)


@by_kind
@cases
@given(samples(), samples())
def test_equality_agrees_with_hash(kind, data, other):
    x, same, y = build(kind, data), lifted(kind, data), build(kind, other)
    bumped = build(kind, [(data[0][0] + 1,) + data[0][1:]] + data[1:])
    assert x == same and same == x and not x != same
    assert repr(x) == repr(same)
    if kind not in INVERTIBLE:
        moved = at_conductor(x)
        assert x == moved and moved == x and not x != moved and repr(x) == repr(moved)
        assert moved != bumped
        if kind in HASHABLE:
            assert hash(x) == hash(moved)
    assert x != bumped and bumped != x and not x == bumped
    assert (x == y) == (y == x) != (x != y)
    if kind in HASHABLE:
        assert hash(x) == hash(same) and len({x, same, bumped}) == 2
        assert x != y or hash(x) == hash(y)
    else:
        for value in (x, same):
            with pytest.raises(TypeError):
                hash(value)


@by_kind
@cases
@given(rationals())
@example([(3, 0, 1, 0), (1, 0, 1, 0), (2, 0, 1, 0), (-1, 0, 1, 0)])
def test_rationals_compare_by_value_across_orders(kind, data):
    x, y = build(kind, data), build(kind, data, 60)
    assert x == y and y == x and not x != y
    if kind in HASHABLE:
        assert hash(x) == hash(y)
    for op in ARITHMETIC[kind]:
        for a, b in ((x, y), (y, x)):
            with pytest.raises(CycloError):
                op(a, b)


@by_kind
@cases
@given(irrationals(conductors=(4, 5)))
@example([(0, 1, 4, 1), (0, 1, 5, 1), (2, 1, 4, 3), (0, -1, 5, 2)])  # i, zeta_5, ...
def test_irrational_data_of_two_orders_raises(kind, data):
    x, y = build(kind, data), build(kind, data, 60)
    for a, b in ((x, y), (y, x)):
        for op in ARITHMETIC[kind] + (operator.eq,):
            with pytest.raises(CycloError):
                op(a, b)


@by_kind
@cases
@given(samples())
def test_foreign_operands_get_not_implemented(kind, data):
    x = build(kind, data)
    group = [v for v in GROUP_FOREIGN if type(v).__name__ != kind] if kind in INVERTIBLE else []
    for other in FOREIGN + tuple(group):
        for name in METHODS:
            method = getattr(x, name, None)
            assert method is None or method(other) is NotImplemented, (name, other)
        for a, b in ((x, other), (other, x)):
            # str and tuple operands may answer as sequences, with their own message
            message = "unsupported operand type.*'%s' and '%s'" % (type(a).__name__,
                                                                   type(b).__name__)
            for op in OPERATORS:
                with pytest.raises(TypeError,
                                   match=None if isinstance(other, (str, tuple)) else message):
                    op(a, b)
            assert a != b and not a == b
        assert other not in [x] and x not in [other]


@pytest.mark.parametrize("kind", sorted(set(KINDS) - INVERTIBLE))
@cases
@given(samples())
def test_an_int_acts_as_a_constant(kind, data):
    x = build(kind, data)
    assert 3 + x == x + 3 and 3 * x == x * 3 and 3 - x == -(x - 3) and (3 - x) + x == 3
    if operator.truediv in ARITHMETIC[kind]:
        assert (3 / x) * x == 3


@by_kind
@cases
@given(samples())
def test_truth_means_nonzero(kind, data):
    x, zero = build(kind, data), build(kind, [(0, 0, 1, 0)] * 4)
    if kind in INVERTIBLE:
        assert x and zero
    else:
        assert x and not x.is_zero and not (x - x) and not zero and zero.is_zero


@by_kind
@cases
@given(samples())
def test_pickle_and_deepcopy_round_trip(kind, data):
    x = build(kind, data)
    if kind == "RatFn" and not x.is_constant:
        pre_schwarzian(x)
        assert x._ops  # a memo to leave behind
    if kind == "MatFn":
        assert _form_of(x) is x._form
    for back in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert type(back) is type(x) and back is not x
        assert back == x and x == back and not back != x and repr(back) == repr(x)
        if kind in HASHABLE:
            assert hash(back) == hash(x)
        if kind == "RatFn":
            assert back._ops == {}
        if kind == "MatFn":
            assert back._form is None
    if kind not in INVERTIBLE:  # the value at the other storage
        moved = at_conductor(x)
        back = pickle.loads(pickle.dumps(moved))
        assert back == x and x == back and repr(back) == repr(x)
        if kind in HASHABLE:
            assert hash(back) == hash(x)


# one rational and one irrational sample of each type, at conductors 4, 5, 8 and 120
FIXED = ([(Fraction(1, 2), 0, 1, 0), (2, 0, 1, 0), (-3, 0, 1, 0), (Fraction(2, 3), 0, 1, 0)],
         [(1, 2, 5, 1), (Fraction(-1, 3), 1, 4, 1), (0, 1, 8, 3), (2, -1, 120, 7)])
POLY_OPEN = pytest.mark.xfail(strict=True, reason=(
    "Poly keeps plain slot stores: its `_make` is the hottest builder of the identities "
    "workload, and storing its six slots past the guard added 0.15-0.33 us to each of the "
    "7875 calls of a warm in-process pass, 3-6 % of the pass"))
guarded = pytest.mark.parametrize("kind", [pytest.param(kind, marks=POLY_OPEN) if kind == "Poly"
                                           else kind for kind in KINDS])


@guarded
def test_assignment_is_refused(kind):
    for x in (build(kind, data) for data in FIXED):
        before = repr(x)
        for name in slots(x) + ["other"]:
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(x, name, rational(7))
        assert repr(x) == before


@guarded
def test_deletion_is_refused(kind):
    for x in (build(kind, data) for data in FIXED):
        before = repr(x)
        for name in slots(x):
            with pytest.raises(AttributeError, match="is immutable"):
                delattr(x, name)
        assert repr(x) == before


# -- divmod and the gcd of Poly take an exact scalar ---------------------------

SCALARS = {"int": 2, "fraction": Fraction(-1, 2), "rational": rational(3), "sqrt5": sqrt5(),
           "golden": sqrt5() / 2 + 1, "zeta7": zeta(N, 7)}


@pytest.mark.parametrize("scalar", SCALARS.values(), ids=SCALARS.keys())
def test_poly_division_and_gcd_take_an_exact_scalar(scalar):
    p, c = Poly([2, 4]), Poly.constant(scalar)
    quo, rem = p.divmod(scalar)
    assert (quo, rem) == p.divmod(c) and quo == p // scalar and rem == p % scalar
    assert rem.is_zero and p.exact_div(scalar) == quo and quo * scalar == p
    assert p.gcd(scalar) == p.gcd(c) == 1
    assert p.gcd_cofactors(scalar) == p.gcd_cofactors(c) == (Poly.one(), p, c)
    assert Poly.zero().gcd_cofactors(scalar) == (Poly.one(), Poly.zero(), c)


@pytest.mark.parametrize("value", FOREIGN + (1j,), ids=repr)
def test_poly_division_and_gcd_refuse_a_float_or_a_foreign_value(value):
    for name in ("divmod", "exact_div", "gcd", "gcd_cofactors"):
        with pytest.raises(TypeError):
            getattr(Poly([2, 4]), name)(value)
