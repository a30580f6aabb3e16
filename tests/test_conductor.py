"""Conductor storage of `Cyclo` against a raw reference on Q(zeta_120).

The reference keeps every element as its full 32-entry integer vector on
the power basis of Q(zeta_120) over one denominator, multiplies with
`_mul_vec` at N = 120 and inverts with the norm tower at N = 120, so it
never sees a conductor.  Every operation of `Cyclo` must give the same
vector, denominator, hash, equality, literal and complex value.
"""

import cmath
import copy
import hashlib
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from equiops.cyclotomic import (Cyclo, CycloError, _conjugate, _galois_tower,
                                _mul_vec, _zeta_powers, imag_unit, rational,
                                sqrt2, sqrt3, sqrt5, totient, zeta)
from equiops.divisors import Divisor, Place, ramification_divisor
from equiops.lift import legendrian_lift_series
from equiops.moebius import load_group_config
from equiops.operators import d_operator, period_residues
from equiops.parsing import cyclo_literal, parse_cyclo, parse_poly, parse_ratfn
from equiops.poly import Poly
from equiops.properties import random_ratfn
from equiops.ratfn import RatFn
from equiops.report import config_path

N = 120
D = totient(N)


# -- the reference: raw vectors at N ---------------------------------------


def _row(k):
    vec = [0] * D
    for t, c in _zeta_powers(N)[k % N]:
        vec[t] = c
    return vec


class Ref:
    """vec / den on the power basis of Q(zeta_120), in lowest terms."""

    def __init__(self, vec, den=1):
        if den < 0:
            vec, den = [-c for c in vec], -den
        g = gcd(den, *vec)
        self.num, self.den = tuple(c // g for c in vec), den // g

    @property
    def is_rational(self):
        return not any(self.num[1:])

    def as_fraction(self):
        return Fraction(self.num[0], self.den)

    def __add__(self, o):
        return Ref([a * o.den + b * self.den for a, b in zip(self.num, o.num)],
                   self.den * o.den)

    def __neg__(self):
        return Ref([-c for c in self.num], self.den)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        return Ref(_mul_vec(self.num, o.num, N), self.den * o.den)

    def inverse(self):
        b, cof = list(self.num), _row(0)
        if not any(b):
            raise ZeroDivisionError
        for k, p in _galois_tower(N):
            s = _conjugate(b, k, N)
            if s == b:
                continue
            c = s
            for _ in range(p - 2):
                s = _conjugate(s, k, N)
                c = _mul_vec(c, s, N)
            cof, b = _mul_vec(cof, c, N), _mul_vec(b, c, N)
        return Ref([self.den * c for c in cof], b[0])

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, k):
        base = self if k >= 0 else self.inverse()
        out = Ref(_row(0))
        for _ in range(abs(k)):
            out = out * base
        return out

    def __eq__(self, o):
        return (self.num, self.den) == (o.num, o.den)

    def __hash__(self):
        if self.is_rational:
            return hash(self.as_fraction())
        return hash((N, self.num, self.den))

    def __complex__(self):
        z, acc, p = cmath.exp(2j * cmath.pi / N), 0j, 1 + 0j
        for c in self.num:
            if c:
                acc += c * p
            p *= z
        return acc / self.den


def assert_matches(c, ref):
    assert (c.order, c.num, c.den) == (N, ref.num, ref.den)
    assert hash(c) == hash(ref)
    assert repr(c) == cyclo_literal(ref)
    assert complex(c) == complex(ref)
    assert c.is_rational == ref.is_rational


# generator steps k of zeta_120^k: Q(i), Q(zeta_5), Q(zeta_20), Q(zeta_24)
# and Q(zeta_120) itself
FIELDS = {"i": 30, "zeta5": 24, "zeta20": 6, "zeta24": 5, "zeta120": 1}
# real quadratic fields: the generator and its terms (sign, k) of zeta_120^k
REAL = {"sqrt5": (sqrt5, ((1, 24), (-1, 48), (-1, 72), (1, 96))),
        "sqrt2": (sqrt2, ((1, 15), (1, 105))), "sqrt3": (sqrt3, ((1, 10), (1, 110)))}


@st.composite
def elements(draw):
    """(Cyclo, Ref) for a0 + a1 g + a2 g^2 + a3 g^3 over den, g = zeta^k of
    one of FIELDS, or a + b g for g = sqrt5, sqrt2 or sqrt3; the Cyclo built
    by arithmetic or by the public constructor on the raw vector."""
    kind = draw(st.sampled_from(sorted(FIELDS) + sorted(REAL)))
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
    den = draw(st.integers(1, 9))
    if kind in REAL:
        gen, terms = REAL[kind]
        vec = [sum(sign * _row(k)[t] for sign, k in terms) for t in range(D)]
        gens = [(rational(1), _row(0)), (gen(), vec)]
    else:
        k = FIELDS[kind]
        gens = [(zeta(N, k * j), _row(k * j)) for j in range(4)]
    ref = Ref([sum(a * g[t] for a, (_, g) in zip(coeffs, gens)) for t in range(D)], den)
    if draw(st.booleans()):
        c = sum((g * a for a, (g, _) in zip(coeffs, gens)), rational(0)) / den
    else:
        c = Cyclo(N, list(ref.num), ref.den)
    return c, ref


@settings(max_examples=150, deadline=None)
@given(elements(), elements(), st.integers(-3, 4))
def test_every_operation_matches_the_raw_reference(x, y, k):
    (a, ra), (b, rb) = x, y
    assert_matches(a, ra)
    assert_matches(a + b, ra + rb)
    assert_matches(a - b, ra - rb)
    assert_matches(a * b, ra * rb)
    assert_matches(-a, -ra)
    assert (a == b) == (ra == rb) and (a != b) == (ra != rb)
    if any(ra.num):
        assert_matches(a.inverse(), ra.inverse())
        assert_matches(b / a, rb / ra)
        assert_matches(a ** k, ra ** k)
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        with pytest.raises(ZeroDivisionError):
            b / a
    # the same through the store of Poly: each operand enters on its key, a
    # real subfield's on its real key, and the two meet at the join
    p, q = Poly([a, b, 1]), Poly([b, 1])  # (a + b z + z^2)(b + z)
    assert [(c.order, c.num, c.den) for c in (p * q).coeffs] == \
        [(N, r.num, r.den) for r in (ra * rb, ra + rb * rb, rb + rb, Ref(_row(0)))]
    assert [(c.num, c.den) for c in (p + q).coeffs] == \
        [(r.num, r.den) for r in (ra + rb, rb + Ref(_row(0)), Ref(_row(0)))]
    assert (Poly.constant(a) == Poly.constant(b)) == (ra == rb)


def test_a_product_in_a_subfield_is_stored_there():
    five = sqrt5() * sqrt5()
    assert five == 5 and five._m == 1 and five.is_rational
    assert hash(five) == hash(Fraction(5)) == hash(rational(5))
    i = imag_unit()
    assert (i * i)._m == 1 and i * i == -1


def test_one_value_at_two_conductors():
    z5 = zeta(N, 24)
    i_at_20 = (imag_unit() * z5) / z5  # keeps the lcm conductor 20
    i_at_4 = imag_unit()
    assert (i_at_20._m, i_at_4._m) == (20, 4)
    assert i_at_20 == i_at_4 and i_at_4 == i_at_20
    assert hash(i_at_20) == hash(i_at_4)
    assert i_at_20.num == i_at_4.num and repr(i_at_20) == repr(i_at_4)
    assert i_at_20 != i_at_4 + 1 and i_at_20 != zeta(N, 6)


def test_mixed_orders_still_raise():
    with pytest.raises(CycloError):
        sqrt5() + sqrt5(60)
    with pytest.raises(CycloError):
        imag_unit() * imag_unit(60)
    with pytest.raises(CycloError):
        sqrt5() == sqrt5(60)
    assert rational(3) == rational(3, 60)  # rationals compare in any order


@pytest.mark.parametrize("value", [rational(Fraction(-7, 3)), sqrt5() / 3, imag_unit() + 2,
                                   zeta(N, 1) * zeta(N, 24) + Fraction(1, 5),
                                   (imag_unit() * zeta(N, 24)) / zeta(N, 24)])
def test_pickle_and_deepcopy_round_trips(value):
    for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert (back._m, back._v, back.den, back.order) == (value._m, value._v, value.den, value.order)
        assert back == value and hash(back) == hash(value) and repr(back) == repr(value)
    p = Poly([value, 1, value])
    assert pickle.loads(pickle.dumps(p)) == p


def _least_conductor(num):
    """The least d | N with sigma_k fixing num for every unit k = 1 mod d."""
    units = [k for k in range(1, N) if gcd(k, N) == 1]
    return min(d for d in range(1, N + 1) if N % d == 0 and all(
        _conjugate(list(num), k, N) == list(num) for k in units if k % d == 1 % d))


def test_conductors_found_where_data_enters():
    assert (sqrt5()._m, imag_unit()._m, zeta(N, 2)._m) == (5, 4, 60)
    assert (zeta(N, 20)._m, zeta(N, 60)._m, zeta(N, 0)._m) == (3, 1, 1)
    assert Cyclo(N, imag_unit().num)._m == 4


@pytest.mark.parametrize("name,conductors", [("A4", {3, 24}), ("S4", {8}), ("A5", {5})])
def test_parsed_group_constants_are_at_their_conductors(name, conductors):
    cfg = load_group_config(config_path(name))
    entries = [e for g in cfg.generators for e in (g.a, g.b, g.c, g.d) if not e.is_rational]
    assert {e._m for e in entries} == conductors
    for e in entries:
        assert e._m == _least_conductor(e.num)
    assert parse_cyclo("zeta^15 + zeta^105")._m == 8  # sqrt2
    assert parse_poly("z^3 + (zeta^15+zeta^105)/4").leading.is_rational


# -- lift, period residues and divisors: outputs recorded with the former
# two-cofactor splitting and the lift that recomputed the pre-Schwarzian ------


def _field_map(rng, gen):
    def coeff():
        return rng.randint(-3, 3) + rng.randint(1, 3) * gen
    return RatFn(Poly([coeff(), coeff(), 1]), Poly([coeff(), 1]))


def _maps():
    rng = random.Random(1414)
    maps = [random_ratfn(rng, 4) for _ in range(6)]
    return maps + [_field_map(rng, g) for g in (sqrt5(), imag_unit(), zeta(N, 5))]


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _lift_text():
    out = []
    for f in _maps():
        for p in (1, 2, 3):
            try:
                lift = legendrian_lift_series(f, p=rational(p), n=6)
            except (ValueError, ZeroDivisionError) as exc:
                out.append("no lift: %s" % exc)
                continue
            out += [repr(lift.matrix), repr(lift.mc_form()), repr(lift.contact_residuals()),
                    repr(lift.q_potential), repr(lift.determinant())]
            try:
                out.append(repr(lift.pi2_series()))
            except ZeroDivisionError as exc:
                out.append("no pi2: %s" % exc)
            break
    return out


def _period_text():
    out = []
    for f in _maps():
        fhat = d_operator(f)
        if not fhat.degenerate:
            out.append(repr(period_residues(f, fhat)))
    f = parse_ratfn("z^4 - 2*z")
    out.append(repr(period_residues(f, parse_ratfn("z^2 + 3"))))
    return out


def _divisor_text():
    out = []
    maps = _maps()
    for f, g in zip(maps, maps[1:]):
        rf, rg = ramification_divisor(f), ramification_divisor(g)
        out += [repr(sorted(map(repr, (rf - rg).refined_items().items()))),
                repr(rf == rg), repr(rf - rf == Divisor.zero(N)), repr(rf.agrees_with_on_support(rg))]
    bundle = Divisor([(Place.bundle(parse_poly("(z^2 - 5)*(z^2 + 1)*(z - 2)")), 2)])
    split = Divisor([(Place.bundle(parse_poly("z^2 - 5")), 2), (Place.bundle(parse_poly("z^2 + 1")), 2),
                     (Place.point(rational(2)), 2)])
    out += [repr(bundle == split), repr(sorted(map(repr, bundle.refined_items().items())))]
    return out


@pytest.mark.parametrize("text,digest", [
    (_lift_text, "c97d946387f2cb5b013f1c4de004f54edeee10537159f6d01a5bcde6eb36d224"),
    (_period_text, "c8b344c665df799144b49bc95be07c844767ed9ee7f6c9ad7bc27aa0cb0c23a0"),
    (_divisor_text, "3abd9462b3a7fa3bd25202dc9133216670075a3d1bb39d77b3b25ea2a041fd82"),
])
def test_single_division_paths_keep_their_outputs(text, digest):
    assert _digest(text()) == digest
