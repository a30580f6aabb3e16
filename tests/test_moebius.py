"""Moebius action, equivariance checks, characters, cross-ratio."""

import copy
import pickle
import random

import pytest

from equiops.cyclotomic import imag_unit, rational, zeta
from equiops.moebius import (Moebius, compose_after, cross_ratio,
                             equivariance_residual, form_character,
                             form_invariance_check, is_equivariant,
                             moebius_apply)
from equiops.parsing import parse_poly, parse_ratfn
from equiops.properties import KLEIN_MAP, random_moebius, random_ratfn
from equiops.ratfn import RatFn


def test_group_operations():
    rng = random.Random(5)
    m1 = random_moebius(rng)
    m2 = random_moebius(rng)
    f = random_ratfn(rng, 4)
    # action is contravariant in the argument slot
    assert compose_after(compose_after(f, m1), m2) == compose_after(f, m1 * m2)
    assert moebius_apply(m1, moebius_apply(m2, f)) == moebius_apply(m1 * m2, f)


def test_inverse_and_projective_equality():
    rng = random.Random(6)
    m = random_moebius(rng)
    ident = m * m.inverse()
    assert ident.is_projectively(Moebius.identity())
    scaled = Moebius(m.a * rational(3), m.b * rational(3),
                     m.c * rational(3), m.d * rational(3))
    assert scaled.is_projectively(m)


@pytest.mark.parametrize("x, y", [
    ((1, 0, 0, 2), (1, 0, 0, 3)),  # only the minor of a and d is nonzero
    ((0, 1, 1, 0), (0, 1, 2, 0)),
    ((1, 1, 0, 1), (1, 2, 0, 1)),
    ((1, 0, 1, 1), (1, 0, 1, 2)),
    ((1, 0, 0, 1), (1, 0, 0, -1)),
])
def test_projective_equality_needs_every_minor(x, y):
    # not proportional, though some of the six 2x2 minors vanish
    i = imag_unit()
    for s in (rational(1), rational(-3), 1 + i):
        m, n = Moebius(*x), Moebius(*[s * e for e in y])
        assert not m.is_projectively(n) and not n.is_projectively(m)
        assert m.is_projectively(Moebius(*[s * e for e in x]))


def test_klein_map_is_equivariant_for_icosahedral_generator():
    k = parse_ratfn(KLEIN_MAP)
    rot = Moebius(zeta(120, 12), rational(0), rational(0),
                  zeta(120, 120 - 12))
    assert is_equivariant(k, rot)
    assert equivariance_residual(k, rot).is_zero


def test_non_equivariant_witness():
    f = parse_ratfn("z^2 + 1")
    rot = Moebius(zeta(120, 12), rational(0), rational(0),
                  zeta(120, 120 - 12))
    assert not is_equivariant(f, rot)


def test_form_character_discovery():
    # z^4 + 1 under z -> iz is invariant; z^3 picks up character i^3... use
    # the weight convention of the package: chi is discovered, then checked.
    m = Moebius(imag_unit(), rational(0), rational(0), rational(1))
    p = parse_poly("z^4 + 1")
    chi = form_character(p, -4, m)
    ok, witness = form_invariance_check(p, -4, chi, m)
    assert ok, witness


def test_cross_ratio_values():
    # (a-c)(b-d) / ((a-d)(b-c)) on constants
    v = cross_ratio(rational(0), rational(1), rational(2), rational(3))
    assert v == RatFn.constant(rational(4) / rational(3))
    # with infinity the ratio degenerates to (a-c)/(b-c)
    v = cross_ratio(rational(0), rational(1), rational(2), "inf")
    assert v == RatFn.constant(rational(2))


def test_cross_ratio_moebius_invariance():
    rng = random.Random(8)
    m = random_moebius(rng)
    fs = [random_ratfn(rng, 3) for _ in range(4)]
    before = cross_ratio(*fs)
    after = cross_ratio(*[moebius_apply(m, f) for f in fs])
    assert before == after


def test_cross_ratio_degenerate():
    with pytest.raises(Exception):
        cross_ratio(rational(1), rational(1), rational(1), rational(1))


# -- value equality -----------------------------------------------------------

def test_moebius_compares_by_value():
    i = imag_unit()
    for m in (Moebius(1, 2, 3, 5), Moebius(i, 2, 3 * i, 5), random_moebius(random.Random(3))):
        for back in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert back is not m and back == m and m == back
            assert hash(back) == hash(m)
            assert not back != m
    a = Moebius(1, 2, 3, 5)
    assert a != Moebius(1, 2, 3, 7) and Moebius(1, 2, 3, 7) != a
    # entrywise, not projectively
    assert a != Moebius(2, 4, 6, 10) and a.is_projectively(Moebius(2, 4, 6, 10))
    # rational entries compare by value in any field order, hashes agree
    assert Moebius(1, 2, 3, 5, 60) == a and a == Moebius(1, 2, 3, 5, 60)
    assert hash(Moebius(1, 2, 3, 5, 60)) == hash(a)
    assert len({a, Moebius(1, 2, 3, 5), Moebius(1, 2, 3, 7)}) == 2


@pytest.mark.parametrize("other", [3, rational(3), "Moebius", (1, 2, 3, 5), None])
def test_moebius_equality_with_foreign_operands(other):
    a = Moebius(1, 2, 3, 5)
    assert a.__eq__(other) is NotImplemented
    assert a != other and other != a
    assert not (a == other) and not (other == a)
