"""Literal parser/printer round trips."""

import pytest

from equiops.cyclotomic import rational, sqrt2
from equiops.parsing import (cyclo_literal, parse_cyclo, parse_poly,
                             parse_ratfn, poly_literal, ratfn_literal)
from equiops.properties import KLEIN_MAP

SAMPLES_RATFN = [
    "z",
    "(z^2 + 1)/(2*z)",
    KLEIN_MAP,
    "(zeta^30*z - 1)/(z + zeta^30)",
    "1/2",
    "(z^3 - (1/4)*z)/(z^2 - 7)",
]


@pytest.mark.parametrize("text", SAMPLES_RATFN)
def test_ratfn_roundtrip(text):
    f = parse_ratfn(text)
    assert parse_ratfn(ratfn_literal(f)) == f


def test_poly_roundtrip():
    p = parse_poly("z^4 - 2*(zeta^15+zeta^105)*z")
    assert parse_poly(poly_literal(p)) == p


def test_cyclo_roundtrip():
    c = parse_cyclo("(1/3)*zeta^7 - zeta^110 + 4")
    assert parse_cyclo(cyclo_literal(c)) == c


def test_sqrt2_literal():
    assert parse_cyclo("zeta^15 + zeta^105") == sqrt2()


def test_rational_literal():
    assert parse_cyclo("-7/3") == rational(-7) / rational(3)


def test_infinity_symbol():
    f = parse_ratfn("inf")
    assert f.is_infinity


def test_parse_errors():
    for bad in ("z +", "(z", "z^^2", "q + 1"):
        with pytest.raises(Exception):
            parse_ratfn(bad)
