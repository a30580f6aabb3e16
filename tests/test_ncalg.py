"""Non-commutative calculus: S_n hierarchy, matrix evaluation, equivariance."""

import copy
import pickle
import random
import sys
import threading
from fractions import Fraction
from types import MappingProxyType

import pytest

from equiops import ncalg
from equiops.cyclotomic import rational
from equiops.moebius import Moebius
from equiops.ncalg import (GenMoebius, MatFn, NCExpr, NCPoly, _form_of,
                           deform_family, gen_moebius_apply, nc_d_operator, nc_derive,
                           nc_eval, nc_phi_deform, phi_generators,
                           q_compose_step, s_poly, theorem2_substitute)
from equiops.operators import schwarzian
from equiops.parsing import parse_ratfn
from equiops.poly import Poly
from equiops.properties import (NCALG_CHECKS, check_semi_invariance,
                                ncalg_inputs, random_gen_moebius,
                                random_matfn)
from equiops.ratfn import RatFn

SEED = 4242


def rand_matfn(rng):
    return random_matfn(rng, lambda: rng.randint(2, 3))


def test_derivation_rule():
    assert nc_derive(NCPoly.one()).is_zero
    p1 = NCPoly.generator(1)
    assert nc_derive(p1) == NCPoly.generator(2) + p1 * p1 * 2
    assert nc_derive(s_poly(1)).canonical_text() == \
        "p3 + 3 p2 p1 + 5 p1 p2 + 12 p1^3"


def test_q_compose_step():
    assert q_compose_step(NCPoly.one()).is_zero
    p1 = NCPoly.generator(1)
    assert q_compose_step(p1) == nc_derive(p1)  # commutator vanishes


def test_s_poly_golden():
    assert s_poly(0) == NCPoly.one()
    assert s_poly(1).canonical_text() == "p2 + 3 p1^2"
    assert s_poly(2).canonical_text() == "p3 + 4 p2 p1 + 4 p1 p2 + 12 p1^3"


def test_s3_coefficient_eight():
    # recursion and the scalar differentiation oracle both give 8 for p2^2
    s3 = s_poly(3)
    assert s3.coefficient((2, 2)) == 8
    assert s3.coefficient((4,)) == 1
    assert s3.coefficient((1, 2, 1)) == 20


def test_homogeneity():
    for n in range(1, 6):
        assert s_poly(n).weight() == n + 1


def test_threads_extending_s_keep_each_s_n_at_its_index(monkeypatch):
    want = [s_poly(n) for n in range(7)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the q-composition steps
    try:
        for _ in range(8):
            monkeypatch.setattr(ncalg, "_S_CACHE", {0: want[0], 1: want[1]})
            barrier = threading.Barrier(4, timeout=60)

            def build():
                barrier.wait()
                s_poly(4)

            threads = [threading.Thread(target=build) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert [s_poly(n) for n in range(7)] == want
            assert [s_poly(n).weight() for n in range(1, 7)] == list(range(2, 8))
    finally:
        sys.setswitchinterval(interval)


def test_coefficient_sum_matches_scalar_shadow():
    # setting all generators to 1 turns the recursion into
    # a_{n+1} = (sum of indices + 2 per p1 pair) ... cross-check against a
    # direct scalar substitution into the recursion
    def scalar_value(p):
        return p.coefficient_sum()
    for n in range(1, 5):
        direct = scalar_value(s_poly(n + 1))
        via_step = scalar_value(q_compose_step(s_poly(n)))
        assert direct == via_step


def test_classical_limit():
    assert s_poly(2).classical_limit().canonical_text() == \
        "p3 + 8 p1 p2 + 12 p1^3"


def test_scalar_s1_matches_schwarzian():
    f = MatFn([[parse_ratfn("z^3")]])
    value = nc_eval(s_poly(1), f).rows[0][0]
    assert value == schwarzian(parse_ratfn("z^3"))


def test_phi1_on_diagonal_matrix():
    f = MatFn([[parse_ratfn("z^2"), parse_ratfn("0")],
               [parse_ratfn("0"), parse_ratfn("z^3")]])
    p1 = nc_eval(NCPoly.generator(1), f)
    assert p1.rows[0][0] == parse_ratfn("-1/(2*z)")
    assert p1.rows[1][1] == parse_ratfn("-1/z")
    assert p1.rows[0][1].is_zero and p1.rows[1][0].is_zero


def test_matfn_inverse():
    rng = random.Random(SEED)
    f = rand_matfn(rng)
    assert f * f.inverse() == MatFn.identity(2)
    singular = MatFn([[parse_ratfn("z"), parse_ratfn("z")],
                      [parse_ratfn("1"), parse_ratfn("1")]])
    with pytest.raises(ZeroDivisionError):
        singular.inverse()


def test_matfn_refuses_infinite_entries():
    # 0 * inf and 0 + inf raise, though the products and sums skip zeros
    inf, f = RatFn.infinity(), MatFn([[0, 1], [0, 0]])
    for thunk in (lambda: MatFn([[inf, 0], [0, 1]]), lambda: MatFn.scalar(inf, 2),
                  lambda: f * inf, lambda: inf * f, lambda: f + inf,
                  lambda: MatFn.scalar(0, 2) * inf):
        with pytest.raises(ArithmeticError):
            thunk()


def test_matfn_det_and_inverse_1x1():
    f = MatFn([[parse_ratfn("z^2 + 1")]])
    assert f.det() == parse_ratfn("z^2 + 1")
    assert f.inverse() == MatFn([[parse_ratfn("1/(z^2 + 1)")]])
    assert f * f.inverse() == MatFn.identity(1)
    with pytest.raises(ZeroDivisionError):
        MatFn([[0]]).inverse()


def test_matfn_det_and_inverse_3x3():
    entries = [["z", "1", "2*z"], ["z^2", "z - 1", "3"], ["1", "z^3", "z + 2"]]
    f = MatFn([[parse_ratfn(e) for e in row] for row in entries])
    (a, b, c), (d, e, g), (h, i, j) = f.rows
    # rule of Sarrus
    assert f.det() == a * e * j + b * g * h + c * d * i - \
        c * e * h - b * d * j - a * g * i
    assert f * f.inverse() == MatFn.identity(3)
    assert f.inverse() * f == MatFn.identity(3)
    rows = list(f.rows[:2]) + [[x + y for x, y in zip(f.rows[0], f.rows[1])]]
    singular = MatFn(rows)
    assert singular.det().is_zero
    with pytest.raises(ZeroDivisionError):
        singular.inverse()


def test_gen_moebius_1x1_and_2x2_blocks():
    f = parse_ratfn("z^2 + 3")
    t = GenMoebius([[rational(2)]], [[rational(0)]],
                   [[rational(0)]], [[rational(1)]])
    assert gen_moebius_apply(t, MatFn([[f]])).rows[0][0] == f * 2
    with pytest.raises(ValueError):
        GenMoebius([[1]], [[1]], [[1]], [[1]])  # singular block matrix
    rng = random.Random(SEED + 6)
    g = rand_matfn(rng)
    a = [[1, 2], [0, 3]]
    zero = [[0, 0], [0, 0]]
    one = [[1, 0], [0, 1]]
    assert gen_moebius_apply(GenMoebius(a, zero, zero, one), g) == \
        MatFn(a) * g
    assert gen_moebius_apply(GenMoebius(one, a, zero, one), g) == \
        g + MatFn(a)
    with pytest.raises(ValueError):
        GenMoebius(one, one, one, one)


# f = z^2 has p1 = -1/(2z); every entry of FLAT has derivative 1, so its
# fdot is singular.
Z2 = MatFn([[parse_ratfn("z^2")]])
FLAT = MatFn([[parse_ratfn("z")] * 2] * 2)

SINGULAR_INPUTS = {
    "nc_eval": lambda: nc_eval(s_poly(1), FLAT),
    "phi_generators": lambda: phi_generators(FLAT, 2),
    "gen_moebius_apply": lambda: gen_moebius_apply(GenMoebius.inversion(2),
                                                   FLAT),
    "nc_d_operator": lambda: nc_d_operator(MatFn(
        [[parse_ratfn("z"), 1], [2, parse_ratfn("z + 3")]])),
    "nc_phi_deform": lambda: nc_phi_deform(Z2, -NCPoly.generator(1)),
    "deform_family.fdot": lambda: deform_family(FLAT, 2),
    "deform_family.fdot_at_0": lambda: deform_family(FLAT, 0),
    "deform_family.bracket": lambda: deform_family(Z2, parse_ratfn("2*z")),
    "NCExpr.inverse": lambda: NCExpr.scalar(0).inverse().eval(Z2),
    "Theorem2Operator.apply.fdot": lambda: theorem2_substitute(
        NCExpr.var(0)).apply(FLAT),
    "Theorem2Operator.apply.bracket": lambda: theorem2_substitute(
        NCExpr.scalar(parse_ratfn("1/(2*z)"))).apply(Z2),
}


@pytest.mark.parametrize("site", sorted(SINGULAR_INPUTS))
def test_singular_input_raises(site):
    with pytest.raises(ZeroDivisionError):
        SINGULAR_INPUTS[site]()


def test_gen_moebius_special_cases():
    rng = random.Random(SEED + 1)
    f = rand_matfn(rng)
    ident = GenMoebius.identity(2)
    assert gen_moebius_apply(ident, f) == f
    swap = GenMoebius.inversion(2)
    assert gen_moebius_apply(swap, f) == f.inverse()


def test_gen_moebius_scalar_reduction():
    from equiops.moebius import Moebius, moebius_apply
    m = Moebius(rational(2), rational(1), rational(1), rational(1))
    t = GenMoebius([[rational(2)]], [[rational(1)]],
                   [[rational(1)]], [[rational(1)]])
    f = parse_ratfn("z^3 + z")
    assert gen_moebius_apply(t, MatFn([[f]])).rows[0][0] == moebius_apply(m, f)


def test_nc_d_operator_scalar():
    f = MatFn([[parse_ratfn("z^2")]])
    assert nc_d_operator(f).rows[0][0] == parse_ratfn("-3*z^2")


def test_nc_d_operator_degenerate():
    f = MatFn([[parse_ratfn("z"), parse_ratfn("1")],
               [parse_ratfn("2"), parse_ratfn("z + 3")]])
    with pytest.raises(ZeroDivisionError):
        nc_d_operator(f)


def test_deform_family_endpoints():
    rng = random.Random(SEED + 2)
    f = rand_matfn(rng)
    assert deform_family(f, 0) == f
    scalar = MatFn([[parse_ratfn("z^2")]])
    assert deform_family(scalar, 1).rows[0][0] == parse_ratfn(
        "z^2 + (4*z^2)/(2*z - 1)")


def test_equivariance_and_semi_invariance():
    rng = random.Random(SEED + 3)
    for _ in range(3):
        t, f = ncalg_inputs(rng, lambda: rng.randint(2, 3))
        tf = gen_moebius_apply(t, f)  # shared by every check of the draw
        for check_id, check in NCALG_CHECKS:
            ok, detail = check(t, f, tf)
            assert ok, (check_id, detail)
        ok, detail = check_semi_invariance(s_poly(2), t, f, tf)
        assert ok, detail


def test_phi_deform_zero_is_d():
    rng = random.Random(SEED + 4)
    f = rand_matfn(rng)
    assert nc_phi_deform(f, NCPoly.zero()) == nc_d_operator(f)


def test_theorem2_images():
    rng = random.Random(SEED + 5)
    f = rand_matfn(rng)
    op0 = theorem2_substitute(NCExpr.var(0))
    assert op0.apply(f) == nc_phi_deform(f, s_poly(1))
    op1 = theorem2_substitute(NCExpr.var(1))
    assert op1.apply(f) == nc_phi_deform(f, s_poly(2))
    t = random_gen_moebius(rng)
    tf = gen_moebius_apply(t, f)
    assert op1.apply(tf) == gen_moebius_apply(t, op1.apply(f))


def test_free_algebra_element_as_expression_leaf():
    rng = random.Random(SEED + 7)
    f = rand_matfn(rng)
    expr = (NCExpr.var(0) + NCPoly.generator(1)).substitute()
    assert expr.eval(f) == nc_eval(s_poly(1) + NCPoly.generator(1), f)


def test_gauge_bridge_scalar():
    f = MatFn([[RatFn(Poly([rational(v) for v in (1, 2, 0, 1, 3)]),
                      Poly.one())]])
    s1 = nc_eval(s_poly(1), f).rows[0][0]
    assert nc_eval(s_poly(2), f).rows[0][0] == s1.derivative()
    assert nc_eval(s_poly(3), f).rows[0][0] == s1.derivative().derivative()


BINARY = {"__add__": lambda v, o: v + o, "__sub__": lambda v, o: v - o,
          "__rsub__": lambda v, o: o - v, "__mul__": lambda v, o: v * o}


@pytest.mark.parametrize("value, op, other", [
    (NCPoly.one(), "__eq__", None),
    (NCPoly.one(), "__add__", "a"),
    (NCPoly.one(), "__sub__", "a"),
    (NCPoly.one(), "__rsub__", "a"),
    (NCPoly.one(), "__mul__", "a"),
    (MatFn.identity(2), "__eq__", None),
    (MatFn.identity(2), "__add__", "a"),
    (MatFn.identity(2), "__sub__", "a"),
    (MatFn.identity(2), "__mul__", 1.5),
    (Moebius.identity(), "__mul__", "a"),
], ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_unsupported_operands_return_not_implemented(value, op, other):
    assert getattr(value, op)(other) is NotImplemented
    if op == "__eq__":
        assert (value == other) is False and value != other
        assert other not in [value] and value not in [other]
    else:
        with pytest.raises(TypeError):
            BINARY[op](value, other)


EXPR_OPS = {"__add__": lambda e, o: e + o, "__radd__": lambda e, o: o + e,
            "__mul__": lambda e, o: e * o, "__rmul__": lambda e, o: o * e}


@pytest.mark.parametrize("op", sorted(EXPR_OPS))
@pytest.mark.parametrize("other", ["a", 1.5, None], ids=lambda x: type(x).__name__)
def test_expression_rejects_unsupported_operands(op, other):
    e = NCExpr.var(0)
    assert getattr(e, op)(other) is NotImplemented
    with pytest.raises(TypeError):
        EXPR_OPS[op](e, other)


def test_expression_reflected_operators_keep_the_left_operand_left():
    rng = random.Random(SEED + 8)
    f = rand_matfn(rng)
    p1, e = NCPoly.generator(1), NCExpr.var(0).substitute()
    p1_f, e_f = nc_eval(p1, f), e.eval(f)
    assert p1_f * e_f != e_f * p1_f  # the order shows on this f
    assert (p1 + e).eval(f) == p1_f + e_f
    assert (p1 * e).eval(f) == p1_f * e_f
    assert (e * p1).eval(f) == e_f * p1_f
    r = parse_ratfn("1/(2*z)")
    assert (r * e).eval(f) == MatFn.scalar(r, f.size, f.order) * e_f
    assert (2 + e).eval(f) == MatFn.scalar(2, f.size, f.order) + e_f
    assert (p1 * e).args[0].kind == "poly" and (r * e).args[0].kind == "scalar"


# -- value equality of GenMoebius ---------------------------------------------

def test_gen_moebius_compares_blockwise():
    t = GenMoebius([[1, 2], [0, 1]], [[0, 1], [1, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 3]])
    for back in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
        assert back is not t and back == t and t == back
        assert not back != t
    u = GenMoebius([[1, 2], [0, 1]], [[0, 1], [1, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 4]])
    assert t != u and u != t
    assert GenMoebius.identity(2) == GenMoebius.identity(2)
    assert GenMoebius.identity(2) != GenMoebius.identity(1)
    assert GenMoebius.identity(2) != GenMoebius.inversion(2)
    for value in (t, GenMoebius.identity(1)):
        with pytest.raises(TypeError):
            hash(value)


@pytest.mark.parametrize("other", [3, rational(3), Moebius(1, 0, 0, 1), MatFn([[1]]), None])
def test_gen_moebius_equality_with_foreign_operands(other):
    t = GenMoebius.identity(1)
    assert t.__eq__(other) is NotImplemented
    assert t != other and other != t
    assert not (t == other) and not (other == t)


# -- sizes and operand checks -------------------------------------------------

def test_matfn_of_another_size_is_unequal():
    a, b = MatFn.identity(2), MatFn.identity(3)
    assert (a == b) is False and (b == a) is False
    assert a != b and b != a
    assert a.__eq__(b) is False
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(ValueError, match="size mismatch"):
            op(a, b)


@pytest.mark.parametrize("build", [
    lambda: MatFn([]),
    lambda: MatFn.identity(0),
    lambda: GenMoebius([], [], [], []),
    lambda: GenMoebius.identity(0),
], ids=["MatFn", "MatFn.identity", "GenMoebius", "GenMoebius.identity"])
def test_size_zero_is_rejected(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("h", ["a", 1.5, None], ids=lambda x: type(x).__name__)
def test_phi_deform_rejects_a_non_algebra_operand(h):
    with pytest.raises(TypeError, match="not a free-algebra element or scalar"):
        nc_phi_deform(Z2, h)


def test_deform_family_at_zero_needs_a_regular_fdot():
    assert deform_family(Z2, 0) == Z2
    with pytest.raises(ZeroDivisionError):
        deform_family(FLAT, 0)


# -- scalars on either side ------------------------------------------------

@pytest.mark.parametrize("scalar", [2, Fraction(-3, 2), rational(5), Poly.x(),
                                    parse_ratfn("1/(z + 1)")],
                         ids=lambda x: type(x).__name__)
def test_matfn_with_a_scalar_on_either_side(scalar):
    f = MatFn([[parse_ratfn("z^2"), parse_ratfn("1/z")],
               [parse_ratfn("0"), parse_ratfn("z + 3")]])
    c = MatFn.scalar(scalar, 2)
    assert scalar + f == f + scalar == c + f
    assert scalar - f == c - f == -(f - scalar)
    assert f - scalar == f - c
    assert scalar * f == f * scalar == c * f


# -- stored values are immutable -------------------------------------------

def test_stored_values_are_read_only():
    f = MatFn([[parse_ratfn("z^2"), 1], [0, parse_ratfn("z")]])
    assert isinstance(f.rows, tuple) and all(isinstance(r, tuple) for r in f.rows)
    with pytest.raises(TypeError):
        f.rows[0][0] = parse_ratfn("z")
    with pytest.raises(TypeError):
        f.rows[0] = f.rows[1]
    with pytest.raises(AttributeError):
        f.rows = f.rows[::-1]
    assert repr(f) == "MatFn([[%r, %r], [%r, %r]])" % (
        f.rows[0][0], f.rows[0][1], f.rows[1][0], f.rows[1][1])
    s1 = s_poly(1)
    assert isinstance(s1.terms, MappingProxyType)
    with pytest.raises(TypeError):
        s1.terms[(7,)] = 5
    with pytest.raises(AttributeError):
        s1.terms = {}
    assert s_poly(1).canonical_text() == "p2 + 3 p1^2"
    t = GenMoebius([[1, 2], [0, 1]], [[0, 1], [1, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 3]])
    for block in (t.a, t.b, t.c, t.d):
        assert isinstance(block, tuple) and all(isinstance(r, tuple) for r in block)
        with pytest.raises(TypeError):
            block[0][0] = rational(7)
    with pytest.raises(AttributeError):
        t.a = t.d
    assert MatFn(t.c) == MatFn([[0, 0], [1, 0]])
    assert gen_moebius_apply(t, f) == (MatFn(t.a) * f + MatFn(t.b)) * \
        (MatFn(t.c) * f + MatFn(t.d)).inverse()
    assert check_semi_invariance(s_poly(1), t, f, gen_moebius_apply(t, f))[0]


def test_values_survive_pickle_and_deepcopy():
    rng = random.Random(SEED + 9)
    f = rand_matfn(rng)
    _form_of(f).regular()  # a form to leave behind
    assert f.__reduce__() == (MatFn, (f.rows, f.order))
    t = GenMoebius([[1, 2], [0, 1]], [[0, 1], [1, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 3]])
    h = s_poly(2) + NCPoly({(1,): parse_ratfn("1/z")})
    for value in (f, s_poly(2), h, t):
        for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert back is not value and back == value and value == back
            assert repr(back) == repr(value)
    for back in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert back._form is None
        assert nc_d_operator(back) == nc_d_operator(f)
    assert isinstance(pickle.loads(pickle.dumps(h)).terms, MappingProxyType)
