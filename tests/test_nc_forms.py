"""The matrix operators on polynomial-matrix forms against their MatFn-chain
definitions.

`equiops.ncalg` computes D, the p_k table, the free-algebra evaluation,
Phi_X H, the Theorem-2 operators, the deformation family and the
generalized Moebius action from the forms of f = N/q, reducing each output
entry once.  The functions below are the definitions as chains of reduced
`MatFn` products, sums and adjugate inverses; both sides are canonical, so
every entry must agree in num and den.  The last test checks that the
forms divide out every power of q that their caps allow.
"""

import importlib.util
import random
import sys
import threading
from fractions import Fraction
from functools import reduce
from operator import add, mul
from pathlib import Path

import pytest

from equiops import ncalg
from equiops import properties as pr
from equiops.cyclotomic import Cyclo, rational, sqrt5, zeta
from equiops.ncalg import (_SCALARS, GenMoebius, MatFn, NCExpr, NCPoly,
                           deform_family, gen_moebius_apply, nc_d_operator,
                           nc_eval, nc_phi_deform, phi_generators, s_poly,
                           theorem2_substitute)
from equiops.operators import d_operator
from equiops.parsing import parse_ratfn
from equiops.poly import Poly
from equiops.ratfn import RatFn

SEED = 20261019
CRITERION_8_SEED = 20260826 + 8


# -- the chain definitions ---------------------------------------------


def chain_phi_generators(f, count):
    fdot = f.derivative()
    dinv = fdot.inverse()
    half = Fraction(-1, 2)
    out = {}
    deriv = fdot
    for k in range(1, count + 1):
        deriv = deriv.derivative()
        out[k] = (dinv * deriv) * half
    return out


def max_generator(expr):
    if expr.kind == "poly":
        return max((max(w) for w in expr.value.terms if w), default=0)
    return max((max_generator(a) for a in expr.args), default=-1)


def chain_eval_node(expr, f, gens):
    if expr.kind == "poly":
        terms = []
        for word, coeff in expr.value.terms.items():
            if not isinstance(coeff, _SCALARS):
                raise TypeError("unsupported coefficient %r" % (coeff,))
            terms.append(reduce(mul, [gens[k] for k in word]) * coeff
                         if word else MatFn.scalar(coeff, f.size, f.order))
        return reduce(add, terms) if terms else MatFn.scalar(0, f.size, f.order)
    if expr.kind == "scalar":
        return MatFn.scalar(expr.value, f.size, f.order)
    if expr.kind == "sum":
        return chain_eval_node(expr.args[0], f, gens) + chain_eval_node(expr.args[1], f, gens)
    if expr.kind == "prod":
        return chain_eval_node(expr.args[0], f, gens) * chain_eval_node(expr.args[1], f, gens)
    if expr.kind == "inv":
        return chain_eval_node(expr.args[0], f, gens).inverse()
    raise ValueError(expr.kind)


def as_expr(value):
    if isinstance(value, NCExpr):
        return value
    if isinstance(value, NCPoly):
        return NCExpr("poly", value=value)
    return NCExpr.scalar(value)


def chain_expr_eval(expr, f):
    count = max_generator(expr)
    return chain_eval_node(expr, f, chain_phi_generators(f, count) if count >= 0 else None)


def chain_d_operator(f):
    fdot = f.derivative()
    fddot = fdot.derivative()
    return f - (fdot * fddot.inverse() * fdot) * 2


def chain_phi_deform(f, h):
    bracket = chain_expr_eval(as_expr(h + NCPoly.generator(1)), f)
    return f + f.derivative() * bracket.inverse()


def chain_deform_family(f, t):
    t = t if isinstance(t, RatFn) else RatFn.constant(t, f.order)
    if t.is_zero:
        chain_phi_generators(f, 0)
        return f
    return chain_phi_deform(f, t.inverse())


def chain_gen_moebius_apply(t, f):
    a, b, c, d = (MatFn(block, t.order) for block in (t.a, t.b, t.c, t.d))
    return (a * f + b) * (c * f + d).inverse()


# -- comparison ----------------------------------------------------------


def entries(m):
    return [[(e.num, e.den) for e in row] for row in m.rows]


def outcome(thunk):
    """The entries (num, den) of a MatFn result (or of a table of them),
    or the type of the error raised."""
    try:
        value = thunk()
    except (ZeroDivisionError, ValueError, ArithmeticError) as exc:
        return type(exc)
    if isinstance(value, dict):
        return {k: entries(v) for k, v in value.items()}
    return entries(value)


X0 = NCExpr.var(0)
THEOREM2 = X0 + 3 * X0.inverse()
PRODUCT = X0 * NCExpr.var(1)  # S_1 S_2 and S_2 S_1 differ


def operator_pairs(f, rich):
    """(name, forms thunk, chain thunk) for the operators at f; rich adds
    S_3, the RatFn H and the tree evaluations."""
    h_ratfn = RatFn(Poly([rational(1), rational(0), rational(1)], f.order),
                    Poly([rational(2), rational(1)], f.order))
    yield "D", lambda: nc_d_operator(f), lambda: chain_d_operator(f)
    yield "p_k", lambda: phi_generators(f, 3), lambda: chain_phi_generators(f, 3)
    yield "phi(0)", lambda: nc_phi_deform(f, NCPoly.zero()), \
        lambda: chain_phi_deform(f, NCPoly.zero())
    yield "phi(3/2)", lambda: nc_phi_deform(f, Fraction(3, 2)), \
        lambda: chain_phi_deform(f, Fraction(3, 2))
    scalar_bracket = Fraction(3, 2) - NCPoly.generator(1)
    yield "phi(3/2 - p1)", lambda: nc_phi_deform(f, scalar_bracket), \
        lambda: chain_phi_deform(f, scalar_bracket)
    for n in (1, 2, 3) if rich else (1, 2):
        s = s_poly(n)
        yield "S%d" % n, lambda s=s: nc_eval(s, f), lambda s=s: chain_expr_eval(as_expr(s), f)
        yield "phi(S%d)" % n, lambda s=s: nc_phi_deform(f, s), \
            lambda s=s: chain_phi_deform(f, s)
    for t in (0, 2, h_ratfn):
        yield "family(%s)" % (t,), lambda t=t: deform_family(f, t), \
            lambda t=t: chain_deform_family(f, t)
    if rich:
        h = NCPoly({(): h_ratfn, (1, 1): 2})
        yield "phi(RatFn)", lambda: nc_phi_deform(f, h), lambda: chain_phi_deform(f, h)
        sub = THEOREM2.substitute()
        yield "theorem2", lambda: theorem2_substitute(THEOREM2).apply(f), \
            lambda: chain_phi_deform(f, sub)
        yield "eval(theorem2)", lambda: sub.eval(f), lambda: chain_expr_eval(sub, f)
        prod = PRODUCT.substitute()
        yield "eval(S1 S2)", lambda: prod.eval(f), lambda: chain_expr_eval(prod, f)


def assert_matches(f, rich=True, where=""):
    for name, forms, chain in operator_pairs(f, rich):
        assert outcome(forms) == outcome(chain), (where, name, f)


def assert_moebius_matches(t, f, where=""):
    for u in (t, GenMoebius.inversion(f.size, f.order), GenMoebius.identity(f.size, f.order)):
        assert outcome(lambda: gen_moebius_apply(u, f)) == \
            outcome(lambda: chain_gen_moebius_apply(u, f)), (where, f)


def f_side_outputs(f):
    """D f, Phi(S1) f, Phi(S2) f and f_2: the matrices an ncalg item maps by T."""
    return {"D": nc_d_operator(f), "phi(S1)": nc_phi_deform(f, s_poly(1)),
            "phi(S2)": nc_phi_deform(f, s_poly(2)), "family(2)": deform_family(f, 2)}


def assert_moebius_matches_on_outputs(t, f, where=""):
    """The image of each f-side output, whose columns may have different
    denominators where the entries of f itself are polynomials."""
    for name, m in f_side_outputs(f).items():
        assert_moebius_matches(t, m, (where, name))


def columns_differ(m):
    """Whether two columns of m have lcms of their denominators that are not
    constant multiples of each other."""
    lcms = [reduce(lambda x, y: x * y.exact_div(x.gcd(y)), [e.den for e in col])
            for col in zip(*m.rows)]
    return any((x % y) or (y % x) for x in lcms for y in lcms)


# -- inputs ----------------------------------------------------------------


def load_workloads():
    """The benchmark's workloads module (perfbench/workloads.py)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


WORKLOADS = load_workloads()


def pool_pairs():
    """The (T, f) of the eight ncalg benchmark pool entries."""
    inputs = [WORKLOADS.build_inputs("ncalg", "triangular", i, {})
              for i in range(WORKLOADS.POOL["ncalg"]["triangular"])]
    return [(x["t"], x["f"]) for x in inputs]


POOL = pool_pairs()


@pytest.mark.parametrize("index", range(len(POOL)))
def test_pool_pairs_match_the_chain(index):
    t, f = POOL[index]
    tf = chain_gen_moebius_apply(t, f)
    assert_moebius_matches(t, f, index)
    assert_moebius_matches_on_outputs(t, f, index)
    assert_matches(f, where=(index, "f"))
    assert_matches(tf, rich=False, where=(index, "tf"))


def criterion_8_draws():
    """The draws of criterion 8 in tests/test_acceptance.py, in its order:
    the f of the hierarchy images, then the 20 (T, f)."""
    rng = random.Random(CRITERION_8_SEED)
    f0 = pr.random_matfn(rng, lambda: 2)
    return f0, [pr.ncalg_inputs(rng, lambda: 2) for _ in range(20)]


def test_criterion_8_draws_match_the_chain():
    f0, draws = criterion_8_draws()
    assert_matches(f0)
    for i, (t, f) in enumerate(draws):
        assert_moebius_matches(t, f, i)
        assert_matches(f, rich=False, where=i)


def field_poly(rng, degree):
    return Poly([rational(rng.randint(-2, 2)) + sqrt5() * rational(rng.randint(-1, 1))
                 for _ in range(degree)] + [rational(1) + sqrt5()])


def sqrt5_pair():
    """A non-triangular (T, f) over Q(sqrt5), every entry of f nonzero."""
    rng = random.Random("%d:sqrt5" % SEED)
    while True:
        f = MatFn([[RatFn(field_poly(rng, 2)), RatFn(field_poly(rng, 1), field_poly(rng, 1))],
                   [RatFn(field_poly(rng, 1)), RatFn(field_poly(rng, 2))]])
        if all(not f.rows[i][j].is_zero for i in range(2) for j in range(2)) and \
                not f.derivative().det().is_zero and \
                not f.derivative().derivative().det().is_zero:
            break
    t = GenMoebius([[1, sqrt5()], [0, 1]], [[0, 1], [1, 0]],
                   [[1, 0], [sqrt5(), 1]], [[2, 0], [0, 3]])
    return t, f


def test_non_triangular_over_sqrt5_matches_the_chain():
    t, f = sqrt5_pair()
    assert_moebius_matches(t, f)
    assert_moebius_matches_on_outputs(t, f)
    assert_matches(f)


def three_by_three():
    entries = [["z^2", "1", "z"], ["0", "z^2 + z", "2"], ["1/(z + 1)", "z", "z^2 - 3"]]
    return MatFn([[parse_ratfn(e) for e in row] for row in entries])


def test_three_by_three_matches_the_chain():
    f = three_by_three()
    one = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    shift = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    zero = [[0] * 3 for _ in range(3)]
    assert_moebius_matches(GenMoebius(one, shift, shift, one), f)
    assert_moebius_matches(GenMoebius(shift, one, one, zero), f)
    # b off the diagonal: a b q_i in place of b q_j shows in column j
    assert_moebius_matches_on_outputs(GenMoebius(one, shift, shift, one), f)
    assert_matches(f, rich=False)


def test_the_moebius_inputs_have_columns_over_different_denominators():
    for index, (_, f) in enumerate(POOL):  # D f is a polynomial: fddot is constant
        outputs = f_side_outputs(f)
        assert all(columns_differ(outputs[name])
                   for name in ("phi(S1)", "phi(S2)", "family(2)")), index
    assert columns_differ(sqrt5_pair()[1])
    f = three_by_three()
    assert columns_differ(f) and all(map(columns_differ, f_side_outputs(f).values()))


@pytest.mark.parametrize("text", ["z^3", "z^2 + 1/z", "(z^2 + 1)/(z - 2)", "z^4 - z"])
def test_one_by_one_matches_the_chain_and_the_scalar_d(text):
    g = parse_ratfn(text)
    f = MatFn([[g]])
    assert nc_d_operator(f).rows[0][0] == d_operator(g)
    assert_moebius_matches(GenMoebius([[2]], [[1]], [[1]], [[1]]), f)
    assert_matches(f)


# -- the zero-skipping product ----------------------------------------------


def reference_mat_mul(a, b):
    """The list-matrix product summing every pair, zero pairs included."""
    return [[reduce(add, map(mul, row, col)) for col in zip(*b)] for row in a]


ENTRY_TYPES = {"Poly": Poly, "RatFn": RatFn, "Cyclo": Cyclo}


def zero_heavy_entry(kind, rng, order):
    """A Poly, RatFn or Cyclo of the order, zero about half the time."""
    ks = [rng.randint(-2, 2) if rng.random() < 0.5 else 0 for _ in range(3)]
    if kind == "Cyclo":
        return rational(ks[0], order) + zeta(order) * rational(ks[1], order)
    num = Poly([rational(k, order) for k in ks], order)
    return num if kind == "Poly" else RatFn(num, Poly([rng.randint(1, 3), 1], order))


def strictly_upper(kind, rng, order, size):
    """A strictly upper triangular matrix of zero-heavy entries."""
    zero = zero_heavy_entry(kind, rng, order) * 0
    return [[zero_heavy_entry(kind, rng, order) if j > i else zero for j in range(size)]
            for i in range(size)]


def typed_entries(rows):
    return [[(type(x), x.order, x) for x in row] for row in rows]


@pytest.mark.parametrize("kind", sorted(ENTRY_TYPES))
@pytest.mark.parametrize("order", [120, 12])
def test_mat_mul_matches_the_full_sum(kind, order):
    rng = random.Random("mat-mul:%s:%d" % (kind, order))
    cases = [tuple([[zero_heavy_entry(kind, rng, order) for _ in range(n)] for _ in range(n)]
                   for _ in range(2)) for n in (1, 2, 2, 3, 3)]
    cases += [tuple(strictly_upper(kind, rng, order, n) for _ in range(2)) for n in (3, 2)]
    for a, b in cases:
        assert typed_entries(ncalg._mat_mul(a, b)) == typed_entries(reference_mat_mul(a, b))
    # two strictly upper triangular 2x2 matrices: every pair of every entry vanishes
    assert typed_entries(ncalg._mat_mul(*cases[-1])) == [[(ENTRY_TYPES[kind], order, 0)] * 2] * 2


# -- one form per matrix ----------------------------------------------------


def test_one_form_per_matrix_over_a_pool_item(monkeypatch):
    built = []
    init = ncalg._Form.__init__

    def counting_init(self, f):
        built.append(f)
        init(self, f)

    monkeypatch.setattr(ncalg._Form, "__init__", counting_init)
    x = WORKLOADS.build_inputs("ncalg", "triangular", 0, {})  # fresh f, no form yet
    checks, outputs = WORKLOADS.run_item("triangular", x)
    assert all(ok for _, ok in checks), checks
    f, tf = x["f"], outputs[0]
    # f and T f alone: the Moebius images of the four f-side outputs build none
    assert len(built) == 2 and built[0] is f and built[1] is tf
    # a second run finds the form of f built
    before = len(built)
    WORKLOADS.run_item("triangular", x)
    assert not any(g is f for g in built[before:])


def five_operators(f):
    """D, S1, Phi(S1), Phi(S2) and the family at t = 2, in the pool's order."""
    return [lambda: nc_d_operator(f), lambda: nc_eval(s_poly(1), f),
            lambda: nc_phi_deform(f, s_poly(1)), lambda: nc_phi_deform(f, s_poly(2)),
            lambda: deform_family(f, 2)]


@pytest.mark.parametrize("index", range(3))
def test_operators_in_reverse_order_share_one_form(index):
    t, f = POOL[index]
    g = MatFn(f.rows, f.order)  # the same value, no form yet
    for h in (g, gen_moebius_apply(t, g)):
        shared = [entries(op()) for op in reversed(five_operators(h))][::-1]
        fresh = [entries(five_operators(MatFn(h.rows, h.order))[i]()) for i in range(5)]
        assert shared == fresh


def test_threads_building_one_form_keep_each_w_at_its_index():
    _, f = POOL[0]
    alone = ncalg._Form(f)
    want = [alone.deriv(j) for j in range(5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the W_k products
    try:
        for _ in range(8):
            c = ncalg._Form(f)
            threads = [threading.Thread(target=c.deriv, args=(4,)) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert [c.deriv(j) for j in range(5)] == want
    finally:
        sys.setswitchinterval(interval)


def test_factor_keeps_each_power():
    _, f = sqrt5_pair()
    c = ncalg._Form(f).regular()
    for a, b in [(0, 0), (2, 0), (0, 1), (3, 2), (1, 1)]:
        power = c.factor(a, b)
        assert power == c.q ** a * c.delta ** b
        assert c.factor(a, b) is power


def test_threads_building_one_power_keep_one_value():
    f = gen_moebius_apply(*POOL[0])  # T f, over a q of degree 4
    keys = [(3, 2), (1, 0), (4, 1)]
    want = {key: ncalg._Form(f).regular().factor(*key) for key in keys}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the power products
    try:
        for _ in range(8):
            c, results = ncalg._Form(f).regular(), []
            start = threading.Barrier(4, timeout=60)

            def build():
                start.wait()
                results.append([c.factor(*key) for key in keys])

            threads = [threading.Thread(target=build) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(results) == 4
            for i, key in enumerate(keys):
                assert all(r[i] is c.factor(*key) for r in results)
                assert c.factor(*key) == want[key]
    finally:
        sys.setswitchinterval(interval)


# -- the power of q divided out of the forms -----------------------------


def divisible(rows, q):
    """Whether q divides every entry of the list matrix rows."""
    return all((x % q).is_zero for row in rows for x in row)


def strip_inputs():
    """name -> matrix: each pool T f, each criterion-8 f and T f, the
    Q(sqrt5) f with its T f, and the 3x3 f."""
    f0, draws = criterion_8_draws()
    out = {"pool %d tf" % i: gen_moebius_apply(t, f) for i, (t, f) in enumerate(POOL)}
    out["criterion 8 f0"] = f0
    for i, (t, f) in enumerate(draws):
        out["criterion 8 draw %d f" % i] = f
        out["criterion 8 draw %d tf" % i] = gen_moebius_apply(t, f)
    t, f = sqrt5_pair()
    out["sqrt5 f"], out["sqrt5 tf"] = f, gen_moebius_apply(t, f)
    out["3x3 f"] = three_by_three()
    return out


STRIP_INPUTS = strip_inputs()


@pytest.mark.parametrize("name", sorted(STRIP_INPUTS))
def test_the_strip_leaves_no_power_of_q_below_its_cap(name, monkeypatch):
    g = MatFn(STRIP_INPUTS[name].rows, STRIP_INPUTS[name].order)  # no form yet
    phi_inputs = []  # (G_n, a, b, the G_n / q^v that _phi inverts)
    phi, adj_det = ncalg._phi, ncalg._adj_det

    def recording_phi(c, rows, e, a, b):
        inverted = []
        monkeypatch.setattr(ncalg, "_adj_det", lambda m: inverted.append(m) or adj_det(m))
        try:
            return phi(c, rows, e, a, b)
        finally:
            monkeypatch.setattr(ncalg, "_adj_det", adj_det)
            phi_inputs.append((rows, a, b, inverted[0]))

    monkeypatch.setattr(ncalg, "_phi", recording_phi)
    for _, forms, _ in operator_pairs(g, rich=False):
        outcome(forms)
    c = ncalg._form_of(g)
    q = c.q
    one_letter = {word[0]: found for (word, left), found in c._words.items()
                  if len(word) == 1 and not left}
    assert set(one_letter) == {1, 2, 3}
    if q.is_constant:  # a polynomial f: nothing to divide
        assert c.shift == 0
        for k, (rows, a) in one_letter.items():
            assert (rows, a) == (ncalg._mat_mul(c.adj, c.deriv(k + 1)), k)
    else:
        # det W_1 = q^c delta and adj(W_1) W_(k+1) = q^(k + c - a) P_k, each
        # divided as far as q divides it unless the cap k + c stopped it (a = 0)
        assert not divisible([[c.delta]], q)
        for k, (rows, a) in one_letter.items():
            assert 0 <= a <= k + c.shift
            assert a == 0 or not divisible(rows, q), k
    assert all(a >= 0 for _, a in c._words.values())
    assert phi_inputs
    for rows, a, b, stripped in phi_inputs:
        assert a >= 3
        v = next(v for v in range(a - 2)
                 if rows == [[x * q ** v for x in row] for row in stripped])
        assert v == a - 3 or q.is_constant or not divisible(stripped, q)
        # the s = q^(a - v - 3) delta^b of _phi divides its det for 2x2 and 3x3 f
        _, d = adj_det(stripped)
        assert (d % c.factor(a - v - 3, b)).is_zero
