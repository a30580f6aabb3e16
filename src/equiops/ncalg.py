"""Non-commutative calculus of matrix-valued rational functions.

Free algebra over generators p_1, p_2, ... (the matrix pre-Schwarzian and
its higher companions), the derivation and q-composition producing the S_n
hierarchy, evaluation on matrices of rational functions, the generalized
Moebius action, and the non-commutative D operator and its deformations.

Each concept has one implementation: one determinant (`_det`) for `MatFn`
and `GenMoebius`, one singularity check (`MatFn.inverse` raises
`ZeroDivisionError`), one table of p_k(f) per evaluation
(`phi_generators`), and one Phi path (`nc_phi_deform`), shared by the
Theorem-2 operators and the deformation family (Phi with H = 1/t).
"""

from fractions import Fraction
from functools import reduce
from operator import add, mul

from .cyclotomic import Cyclo, DEFAULT_ORDER, rational
from .poly import Poly
from .ratfn import RatFn

# -- free algebra -----------------------------------------------------


# the scalars of NCPoly and MatFn; other operands get NotImplemented
_SCALARS = (int, Fraction, Cyclo, Poly, RatFn)


class NCPoly:
    """Finite linear combination of words in the generators p_1, p_2, ...

    Words are tuples of generator indices; multiplication concatenates
    words.  Coefficients are integers/Fractions for the S_n layer and may
    be Cyclo or RatFn in the general layer.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for word, coeff in (terms or {}).items():
            if coeff:
                clean[tuple(word)] = coeff
        self.terms = clean

    @staticmethod
    def zero():
        return NCPoly()

    @staticmethod
    def one():
        return NCPoly({(): 1})

    @staticmethod
    def generator(k):
        if k < 1:
            raise ValueError("generator index must be >= 1")
        return NCPoly({(k,): 1})

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        other = _coerce_nc(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            terms[word] = terms.get(word, 0) + coeff
        return NCPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return NCPoly({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce_nc(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_nc(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return NCPoly({w: c * other for w, c in self.terms.items()})
        if not isinstance(other, NCPoly):
            return NotImplemented
        terms = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                terms[w] = terms.get(w, 0) + c1 * c2
        return NCPoly(terms)

    __rmul__ = __mul__  # scalars commute with coefficients

    def __eq__(self, other):
        other = _coerce_nc(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero

    def __hash__(self):
        raise TypeError("NCPoly is not hashable")

    def coefficient(self, word):
        return self.terms.get(tuple(word), 0)

    def weights(self):
        """Set of word weights present, weight(word) = sum of indices."""
        return {sum(w) for w in self.terms}

    def weight(self):
        ws = self.weights()
        if len(ws) != 1:
            raise ValueError("not homogeneous: weights %s" % sorted(ws))
        return ws.pop()

    def coefficient_sum(self):
        total = 0
        for coeff in self.terms.values():
            total = total + coeff
        return total

    def classical_limit(self):
        """Project onto the commutative quotient: sort each word."""
        terms = {}
        for word, coeff in self.terms.items():
            key = tuple(sorted(word))
            terms[key] = terms.get(key, 0) + coeff
        return NCPoly(terms)

    def max_generator(self):
        return max((max(w) for w in self.terms if w), default=0)

    def canonical_text(self):
        """Golden-file format: `p3 + 4 p2 p1 + 4 p1 p2 + 12 p1^3`.

        Monomials are sorted by weight, then lexicographically by word.
        """
        if not self.terms:
            return "0"
        keys = sorted(self.terms,
                      key=lambda w: (sum(w), tuple(-k for k in w)))
        parts = []
        for word in keys:
            coeff = self.terms[word]
            parts.append(_monomial_text(word, coeff, not parts))
        return " ".join(parts)

    def __repr__(self):
        return "NCPoly(%s)" % self.canonical_text()


def _coerce_nc(value):
    """An NCPoly, a scalar as a constant one, or None for anything else."""
    if isinstance(value, NCPoly):
        return value
    if isinstance(value, _SCALARS):
        return NCPoly({(): value})
    return None


def _as_nc(value):
    p = _coerce_nc(value)
    if p is None:
        raise TypeError("not a free-algebra element or scalar: %r" % (value,))
    return p


def _word_text(word):
    pieces = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        run = j - i
        pieces.append("p%d" % word[i] if run == 1 else "p%d^%d" % (word[i], run))
        i = j
    return " ".join(pieces)


def _monomial_text(word, coeff, leading):
    neg = False
    if isinstance(coeff, (int, Fraction)):
        neg = coeff < 0
        if neg:
            coeff = -coeff
        body = "" if coeff == 1 and word else str(coeff)
    else:
        body = "(%r)" % (coeff,)
    wtext = _word_text(word)
    text = " ".join(p for p in (body, wtext) if p) or "1"
    if leading:
        return "-" + text if neg else text
    return ("- " if neg else "+ ") + text


def nc_derive(p):
    """The derivation with d(p_k) = p_{k+1} + 2 p_1 p_k, by Leibniz.

    Forced by p_k = -(1/2) fdot^{-1} f^{(k+1)} and the matrix product
    rule d(fdot^{-1}) = -fdot^{-1} fddot fdot^{-1}.
    """
    p = _as_nc(p)
    result = NCPoly.zero()
    for word, coeff in p.terms.items():
        for i, k in enumerate(word):
            left = NCPoly({word[:i]: coeff})
            right = NCPoly({word[i + 1:]: 1})
            dgen = NCPoly.generator(k + 1) + NCPoly.generator(1) * NCPoly.generator(k) * 2
            result = result + left * dgen * right
    return result


def q_compose_step(h):
    """One q-composition step: X o_q H = d(H) - (p_1 H - H p_1)."""
    h = _as_nc(h)
    p1 = NCPoly.generator(1)
    return nc_derive(h) - (p1 * h - h * p1)


_S_CACHE = [NCPoly.one(),
            NCPoly.generator(2) + NCPoly.generator(1) * NCPoly.generator(1) * 3]


def s_poly(n):
    """S_0 = 1, S_1 = p2 + 3 p1^2, S_{n+1} = X o_q S_n.

    Homogeneous of weight n + 1 for n >= 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_S_CACHE) <= n:
        _S_CACHE.append(q_compose_step(_S_CACHE[-1]))
    return _S_CACHE[n]


# -- matrices of rational functions ----------------------------------


def _minor(rows, i, j):
    """The list matrix rows without row i and column j."""
    return [row[:j] + row[j + 1:] for k, row in enumerate(rows) if k != i]


def _det(rows):
    """Determinant of a square list matrix of Cyclo or RatFn entries, by
    Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for j, entry in enumerate(rows[0]):
        term = entry * _det(_minor(rows, 0, j))
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def _as_ratfn(value, order):
    if isinstance(value, RatFn):
        return value
    if isinstance(value, Poly):
        return RatFn(value)
    return RatFn.constant(rational(value, order) if not isinstance(value, Cyclo)
                          else value, order)


class MatFn:
    """Square matrix of rational functions with exact arithmetic."""

    __slots__ = ("rows", "size", "order")

    def __init__(self, rows, order=DEFAULT_ORDER):
        self.size = len(rows)
        self.order = order
        self.rows = [[_as_ratfn(entry, order) for entry in row] for row in rows]
        for row in self.rows:
            if len(row) != self.size:
                raise ValueError("matrix must be square")

    @staticmethod
    def identity(size, order=DEFAULT_ORDER):
        return MatFn([[1 if i == j else 0 for j in range(size)]
                      for i in range(size)], order)

    @staticmethod
    def zero(size, order=DEFAULT_ORDER):
        return MatFn([[0] * size for _ in range(size)], order)

    @staticmethod
    def scalar(value, size, order=DEFAULT_ORDER):
        v = _as_ratfn(value, order)
        z = RatFn.constant(rational(0, order), order)
        return MatFn([[v if i == j else z for j in range(size)]
                      for i in range(size)], order)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MatFn([[self.rows[i][j] + other.rows[i][j]
                       for j in range(self.size)] for i in range(self.size)],
                     self.order)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MatFn([[self.rows[i][j] - other.rows[i][j]
                       for j in range(self.size)] for i in range(self.size)],
                     self.order)

    def __neg__(self):
        return MatFn([[-e for e in row] for row in self.rows], self.order)

    def _coerce(self, other):
        if isinstance(other, MatFn):
            if other.size != self.size:
                raise ValueError("size mismatch")
            return other
        if isinstance(other, _SCALARS):
            return MatFn.scalar(other, self.size, self.order)
        return None

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return MatFn([[e * other for e in row] for row in self.rows],
                         self.order)
        if not isinstance(other, MatFn):
            return NotImplemented
        if other.size != self.size:
            raise ValueError("size mismatch")
        cols = list(zip(*other.rows))
        return MatFn([[reduce(add, map(mul, row, col)) for col in cols]
                      for row in self.rows], self.order)

    __rmul__ = __mul__  # scalars commute with the entries

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return all(self.rows[i][j] == other.rows[i][j]
                   for i in range(self.size) for j in range(self.size))

    def __hash__(self):
        raise TypeError("MatFn is not hashable")

    def derivative(self):
        return MatFn([[e.derivative() for e in row] for row in self.rows],
                     self.order)

    def det(self):
        return _det(self.rows)

    def inverse(self):
        """Adjugate inverse; raises ZeroDivisionError on identically
        singular matrices."""
        d = self.det()
        if d.is_zero:
            raise ZeroDivisionError("matrix is singular over the function field")
        dinv = d.inverse()
        n = self.size
        if n == 1:
            return MatFn([[dinv]], self.order)

        def cofactor(i, j):
            c = _det(_minor(self.rows, j, i))
            return -c if (i + j) % 2 else c
        return MatFn([[cofactor(i, j) * dinv for j in range(n)]
                      for i in range(n)], self.order)

    @property
    def is_zero(self):
        return all(e.is_zero for row in self.rows for e in row)

    def __repr__(self):
        return "MatFn(%s)" % self.rows


# -- generalized Moebius action --------------------------------------


def _cyclo_matrix(rows, order):
    return [[c if isinstance(c, Cyclo) else rational(c, order) for c in row]
            for row in rows]


class GenMoebius:
    """Block matrix (a, b; c, d) of n x n Cyclo blocks acting by
    f -> (a f + b)(c f + d)^{-1}."""

    __slots__ = ("a", "b", "c", "d", "size", "order")

    def __init__(self, a, b, c, d, order=DEFAULT_ORDER):
        self.order = order
        self.a = _cyclo_matrix(a, order)
        self.b = _cyclo_matrix(b, order)
        self.c = _cyclo_matrix(c, order)
        self.d = _cyclo_matrix(d, order)
        self.size = len(self.a)
        blocks = [self.a, self.b, self.c, self.d]
        if any(len(blk) != self.size or
               any(len(row) != self.size for row in blk) for blk in blocks):
            raise ValueError("blocks must be square of equal size")
        full = [self.a[i] + self.b[i] for i in range(self.size)] + \
               [self.c[i] + self.d[i] for i in range(self.size)]
        if _det(full).is_zero:
            raise ValueError("block matrix is not invertible")

    @staticmethod
    def identity(size, order=DEFAULT_ORDER):
        one = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        zero = [[0] * size for _ in range(size)]
        return GenMoebius(one, zero, zero, one, order)

    @staticmethod
    def inversion(size, order=DEFAULT_ORDER):
        one = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        zero = [[0] * size for _ in range(size)]
        return GenMoebius(zero, one, one, zero, order)

    def __eq__(self, other):
        if not isinstance(other, GenMoebius):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    __hash__ = None  # blockwise equality of list blocks, unhashable like MatFn

    def __repr__(self):
        return "GenMoebius(size=%d)" % self.size


def gen_moebius_apply(t, f):
    """(a f + b)(c f + d)^{-1} as an exact MatFn."""
    if f.size != t.size:
        raise ValueError("size mismatch")
    a, b, c, d = (MatFn(block, t.order) for block in (t.a, t.b, t.c, t.d))
    return (a * f + b) * (c * f + d).inverse()


# -- evaluation of the free algebra ----------------------------------


def phi_generators(f, count):
    """p_k(f) = -(1/2) fdot^{-1} f^{(k+1)} for k = 1..count."""
    fdot = f.derivative()
    dinv = fdot.inverse()
    half = Fraction(-1, 2)
    out = {}
    deriv = fdot
    for k in range(1, count + 1):
        deriv = deriv.derivative()
        out[k] = (dinv * deriv) * half
    return out


def nc_eval(p, f):
    """Evaluate a free-algebra element on a matrix function."""
    return NCExpr("poly", value=_as_nc(p)).eval(f)


# -- operators --------------------------------------------------------


def nc_d_operator(f):
    """D f = f - 2 fdot fddot^{-1} fdot."""
    fdot = f.derivative()
    fddot = fdot.derivative()
    return f - (fdot * fddot.inverse() * fdot) * 2


def nc_phi_deform(f, h):
    """Phi_X H at f: f + fdot [H(f) + p_1(f)]^{-1}.

    H is a free-algebra element (or a scalar) or a substituted NCExpr;
    H + p_1 is evaluated in one pass.
    """
    bracket = _coerce_expr(h + NCPoly.generator(1)).eval(f)
    return f + f.derivative() * bracket.inverse()


def deform_family(f, t):
    """f_t = f + t fdot [1 - (t/2) fdot^{-1} fddot]^{-1}; f_0 = f.

    Since -(1/2) fdot^{-1} fddot = p_1, the bracket is t (1/t + p_1), so
    f_t is Phi_X H with the constant H = 1/t.
    """
    t = _as_ratfn(t, f.order)
    if t.is_zero:
        phi_generators(f, 0)  # f must be regular at t = 0 as well
        return f
    return nc_phi_deform(f, t.inverse())


# -- expressions over X_0, X_1, ... and the Theorem-2 substitution ----


class NCExpr:
    """Rational expression over the operator generators X_0, X_1, ...

    Built from variables by sums, products and inverses, with scalar
    (RatFn or rational) coefficients.
    """

    __slots__ = ("kind", "args", "value")

    def __init__(self, kind, args=(), value=None):
        self.kind = kind
        self.args = tuple(args)
        self.value = value

    @staticmethod
    def var(n):
        if n < 0:
            raise ValueError("variable index must be >= 0")
        return NCExpr("var", value=n)

    @staticmethod
    def scalar(value):
        return NCExpr("scalar", value=value)

    def __add__(self, other):
        return _combine("sum", self, other)

    def __radd__(self, other):
        return _combine("sum", other, self)

    def __mul__(self, other):
        return _combine("prod", self, other)

    def __rmul__(self, other):  # non-commutative: other stays on the left
        return _combine("prod", other, self)

    def inverse(self):
        return NCExpr("inv", (self,))

    def substitute(self):
        """The homomorphism X_n -> S_{n+1}, leaving scalars fixed.

        Returns an NCExpr whose variables have been replaced by NCPoly
        leaves (kind 'poly'); products map to products and inverses to
        inverses.
        """
        if self.kind == "var":
            return NCExpr("poly", value=s_poly(self.value + 1))
        if self.kind in ("scalar", "poly"):
            return self
        return NCExpr(self.kind, tuple(a.substitute() for a in self.args))

    def _max_generator(self):
        if self.kind == "poly":
            return self.value.max_generator()
        return max((a._max_generator() for a in self.args), default=-1)

    def eval(self, f):
        """The matrix function at f; the p_k(f) table is built once for
        the whole tree."""
        count = self._max_generator()
        return self._eval(f, phi_generators(f, count) if count >= 0 else None)

    def _eval(self, f, gens):
        if self.kind == "poly":
            terms = []
            for word, coeff in self.value.terms.items():
                if not isinstance(coeff, _SCALARS):
                    raise TypeError("unsupported coefficient %r" % (coeff,))
                terms.append(reduce(mul, [gens[k] for k in word]) * coeff
                             if word else MatFn.scalar(coeff, f.size, f.order))
            return reduce(add, terms) if terms else MatFn.zero(f.size, f.order)
        if self.kind == "var":
            raise ValueError("evaluate after substitute()")
        if self.kind == "scalar":
            return MatFn.scalar(self.value, f.size, f.order)
        if self.kind == "sum":
            return self.args[0]._eval(f, gens) + self.args[1]._eval(f, gens)
        if self.kind == "prod":
            return self.args[0]._eval(f, gens) * self.args[1]._eval(f, gens)
        if self.kind == "inv":
            return self.args[0]._eval(f, gens).inverse()
        raise ValueError(self.kind)


def _coerce_expr(value):
    """An NCExpr, a free-algebra element or scalar as a leaf, else None."""
    if isinstance(value, NCExpr):
        return value
    if isinstance(value, NCPoly):
        return NCExpr("poly", value=value)
    return NCExpr.scalar(value) if isinstance(value, _SCALARS) else None


def _combine(kind, left, right):
    """NCExpr(kind, (left, right)) of two coercible operands, else NotImplemented."""
    a, b = _coerce_expr(left), _coerce_expr(right)
    return NotImplemented if a is None or b is None else NCExpr(kind, (a, b))


class Theorem2Operator:
    """Equivariant operator Id + X [E o_q S_1 + p_1]^{-1} built from an
    invariant expression E by the substitution X_n -> S_{n+1}."""

    __slots__ = ("expr", "substituted")

    def __init__(self, expr):
        self.expr = expr
        self.substituted = expr.substitute()

    def apply(self, f):
        return nc_phi_deform(f, self.substituted)


def theorem2_substitute(expr):
    """Wrap an expression over the X_n as the equivariant operator of
    the duality theorem; for E = X_0 this is Phi(S_1)."""
    return Theorem2Operator(expr)
