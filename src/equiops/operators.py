"""Differential operators for rational maps: pre-Schwarzian, Schwarzian,
the D operator and its deformations, the phi-operator family, Rankin-Cohen
brackets, Klein's vector-field construction, and period residues.

Every operator is relative to a meromorphic 1-form theta = alpha dz with
dual vector field X = (1/alpha) d/dz; the plain-dz versions are the
default theta.  Dots in formulas always mean X-derivatives.  At theta = dz,
D, phi and S are computed once per map: the first call keeps its value in
the memo of the immutable RatFn f, and later calls return that object.

D, phi, S and the deformation work on the forms of f = N/D and alpha =
A/B.  With the Wronskians W = N'D - ND' and K = A'B - AB' (fd = B W/(A D^2),
alpha'/alpha = K/(AB)) and the linear operator

    L(y) = AB (y W' - 2 y' W) - K W y,

fdd/fd = L(D)/(A^2 W D), so phi = -L(D)/(2 A^2 W D); and as D L(N) - N L(D)
= -2 AB W^2, the D operator is [N : D] -> [L(N) : L(D)], the Wronskian form
of the Schwarzian (Ovsienko-Tabachnikov, Projective Differential Geometry
Old and New, 2005).  Each operator builds its numerator and denominator as
polynomials and reduces once with `RatFn(num, den)`; a reduced value is
canonical, so it is the value of the chain of RatFn operations.  Klein's
vector field is the biweight phi-operator.  A constant value of D, of its
deformation or of Klein's field (the constant infinity included) marks a
degenerate input, read as `RatFn.degenerate`.

Period residues take one path for every pole: Hermite reduction (Mack's
linear version) leaves a part a/d with a squarefree denominator and the
same residues, and on each Yun factor s the period 2a/d' mod s is a
scalar or is split into Rothstein-Trager loci gcd(s, 2a - c d').  The one
extended Euclid over Q(zeta), `_gcdex`, serves both steps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import prod

from .cyclotomic import DEFAULT_ORDER, rational
from .divisors import Place
from .poly import Poly
from .ratfn import RatFn, _as_ratfn


class FormCoeff:
    """Coefficient alpha of a 1-form theta = alpha dz; alpha != 0."""

    __slots__ = ("alpha",)

    def __init__(self, alpha):
        alpha = _as_ratfn(alpha)
        if alpha.is_zero or alpha.is_infinity:
            raise ValueError("form coefficient must be a nonzero function")
        self.alpha = alpha

    @staticmethod
    def dz(order=DEFAULT_ORDER):
        return FormCoeff(RatFn.constant(1, order))

    @staticmethod
    def d_of(g):
        """theta = dg for a non-constant rational g."""
        return FormCoeff(g.derivative())

    def xderiv(self, f):
        """X(f) = f' / alpha."""
        return f.derivative() / self.alpha

    def __repr__(self):
        return "FormCoeff(%r)" % (self.alpha,)


def _theta(theta, order):
    """theta as a FormCoeff: dz for None, else theta or its coefficient alpha
    (a RatFn, Poly or scalar)."""
    if theta is None:
        return FormCoeff.dz(order)
    return theta if isinstance(theta, FormCoeff) else FormCoeff(theta)


def _kept_at_dz(operator):
    """operator(f, theta), at theta = dz computed on the first call for f and
    kept in the memo of the immutable f; setdefault keeps the first value
    when two calls race.  Every other theta runs operator itself."""
    key = operator.__name__

    @wraps(operator)
    def kept(f, theta=None):
        if not _is_dz(theta, f.order):
            return operator(f, theta)
        value = f._ops.get(key)
        return f._ops.setdefault(key, operator(f, theta)) if value is None else value
    return kept


def _is_dz(theta, order):
    """theta is None or a FormCoeff at `order` whose alpha is 1 (den monic)."""
    if not isinstance(theta, FormCoeff):
        return theta is None
    a = theta.alpha
    return a.order == order and a.num.degree == 0 == a.den.degree and a.num.is_monic


def _wronskian(f, message):
    """W = N'D - ND' of f = N/D; ArithmeticError for the constant infinity,
    ValueError(message) where W vanishes (f constant)."""
    if f.is_infinity:
        raise ArithmeticError("derivative of the constant infinity")
    w = f.wronskian_poly()
    if w.is_zero:
        raise ValueError(message)
    return w


def _operator_l(w, theta):
    """A and L(y) = P y - Q y' for theta = (A/B) dz, with P = AB W' - K W
    and Q = 2 AB W; see the module docstring."""
    a, b = theta.alpha.num, theta.alpha.den
    ab = a * b
    p = ab * w.derivative() - theta.alpha.wronskian_poly() * w
    q = ab * w * 2
    return a, lambda y: p * y - q * y.derivative()


@_kept_at_dz
def pre_schwarzian(f, theta=None):
    """phi = -(1/2) fdd/fd with dots along X, that is -L(D)/(2 A^2 W D)."""
    theta = _theta(theta, f.order)
    w = _wronskian(f, "pre-Schwarzian of a constant")
    a, l = _operator_l(w, theta)
    return RatFn(-l(f.den), a * a * w * f.den * 2)


@_kept_at_dz
def schwarzian(f, theta=None):
    """S = X(phi) + phi^2, the theta-coefficient of the quadratic
    differential S theta^2: (-(2 W W'' - 3 W'^2 + 4 W (N''D' - N'D'')) A^2 B^2
    + (2 K' AB - 2 K (AB)' - K^2) W^2) / (4 A^4 W^2) in the module's forms."""
    theta = _theta(theta, f.order)
    w = _wronskian(f, "pre-Schwarzian of a constant")
    n1, d1, w1 = f.num.derivative(), f.den.derivative(), w.derivative()
    z_part = (w * w1.derivative() * 2 - w1 * w1 * 3
              + w * (n1.derivative() * d1 - n1 * d1.derivative()) * 4)
    a, b = theta.alpha.num, theta.alpha.den
    k, ab, a2, w2 = theta.alpha.wronskian_poly(), a * b, a * a, w * w
    form_part = (k.derivative() * ab - k * ab.derivative()) * 2 - k * k
    return RatFn(form_part * w2 - z_part * ab * ab, a2 * a2 * w2 * 4)


@_kept_at_dz
def d_operator(f, theta=None):
    """D f = f - 2 fd^2/fdd = L(N)/L(D), the projectively equivariant dual
    of f.

    Where fdd vanishes identically, L(D) = 0 and the dual is the constant
    infinity; when the dual is any other constant the input is likewise
    degenerate; both cases are returned, not raised (`RatFn.degenerate`).
    """
    theta = _theta(theta, f.order)
    _, l = _operator_l(_wronskian(f, "D of a constant"), theta)
    return RatFn(l(f.num), l(f.den))


def deform_corollary(f, g, h):
    """f + fd (h - (1/2) fd^-1 fdd)^-1 along X = (1/g') d/dz.

    With h = Hn/Hd and c = 2 A^2 W Hn it is (c N - Hd L(N))/(c D - Hd L(D)).
    h = 0 gives the D operator relative to dg; h ranges over functions of
    an absolute invariant in the equivariant application.
    """
    theta = FormCoeff.d_of(g) if not isinstance(g, FormCoeff) else g
    h = _as_ratfn(h, f.order)
    w = _wronskian(f, "deformation of a constant")
    if h.is_infinity:
        raise ArithmeticError("arithmetic with the constant infinity")
    a, l = _operator_l(w, theta)
    c = a * a * w * h.num * 2
    return RatFn(c * f.num - h.den * l(f.num), c * f.den - h.den * l(f.den))


def dd_deformation_h(f, theta=None):
    """The invariant H with D(D f) = f + fd/(H(f) + phi(f)).

    Closed form -2 S^2 / X(S) where S = X(phi) + phi^2; with this S
    normalization the factor 2 is forced (derivable by eliminating fdd via
    fdd = -2 phi fd).  For S = P/Q, X(S) = B (P'Q - PQ')/(A Q^2), so
    H = -2 P^2 A/(B (P'Q - PQ')), reduced once.
    """
    theta = _theta(theta, f.order)
    s = schwarzian(f, theta)
    ws = s.wronskian_poly()
    if ws.is_zero:
        raise ValueError("Schwarzian with vanishing X-derivative")
    return RatFn(s.num * s.num * theta.alpha.num * -2, theta.alpha.den * ws)


def phi_operator(alpha, k):
    """z + k alpha/alpha', sending a weight-k form to an equivariant map."""
    alpha = _as_ratfn(alpha)
    return _phi(alpha, RatFn.constant(0, alpha.order), k, "form with vanishing derivative")


def phi_biweight(alpha, beta, k):
    """z + k alpha/(alpha' + beta), the biweight variant."""
    alpha = _as_ratfn(alpha)
    beta = _as_ratfn(beta, alpha.order)
    return _phi(alpha, beta, k, "degenerate denominator alpha' + beta")


def _phi(alpha, beta, k, message):
    """z + k alpha/(alpha' + beta) with one reduction: for alpha = A/B and
    beta = C/E it is (z G + k A B E)/G with G = K E + C B^2."""
    if alpha.is_infinity:
        raise ArithmeticError("derivative of the constant infinity")
    if beta.is_infinity:
        raise ArithmeticError("arithmetic with the constant infinity")
    a, b = alpha.num, alpha.den
    den = alpha.wronskian_poly() * beta.den + beta.num * b * b
    if den.is_zero:
        raise ValueError(message)
    return RatFn(Poly.x(alpha.order) * den + a * b * beta.den * k, den)


def general_binomial(x, m):
    """Falling-factorial binomial x(x-1)...(x-m+1)/m!, valid for any
    integer x including negatives."""
    num = 1
    for j in range(m):
        num *= x - j
    den = 1
    for j in range(2, m + 1):
        den *= j
    return Fraction(num, den)


def rankin_cohen(alpha, k, beta, l, n):
    """Bracket of forms of weights k and l, a form of weight k + l + 2n.

    sum_m (-1)^m C(n+k-1, n-m) C(n+l-1, m) alpha^(m) beta^(n-m), with
    generalized binomials so negative weights are allowed.
    """
    if n < 0:
        raise ValueError("bracket order must be >= 0")
    alpha = _as_ratfn(alpha)
    beta = _as_ratfn(beta, alpha.order)
    a_derivs = [alpha]
    b_derivs = [beta]
    for _ in range(n):
        a_derivs.append(a_derivs[-1].derivative())
        b_derivs.append(b_derivs[-1].derivative())
    total = RatFn.constant(0, alpha.order)
    for m in range(n + 1):
        c = general_binomial(n + k - 1, n - m) * general_binomial(n + l - 1, m)
        if m % 2:
            c = -c
        if c == 0:
            continue
        total = total + a_derivs[m] * b_derivs[n - m] * rational(c, alpha.order)
    return total


def klein_vector_field(alpha, a, beta=None):
    """Dehomogenized equivariant vector field from homogeneous data.

    alpha lifts to A = z2^a alpha(z1/z2) and beta to B = z2^(a-2)
    beta(z1/z2); the projectivized field (d_z2 A - B z1, -d_z1 A - B z2)
    at z2 = 1 gives the map (a alpha - z alpha' - z beta)/(-alpha' - beta),
    the biweight operator at weight -a.  A constant result is degenerate;
    where alpha' + beta = 0 it is the constant infinity.
    """
    if not isinstance(alpha, Poly):
        raise TypeError("alpha must be a polynomial")
    if alpha.degree > a:
        raise ValueError("homogenization degree below deg alpha")
    order = alpha.order
    if beta is None:
        beta = Poly.zero(order)
    if beta.degree > a - 2:
        raise ValueError("beta exceeds degree a - 2")
    if (alpha.derivative() + beta).is_zero:  # the map is a alpha / 0
        if alpha.is_zero:
            raise ValueError("identically degenerate field")
        return RatFn.infinity(order)
    return phi_biweight(alpha, beta, -a)


# -- period residues --------------------------------------------------


def period_residues(f, fhat):
    """Periods of the closed form d log(f - fhat) relative to d f.

    Returns [(place, period)] over the finite poles of f'/(f - fhat),
    where period = 2 * residue; for fhat = D f every period is an integer,
    which is the well-definedness criterion for the primitive.  Bundle
    places report a Poly value when the residue varies over the bundle.

    Hermite reduction writes g = f'/(f - fhat) as a derivative, which has no
    residue, plus a/d with d the product of the Yun factors of g.den.  At a
    root x of a factor s the period is r(x)/t(x) with r = 2a and t = d'
    mod s, t a unit as d is squarefree.  Where r is a scalar multiple of t
    the period is that scalar; otherwise the locus where it equals c is
    gcd(rest, r - c t) (Rothstein 1976; Trager 1976), and what no small
    integer takes is one bundle with value r t^-1 mod rest.
    """
    fhat = _as_ratfn(fhat, f.order)
    diff = f - fhat
    if diff.is_zero:
        raise ValueError("f and fhat coincide")
    g = f.derivative() / diff
    parts = g.den.squarefree_decomposition()
    a, d = _hermite(g.num, parts)
    d1 = d.derivative()
    bound = 2 * (f.num.degree + f.den.degree) + 4
    out = []
    for s, _ in parts:
        r, t = (a + a) % s, d1 % s
        c = r.leading / t.leading if r else rational(0, s.order)
        if r == t.scale(c):
            out.append((Place.bundle(s), c))
            continue
        rest = s
        for k in range(-bound, bound + 1):
            if rest.degree < 1:
                break
            locus = rest.gcd(r - t.scale(k))
            if locus.degree >= 1:
                out.append((Place.bundle(locus), rational(k, s.order)))
                rest = rest.exact_div(locus)
        if rest.degree >= 1:
            out.append((Place.bundle(rest), _gcdex(t, rest, r)[0]))
    return out


def _hermite(num, parts):
    """(a, d) with num/den - a/d the derivative of a rational function, for
    den monic with Yun decomposition `parts` and d the product of its
    factors: Mack's linear Hermite reduction (Bronstein, Symbolic
    Integration I, 2.2).  Step k takes e = prod s^(i-k) over the factors of
    multiplicity i > k down to e / v, v = prod s, by solving b w + c v = a
    for w = -d e'/e and setting a = c - b' d/v."""
    one, zero = Poly.one(num.order), Poly.zero(num.order)
    d, a = prod((s for s, _ in parts), start=one), num
    for k in range(1, max((i for _, i in parts), default=1)):
        high = [(s, i - k) for s, i in parts if i > k]
        v = prod((s for s, _ in high), start=one)
        w = sum((d.exact_div(s) * s.derivative().scale(-j) for s, j in high), zero)
        b, c = _gcdex(w, v, a)
        a = c - b.derivative() * d.exact_div(v)
    return a, d


def _gcdex(x, y, c):
    """(b, e) with b x + e y = c and deg b < deg y, for x prime to y: the
    extended Euclid over Q(zeta) with monic remainders, whose last is 1."""
    r0, r1 = y, x % y
    s0, s1 = Poly.zero(y.order), Poly.one(y.order)
    while not r1.is_zero:
        lead = r1.leading.inverse()
        r1, s1 = r1.scale(lead), s1.scale(lead)
        q, r = r0.divmod(r1)
        r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
    b = (s0 * c) % y
    return b, (c - b * x).exact_div(y)
