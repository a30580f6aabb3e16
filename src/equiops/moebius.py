"""Moebius transformations, group actions on rational maps, group configs.

A Moebius element is a 2x2 matrix over Q(zeta_N) acting on the sphere by
(a z + b)/(c z + d).  Finite group data (generators, invariant forms and
their weights) is loaded from small text config files; every claim a config
makes is re-checked at load time, so configs are data, never trusted code.
"""

from __future__ import annotations

import json
from itertools import combinations

from .cyclotomic import DEFAULT_ORDER, Cyclo, _Immutable, _set, rational
from .ncalg import _det, _mat_mul
from .parsing import parse_cyclo, parse_poly
from .poly import Poly
from .ratfn import INF, RatFn, _as_ratfn, _canonical, _substituted


class Moebius(_Immutable):
    """Invertible 2x2 matrix acting projectively; immutable and hashable."""

    __slots__ = ("a", "b", "c", "d", "order")

    def __init__(self, a, b, c, d, order=DEFAULT_ORDER):
        for name, x in zip(Moebius.__slots__, (a, b, c, d)):
            _set(self, name, x if isinstance(x, Cyclo) else rational(x, order))
        _set(self, "order", self.a.order)
        if self.det().is_zero:
            raise ValueError("singular matrix")

    def __reduce__(self):
        return (Moebius, (self.a, self.b, self.c, self.d, self.order))

    @staticmethod
    def identity(order=DEFAULT_ORDER):
        return Moebius(1, 0, 0, 1, order)

    def det(self):
        return _det(_rows(self))

    def __mul__(self, other):
        if not isinstance(other, Moebius):
            return NotImplemented
        (a, b), (c, d) = _mat_mul(_rows(self), _rows(other))
        return Moebius(a, b, c, d, self.order)

    def inverse(self):
        return Moebius(self.d, -self.b, -self.c, self.a, self.order)

    def as_ratfn(self):
        # an invertible matrix gives a coprime pair, so no gcd is needed
        return _canonical(*_linear_pair(self))

    def is_projectively(self, other):
        """Equal in PGL2: the entries (a, b, c, d) of the two proportional,
        every 2x2 minor of the matrix with them as its rows zero."""
        x, y = (self.a, self.b, self.c, self.d), (other.a, other.b, other.c, other.d)
        return all(_det([[x[i], x[j]], [y[i], y[j]]]).is_zero
                   for i, j in combinations(range(4), 2))

    def __eq__(self, other):  # entrywise; `is_projectively` is equality in PGL2
        if not isinstance(other, Moebius):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return "Moebius(%r, %r, %r, %r)" % (self.a, self.b, self.c, self.d)


def _rows(m):
    """m as a list matrix, for the kernel of `ncalg`."""
    return [[m.a, m.b], [m.c, m.d]]


def _linear_pair(m):
    """(a z + b, c z + d): numerator and denominator of m."""
    return Poly((m.b, m.a), m.order), Poly((m.d, m.c), m.order)


def compose_after(f, m):
    """f(m) as a rational function: precompose with the Moebius map."""
    return f.compose(m.as_ratfn())


def _apply_terms(m, f):
    """Numerator and denominator of (a f + b)/(c f + d), not normalised."""
    return (f.num.scale(m.a) + f.den.scale(m.b),
            f.num.scale(m.c) + f.den.scale(m.d))


def moebius_apply(m, f):
    """m . f = (a f + b)/(c f + d), postcomposition.

    An invertible matrix keeps num and den of a reduced f coprime, so the
    result needs no gcd.
    """
    return _canonical(*_apply_terms(m, f))


def equivariance_residual(f, m, rho_m=None):
    """Zero iff f(m z) = rho(m) . f(z).

    Returned as the cross product of the two sides' numerators and
    denominators, which vanishes exactly when the identity holds; no gcd
    and no normalisation is ever taken, so this stays cheap at large degree.
    """
    if rho_m is None:
        rho_m = m
    ln, ld = _substituted(f, *_linear_pair(m))
    rn, rd = _apply_terms(rho_m, f)
    return ln * rd - rn * ld


def is_equivariant(f, m, rho_m=None):
    return equivariance_residual(f, m, rho_m).is_zero


def form_character(poly, weight, m):
    """Multiplier chi in  poly(m z) (c z + d)^(-weight) = chi poly(z).

    weight is negative for the forms handled here, and -weight >= deg poly.
    Returns None when poly is not relatively invariant under m.
    """
    transformed = poly.substitute(*_linear_pair(m), -weight)
    if transformed.is_zero or transformed.degree != poly.degree:
        return None
    chi = transformed.leading / poly.leading
    return chi if transformed == poly.scale(chi) else None


def cross_ratio(a, b, c, d, order=DEFAULT_ORDER):
    """(a-c)(b-d) / ((a-d)(b-c)) as a rational function.

    Arguments may be RatFn, Poly, exact constants or the symbol 'inf'; each
    is lifted to homogeneous coordinates (num, den) and differences become 2x2
    determinants, so arguments at infinity need no special cases.  The
    result is a RatFn (constant when the inputs are points); a degenerate
    quadruple raises.
    """
    def lift(x):
        if isinstance(x, str):
            if x != INF:
                raise ValueError(x)
            x = RatFn.infinity(order)
        x = _as_ratfn(x, order)
        return x.num, x.den

    A, B, C, D = lift(a), lift(b), lift(c), lift(d)
    num = _det([A, C]) * _det([B, D])
    den = _det([A, D]) * _det([B, C])
    if num.is_zero and den.is_zero:
        raise ZeroDivisionError("degenerate quadruple")
    return RatFn(num, den)


def form_invariance_check(alpha, weight, chi, m):
    """Verify alpha(m z) (cz+d)^(-weight) = chi alpha(z).

    Returns (ok, witness): witness is None on success, the nonzero residual
    polynomial on failure.
    """
    if isinstance(alpha, RatFn):
        if alpha.den.degree != 0:
            raise ValueError("invariant forms must be polynomial")
        alpha = alpha.num
    residual = alpha.substitute(*_linear_pair(m), -weight) - alpha.scale(chi)
    if residual.is_zero:
        return True, None
    return False, residual


def equivariance_check(f, pairs):
    """Verify f(A z) = rho(A)(f(z)) for every (A, rho(A)) pair.

    Returns (ok, witness): witness is the first failing (A, rhoA, residual)
    triple, or None.
    """
    for m, rho_m in pairs:
        res = equivariance_residual(f, m, rho_m)
        if not res.is_zero:
            return False, (m, rho_m, res)
    return True, None


class InvariantForm:
    """Polynomial invariant of a finite Moebius group with its weight."""

    __slots__ = ("name", "poly", "weight", "characters")

    def __init__(self, name, poly, weight, characters):
        self.name = name
        self.poly = poly
        self.weight = weight
        self.characters = characters  # per generator, same order as group gens

    def __repr__(self):
        return "InvariantForm(%s, weight=%d)" % (self.name, self.weight)


class GroupConfig:
    """Validated description of a finite Moebius group with invariants."""

    def __init__(self, name, order, generators, rho_generators, forms):
        self.name = name
        self.order = order
        self.generators = generators
        self.rho_generators = rho_generators
        self.forms = forms

    def form(self, name):
        for f in self.forms:
            if f.name == name:
                return f
        raise KeyError(name)

    @property
    def vertex_form(self):
        return self.forms[0]

    def __repr__(self):
        return "GroupConfig(%s, %d generators, %d forms)" % (
            self.name, len(self.generators), len(self.forms))


class ConfigError(ValueError):
    pass


def load_group_config(path):
    """Read and validate a group config file.

    The file is JSON with string-valued matrix entries and polynomials in
    the literal syntax of this package.  Everything stated in the file is
    re-derived: determinants, invariance of each form, the recorded
    character values, and the recorded weights against the degrees.
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise ConfigError("%s: %s" % (path, exc)) from exc
    return _validate_config(raw, path)


def _validate_config(raw, src="<config>"):
    """The GroupConfig of a parsed config; any malformed field raises a
    ConfigError naming src."""
    def need(ok, what):
        if not ok:
            raise ConfigError("%s: %s" % (src, what))

    def checked(thunk):
        # bad literals, singular matrices, weights below a form's degree
        try:
            return thunk()
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError("%s: %s" % (src, exc)) from exc

    def parsed(parse, text):
        need(isinstance(text, str), "%r is not a string" % (text,))
        return checked(lambda: parse(text, order))

    need(isinstance(raw, dict), "not a JSON object")
    for key in ("name", "cyclotomic_order", "generators", "invariants"):
        need(key in raw, "missing field %r" % key)
    name, order = raw["name"], raw["cyclotomic_order"]
    need(isinstance(name, str), "name is not a string")
    need(type(order) is int and order > 0,
         "cyclotomic_order is not a positive integer")
    gen_rows = raw["generators"]
    rho_rows = raw.get("rho_generators", gen_rows)
    inv_rows = raw["invariants"]
    need(all(isinstance(r, list) for r in (gen_rows, rho_rows, inv_rows)),
         "generators, rho_generators and invariants must be lists")

    def mat(entries):
        need(isinstance(entries, list) and len(entries) == 4,
             "matrix needs 4 entries")
        vals = [parsed(parse_cyclo, e) for e in entries]
        return checked(lambda: Moebius(*vals, order=order))

    generators = [mat(g) for g in gen_rows]
    rho_generators = [mat(g) for g in rho_rows]
    if len(rho_generators) != len(generators):
        raise ConfigError("%s: generator count mismatch" % src)

    forms = []
    for row in inv_rows:
        need(isinstance(row, dict)
             and all(k in row for k in ("name", "poly", "weight")),
             "an invariant needs name, poly and weight")
        need(isinstance(row["name"], str), "invariant name is not a string")
        need(type(row["weight"]) is int,
             "weight of %s is not an integer" % row["name"])
        poly, weight = parsed(parse_poly, row["poly"]), row["weight"]
        chars = []
        for g in generators:
            chi = checked(lambda: form_character(poly, weight, g))
            if chi is None:
                raise ConfigError(
                    "%s: %s is not invariant under a stated generator"
                    % (src, row["name"]))
            if not chi.is_root_of_unity():
                raise ConfigError(
                    "%s: character of %s is not a root of unity"
                    % (src, row["name"]))
            chars.append(chi)
        stated = row.get("characters")
        if stated is not None:
            need(isinstance(stated, list),
                 "characters of %s is not a list" % row["name"])
            for chi, s in zip(chars, stated):
                if chi != parsed(parse_cyclo, s):
                    raise ConfigError("%s: recorded character is wrong" % src)
        forms.append(InvariantForm(row["name"], poly, weight, chars))

    return GroupConfig(name, order, generators, rho_generators, forms)
