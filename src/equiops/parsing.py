"""Literal syntax for cyclotomic numbers, polynomials, rational functions.

Grammar (whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' integer)?
    atom   := integer | 'z' | 'zeta' | '(' expr ')' | '-' factor | 'inf'

'zeta' is the primitive root of unity of the ambient order, so sqrt(2) at
order 120 prints as (zeta^15 + zeta^105).  Printing and parsing are mutually
inverse on reduced values.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .cyclotomic import DEFAULT_ORDER, _sized, zeta
from .ratfn import RatFn

_TOKEN = re.compile(r"\s*(zeta|inf|z|\d+|\^|[()+\-*/])")


class ParseError(ValueError):
    pass


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError("bad character at %r" % text[pos:pos + 10])
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, order):
        self.tokens = tokens
        self.i = 0
        self.order = order

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expect=None):
        tok = self.peek()
        if tok is None or (expect is not None and tok != expect):
            raise ParseError("expected %r, found %r" % (expect, tok))
        self.i += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            node = node * rhs if op == "*" else node / rhs
        return node

    def factor(self):
        if self.peek() == "-":
            self.take()
            return -self.factor()
        root = self.peek() == "zeta"
        node = self.atom()
        if self.peek() == "^":
            self.take()
            neg = False
            if self.peek() == "-":
                self.take()
                neg = True
            k = int(self.take())
            k = -k if neg else k
            # zeta^k at its conductor; a product of zeta_N's would stay at N
            node = RatFn.constant(zeta(self.order, k), self.order) if root else node ** k
        return node

    def atom(self):
        tok = self.peek()
        if tok == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if tok == "z":
            self.take()
            return RatFn.x(self.order)
        if tok == "zeta":
            self.take()
            return RatFn.constant(zeta(self.order), self.order)
        if tok == "inf":
            self.take()
            return RatFn.infinity(self.order)
        if tok is not None and tok.isdigit():
            self.take()
            return RatFn.constant(int(tok), self.order)
        raise ParseError("unexpected token %r" % (tok,))


def parse_ratfn(text, order=DEFAULT_ORDER):
    tokens = _tokenize(text)
    p = _Parser(tokens, order)
    node = p.expr()
    if p.peek() is not None:
        raise ParseError("trailing input from %r" % (p.peek(),))
    return node


def parse_poly(text, order=DEFAULT_ORDER):
    f = parse_ratfn(text, order)
    if f.den.degree != 0:
        raise ParseError("not a polynomial: %s" % text)
    return f.num


def parse_cyclo(text, order=DEFAULT_ORDER):
    f = parse_ratfn(text, order)
    if not f.is_constant or f.is_infinity:
        raise ParseError("not a constant: %s" % text)
    return _sized(f.constant_value())


# -- printers ---------------------------------------------------------


def _frac_literal(fr):
    if fr.denominator == 1:
        return str(fr.numerator)
    return "%d/%d" % (fr.numerator, fr.denominator)


def cyclo_literal(c):
    """Shortest sum-of-zeta-powers form of a cyclotomic number."""
    if c.is_rational:
        return _frac_literal(c.as_fraction())
    parts = []
    for k, coef in enumerate(c.num):
        if coef == 0:
            continue
        fr = Fraction(coef, c.den)
        if k == 0:
            parts.append(_frac_literal(fr))
            continue
        base = "zeta" if k == 1 else "zeta^%d" % k
        if fr == 1:
            parts.append(base)
        elif fr == -1:
            parts.append("-" + base)
        else:
            mag = _frac_literal(abs(fr))
            if "/" in mag:
                mag = "(%s)" % mag
            parts.append(("-" if fr < 0 else "") + mag + "*" + base)
    return _join_signed(parts)


def _join_signed(parts):
    if not parts:
        return "0"
    text = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            text += " - " + p[1:]
        else:
            text += " + " + p
    return text


def _coeff_prefix(c):
    """Multiplier text for a coefficient (a Fraction or an irrational Cyclo),
    or '' / '-' for +-1."""
    if isinstance(c, Fraction):
        if c == 1:
            return ""
        if c == -1:
            return "-"
        lit = _frac_literal(c)
        if "/" in lit or c < 0:
            lit = "(%s)" % lit
        return lit + "*"
    return "(%s)*" % cyclo_literal(c)


def poly_literal(p):
    if p.is_zero:
        return "0"
    if p.is_rational:  # read the ints, not the Cyclo view
        ints, den = p.as_ints()
        values = [Fraction(v, den) for v in ints]
    else:
        values = [c.as_fraction() if c.is_rational else c for c in p.coeffs]
    parts = []
    for k in range(p.degree, -1, -1):
        c = values[k]
        if not c:
            continue
        if k == 0:
            lit = _frac_literal(c) if isinstance(c, Fraction) else cyclo_literal(c)
            if " " in lit and len(parts) > 0:
                lit = "(%s)" % lit if not lit.startswith("-") else lit
            parts.append(lit)
            continue
        mono = "z" if k == 1 else "z^%d" % k
        parts.append(_coeff_prefix(c) + mono)
    return _join_signed(parts)


def ratfn_literal(f):
    if f.is_infinity:
        return "inf"
    if f.den == 1:
        return poly_literal(f.num)
    num = poly_literal(f.num)
    den = poly_literal(f.den)
    if " " in num:
        num = "(%s)" % num
    if " " in den or "*" in den or "^" in den:
        den = "(%s)" % den
    return "%s / %s" % (num, den)
