"""Series lift of a map/form pair to a curve in the 2x2 matrix group.

Around a regular point p the pair (f, theta) lifts to L = [psi, psidot]
with psi = (f psi2, psi2) and psi2 solving the first order equation
psidot2 = phi psi2, phi the pre-Schwarzian.  Both columns then satisfy the
second order equation psidotdot = S psi, the Maurer-Cartan form L^-1 dL
equals [[0, S],[1, 0]] theta, and the ratio of the second column recovers
the dual map D f.  Everything here is truncated power series in t = z - p
with exact coefficients: the work runs on the sparse series of
`equiops.series`, and results are returned as lists, coefficient k of
t^k at index k.
"""

from __future__ import annotations

import operator

from . import series
from .cyclotomic import Cyclo, rational
from .operators import _theta, pre_schwarzian, schwarzian
from .ratfn import _sparse


def _diff(a, order):
    """d/dt of a sparse series."""
    return {k - 1: c * rational(k, order) for k, c in a.items() if k}


def _sub(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out[k] - c if k in out else -c
    return {k: c for k, c in out.items() if not c.is_zero}


def _mul(a, b, n):
    return series.mul(a, b, n, operator.mul)


def _div(a, b, n):
    if 0 not in b:
        raise ZeroDivisionError("series division by positive valuation")
    return series.div(a, b, n, operator.mul, b[0].inverse())


class LiftSeries:
    """Truncated lift L = [[psi1, psidot1], [psi2, psidot2]] at p.

    Built from the four entries as sparse series; the attributes hold
    them as lists of Cyclo (coefficients of (z-p)^k), next to the exact
    potential q_potential = S as a RatFn.  mc entries carry the extra
    factor theta.
    """

    def __init__(self, p, n, entries, q_potential, alpha_series, order):
        self.p = p
        self.n = n
        self.order = order
        self._entries = entries
        self.psi1, self.psidot1, self.psi2, self.psidot2 = (
            self._dense(e, m) for e, m in zip(entries, (n, n - 1, n, n - 1)))
        self.q_potential = q_potential
        self._alpha = alpha_series

    def _dense(self, a, n):
        zero = rational(0, self.order)
        return [a.get(k, zero) for k in range(n)]

    @property
    def matrix(self):
        return ((self.psi1, self.psidot1), (self.psi2, self.psidot2))

    def _det(self, n):
        psi1, psidot1, psi2, psidot2 = self._entries
        return _sub(_mul(psi1, psidot2, n), _mul(psidot1, psi2, n))

    def determinant(self):
        """det L = -fdot(p), constant to the reliable order n - 1
        (psidot carries one order less than psi)."""
        return self._dense(self._det(self.n - 1), self.n - 1)

    def _xderiv(self, a, n):
        return _div(_diff(a, self.order), self._alpha, n)

    def _mc(self, n):
        psi1, psidot1, psi2, psidot2 = self._entries
        det = self._det(n)
        d11 = self._xderiv(psi1, n)
        d12 = self._xderiv(psidot1, n)
        d21 = self._xderiv(psi2, n)
        d22 = self._xderiv(psidot2, n)

        def entry(a, b, c, d):
            # row of adj(L) times column of Ldot, over det
            return _div(_sub(_mul(a, b, n), _mul(c, d, n)), det, n)
        return (
            (entry(psidot2, d11, psidot1, d21),
             entry(psidot2, d12, psidot1, d22)),
            (entry(psi1, d21, psi2, d11), entry(psi1, d22, psi2, d12)),
        )

    def mc_form(self):
        """Entries of L^-1 (dL/dtheta), each a series of length n - 2.

        Truncation: X-differentiating twice costs two orders.
        """
        n = self.n - 2
        return tuple(tuple(self._dense(e, n) for e in row)
                     for row in self._mc(n))

    def pi2_series(self):
        """Ratio of the second column, psidot1/psidot2 = D f as a series."""
        n = self.n - 1
        return self._dense(_div(self._entries[1], self._entries[3], n), n)

    def contact_residuals(self):
        """Diagonal Maurer-Cartan entries plus the column Schrodinger
        residuals psidotdot - q psi; all should vanish to truncation."""
        n = self.n - 2
        mc = self._mc(n)
        q = _sparse(self.q_potential.taylor(self.p, n))
        psi1, psidot1, psi2, psidot2 = self._entries
        res = [mc[0][0], mc[1][1]]
        for psi, psidot in ((psi1, psidot1), (psi2, psidot2)):
            res.append(_sub(self._xderiv(psidot, n), _mul(q, psi, n)))
        return [self._dense(r, n) for r in res]


def legendrian_lift_series(f, theta=None, p=None, n=8):
    """Series lift of (f, theta) at a regular point p to order n >= 3.

    Regularity: fdot(p) finite and nonzero, potential finite at p, f(p)
    finite (move f by a Moebius transformation first otherwise).
    """
    if n < 3:
        raise ValueError("lift order n must be at least 3, got %r" % (n,))
    theta = _theta(theta, f.order)
    if p is None:
        p = rational(0, f.order)
    elif not isinstance(p, Cyclo):
        p = rational(p, f.order)
    o = f.order
    fd = theta.xderiv(f)
    if fd.is_zero:
        raise ValueError("lift of a constant")
    fd_p = fd(p)
    if not isinstance(fd_p, Cyclo) or fd_p.is_zero:
        raise ValueError("p is not a regular point of (f, theta)")
    if not isinstance(f(p), Cyclo):
        raise ValueError("f(p) must be finite; precompose with a Moebius move")
    phi = pre_schwarzian(f, theta)
    s = schwarzian(f, theta)

    alpha = _sparse(theta.alpha.taylor(p, n))
    phi_s = _sparse(phi.taylor(p, n))
    f_s = _sparse(f.taylor(p, n))

    # psi2' = alpha phi psi2 (prime = d/dt), psi2(p) = 1
    rhs_coeff = _mul(alpha, phi_s, n)
    psi2 = {0: rational(1, o)}
    for k in range(1, n):
        acc = None
        for j, c in psi2.items():
            r = rhs_coeff.get(k - 1 - j)
            if r is not None:
                acc = r * c if acc is None else acc + r * c
        if acc is not None and not acc.is_zero:
            psi2[k] = acc / rational(k, o)
    psi1 = _mul(f_s, psi2, n)
    psidot1 = _div(_diff(psi1, o), alpha, n - 1)
    psidot2 = _div(_diff(psi2, o), alpha, n - 1)
    return LiftSeries(p, n, (psi1, psidot1, psi2, psidot2), s, alpha, o)
