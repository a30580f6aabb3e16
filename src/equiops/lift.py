"""Series lift of a map/form pair to a curve in the 2x2 matrix group.

Around a regular point p the pair (f, theta) lifts to L = [psi, psidot]
with psi = (f psi2, psi2) and psi2 solving the first order equation
psidot2 = phi psi2, phi the pre-Schwarzian.  Both columns then satisfy the
second order equation psidotdot = S psi, the Maurer-Cartan form L^-1 dL
equals [[0, S],[1, 0]] theta, and the ratio of the second column recovers
the dual map D f.  Everything here is truncated power series in t = z - p
with exact coefficients, `QSeries` from `RatFn.taylor_series`, and their
2x2 matrix algebra is the list-matrix kernel of `ncalg`; results are
returned as lists, coefficient k of t^k at index k.
"""

from __future__ import annotations

from .cyclotomic import Cyclo, rational
from .ncalg import _adj_det, _det, _dot, _mat_mul
from .operators import _theta, pre_schwarzian, schwarzian
from .qseries import QSeries


class LiftSeries:
    """Truncated lift L = [[psi1, psidot1], [psi2, psidot2]] at p.

    Built from the four entries as `QSeries` in t = z - p; the attributes
    hold them as lists of Cyclo (coefficients of (z-p)^k), next to the
    exact potential q_potential = S as a RatFn.  mc entries carry the extra
    factor theta.
    """

    def __init__(self, p, n, entries, q_potential, alpha_series, order):
        self.p = p
        self.n = n
        self.order = order
        self._rows = (entries[:2], entries[2:])  # L as series
        self.psi1, self.psidot1, self.psi2, self.psidot2 = (
            e.dense(m) for e, m in zip(entries, (n, n - 1, n, n - 1)))
        self.q_potential = q_potential
        self._alpha = alpha_series

    @property
    def matrix(self):
        return ((self.psi1, self.psidot1), (self.psi2, self.psidot2))

    def _kernel(self):
        """(adj L, det L, Ldot) by the list-matrix kernel, Ldot = dL/dtheta
        having the stored psidot1 and psidot2 as its first column."""
        adj, det = _adj_det(self._rows)
        return adj, det, [[e, e.derivative() / self._alpha] for _, e in self._rows]

    def determinant(self):
        """det L = -fdot(p), constant to the reliable order n - 1
        (psidot carries one order less than psi)."""
        return _det(self._rows).dense(self.n - 1)

    def mc_form(self):
        """Entries of L^-1 (dL/dtheta) = adj(L) Ldot / det L, each a series
        of length n - 2.

        Truncation: X-differentiating twice costs two orders.
        """
        adj, det, ldot = self._kernel()
        n = self.n - 2
        return tuple(tuple((e / det).dense(n) for e in row) for row in _mat_mul(adj, ldot))

    def pi2_series(self):
        """Ratio of the second column, psidot1/psidot2 = D f as a series."""
        (_, psidot1), (_, psidot2) = self._rows
        if psidot2.valuation:  # phi(p) = 0
            raise ZeroDivisionError("D f has a pole at p")
        return (psidot1 / psidot2).dense(self.n - 1)

    def contact_residuals(self):
        """Diagonal Maurer-Cartan entries plus the column Schrodinger
        residuals psidotdot - q psi; all should vanish to truncation."""
        n = self.n - 2
        q = self.q_potential.taylor_series(self.p, n)
        adj, det, ldot = self._kernel()
        res = [_dot(adj[i], [row[i] for row in ldot]) / det for i in (0, 1)]
        res += [ddot - q * psi for (psi, _), (_, ddot) in zip(self._rows, ldot)]
        return [r.dense(n) for r in res]


def legendrian_lift_series(f, theta=None, p=None, n=8):
    """Series lift of (f, theta) at a regular point p to order n >= 3.

    Regularity: fdot(p) finite and nonzero, potential finite at p, f(p)
    finite (move f by a Moebius transformation first otherwise), and
    theta = alpha dz with alpha(p) finite and nonzero.
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

    alpha = theta.alpha.taylor_series(p, n)
    if alpha.valuation:
        raise ZeroDivisionError("theta vanishes at p")
    rhs = (alpha * phi.taylor_series(p, n)).coeffs

    # psi2' = alpha phi psi2 (prime = d/dt), psi2(p) = 1
    psi2 = {0: rational(1, o)}
    for k in range(1, n):
        psi2[k] = sum((rhs[k - 1 - j] * c for j, c in psi2.items() if k - 1 - j in rhs),
                      rational(0, o)) / k
    psi2 = QSeries(1, psi2, n, o)
    psi1 = f.taylor_series(p, n) * psi2
    psidot1 = psi1.derivative() / alpha
    psidot2 = psi2.derivative() / alpha
    return LiftSeries(p, n, (psi1, psidot1, psi2, psidot2), s, alpha, o)
