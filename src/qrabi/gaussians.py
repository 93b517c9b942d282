"""Closed-form integrals for normalized Gaussian wave packets.

A packet with inverse-variance parameter xi > 0 and center m is

    phi(x) = xi^{1/4} exp(-xi (x - m)^2 / 2) / pi^{1/4}.

Every matrix element used by the variational and QFI machinery reduces to
<phi_a| P(x) |phi_b> with P polynomial, which is evaluated exactly from the
Gaussian-product form: phi_a phi_b = O_ab * N(mu, 1/s) density-like factor
with s = xi_a + xi_b and mu = (xi_a m_a + xi_b m_b)/s, so only even central
moments E[(x-mu)^{2k}] = (2k-1)!!/s^k enter.

Parameter derivatives of a packet are again polynomial multiples of it:

    d(phi)/d(xi)       = P_xi phi,  P_xi = 1/(4 xi) - (x - m)^2 / 2
    d(phi)/d(m)        = P_m phi,   P_m  = xi (x - m)
    d2(phi)/d(xi)2     = (P_xi^2 - 1/(4 xi^2)) phi
    d2(phi)/d(xi)d(m)  = ((x - m) + P_xi P_m) phi
    d2(phi)/d(m)2      = (P_m^2 - xi) phi
    d(P phi)/dx        = (P' - xi (x - m) P) phi

so overlaps among derivatives stay inside the same closed form; kinetic
elements between derivatives use <P phi_a| p^2 |Q phi_b> = <(P phi_a)'|(Q phi_b)'>.
"""

from __future__ import annotations

import math

import numpy as np


_BINOM = np.array([[math.comb(j, i) for i in range(8)] for j in range(8)], dtype=float)


class GaussPair:
    """Product frame of two packets; evaluates <phi_a| P(u) |phi_b>, u = x - mu."""

    def __init__(self, xi_a: float, m_a: float, xi_b: float, m_b: float):
        if xi_a <= 0 or xi_b <= 0:
            raise ValueError("packet widths xi must be positive")
        self.xi_a, self.m_a = xi_a, m_a
        self.xi_b, self.m_b = xi_b, m_b
        self.s = xi_a + xi_b
        # difference form keeps mu exactly equal to the common center when m_a == m_b
        self.mu = m_b + xi_a * (m_a - m_b) / self.s
        d = m_a - m_b
        self.overlap = (math.sqrt(2.0) * (xi_a * xi_b) ** 0.25 / math.sqrt(self.s)
                        * math.exp(-xi_a * xi_b * d * d / (2.0 * self.s)))

    # -- polynomial building blocks, coefficient arrays in powers of u --

    def x_minus(self, center: float) -> np.ndarray:
        """(x - center) expressed in u."""
        return np.array([self.mu - center, 1.0])

    def in_frame(self, rows: np.ndarray, center: float) -> np.ndarray:
        """Coefficient rows of polynomials in (x - center), re-expressed in u."""
        d = self.mu - center
        n = rows.shape[-1]
        k = np.arange(n)
        return rows @ (_BINOM[:n, :n] * d ** np.abs(np.subtract.outer(k, k)))

    def dxi_poly(self, side: str) -> np.ndarray:
        """Factor polynomial of d(phi)/d(xi) for the bra ('a') or ket ('b') packet."""
        xi, m = (self.xi_a, self.m_a) if side == "a" else (self.xi_b, self.m_b)
        lin = self.x_minus(m)
        return poly_add(np.array([1.0 / (4.0 * xi)]), -0.5 * poly_mul(lin, lin))

    def dm_poly(self, side: str) -> np.ndarray:
        """Factor polynomial of d(phi)/d(m)."""
        xi, m = (self.xi_a, self.m_a) if side == "a" else (self.xi_b, self.m_b)
        return xi * self.x_minus(m)

    def dxi2_poly(self, side: str) -> np.ndarray:
        """Factor polynomial of d2(phi)/d(xi)2."""
        xi = self.xi_a if side == "a" else self.xi_b
        dxi = self.dxi_poly(side)
        return poly_add(np.array([-1.0 / (4.0 * xi * xi)]), poly_mul(dxi, dxi))

    def dxi_dm_poly(self, side: str) -> np.ndarray:
        """Factor polynomial of d2(phi)/d(xi)d(m)."""
        m = self.m_a if side == "a" else self.m_b
        return poly_add(self.x_minus(m), poly_mul(self.dxi_poly(side), self.dm_poly(side)))

    def dm2_poly(self, side: str) -> np.ndarray:
        """Factor polynomial of d2(phi)/d(m)2."""
        xi = self.xi_a if side == "a" else self.xi_b
        dm = self.dm_poly(side)
        return poly_add(np.array([-xi]), poly_mul(dm, dm))

    def ddx_poly(self, factor: np.ndarray, side: str) -> np.ndarray:
        """Factor polynomial of d/dx (factor * phi); p = -i d/dx."""
        xi, m = (self.xi_a, self.m_a) if side == "a" else (self.xi_b, self.m_b)
        deriv = factor[1:] * np.arange(1, len(factor))
        return poly_add(deriv, -xi * poly_mul(self.x_minus(m), factor))

    def p2_poly(self) -> np.ndarray:
        """Factor polynomial of p^2 acting on the ket packet."""
        xi, m = self.xi_b, self.m_b
        lin = self.x_minus(m)
        return poly_add(np.array([xi]), -xi * xi * poly_mul(lin, lin))

    def moments(self, n: int) -> np.ndarray:
        """E[u^k] for k < n under the normalized product density; odd ones vanish."""
        out = np.zeros(n)
        fac = 1.0  # (2k-1)!! / s^k at k = 0
        for k in range(0, n, 2):
            out[k] = fac
            fac *= (k + 1) / self.s
        return out

    def moment(self, coeffs: np.ndarray) -> float:
        """<phi_a| sum_k coeffs[k] u^k |phi_b>."""
        return self.overlap * float(coeffs @ self.moments(len(coeffs)))

    def gram(self, rows_a: np.ndarray, rows_b: np.ndarray,
             weight: np.ndarray = np.ones(1)) -> np.ndarray:
        """Matrix of <P_i phi_a| w(u) |Q_j phi_b> over coefficient rows P_i and Q_j."""
        na, nb = rows_a.shape[1], rows_b.shape[1]
        mom = np.correlate(self.moments(na + nb + len(weight) - 2), weight, "valid")
        return self.overlap * (rows_a @ mom[np.add.outer(np.arange(na), np.arange(nb))]
                               @ rows_b.T)


def poly_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.convolve(p, q)


def poly_add(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    n = max(len(p), len(q))
    out = np.zeros(n)
    out[: len(p)] += p
    out[: len(q)] += q
    return out


# ---------------------------------------------------------------------------
# Named matrix elements
# ---------------------------------------------------------------------------

def overlap(xi_a, m_a, xi_b, m_b) -> float:
    return GaussPair(xi_a, m_a, xi_b, m_b).overlap


def p2_element(xi_a, m_a, xi_b, m_b) -> float:
    """<phi_a| p^2 |phi_b>."""
    pair = GaussPair(xi_a, m_a, xi_b, m_b)
    return pair.moment(pair.p2_poly())


def x2_element(xi_a, m_a, xi_b, m_b, center: float) -> float:
    """<phi_a| (x - center)^2 |phi_b>."""
    pair = GaussPair(xi_a, m_a, xi_b, m_b)
    lin = pair.x_minus(center)
    return pair.moment(poly_mul(lin, lin))


def braket_dxi_dxi(xi_a, m_a, xi_b, m_b) -> float:
    """<d phi_a/d xi_a | d phi_b/d xi_b>."""
    pair = GaussPair(xi_a, m_a, xi_b, m_b)
    return pair.moment(poly_mul(pair.dxi_poly("a"), pair.dxi_poly("b")))


def braket_dm_dm(xi_a, m_a, xi_b, m_b) -> float:
    """<d phi_a/d m_a | d phi_b/d m_b>."""
    pair = GaussPair(xi_a, m_a, xi_b, m_b)
    return pair.moment(poly_mul(pair.dm_poly("a"), pair.dm_poly("b")))


def braket_dxi_dm(xi_a, m_a, xi_b, m_b) -> float:
    """<d phi_a/d xi_a | d phi_b/d m_b>; zero for identical packets."""
    pair = GaussPair(xi_a, m_a, xi_b, m_b)
    return pair.moment(poly_mul(pair.dxi_poly("a"), pair.dm_poly("b")))


def braket_dxi_phi(xi_a, m_a, xi_b, m_b) -> float:
    """<d phi_a/d xi_a | phi_b>; zero for identical packets (norm preservation)."""
    pair = GaussPair(xi_a, m_a, xi_b, m_b)
    return pair.moment(pair.dxi_poly("a"))


def braket_dm_phi(xi_a, m_a, xi_b, m_b) -> float:
    """<d phi_a/d m_a | phi_b>; zero for identical packets."""
    pair = GaussPair(xi_a, m_a, xi_b, m_b)
    return pair.moment(pair.dm_poly("a"))


def packet_values(xi: float, m: float, x: np.ndarray) -> np.ndarray:
    """phi(x) sampled on a grid (for quadrature cross-checks and plotting)."""
    return xi ** 0.25 * np.exp(-0.5 * xi * (x - m) ** 2) / math.pi ** 0.25
