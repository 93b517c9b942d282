"""Reference implementations the tests check the package against.

Each computes something the package computes another way, or does not need:
the named closed-form Gaussian elements and the six QFI components built from
them, the densified Fock Hamiltonian, Hermite functions, the direct
expansion of the spin-branch potential, the ansatz norm and the ground-state
fidelity.
"""

import math

import numpy as np

from qrabi import gaussians as gs
from qrabi.fockspace import _band_matvec, _banded_hamiltonian, default_cutoff, ground_state
from qrabi.model import ModelParams

# ---------------------------------------------------------------------------
# Named Gaussian elements, <phi_a| P(u) |phi_b> one polynomial at a time
# ---------------------------------------------------------------------------


def moment(pair: gs.GaussPair, coeffs: np.ndarray) -> float:
    """<phi_a| sum_k coeffs[k] u^k |phi_b>."""
    return pair.overlap * float(coeffs @ pair.moments(len(coeffs)))


def p2_poly(pair: gs.GaussPair) -> np.ndarray:
    """Factor polynomial of p^2 acting on the ket packet."""
    lin = pair.x_minus(pair.m_b)
    return gs.poly_add(np.array([pair.xi_b]), -pair.xi_b ** 2 * gs.poly_mul(lin, lin))


def p2_element(xi_a, m_a, xi_b, m_b) -> float:
    """<phi_a| p^2 |phi_b>."""
    pair = gs.GaussPair(xi_a, m_a, xi_b, m_b)
    return moment(pair, p2_poly(pair))


def x2_element(xi_a, m_a, xi_b, m_b, center: float) -> float:
    """<phi_a| (x - center)^2 |phi_b>."""
    pair = gs.GaussPair(xi_a, m_a, xi_b, m_b)
    lin = pair.x_minus(center)
    return moment(pair, gs.poly_mul(lin, lin))


def braket_dxi_dxi(xi_a, m_a, xi_b, m_b) -> float:
    """<d phi_a/d xi_a | d phi_b/d xi_b>."""
    pair = gs.GaussPair(xi_a, m_a, xi_b, m_b)
    return moment(pair, gs.poly_mul(pair.dxi_poly("a"), pair.dxi_poly("b")))


def braket_dm_dm(xi_a, m_a, xi_b, m_b) -> float:
    """<d phi_a/d m_a | d phi_b/d m_b>."""
    pair = gs.GaussPair(xi_a, m_a, xi_b, m_b)
    return moment(pair, gs.poly_mul(pair.dm_poly("a"), pair.dm_poly("b")))


def braket_dxi_dm(xi_a, m_a, xi_b, m_b) -> float:
    """<d phi_a/d xi_a | d phi_b/d m_b>; zero for identical packets."""
    pair = gs.GaussPair(xi_a, m_a, xi_b, m_b)
    return moment(pair, gs.poly_mul(pair.dxi_poly("a"), pair.dm_poly("b")))


def braket_dxi_phi(xi_a, m_a, xi_b, m_b) -> float:
    """<d phi_a/d xi_a | phi_b>; zero for identical packets (norm preservation)."""
    pair = gs.GaussPair(xi_a, m_a, xi_b, m_b)
    return moment(pair, pair.dxi_poly("a"))


def braket_dm_phi(xi_a, m_a, xi_b, m_b) -> float:
    """<d phi_a/d m_a | phi_b>; zero for identical packets."""
    pair = gs.GaussPair(xi_a, m_a, xi_b, m_b)
    return moment(pair, pair.dm_poly("a"))


def packet_values(xi: float, m: float, x: np.ndarray) -> np.ndarray:
    """phi(x) sampled on a grid."""
    return xi ** 0.25 * np.exp(-0.5 * xi * (x - m) ** 2) / math.pi ** 0.25


def named_components(packets, c, dxi, dm, dc):
    """n_p = 2 QFI components from the named brackets between same-spin packets.

    packets[k] = (xi, m) with weight c[k], k = 2 spin + packet. The directions
    are u_xi = sum c dxi dphi/dxi, u_x = sum c dm dphi/dm and u_rho = sum dc phi.
    Returns the six components (4 <u|u> for xi, x, rho; 8 <u|v> for the mixed
    ones), the <psi'|psi> residual, and the intra-packet (a == b) and
    inter-packet (a != b) parts of the xi, x and rho components.
    """
    split = {"xi": [0.0, 0.0], "x": [0.0, 0.0], "rho": [0.0, 0.0]}
    mixed = {"xi_x": 0.0, "xi_rho": 0.0, "x_rho": 0.0}
    residual = 0.0
    for a in range(4):
        for b in range(4):
            if a // 2 != b // 2:
                continue
            args = (*packets[a], *packets[b])
            u_xi = (c[a] * dxi[a], c[b] * dxi[b])
            u_x = (c[a] * dm[a], c[b] * dm[b])
            i_xp, i_mp, ov = braket_dxi_phi(*args), braket_dm_phi(*args), gs.overlap(*args)
            sel = 0 if a == b else 1
            split["xi"][sel] += 4.0 * u_xi[0] * u_xi[1] * braket_dxi_dxi(*args)
            split["x"][sel] += 4.0 * u_x[0] * u_x[1] * braket_dm_dm(*args)
            split["rho"][sel] += 4.0 * dc[a] * dc[b] * ov
            mixed["xi_x"] += 8.0 * u_xi[0] * u_x[1] * braket_dxi_dm(*args)
            mixed["xi_rho"] += 8.0 * u_xi[0] * dc[b] * i_xp
            mixed["x_rho"] += 8.0 * u_x[0] * dc[b] * i_mp
            residual += (u_xi[0] * i_xp + u_x[0] * i_mp + dc[a] * ov) * c[b]
    components = {k: v[0] + v[1] for k, v in split.items()} | mixed
    return components, residual, {k: {"intra": v[0], "inter": v[1]}
                                  for k, v in split.items()}


def norm_squared(ansatz) -> float:
    """sum over same-spin packet pairs of w_a w_b <phi_a|phi_b>."""
    return sum(a.weight * b.weight * gs.overlap(a.xi, a.center, b.xi, b.center)
               for packets in (ansatz.packets_plus, ansatz.packets_minus)
               for a in packets for b in packets)


# ---------------------------------------------------------------------------
# Model and Fock basis
# ---------------------------------------------------------------------------


def effective_potential_direct(p: ModelParams, spin: int, x):
    """Spin-branch potential by direct expansion of the couplings."""
    return (0.5 * p.omega * x ** 2 + spin * 2.0 * p.g2 * x ** 2
            + spin * math.sqrt(2.0) * p.g1 * x - spin * p.epsilon - 0.5 * p.omega)


def dense_hamiltonian(p: ModelParams, cutoff: int) -> np.ndarray:
    """The package's banded H, densified column by column through its matvec."""
    band = _banded_hamiltonian(p, cutoff)
    return np.column_stack([_band_matvec(band, e) for e in np.eye(band.shape[1])])


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions h_0..h_n_max on x, upward recurrence."""
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1, *x.shape))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = (math.sqrt(2.0 / (n + 1)) * x * out[n]
                      - math.sqrt(n / (n + 1)) * out[n - 1])
    return out


def fidelity(p: ModelParams, lam: str, delta: float, cutoff: int | None = None) -> float:
    """|<psi(lambda)|psi(lambda + delta)>| from the ground vectors at a shared cutoff."""
    n = default_cutoff(p) if cutoff is None else cutoff
    v0, v1 = (ground_state(q, n)[1].interleaved()
              for q in (p, p.replace(**{lam: getattr(p, lam) + delta})))
    return abs(float(v0 @ v1))
