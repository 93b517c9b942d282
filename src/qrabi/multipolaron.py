"""Finite-Omega variational ground state: polaron + anti-polaron per spin (n_p = 2).

Each spin component carries two Gaussian packets; the twelve ansatz parameters
are the four (ln xi, center) shape pairs theta plus four weights c. For fixed
shapes the weights solve the 4x4 generalized symmetric eigenproblem (H, S), so
E(theta) is its lowest eigenvalue. Its gradient and Hessian are exact: the
closed-form Gaussian elements of each packet's theta derivatives to second
order give dH/dtheta and dS/dtheta, and second-order perturbation theory over
all four eigenpairs gives the Hessian. A trust-region Newton method on that
Hessian (Nocedal & Wright, Numerical Optimization, ch. 4) drives each spin's
shape gradient below 1e-9 omega times that spin's weight, so the packets of a
nearly empty spin are converged as tightly as those of a full one.

The QFI for lambda = g2 needs the response of the optimum. g2 enters H only
through sigma_z (a^dag + a)^2 = 2 sigma_z x^2, so g2 is treated as a ninth
parameter of the same expansion. At grad E = 0 the implicit-function theorem
gives dtheta/dg2 = -(d2E/dtheta2)^-1 d(grad E)/dg2 (Blondel et al., NeurIPS
2022), and the perturbed eigenproblem gives dc/dg2 (coupled-perturbed
Hartree-Fock, Gerratt & Mills, JCP 49, 1719 (1968)). The six components (xi,
x, rho and the three mixed ones) are assembled from closed-form cross-overlaps;
intra-polaron mixed integrals vanish identically, so the mixed components are
purely inter-packet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import gaussians
from .gaussians import GaussPair
from .model import ModelParams, derived_scales
from .polaron import GaussianPacket, PolaronAnsatz
from .qfi_ed import QfiBreakdown

GRAD_TOL_FACTOR = 1e-9   # convergence: |grad_s| < 1e-9 * omega * weight_s per spin s
# Relative size at which a computed quantity is round-off: a step's predicted
# energy change (against |E| + omega), a Hessian eigenvalue (against the
# largest) and the <psi'|psi> residual (against |psi'|). The measured noise of
# the energy is below 4 eps and of the smallest Hessian eigenvalues below 70 eps.
ROUNDOFF = 2.0 ** 10 * np.finfo(float).eps
MAX_NEWTON_STEPS = 200


class VariationalError(RuntimeError):
    """Optimization failed to converge, packets collapsed, or the minimum is not isolated."""


@dataclass(frozen=True)
class MultiAnsatz:
    """Converged n_p = 2 ansatz with its variational energy and gradient norm."""

    ansatz: PolaronAnsatz
    energy: float
    grad_norm: float


# theta layout: [lnxi, m] x 2 packets x 2 spins -> 8 entries,
# spin-plus packets first. Packet (weight) index k = 2*spin + packet.

def _unpack(theta: np.ndarray) -> list:
    return [(math.exp(theta[2 * k]), theta[2 * k + 1]) for k in range(4)]


# Derivative rows of a packet: phi, d/dlnxi, d/dm, d2/dlnxi2, d2/dlnxi dm, d2/dm2.
_PACKET = np.repeat(np.arange(4), 2)   # packet moved by each theta entry
_ROW = np.tile([1, 2], 4)              # its first-derivative row
_SECOND = np.array([[3, 4], [4, 5]])   # second-derivative row of a (row, row) pair


def _packet_rows(xi: float, m: float) -> tuple[np.ndarray, np.ndarray]:
    """Factor polynomials in x - m of a packet's derivative rows, and of their d/dx."""
    own = GaussPair(xi, m, xi, m)  # its u is x - m
    dxi = xi * own.dxi_poly("a")
    polys = (np.ones(1), dxi, own.dm_poly("a"),
             gaussians.poly_add(xi * xi * own.dxi2_poly("a"), dxi),
             xi * own.dxi_dm_poly("a"), own.dm2_poly("a"))
    rows = np.zeros((6, 5))
    for i, poly in enumerate(polys):
        rows[i, : len(poly)] = poly
    return rows, np.array([own.ddx_poly(r, "a") for r in rows])


def _elements(theta: np.ndarray, p: ModelParams):
    """<D phi_a| O |D' phi_b> for O = 1, H and dH/dg2, as (4, 4, 6, 6) arrays.

    Indices: packet a, packet b, derivative row of a, derivative row of b. The
    kinetic term uses <P phi_a| p^2 |Q phi_b> = <(P phi_a)'|(Q phi_b)'>.
    """
    packets = _unpack(theta)
    own = [_packet_rows(*pk) for pk in packets]
    s_el, h_el, x_el = (np.zeros((4, 4, 6, 6)) for _ in range(3))
    for a in range(4):
        for b in range(a, 4):
            pair = GaussPair(*packets[a], *packets[b])
            ma, mb = packets[a][1], packets[b][1]
            rows_a, rows_b = pair.in_frame(own[a][0], ma), pair.in_frame(own[b][0], mb)
            if a // 2 == b // 2:
                sz = 1.0 if a < 2 else -1.0
                # spin branch potential (omega/2 + 2 sz g2) x^2 + sz sqrt(2) g1 x
                # - sz epsilon - omega/2, and its g2-derivative 2 sz x^2
                v, dv = pair.in_frame(np.array([
                    [-sz * p.epsilon - 0.5 * p.omega, sz * math.sqrt(2.0) * p.g1,
                     0.5 * p.omega + 2.0 * sz * p.g2],
                    [0.0, 0.0, 2.0 * sz]]), 0.0)
                s_ab = pair.gram(rows_a, rows_b)
                h_ab = (0.5 * p.omega * pair.gram(pair.in_frame(own[a][1], ma),
                                                  pair.in_frame(own[b][1], mb))
                        + pair.gram(rows_a, rows_b, v))
                x_ab = pair.gram(rows_a, rows_b, dv)
            else:
                s_ab = x_ab = np.zeros((6, 6))
                h_ab = 0.5 * p.Omega * pair.gram(rows_a, rows_b)
            for out, block in ((s_el, s_ab), (h_el, h_ab), (x_el, x_ab)):
                out[a, b] = block
                out[b, a] = block.T
    return s_el, h_el, x_el


@dataclass(frozen=True)
class _Expansion:
    """E at theta with its exact derivatives in (theta, g2), g2 the ninth entry."""

    energy: float
    weights: np.ndarray    # lowest eigenvector c, c^T S c = 1, dominant entry > 0
    spin_weights: np.ndarray  # (2,) c^T S c within each spin, summing to 1
    grad: np.ndarray       # (9,)  dE
    hess: np.ndarray       # (9, 9) d2E
    response: np.ndarray   # (9, 4) dc at fixed other parameters
    metric: np.ndarray     # (8, 8) <d_i psi|d_j psi> at fixed weights


def _expand(theta: np.ndarray, p: ModelParams) -> _Expansion:
    """Energy, gradient, Hessian and weight response by perturbation theory.

    With A_i = dH_i - E dS_i, w_i = A_i c and the other eigenpairs (E_n, c_n),
    dE_i = c.w_i, dc_i = sum_n c_n (c_n.w_i)/(E - E_n) - (c^T dS_i c/2) c, and
    d2E_ij = c^T (d2H_ij - E d2S_ij) c - dE_i c^T dS_j c - dE_j c^T dS_i c
             + 2 sum_n (c_n.w_i)(c_n.w_j)/(E - E_n).
    """
    s_el, h_el, x_el = _elements(theta, p)
    s = s_el[:, :, 0, 0]
    if np.linalg.eigvalsh(s).min() < 1e-12:
        raise VariationalError(
            "packet overlap matrix is singular: two packets collapsed onto each other")
    energies, vecs = scipy.linalg.eigh(h_el[:, :, 0, 0], s)
    e, c = float(energies[0]), vecs[:, 0]
    if c[int(np.argmax(np.abs(c)))] < 0:
        c = -c  # canonical global sign: dominant weight positive
    a_el = h_el - e * s_el
    k, d = _PACKET, _ROW
    ck = c[k]
    w = np.empty((9, 4))
    w[:8] = a_el[k, :, d, 0] * ck[:, None]
    w[np.arange(8), k] += a_el[k, :, d, 0] @ c
    w[8] = x_el[:, :, 0, 0] @ c
    grad = w @ c
    ds = np.zeros(9)
    ds[:8] = 2.0 * ck * (s_el[k, :, d, 0] @ c)
    explicit = np.zeros((9, 9))
    explicit[:8, :8] = 2.0 * np.outer(ck, ck) * a_el[k[:, None], k, d[:, None], d]
    for packet in range(4):
        block = slice(2 * packet, 2 * packet + 2)
        explicit[block, block] += 2.0 * c[packet] * (a_el[packet, :, _SECOND, 0] @ c)
    explicit[:8, 8] = explicit[8, :8] = 2.0 * ck * (x_el[k, :, d, 0] @ c)
    proj = w @ vecs[:, 1:]
    inv_gap = 1.0 / (e - energies[1:])
    hess = (explicit - np.outer(ds, grad) - np.outer(grad, ds)
            + 2.0 * (proj * inv_gap) @ proj.T)
    response = (proj * inv_gap) @ vecs[:, 1:].T - 0.5 * np.outer(ds, c)
    metric = np.outer(ck, ck) * s_el[k[:, None], k, d[:, None], d]
    spin_weights = np.array([c[:2] @ s[:2, :2] @ c[:2], c[2:] @ s[2:, 2:] @ c[2:]])
    return _Expansion(energy=e, weights=c, spin_weights=spin_weights, grad=grad,
                      hess=hess, response=response, metric=metric)


def _seed_theta(p: ModelParams) -> np.ndarray:
    """Adiabatic packet per spin plus an anti-polaron at the opposite bottom."""
    sc = derived_scales(p)
    seeds = [
        (sc.varpi_plus, -sc.b_plus), (sc.varpi_minus, sc.b_minus),   # spin +
        (sc.varpi_minus, sc.b_minus), (sc.varpi_plus, -sc.b_plus),   # spin -
    ]
    theta = np.empty(8)
    for spin in range(2):
        main = seeds[2 * spin]
        anti = list(seeds[2 * spin + 1])
        if abs(anti[0] - main[0]) < 1e-3 * main[0] and abs(anti[1] - main[1]) < 1e-3:
            anti[0] *= 1.35
            anti[1] += 0.1
        theta[4 * spin + 0], theta[4 * spin + 1] = math.log(main[0]), main[1]
        theta[4 * spin + 2], theta[4 * spin + 3] = math.log(anti[0]), anti[1]
    return theta


def _trust_region_step(hess: np.ndarray, grad: np.ndarray, radius: float) -> np.ndarray:
    """Minimizer of grad.s + s.hess.s/2 over |s| <= radius (Nocedal & Wright, sec. 4.3).

    In the eigenbasis of hess the step is -(hess + sigma)^-1 grad with the
    smallest sigma >= max(0, -lambda_min) that keeps it inside the region; Newton
    on 1/|s(sigma)| = 1/radius from the left converges to it monotonically.
    """
    lam, q = np.linalg.eigh(hess)
    gq = q.T @ grad
    if lam[0] > 0.0:
        sigma = 0.0
    else:
        sigma = -lam[0] + np.finfo(float).eps * (abs(lam).max() + np.linalg.norm(grad) / radius)
    a = gq / (lam + sigma)
    norm_a = np.linalg.norm(a)
    if norm_a <= radius:
        if lam[0] > 0.0:
            return -q @ a
        # hard case: grad is orthogonal to the lowest eigenvector; move along it
        return -q @ a + math.sqrt(radius ** 2 - norm_a ** 2) * q[:, 0]
    for _ in range(50):
        if norm_a <= radius * (1.0 + 1e-6):
            break
        sigma += (norm_a / radius - 1.0) * norm_a ** 2 / np.sum(a * a / (lam + sigma))
        a = gq / (lam + sigma)
        norm_a = np.linalg.norm(a)
    return -q @ a


def _relative_grad_norm(point: _Expansion) -> float:
    """Largest spin's shape gradient norm over that spin's weight (at least eps).

    A spin's shape gradient scales with its weight, so this measures how far
    its packets are from converged whatever its population. As the weights sum
    to 1, the full gradient norm is at most this value.
    """
    per_spin = np.linalg.norm(point.grad[:8].reshape(2, 4), axis=1)
    return float(np.max(per_spin / np.maximum(point.spin_weights, np.finfo(float).eps)))


def _minimize(p: ModelParams, theta: np.ndarray):
    """Trust-region Newton (Nocedal & Wright, Alg. 4.1) to 0.01 tol in relative gradient.

    The target lies a hundredfold below the gate because the g2 response divides
    a leftover gradient by the curvature twice: along the flattest directions
    (curvature 2e-7 at Omega = 3, gbar2 = 0.1) a gradient at 0.3 of the gate
    moved the QFI components by 9e-4 of the total. Returns the last accepted
    (theta, expansion), converged or not. A step whose predicted energy change
    is round-off is accepted unless the energy rises beyond round-off.
    """
    target = 0.01 * GRAD_TOL_FACTOR * p.omega
    point = _expand(theta, p)
    radius = 1.0
    for _ in range(MAX_NEWTON_STEPS):
        if _relative_grad_norm(point) <= target:
            break
        grad, hess = point.grad[:8], point.hess[:8, :8]
        step = _trust_region_step(hess, grad, radius)
        trial = _expand(theta + step, p)
        predicted = -(grad @ step + 0.5 * step @ hess @ step)
        actual = point.energy - trial.energy
        noise = ROUNDOFF * (abs(point.energy) + p.omega)
        ratio = actual / predicted if predicted > noise else float(actual >= -noise)
        step_norm = np.linalg.norm(step)
        if ratio < 0.25:
            radius = 0.5 * step_norm
        elif ratio > 0.75 and step_norm >= 0.99 * radius:
            radius *= 2.0
        if ratio > 0.0:
            theta, point = theta + step, trial
    return theta, point


def _to_ansatz(theta: np.ndarray, v: np.ndarray) -> PolaronAnsatz:
    packets = [GaussianPacket(xi, m, float(w)) for (xi, m), w in zip(_unpack(theta), v)]
    return PolaronAnsatz(packets_plus=tuple(packets[:2]), packets_minus=tuple(packets[2:]),
                         n_p=2)


def variational_ground(p: ModelParams) -> MultiAnsatz:
    """Minimize the n_p = 2 variational energy; deterministic given p.

    Initialized from the adiabatic single-packet solution plus an anti-polaron
    seeded at the opposite spin's potential bottom. Raises VariationalError
    unless each spin's shape gradient norm ends below 1e-9 omega times that
    spin's weight; grad_norm reports the full shape gradient norm.
    """
    theta, point = _minimize(p, _seed_theta(p))
    relative = _relative_grad_norm(point)
    if relative > GRAD_TOL_FACTOR * p.omega:
        raise VariationalError(
            f"gradient norm {relative:.3e} relative to spin weight above "
            f"{GRAD_TOL_FACTOR * p.omega:.3e} after optimization at {p}")
    gnorm = float(np.linalg.norm(point.grad[:8]))
    return MultiAnsatz(ansatz=_to_ansatz(theta, point.weights), energy=point.energy,
                       grad_norm=gnorm)


# ---------------------------------------------------------------------------
# QFI decomposition by implicit differentiation of the optimum
# ---------------------------------------------------------------------------

def _shape_response(point: _Expansion) -> np.ndarray:
    """dtheta/dg2 = -(d2E/dtheta2)^-1 d(grad E)/dg2 over the resolved directions.

    A Hessian eigenvalue of round-off size leaves the response along its
    eigenvector undetermined. Such a direction is a gauge direction, left out
    of the solve, when psi moves along it by at most sqrt(ROUNDOFF) of the
    largest <d psi|d psi> (the shape of a packet of near-zero weight). If psi
    does move along it, the minimum is not isolated and VariationalError is
    raised.
    """
    lam, q = np.linalg.eigh(point.hess[:8, :8])
    flat = np.abs(lam) <= ROUNDOFF * np.abs(lam).max()
    moves = (np.einsum("in,ij,jn->n", q, point.metric, q)
             > math.sqrt(ROUNDOFF) * np.linalg.eigvalsh(point.metric).max())
    if np.any(flat & moves):
        raise VariationalError(
            f"Hessian eigenvalues {lam[flat & moves]} are round-off along directions "
            "that change psi: the minimum is not isolated")
    keep = ~flat
    return -q[:, keep] @ ((q[:, keep].T @ point.hess[:8, 8]) / lam[keep])


def qfi_decompose_multi(p: ModelParams, return_split: bool = False):
    """Six-term QFI decomposition for lambda = g2 at finite Omega.

    The parameter derivatives of {xi, center, weight} are exact: dtheta/dg2 from
    the implicit-function theorem at the optimum, dc/dg2 from the perturbed 4x4
    eigenproblem. Components are assembled from closed-form Gaussian
    cross-overlaps; total = sum of all six.
    """
    theta = _ansatz_theta(variational_ground(p).ansatz)
    point = _expand(theta, p)
    dtheta = _shape_response(point)
    dc = point.response[8] + dtheta @ point.response[:8]
    packets0 = _unpack(theta)
    v0 = point.weights
    dxi = np.exp(theta[0::2]) * dtheta[0::2]
    dm = dtheta[1::2]
    brackets, residual = _brackets(packets0, v0, dxi, dm, dc)
    # xi, x, rho, then the mixed xi_x, xi_rho, x_rho, counted twice
    components = {a if a == b else f"{a}_{b}": (4.0 if a == b else 8.0) * value
                  for (a, b), value in brackets.items()}
    total = sum(components.values())  # 4 <psi'|psi'>
    if abs(residual) > ROUNDOFF * math.sqrt(max(total, 0.0) / 4.0):
        raise VariationalError(
            f"<psi'|psi> residual {residual:.3e} above round-off at {p}")
    breakdown = QfiBreakdown(total=total, components=components,
                             method="multipolaron", lam="g2", lambda_value=p.g2)
    if not return_split:
        return breakdown
    split = _intra_inter_split(packets0, v0, dxi, dm, dc)
    return breakdown, split


def _brackets(packets0, v0, dxi, dm, dc):
    """All <u_i|u_j> brackets between the three derivative directions.

    u_xi = sum c dphi/dxi xidot, u_x = sum c dphi/dm mdot, u_rho = sum cdot phi,
    summed over same-spin packet pairs. Also returns the <psi'|psi> residual,
    which the normalization of psi makes round-off.
    """
    brackets = {("xi", "xi"): 0.0, ("x", "x"): 0.0, ("rho", "rho"): 0.0,
                ("xi", "x"): 0.0, ("xi", "rho"): 0.0, ("x", "rho"): 0.0}
    residual = 0.0
    for spin in range(2):
        for a in range(2):
            for b in range(2):
                ia, ib = 2 * spin + a, 2 * spin + b
                xa, ma = packets0[ia]
                xb, mb = packets0[ib]
                i_xx = gaussians.braket_dxi_dxi(xa, ma, xb, mb)
                i_mm = gaussians.braket_dm_dm(xa, ma, xb, mb)
                i_xm = gaussians.braket_dxi_dm(xa, ma, xb, mb)
                i_xp = gaussians.braket_dxi_phi(xa, ma, xb, mb)
                i_mp = gaussians.braket_dm_phi(xa, ma, xb, mb)
                ov = gaussians.overlap(xa, ma, xb, mb)
                wa_xi = v0[ia] * dxi[ia]
                wb_m = v0[ib] * dm[ib]
                brackets[("xi", "xi")] += wa_xi * v0[ib] * dxi[ib] * i_xx
                brackets[("x", "x")] += v0[ia] * dm[ia] * wb_m * i_mm
                brackets[("rho", "rho")] += dc[ia] * dc[ib] * ov
                brackets[("xi", "x")] += wa_xi * wb_m * i_xm
                brackets[("xi", "rho")] += wa_xi * dc[ib] * i_xp
                brackets[("x", "rho")] += v0[ia] * dm[ia] * dc[ib] * i_mp
                residual += (wa_xi * i_xp + v0[ia] * dm[ia] * i_mp) * v0[ib] \
                    + dc[ia] * v0[ib] * ov
    return brackets, residual


def _intra_inter_split(packets0, v0, dxi, dm, dc) -> dict:
    """Intra (a == b) vs inter (a != b) parts of the pure xi/x/rho components."""
    out = {"xi": [0.0, 0.0], "x": [0.0, 0.0], "rho": [0.0, 0.0]}
    for spin in range(2):
        for a in range(2):
            for b in range(2):
                ia, ib = 2 * spin + a, 2 * spin + b
                xa, ma = packets0[ia]
                xb, mb = packets0[ib]
                sel = 0 if a == b else 1
                out["xi"][sel] += 4.0 * v0[ia] * dxi[ia] * v0[ib] * dxi[ib] \
                    * gaussians.braket_dxi_dxi(xa, ma, xb, mb)
                out["x"][sel] += 4.0 * v0[ia] * dm[ia] * v0[ib] * dm[ib] \
                    * gaussians.braket_dm_dm(xa, ma, xb, mb)
                out["rho"][sel] += 4.0 * dc[ia] * dc[ib] \
                    * gaussians.overlap(xa, ma, xb, mb)
    return {k: {"intra": vals[0], "inter": vals[1]} for k, vals in out.items()}


def _ansatz_theta(ansatz: PolaronAnsatz) -> np.ndarray:
    packets = (*ansatz.packets_plus, *ansatz.packets_minus)
    return np.array([v for pk in packets for v in (math.log(pk.xi), pk.center)])

