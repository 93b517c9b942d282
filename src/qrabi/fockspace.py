"""Truncated Fock-basis Hamiltonian, eigensolution, observables, cutoff control.

Basis ordering interleaves spin and photon number: index 2n for |n, +> and
2n + 1 for |n, ->. All couplings are real, so the matrix is real symmetric;
in this ordering it is banded with four sub-diagonals (the g2 two-photon
element connects indices 2n and 2n + 4).

Energies, gaps and cutoff convergence take eigenvalues alone from LAPACK.
The ground vector has one routine, `_ground_solve`: one eigenvalue-only solve
for E0 and E1, one banded Cholesky factor of H - E0 + RESPONSE_SHIFT (E1 - E0),
and shifted inverse iteration on that factor (Golub & Van Loan, Matrix
Computations, sec. 8.2), which reaches psi0 to round-off in a few steps.
`ground_state` and the ED QFI both use it; only `spectrum` asks LAPACK for
eigenvectors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import ModelParams

DEFAULT_CUTOFF_START = 16
DEFAULT_CUTOFF_CEILING = 4096
# E1 - E0 below this fraction of omega counts as a closed gap.
GAP_FLOOR_FACTOR = 1e-12
# Shift of the factored H - E0, as a fraction of the gap: each inverse-iteration
# step multiplies the error by at most RESPONSE_SHIFT / (1 + RESPONSE_SHIFT).
RESPONSE_SHIFT = 1e-3
# Twice the inverse-iteration steps that shrink an error of one to round-off at
# that rate; the first half absorbs a start vector nearly orthogonal to psi0.
INVERSE_ITERATION_CAP = 2 * math.ceil(
    math.log(np.finfo(float).eps) / math.log(RESPONSE_SHIFT / (1.0 + RESPONSE_SHIFT)))
# ||(H - E0) psi0|| at round-off, in units of machine epsilon times ||H||_inf.
# The residual settles at the error of E0 from eig_banded, up to ~3 of these
# units on random points at cutoffs up to 4096.
ROUNDOFF_RESIDUAL = 64.0


class EigensolverError(RuntimeError):
    """LAPACK failure with the offending parameters attached."""


class CutoffConvergenceError(RuntimeError):
    """Ground energy not converged below the requested tolerance at the cutoff ceiling."""


class DegenerateGroundError(RuntimeError):
    """E1 - E0 below GAP_FLOOR_FACTOR omega: psi0, (H - E0)^+ and F_Q are ill-defined."""


@dataclass(frozen=True)
class SpinorFockVector:
    """Real ground/excited eigenvector split into spin components c_n^+/-."""

    coeff_plus: np.ndarray
    coeff_minus: np.ndarray
    cutoff: int

    def norm(self) -> float:
        return math.sqrt(np.dot(self.coeff_plus, self.coeff_plus)
                         + np.dot(self.coeff_minus, self.coeff_minus))

    def interleaved(self) -> np.ndarray:
        out = np.empty(2 * (self.cutoff + 1))
        out[0::2] = self.coeff_plus
        out[1::2] = self.coeff_minus
        return out

    @classmethod
    def from_interleaved(cls, vec: np.ndarray, cutoff: int) -> "SpinorFockVector":
        return cls(coeff_plus=vec[0::2].copy(), coeff_minus=vec[1::2].copy(),
                   cutoff=cutoff)


@dataclass(frozen=True)
class SpectrumSlice:
    """Lowest-k eigenpairs at a fixed cutoff."""

    energies: np.ndarray
    vectors: tuple
    cutoff: int


def _banded_derivative(lam: str, cutoff: int) -> np.ndarray:
    """Lower-banded dH/d lam: sigma_z (a^dag + a)^2, sigma_z (a^dag + a) or -sigma_z."""
    band = np.zeros((5, 2 * (cutoff + 1)))
    n = np.arange(cutoff + 1, dtype=float)
    for s, off in ((+1.0, 0), (-1.0, 1)):
        idx = 2 * n.astype(int) + off
        if lam == "g2":
            band[0, idx] = s * (2.0 * n + 1.0)
            band[4, idx[:-2]] = s * np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
        elif lam == "g1":
            band[2, idx[:-1]] = s * np.sqrt(n[:-1] + 1.0)
        elif lam == "epsilon":
            band[0, idx] = -s
    return band


def _banded_hamiltonian(p: ModelParams, cutoff: int) -> np.ndarray:
    """Lower-banded storage (5 diagonals) for scipy.linalg.eig_banded.

    H = omega a^dag a + (Omega/2) sigma_x + sum_lam lam dH/d lam, lam in (g1, g2, epsilon).
    """
    band = (p.g2 * _banded_derivative("g2", cutoff)
            + p.g1 * _banded_derivative("g1", cutoff)
            + p.epsilon * _banded_derivative("epsilon", cutoff))
    band[0] += p.omega * np.repeat(np.arange(cutoff + 1, dtype=float), 2)
    band[1, 0::2] = 0.5 * p.Omega
    return band


def _band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Product of the symmetric matrix in lower-banded storage with x."""
    y = band[0] * x
    for k in range(1, band.shape[0]):
        y[k:] += band[k, :-k] * x[:-k]
        y[:-k] += band[k, :-k] * x[k:]
    return y


def _gauge_fix(vec: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude coefficient positive."""
    k = int(np.argmax(np.abs(vec)))
    return -vec if vec[k] < 0 else vec


def _spin_plus_weight(vec: np.ndarray) -> float:
    return float(np.dot(vec[0::2], vec[0::2]))


def _eig_banded(p: ModelParams, cutoff: int, k: int, eigvals_only: bool):
    """Lowest k eigenvalues (and vectors unless `eigvals_only`) of the banded H."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    dim = 2 * (cutoff + 1)
    if not 1 <= k <= dim:
        raise ValueError(f"k must be in [1, {dim}], got {k}")
    try:
        return scipy.linalg.eig_banded(
            _banded_hamiltonian(p, cutoff), lower=True, eigvals_only=eigvals_only,
            select="i", select_range=(0, k - 1), check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise EigensolverError(
            f"banded eigensolve failed at cutoff {cutoff} for {p}: {exc}") from exc


def spectrum(p: ModelParams, cutoff: int, k: int = 2) -> SpectrumSlice:
    """Lowest k eigenpairs; gauge-fixed signs, deterministic degeneracy ordering."""
    energies, vecs = _eig_banded(p, cutoff, k, eigvals_only=False)
    order = np.argsort(energies, kind="stable")
    energies = energies[order]
    vecs = vecs[:, order]
    # Within a degenerate group, order by descending spin-plus weight.
    tol = 1e-12 * max(p.omega, abs(p.Omega), abs(p.epsilon), 1.0)
    i = 0
    while i < k:
        j = i + 1
        while j < k and energies[j] - energies[i] < tol:
            j += 1
        if j - i > 1:
            weights = [-_spin_plus_weight(vecs[:, c]) for c in range(i, j)]
            sub = np.argsort(weights, kind="stable")
            vecs[:, i:j] = vecs[:, i + sub]
        i = j
    vectors = tuple(
        SpinorFockVector.from_interleaved(_gauge_fix(vecs[:, c]), cutoff)
        for c in range(k))
    return SpectrumSlice(energies=energies, vectors=vectors, cutoff=cutoff)


def _inverse_iteration(singular: np.ndarray, factor: np.ndarray,
                       tol: float) -> np.ndarray:
    """psi0 by inverse iteration with the factor of H - E0 + RESPONSE_SHIFT gap.

    Steps until ||(H - E0) psi|| stops shrinking (by at least half; an
    unconverged step shrinks it about a thousandfold), which is where it
    reaches round-off. Raises EigensolverError when the residual it settles
    at, or reaches after INVERSE_ITERATION_CAP steps, is above `tol`.
    """
    psi = np.random.default_rng(0).standard_normal(singular.shape[1])
    last = math.inf
    for _ in range(INVERSE_ITERATION_CAP):
        psi = scipy.linalg.cho_solve_banded((factor, True), psi, check_finite=False)
        psi /= np.linalg.norm(psi)
        residual = float(np.linalg.norm(_band_matvec(singular, psi)))
        if residual >= 0.5 * last:
            break
        last = residual
    if residual > tol:
        raise EigensolverError(
            f"inverse iteration for psi0 stopped at residual {residual:.3e} "
            f"above round-off {tol:.3e}")
    return psi


def _ground_solve(p: ModelParams, cutoff: int):
    """(E0, H - E0, Cholesky factor of H - E0 + RESPONSE_SHIFT gap, psi0).

    Both bands are lower-banded; psi0 is interleaved, unit norm, unfixed sign.
    Raises DegenerateGroundError when E1 - E0 < GAP_FLOOR_FACTOR * omega, and
    EigensolverError when the factor fails or psi0 does not reach round-off.
    """
    e0, e1 = (float(e) for e in _eig_banded(p, cutoff, 2, eigvals_only=True))
    gap = e1 - e0
    if gap < GAP_FLOOR_FACTOR * p.omega:
        raise DegenerateGroundError(
            f"gap E1 - E0 = {gap:.3e} below {GAP_FLOOR_FACTOR:g} omega at {p}, "
            f"cutoff {cutoff}: degenerate ground state")
    singular = _banded_hamiltonian(p, cutoff)
    tol = ROUNDOFF_RESIDUAL * np.finfo(float).eps * float(
        np.max(_band_matvec(np.abs(singular), np.ones(singular.shape[1]))))
    singular[0] -= e0
    shifted = singular.copy()
    shifted[0] += RESPONSE_SHIFT * gap
    try:
        factor = scipy.linalg.cholesky_banded(shifted, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"H - E0 + {RESPONSE_SHIFT:g} gap not positive definite at cutoff "
            f"{cutoff} for {p}: {exc}") from exc
    return e0, singular, factor, _inverse_iteration(singular, factor, tol)


def ground_state(p: ModelParams, cutoff: int) -> tuple[float, SpinorFockVector]:
    """E0 and the gauge-fixed ground vector, by inverse iteration (see `_ground_solve`)."""
    e0, _, _, psi = _ground_solve(p, cutoff)
    return e0, SpinorFockVector.from_interleaved(_gauge_fix(psi), cutoff)


@functools.lru_cache(maxsize=4096)
def _ground_energy(p: ModelParams, cutoff: int) -> float:
    return _eig_banded(p, cutoff, 1, eigvals_only=True)[0]


def converge_cutoff(p: ModelParams, tol: float | None = None,
                    start: int = DEFAULT_CUTOFF_START,
                    ceiling: int = DEFAULT_CUTOFF_CEILING) -> int:
    """Smallest tested N (doubling from `start`) with |E0(2N) - E0(N)| < tol.

    Raises CutoffConvergenceError past `ceiling`; near g2 -> omega/4 the Fock
    support broadens without bound, so failure is reported rather than guessed.
    """
    if tol is None:
        tol = 1e-10 * p.omega
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n = start
    e_n = _ground_energy(p, n)
    last_change = math.inf
    while 2 * n <= ceiling:
        e_2n = _ground_energy(p, 2 * n)
        last_change = abs(e_2n - e_n)
        if last_change < tol:
            return n
        n, e_n = 2 * n, e_2n
    raise CutoffConvergenceError(
        f"ground energy not converged to {tol} at cutoff ceiling {ceiling} "
        f"for {p} (last doubling change {last_change:.3e})")


@functools.lru_cache(maxsize=4096)
def default_cutoff(p: ModelParams) -> int:
    """Cutoff policy used before any QFI computation: converge E0 to 1e-10 omega."""
    return converge_cutoff(p, tol=1e-10 * p.omega)


def sigma_z(v: SpinorFockVector) -> float:
    """<sigma_z> = sum_n (c_n^+)^2 - (c_n^-)^2 for a normalized vector."""
    return float(np.dot(v.coeff_plus, v.coeff_plus)
                 - np.dot(v.coeff_minus, v.coeff_minus))


def gap_ed(p: ModelParams, cutoff: int | None = None) -> float:
    """First excitation gap E1 - E0 >= 0, from eigenvalues alone."""
    if cutoff is None:
        cutoff = default_cutoff(p)
    energies = _eig_banded(p, cutoff, 2, eigvals_only=True)
    return float(energies[1] - energies[0])
