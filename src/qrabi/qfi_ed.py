"""Ground-state QFI by linear response.

The QFI is exact linear response at a fixed cutoff (the Sternheimer / DFPT
construction, Baroni et al., RMP 73, 515 (2001)). dH/d lambda is banded, so

    F_Q = 4 ||x||^2,   (H - E0) x = -Q dH/d lambda psi0,   Q = 1 - |psi0><psi0|,

with x orthogonal to psi0: x is d psi0/d lambda of the truncated problem,
and F_Q/4 is the fidelity susceptibility (You, Li & Gu, PRE 76, 022101 (2007)).
It takes one eigenvalue-only solve for E0 and E1 and one banded Cholesky
factor of H - E0 + RESPONSE_SHIFT (E1 - E0). Shifted inverse iteration on that
factor gives psi0 (Golub & Van Loan, Matrix Computations, sec. 8.2), and the
same factor solves for x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .fockspace import (GAP_FLOOR_FACTOR, EigensolverError, _band_matvec,
                        _banded_derivative, _banded_hamiltonian, _eig_banded,
                        default_cutoff)
from .model import ModelParams

LAMBDA_NAMES = ("g2", "g1", "epsilon")
# Shift of the factored H - E0, as a fraction of the gap: each inverse-iteration
# or refinement step multiplies the error by at most
# RESPONSE_SHIFT / (1 + RESPONSE_SHIFT), so four refinements reach round-off.
RESPONSE_SHIFT = 1e-3
RESPONSE_REFINEMENTS = 4
# Twice the inverse-iteration steps that shrink an error of one to round-off at
# that rate; the first half absorbs a start vector nearly orthogonal to psi0.
INVERSE_ITERATION_CAP = 2 * math.ceil(
    math.log(np.finfo(float).eps) / math.log(RESPONSE_SHIFT / (1.0 + RESPONSE_SHIFT)))
# ||(H - E0) psi0|| at round-off, in units of machine epsilon times ||H||_inf.
# The residual settles at the error of E0 from eig_banded, up to ~3 of these
# units on random points at cutoffs up to 4096.
ROUNDOFF_RESIDUAL = 64.0


class DegenerateGroundError(RuntimeError):
    """E1 - E0 below GAP_FLOOR_FACTOR omega: (H - E0)^+ and F_Q are ill-defined."""


@dataclass
class QfiBreakdown:
    """Total QFI with per-resource components and provenance.

    Units are 1/[lambda]^2 for the dimensionful parameter lambda. For
    method="analytic" the mixed components are exact zeros and
    total = xi + x + rho. `step` is always None: no method takes a
    finite-difference step any more, and the field is kept only because
    perfbench/tracer.py reads it.
    """

    total: float
    components: dict = field(default_factory=dict)
    method: str = "ED"
    lam: str = "g2"
    step: float | None = None
    lambda_value: float | None = None
    cutoff: int | None = None


def _lambda_value(p: ModelParams, lam: str) -> float:
    if lam not in LAMBDA_NAMES:
        raise ValueError(f"lambda must be one of {LAMBDA_NAMES}, got {lam!r}")
    return getattr(p, lam)


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


def _response(singular: np.ndarray, factor: np.ndarray, psi: np.ndarray,
              rhs: np.ndarray) -> np.ndarray:
    """x orthogonal to psi with (H - E0) x = rhs, for rhs orthogonal to psi.

    H - E0 (`singular`) is singular (psi spans its null space), so it is not
    factored directly: the shifted matrix is, and the solution is refined
    against H - E0 with psi projected out after each step.
    """
    x = np.zeros_like(rhs)
    for _ in range(RESPONSE_REFINEMENTS + 1):
        x += scipy.linalg.cho_solve_banded((factor, True),
                                           rhs - _band_matvec(singular, x),
                                           check_finite=False)
        x -= psi * (psi @ x)
    return x


def qfi_ed(p: ModelParams, lam: str = "g2",
           cutoff: int | None = None) -> QfiBreakdown:
    """F_Q(lambda = p.<lam>) by linear response; one eigenvalue solve at one cutoff.

    Raises DegenerateGroundError when E1 - E0 < GAP_FLOOR_FACTOR * omega, and
    EigensolverError when psi0 does not converge to round-off.
    """
    value = _lambda_value(p, lam)
    n = default_cutoff(p) if cutoff is None else cutoff
    e0, e1 = (float(e) for e in _eig_banded(p, n, 2, eigvals_only=True))
    gap = e1 - e0
    if gap < GAP_FLOOR_FACTOR * p.omega:
        raise DegenerateGroundError(
            f"gap E1 - E0 = {gap:.3e} below {GAP_FLOOR_FACTOR:g} omega at {p}, "
            f"cutoff {n}: degenerate ground state, F_Q({lam}) undefined")
    singular = _banded_hamiltonian(p, n)
    tol = ROUNDOFF_RESIDUAL * np.finfo(float).eps * float(
        np.max(_band_matvec(np.abs(singular), np.ones(singular.shape[1]))))
    singular[0] -= e0
    shifted = singular.copy()
    shifted[0] += RESPONSE_SHIFT * gap
    factor = scipy.linalg.cholesky_banded(shifted, lower=True, check_finite=False)
    psi = _inverse_iteration(singular, factor, tol)
    dh_psi = _band_matvec(_banded_derivative(lam, n), psi)
    x = _response(singular, factor, psi, psi * (psi @ dh_psi) - dh_psi)
    return QfiBreakdown(total=4.0 * float(x @ x), method="ED", lam=lam,
                        lambda_value=value, cutoff=n)


@dataclass
class BiasPeak:
    """Envelope maximum of F_Q over a bias grid."""

    eps_star: float
    f_max: float
    eps_grid: np.ndarray
    f_values: np.ndarray
    boundary_warning: bool


def qfi_peak_over_bias(p: ModelParams, eps_grid, lam: str = "g2",
                       cutoff: int | None = None) -> BiasPeak:
    """Maximum of F_Q(lam) over the bias grid; flags an argmax on the boundary."""
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.ndim != 1 or eps_grid.size < 2:
        raise ValueError("eps_grid must be a 1-D grid with at least two points")
    values = np.array([
        qfi_ed(p.replace(epsilon=float(e)), lam=lam, cutoff=cutoff).total
        for e in eps_grid])
    k = int(np.argmax(values))
    return BiasPeak(
        eps_star=float(eps_grid[k]),
        f_max=float(values[k]),
        eps_grid=eps_grid,
        f_values=values,
        boundary_warning=(k == 0 or k == eps_grid.size - 1),
    )
