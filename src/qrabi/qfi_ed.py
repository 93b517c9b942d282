"""Ground-state QFI by linear response.

The QFI is exact linear response at a fixed cutoff (the Sternheimer / DFPT
construction, Baroni et al., RMP 73, 515 (2001)). dH/d lambda is banded, so

    F_Q = 4 ||x||^2,   (H - E0) x = -Q dH/d lambda psi0,   Q = 1 - |psi0><psi0|,

with x orthogonal to psi0: x is d psi0/d lambda of the truncated problem,
and F_Q/4 is the fidelity susceptibility (You, Li & Gu, PRE 76, 022101 (2007)).
E0, psi0 and the banded Cholesky factor of H - E0 + RESPONSE_SHIFT (E1 - E0)
come from `fockspace._ground_solve`, the package's one ground-vector routine
(an eigenvalue-only solve plus shifted inverse iteration); the same factor
solves for x.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

# DegenerateGroundError is re-exported: qfi_ed raises it through _ground_solve.
from .fockspace import (DegenerateGroundError, _band_matvec, _banded_derivative,
                        _ground_solve, default_cutoff)
from .model import ModelParams

LAMBDA_NAMES = ("g2", "g1", "epsilon")
# Refinements of the response against H - E0; each multiplies the error by at
# most fockspace.RESPONSE_SHIFT / (1 + RESPONSE_SHIFT), so four reach round-off.
RESPONSE_REFINEMENTS = 4


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
    _, singular, factor, psi = _ground_solve(p, n)
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
