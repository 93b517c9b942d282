"""Spin-resolved Wigner functions W_+/-(x, p) from exact eigenvectors.

    W_s(x, p) = (1/2pi) Int e^{i p y} psi_s(x + y/2) psi_s(x - y/2) dy

with psi_s(x) = sum_n c_n^s h_n(x) built from orthonormal Hermite functions by
stable upward recurrence. The y integral runs over a symmetric truncated
trapezoid grid; the result is checked to be real (the integrand is even in y
for real psi) and against an inner half-range partial sum for truncation
control.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fockspace import SpinorFockVector
from .model import ModelParams, derived_scales

BOUNDARY_AMPLITUDE = 1e-6
DEFAULT_POINTS = 256


class QuadratureError(RuntimeError):
    """Doubling the y range moved the Wigner values by more than the tolerance."""


@dataclass
class WignerGrid:
    """W_+/- sampled on a rectangular (x, p) grid, with input provenance."""

    x_axis: np.ndarray
    p_axis: np.ndarray
    values_plus: np.ndarray   # shape (len(x_axis), len(p_axis))
    values_minus: np.ndarray
    params: ModelParams | None = None
    cutoff: int | None = None
    notes: tuple = field(default_factory=tuple)

    def total_norm(self) -> float:
        dx = self.x_axis[1] - self.x_axis[0]
        dp = self.p_axis[1] - self.p_axis[0]
        return float((self.values_plus + self.values_minus).sum() * dx * dp)

    def marginal_x(self, spin: int) -> np.ndarray:
        """Int W_s dp on the grid (trapezoid)."""
        w = self.values_plus if spin > 0 else self.values_minus
        return np.trapezoid(w, self.p_axis, axis=1)


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


def _accumulate_psi(coeff: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_n c_n h_n(x) without materializing all h_n (streaming recurrence)."""
    h_prev = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    psi = coeff[0] * h_prev
    if len(coeff) == 1:
        return psi
    h_cur = math.sqrt(2.0) * x * h_prev
    psi += coeff[1] * h_cur
    for n in range(1, len(coeff) - 1):
        h_prev, h_cur = h_cur, (math.sqrt(2.0 / (n + 1)) * x * h_cur
                                - math.sqrt(n / (n + 1)) * h_prev)
        psi += coeff[n + 1] * h_cur
    return psi


def position_wavefunction(v: SpinorFockVector, x) -> tuple[np.ndarray, np.ndarray]:
    """(psi_+, psi_-) sampled on x; warns if the grid misses wavefunction support."""
    x = np.asarray(x, dtype=float)
    psi_p = _accumulate_psi(v.coeff_plus, x)
    psi_m = _accumulate_psi(v.coeff_minus, x)
    edge = max(abs(psi_p[0]), abs(psi_p[-1]), abs(psi_m[0]), abs(psi_m[-1]))
    if edge > BOUNDARY_AMPLITUDE:
        warnings.warn(
            f"wavefunction amplitude {edge:.2e} at the grid boundary exceeds "
            f"{BOUNDARY_AMPLITUDE:.0e}: grid does not cover the support",
            stacklevel=2)
    return psi_p, psi_m


def default_grid(p: ModelParams, points: int = DEFAULT_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric x and p grids wide enough for the displaced, squeezed packets."""
    sc = derived_scales(p)
    spread = 6.0 / math.sqrt(min(sc.varpi_minus, 1.0))
    half = max(6.0, 2.0 * max(abs(sc.b_plus), abs(sc.b_minus)) + spread)
    x = np.linspace(-half, half, points)
    return x, x.copy()


def wigner(v: SpinorFockVector, x_axis, p_axis, params: ModelParams | None = None,
           y_oversample: int = 4, range_tol: float = 1e-4) -> WignerGrid:
    """W_+/- on the grid by truncated trapezoid quadrature over y.

    The y grid spans twice the needed half-range so the full-range result can
    be compared against the inner half-range partial sum; a discrepancy above
    `range_tol` (relative to the peak) raises QuadratureError, since doubling
    the range would still be moving the values.
    """
    x_axis = np.asarray(x_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    if x_axis.size < 2 or p_axis.size < 2:
        raise ValueError("x and p grids need at least two points")

    half_y = 2.0 * (x_axis[-1] - x_axis[0])
    n_half = y_oversample * x_axis.size
    y = np.linspace(-half_y, half_y, 2 * n_half + 1)
    dy = y[1] - y[0]

    # psi(x_i + y_j/2); psi(x_i - y_j/2) is its reversal in j for symmetric y
    pts = x_axis[:, None] + 0.5 * y[None, :]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # boundary check done on x_axis below
        psi_p = _accumulate_psi(v.coeff_plus, pts)
        psi_m = _accumulate_psi(v.coeff_minus, pts)
    notes = []
    bp, bm = position_wavefunction(v, x_axis)
    if max(abs(bp[0]), abs(bp[-1]), abs(bm[0]), abs(bm[-1])) > BOUNDARY_AMPLITUDE:
        notes.append("x grid does not cover the wavefunction support")

    kernel = np.exp(1j * np.outer(p_axis, y))
    kernel *= dy / (2.0 * math.pi)
    kernel[:, 0] *= 0.5
    kernel[:, -1] *= 0.5
    inner = np.abs(y) <= 0.5 * half_y

    grids = []
    for psi in (psi_p, psi_m):
        prod = psi * psi[:, ::-1]
        w_full = prod @ kernel.T
        w_half = (prod * inner[None, :]) @ kernel.T
        scale = max(float(np.max(np.abs(w_full.real))), 1e-300)
        if float(np.max(np.abs(w_full - w_half))) > range_tol * scale:
            raise QuadratureError(
                "Wigner y-quadrature not converged: enlarging the y range "
                f"changes values by more than {range_tol:g} relative")
        imag_residue = float(np.max(np.abs(w_full.imag)))
        if imag_residue > 1e-10 * max(scale, 1.0):
            raise QuadratureError(
                f"imaginary residue {imag_residue:.2e} in Wigner values")
        grids.append(np.ascontiguousarray(w_full.real))

    return WignerGrid(x_axis=x_axis, p_axis=p_axis, values_plus=grids[0],
                      values_minus=grids[1], params=params, cutoff=v.cutoff,
                      notes=tuple(notes))


def amplitude_scaled(values: np.ndarray, power: float = 0.25) -> np.ndarray:
    """Display transform sign(W) |W|^power (e.g. 1/4 to amplify faint fringes).

    Output formatting only; stored WignerGrid values are never transformed.
    """
    return np.sign(values) * np.abs(values) ** power
