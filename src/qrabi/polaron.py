"""Small-Omega analytics: adiabatic Gaussian ansatz, two-level reduction, QFI.

In the small-Omega regime each spin branch carries one Gaussian packet that
follows its potential adiabatically (xi_s = varpi_s, centered at the potential
bottom). Projecting H onto the two packets gives a 2x2 problem with diagonal
energies eps_+/- and tunneling element

    S_Omega = (Omega/2) <phi_+|phi_->,

from which spin weights c_+/-, the gap 2 sqrt(e_-^2 + S_Omega^2), and the
closed-form QFI components (squeezing xi, displacement x, weight-transfer rho)
follow. All formulas here are assembled from the general Gaussian-overlap
expressions; the per-gbar2 derivative chain is hand-derived and cross-checked
against numerical differentiation in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussians
from .model import ModelParams, derived_scales
from .qfi_ed import QfiBreakdown


@dataclass(frozen=True)
class GaussianPacket:
    """One normalized Gaussian: width parameter xi, literal position center, weight."""

    xi: float
    center: float
    weight: float


@dataclass(frozen=True)
class PolaronAnsatz:
    """Per-spin packet lists; n_p = 1 is the adiabatic small-Omega ansatz."""

    packets_plus: tuple
    packets_minus: tuple
    n_p: int

    def norm_squared(self) -> float:
        total = 0.0
        for packets in (self.packets_plus, self.packets_minus):
            for a in packets:
                for b in packets:
                    total += (a.weight * b.weight
                              * gaussians.overlap(a.xi, a.center, b.xi, b.center))
        return total


@dataclass(frozen=True)
class TwoLevelReduction:
    """Two-level projection of the adiabatic ansatz."""

    e_plus: float     # (eps_+ + eps_-)/2
    e_minus: float    # (eps_+ - eps_-)/2
    s_omega: float
    b_plus: float
    b_minus: float
    c_plus: float
    c_minus: float
    gap: float


def single_particle_energies(p: ModelParams) -> tuple[float, float]:
    """Adiabatic branch energies eps_+/- = varpi*omega/2 + d -+ epsilon - omega/2."""
    sc = derived_scales(p)
    eps_p = 0.5 * sc.varpi_plus * p.omega + sc.d_plus - p.epsilon - 0.5 * p.omega
    eps_m = 0.5 * sc.varpi_minus * p.omega + sc.d_minus + p.epsilon - 0.5 * p.omega
    return eps_p, eps_m


def s_omega_general(xi_p: float, center_p: float, xi_m: float, center_m: float,
                    Omega: float) -> float:
    """Tunneling element (Omega/2) <phi_+|phi_-> for arbitrary packets."""
    return 0.5 * Omega * gaussians.overlap(xi_p, center_p, xi_m, center_m)


def overlap_S(p: ModelParams) -> float:
    """S_Omega for the adiabatic packets (xi = varpi, centers at potential bottoms)."""
    sc = derived_scales(p)
    return s_omega_general(sc.varpi_plus, -sc.b_plus, sc.varpi_minus, sc.b_minus,
                           p.Omega)


def _weights_from_b(b_plus: float, b_minus: float) -> tuple[float, float]:
    r = math.hypot(b_plus, b_minus)
    if r == 0.0:
        # Omega = 0 at the crossing: equal weights by continuity of B = (-S, S).
        return -math.sqrt(0.5), math.sqrt(0.5)
    return b_plus / r, b_minus / r


def two_level_reduce(p: ModelParams) -> TwoLevelReduction:
    """Two-level reduction in the adiabatic basis; caller judges small-Omega validity."""
    eps_p, eps_m = single_particle_energies(p)
    e_plus = 0.5 * (eps_p + eps_m)
    e_minus = 0.5 * (eps_p - eps_m)
    s = overlap_S(p)
    r = math.hypot(e_minus, s)
    # R - e_minus without cancellation when e_minus > 0.
    if e_minus > 0:
        r_minus_e = (s * s) / (r + e_minus) if r + e_minus > 0 else 0.0
    else:
        r_minus_e = r - e_minus
    b_plus = -r_minus_e        # e_minus - sqrt(e_minus^2 + S^2)
    b_minus = s
    if s == 0.0 and e_minus < 0:
        b_plus = 2.0 * e_minus  # keep the pure spin-plus branch well defined
    c_plus, c_minus = _weights_from_b(b_plus, b_minus)
    return TwoLevelReduction(
        e_plus=e_plus, e_minus=e_minus, s_omega=s,
        b_plus=b_plus, b_minus=b_minus, c_plus=c_plus, c_minus=c_minus,
        gap=2.0 * r,
    )


def gap_analytic(p: ModelParams) -> float:
    """Two-level gap 2 sqrt(e_-^2 + S_Omega^2)."""
    return two_level_reduce(p).gap


def adiabatic_ansatz(p: ModelParams) -> PolaronAnsatz:
    """n_p = 1 ansatz: xi = varpi, packets at the potential bottoms -+ b_+/-."""
    sc = derived_scales(p)
    red = two_level_reduce(p)
    return PolaronAnsatz(
        packets_plus=(GaussianPacket(sc.varpi_plus, -sc.b_plus, red.c_plus),),
        packets_minus=(GaussianPacket(sc.varpi_minus, sc.b_minus, red.c_minus),),
        n_p=1,
    )


# ---------------------------------------------------------------------------
# Derivative chain with respect to gbar2 (dimensionless); d/dg2 = (1/gT) d/dgbar2
# ---------------------------------------------------------------------------

def _a_coupling(p: ModelParams) -> float:
    """gbar1^2 Omega written dimensionfully as 4 g1^2 / omega."""
    return 4.0 * p.g1 ** 2 / p.omega


def _e_minus_prime_bar(p: ModelParams) -> float:
    """d e_- / d gbar2 = (omega/4) w_bar/w2 + (A/4)(1 + gbar2^2)/w2^4."""
    sc = derived_scales(p)
    a = _a_coupling(p)
    return (0.25 * p.omega * sc.w_bar / sc.w2
            + 0.25 * a * (1.0 + sc.gbar2 ** 2) / sc.w2 ** 4)


def _s_omega_prime_bar(p: ModelParams) -> float:
    """d S_Omega / d gbar2 from the adiabatic closed form of S_Omega."""
    sc = derived_scales(p)
    a = _a_coupling(p)
    s = overlap_S(p)
    prefactor_term = -sc.gbar2 / (4.0 * sc.w2 ** 2) + sc.dw / (8.0 * sc.w_bar * sc.w2)
    exponent_term = -(a / p.omega) * (sc.dw * sc.w2 + 12.0 * sc.w_bar * sc.gbar2) \
        / (8.0 * sc.w_bar ** 2 * sc.w2 ** 5)
    return s * (prefactor_term + exponent_term)


def qfi_analytic(p: ModelParams) -> QfiBreakdown:
    """Closed-form small-Omega QFI for lambda = g2 with xi/x/rho components.

    F^xi  = [c_+^2/(8(1+gbar2)^2) + c_-^2/(8(1-gbar2)^2)] / gT^2
    F^x   = [c_+^2/(1+gbar2)^{7/2} + c_-^2/(1-gbar2)^{7/2}] gbar1^2 (Omega/omega) / gT^2
    F^rho = 4 (B_+' B_- - B_+ B_-')^2 / (B_+^2 + B_-^2)^2

    Mixed components vanish identically at n_p = 1 and are reported as exact
    zeros; total = xi + x + rho.
    """
    sc = derived_scales(p)
    red = two_level_reduce(p)
    inv_gt2 = 1.0 / sc.gT ** 2
    cp2, cm2 = red.c_plus ** 2, red.c_minus ** 2

    f_xi = (cp2 / (8.0 * (1.0 + sc.gbar2) ** 2)
            + cm2 / (8.0 * (1.0 - sc.gbar2) ** 2)) * inv_gt2
    f_x = (cp2 / (1.0 + sc.gbar2) ** 3.5
           + cm2 / (1.0 - sc.gbar2) ** 3.5) * (_a_coupling(p) / p.omega) * inv_gt2

    s, e = red.s_omega, red.e_minus
    if s == 0.0:
        f_rho = 0.0
    else:
        ds = _s_omega_prime_bar(p) / sc.gT
        de = _e_minus_prime_bar(p) / sc.gT
        r = math.hypot(e, s)
        if e > 0:
            r_minus_e = (s * s) / (r + e)
        else:
            r_minus_e = r - e
        bp, bm = -r_minus_e, s
        # B_+' = e' (R - e)/R - S S'/R, stable far past the crossing.
        bp_prime = de * r_minus_e / r - s * ds / r
        bm_prime = ds
        f_rho = 4.0 * (bp_prime * bm - bp * bm_prime) ** 2 / (bp ** 2 + bm ** 2) ** 2

    components = {"xi": f_xi, "x": f_x, "rho": f_rho,
                  "xi_x": 0.0, "xi_rho": 0.0, "x_rho": 0.0}
    return QfiBreakdown(total=f_xi + f_x + f_rho, components=components,
                        method="analytic", lam="g2", lambda_value=p.g2)


@dataclass(frozen=True)
class PeakComponents:
    """QFI components at the level crossing (equal spin weights c^2 = 1/2)."""

    f_xi_max: float
    f_x_max: float
    f_rho_max: float

    @property
    def total(self) -> float:
        return self.f_xi_max + self.f_x_max + self.f_rho_max


def qfi_peak_components(p: ModelParams) -> PeakComponents:
    """Peak components evaluated at the transition condition c_+^2 = c_-^2 = 1/2.

    The bias stored on p is irrelevant: the crossing is assumed tuned to this
    (gbar1, gbar2), e.g. via transition_bias. Requires Omega > 0 (the
    weight-transfer peak scales as 1/Omega^2).
    """
    if p.Omega <= 0:
        raise ValueError("qfi_peak_components requires Omega > 0")
    sc = derived_scales(p)
    inv_gt2 = 1.0 / sc.gT ** 2
    g2b = sc.gbar2
    a = _a_coupling(p)

    f_xi = (1.0 + g2b ** 2) / (8.0 * (1.0 - g2b ** 2) ** 2) * inv_gt2
    f_x = ((1.0 - g2b) ** -3.5 + (1.0 + g2b) ** -3.5) \
        * (a / (2.0 * p.omega)) * inv_gt2
    f_rho = (sc.w_bar * (sc.w2 ** 3 * sc.w_bar * p.omega + a * (1.0 + g2b ** 2)) ** 2
             / (4.0 * sc.w2 ** 8.5 * p.Omega ** 2)
             * math.exp(a / (sc.w2 ** 3 * sc.w_bar * p.omega))) * inv_gt2
    return PeakComponents(f_xi_max=f_xi, f_x_max=f_x, f_rho_max=f_rho)


# ---------------------------------------------------------------------------
# Critical-exponent extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentFit:
    """Least-squares exponent of F ~ (1 - gbar2)^(-gamma) on a window."""

    gamma: float
    stderr: float
    n_points: int
    window: tuple


def fit_critical_exponent(gbar2, values, window: tuple = (0.9, 0.99)) -> ExponentFit:
    """Fit ln F against ln(1 - gbar2) inside `window` and negate the slope."""
    gbar2 = np.asarray(gbar2, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    if not 0.0 < lo < hi < 1.0:
        raise ValueError(f"window must satisfy 0 < lo < hi < 1, got {window}")
    mask = (gbar2 >= lo) & (gbar2 <= hi)
    if int(mask.sum()) < 8:
        raise ValueError(f"need >= 8 samples inside window {window}, "
                         f"got {int(mask.sum())}")
    f = values[mask]
    if np.any(f <= 0):
        raise ValueError("all F values in the fit window must be positive")
    x, y = np.log(1.0 - gbar2[mask]), np.log(f)
    if np.amax(x) == np.amin(x):
        raise ValueError("all gbar2 in the fit window are identical")
    # Least squares with the arithmetic of scipy.stats.linregress, bit for bit.
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    stderr = np.sqrt((1 - r ** 2) * ssym / ssxm / (x.size - 2))
    return ExponentFit(gamma=-float(ssxym / ssxm), stderr=float(stderr),
                       n_points=int(mask.sum()), window=(lo, hi))


def exponent_samples(window: tuple = (0.9, 0.99), count: int = 20) -> np.ndarray:
    """Default log-spaced gbar2 samples (uniform in ln(1 - gbar2)) for fits."""
    lo, hi = window
    return 1.0 - np.exp(np.linspace(math.log(1.0 - lo), math.log(1.0 - hi), count))
