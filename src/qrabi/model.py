"""Model parameters, derived scales, effective potentials, and transition locators.

The Hamiltonian is

    H = omega a^dag a + (Omega/2) sigma_x + g1 sigma_z (a^dag + a)
        + g2 sigma_z (a^dag + a)^2 - epsilon sigma_z

with the nonlinear coupling restricted to 0 <= g2 < omega/4: at g2 = omega/4
the spin-down harmonic branch inverts and the spectrum is unbounded below.

In the position representation each spin branch sees

    v_s(x) = (omega/2) varpi_s^2 (x + s*b_s)^2 + d_s - s*epsilon - omega/2,

with s = +/-1, varpi_s = sqrt(1 + s*g2/gT), b_s = g1' / (1 + s*gbar2),
d_s = -g1^2 / (omega (1 + s*gbar2)), g1' = sqrt(2) g1 / omega.

Dimensionless couplings: gbar2 = g2/gT with gT = omega/4, and
gbar1 = g1/gs with gs = sqrt(omega*Omega)/2 (equivalently 2 g1/sqrt(omega*Omega)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


class CollapseBoundError(ValueError):
    """Nonlinear coupling at or beyond the spectral-collapse point omega/4."""


class NoTransitionError(ValueError):
    """No coupling-driven level crossing exists at the requested (epsilon, gbar2)."""


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters, all in energy units set by omega."""

    omega: float
    Omega: float = 0.0
    g1: float = 0.0
    g2: float = 0.0
    epsilon: float = 0.0

    def __post_init__(self):
        for name in ("omega", "Omega", "g1", "g2", "epsilon"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.Omega < 0:
            raise ValueError(f"Omega must be non-negative, got {self.Omega}")
        if self.g2 < 0:
            raise CollapseBoundError(
                f"g2 must be non-negative, got {self.g2}"
            )
        if self.g2 >= self.omega / 4.0:
            raise CollapseBoundError(
                f"g2 = {self.g2} at or beyond the collapse bound omega/4 = {self.omega / 4.0}"
            )

    def replace(self, **changes) -> "ModelParams":
        return replace(self, **changes)

    @classmethod
    def from_dimensionless(cls, omega: float, Omega: float, gbar1: float = 0.0,
                           gbar2: float = 0.0, epsilon: float = 0.0) -> "ModelParams":
        """Build from gbar1 = g1/gs and gbar2 = g2/gT."""
        gs = math.sqrt(omega * Omega) / 2.0
        gt = omega / 4.0
        return cls(omega=omega, Omega=Omega, g1=gbar1 * gs, g2=gbar2 * gt,
                   epsilon=epsilon)


@dataclass(frozen=True)
class DerivedScales:
    """Coupling scales and potential parameters derived from ModelParams."""

    gT: float
    gs: float
    gbar1: float
    gbar2: float
    g1prime: float
    varpi_plus: float
    varpi_minus: float
    b_plus: float
    b_minus: float
    d_plus: float
    d_minus: float
    w_bar: float      # (varpi_plus + varpi_minus) / 2
    dw: float         # varpi_plus - varpi_minus
    w2: float         # varpi_plus * varpi_minus


def derived_scales(p: ModelParams) -> DerivedScales:
    """All derived scales for valid parameters; pure and deterministic."""
    gt = p.omega / 4.0
    gs = math.sqrt(p.omega * p.Omega) / 2.0
    gbar2 = p.g2 / gt
    if p.g1 == 0.0:
        gbar1 = 0.0
    elif gs > 0.0:
        gbar1 = p.g1 / gs
    else:
        gbar1 = math.inf if p.g1 > 0 else -math.inf
    g1prime = math.sqrt(2.0) * p.g1 / p.omega
    vp = math.sqrt(1.0 + gbar2)
    vm = math.sqrt(1.0 - gbar2)
    b_plus = g1prime / (1.0 + gbar2)
    b_minus = g1prime / (1.0 - gbar2)
    # d_pm = -gbar1^2 Omega / (4 (1 +- gbar2)); written with gbar1^2 Omega = 4 g1^2/omega
    # so the Omega = 0 case stays finite.
    d_plus = -p.g1 ** 2 / (p.omega * (1.0 + gbar2))
    d_minus = -p.g1 ** 2 / (p.omega * (1.0 - gbar2))
    return DerivedScales(
        gT=gt, gs=gs, gbar1=gbar1, gbar2=gbar2, g1prime=g1prime,
        varpi_plus=vp, varpi_minus=vm, b_plus=b_plus, b_minus=b_minus,
        d_plus=d_plus, d_minus=d_minus,
        w_bar=0.5 * (vp + vm), dw=vp - vm, w2=vp * vm,
    )


def _check_spin(spin: int) -> int:
    if spin not in (+1, -1):
        raise ValueError(f"spin must be +1 or -1, got {spin!r}")
    return spin


def effective_potential(p: ModelParams, spin: int, x):
    """Spin-branch potential v_s(x) in completed-square form; x may be an array."""
    s = _check_spin(spin)
    sc = derived_scales(p)
    if s > 0:
        varpi, b, d = sc.varpi_plus, sc.b_plus, sc.d_plus
    else:
        varpi, b, d = sc.varpi_minus, sc.b_minus, sc.d_minus
    return 0.5 * p.omega * varpi ** 2 * (x + s * b) ** 2 + d - s * p.epsilon - 0.5 * p.omega


def transition_bias(p: ModelParams) -> float:
    """Bias epsilon_max putting the level crossing at this (gbar1, gbar2).

    epsilon_max = (omega/4)(sqrt(1+gbar2) - sqrt(1-gbar2))
                  + gbar1^2 gbar2 Omega / (4 (1 - gbar2^2)),
    evaluated with gbar1^2 Omega = 4 g1^2 / omega so Omega = 0 is well defined.
    Any epsilon stored on p is ignored.
    """
    sc = derived_scales(p)
    base = 0.25 * p.omega * (sc.varpi_plus - sc.varpi_minus)
    corr = p.g1 ** 2 * sc.gbar2 / (p.omega * (1.0 - sc.gbar2 ** 2))
    return base + corr


def transition_g1(p: ModelParams) -> float:
    """Dimensionless gbar1_max putting the crossing at (p.epsilon, gbar2).

    Inverse of transition_bias in gbar1; requires Omega > 0, gbar2 > 0, and
    epsilon at or above the gbar1 = 0 threshold.
    """
    sc = derived_scales(p)
    if p.Omega <= 0:
        raise NoTransitionError("transition_g1 requires Omega > 0")
    if sc.gbar2 <= 0:
        raise NoTransitionError("transition_g1 requires gbar2 > 0")
    bracket = p.epsilon - 0.25 * p.omega * (sc.varpi_plus - sc.varpi_minus)
    radicand = 4.0 * (1.0 - sc.gbar2 ** 2) * bracket / (sc.gbar2 * p.Omega)
    if radicand < 0:
        raise NoTransitionError(
            f"no transition at epsilon = {p.epsilon}, gbar2 = {sc.gbar2}: "
            "bias below the gbar1 = 0 threshold"
        )
    return math.sqrt(radicand)


def low_freq_boundary(gbar2: float, epsilon: float, Omega: float) -> float:
    """Low-frequency-limit transition boundary gbar1c = (1 + eps/(gbar2 Omega)) sqrt(1-gbar2^2)."""
    if not 0.0 < gbar2 < 1.0:
        raise ValueError(f"low_freq_boundary requires gbar2 in (0, 1), got {gbar2}")
    if Omega <= 0:
        raise ValueError(f"low_freq_boundary requires Omega > 0, got {Omega}")
    return (1.0 + epsilon / (gbar2 * Omega)) * math.sqrt(1.0 - gbar2 ** 2)
