"""Parameter sweeps, QFI envelopes, and preparation-time integrals.

Grids are embarrassingly parallel; evaluation order is fixed by grid index so
results are bit-identical regardless of the thread count. Per-point failures
(cutoff non-convergence, a degenerate ground state, domain violations) are
recorded with their reason and leave a NaN, never aborting the rest of the grid.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import polaron
from .fockspace import (GAP_FLOOR_FACTOR, CutoffConvergenceError, DegenerateGroundError,
                        EigensolverError, _ground_energy, converge_cutoff, gap_ed,
                        ground_state, sigma_z)
from .model import CollapseBoundError, ModelParams
from .qfi_ed import qfi_ed

AXIS_NAMES = ("omega", "Omega", "g1", "g2", "epsilon", "gbar1", "gbar2")
QUANTITIES = ("sigma_z", "energy", "gap", "qfi_ed", "qfi_analytic")
POINT_ERRORS = (CollapseBoundError, CutoffConvergenceError, EigensolverError,
                DegenerateGroundError, ValueError)
PTPS_MAX_EVALS = 2000  # gap evaluations one PTPS quadrature may spend


def default_threads() -> int:
    try:
        return max(1, int(os.environ.get("QRABI_THREADS", "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class Axis:
    """One swept parameter: dimensionful name or gbar1/gbar2 shorthand."""

    name: str
    start: float
    stop: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"axis name must be one of {AXIS_NAMES}, got {self.name!r}")
        if self.count < 2:
            raise ValueError(f"axis count must be >= 2, got {self.count}")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if self.spacing == "log" and (self.start <= 0 or self.stop <= 0):
            raise ValueError("log spacing needs positive endpoints")

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


def apply_axis(base: ModelParams, name: str, value: float) -> ModelParams:
    """Base params with one axis applied; gbar axes are resolved on base scales."""
    if name == "gbar2":
        return base.replace(g2=value * base.omega / 4.0)
    if name == "gbar1":
        return base.replace(g1=value * math.sqrt(base.omega * base.Omega) / 2.0)
    return base.replace(**{name: value})


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition: one or two axes over a base parameter set."""

    axes: tuple
    base: ModelParams
    quantity: str
    lam: str = "g2"                  # QFI parameter for qfi_ed
    cutoff: int | None = None        # None: per-point convergence policy
    cutoff_tol: float | None = None
    cutoff_ceiling: int = 4096
    threads: int | None = None

    def __post_init__(self):
        if len(self.axes) not in (1, 2):
            raise ValueError("SweepSpec supports one or two axes")
        if self.cutoff is not None and self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        if self.quantity not in QUANTITIES:
            raise ValueError(f"quantity must be one of {QUANTITIES}, "
                             f"got {self.quantity!r}")
        for ax in self.axes:
            for v in (ax.start, ax.stop):
                try:
                    apply_axis(self.base, ax.name, v)
                except (CollapseBoundError, ValueError) as exc:
                    raise ValueError(
                        f"axis {ax.name} endpoint {v} outside the parameter "
                        f"domain: {exc}") from exc


@dataclass
class GridResult:
    """Rectangular sweep output with per-point failure reasons."""

    axes: tuple                      # (name, values) pairs
    values: np.ndarray
    quantity: str
    meta: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)


def _resolve_cutoff(spec: SweepSpec, p: ModelParams) -> int:
    if spec.cutoff is not None:
        return spec.cutoff
    tol = spec.cutoff_tol if spec.cutoff_tol is not None else 1e-10 * p.omega
    return converge_cutoff(p, tol=tol, ceiling=spec.cutoff_ceiling)


def _evaluate(spec: SweepSpec, p: ModelParams) -> float:
    if spec.quantity == "qfi_analytic":
        return polaron.qfi_analytic(p).total
    n = _resolve_cutoff(spec, p)
    if spec.quantity == "sigma_z":
        return sigma_z(ground_state(p, n)[1])
    if spec.quantity == "energy":
        return _ground_energy(p, n)
    if spec.quantity == "gap":
        return gap_ed(p, n)
    return qfi_ed(p, lam=spec.lam, cutoff=n).total


def _point_params(spec: SweepSpec, index: tuple) -> ModelParams:
    p = spec.base
    for ax, values, i in zip(spec.axes, [a.values() for a in spec.axes], index):
        p = apply_axis(p, ax.name, float(values[i]))
    return p


def run_sweep(spec: SweepSpec) -> GridResult:
    """Evaluate the quantity at every grid point; failures recorded, not raised."""
    axis_values = [ax.values() for ax in spec.axes]
    shape = tuple(len(v) for v in axis_values)
    indices = list(np.ndindex(*shape))

    def point(index):
        try:
            return _evaluate(spec, _point_params(spec, index)), None
        except POINT_ERRORS as exc:
            return math.nan, f"{type(exc).__name__}: {exc}"

    threads = spec.threads if spec.threads is not None else default_threads()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(point, indices))
    else:
        results = [point(i) for i in indices]

    values = np.full(shape, math.nan)
    failures = {}
    for index, (val, reason) in zip(indices, results):
        values[index] = val
        if reason is not None:
            failures[index] = reason
    meta = {
        "base": spec.base, "quantity": spec.quantity, "lam": spec.lam,
        "cutoff": spec.cutoff, "cutoff_ceiling": spec.cutoff_ceiling,
    }
    return GridResult(axes=tuple((ax.name, vals) for ax, vals in
                                 zip(spec.axes, axis_values)),
                      values=values, quantity=spec.quantity, meta=meta,
                      failures=failures)


# ---------------------------------------------------------------------------
# QFI envelope over the bias
# ---------------------------------------------------------------------------

@dataclass
class EnvelopeResult:
    """Per-g2 maximum of F_Q over the bias axis, with the located argmax."""

    g2_name: str
    g2_values: np.ndarray
    f_max: np.ndarray
    eps_star: np.ndarray
    boundary_flags: np.ndarray
    grid: GridResult


def qfi_envelope(spec: SweepSpec) -> EnvelopeResult:
    """Envelope F_Q^{eps,max}(g2) from a 2-axis (g2-like, epsilon) sweep."""
    if len(spec.axes) != 2 or spec.axes[1].name != "epsilon":
        raise ValueError("qfi_envelope needs axes (g2 or gbar2, epsilon)")
    if spec.axes[0].name not in ("g2", "gbar2"):
        raise ValueError("first envelope axis must be g2 or gbar2")
    if spec.quantity not in ("qfi_ed", "qfi_analytic"):
        raise ValueError("envelope quantity must be qfi_ed or qfi_analytic")
    grid = run_sweep(spec)
    eps_values = grid.axes[1][1]
    values = np.where(np.isnan(grid.values), -math.inf, grid.values)
    k = np.argmax(values, axis=1)
    rows = np.arange(values.shape[0])
    return EnvelopeResult(
        g2_name=grid.axes[0][0],
        g2_values=grid.axes[0][1],
        f_max=grid.values[rows, k],
        eps_star=eps_values[k],
        boundary_flags=(k == 0) | (k == len(eps_values) - 1),
        grid=grid,
    )


# ---------------------------------------------------------------------------
# Preparation time of the probe state
# ---------------------------------------------------------------------------

@dataclass
class PtpsResult:
    """T = Int_0^gbar_max 1/gap d(gbar) along a coupling ramp."""

    T: float
    coupling: str
    gbar_max: float
    samples: np.ndarray              # (gbar, 1/gap) rows, sorted by gbar
    diverged: bool = False
    diverged_at: float | None = None
    cutoff: int | None = None
    n_gap_evals: int = 0


class PtpsBudgetError(RuntimeError):
    """PTPS refinement spent PTPS_MAX_EVALS gap evaluations before converging."""


class _GapDiverged(Exception):
    def __init__(self, gbar):
        self.gbar = gbar


def _coupling_params(p: ModelParams, coupling: str, gbar: float) -> ModelParams:
    if coupling not in ("g1", "g2"):
        raise ValueError(f"coupling must be 'g1' or 'g2', got {coupling!r}")
    return apply_axis(p, "gbar1" if coupling == "g1" else "gbar2", gbar)


def locate_qfi_peak(p: ModelParams, coupling: str, scan: tuple,
                    points: int = 25, refinements: int = 2,
                    cutoff: int | None = None) -> float:
    """gbar of the F_Q(lambda=coupling) maximum by scan plus local refinement.

    Every point uses one cutoff: `cutoff`, or else the one converged at the
    largest coupling scan[1], where the Fock support is widest. Its
    CutoffConvergenceError propagates.
    """
    lo, hi = scan
    if cutoff is None:
        cutoff = converge_cutoff(_coupling_params(p, coupling, hi))
    values = {}

    def qfi(g):
        if g not in values:
            q = _coupling_params(p, coupling, g)
            try:
                values[g] = qfi_ed(q, lam=coupling, cutoff=cutoff).total
            except POINT_ERRORS:
                values[g] = -math.inf
        return values[g]

    best = None
    for _ in range(refinements + 1):
        grid = np.linspace(lo, hi, points)
        k = int(np.argmax([qfi(float(g)) for g in grid]))
        best = float(grid[k])
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, points - 1)]
    return best


def ptps(p: ModelParams, coupling: str = "g2", gbar_max: float | None = None,
         cutoff: int | None = None, rel_tol: float = 0.002,
         peak_scan: tuple | None = None, gap_fn=None) -> PtpsResult:
    """Adaptive-trapezoid PTPS integral with refinement where the gap is smallest.

    gbar_max defaults to the QFI-peak location along the ramp. A gap below
    1e-12 omega anywhere returns a diverged result (T = inf) rather than
    raising, mirroring the gap-closing pathology of the linear model. Raises
    PtpsBudgetError when the refinement needs more than PTPS_MAX_EVALS gaps.
    """
    if coupling not in ("g1", "g2"):
        raise ValueError(f"coupling must be 'g1' or 'g2', got {coupling!r}")
    if not rel_tol > 0:  # also rejects NaN
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    if gbar_max is None:
        if peak_scan is None:
            peak_scan = (0.05, 0.995) if coupling == "g2" else (0.2, 1.6)
        gbar_max = locate_qfi_peak(p, coupling, peak_scan, cutoff=cutoff)
    if gbar_max <= 0:
        raise ValueError(f"gbar_max must be positive, got {gbar_max}")

    resolved_cutoff = cutoff
    if gap_fn is None:
        if resolved_cutoff is None:
            probes = [0.0, 0.5 * gbar_max, gbar_max]
            resolved_cutoff = max(
                converge_cutoff(_coupling_params(p, coupling, g)) for g in probes)

        def gap_fn(gbar):
            return gap_ed(_coupling_params(p, coupling, gbar), resolved_cutoff)

    evals = 0
    cache = {}

    def inv_gap(gbar):
        nonlocal evals
        if gbar not in cache:
            if evals >= PTPS_MAX_EVALS:
                raise PtpsBudgetError(
                    f"PTPS refinement not converged to rel_tol {rel_tol:g} within "
                    f"the budget of {PTPS_MAX_EVALS} gap evaluations at {p}")
            evals += 1
            gap = gap_fn(gbar)
            if gap < GAP_FLOOR_FACTOR * p.omega:
                raise _GapDiverged(gbar)
            cache[gbar] = 1.0 / gap
        return cache[gbar]

    try:
        nodes = list(np.linspace(0.0, gbar_max, 17))
        segments = [(a, b, inv_gap(a), inv_gap(b))
                    for a, b in zip(nodes[:-1], nodes[1:])]
        while True:
            total = sum(0.5 * (b - a) * (fa + fb) for a, b, fa, fb in segments)
            budget = rel_tol * max(abs(total), 1e-300) / len(segments)
            refined = []
            done = True
            for a, b, fa, fb in segments:
                m = 0.5 * (a + b)
                fm = inv_gap(m)
                coarse = 0.5 * (b - a) * (fa + fb)
                fine = 0.25 * (b - a) * (fa + 2.0 * fm + fb)
                if abs(fine - coarse) > budget:
                    refined.append((a, m, fa, fm))
                    refined.append((m, b, fm, fb))
                    done = False
                else:
                    refined.append((a, b, fa, fb))
            segments = refined
            if done:
                break
        total = sum(0.5 * (b - a) * (fa + fb) for a, b, fa, fb in segments)
    except _GapDiverged as exc:
        samples = np.array(sorted(cache.items())) if cache else np.empty((0, 2))
        return PtpsResult(T=math.inf, coupling=coupling, gbar_max=gbar_max,
                          samples=samples, diverged=True, diverged_at=exc.gbar,
                          cutoff=resolved_cutoff, n_gap_evals=evals)

    samples = np.array(sorted(cache.items()))
    return PtpsResult(T=float(total), coupling=coupling, gbar_max=gbar_max,
                      samples=samples, diverged=False, cutoff=resolved_cutoff,
                      n_gap_evals=evals)


# ---------------------------------------------------------------------------
# Analytic-vs-ED comparison track
# ---------------------------------------------------------------------------

def analytic_compare(base: ModelParams, gbar2_values) -> GridResult:
    """Columns (gbar2, f_ed, f_analytic, rel_err) at the base parameters."""
    gbar2_values = np.asarray(gbar2_values, dtype=float)
    rows = np.full((gbar2_values.size, 3), math.nan)
    failures = {}
    for i, g in enumerate(gbar2_values):
        p = apply_axis(base, "gbar2", float(g))
        try:
            f_ed = qfi_ed(p, lam="g2").total
            f_an = polaron.qfi_analytic(p).total
            rows[i] = (f_ed, f_an, abs(f_an - f_ed) / abs(f_ed))
        except POINT_ERRORS as exc:
            failures[(i,)] = f"{type(exc).__name__}: {exc}"
    return GridResult(
        axes=(("gbar2", gbar2_values),),
        values=rows,
        quantity="analytic_compare",
        meta={"base": base, "columns": ("f_ed", "f_analytic", "rel_err")},
        failures=failures,
    )
