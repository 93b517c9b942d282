"""The benchmark's workloads and their seeded inputs.

Seed 0 gives the grids below exactly. Any other seed translates each grid
axis by a random fraction (at most SHIFT_FRACTION) of one grid step, so the
work per point stays the same while the inputs change. Axes whose cost grows
towards one end only ever move away from it: gbar2 near 1 and large gbar1 at
low frequency (Fock cutoff towards the ceiling), and gbar2 below 0.1 in
the variational grid. The variational optimizer's path changes with its
input: a shift of a few per cent of a gbar2 step changes which points need a
re-seed, and at some seeds a point fails (it is counted as a failed point),
so that workload's wall time moves with the seed by up to 50 %.

Why each workload is in the benchmark:

- ed_qfi: README `qfi-envelope` (3 x 13 bias slice of the 3 x 61 example)
  and the README `ptps` example. Moderate-cutoff ED where cutoff convergence
  and the finite-difference QFI stencil share the eigensolve time.
- lowfreq_phase: a 4 x 3 slice of the README low-frequency `phase-diagram`
  (omega/Omega = 0.01). Converged cutoffs reach 512, so convergence solves
  reach 1024, where eigenvector cost dominates and no QFI runs.
- variational: `multipolaron.qfi_decompose_multi` on a 4 x 4 (Omega, gbar2)
  grid. Finite-Omega QFI that touches no Fock ED; only optimizer work moves it.
- wigner_csv: README `wigner` example, 256 x 256 points written as CSV. The
  only workload with Wigner quadrature and bulk serialization.

The last two are not timed by BENCHMARK.json: on a shared 2-core host their
wall time spread too much between runs to carry a bound (quartile spread
0.19 of the median over ten 30 s runs for variational, 0.15 over ten 15 s
runs for wigner_csv, where at most 0.083 fits the largest bound of 0.25).
Every traced run measures their layers instead (see run.py), and
`run.py --workload variational|wigner_csv` still times them.
"""

from __future__ import annotations

import random

SHIFT_FRACTION = 0.02
NAMES = ("ed_qfi", "lowfreq_phase", "variational", "wigner_csv")


class Axis:
    """A linear grid axis start..stop with count points."""

    def __init__(self, start: float, stop: float, count: int):
        self.start, self.stop, self.count = start, stop, count

    @property
    def step(self) -> float:
        return (self.stop - self.start) / (self.count - 1)

    def shifted(self, fraction: float) -> "Axis":
        delta = fraction * self.step
        return Axis(self.start + delta, self.stop + delta, self.count)

    def values(self) -> list:
        """Same points as numpy.linspace(start, stop, count)."""
        return [self.start + i * self.step for i in range(self.count - 1)] + [self.stop]


def _num(x: float) -> str:
    return repr(float(x))


def make_inputs(name: str, seed: int) -> dict:
    """Generated inputs of one workload: CLI argument lists or library points."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    rng = random.Random(f"{name}:{seed}")

    def axis(start, stop, count, direction):
        """Axis shifted down (direction -1), up (+1) or either way (0)."""
        a = Axis(start, stop, count)
        if seed == 0:
            return a
        u = rng.random()
        return a.shifted(SHIFT_FRACTION * (direction * u if direction else 2.0 * u - 1.0))

    if name == "ed_qfi":
        gbar2 = axis(0.95, 0.99, 3, direction=-1)
        eps = axis(0.30, 0.36, 13, direction=0)
        envelope = ["qfi-envelope", "--Omega", "0.01", "--g1", "1.0gs",
                    "--gbar2-start", _num(gbar2.start), "--gbar2-stop", _num(gbar2.stop),
                    "--gbar2-count", str(gbar2.count),
                    "--eps-start", _num(eps.start), "--eps-stop", _num(eps.stop),
                    "--eps-count", str(eps.count), "-o", "envelope.csv"]
        # The PTPS ramp has no grid input; its converged cutoff jumps between 256
        # and 512 under small bias shifts, so it runs the README example at every seed.
        ptps = ["ptps", "--Omega", "0.01", "--g1", "0.1gs", "--epsilon", "0.33",
                "--coupling", "g2", "-o", "ptps.csv"]
        grid = {"Omega": 0.01, "gbar1": 1.0,
                "gbar2": [gbar2.start, gbar2.stop, gbar2.count],
                "epsilon": [eps.start, eps.stop, eps.count]}
        return {"cli": [envelope, ptps], "grid": grid, "eps_step": eps.step,
                "points": gbar2.count * eps.count + 1}
    if name == "lowfreq_phase":
        x = axis(0.85, 1.6, 4, direction=-1)
        y = axis(0.35, 0.55, 3, direction=-1)
        phase = ["phase-diagram", "--omega", "0.01", "--Omega", "1", "--epsilon", "0.0033",
                 "--x-start", _num(x.start), "--x-stop", _num(x.stop),
                 "--x-count", str(x.count),
                 "--y-start", _num(y.start), "--y-stop", _num(y.stop),
                 "--y-count", str(y.count), "-o", "phase.csv"]
        return {"cli": [phase], "points": x.count * y.count}
    if name == "variational":
        gbar2 = axis(0.1, 0.9, 4, direction=+1)
        points = [{"omega": 1.0, "Omega": Omega, "gbar1": 0.5, "gbar2": g, "epsilon": 0.0}
                  for Omega in (0.1, 0.3, 1.0, 3.0) for g in gbar2.values()]
        return {"library": points, "points": len(points)}
    # wigner_csv: no grid axis in the input, so the shift applies to g2 itself,
    # in units of a 0.001 gT step.
    g2 = 0.9942 - (0.0 if seed == 0 else rng.random() * SHIFT_FRACTION * 0.001)
    wig = ["wigner", "--Omega", "1", "--g2", f"{g2!r}gT", "--points", "256",
           "--display-scale", "quarter", "-o", "wigner.csv"]
    return {"cli": [wig], "points": 1}
