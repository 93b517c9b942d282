"""Spans and counters recorded around calls into qrabi's public functions.

The tracer wraps module attributes from outside the package: every qrabi
module that bound the same function object (for example `spectrum`, which
`qfi_ed` and `cli` import by name from `fockspace`) gets the wrapper, so
calls are seen whichever module makes them. `scipy.linalg.eig_banded`,
`scipy.linalg.solve_banded` and `scipy.optimize.minimize` are wrapped as the
eigensolver and optimizer layers. Spans (name, start, end, parent) stay in
memory and are written once, when the traced process ends.

Per-layer metrics are named `<module>.<function>.<quantity>` after the
`src/qrabi/` modules. Inclusive time counts only outermost spans of a name;
self time is a span's duration minus the time its direct children cover
(calls are sequential, so children never overlap).
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

# Per-layer metric names and units, in the order they are reported. The worker
# adds multipolaron.grad_norm_max from the gradient norms it captures on every
# variational run. Metrics computed by the traced run's probes (eigensolve cost
# at fixed cutoffs and the thread-pool speed-up) and trace.overhead_frac are
# appended by the runner.
LAYER_UNITS = {
    "fockspace.spectrum.calls": "count",
    "fockspace.spectrum.s": "s",
    "fockspace.spectrum.max_cutoff": "count",
    "fockspace.spectrum.repeat_frac": "frac",
    "fockspace.spectrum.convergence_frac": "frac",
    "fockspace.eig_banded.vec.calls": "count",
    "fockspace.eig_banded.vec.s": "s",
    "fockspace.eig_banded.val.calls": "count",
    "fockspace.eig_banded.val.s": "s",
    "fockspace.eig_banded.vec.wall_frac": "frac",
    "fockspace.vec_in_convergence_frac": "frac",
    "fockspace.converge_cutoff.calls": "count",
    "fockspace.converge_cutoff.s": "s",
    "fockspace.converge_cutoff.doublings": "count",
    "fockspace.converge_cutoff.cutoff_max": "count",
    "fockspace.gap_ed.calls": "count",
    "fockspace.gap_ed.s": "s",
    "fockspace.solve_banded.calls": "count",
    "fockspace.solve_banded.s": "s",
    "qfi_ed.qfi_ed.calls": "count",
    "qfi_ed.qfi_ed.s": "s",
    "qfi_ed.qfi_ed.self_s": "s",
    "qfi_ed.qfi_ed.call_s_p50": "s",
    "qfi_ed.qfi_ed.call_s_p90": "s",
    "qfi_ed.eigensolves_per_call": "count",
    "qfi_ed.step_shrinks": "count",
    "sweep.run_sweep.s": "s",
    "sweep.run_sweep.points": "count",
    "sweep.ptps.s": "s",
    "sweep.ptps.gap_evals": "count",
    "sweep.locate_qfi_peak.s": "s",
    "multipolaron.qfi_decompose_multi.calls": "count",
    "multipolaron.qfi_decompose_multi.s": "s",
    "multipolaron.lbfgs.calls": "count",
    "multipolaron.lbfgs.s": "s",
    "multipolaron.lbfgs.nit": "count",
    "multipolaron.lbfgs.nfev": "count",
    "multipolaron.lbfgs_frac": "frac",
    "multipolaron.grad_norm_max": "omega",
    "wigner.wigner.s": "s",
    "wigner.grid_points": "count",
    "wigner.kernel_gmac": "GMAC_computed",
    "wigner.kernel_gmac_per_s": "GMAC/s",
    "cli.main.s": "s",
    "cli.serialize.s": "s",
    "cli.serialize.bytes": "bytes",
    "cli.serialize.mb_per_s": "MB/s",
}


class Tracer:
    """In-memory spans of one traced run plus counters set by call hooks."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []           # [name, start, end, parent index or -1]
        self.counters = {}
        self.seen_spectra = set()
        self.qfi_steps = []       # (step used, default step) per qfi_ed call
        self._stack = []

    def add(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, -math.inf), value)

    def wrap(self, fn, name, hook=None):
        """`fn` recorded as a span; `name` is a string or a function of the bound args."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span_name = name if isinstance(name, str) else name(bound.arguments)
            index = len(self.spans)
            self.spans.append([span_name, time.perf_counter(), None,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if hook is not None:
                hook(self, bound.arguments, result)
            return result

        return traced

    def patch(self, module, attr: str, name, hook=None) -> None:
        """Replace `module.attr` and every qrabi re-binding of the same object."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, hook)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod is module or mod_name == "qrabi" or mod_name.startswith("qrabi."):
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)

    # -- derived per-layer metrics ------------------------------------------

    def _durations(self, name: str) -> list:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def _inclusive(self, name: str, under: str | None = None) -> float:
        total = 0.0
        for i, (n, start, end, _) in enumerate(self.spans):
            if n != name or self._has_ancestor(i, name):
                continue
            if under is not None and not self._has_ancestor(i, under):
                continue
            total += end - start
        return total

    def _count(self, name: str, under: str | None = None) -> int:
        return sum(1 for i, s in enumerate(self.spans) if s[0] == name
                   and (under is None or self._has_ancestor(i, under)))

    def _self_time(self, name: str) -> float:
        child_time = {}
        for n, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        return sum(end - start - child_time.get(i, 0.0)
                   for i, (n, start, end, _) in enumerate(self.spans) if n == name)

    def layer_metrics(self, wall_s: float) -> dict:
        """The metrics of LAYER_UNITS that come from the recorded spans and counters."""
        c = self.counters.get
        spectrum_s = self._inclusive("fockspace.spectrum")
        vec_s = self._inclusive("fockspace.eig_banded.vec")
        qfi_calls = self._count("qfi_ed.qfi_ed")
        qfi_durations = sorted(self._durations("qfi_ed.qfi_ed"))
        decompose_s = self._inclusive("multipolaron.qfi_decompose_multi")
        lbfgs_s = self._inclusive("multipolaron.lbfgs")
        wigner_s = self._inclusive("wigner.wigner")
        serialize_s = self._inclusive("cli.serialize")
        shrinks = sum(round(math.log(default / step, 4)) for step, default in self.qfi_steps)
        m = {
            "fockspace.spectrum.calls": self._count("fockspace.spectrum"),
            "fockspace.spectrum.s": spectrum_s,
            "fockspace.spectrum.max_cutoff": c("spectrum.max_cutoff", 0.0),
            "fockspace.spectrum.repeat_frac": _ratio(c("spectrum.repeats", 0.0),
                                                     self._count("fockspace.spectrum")),
            "fockspace.spectrum.convergence_frac": _ratio(
                self._inclusive("fockspace.spectrum", under="fockspace.converge_cutoff"),
                spectrum_s),
            "fockspace.eig_banded.vec.calls": self._count("fockspace.eig_banded.vec"),
            "fockspace.eig_banded.vec.s": vec_s,
            "fockspace.eig_banded.val.calls": self._count("fockspace.eig_banded.val"),
            "fockspace.eig_banded.val.s": self._inclusive("fockspace.eig_banded.val"),
            "fockspace.eig_banded.vec.wall_frac": _ratio(vec_s, wall_s),
            "fockspace.vec_in_convergence_frac": _ratio(
                self._inclusive("fockspace.eig_banded.vec", under="fockspace.converge_cutoff"),
                vec_s),
            "fockspace.converge_cutoff.calls": self._count("fockspace.converge_cutoff"),
            "fockspace.converge_cutoff.s": self._inclusive("fockspace.converge_cutoff"),
            "fockspace.converge_cutoff.doublings": c("converge.doublings", 0.0),
            "fockspace.converge_cutoff.cutoff_max": c("converge.cutoff_max", 0.0),
            "fockspace.gap_ed.calls": self._count("fockspace.gap_ed"),
            "fockspace.gap_ed.s": self._inclusive("fockspace.gap_ed"),
            "fockspace.solve_banded.calls": self._count("fockspace.solve_banded"),
            "fockspace.solve_banded.s": self._inclusive("fockspace.solve_banded"),
            "qfi_ed.qfi_ed.calls": qfi_calls,
            "qfi_ed.qfi_ed.s": self._inclusive("qfi_ed.qfi_ed"),
            "qfi_ed.qfi_ed.self_s": self._self_time("qfi_ed.qfi_ed"),
            "qfi_ed.qfi_ed.call_s_p50": _percentile(qfi_durations, 0.5),
            "qfi_ed.qfi_ed.call_s_p90": _percentile(qfi_durations, 0.9),
            "qfi_ed.eigensolves_per_call": _ratio(
                self._count("fockspace.eig_banded.vec", under="qfi_ed.qfi_ed")
                + self._count("fockspace.eig_banded.val", under="qfi_ed.qfi_ed"),
                qfi_calls),
            "qfi_ed.step_shrinks": shrinks,
            "sweep.run_sweep.s": self._inclusive("sweep.run_sweep"),
            "sweep.run_sweep.points": c("sweep.points", 0.0),
            "sweep.ptps.s": self._inclusive("sweep.ptps"),
            "sweep.ptps.gap_evals": c("ptps.gap_evals", 0.0),
            "sweep.locate_qfi_peak.s": self._inclusive("sweep.locate_qfi_peak"),
            "multipolaron.qfi_decompose_multi.calls":
                self._count("multipolaron.qfi_decompose_multi"),
            "multipolaron.qfi_decompose_multi.s": decompose_s,
            "multipolaron.lbfgs.calls": self._count("multipolaron.lbfgs"),
            "multipolaron.lbfgs.s": lbfgs_s,
            "multipolaron.lbfgs.nit": c("lbfgs.nit", 0.0),
            "multipolaron.lbfgs.nfev": c("lbfgs.nfev", 0.0),
            "multipolaron.lbfgs_frac": _ratio(lbfgs_s, decompose_s),
            "wigner.wigner.s": wigner_s,
            "wigner.grid_points": c("wigner.grid_points", 0.0),
            "wigner.kernel_gmac": c("wigner.kernel_gmac", 0.0),
            "wigner.kernel_gmac_per_s": _ratio(c("wigner.kernel_gmac", 0.0), wigner_s),
            "cli.main.s": self._inclusive("cli.main"),
            "cli.serialize.s": serialize_s,
            "cli.serialize.bytes": c("serialize.bytes", 0.0),
            "cli.serialize.mb_per_s": _ratio(c("serialize.bytes", 0.0) / 1e6, serialize_s),
        }
        return {k: float(v) for k, v in m.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1)]


# -- hooks: counters read from the arguments and results of traced calls -----

def _on_spectrum(t: Tracer, a: dict, result) -> None:
    key = (repr(a["p"]), a["cutoff"], a["k"])
    if key in t.seen_spectra:
        t.add("spectrum.repeats")
    t.seen_spectra.add(key)
    t.peak("spectrum.max_cutoff", a["cutoff"])


def _on_converge(t: Tracer, a: dict, n: int) -> None:
    t.add("converge.doublings", math.log2(n / a["start"]) + 1)
    t.peak("converge.cutoff_max", n)


def _on_qfi(qfi_module):
    def hook(t: Tracer, a: dict, br) -> None:
        default_step = getattr(qfi_module, "default_step", None)
        if a.get("step") is None and br.step and default_step is not None:
            t.qfi_steps.append((br.step, default_step(a["p"], a["lam"])))
    return hook


def _on_lbfgs(t: Tracer, a: dict, res) -> None:
    t.add("lbfgs.nit", getattr(res, "nit", 0))
    t.add("lbfgs.nfev", getattr(res, "nfev", 0))


def _on_wigner(t: Tracer, a: dict, grid) -> None:
    nx, np_ = len(grid.x_axis), len(grid.p_axis)
    ny = 2 * a["y_oversample"] * nx + 1
    t.add("wigner.grid_points", nx * np_)
    # 2 spins x (full + half y range) complex multiply-adds per (x, p, y) triple
    t.add("wigner.kernel_gmac", 2 * 2 * nx * ny * np_ / 1e9)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer in the running process."""
    import scipy.linalg
    import scipy.optimize
    from qrabi import cli, fockspace, multipolaron, qfi_ed, sweep, wigner

    tracer.patch(scipy.linalg, "eig_banded",
                 lambda a: "fockspace.eig_banded.val" if a.get("eigvals_only")
                 else "fockspace.eig_banded.vec")
    tracer.patch(scipy.linalg, "solve_banded", "fockspace.solve_banded")
    tracer.patch(scipy.optimize, "minimize", "multipolaron.lbfgs", _on_lbfgs)
    tracer.patch(fockspace, "spectrum", "fockspace.spectrum", _on_spectrum)
    tracer.patch(fockspace, "converge_cutoff", "fockspace.converge_cutoff", _on_converge)
    tracer.patch(fockspace, "gap_ed", "fockspace.gap_ed")
    tracer.patch(qfi_ed, "qfi_ed", "qfi_ed.qfi_ed", _on_qfi(qfi_ed))
    tracer.patch(sweep, "run_sweep", "sweep.run_sweep",
                 lambda t, a, grid: t.add("sweep.points",
                                          math.prod(len(v) for _, v in grid.axes)))
    tracer.patch(sweep, "ptps", "sweep.ptps",
                 lambda t, a, res: t.add("ptps.gap_evals", res.n_gap_evals))
    tracer.patch(sweep, "locate_qfi_peak", "sweep.locate_qfi_peak")
    tracer.patch(multipolaron, "qfi_decompose_multi", "multipolaron.qfi_decompose_multi")
    tracer.patch(wigner, "wigner", "wigner.wigner", _on_wigner)
    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "serialize", "cli.serialize",
                 lambda t, a, blob: t.add("serialize.bytes", len(blob)))
