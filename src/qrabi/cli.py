"""Command-line front end: runs computations and serializes results to CSV/JSON.

Conventions: energies are quoted in units of omega (default omega = 1), and
the couplings accept unit suffixes, e.g. ``--g1 0.5gs`` for g1 = 0.5 gs with
gs = sqrt(omega Omega)/2, and ``--g2 0.998gT`` for g2 = 0.998 omega/4. Every
output file embeds the full input configuration and the tool version, so a
run is reproducible from its header alone; no timestamps, identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import polaron, wigner
from .fockspace import default_cutoff, gap_ed, ground_state, sigma_z, spectrum
from .model import ModelParams, derived_scales
from .qfi_ed import qfi_ed
from .sweep import (Axis, SweepSpec, analytic_compare, apply_axis, ptps,
                    qfi_envelope, run_sweep)

USAGE_EXIT = 2
FAILURE_EXIT = 1


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation; round-trips losslessly through to_dict/from_dict."""

    subcommand: str
    options: tuple  # sorted (key, value) pairs, all JSON-scalar

    def to_dict(self) -> dict:
        return {"subcommand": self.subcommand, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        return cls(subcommand=d["subcommand"],
                   options=tuple(sorted(d["options"].items())))

    @classmethod
    def from_namespace(cls, ns: argparse.Namespace) -> "RunConfig":
        options = {k: v for k, v in vars(ns).items()
                   if k not in ("func", "subcommand")}
        return cls(subcommand=ns.subcommand, options=tuple(sorted(options.items())))


def parse_coupling(text: str, omega: float, Omega: float) -> float:
    """Plain number (units of omega) or a number with a gs/gT suffix."""
    t = text.strip()
    if t.endswith("gs"):
        return float(t[:-2]) * math.sqrt(omega * Omega) / 2.0
    if t.endswith("gT"):
        return float(t[:-2]) * omega / 4.0
    return float(t)


def params_from_options(opts: dict) -> ModelParams:
    omega = float(opts["omega"])
    Omega = float(opts["Omega"])
    return ModelParams(
        omega=omega, Omega=Omega,
        g1=parse_coupling(str(opts["g1"]), omega, Omega),
        g2=parse_coupling(str(opts["g2"]), omega, Omega),
        epsilon=float(opts["epsilon"]),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, ModelParams):
        return {"omega": obj.omega, "Omega": obj.Omega, "g1": obj.g1,
                "g2": obj.g2, "epsilon": obj.epsilon}
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def serialize(columns: list, rows: list, meta: dict, fmt: str) -> bytes:
    """Tabular result: column names plus rows, with the meta header embedded.

    CSV: `# key: json` comment lines, a header row, one record per point,
    missing values as empty fields. JSON: one object with `meta` and `data`.
    """
    if fmt == "json":
        data = {"columns": columns,
                "rows": [[None if (isinstance(v, float) and math.isnan(v)) else v
                          for v in row] for row in rows]}
        payload = {"meta": meta, "data": data}
        return (json.dumps(payload, default=_json_default, sort_keys=True,
                           indent=1) + "\n").encode()
    lines = [f"# {k}: {json.dumps(v, default=_json_default, sort_keys=True)}"
             for k, v in sorted(meta.items())]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(
            "" if (isinstance(v, float) and math.isnan(v)) else _fmt(v)
            for v in row))
    return ("\n".join(lines) + "\n").encode()


def _write(ns: argparse.Namespace, columns, rows, meta) -> str:
    cfg = RunConfig.from_namespace(ns)
    meta = {"tool": "qrabi", "version": __version__, "config": cfg.to_dict(),
            **meta}
    path = ns.output if ns.output else f"{ns.subcommand}.{ns.format}"
    blob = serialize(columns, rows, meta, ns.format)
    with open(path, "wb") as fh:
        fh.write(blob)
    return path


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _resolved_cutoff(ns, p) -> int:
    return ns.cutoff if getattr(ns, "cutoff", None) else default_cutoff(p)


def cmd_ground_state(ns) -> str:
    p = params_from_options(vars(ns))
    n = _resolved_cutoff(ns, p)
    sl = spectrum(p, n, k=ns.levels)
    sz = sigma_z(sl.vectors[0])
    columns = ["level", "energy"]
    rows = [[i, float(e)] for i, e in enumerate(sl.energies)]
    return _write(ns, columns, rows,
                  {"params": p, "cutoff": n, "sigma_z": sz})


def cmd_gap(ns) -> str:
    p = params_from_options(vars(ns))
    n = _resolved_cutoff(ns, p)
    value = gap_ed(p, n)
    return _write(ns, ["gap"], [[value]], {"params": p, "cutoff": n})


_RESCALE = {"g2": lambda sc, p: sc.gT ** 2, "g1": lambda sc, p: sc.gs ** 2,
            "epsilon": lambda sc, p: p.omega ** 2}


def cmd_qfi(ns) -> str:
    p = params_from_options(vars(ns))
    br = qfi_ed(p, lam=ns.lam, cutoff=ns.cutoff or None)
    sc = derived_scales(p)
    rescaled = br.total * _RESCALE[ns.lam](sc, p)
    columns = ["f_q", "f_q_rescaled"]
    meta = {"params": p, "lambda": br.lam, "lambda_value": br.lambda_value,
            "cutoff": br.cutoff,
            "rescale_note": "f_q_rescaled = f_q times the squared coupling scale"}
    return _write(ns, columns, [[br.total, rescaled]], meta)


def _axis_from(ns, prefix: str) -> Axis:
    return Axis(name=getattr(ns, f"{prefix}_axis"),
                start=getattr(ns, f"{prefix}_start"),
                stop=getattr(ns, f"{prefix}_stop"),
                count=getattr(ns, f"{prefix}_count"),
                spacing=getattr(ns, f"{prefix}_spacing"))


def _grid_rows(grid) -> tuple:
    names = [name for name, _ in grid.axes]
    value_cols = list(grid.meta.get("columns", (grid.quantity,)))
    columns = names + value_cols
    rows = []
    for index in np.ndindex(*grid.values.shape[: len(grid.axes)]):
        coords = [float(grid.axes[d][1][i]) for d, i in enumerate(index)]
        val = grid.values[index]
        vals = [float(v) for v in np.atleast_1d(val)]
        rows.append(coords + vals)
    return columns, rows


def cmd_qfi_curve(ns) -> str:
    p = params_from_options(vars(ns))
    quantity = "qfi_ed" if ns.method == "ed" else "qfi_analytic"
    spec = SweepSpec(axes=(_axis_from(ns, "x"),), base=p, quantity=quantity,
                     lam=ns.lam, cutoff=ns.cutoff or None, threads=ns.threads)
    grid = run_sweep(spec)
    columns, rows = _grid_rows(grid)
    return _write(ns, columns, rows,
                  {"params": p, "failures": _failure_list(grid)})


def cmd_phase_diagram(ns) -> str:
    p = params_from_options(vars(ns))
    spec = SweepSpec(axes=(_axis_from(ns, "x"), _axis_from(ns, "y")), base=p,
                     quantity=ns.quantity, lam=ns.lam, cutoff=ns.cutoff or None,
                     threads=ns.threads)
    grid = run_sweep(spec)
    columns, rows = _grid_rows(grid)
    return _write(ns, columns, rows,
                  {"params": p, "failures": _failure_list(grid)})


def _failure_list(grid) -> list:
    return [{"index": list(k), "reason": v} for k, v in sorted(grid.failures.items())]


def cmd_qfi_envelope(ns) -> str:
    p = params_from_options(vars(ns))
    spec = SweepSpec(
        axes=(Axis("gbar2", ns.gbar2_start, ns.gbar2_stop, ns.gbar2_count),
              Axis("epsilon", ns.eps_start, ns.eps_stop, ns.eps_count)),
        base=p, quantity="qfi_ed", lam="g2", cutoff=ns.cutoff or None,
        threads=ns.threads)
    env = qfi_envelope(spec)
    columns = ["gbar2", "f_max", "eps_star", "boundary_argmax"]
    rows = [[float(g), float(f), float(e), bool(b)]
            for g, f, e, b in zip(env.g2_values, env.f_max, env.eps_star,
                                  env.boundary_flags)]
    return _write(ns, columns, rows,
                  {"params": p, "failures": _failure_list(env.grid)})


def cmd_analytic_compare(ns) -> str:
    p = params_from_options(vars(ns))
    grid = analytic_compare(p, np.linspace(ns.gbar2_start, ns.gbar2_stop,
                                           ns.gbar2_count))
    columns, rows = _grid_rows(grid)
    finite = grid.values[~np.isnan(grid.values[:, 2]), 2]
    meta = {"params": p, "max_rel_err": float(finite.max()) if finite.size else None,
            "failures": _failure_list(grid)}
    return _write(ns, columns, rows, meta)


def cmd_wigner(ns) -> str:
    p = params_from_options(vars(ns))
    n = _resolved_cutoff(ns, p)
    _, vec = ground_state(p, n)
    if ns.half_width:
        x = np.linspace(-ns.half_width, ns.half_width, ns.points)
        pax = x.copy()
    else:
        x, pax = wigner.default_grid(p, ns.points)
    grid = wigner.wigner(vec, x, pax, params=p)
    columns = ["x", "p", "w_plus", "w_minus"]
    scaled = ns.display_scale == "quarter"
    if scaled:
        columns += ["w_plus_display", "w_minus_display"]
        dp = wigner.amplitude_scaled(grid.values_plus)
        dm = wigner.amplitude_scaled(grid.values_minus)
    rows = []
    for i, xv in enumerate(grid.x_axis):
        for j, pv in enumerate(grid.p_axis):
            row = [float(xv), float(pv), float(grid.values_plus[i, j]),
                   float(grid.values_minus[i, j])]
            if scaled:
                row += [float(dp[i, j]), float(dm[i, j])]
            rows.append(row)
    meta = {"params": p, "cutoff": n, "total_norm": grid.total_norm(),
            "notes": list(grid.notes)}
    return _write(ns, columns, rows, meta)


def cmd_ptps(ns) -> str:
    p = params_from_options(vars(ns))
    result = ptps(p, coupling=ns.coupling, gbar_max=ns.gbar_max,
                  cutoff=ns.cutoff or None, rel_tol=ns.rel_tol)
    columns = ["gbar", "inv_gap"]
    rows = [[float(g), float(v)] for g, v in result.samples]
    meta = {"params": p, "T": result.T, "coupling": result.coupling,
            "gbar_max": result.gbar_max, "diverged": result.diverged,
            "diverged_at": result.diverged_at, "cutoff": result.cutoff,
            "n_gap_evals": result.n_gap_evals}
    return _write(ns, columns, rows, meta)


def cmd_fit_exponent(ns) -> str:
    p = params_from_options(vars(ns))
    window = (ns.window_lo, ns.window_hi)
    gbar2 = polaron.exponent_samples(window, ns.samples)
    values = []
    for g in gbar2:
        q = apply_axis(p, "gbar2", float(g))
        if ns.method == "ed":
            values.append(qfi_ed(q, lam="g2", cutoff=ns.cutoff or None).total)
        else:
            br = polaron.qfi_analytic(q)
            values.append(br.total if ns.component == "total"
                          else br.components[ns.component])
    fit = polaron.fit_critical_exponent(gbar2, values, window)
    columns = ["gbar2", "f_q"]
    rows = [[float(g), float(v)] for g, v in zip(gbar2, values)]
    meta = {"params": p, "gamma": fit.gamma, "stderr": fit.stderr,
            "window": list(window), "component": ns.component,
            "method": ns.method}
    return _write(ns, columns, rows, meta)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--omega", type=float, default=1.0,
                     help="boson frequency (sets the energy unit; default 1)")
    sub.add_argument("--Omega", type=float, default=0.0,
                     help="qubit splitting, in units of omega")
    sub.add_argument("--g1", default="0",
                     help="linear coupling; plain number or e.g. 0.5gs")
    sub.add_argument("--g2", default="0",
                     help="nonlinear coupling; plain number or e.g. 0.9gT")
    sub.add_argument("--epsilon", type=float, default=0.0, help="bias field")
    sub.add_argument("--cutoff", type=int, default=0,
                     help="Fock cutoff override (0: convergence policy)")
    sub.add_argument("--threads", type=int, default=None,
                     help="grid worker threads (default: QRABI_THREADS or 1)")
    sub.add_argument("-o", "--output", default=None,
                     help="output path (default: <subcommand>.<format>)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_axis(sub, prefix: str, default_axis: str):
    sub.add_argument(f"--{prefix}-axis", dest=f"{prefix}_axis", default=default_axis)
    sub.add_argument(f"--{prefix}-start", dest=f"{prefix}_start", type=float,
                     required=True)
    sub.add_argument(f"--{prefix}-stop", dest=f"{prefix}_stop", type=float,
                     required=True)
    sub.add_argument(f"--{prefix}-count", dest=f"{prefix}_count", type=int,
                     required=True)
    sub.add_argument(f"--{prefix}-spacing", dest=f"{prefix}_spacing",
                     choices=("linear", "log"), default="linear")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrabi",
        description="Biased linear+nonlinear quantum Rabi model: ground states, "
                    "QFI, phase diagrams, Wigner functions, preparation times.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    s = subs.add_parser("ground-state", help="lowest eigenpairs and <sigma_z>")
    _add_common(s)
    s.add_argument("--levels", type=int, default=2)
    s.set_defaults(func=cmd_ground_state)

    s = subs.add_parser("gap", help="first excitation gap E1 - E0")
    _add_common(s)
    s.set_defaults(func=cmd_gap)

    s = subs.add_parser("qfi", help="ground-state QFI at one parameter point")
    _add_common(s)
    s.add_argument("--lambda", dest="lam", choices=("g2", "g1", "epsilon"),
                   default="g2")
    s.set_defaults(func=cmd_qfi)

    s = subs.add_parser("qfi-curve", help="QFI along one swept axis")
    _add_common(s)
    s.add_argument("--lambda", dest="lam", choices=("g2", "g1", "epsilon"),
                   default="g2")
    s.add_argument("--method", choices=("ed", "analytic"), default="ed")
    _add_axis(s, "x", "gbar2")
    s.set_defaults(func=cmd_qfi_curve)

    s = subs.add_parser("qfi-envelope",
                        help="max of F_Q over a bias grid, per gbar2")
    _add_common(s)
    s.add_argument("--gbar2-start", dest="gbar2_start", type=float, required=True)
    s.add_argument("--gbar2-stop", dest="gbar2_stop", type=float, required=True)
    s.add_argument("--gbar2-count", dest="gbar2_count", type=int, required=True)
    s.add_argument("--eps-start", dest="eps_start", type=float, required=True)
    s.add_argument("--eps-stop", dest="eps_stop", type=float, required=True)
    s.add_argument("--eps-count", dest="eps_count", type=int, required=True)
    s.set_defaults(func=cmd_qfi_envelope)

    s = subs.add_parser("analytic-compare",
                        help="ED vs small-Omega analytic QFI over gbar2")
    _add_common(s)
    s.add_argument("--gbar2-start", dest="gbar2_start", type=float, default=0.5)
    s.add_argument("--gbar2-stop", dest="gbar2_stop", type=float, default=0.99)
    s.add_argument("--gbar2-count", dest="gbar2_count", type=int, default=40)
    s.set_defaults(func=cmd_analytic_compare)

    s = subs.add_parser("phase-diagram", help="observable over a 2-D grid")
    _add_common(s)
    s.add_argument("--quantity", choices=("sigma_z", "energy", "gap", "qfi_ed"),
                   default="sigma_z")
    s.add_argument("--lambda", dest="lam", choices=("g2", "g1", "epsilon"),
                   default="g2")
    _add_axis(s, "x", "gbar1")
    _add_axis(s, "y", "gbar2")
    s.set_defaults(func=cmd_phase_diagram)

    s = subs.add_parser("wigner", help="spin-resolved Wigner functions")
    _add_common(s)
    s.add_argument("--points", type=int, default=256)
    s.add_argument("--half-width", dest="half_width", type=float, default=None)
    s.add_argument("--display-scale", dest="display_scale",
                   choices=("none", "quarter"), default="none",
                   help="add sign(W)|W|^(1/4) display columns (stored values untouched)")
    s.set_defaults(func=cmd_wigner)

    s = subs.add_parser("ptps", help="probe-preparation time along a coupling ramp")
    _add_common(s)
    s.add_argument("--coupling", choices=("g2", "g1"), default="g2")
    s.add_argument("--gbar-max", dest="gbar_max", type=float, default=None,
                   help="ramp endpoint (default: located QFI peak)")
    s.add_argument("--rel-tol", dest="rel_tol", type=float, default=0.002)
    s.set_defaults(func=cmd_ptps)

    s = subs.add_parser("fit-exponent", help="critical exponent of a QFI component")
    _add_common(s)
    s.add_argument("--component", choices=("xi", "x", "rho", "total"),
                   default="total")
    s.add_argument("--method", choices=("analytic", "ed"), default="analytic")
    s.add_argument("--window-lo", dest="window_lo", type=float, default=0.9)
    s.add_argument("--window-hi", dest="window_hi", type=float, default=0.99)
    s.add_argument("--samples", type=int, default=20)
    s.set_defaults(func=cmd_fit_exponent)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        path = ns.func(ns)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"qrabi {ns.subcommand}: error: {exc}", file=sys.stderr)
        return FAILURE_EXIT
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
