"""Correctness checks on each workload's outputs.

`summarize` reads what one workload call produced (the CLI's CSV files, or
the variational results returned by the worker) into plain JSON values.
`check` compares them with invariants at every seed and, at seed 0, with the
reference values recorded from the package in `reference_seed0.json`.

Tolerances against the reference are no looser than the acceptance suite's:
QFI values agree to 1e-3 relative (the suite allows 2-5 %), the envelope's
argmax bias to one grid step (criterion 5), the PTPS integral and its ramp
end to the integrator's own 2e-3, <sigma_z> to 1e-6 and Wigner values to
1e-6 absolute (criterion 9), and the Wigner norm to 1e-3 (criterion 9).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference_seed0.json")
WIGNER_SAMPLE_STRIDE = 257


def read_csv(path: Path) -> tuple[dict, list, list]:
    """(meta, columns, rows) of a qrabi CSV file; empty fields become NaN."""
    meta, columns, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                meta[key] = json.loads(value)
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([_field(v) for v in line.split(",")])
    return meta, columns, rows


def _field(text: str):
    if text in ("True", "False"):
        return text == "True"
    return float(text) if text else math.nan


def _failure_ids(prefix: str, meta: dict) -> list:
    return [f"{prefix}{entry['index']}: {entry['reason']}" for entry in meta.get("failures", [])]


def summarize(workload: str, inputs: dict, workdir: Path, result: dict) -> dict:
    """Outputs of one call of `workload`, with `failed` point ids, as JSON values.

    A CLI call that exits non-zero fails every point it was given.
    """
    codes = result.get("exit_codes")
    if workload == "ed_qfi":
        out = {"failed": []}
        if codes[0] == 0:
            meta, _, rows = read_csv(workdir / "envelope.csv")
            out["f_max"] = [r[1] for r in rows]
            out["eps_star"] = [r[2] for r in rows]
            out["failed"] += _failure_ids("envelope", meta)
        else:
            out["failed"] += [f"envelope[{k}]: exit code {codes[0]}"
                              for k in range(inputs["points"] - 1)]
        if codes[1] == 0:
            meta, _, _ = read_csv(workdir / "ptps.csv")
            out["T"], out["gbar_max"] = meta["T"], meta["gbar_max"]
            if meta["diverged"]:
                out["failed"].append("ptps: diverged")
        else:
            out["failed"].append(f"ptps: exit code {codes[1]}")
        return out
    if workload == "lowfreq_phase":
        if codes[0] != 0:
            return {"failed": [f"phase[{k}]: exit code {codes[0]}"
                               for k in range(inputs["points"])]}
        meta, _, rows = read_csv(workdir / "phase.csv")
        return {"sigma_z": [r[2] for r in rows], "failed": _failure_ids("phase", meta)}
    if workload == "variational":
        points = result["points"]
        return {"total": [pt.get("total", math.nan) for pt in points],
                "components": [pt.get("components", {}) for pt in points],
                "grad_norm_max": max(result["grad_norms"], default=0.0),
                "failed": [f"variational[{i}]: {pt['error']}"
                           for i, pt in enumerate(points) if "error" in pt]}
    if codes[0] != 0:
        return {"failed": [f"wigner: exit code {codes[0]}"]}
    meta, _, rows = read_csv(workdir / "wigner.csv")
    return {"total_norm": meta["total_norm"],
            "all_finite": all(math.isfinite(v) for r in rows for v in r),
            "samples": rows[::WIGNER_SAMPLE_STRIDE], "failed": []}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check(workload: str, inputs: dict, out: dict, reference: dict | None) -> list:
    """Names of the points whose outputs break an invariant or the reference."""
    bad = []
    if workload == "ed_qfi":
        if "f_max" in out:
            for i, (f, e) in enumerate(zip(out["f_max"], out["eps_star"])):
                if not (math.isfinite(f) and f >= 0):
                    bad.append(f"envelope[{i}]: F_Q {f} not finite and >= 0")
                if reference is not None:
                    if _rel(f, reference["f_max"][i]) > 1e-3:
                        bad.append(f"envelope[{i}]: f_max {f} vs reference "
                                   f"{reference['f_max'][i]}")
                    if abs(e - reference["eps_star"][i]) > inputs["eps_step"] * (1 + 1e-9):
                        bad.append(f"envelope[{i}]: eps_star {e} vs reference "
                                   f"{reference['eps_star'][i]}")
        if "T" in out:
            if not (math.isfinite(out["T"]) and out["T"] > 0):
                bad.append(f"ptps: T {out['T']} not finite and > 0")
            if reference is not None:
                for key in ("T", "gbar_max"):
                    if _rel(out[key], reference[key]) > 2e-3:
                        bad.append(f"ptps: {key} {out[key]} vs reference {reference[key]}")
    elif workload == "lowfreq_phase":
        for i, s in enumerate(out.get("sigma_z", [])):
            if math.isnan(s):
                continue  # a recorded failure, counted already
            if abs(s) > 1.0 + 1e-12:
                bad.append(f"phase[{i}]: |sigma_z| = {abs(s)} > 1")
            if reference is not None and abs(s - reference["sigma_z"][i]) > 1e-6:
                bad.append(f"phase[{i}]: sigma_z {s} vs reference {reference['sigma_z'][i]}")
    elif workload == "variational":
        if out["grad_norm_max"] > 1e-9:
            bad.append(f"variational: grad_norm {out['grad_norm_max']:.3e} omega > 1e-9 omega")
        for i, (total, comps) in enumerate(zip(out["total"], out["components"])):
            if math.isnan(total):
                continue
            if not (math.isfinite(total) and total >= 0):
                bad.append(f"variational[{i}]: F_Q {total} not finite and >= 0")
            if reference is None:
                continue
            ref_total = reference["total"][i]
            if _rel(total, ref_total) > 1e-3:
                bad.append(f"variational[{i}]: F_Q {total} vs reference {ref_total}")
            for name, value in comps.items():
                if abs(value - reference["components"][i][name]) > 1e-3 * abs(ref_total):
                    bad.append(f"variational[{i}]: component {name} {value} vs reference "
                               f"{reference['components'][i][name]}")
    elif "total_norm" in out:
        if abs(out["total_norm"] - 1.0) > 1e-3:
            bad.append(f"wigner: total_norm {out['total_norm']} not within 1e-3 of 1")
        if not out["all_finite"]:
            bad.append("wigner: non-finite values in the output")
        if reference is not None:
            if len(out["samples"]) != len(reference["samples"]):
                bad.append("wigner: grid size differs from the reference")
            else:
                worst = max(abs(a - b) for row, ref in zip(out["samples"], reference["samples"])
                            for a, b in zip(row, ref))
                if worst > 1e-6:
                    bad.append(f"wigner: sampled values differ from the reference by {worst:.3e}")
    return bad


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
