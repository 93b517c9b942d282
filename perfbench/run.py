"""Benchmark of the qrabi toolkit: four seeded workloads, end-to-end and per-layer.

Run from the root of a checkout (the package is imported from `src/`):

    python3 perfbench/run.py --workload ed_qfi --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all       # every workload, both modes

Every repetition of a workload runs in a fresh process (`worker.py`), so the
package's `lru_cache`s start cold as they do for a CLI user. Processes are
single-threaded: OpenBLAS/OpenMP and the sweep pool are pinned to one thread.
Each workload is a closed loop: the next call starts when the previous one
returns.

`--trace 0` repeats the workload for `--seconds` (at least twice; a
repetition starts only if a typical one still ends in time) and reports
medians over the repetitions:

- wall_s: wall time of the workload's calls, without set-up;
- setup_s: fresh process start until numpy, scipy and qrabi are imported;
  the minimum over at least SETUP_SAMPLES processes per run, import-only
  ones interleaved with the repetitions (load on the host only ever adds
  to this time, so the minimum is the steadiest statistic);
- peak_rss_mb: peak resident memory of a workload process;
- ok_frac: share of attempted points that succeeded and passed the checks
  (1 - failed_frac; failed_frac is printed too). A point that raised or was
  recorded in the output's `failures` counts as failed, not as a check
  failure.

`--trace 1` runs the workload twice untraced and once traced, and reports the
per-layer metrics of `tracer.py`, `trace.overhead_frac` and three probes:

- the wigner_csv and variational workloads, traced, for the `wigner.*`,
  `cli.serialize.wigner_csv.*` and `multipolaron.*` metrics (these two are
  too noisy on a shared host to be timed end to end, see workloads.py);
- one low-frequency eigensolve at cutoffs 512, 1024 and 2048, with and
  without eigenvectors;
- `sweep.pool_speedup_2t`: the ed_qfi QFI grid at one and two sweep threads,
  whose values must be bitwise equal.

The trace's spans are written to `perfbench/out/<workload>-seed<seed>.trace.json`.

Every run checks the outputs (`checks.py`) and that all repetitions wrote
byte-identical files. The last line of standard output is one JSON object;
the exit code is 1 when a check fails and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from checks import check, load_reference, summarize  # noqa: E402
from tracer import LAYER_UNITS  # noqa: E402
from workloads import NAMES, make_inputs  # noqa: E402

MIN_REPS = 2
MAX_REPS = 50
SETUP_SAMPLES = 20
SETUP_PER_REP = 5
WORKER_TIMEOUT_S = 150
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "QRABI_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
PROBE_UNITS = {f"fockspace.eig_banded.{kind}_s.n{n}": "s"
               for n in (512, 1024, 2048) for kind in ("vec", "val")}
# Layers measured on traced probe workloads, which every traced run includes.
PROBE_WORKLOADS = {"wigner_csv": "wigner.", "variational": "multipolaron."}
PER_LAYER_UNITS = {**LAYER_UNITS, **PROBE_UNITS,
                   "cli.serialize.wigner_csv.s": "s", "cli.serialize.wigner_csv.bytes": "bytes",
                   "cli.serialize.wigner_csv.mb_per_s": "MB/s",
                   "sweep.pool_speedup_2t": "x", "trace.overhead_frac": "frac"}


class WorkerError(RuntimeError):
    """A benchmark process exited with an error."""


class Run:
    """Worker processes of one benchmark run, sharing a scratch directory."""

    def __init__(self, seed: int, reference: dict | None):
        """`reference`: seed-0 outputs by workload, or None to check invariants only."""
        self.seed, self.reference = seed, reference
        self.workdir = OUT / f"seed{seed}-{os.getpid()}"
        self.jobs = 0

    def spawn(self, spec: dict) -> dict:
        """Run worker.py on `spec` in a fresh process; its result plus `setup_s`."""
        self.jobs += 1
        spec_path = self.workdir / f"spec{self.jobs}.json"
        result_path = self.workdir / f"result{self.jobs}.json"
        spec = {**spec, "src": str(SRC), "result_path": str(result_path)}
        spec_path.write_text(json.dumps(spec))
        start = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                  cwd=self.workdir, env=CHILD_ENV, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"{spec['mode']} process exceeded {WORKER_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise WorkerError(f"{spec['mode']} process exited with {proc.returncode}:\n"
                              + proc.stderr[-2000:])
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["t_ready"] - start
        result["process_s"] = time.monotonic() - start
        return result

    def repetition(self, workload: str, traced: bool) -> dict:
        """One workload call in a fresh process, its outputs summarized and checked."""
        inputs = make_inputs(workload, self.seed)
        reference = self.reference[workload] if self.reference is not None else None
        spec = {"mode": "workload", "workload": workload, "inputs": inputs, "trace": traced,
                "run_id": f"{workload}-seed{self.seed}-{os.getpid()}-{self.jobs + 1}",
                "trace_path": str(OUT / f"{workload}-seed{self.seed}.trace.json")}
        result = self.spawn(spec)
        out = summarize(workload, inputs, self.workdir, result)
        bad = check(workload, inputs, out, reference)
        digest = hashlib.sha256()
        if "cli" in inputs:
            for argv in inputs["cli"]:
                path = self.workdir / argv[argv.index("-o") + 1]
                if path.exists():
                    digest.update(path.read_bytes())
                    path.unlink()
        else:
            digest.update(json.dumps(result["points"]).encode())
        failed = {entry.split(":")[0] for entry in out["failed"] + bad}
        return {**result, "digest": digest.hexdigest(), "mismatches": bad,
                "recorded_failures": out["failed"], "failed_points": len(failed),
                "points": inputs["points"], "summary": out}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list]:
    """Result object of one run plus human-readable report lines."""
    run = Run(seed, load_reference() if seed == 0 else None)
    run.workdir.mkdir(parents=True, exist_ok=True)
    try:
        start = time.monotonic()
        reps, setup, setup_time = [], [], 0.0
        # Start another repetition only if a typical one still ends within
        # `seconds` of workload time; import-only processes come on top.
        while len(reps) < MIN_REPS or (
                not trace and len(reps) < MAX_REPS
                and time.monotonic() - start - setup_time
                + statistics.median(r["process_s"] for r in reps) <= seconds):
            reps.append(run.repetition(workload, traced=False))
            setup.append(reps[-1]["setup_s"])
            if not trace:
                t = time.monotonic()
                setup += [run.spawn({"mode": "setup"})["setup_s"] for _ in range(SETUP_PER_REP)]
                setup_time += time.monotonic() - t
        while not trace and len(setup) < SETUP_SAMPLES:
            setup.append(run.spawn({"mode": "setup"})["setup_s"])
        untraced = list(reps)
        if trace:
            reps.append(run.repetition(workload, traced=True))
            probes = {name: run.repetition(name, traced=True) for name in PROBE_WORKLOADS}
            probe = run.spawn({"mode": "probe_eig"})["probe"]
            grid = {"grid": make_inputs("ed_qfi", seed)["grid"]}
            pool = [run.spawn({"mode": "probe_pool", "inputs": grid, "threads": t})
                    for t in (1, 2)]
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    problems = [m for r in reps for m in r["mismatches"]]
    if len({r["digest"] for r in reps}) != 1:
        problems.append("determinism: repetitions at the same seed wrote different outputs")
    counted = reps + (list(probes.values()) if trace else [])
    attempted = sum(r["points"] for r in counted)
    failed = sum(r["failed_points"] for r in counted)
    wall = statistics.median(r["wall_s"] for r in untraced)
    if trace:
        for name, rep in probes.items():
            problems += [f"{name} probe: {m}" for m in rep["mismatches"]]
        if pool[0]["values_sha256"] != pool[1]["values_sha256"]:
            problems.append("determinism: run_sweep grid values differ between 1 and 2 threads")
        values = {**reps[-1]["layers"], **probe,
                  **{k: v for name, prefix in PROBE_WORKLOADS.items()
                     for k, v in probes[name]["layers"].items() if k.startswith(prefix)},
                  **{f"cli.serialize.wigner_csv.{q}":
                     probes["wigner_csv"]["layers"][f"cli.serialize.{q}"]
                     for q in ("s", "bytes", "mb_per_s")},
                  "sweep.pool_speedup_2t": pool[0]["wall_s"] / pool[1]["wall_s"],
                  "trace.overhead_frac": (reps[-1]["wall_s"] - wall) / wall}
        units = PER_LAYER_UNITS
    else:
        values = {"wall_s": wall, "setup_s": min(setup),
                  "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in untraced),
                  "ok_frac": 1.0 - failed / attempted}
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    lines = [f"# {workload} seed={seed} trace={int(trace)} repetitions={len(reps)} "
             f"wall_s={[round(r['wall_s'], 4) for r in reps]} "
             f"setup_s={[round(s, 4) for s in setup] if not trace else []} "
             f"environment={json.dumps(reps[0]['env'], sort_keys=True)}"]
    lines += [f"{workload} {k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    lines.append(f"{workload} failed_frac = {failed / attempted:.6g} frac "
                 f"({failed} of {attempted} points)")
    lines += [f"{workload} recorded failure: {f}" for r in reps for f in r["recorded_failures"]]
    if trace:
        lines += [f"{workload} {name} probe recorded failure: {f}"
                  for name, r in probes.items() for f in r["recorded_failures"]]
    lines += [f"{workload} CHECK FAILED: {p}" for p in problems]
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qrabi" / "__init__.py").is_file():
        print(f"error: no qrabi package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(w, t) for w in NAMES for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in runs:
        try:
            result, lines = run_benchmark(workload, args.seed, args.seconds, trace)
        except WorkerError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        if len(runs) == 1:
            combined = result
            break
        combined["correct"] &= result["correct"]
        if not trace:
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": m for k, m in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
