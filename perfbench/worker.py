"""One fresh benchmark process: import the package, then run one job.

Usage: python3 worker.py SPEC_JSON

SPEC_JSON names the checkout's `src` directory, the job mode and where to
write the result. Modes:

- setup: only the imports, so the runner can time set-up on its own;
- workload: the workload's CLI calls or library calls, traced or not;
- probe_eig: one low-frequency eigensolve at cutoffs 512, 1024 and 2048,
  with eigenvectors through `fockspace.spectrum` and values only through
  `scipy.linalg.eig_banded(eigvals_only=True)` on the same band;
- probe_pool: the ed_qfi QFI grid through `sweep.run_sweep` at a given
  thread count.

The result records `t_ready` (CLOCK_MONOTONIC, shared by all processes, once
numpy, scipy and qrabi are imported) and the peak resident set size.
"""

import hashlib
import json
import os
import platform
import resource
import sys
import time


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_workload(spec: dict) -> dict:
    from qrabi import cli, multipolaron
    from qrabi.model import ModelParams

    inputs = spec["inputs"]
    grad_norms = []
    if "library" in inputs:
        variational_ground = multipolaron.variational_ground

        def capture(p, *args, **kwargs):
            result = variational_ground(p, *args, **kwargs)
            grad_norms.append(result.grad_norm / p.omega)
            return result

        multipolaron.variational_ground = capture
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install
        tracer = Tracer(spec["run_id"])
        install(tracer)

    out = {}
    start = time.perf_counter()
    if "cli" in inputs:
        out["exit_codes"] = [cli.main(argv) for argv in inputs["cli"]]
    else:
        rows = []
        for point in inputs["library"]:
            try:
                br = multipolaron.qfi_decompose_multi(ModelParams.from_dimensionless(**point))
                rows.append({"total": br.total, "components": br.components})
            except (RuntimeError, ValueError) as exc:
                rows.append({"error": f"{type(exc).__name__}: {exc}"})
        out["points"] = rows
    wall = time.perf_counter() - start
    out["wall_s"] = wall
    out["grad_norms"] = grad_norms
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(wall)
        out["layers"]["multipolaron.grad_norm_max"] = max(grad_norms, default=0.0)
        with open(spec["trace_path"], "w") as fh:
            json.dump({"run_id": tracer.run_id, "workload": spec["workload"],
                       "span_fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans, "counters": tracer.counters}, fh)
    return out


def probe_eig() -> dict:
    import scipy.linalg
    from qrabi import fockspace
    from qrabi.model import ModelParams

    # The low-frequency phase-diagram point that converges at cutoff 1024.
    p = ModelParams.from_dimensionless(omega=0.01, Omega=1.0, gbar1=1.35, gbar2=0.65,
                                       epsilon=0.0033)
    out = {}
    for n in (512, 1024, 2048):
        t = time.perf_counter()
        fockspace.spectrum(p, n, k=1)
        out[f"fockspace.eig_banded.vec_s.n{n}"] = time.perf_counter() - t
        band = fockspace._banded_hamiltonian(p, n)
        t = time.perf_counter()
        scipy.linalg.eig_banded(band, lower=True, eigvals_only=True, select="i",
                                select_range=(0, 0), check_finite=False)
        out[f"fockspace.eig_banded.val_s.n{n}"] = time.perf_counter() - t
    return {"probe": out}


def probe_pool(spec: dict) -> dict:
    from qrabi.model import ModelParams
    from qrabi.sweep import Axis, SweepSpec, run_sweep

    g = spec["inputs"]["grid"]
    sweep_spec = SweepSpec(
        axes=(Axis("gbar2", *g["gbar2"]), Axis("epsilon", *g["epsilon"])),
        base=ModelParams.from_dimensionless(omega=1.0, Omega=g["Omega"], gbar1=g["gbar1"]),
        quantity="qfi_ed", threads=spec["threads"])
    t = time.perf_counter()
    grid = run_sweep(sweep_spec)
    wall = time.perf_counter() - t
    return {"wall_s": wall,
            "values_sha256": hashlib.sha256(grid.values.tobytes()).hexdigest()}


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import qrabi.cli  # noqa: F401
    import qrabi.multipolaron  # noqa: F401
    result = {"t_ready": time.monotonic()}

    mode = spec["mode"]
    if mode == "workload":
        result.update(run_workload(spec))
    elif mode == "probe_eig":
        result.update(probe_eig())
    elif mode == "probe_pool":
        result.update(probe_pool(spec))
    elif mode != "setup":
        raise ValueError(f"unknown worker mode {mode!r}")
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if mode != "setup":
        result["env"] = environment()
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
