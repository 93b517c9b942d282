"""Record the seed-0 reference outputs that `checks.check` compares against.

    python3 perfbench/record_reference.py

Runs each workload once at seed 0 and writes `reference_seed0.json`. Only
re-record when a change is meant to alter the package's results; refuses to
write a reference that contains failed points or breaks an invariant.
"""

import json
import shutil
import sys

from checks import REFERENCE_PATH
from run import NAMES, Run


def main() -> int:
    reference = {}
    for workload in NAMES:
        run = Run(seed=0, reference=None)
        run.workdir.mkdir(parents=True, exist_ok=True)
        try:
            rep = run.repetition(workload, traced=False)
        finally:
            shutil.rmtree(run.workdir, ignore_errors=True)
        if rep["recorded_failures"] or rep["mismatches"]:
            print(f"{workload}: not recorded: {rep['recorded_failures'] + rep['mismatches']}",
                  file=sys.stderr)
            return 1
        reference[workload] = {k: v for k, v in rep["summary"].items()
                               if k not in ("failed", "all_finite")}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
