"""Write ``reference.json``: the default-seed warm-up outputs of the r = 1
workloads, frozen from the program as it is when this script runs.

    python3 perfbench/freeze.py

Every benchmark run compares its warm-up operation with these values at 1e-9
relative, so re-freeze only when a change to the numbers is intended.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    frozen = {"seed": workloads.DEFAULT_SEED}
    work_root = HERE.parent / ".bench_work"
    work_root.mkdir(exist_ok=True)
    for name in ("study", "wide_filter"):
        work = Path(tempfile.mkdtemp(prefix="freeze-", dir=work_root))
        try:
            workloads.write_inputs(name, workloads.DEFAULT_SEED, work)
            w = workloads.Workload(name, work, workloads.DEFAULT_SEED)
            w.build()
            values = w.values(w.run(warm=True))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        frozen[name] = {k: np.asarray(v, dtype=float).tolist() for k, v in values.items()}
    (HERE / "reference.json").write_text(json.dumps(frozen) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
