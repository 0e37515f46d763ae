"""One set-up sample, run in a fresh interpreter by ``run.py``.

Imports ``mvdlm`` from the checkout, builds the workload's program-side
inputs from the files in the work directory, and runs the small untimed
warm-up operation, so lazy imports are paid here and not in the timed run.

    python3 perfbench/setup_probe.py <workload> <work directory>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main(argv) -> int:
    name, work = argv
    w = workloads.Workload(name, Path(work), workloads.DEFAULT_SEED)
    w.build()
    w.run(warm=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
