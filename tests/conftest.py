"""Shared test plumbing: BLAS threads, oracle imports and the
acceptance-criteria report."""
import os
import pathlib
import sys

# One BLAS thread unless the environment says otherwise, set before numpy is
# imported, as perfbench/run.py does. The filter's products are tiny, and
# OpenBLAS threads competing for the cores with another numpy process can slow
# them down several times over. The library itself leaves BLAS threads alone.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

# pytester runs a scratch pytest project in a subprocess (test_properties.py)
pytest_plugins = ["pytester"]

_RESULTS: dict[int, tuple[str, bool, str]] = {}


def record_criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    """Register an acceptance-criterion outcome for the end-of-run report."""
    _RESULTS[num] = (name, bool(ok), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(_RESULTS):
        name, ok, detail = _RESULTS[num]
        line = f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
