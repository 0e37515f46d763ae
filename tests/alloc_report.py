"""Wall time, minor page faults and traced peak memory of one filter run at
each benchmark shape.

    PYTHONPATH=src python tests/alloc_report.py

Runs one operation at each of the three shapes of ``perfbench``'s workloads,
at one shape that none of them runs, and ``mvdlm filter`` itself at the
``csv_filter`` shape, on inputs drawn here from a seeded generator, not on
the benchmark's files:

- ``study``: ``dlm._run`` of 20 local-level series (d = 1, p = 2, r = 1,
  T = 100) in both modes, then the first series' output of each mode with
  its S read, as the replication study does;
- ``csv_filter``: ``dlm._run`` of one series (d = 1, p = 3, r = 2,
  T = 2,000) in both modes, and the output of each mode, as ``mvdlm filter
  --mode both`` does;
- ``wide_filter``: :func:`mvdlm.filter` at d = 2, p = 40, r = 1, T = 2,000,
  with a time-varying design;
- ``r3_filter``: :func:`mvdlm.filter` at d = 2, p = 3, r = 3, T = 2,000,
  with a time-varying design, in one mode: a shape that no benchmark
  workload runs, with more replicate rows than state rows;
- ``csv_cli``: ``cli.main(["filter", ..., "--mode", "both"])`` on the
  ``csv_filter`` shape's series, written once as a 2,000-row CSV by
  ``cli.write_csv``: the whole command, parsing the CSV and writing both
  records files included, which the ``csv_filter`` row does not run.

About 10% of the entries are missing. Each shape runs in a fresh
interpreter, since the heap one shape leaves moves the next one's faults.
Its operation runs a few times to warm up, then ``CALLS`` times, and the
table gives the median wall time (``time.perf_counter``) and the median
count of minor page faults (``ru_minflt``) over those calls, and the peak of
``tracemalloc`` over one more call: the numpy arrays the operation holds at
its fullest. Each result is dropped before the next call, as the benchmark
does. On a shared 2-vCPU host, the median times of two runs of the script
on one tree have differed by half (12.9 and 19.6 ms at ``wide_filter``), so
they show large moves only. The script reads only ``dlm._run``,
``dlm._series_output``, ``cli.main``, ``cli.write_csv`` and the public
classes, so it runs on a change's base commit too. It reports and asserts nothing; pytest does not collect it.
"""

import contextlib
import gc
import io
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

# one BLAS thread unless the environment says otherwise, as the benchmark runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import mvdlm as mv  # noqa: E402
from mvdlm import cli, dlm  # noqa: E402

WARM, CALLS = 3, 15


def _inputs(rng, d, p, r, T, M, discount, varying):
    if varying:
        Fs = rng.standard_normal((T, d, r))
        Gs = 0.99 * np.eye(d) + 0.05 * rng.standard_normal((T, d, d))
        F, G = (lambda t: Fs[t - 1]), (lambda t: Gs[t - 1])
    else:
        F, G = np.ones((d, r)), np.eye(d)
    model = mv.ModelSpec(d=d, p=p, r=r, F=F, G=G, V=np.eye(r), discount=discount)
    prior = mv.NmiwState(m=np.zeros((d, p)), P=10.0 * np.eye(d),
                         miw=mv.MiwParams(S=np.eye(p), n=np.ones(p), v=float(p)))
    y = np.cumsum(rng.standard_normal((M, T, r, p)), axis=1)
    y[:, rng.random((T, r, p)) < 0.1] = np.nan
    return model, prior, y


def study():
    model, prior, y = _inputs(np.random.default_rng(1), 1, 2, 1, 100, 20, 0.5, False)

    def run():
        rec = dlm._run(model, prior, y, ("new", "classical"))
        outs = [dlm._series_output(rec, k, 0) for k in range(2)]
        for out in outs:
            out.S
        return outs
    return run


def csv_filter():
    model, prior, y = _inputs(np.random.default_rng(2), 1, 3, 2, 2_000, 1, 0.9, False)

    def run():
        rec = dlm._run(model, prior, y, ("new", "classical"))
        return [dlm._series_output(rec, k, 0) for k in range(2)]
    return run


def wide_filter():
    model, prior, y = _inputs(np.random.default_rng(3), 2, 40, 1, 2_000, 1, 0.95, True)
    return lambda: mv.filter(model, y[0], prior)


def r3_filter():
    model, prior, y = _inputs(np.random.default_rng(4), 2, 3, 3, 2_000, 1, 0.95, True)
    return lambda: mv.filter(model, y[0], prior)


# the model and prior of the csv_filter shape, as a config file
CSV_CLI_INI = """\
[model]
d = 1
p = 3
r = 2
F = ones
G = identity
V = identity
discount = 0.9

[prior]
P0 = 10
S0 = identity
N0 = ones
"""


def csv_cli():
    _, _, y = _inputs(np.random.default_rng(2), 1, 3, 2, 2_000, 1, 0.9, False)
    work = tempfile.TemporaryDirectory()  # removed at exit
    path = Path(work.name)
    cli.write_csv(path / "data.csv", y[0])
    (path / "run.ini").write_text(CSV_CLI_INI)
    argv = ["filter", "--config", str(path / "run.ini"), "--data", str(path / "data.csv"),
            "--mode", "both", "--out", str(path / "records.csv")]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    run.work = work  # the directory lives as long as the operation
    return run


def measure(run) -> tuple[float, float, int]:
    """The median wall time and minor faults of one call of ``run``, and one
    call's traced peak."""
    for _ in range(WARM):
        run()
    times, faults = [], []
    for _ in range(CALLS):
        gc.collect()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        del result
    gc.collect()
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
        del result
    finally:
        tracemalloc.stop()
    return statistics.median(times), statistics.median(faults), peak


SHAPES = {shape.__name__: shape for shape in (study, csv_filter, wide_filter, r3_filter, csv_cli)}


def main(argv) -> None:
    if argv:
        seconds, faults, peak = measure(SHAPES[argv[0]]())
        print(f"{argv[0]:<12}{seconds * 1e3:>10.2f}{faults:>12.0f}{peak / 1e6:>10.2f}", flush=True)
        return
    print(f"{'shape':<12}{'ms/call':>10}{'faults/call':>12}{'peak MB':>10}", flush=True)
    for name in SHAPES:
        subprocess.run([sys.executable, __file__, name], check=True)


if __name__ == "__main__":
    main(sys.argv[1:])
