"""mvdlm benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload study --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``. The
inputs are drawn from ``--seed``; the program only sees the generated files and
arrays. With ``--trace 0`` the run reports the end-to-end metrics:

    wall_s        median seconds of one operation (tracing off)
    steps_per_s   requested filter steps (T x series x modes) per second of wall_s
    setup_s       median seconds for a fresh interpreter to import mvdlm, build
                  the program-side inputs and run the small warm-up operation
                  (both timings at the reference speed, see speed_probe)
    peak_rss_mb   peak resident memory of this process
    ops_failed_frac  operations that raised or failed the output check, over
                  those attempted (printed; also the ``failed``/``attempted``
                  fields of the result)

With ``--trace 1`` it alternates plain and traced operations and reports the
per-layer metrics of ``tracer.TARGETS`` per traced operation, plus the tracing
overhead. The last line of standard output is the JSON result; the full record
(environment, operation times, absent names) goes to ``.bench_out/``, and the
spans of a traced run to ``.bench_out/spans-<workload>-seed<seed>.npz``.

BLAS is held to one thread, so the run measures one process on one core.
"""

import os

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 3
MIN_OPS = 3
MAX_TRACED_OPS = 3  # bounds the spans kept in memory
SETUP_TIMEOUT = 60
SPEED_REPEATS = 5
# speed_probe() seconds on the reference machine (2 vCPUs, Python 3.11.7,
# numpy 2.4.6) when the host is quiet; timings are reported at this speed.
REFERENCE_SPEED_S = 0.0065


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to repeat the operation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(args) -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in _BLAS_VARS},
        "workload": args.workload,
        "why": wl.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def speed_probe() -> float:
    """Seconds for a fixed mix of the work the filter does per step: small
    numpy products, a Cholesky factor, array construction, float formatting
    and parsing. Median of SPEED_REPEATS timings.

    On a shared host the speed of the CPU moves by a quarter and more over tens
    of seconds, and it moves the operations and this probe alike. Timing the
    probe next to every operation and reporting the operation at the reference
    speed (seconds x REFERENCE_SPEED_S / probe seconds) removes that drift; the
    raw seconds are kept in the run record.
    """
    times = []
    for _ in range(SPEED_REPEATS):
        t0 = time.perf_counter()
        a = np.eye(2)
        b = np.array([[2.0, 0.5], [0.5, 1.0]])
        for _ in range(400):
            c = 0.5 * (a @ b + (a @ b).T)
            np.linalg.cholesky(c + np.eye(2))
            a = np.asarray(c / (1.0 + np.trace(c)), dtype=float)
            float(f"{a[0, 0]:.10g}")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_reference_speed(seconds: list[float], probes: list[float]) -> list[float]:
    """Scale each timing by the mean of the speed probes just before and after it."""
    return [t * 2.0 * REFERENCE_SPEED_S / (before + after)
            for t, before, after in zip(seconds, probes, probes[1:])]


class Ops:
    """Counts attempted and failed operations and runs the output check."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0

    def run(self, warm=False, wrap=None):
        """Run one operation; return (seconds, result or None)."""
        gc.collect()
        self.attempted += 1
        call = (lambda: self.w.run(warm=warm))
        t0 = time.perf_counter()
        try:
            result = wrap(call) if wrap else call()
        except Exception:
            elapsed = time.perf_counter() - t0
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return elapsed, None
        elapsed = time.perf_counter() - t0
        problems = self.w.check(result, warm=warm)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)
        return elapsed, result


def measure_setup(workload: str, work: Path) -> tuple[list[float], list[float]]:
    """Seconds of SETUP_SAMPLES fresh set-ups, and the speed probes around them."""
    samples, probes = [], [speed_probe()]
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(work)]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(elapsed)
        probes.append(speed_probe())
    return samples, probes


def run_plain(ops: Ops, seconds: float) -> tuple[list[float], list[float]]:
    """Timed operations for ``seconds`` (at least MIN_OPS), and the speed probes
    around them."""
    deadline = time.perf_counter() + seconds
    times, probes = [], [speed_probe()]
    while len(times) < MIN_OPS or time.perf_counter() < deadline:
        elapsed, result = ops.run()
        times.append(elapsed)
        del result
        probes.append(speed_probe())
    return times, probes


def run_traced(ops: Ops, seconds: float, tracer):
    """Pairs of plain and traced operations for ``seconds`` (at least one pair)."""
    deadline = time.perf_counter() + seconds
    plain, traced, io = [], [], []
    while not traced or (len(traced) < MAX_TRACED_OPS and time.perf_counter() < deadline):
        elapsed, result = ops.run()
        plain.append(elapsed)
        del result
        tracer.install()
        try:
            elapsed, result = ops.run(wrap=tracer.traced_op)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        if result is not None:
            io.append(ops.w.io_bytes(result))
        del result
    return plain, traced, io


def layer_metrics(tracer, workload, n_traced: int, io) -> dict:
    """Per-layer metrics per traced operation, in BENCHMARK.json order."""
    totals = tracer.totals()
    steps = workload.requested_steps
    metrics = {}
    for name in tracer.names[1:]:
        metrics[f"{name}.calls"] = (totals[name]["calls"] / n_traced, "count")
        metrics[f"{name}.self_s"] = (totals[name]["self_s"] / n_traced, "s")

    def calls(name):
        return totals[name]["calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    updates = calls("dlm.update_missing") + calls("dlm.update_classical")
    metrics["dlm.build_masks.per_step"] = (
        ratio(calls("dlm.build_masks"), n_traced * steps), "calls/step")
    metrics["dlm.filter.self_frac"] = (
        ratio(totals["dlm.filter"]["self_s"], totals["dlm.filter"]["incl_s"]), "frac")
    metrics["dlm.update.noop_frac"] = (ratio(tracer.updates_noop, updates), "frac")
    metrics["dlm.filter.passes_per_requested"] = (
        ratio(calls("dlm.filter"), n_traced * workload.series_modes), "ratio")
    metrics["linalg.symmetrize.per_step"] = (
        ratio(calls("linalg.symmetrize"), n_traced * steps), "calls/step")
    metrics["linalg.symmetrize.noop_frac"] = (
        ratio(tracer.sym_calls_noop, calls("linalg.symmetrize")), "frac")
    metrics["cli.bytes_read"] = (statistics.mean(r for r, _ in io) if io else 0.0, "B")
    metrics["cli.bytes_written"] = (statistics.mean(w for _, w in io) if io else 0.0, "B")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mvdlm" / "__init__.py").is_file():
        print(f"error: no mvdlm package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mvdlm

    if Path(mvdlm.__file__).resolve().parent != (SRC / "mvdlm").resolve():
        print(f"error: mvdlm imported from {mvdlm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(args)
    out_dir = ROOT / ".bench_out"
    work_root = ROOT / ".bench_work"
    out_dir.mkdir(exist_ok=True)
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    record = {"env": env}
    try:
        wl.write_inputs(args.workload, args.seed, work)
        workload = wl.Workload(args.workload, work, args.seed)
        workload.build()
        ops = Ops(workload)
        if args.trace == 0:
            setup, setup_probes = measure_setup(args.workload, work)
            ops.run(warm=True)
            times, probes = run_plain(ops, args.seconds)
            wall = statistics.median(at_reference_speed(times, probes))
            metrics = {
                "wall_s": (wall, "s"),
                "steps_per_s": (workload.requested_steps / wall, "1/s"),
                "setup_s": (statistics.median(at_reference_speed(setup, setup_probes)), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            record.update(op_seconds=times, op_speed_probes=probes, setup_seconds=setup,
                          setup_speed_probes=setup_probes,
                          reference_speed_s=REFERENCE_SPEED_S)
        else:
            tracer = Tracer(f"{args.workload}-seed{args.seed}")
            ops.run(warm=True)
            plain, traced, io = run_traced(ops, args.seconds, tracer)
            metrics = layer_metrics(tracer, workload, len(traced), io)
            overhead = statistics.median(traced) - statistics.median(plain)
            metrics["trace.overhead_s"] = (overhead, "s")
            metrics["trace.overhead_frac"] = (overhead / statistics.median(plain), "frac")
            tracer.save(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
            record.update(op_seconds=plain, traced_op_seconds=traced, absent=tracer.absent)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_frac = ops.failed / ops.attempted
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result=result, ops_failed_frac=failed_frac)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {json.dumps(env)}")
    if args.trace == 0:
        q1, q3 = quartiles(times)
        print(f"# {len(times)} timed operations, raw seconds: median "
              f"{statistics.median(times):.4f}, quartiles {q1:.4f}-{q3:.4f}, max "
              f"{max(times):.4f}; speed probe median {statistics.median(probes):.5f} s "
              f"(reference {REFERENCE_SPEED_S} s)")
    else:
        for absent in tracer.absent:
            print(f"# absent: {absent}")
    for key, (value, unit) in metrics.items():
        print(f"{args.workload:12} {key:40} {value:14.6g} {unit}")
    print(f"{args.workload:12} {'ops_failed_frac':40} {failed_frac:14.6g} frac")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
