"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/collect.py                       # every workload, seeds 1..10
    python3 perfbench/collect.py --seeds 1 --no-trace  # one quick pass
    python3 perfbench/collect.py --out perfbench/trajectory/BENCH_2.json

For each workload it runs ``run.py --trace 0`` once per seed, one after the
other, and prints every end-to-end metric of BENCHMARK.json by name and unit
as a median with its quartiles and the spread (q3 - q1) / median next to the
metric's bound, plus ops_failed_frac over all runs. Unless ``--no-trace`` is
given it then makes one ``--trace 1`` run per workload and prints the
per-layer table. ``--out`` writes all of it as one JSON file, which is how the
points of the bench trajectory in ``trajectory/`` are made.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env, result = json.loads(lines[0][2:]), json.loads(lines[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != declared:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(result['metrics']) ^ declared}")
    return env, result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {"benchmark": spec, "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    started = time.time()
    for name in names:
        runs, env = [], None
        for seed in report["seeds"]:
            env, result = run_once(name, seed, seconds, 0)
            runs.append(result)
        entry = {"env": env, "runs": runs, "end_to_end": {}}
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3, "spread": rel,
                "bound": metric["bound"], "values": values,
            }
            print(f"{name:12} {metric['name']:16} {med:12.6g} {metric['unit']:5} "
                  f"q1 {q1:10.6g} q3 {q3:10.6g} spread {rel:7.4f} bound {metric['bound']}")
        entry["ops_failed_frac"] = failed / attempted
        print(f"{name:12} {'ops_failed_frac':16} {failed / attempted:12.6g} frac  "
              f"({failed} of {attempted} operations)")
        if not args.no_trace:
            _, traced = run_once(name, report["seeds"][0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_correct"] = traced["correct"]
            for key, value in entry["per_layer"].items():
                print(f"{name:12} {key:40} {value:14.6g} {traced['metrics'][key]['unit']}")
        report["workloads"][name] = entry
        sys.stdout.flush()
    report["elapsed_s"] = time.time() - started
    print(f"elapsed {report['elapsed_s']:.0f} s")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
