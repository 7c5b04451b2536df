"""Run the benchmark over several seeds and summarise the spread of each metric.

Usage, from the root of a source checkout:

    python3 perfbench/baseline.py --seeds 1-10 [--workloads report_1d,oracle_exact]
        [--trace-seed 1] [--write perfbench/baseline.json]

For every workload, runs `perfbench/run.py --trace 0` once per seed with the
`run_seconds` of BENCHMARK.json, one run at a time.  For each end-to-end
metric it prints the median of the per-seed values, their quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread
(Q3 - Q1) / median next to a third of the metric's bound.  With
`--trace-seed`, one traced run per workload adds the per-layer metrics.
`--write` stores everything, with the machine facts, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--write", default=None, help="path of the JSON summary to write")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    report: dict = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        per_metric: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in seeds:
            result, lines = run_once(workload, seed, seconds, 0)
            report.setdefault("machine", next((l for l in lines if l.startswith("machine ")), ""))
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4f}" for n, m in result["metrics"].items())
                + f" failed {result['failed']}/{result['attempted']}", flush=True)
        entry = {"attempted": attempted, "failed": failed, "end_to_end": {}}
        for name, values in per_metric.items():
            stats = summarise(values)
            entry["end_to_end"][name] = stats
            flag = "" if stats["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {workload} {name}: median {stats['median']:.4f}, "
                  f"Q1 {stats['q1']:.4f}, Q3 {stats['q3']:.4f}, spread {stats['spread']:.4f} "
                  f"(bound/3 {bounds[name] / 3:.4f}){flag}", flush=True)
        if args.trace_seed is not None:
            result, _ = run_once(workload, args.trace_seed, seconds, 1)
            entry["per_layer"] = {n: m["value"] for n, m in result["metrics"].items()}
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
        report["workloads"][workload] = entry

    if args.write:
        Path(args.write).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
