"""Interleaved benchmark runs of a git revision and of this checkout.

Usage, from anywhere inside a source checkout:

    python3 tools/bench_pairs.py REV [--workload W ...] [--seed 3] [--label NAME]

`src/`, `configs/` and `perfbench/` of REV are extracted with `git archive`
(as `tools/golden_diff.py` does) into one directory of a temporary
directory, and the same three directories of this checkout, as they are in
the working tree, are copied into another beside it whose path has the same
length, so a run's memory and time do not depend on where its tree lives.
For each workload (by default every one in `perfbench/run.py`), the tool
then runs `perfbench/run.py --workload W --seed S --seconds T --trace 0` of
each tree on that tree, with T the `run_seconds` of the checkout's BENCHMARK.json,
`PAIRS` (10) times each, one pair at a time: pair i runs REV first when i
is even and this checkout first when i is odd, so slow drift of the machine
falls on both sides alike.  Ten pairs is the fewest that can show a gain
won in nine tenths of them, so the count is fixed.

Every run's JSON result line goes, with its workload, pair, side and place
in the pair, to `BENCH_<rev>_<label>.json` in the root of the checkout
(`<label>` defaults to `git describe --always --dirty` of the checkout).
The file also holds, per workload and end-to-end metric, each side's median
and quartiles (as `statistics.quantiles(values, n=4)` gives them, the same
as `perfbench/baseline.py`) and how many pairs the checkout won, which the
tool prints too.  A claimed gain needs wins in at least nine tenths of the pairs and
medians further apart than the distance between REV's quartiles.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from golden_diff import ROOT, extract  # noqa: E402

SIDES = ("rev", "change")
PAIRS = 10
TREE_PATHS = ("src", "configs", "perfbench")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` invocation of `tree` on that tree:
    the JSON object on the last line of its standard output."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=tree, stdin=subprocess.DEVNULL, capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_pairs(trees: dict[str, Path], workloads: list[str], pairs: int, run_one) -> list[dict]:
    """`pairs` runs of each workload on both trees, `run_one(tree, workload)`
    giving one result; pair i runs the "rev" side first when i is even."""
    runs = []
    for workload in workloads:
        for pair in range(pairs):
            for place, side in enumerate(SIDES if pair % 2 == 0 else SIDES[::-1]):
                result = run_one(trees[side], workload)
                runs.append({"workload": workload, "pair": pair, "side": side,
                             "first": place == 0, "result": result})
                print(f"{workload} pair {pair} {side}: "
                      + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs: list[dict]) -> dict:
    """Per workload and metric: each side's quartiles, the pairs the change
    won (a lower value wins; ties count for neither side) and the pairs
    run, and whether every run of both sides was correct."""
    summary: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair = {(r["pair"], r["side"]): r["result"] for r in mine}
        pair_ids = sorted({r["pair"] for r in mine})
        entry: dict = {"correct": all(r["result"]["correct"] for r in mine)}
        for metric in mine[0]["result"]["metrics"]:
            values = {side: [by_pair[p, side]["metrics"][metric]["value"] for p in pair_ids]
                      for side in SIDES}
            wins = sum(c < r for r, c in zip(values["rev"], values["change"]))
            entry[metric] = {
                **{side: dict(zip(("q1", "median", "q3"), quartiles(values[side]))) for side in SIDES},
                "change_wins": wins,
                "pairs": len(pair_ids),
            }
        summary[workload] = entry
    return summary


def label_of_checkout() -> str:
    return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as bench

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--workload", action="append", choices=sorted(bench.WORKLOADS),
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--label", help="name of this checkout in the output file")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    rev = subprocess.run(["git", "rev-parse", "--short", args.rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    label = args.label or label_of_checkout()
    workloads = args.workload or sorted(bench.WORKLOADS)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"rev": Path(tmp) / "rev", "change": Path(tmp) / "new"}
        extract(rev, trees["rev"], TREE_PATHS)
        for name in TREE_PATHS:
            shutil.copytree(ROOT / name, trees["change"] / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        runs = run_pairs(trees, workloads, PAIRS, lambda tree, w: run_bench(tree, w, args.seed, seconds))

    summary = summarize(runs)
    record = {"rev": rev, "change": label, "seed": args.seed, "run_seconds": seconds,
              "pairs": PAIRS, "summary": summary, "runs": runs}
    path = ROOT / f"BENCH_{rev}_{label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for workload, entry in summary.items():
        for metric, s in entry.items():
            if metric != "correct":
                print(f"{workload} {metric}: rev {s['rev']['median']:.4g} "
                      f"[{s['rev']['q1']:.4g}, {s['rev']['q3']:.4g}], change {s['change']['median']:.4g} "
                      f"[{s['change']['q1']:.4g}, {s['change']['q3']:.4g}], "
                      f"change wins {s['change_wins']}/{s['pairs']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
