"""Wall time, minor page faults and peak RSS of each stage of one `all` run.

Usage, from anywhere inside a source checkout:

    python3 tools/stage_peaks.py (--config PATH | --workload W) [--seed 3] [--rev REV]

The tool starts one fresh interpreter with the `src/` of this checkout (or,
with `--rev`, of that git revision, extracted with `git archive` as
`tools/golden_diff.py` does) first on `sys.path`.  That interpreter runs
`markovprod all` on the config (a file, or the one `perfbench/run.py` gives
for workload W) through `cli.main`, with its output directory in a
temporary directory.  Each runner in `cli.REGISTRY` is wrapped to read
`resource.getrusage(RUSAGE_SELF)` when it is entered, and one more read
follows the run, so only the tool's own process counts and the stages are
exactly those `all` runs, results kept, CSV files written and all.

One line per stage is printed: the wall seconds of the stage, the minor
page faults taken during it, and `ru_maxrss` at its end.  A stage ends
where the next runner starts, so it includes writing its CSV files; the
last one includes writing the summary.  `ru_maxrss` is the high-water mark
of the process so far, so a stage's figure includes whatever earlier stages
left on the heap.  The first line, `setup`, covers the imports, the config
and the system.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def measure(src: str, config_path: str, seed: int, outdir: str) -> int:
    """Run `markovprod all` in this process and print one JSON line per stage."""
    import contextlib
    import resource
    import time

    marks = [("setup", time.perf_counter(), 0, 0)]
    sys.path.insert(0, src)
    from markovprod import cli

    def mark(stage: str) -> None:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        marks.append((stage, time.perf_counter(), usage.ru_minflt, usage.ru_maxrss))

    def entered(stage, runner):
        def run(*args):
            mark(stage)
            return runner(*args)
        return run

    for stage, (block_name, runner) in cli.REGISTRY.items():
        cli.REGISTRY[stage] = (block_name, entered(stage, runner))
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(["all", "--config", config_path, "--seed", str(seed), "--out", outdir])
    mark("end")
    if code > 1:  # 1 is a failed verdict; the stages still ran
        return code
    for (stage, start, faults, _), (_, end, faults_end, maxrss) in zip(marks, marks[1:]):
        print(json.dumps({"stage": stage, "wall_s": end - start, "minflt": faults_end - faults,
                          "maxrss_mib": maxrss / 1024}), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--config", help="path to a JSON experiment config")
    which.add_argument("--workload", help="a workload of perfbench/run.py")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--rev", help="git revision whose src/ runs instead of this checkout's")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = ROOT / "src"
        if args.rev is not None:
            sys.path.insert(0, str(ROOT / "tools"))
            from golden_diff import extract

            extract(args.rev, tmp / "rev", ("src",))
            src = tmp / "rev" / "src"
        config = Path(args.config).resolve() if args.config else None
        if config is None:
            sys.path.insert(0, str(ROOT / "perfbench"))
            import run as bench

            config = bench.workload_config(bench.WORKLOADS[args.workload], tmp)
        (tmp / "out").mkdir()
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import stage_peaks; "
                "sys.exit(stage_peaks.measure(sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5]))")
        out = subprocess.run([sys.executable, "-c", code, str(ROOT / "tools"), str(src), str(config),
                              str(args.seed), str(tmp / "out")],
                             stdin=subprocess.DEVNULL, capture_output=True, text=True)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr, end="")
            return out.returncode
    print(f"{'stage':<12} {'wall_s':>8} {'minflt':>8} {'maxrss_mib':>10}")
    for line in out.stdout.splitlines():
        row = json.loads(line)
        print(f"{row['stage']:<12} {row['wall_s']:>8.3f} {row['minflt']:>8} {row['maxrss_mib']:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
