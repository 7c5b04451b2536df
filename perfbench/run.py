"""End-to-end benchmark of the markovprod command-line laboratory.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload report_1d --seed 3 --seconds 28 --trace 0

Each workload is one CLI invocation, run as a fresh
`python -m markovprod.cli ...` process with `src` on PYTHONPATH, in a closed
loop: one client, one process at a time, each waiting for the previous one.
All runs of one invocation use the same `--seed`, so their output files must
be byte-identical; every run is also checked against the workload's
acceptance conditions, and a run that fails either check counts as failed.

`--trace 0` reports the end-to-end metrics (wall time, set-up time and peak
RSS).  `--trace 1` spends half the time on untraced runs, then makes one
traced run (perfbench/traced.py) and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it print every metric
with its unit and sample count, plus the machine facts the numbers depend on.

Scratch output goes to `.perfbench/` in the checkout and is removed at the
end, except the raw spans of the last traced run of each workload.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
TRACED = Path(__file__).resolve().parent / "traced.py"

# Runs per invocation: two, so that every invocation compares the output
# bytes of two runs with one seed, even when one run takes most of --seconds.
MIN_RUNS = 2
SETUP_PROBES = 7
# Children still running this long after the start are killed (and count as
# failed), so that the whole invocation ends within three minutes.
TIME_LIMIT_S = 165.0

SETUP_CODE = (
    "import sys\n"
    "import markovprod.cli as cli\n"
    "cli.build_system(cli.load_config(sys.argv[1]))\n"
)

HOLDS = "holds"

# The ergodic check compares two independent estimates through their
# standard errors.  It is a statistical test, and the benchmark runs it on
# every seed the caller chooses: at 3 sigma a correct run fails about once
# in 370 seeds (seed 22 of cantor_iid sits at 3.48 sigma), so the gate is
# 5 sigma, a false alarm about once in 1.7 million runs.
ERGODIC_SIGMAS = 5.0


def _check_report(results: dict) -> list[str]:
    problems = []
    operator = results["operator"]
    if not operator["mass_identity_error"] <= 1e-12:
        problems.append(f"operator.mass_identity_error {operator['mass_identity_error']!r} > 1e-12")
    for name, distance in operator["final_distance"].items():
        if not distance < 0.02:
            problems.append(f"operator.final_distance[{name}] {distance!r} >= 0.02")
    max_q = results["sync"]["max_q"]
    if not abs(max_q - 1.0 / 3.0) <= 1e-6:
        problems.append(f"sync.max_q {max_q!r} is not 1/3 within 1e-6")
    if results["weak-hyp"]["fraction"] != 1.0:
        problems.append(f"weak-hyp.fraction {results['weak-hyp']['fraction']!r} != 1")
    erg = results["ergodic"]
    allowed = ERGODIC_SIGMAS * math.hypot(erg["batch_sigma"], erg["reference_sigma"])
    if not abs(erg["average"] - erg["reference"]) <= allowed:
        problems.append(
            f"ergodic.average {erg['average']!r} is more than {allowed!r} "
            f"from the reference {erg['reference']!r}"
        )
    return problems


def _check_oracle(results: dict) -> list[str]:
    problems = []
    if results["rows"] != 330:
        problems.append(f"oracle.rows {results['rows']!r} != 330")
    if results["rows_failing"] != 0:
        problems.append(f"oracle.rows_failing {results['rows_failing']!r} != 0")
    return problems


def _check_certify(results: dict) -> list[str]:
    problems = []
    verdict = results["split-check"]["horizon"]["verdict"]
    if verdict != "certified":
        problems.append(f"split-check horizon verdict {verdict!r} != 'certified'")
    if results["weak-hyp"]["fraction"] != 1.0:
        problems.append(f"weak-hyp.fraction {results['weak-hyp']['fraction']!r} != 1")
    coding = results["coding"]
    if not coding["max_residual"] <= coding["max_allowance"]:
        problems.append(
            f"coding.max_residual {coding['max_residual']!r} > max_allowance {coding['max_allowance']!r}"
        )
    return problems


@dataclass(frozen=True)
class Workload:
    """One CLI invocation: subcommand, a shipped config, and the experiment
    blocks that replace the shipped ones (None keeps the shipped config)."""

    subcommand: str
    config: str
    experiments: dict | None
    check: Callable[[dict], list[str]]


# Why each workload is here is recorded in BENCHMARK.json; in short:
# report_1d and report_2d are the headline `all` runs (1-D Moebius and 2-D
# affine paths through the same layers), oracle_exact is the pure-Python
# Fraction enumeration that the operator and orbit do not touch, and
# certify_moebius is the enclosure-kernel-bound certification mix.
WORKLOADS = {
    "report_1d": Workload("all", "configs/cantor_iid.json", None, _check_report),
    "report_2d": Workload("all", "configs/diagonal_2d.json", None, _check_report),
    "oracle_exact": Workload(
        "oracle",
        "configs/cantor_markov.json",
        {
            "oracle": {
                "xi": [1, 1],
                "eta": [1, 2],
                "ell_max": 10,
                "grid_points": 33,
                "exact": True,
            }
        },
        _check_oracle,
    ),
    "certify_moebius": Workload(
        "all",
        "configs/moebius_pair.json",
        {
            "split": {"word_a": [1, 1], "word_b": [2, 1], "horizon": 14},
            "sync": {"trials": 1000},
            "contract": {"trials": 200},
            "weak_hyp": {"trials": 100000, "depth": 40},
            "coding": {"words": [[1, 2] * 20], "invariance_samples": 4000},
        },
        _check_certify,
    ),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Public functions the traced run wraps, as module.function.
TRACED_FUNCTIONS = (
    "config.load_config",
    "config.build_system",
    "shift.sample_words",
    "shift.sample_word",
    "maps.box_image",
    "maps.evaluate_map",
    "maps.reverse_box",
    "maps.reverse_composition",
    "maps.forward_box_chain",
    "maps.map_points",
    "maps.map_boxes",
    "maps.batch_reverse_points",
    "maps.batch_reverse_boxes",
    "splitting.verify_split_horizon",
    "splitting.certify_split",
    "oracle.verify_bounds",
    "oracle.avoidance_measure",
    "oracle.membership_measure",
    "markov_operator.stability_experiment",
    "markov_operator.estimate_target",
    "markov_operator.apply_operator",
    "markov_operator.resample",
    "markov_operator.weak_star_distance",
    "markov_operator.state_mass",
    "synchronization.ergodic_average",
    "synchronization.sync_experiment",
    "synchronization.measure_contraction_experiment",
    "synchronization.weak_hyperbolicity_experiment",
    "synchronization.coding_point",
    "cli.main",
)

# Per-layer metrics beyond calls / inclusive seconds / self seconds.
LAYER_EXTRAS = {
    "maps.map_points.rows": "count",
    "maps.map_boxes.rows": "count",
    "splitting.horizon.prefixes": "count",
    "oracle.rows": "count",
    "oracle.enumerated_words": "count",
    "oracle.membership_words": "count",
    "oracle.avoidance_words": "count",
    "oracle.membership_hit_ratio": "ratio",
    "markov_operator.particle_steps_per_s": "1/s",
    "markov_operator.resample.distinct_ratio": "ratio",
    "synchronization.ergodic.steps_per_s": "1/s",
    "cli.output_bytes": "B",
    "cli.files_written": "count",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(LAYER_EXTRAS)
    return units


def check_run(workload: Workload, returncode: int, outputs: dict[str, bytes],
              reference: dict[str, bytes] | None) -> list[str]:
    """Problems with one run's exit code and output files; empty when the
    run passes.  `reference` is the output of an earlier run with the same
    seed, which this one must reproduce byte for byte."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    name = f"summary-{workload.subcommand}.json"
    try:
        summary = json.loads(outputs[name])
        if summary["verdict"] != HOLDS:
            problems.append(f"verdict {summary['verdict']!r}")
        problems.extend(workload.check(summary["results"]))
    except KeyError as exc:
        problems.append(f"{name} lacks {exc}")
    except (ValueError, TypeError) as exc:
        problems.append(f"{name} is malformed: {exc}")
    if reference is not None and outputs != reference:
        differing = sorted(
            n for n in set(outputs) | set(reference) if outputs.get(n) != reference.get(n)
        )
        problems.append(f"output differs from the first run with this seed: {', '.join(differing)}")
    return problems


def read_outputs(outdir: Path) -> dict[str, bytes]:
    if not outdir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.is_file()}


@dataclass(frozen=True)
class Exit:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mib: float


def spawn(argv: list[str], stderr_path: Path, deadline: float) -> Exit:
    """Run one child to completion, killing it at `deadline` (a
    time.perf_counter value), and take its own resource usage from wait4,
    which, unlike RUSAGE_CHILDREN, is not a maximum over every child reaped
    so far."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def workload_config(workload: Workload, run_dir: Path) -> Path:
    """The config file the workload runs: the shipped one, or a copy of it
    whose experiment blocks are replaced by the workload's own."""
    shipped = ROOT / workload.config
    if workload.experiments is None:
        return shipped
    config = json.loads(shipped.read_text(encoding="utf-8"))
    config["experiments"] = workload.experiments
    path = run_dir / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path


@dataclass
class Runs:
    """What the runs of one invocation have produced so far."""

    deadline: float
    walls: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reference: dict[str, bytes] | None = None


def record(runs: Runs, workload: Workload, exit_: Exit, outdir: Path, label: str,
           extra_problems: tuple[str, ...] = ()) -> dict[str, bytes]:
    outputs = read_outputs(outdir)
    problems = check_run(workload, exit_.returncode, outputs, runs.reference) + list(extra_problems)
    if runs.reference is None:
        runs.reference = outputs
    runs.attempted += 1
    if problems:
        runs.failed += 1
        stderr = outdir.with_suffix(".err").read_text(errors="replace").strip()
        print(f"FAILED {label}: " + "; ".join(problems), flush=True)
        if stderr:
            print("  stderr: " + stderr.splitlines()[-1], flush=True)
    else:
        runs.walls.append(exit_.wall_s)
        runs.rss.append(exit_.maxrss_mib)
    return outputs


def closed_loop(workload: Workload, config: Path, seed: int, budget_s: float,
                min_runs: int, run_dir: Path, runs: Runs) -> list[Exit]:
    """Run the workload back to back until another run would overrun the
    budget, with at least `min_runs` runs."""
    exits: list[Exit] = []
    start = time.perf_counter()
    while True:
        outdir = run_dir / f"run{len(exits)}"
        argv = [sys.executable, "-m", "markovprod.cli", workload.subcommand,
                "--config", str(config), "--seed", str(seed), "--out", str(outdir)]
        exit_ = spawn(argv, outdir.with_suffix(".err"), runs.deadline)
        exits.append(exit_)
        print(f"  run {len(exits)}: {exit_.wall_s:.4f} s wall, {exit_.cpu_s:.4f} s cpu, "
              f"{exit_.maxrss_mib:.1f} MiB", flush=True)
        record(runs, workload, exit_, outdir, f"run {len(exits)}")
        shutil.rmtree(outdir, ignore_errors=True)
        elapsed = time.perf_counter() - start
        typical = statistics.median(e.wall_s for e in exits)
        if len(exits) >= min_runs and elapsed + typical > budget_s:
            return exits


def setup_times(config: Path, run_dir: Path, runs: Runs) -> list[float]:
    """Wall seconds of fresh interpreters that import the CLI and build the
    workload's system; a probe that exits non-zero counts as a failed run."""
    times = []
    for _ in range(SETUP_PROBES):
        exit_ = spawn([sys.executable, "-c", SETUP_CODE, str(config)], run_dir / "setup.err",
                      runs.deadline)
        if exit_.returncode != 0:
            runs.attempted += 1
            runs.failed += 1
            print(f"FAILED set-up probe: exit code {exit_.returncode}", flush=True)
        times.append(exit_.wall_s)
    return times


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, or None
    when there are fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    q = math.floor(100 * (n - 10) / n)
    return q, ordered[max(0, math.ceil(q / 100 * n) - 1)]


def openblas_threads() -> str:
    """Thread count of the OpenBLAS that NumPy loaded, or 'unknown'."""
    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> dict[str, str]:
    import numpy

    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS", openblas_threads()),
    }


def traced_run(workload: Workload, config: Path, seed: int, run_dir: Path, runs: Runs,
               untraced_median: float, spans_path: Path) -> dict[str, float]:
    outdir = run_dir / "traced"
    layers_path = run_dir / "layers.json"
    argv = [sys.executable, str(TRACED), str(layers_path), str(spans_path), "--",
            workload.subcommand, "--config", str(config), "--seed", str(seed), "--out", str(outdir)]
    exit_ = spawn(argv, outdir.with_suffix(".err"), runs.deadline)
    try:
        layers = json.loads(layers_path.read_text(encoding="utf-8"))
        extra = tuple(f"oracle replay: {p}" for p in layers["replay_problems"])
    except (OSError, ValueError) as exc:
        layers = {"functions": {}, "counts": {}, "replay_s": 0.0}
        extra = (f"no layer report ({exc})",)
    outputs = record(runs, workload, exit_, outdir, "traced run", extra)

    metrics: dict[str, float] = {}
    functions = layers["functions"]
    for name in TRACED_FUNCTIONS:
        entry = functions.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.s"] = entry["s"]
        metrics[f"{name}.self_s"] = entry["self_s"]
    counts = layers["counts"]
    for name in ("maps.map_points.rows", "maps.map_boxes.rows", "splitting.horizon.prefixes",
                 "oracle.rows", "oracle.enumerated_words", "oracle.membership_words",
                 "oracle.avoidance_words"):
        metrics[name] = counts.get(name, 0)
    metrics["oracle.membership_hit_ratio"] = _ratio(
        counts.get("oracle.membership_words", 0), counts.get("oracle.enumerated_words", 0))
    metrics["markov_operator.particle_steps_per_s"] = _ratio(
        counts.get("markov_operator.particle_steps", 0),
        metrics["markov_operator.stability_experiment.s"])
    metrics["markov_operator.resample.distinct_ratio"] = _ratio(
        counts.get("markov_operator.resample.distinct", 0),
        counts.get("markov_operator.resample.slots", 0))
    metrics["synchronization.ergodic.steps_per_s"] = _ratio(
        counts.get("synchronization.ergodic.steps", 0),
        metrics["synchronization.ergodic_average.self_s"])
    metrics["cli.output_bytes"] = sum(len(b) for b in outputs.values())
    metrics["cli.files_written"] = len(outputs)
    # The oracle replay is extra work of the traced run, not tracing cost.
    metrics["trace.overhead_s"] = exit_.wall_s - layers["replay_s"] - untraced_median
    shutil.rmtree(outdir, ignore_errors=True)
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]

    missing = [p for p in (SRC / "markovprod" / "cli.py", ROOT / workload.config) if not p.is_file()]
    if missing:
        print("perfbench: not a markovprod source checkout, missing "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing), file=sys.stderr)
        return 2

    runs = Runs(deadline=time.perf_counter() + TIME_LIMIT_S)
    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        config = workload_config(workload, run_dir)
        env = environment()
        print(f"workload {args.workload}: {workload.subcommand} on {workload.config}"
              f"{' (bench-owned experiment blocks)' if workload.experiments else ''}, "
              f"seed {args.seed}, closed loop, 1 client", flush=True)
        print("machine " + ", ".join(f"{k}={v}" for k, v in env.items()), flush=True)
        if args.trace:
            exits = closed_loop(workload, config, args.seed, args.seconds / 2, 1, run_dir, runs)
            untraced = statistics.median(e.wall_s for e in exits)
            spans_path = SCRATCH / f"spans-{args.workload}.npz"
            metrics = traced_run(workload, config, args.seed, run_dir, runs, untraced, spans_path)
            units = per_layer_units()
            for name, value in metrics.items():
                print(f"  {name} = {value:.6g} {units[name]}", flush=True)
        else:
            setups = setup_times(config, run_dir, runs)
            exits = closed_loop(workload, config, args.seed, args.seconds, MIN_RUNS, run_dir, runs)
            walls = runs.walls or [e.wall_s for e in exits]
            rss = runs.rss or [e.maxrss_mib for e in exits]
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(rss),
            }
            tail = tail_percentile(walls)
            tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                         else "no percentile has 10 samples above it")
            print(f"  wall_s = {metrics['wall_s']:.4f} s (median of {len(walls)} runs, "
                  f"fastest {min(walls):.4f} s; {tail_text})")
            print(f"  setup_s = {metrics['setup_s']:.4f} s (median of {len(setups)} fresh interpreters)")
            print(f"  peak_rss_mb = {metrics['peak_rss_mb']:.2f} MiB (median of {len(rss)} runs)")
            units = END_TO_END
        print(f"  failed_share = {runs.failed}/{runs.attempted}", flush=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
