"""Byte-compare the reports of this checkout with those of a git revision.

Usage, from anywhere inside a source checkout:

    python3 tools/golden_diff.py REV

`src/` and `configs/` of REV are extracted with `git archive` into a
temporary directory.  Then, for that tree and for this checkout's working
tree, and for each seed in `SEEDS`, the tool runs `python -m markovprod.cli`:

- `all` on every shipped config under the tree's own `configs/`;
- every benchmark workload of `perfbench/run.py` (`WORKLOADS`), with the
  config file that `workload_config` gives for it;
- the `EXTRA_RUNS`, which cover code paths that neither of the above
  reaches: the float oracle, the oracle on a 2-D system, the sampled-prefix
  horizon walk, an exhaustive horizon walk in 2-D whose frontier spans
  many blocks, a 2-D ergodic average that reads both coordinates, both
  connector searches of the split normalization, a tail connector of
  several edges on a 3-state chain, and the chain walks and orbit of a
  3-state system with two map classes.

Both trees run the same workload and extra config files, written once from
this checkout; an invocation that repeats a shipped-config run of the tree
byte for byte is run once.

Every run writes to its own output directory.  The two trees must agree on
each run's exit code and on the name and bytes of every file it writes.
Exits 0 when everything is identical, 1 when something differs (each
difference is listed), and 2 when a run exits with a code other than 0 or 1
in either tree, since its outputs then prove nothing.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1)

# Every shipped oracle block sets `exact: true` on a 1-D system, none sets
# `prefix_samples`, and the shipped 2-D horizon (10) spans only a few
# blocks of the walk (`maps.BLOCK_POINTS`) at its last depth, so these
# runs are the only ones to byte-compare the float oracle, the oracle's
# membership walk on a 2-D system (in both modes, and on the second
# coordinate), the sampled horizon walk and a 2-D exhaustive walk over 16
# times as many blocks.  The shipped 2-D ergodic run reads coordinate 1 only,
# so one entry byte-compares the second coordinate of the 2-D orbit.  Every
# shipped split block normalizes an equal-length witness in the primitive
# mode, which takes no connector, so the three split-search entries
# byte-compare the head connector of the row-positive mode and the tail
# connector that `strict_endpoints` forces.  Those connectors are on 2 states; the
# Wielandt entry swaps in `WIELANDT` (THREE_STATE's maps on the 3-state
# chain 1 -> 2 -> 3 -> {1, 2}), where `strict_endpoints` adds tail
# connectors of 3 and 2 edges to the witness (1, 2) / (2, 3, 2).
# No extra run is needed for the orbit's settle: at each of `SEEDS` the
# shipped cantor_markov `all` run steps some of its lanes again
# (`test_shipped_markov_orbit_reruns_lanes`), so it byte-compares that path.
# Every shipped chain has 2 states, so each row of its walk table has one
# cumulative entry that decides a step, and every shipped system has one map
# class; the last three entries swap in `THREE_STATE` to byte-compare walks
# on 3 states, forward (sync, ergodic) and inverse (weak-hyp), and a
# lockstep over two map classes.  Its 10^6-step orbit steps 4 lanes again at
# seed 0 and 2 at seed 1, so those runs also byte-compare the settle.
# Each entry is (label, subcommand, shipped config, block -> keys replaced in
# that block, which is created if absent; the "system" block is replaced
# whole).
THREE_STATE = {
    "ambient": {"lo": [0.0], "hi": [1.0]},
    "transition_matrix": [[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.3, 0.3, 0.4]],
    "maps": [
        {"kind": "moebius", "a": 1, "b": 0, "c": 0, "d": 3},
        {"kind": "moebius", "a": 1, "b": 2, "c": 0, "d": 3},
        {"kind": "affine", "matrix": [[0.5]], "offset": [0.25]},
    ],
}
WIELANDT = {**THREE_STATE, "transition_matrix": [[0, 1, 0], [0, 0, 1], [0.5, 0.5, 0]]}
EXTRA_RUNS = (
    ("oracle-float-cantor_markov", "oracle", "cantor_markov.json", {"oracle": {"exact": False}}),
    ("oracle-float-s2-diagonal_2d", "oracle", "diagonal_2d.json", {"oracle": {"exact": False, "s": 2}}),
    ("oracle-exact-diagonal_2d", "oracle", "diagonal_2d.json", {"oracle": {"exact": True}}),
    ("split-sampled-diagonal_2d", "split-check", "diagonal_2d.json", {"split": {"prefix_samples": 500}}),
    ("split-exhaustive-diagonal_2d", "split-check", "diagonal_2d.json", {"split": {"horizon": 14}}),
    ("ergodic-product-diagonal_2d", "ergodic", "diagonal_2d.json", {"ergodic": {"phi": ["product", 1, 2]}}),
    ("split-row-positive-cantor_markov", "split-search", "cantor_markov.json",
     {"split": {"normalize_mode": "row-positive"}}),
    ("split-strict-cantor_markov", "split-search", "cantor_markov.json", {"split": {"strict_endpoints": True}}),
    ("split-strict-wielandt-cantor_markov", "split-search", "cantor_markov.json",
     {"system": WIELANDT, "split": {"strict_endpoints": True}}),
    ("ergodic-three-state-cantor_markov", "ergodic", "cantor_markov.json", {"system": THREE_STATE}),
    ("sync-three-state-cantor_markov", "sync", "cantor_markov.json", {"system": THREE_STATE}),
    ("weak-hyp-three-state-cantor_markov", "weak-hyp", "cantor_markov.json", {"system": THREE_STATE}),
)


@dataclass(frozen=True)
class Invocation:
    label: str
    subcommand: str
    config: Path


def compare_dirs(a: Path, b: Path) -> list[str]:
    """Differences between two output directories: files present in only
    one of them, and files whose bytes differ (with the first differing
    offset).  Empty when both hold the same files with the same bytes."""
    names_a = {p.name for p in a.iterdir() if p.is_file()} if a.is_dir() else set()
    names_b = {p.name for p in b.iterdir() if p.is_file()} if b.is_dir() else set()
    problems = [f"{name}: only in {a}" for name in sorted(names_a - names_b)]
    problems += [f"{name}: only in {b}" for name in sorted(names_b - names_a)]
    for name in sorted(names_a & names_b):
        x = (a / name).read_bytes()
        y = (b / name).read_bytes()
        if x != y:
            offset = next(
                (i for i, (u, v) in enumerate(zip(x, y)) if u != v), min(len(x), len(y))
            )
            problems.append(
                f"{name}: differs from byte {offset} ({len(x)} vs {len(y)} bytes)"
            )
    return problems


def extract(rev: str, dest: Path, paths: tuple[str, ...] = ("src", "configs")) -> None:
    """Unpack `paths` (by default `src/` and `configs/`) of a git revision into `dest`."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, *paths],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def invocations(tree: Path, workloads: list[Invocation]) -> list[Invocation]:
    """`all` on the tree's shipped configs, then the workload invocations
    that no shipped-config run already covers."""
    runs = [
        Invocation(f"all-{path.stem}", "all", path)
        for path in sorted((tree / "configs").glob("*.json"))
    ]
    seen = {(r.subcommand, r.config.read_bytes()) for r in runs}
    for w in workloads:
        key = (w.subcommand, w.config.read_bytes())
        if key not in seen:
            seen.add(key)
            runs.append(w)
    return runs


def run_cli(tree: Path, inv: Invocation, seed: int, outdir: Path) -> int:
    """Run one invocation with the tree's `src` first on the path; the
    child's stderr goes next to its output directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    argv = [sys.executable, "-m", "markovprod.cli", inv.subcommand,
            "--config", str(inv.config), "--seed", str(seed), "--out", str(outdir)]
    with open(outdir.with_suffix(".err"), "wb") as err:
        return subprocess.run(argv, cwd=tree, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=err).returncode


def workload_invocations(config_dir: Path) -> list[Invocation]:
    """The benchmark's invocations, read from perfbench/run.py."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as bench

    found = []
    for name, workload in sorted(bench.WORKLOADS.items()):
        run_dir = config_dir / name
        run_dir.mkdir()
        found.append(Invocation(name, workload.subcommand,
                                Path(bench.workload_config(workload, run_dir))))
    return found


def extra_invocations(config_dir: Path) -> list[Invocation]:
    """The `EXTRA_RUNS`, each with its config file written to `config_dir`."""
    found = []
    for label, subcommand, name, changes in EXTRA_RUNS:
        config = json.loads((ROOT / "configs" / name).read_text(encoding="utf-8"))
        for block, keys in changes.items():
            if block == "system":
                config["system"] = keys
            else:
                config["experiments"].setdefault(block, {}).update(keys)
        path = config_dir / f"{label}.json"
        path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        found.append(Invocation(label, subcommand, path))
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        base = Path(tmp)
        old_tree = base / "rev"
        old_tree.mkdir()
        extract(args.rev, old_tree)
        config_dir = base / "workload-configs"
        config_dir.mkdir()
        workloads = workload_invocations(config_dir) + extra_invocations(config_dir)
        trees = {"rev": old_tree, "work": ROOT}

        jobs = {}
        for tag, tree in trees.items():
            for inv in invocations(tree, workloads):
                for seed in SEEDS:
                    outdir = base / "out" / tag / f"{inv.label}-seed{seed}"
                    outdir.parent.mkdir(parents=True, exist_ok=True)
                    jobs[tag, inv.label, seed] = (tree, inv, seed, outdir)
        codes = {key: run_cli(*job) for key, job in jobs.items()}

        runs = sorted({(label, seed) for _, label, seed in jobs})
        differences = []
        crashed = []
        for label, seed in runs:
            name = f"{label} seed {seed}"
            missing = [tag for tag in trees if (tag, label, seed) not in jobs]
            if missing:
                differences.append(f"{name}: not run in {', '.join(missing)}")
                continue
            code_old, code_new = (codes[tag, label, seed] for tag in trees)
            out_old, out_new = (jobs[tag, label, seed][3] for tag in trees)
            crashed += [f"{name} ({tag}): exit code {codes[tag, label, seed]}"
                        for tag in trees if codes[tag, label, seed] not in (0, 1)]
            if code_old != code_new:
                differences.append(f"{name}: exit code {code_old} vs {code_new}")
            found = compare_dirs(out_old, out_new)
            differences += [f"{name}: {p}" for p in found]
            print(f"{name}: exit {code_old}/{code_new}, "
                  f"{'differs' if found else 'identical'}", flush=True)

    for line in crashed:
        print("CRASHED " + line)
    for line in differences:
        print("DIFFERS " + line)
    if crashed:
        return 2
    if differences:
        return 1
    print(f"identical: {len(runs)} runs per tree, every output byte equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
