"""Command-line laboratory: one subcommand per experiment plus `all`.

Each subcommand's runner in REGISTRY is called with its resolved experiment
block as `runner(sys_, config, block, seed) -> (results, tables)`; `tables`
maps each CSV file name to its `(header, rows)`, in write order.  `_run`
alone writes the files, and a run fails when some runner's results carry a
`verdict` other than `holds`.

Runs are deterministic: a (config, seed) pair yields bit-identical reports,
so no timestamps or machine identifiers appear in any output.  Each run
writes its CSV data files plus one JSON summary embedding the full resolved
configuration.  Files land atomically (temp file in the target directory,
then rename), and a run that stops with an error removes the files it has
written, so it never leaves a partial report.

Exit codes: 0 success, 1 verification failure (a split certificate is
missing or falsified, an oracle row fails, or a coding invariance residual
exceeds its bound), 2 configuration or other domain error (a report that
cannot be written included), 3 unexpected internal error (the traceback
goes to stderr), so a crash never reads as a failed verification.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys as _sys
import tempfile
import traceback
from collections.abc import Iterable
from dataclasses import asdict

import numpy as np

from . import __version__
from .config import build_system, experiment_block, load_config
from .errors import ConfigError, MarkovProdError
from .maps import MapSystem
from .markov_operator import build_initial, stability_experiment
from .oracle import default_grid, verify_bounds
from .shift import STATIONARY_TOL, sample_words
from .splitting import (
    SplitWitness,
    certify_split,
    normalize_witness,
    search_witness,
    verify_split_horizon,
)
from .synchronization import (
    coding_invariance,
    coding_point,
    ergodic_average,
    measure_contraction_experiment,
    sync_experiment,
    weak_hyperbolicity_experiment,
)

HOLDS = "holds"
FAILS = "fails"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _write_csv(path: str, header: list[str], rows: Iterable[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _resolve_witness(sys_: MapSystem, split_cfg: dict) -> SplitWitness | None:
    if split_cfg.get("word_a") is not None:
        return certify_split(sys_, tuple(split_cfg["word_a"]), tuple(split_cfg["word_b"]))
    return search_witness(sys_, split_cfg["max_len"])


def _split_status(sys_: MapSystem, config: dict) -> dict:
    """Cheap witness lookup recorded by the sampling experiments, whose
    conclusions are only meaningful for splitting systems."""
    split_cfg = experiment_block(config["experiments"], "split")
    try:
        witness = _resolve_witness(sys_, split_cfg)
    except MarkovProdError as exc:
        return {"certified": False, "detail": str(exc)}
    if witness is None:
        return {"certified": False, "detail": "no certificate found"}
    return {"certified": True, "witness": asdict(witness)}


def _run_stationary(sys_: MapSystem, config: dict, block: dict, seed: int):
    shift = sys_.shift
    p = shift.p
    rows = [[j + 1, float(p[j])] for j in range(shift.k)]
    residual = float(np.abs(p @ shift.P - p).max())
    results = {
        "classification": shift.classification,
        "p_stationary": [float(v) for v in p],
        "inverse_matrix": [[float(v) for v in row] for row in shift.Q],
        "stationarity_residual": residual,
        "verdict": HOLDS if residual <= STATIONARY_TOL else FAILS,
    }
    return results, {"stationary.csv": (["state", "p_stationary"], rows)}


def _run_split_check(sys_: MapSystem, config: dict, block: dict, seed: int):
    if block.get("word_a") is None:
        raise ConfigError("experiments.split.word_a and word_b are required for split-check")
    witness = certify_split(sys_, tuple(block["word_a"]), tuple(block["word_b"]))
    if witness is None:
        return {"witness": None, "verdict": FAILS, "detail": "pair admits no certificate"}, {}
    report = verify_split_horizon(
        sys_,
        witness.word_a,
        witness.word_b,
        block["horizon"],
        prefix_samples=block["prefix_samples"],
        cloud_size=block["cloud_size"],
        seed=seed,
    )
    rows = [[n, status] for n, status in enumerate(report.per_n)]
    results = {
        "witness": asdict(witness),
        "horizon": {
            "n_max": report.n_max,
            "exhaustive": report.exhaustive,
            "prefixes_checked": report.prefixes_checked,
            "certified_to": report.certified_to,
            "verdict": report.verdict,
            "violation": None
            if report.violation is None
            else {
                "n": report.violation[0],
                "coordinate": report.violation[1],
                "prefix": list(report.violation[2]),
            },
        },
        "verdict": FAILS if report.verdict == "violated" else HOLDS,
    }
    return results, {"horizon.csv": (["n", "status"], rows)}


def _run_split_search(sys_: MapSystem, config: dict, block: dict, seed: int):
    witness = search_witness(sys_, block["max_len"])
    if witness is None:
        detail = f"no witness up to length {block['max_len']}"
        return {"witness": None, "verdict": FAILS, "detail": detail}, {}
    results = {"witness": asdict(witness), "verdict": HOLDS}
    try:
        pair = normalize_witness(
            sys_, witness, block["normalize_mode"], strict_endpoints=block["strict_endpoints"]
        )
        results["normalized"] = asdict(pair)
    except MarkovProdError as exc:
        results["normalized"] = None
        results["normalize_error"] = str(exc)
    return results, {}


def _oracle_pair(sys_: MapSystem, config: dict, block: dict):
    if block.get("xi") is not None:
        return (tuple(block["xi"]), tuple(block["eta"])), None
    split_cfg = experiment_block(config["experiments"], "split")
    witness = _resolve_witness(sys_, split_cfg)
    if witness is None:
        raise ConfigError(
            "experiments.oracle needs xi/eta, or a split block that certifies a witness"
        )
    pair = normalize_witness(
        sys_, witness, split_cfg["normalize_mode"], strict_endpoints=split_cfg["strict_endpoints"]
    )
    return pair, witness


def _run_oracle(sys_: MapSystem, config: dict, block: dict, seed: int):
    pair, witness = _oracle_pair(sys_, config, block)
    grid = default_grid(sys_, block["s"], block["grid_points"])
    report = verify_bounds(
        sys_,
        pair,
        s=block["s"],
        x_grid=grid,
        ell_max=block["ell_max"],
        exact=block["exact"],
    )
    rows = [
        [row.ell, float(row.x), float(row.lhs), float(row.rhs), HOLDS if row.holds else FAILS]
        for row in report.rows
    ]
    results = {
        "word": list(report.word),
        "replacement": list(report.replacement),
        "block_length": report.block_length,
        "s": report.s,
        "swapped": report.swapped,
        "word_measure": float(report.word_measure),
        "replacement_measure": float(report.replacement_measure),
        "decay_floor": float(report.decay_floor),
        "exact": report.exact,
        "rows": len(report.rows),
        "rows_failing": sum(1 for row in report.rows if not row.holds),
        "witness": None if witness is None else asdict(witness),
        "verdict": HOLDS if report.all_hold else FAILS,
    }
    return results, {"oracle.csv": (["ell", "x", "lhs", "rhs", "verdict"], rows)}


def _run_operator(sys_: MapSystem, config: dict, block: dict, seed: int):
    initials = {
        kind: build_initial(sys_, kind, block["particles"], seed=seed + 31 * i)
        for i, kind in enumerate(block["initials"])
    }
    result = stability_experiment(
        sys_,
        initials,
        block["n_steps"],
        block["particles"],
        seed=seed,
        target_samples=block["target_samples"],
        target_depth=block["target_depth"],
    )
    rows = [[r.step, r.initial_id, r.distance, r.mass_gap] for r in result.rows]
    final = {
        name: next(r.distance for r in reversed(result.rows) if r.initial_id == name)
        for name in block["initials"]
    }
    results = {
        "mass_identity_error": result.mass_identity_error,
        "target_diameter": result.target_diameter,
        "final_distance": {k: float(v) for k, v in sorted(final.items())},
    }
    return results, {"operator.csv": (["step", "initial_id", "distance", "mass_gap"], rows)}


def _run_sync(sys_: MapSystem, config: dict, block: dict, seed: int):
    result = sync_experiment(
        sys_, block["trials"], block["n_max"], seed=seed, cloud_size=block["cloud_size"]
    )
    curve_rows = (
        [fit.trial, n, u, l]
        for fit, curve in zip(result.fits, result.curves)
        for n, u, l in zip(curve.n, curve.upper, curve.lower)
    )
    fit_rows = [[f.trial, f.q_hat, f.c_hat] for f in result.fits]
    results = {
        "max_q": result.max_q,
        "contracting_fraction": result.contracting_fraction,
        "trials": block["trials"],
        "split": _split_status(sys_, config),
    }
    return results, {
        "sync_curves.csv": (["trial", "n", "upper", "lower"], curve_rows),
        "sync_fits.csv": (["trial", "q_hat", "C_hat"], fit_rows),
    }


def _run_contract(sys_: MapSystem, config: dict, block: dict, seed: int):
    result = measure_contraction_experiment(sys_, block["trials"], block["n_max"], seed=seed)
    rows = ([r.trial, r.s, r.n, r.length] for r in result.rows)
    fit_rows = [[f.trial, f.s, f.q_hat, f.c_hat] for f in result.fits]
    results = {
        "max_q": max(f.q_hat for f in result.fits),
        "trials": block["trials"],
        "split": _split_status(sys_, config),
    }
    return results, {
        "contract_rows.csv": (["trial", "s", "n", "length"], rows),
        "contract_fits.csv": (["trial", "s", "q_hat", "C_hat"], fit_rows),
    }


def _run_weak_hyp(sys_: MapSystem, config: dict, block: dict, seed: int):
    result = weak_hyperbolicity_experiment(
        sys_, block["trials"], block["depth"], block["tol"], seed=seed
    )
    return asdict(result), {}


def _run_coding(sys_: MapSystem, config: dict, block: dict, seed: int):
    rows = []
    points = []
    for i, word in enumerate(block["words"]):
        point, bound = coding_point(sys_, tuple(word))
        rows.append([i, "".join(str(a) for a in word), *[float(v) for v in point], bound])
        points.append({"word": list(word), "point": [float(v) for v in point], "bound": bound})
    header = ["word_id", "word"] + [f"x{s}" for s in range(1, sys_.dim + 1)] + ["bound"]
    max_residual = max_allowance = 0.0
    violations = 0
    n_samples = block["invariance_samples"]
    if n_samples > 0:
        words = sample_words(sys_.shift, n_samples, block["depth"] + 1, inverse=True, seed=seed)
        max_residual, max_allowance, violations = coding_invariance(sys_, words)
    results = {
        "points": points,
        "invariance_samples": n_samples,
        "max_residual": max_residual,
        "max_allowance": max_allowance,
        "verdict": HOLDS if violations == 0 else FAILS,
    }
    return results, {"coding.csv": (header, rows)} if rows else {}


def _run_ergodic(sys_: MapSystem, config: dict, block: dict, seed: int):
    x = block["x"]
    if x is None:
        x = list(sys_.ambient.center())
    result = ergodic_average(
        sys_,
        tuple(x),
        tuple(block["phi"]),
        block["n"],
        seed=seed,
        target_samples=block["target_samples"],
    )
    results = {
        **asdict(result),
        "phi": list(block["phi"]),
        "x": [float(v) for v in x],
        "split": _split_status(sys_, config),
    }
    return results, {}


# Subcommand -> (experiment block, runner).  The parser offers these plus
# `all`, which runs them in this order, one per block present in the config.
REGISTRY = {
    "stationary": ("stationary", _run_stationary),
    "split-check": ("split", _run_split_check),
    "split-search": ("split", _run_split_search),
    "oracle": ("oracle", _run_oracle),
    "operator": ("operator", _run_operator),
    "sync": ("sync", _run_sync),
    "contract": ("contract", _run_contract),
    "weak-hyp": ("weak_hyp", _run_weak_hyp),
    "coding": ("coding", _run_coding),
    "ergodic": ("ergodic", _run_ergodic),
}


def _all_subcommands(experiments: dict) -> list[str]:
    """The subcommands `all` runs: one per configured block, split-check when
    the split block names a word pair and split-search otherwise."""
    names = [name for name, (block_name, _) in REGISTRY.items() if block_name in experiments]
    if "split" in experiments:
        names.remove("split-search" if experiments["split"]["word_a"] is not None else "split-check")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovprod",
        description="Laboratory for Markovian random products of monotone maps.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in [*REGISTRY, "all"]:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to the JSON experiment config")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--out", default=None, help="override the config output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except MarkovProdError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except Exception:
        traceback.print_exc(file=_sys.stderr)
        print("internal error: the run crashed (traceback above)", file=_sys.stderr)
        return 3


def _run(args: argparse.Namespace) -> int:
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    config = load_config(args.config)
    sys_ = build_system(config)
    seed = config["seed"] if args.seed is None else args.seed
    outdir = args.out if args.out is not None else config["out"]
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {outdir}: {exc}") from exc

    names = _all_subcommands(config["experiments"]) if args.subcommand == "all" else [args.subcommand]
    results = {}
    written = []
    try:
        for name in names:
            block_name, runner = REGISTRY[name]
            block = experiment_block(config["experiments"], block_name)
            results[name], tables = runner(sys_, config, block, seed)
            for filename in tables:
                _write_csv(os.path.join(outdir, filename), *tables[filename])
                written.append(os.path.join(outdir, filename))
            del tables  # free the rows before the next runner starts
        ok = all(result.get("verdict", HOLDS) == HOLDS for result in results.values())
        if args.subcommand != "all":
            results = results[args.subcommand]
        summary = {
            "version": __version__,
            "subcommand": args.subcommand,
            "seed": seed,
            "config": config,
            "results": results,
            "verdict": HOLDS if ok else FAILS,
        }
        path = os.path.join(outdir, f"summary-{args.subcommand}.json")
        _atomic_write(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    except BaseException:
        for csv_path in written:  # leave no partial report behind
            with contextlib.suppress(OSError):
                os.remove(csv_path)
        raise
    print(f"{args.subcommand}: {summary['verdict']} ({path})")
    for csv_path in written:
        print(f"  wrote {csv_path}")
    return 0 if ok else 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
