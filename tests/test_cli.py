"""End-to-end tests of the command-line interface.

Every test drives ``markovprod.cli.main`` in-process so exit codes, stderr
messages, and report files can be asserted cheaply; one test runs the
``markovprod`` target declared under ``[project.scripts]`` in ``pyproject.toml``
in a real subprocess, the way the installed console script would.
"""

from __future__ import annotations

import argparse
import filecmp
import inspect
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import markovprod
from markovprod import cli
from markovprod.cli import main
from markovprod.config import EXPERIMENT_BLOCKS, build_system, load_config

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIGS_DIR = REPO_ROOT / "configs"


def cantor_config(**experiments) -> dict:
    """Fast two-state system (x/3 and (x+2)/3 under a mixing chain)."""
    return {
        "system": {
            "ambient": {"lo": [0.0], "hi": [1.0]},
            "transition_matrix": [[0.9, 0.1], [0.2, 0.8]],
            "maps": [
                {"kind": "moebius", "a": 1, "b": 0, "c": 0, "d": 3},
                {"kind": "moebius", "a": 1, "b": 2, "c": 0, "d": 3},
            ],
        },
        "seed": 0,
        "experiments": experiments,
    }


def moebius_config(**experiments) -> dict:
    """Non-affine pair whose image diameters depend on the sampled word."""
    return {
        "system": {
            "ambient": {"lo": [0.0], "hi": [1.0]},
            "transition_matrix": [[0.5, 0.5], [0.5, 0.5]],
            "maps": [
                {"kind": "moebius", "a": 1, "b": 0, "c": -1, "d": 4},
                {"kind": "moebius", "a": 0, "b": 2, "c": -1, "d": 3},
            ],
        },
        "seed": 0,
        "experiments": experiments,
    }


def write_config(tmp_path: Path, config: dict, name: str = "config.json") -> str:
    config = dict(config)
    config.setdefault("out", str(tmp_path / "reports"))
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def read_summary(tmp_path: Path, subcommand: str) -> dict:
    return json.loads((tmp_path / "reports" / f"summary-{subcommand}.json").read_text())


# ---------------------------------------------------------------------------
# successful runs and report contents


def test_stationary_run_writes_summary_and_csv(tmp_path, capsys):
    path = write_config(tmp_path, cantor_config(stationary={}))
    assert main(["stationary", "--config", path]) == 0

    out = capsys.readouterr().out
    assert "stationary: holds" in out
    assert "wrote" in out and "stationary.csv" in out

    summary = read_summary(tmp_path, "stationary")
    assert summary["verdict"] == "holds"
    assert summary["version"] == markovprod.__version__
    assert summary["subcommand"] == "stationary"
    assert summary["seed"] == 0
    assert summary["results"]["classification"] == "primitive"
    assert summary["results"]["stationarity_residual"] <= 1e-12
    assert summary["results"]["p_stationary"] == pytest.approx([2 / 3, 1 / 3])

    lines = (tmp_path / "reports" / "stationary.csv").read_text().splitlines()
    assert lines[0] == "state,p_stationary"
    assert len(lines) == 3


def test_summary_embeds_resolved_defaults(tmp_path):
    path = write_config(tmp_path, cantor_config(sync={"trials": 2, "n_max": 6}))
    assert main(["sync", "--config", path]) == 0

    summary = read_summary(tmp_path, "sync")
    assert summary["config"]["experiments"]["sync"] == {
        "trials": 2,
        "n_max": 6,
        "cloud_size": 256,
    }
    assert summary["config"] == load_config(path)
    assert summary["results"]["split"]["certified"] is True


def test_split_check_success_writes_horizon(tmp_path):
    cfg = cantor_config(split={"word_a": [1, 1], "word_b": [2, 1], "horizon": 5})
    path = write_config(tmp_path, cfg)
    assert main(["split-check", "--config", path]) == 0

    summary = read_summary(tmp_path, "split-check")
    assert summary["verdict"] == "holds"
    assert summary["results"]["witness"]["word_a"] == [1, 1]
    assert summary["results"]["witness"]["word_b"] == [2, 1]
    horizon = summary["results"]["horizon"]
    assert horizon["verdict"] == "certified"
    assert horizon["exhaustive"] is True
    assert horizon["certified_to"] == 5
    assert horizon["violation"] is None

    lines = (tmp_path / "reports" / "horizon.csv").read_text().splitlines()
    assert lines[0] == "n,status"
    assert len(lines) == 7  # header plus n = 0..5


def test_split_search_success_reports_normalized_pair(tmp_path):
    path = write_config(tmp_path, cantor_config(split={"max_len": 2}))
    assert main(["split-search", "--config", path]) == 0

    summary = read_summary(tmp_path, "split-search")
    assert summary["verdict"] == "holds"
    assert summary["results"]["witness"]["word_a"] == [1, 1]
    assert summary["results"]["witness"]["word_b"] == [2, 1]
    normalized = summary["results"]["normalized"]
    assert normalized["xi"] == [1, 1]
    assert normalized["eta"] == [1, 2]


def test_all_runs_every_configured_block(tmp_path):
    cfg = cantor_config(
        stationary={},
        split={"word_a": [1, 1], "word_b": [2, 1], "horizon": 5},
        oracle={"ell_max": 2, "grid_points": 5},
        operator={"n_steps": 3, "particles": 400, "target_samples": 300, "target_depth": 25},
        sync={"trials": 2, "n_max": 6},
        contract={"trials": 2, "n_max": 5},
        weak_hyp={"trials": 40, "depth": 25},
        coding={"words": [[1, 1, 1, 1], [1, 2, 1, 2]], "depth": 12, "invariance_samples": 25},
        ergodic={"n": 300, "x": [0.25], "target_samples": 60},
    )
    path = write_config(tmp_path, cfg)
    assert main(["all", "--config", path]) == 0

    summary = read_summary(tmp_path, "all")
    assert summary["verdict"] == "holds"
    assert sorted(summary["results"]) == sorted(
        [
            "stationary",
            "split-check",
            "oracle",
            "operator",
            "sync",
            "contract",
            "weak-hyp",
            "coding",
            "ergodic",
        ]
    )
    assert summary["results"]["weak-hyp"]["fraction"] == 1.0
    assert summary["results"]["operator"]["mass_identity_error"] <= 1e-12
    assert summary["results"]["coding"]["verdict"] == "holds"

    outdir = tmp_path / "reports"
    for name in (
        "stationary.csv",
        "horizon.csv",
        "oracle.csv",
        "operator.csv",
        "sync_curves.csv",
        "sync_fits.csv",
        "contract_rows.csv",
        "contract_fits.csv",
        "coding.csv",
    ):
        assert (outdir / name).exists(), name


def test_all_only_runs_present_blocks_and_falls_back_to_search(tmp_path):
    path = write_config(tmp_path, cantor_config(split={"max_len": 2}))
    assert main(["all", "--config", path]) == 0
    summary = read_summary(tmp_path, "all")
    assert list(summary["results"]) == ["split-search"]


# ---------------------------------------------------------------------------
# determinism


def test_registry_covers_every_block_in_schema_order():
    blocks = [block for block, _ in cli.REGISTRY.values()]
    assert list(dict.fromkeys(blocks)) == list(EXPERIMENT_BLOCKS)


def test_rerun_is_bit_identical(tmp_path):
    cfg = moebius_config(sync={"trials": 3, "n_max": 8})
    path = write_config(tmp_path, cfg)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["sync", "--config", path, "--out", str(out_a)]) == 0
    assert main(["sync", "--config", path, "--out", str(out_b)]) == 0
    for name in ("summary-sync.json", "sync_curves.csv", "sync_fits.csv"):
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


def test_seed_override_changes_sampled_curves(tmp_path):
    cfg = moebius_config(sync={"trials": 3, "n_max": 8})
    path = write_config(tmp_path, cfg)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["sync", "--config", path, "--seed", "1", "--out", str(out_a)]) == 0
    assert main(["sync", "--config", path, "--seed", "2", "--out", str(out_b)]) == 0
    assert not filecmp.cmp(out_a / "sync_curves.csv", out_b / "sync_curves.csv", shallow=False)
    assert json.loads((out_a / "summary-sync.json").read_text())["seed"] == 1
    assert json.loads((out_b / "summary-sync.json").read_text())["seed"] == 2


def test_oracle_output_independent_of_seed(tmp_path):
    cfg = cantor_config(oracle={"xi": [1, 1], "eta": [1, 2], "ell_max": 3, "grid_points": 5})
    path = write_config(tmp_path, cfg)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["oracle", "--config", path, "--seed", "1", "--out", str(out_a)]) == 0
    assert main(["oracle", "--config", path, "--seed", "2", "--out", str(out_b)]) == 0
    # The bound table is fully determined by the config; the seed never enters.
    assert filecmp.cmp(out_a / "oracle.csv", out_b / "oracle.csv", shallow=False)
    summary_a = json.loads((out_a / "summary-oracle.json").read_text())
    summary_b = json.loads((out_b / "summary-oracle.json").read_text())
    assert summary_a["results"] == summary_b["results"]


def test_oracle_exact_key_selects_rational_mode(tmp_path):
    cfg = cantor_config(
        oracle={"xi": [1, 1], "eta": [1, 2], "ell_max": 2, "grid_points": 3, "exact": True}
    )
    path = write_config(tmp_path, cfg)
    assert main(["oracle", "--config", path]) == 0
    summary = read_summary(tmp_path, "oracle")
    assert summary["config"]["experiments"]["oracle"]["exact"] is True
    assert summary["results"]["exact"] is True
    assert summary["results"]["rows_failing"] == 0


def test_atomic_writes_leave_no_temp_files(tmp_path):
    cfg = cantor_config(stationary={}, sync={"trials": 2, "n_max": 6})
    path = write_config(tmp_path, cfg)
    assert main(["all", "--config", path]) == 0
    leftovers = [
        p.name
        for p in (tmp_path / "reports").iterdir()
        if p.name.startswith(".tmp-") or p.name.endswith(".part")
    ]
    assert leftovers == []


# ---------------------------------------------------------------------------
# configuration errors (exit code 2)


def test_bad_row_sum_is_config_error(tmp_path, capsys):
    cfg = cantor_config(stationary={})
    cfg["system"]["transition_matrix"] = [[0.5, 0.1], [0.2, 0.8]]
    path = write_config(tmp_path, cfg)
    assert main(["stationary", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "system.transition_matrix row 1 sums to" in err
    assert "expected 1 within 1e-12" in err


def test_nan_in_transition_matrix_is_config_error(tmp_path, capsys):
    cfg = cantor_config(stationary={})
    cfg["system"]["transition_matrix"] = [[float("nan"), 1.0], [0.5, 0.5]]
    path = write_config(tmp_path, cfg)
    assert main(["stationary", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "system.transition_matrix row 1 must be a finite number" in err


def test_nan_tolerance_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, cantor_config(weak_hyp={"trials": 10, "tol": float("nan")}))
    assert main(["weak-hyp", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "experiments.weak_hyp.tol must be a finite number" in err
    assert not (tmp_path / "reports" / "summary-weak-hyp.json").exists()


def test_unknown_experiment_key_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, cantor_config(sync={"trails": 5}))
    assert main(["sync", "--config", path]) == 2
    assert "unknown key experiments.sync.trails" in capsys.readouterr().err


def test_unknown_block_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, cantor_config(synch={}))
    assert main(["stationary", "--config", path]) == 2
    assert "unknown key experiments.synch" in capsys.readouterr().err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["stationary", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["stationary", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_negative_seed_rejected(tmp_path, capsys):
    path = write_config(tmp_path, cantor_config(stationary={}))
    assert main(["stationary", "--config", path, "--seed", "-3"]) == 2
    assert "--seed must be >= 0" in capsys.readouterr().err


def test_declared_types_must_match_computed_signs(tmp_path, capsys):
    cfg = cantor_config(stationary={})
    cfg["system"]["maps"][0]["declared_types"] = [["-"]]
    path = write_config(tmp_path, cfg)
    assert main(["stationary", "--config", path]) == 2
    assert "declared_types does not match" in capsys.readouterr().err

    cfg["system"]["maps"][0]["declared_types"] = [["+"]]
    ok_path = write_config(tmp_path, cfg, name="ok.json")
    assert main(["stationary", "--config", ok_path]) == 0


def test_split_check_requires_a_word_pair(tmp_path, capsys):
    path = write_config(tmp_path, cantor_config(split={"max_len": 2}))
    assert main(["split-check", "--config", path]) == 2
    assert "word_a and word_b are required" in capsys.readouterr().err


def test_half_specified_word_pair_rejected(tmp_path, capsys):
    path = write_config(tmp_path, cantor_config(split={"word_a": [1, 1]}))
    assert main(["split-check", "--config", path]) == 2
    assert "word_a and word_b must be given together" in capsys.readouterr().err


# Values that pass the block schema but do not fit the 1-D, two-state
# system of configs/cantor_iid.json.
SYSTEM_MISFITS = [
    ("ergodic", {"x": [0.3, 0.4]}, "experiments.ergodic.x must have 1 entries"),
    ("ergodic", {"x": [5.0]}, "experiments.ergodic.x must lie in the ambient box"),
    ("ergodic", {"phi": ["coordinate", 2]}, "experiments.ergodic.phi[1] must be <= 1, the dimension"),
    ("ergodic", {"phi": ["product", 1, 2]}, "experiments.ergodic.phi[2] must be <= 1, the dimension"),
    ("oracle", {"s": 2}, "experiments.oracle.s must be <= 1, the dimension of the system"),
    ("operator", {"particles": 1}, "experiments.operator.particles must be >= 2, the number of states"),
]


@pytest.mark.parametrize(
    "block, change, message", SYSTEM_MISFITS, ids=[f"{b}-{json.dumps(c)}" for b, c, _ in SYSTEM_MISFITS]
)
def test_value_that_does_not_fit_the_system_is_config_error(tmp_path, capsys, block, change, message):
    cfg = json.loads((CONFIGS_DIR / "cantor_iid.json").read_text())
    cfg["experiments"][block].update(change)
    cfg["out"] = str(tmp_path / "reports")
    path = write_config(tmp_path, cfg)
    assert main([block, "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert message in err
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["existing-file", "path-beneath-a-file"])
def test_unusable_output_directory_is_config_error(tmp_path, capsys, below):
    path = write_config(tmp_path, cantor_config(stationary={}))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = str(blocker / below) if below else str(blocker)
    assert main(["stationary", "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output directory")
    assert "Traceback" not in err


@pytest.mark.parametrize("blocked", ["summary-stationary.json", "stationary.csv"])
def test_report_that_cannot_be_written_is_config_error(tmp_path, capsys, blocked):
    # A directory where a report file should go makes its rename fail.
    path = write_config(tmp_path, cantor_config(stationary={}))
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main(["stationary", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out / blocked}: ")
    assert "Traceback" not in err
    assert not [name for name in os.listdir(out) if name.startswith(".tmp-")]


@pytest.mark.parametrize(
    "subcommand, experiments",
    [
        ("stationary", {"stationary": {}}),
        ("all", {"stationary": {}, "contract": {"trials": 2, "n_max": 6}}),
    ],
)
def test_failed_summary_write_leaves_no_partial_report(tmp_path, subcommand, experiments):
    # The CSVs land before the summary; when the summary cannot be written
    # they are taken back, so only the blocking directory remains.
    path = write_config(tmp_path, cantor_config(**experiments))
    out = tmp_path / "out"
    (out / f"summary-{subcommand}.json").mkdir(parents=True)
    assert main([subcommand, "--config", path, "--out", str(out)]) == 2
    assert os.listdir(out) == [f"summary-{subcommand}.json"]


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", [["--threads", "4"], ["--exact"]], ids=["threads", "exact"])
def test_removed_flags_are_rejected_by_the_parser(tmp_path, flag):
    path = write_config(tmp_path, cantor_config(oracle={"xi": [1, 1], "eta": [1, 2]}))
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--config", path, *flag])
    assert exc.value.code == 2
    assert not (tmp_path / "reports").exists()


# ---------------------------------------------------------------------------
# verification failures (exit code 1)


def test_split_check_overlapping_pair_exits_one(tmp_path, capsys):
    cfg = cantor_config(split={"word_a": [1, 1], "word_b": [1, 1], "horizon": 4})
    path = write_config(tmp_path, cfg)
    assert main(["split-check", "--config", path]) == 1
    assert "split-check: fails" in capsys.readouterr().out
    summary = read_summary(tmp_path, "split-check")
    assert summary["verdict"] == "fails"
    assert summary["results"]["witness"] is None


def test_split_search_miss_exits_one(tmp_path):
    cfg = {
        "system": {
            "ambient": {"lo": [0.0], "hi": [1.0]},
            "transition_matrix": [[0.5, 0.5], [0.5, 0.5]],
            "maps": [
                {"kind": "moebius", "a": 1, "b": 0, "c": 0, "d": 3},
                {"kind": "moebius", "a": 1, "b": 0, "c": 0, "d": 3},
            ],
        },
        "experiments": {"split": {"max_len": 2}},
    }
    path = write_config(tmp_path, cfg)
    assert main(["split-search", "--config", path]) == 1
    summary = read_summary(tmp_path, "split-search")
    assert summary["verdict"] == "fails"
    assert summary["results"]["detail"] == "no witness up to length 2"
    assert summary["seed"] == 0  # default filled in


def test_runner_verdict_decides_the_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(cli.REGISTRY, "stationary", ("stationary", lambda *args: ({"verdict": "fails"}, {})))
    path = write_config(tmp_path, cantor_config(stationary={}))
    assert main(["stationary", "--config", path]) == 1
    assert "stationary: fails" in capsys.readouterr().out
    assert read_summary(tmp_path, "stationary")["verdict"] == "fails"


# ---------------------------------------------------------------------------
# the runner contract


def test_run_writes_the_tables_a_runner_returns(tmp_path, monkeypatch, capsys):
    def runner(*args):
        return {}, {"x.csv": (["a"], [[1.5]])}

    monkeypatch.setitem(cli.REGISTRY, "stationary", ("stationary", runner))
    path = write_config(tmp_path, cantor_config(stationary={}))
    assert main(["stationary", "--config", path]) == 0
    assert (tmp_path / "reports" / "x.csv").read_text() == "a\n1.5\n"
    assert f"wrote {tmp_path / 'reports' / 'x.csv'}" in capsys.readouterr().out
    assert read_summary(tmp_path, "stationary")["verdict"] == "holds"


def test_tables_are_freed_before_the_next_runner_starts(tmp_path, monkeypatch):
    class Rows(list):
        pass

    refs = []

    def first(*args):
        rows = Rows([[1]])
        refs.append(weakref.ref(rows))
        return {}, {"a.csv": (["a"], rows)}

    def second(*args):
        assert refs[0]() is None, "the first runner's rows are still alive"
        return {}, {}

    monkeypatch.setitem(cli.REGISTRY, "stationary", ("stationary", first))
    monkeypatch.setitem(cli.REGISTRY, "weak-hyp", ("weak_hyp", second))
    path = write_config(tmp_path, cantor_config(stationary={}, weak_hyp={}))
    assert main(["all", "--config", path]) == 0


def test_summary_top_level_keys(tmp_path):
    path = write_config(tmp_path, cantor_config(stationary={}))
    assert main(["stationary", "--config", path]) == 0
    assert sorted(read_summary(tmp_path, "stationary")) == [
        "config", "results", "seed", "subcommand", "verdict", "version"
    ]


def test_readme_common_flags_are_the_parser_options():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    sentence = " ".join(readme.split("Common flags:", 1)[1].split(".", 1)[0].split())
    documented = set(re.findall(r"`(--[a-z-]+)`", sentence))
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == {*cli.REGISTRY, "all"}
    for name, parser in subparsers.choices.items():
        options = {o for a in parser._actions for o in a.option_strings if o.startswith("--")}
        assert options - {"--help"} == documented, name


# ---------------------------------------------------------------------------
# crashes (exit code 3) and numerical failures (exit code 2)


def test_unexpected_exception_exits_three_not_one(tmp_path, monkeypatch, capsys):
    def crash(*args):
        raise RuntimeError("simulated defect")

    monkeypatch.setitem(cli.REGISTRY, "stationary", ("stationary", crash))
    path = write_config(tmp_path, cantor_config(stationary={}))
    assert main(["stationary", "--config", path]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: simulated defect" in err
    assert "internal error" in err
    assert not (tmp_path / "reports" / "summary-stationary.json").exists()


def test_crashed_runner_leaves_no_csv(tmp_path, monkeypatch):
    def crash(*args):
        raise RuntimeError("simulated defect")

    monkeypatch.setattr(cli, "coding_invariance", crash)
    path = write_config(tmp_path, cantor_config(coding={"words": [[1, 2]], "invariance_samples": 3}))
    assert main(["coding", "--config", path]) == 3
    assert not (tmp_path / "reports" / "coding.csv").exists()


def test_singular_stationary_solve_is_a_domain_error(tmp_path, monkeypatch, capsys):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    path = write_config(tmp_path, cantor_config(stationary={}))
    assert main(["stationary", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "stationary solve failed: Singular matrix" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# shipped configs and the console script


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS_DIR.glob("*.json")))
def test_shipped_configs_validate_and_build(name):
    config = load_config(str(CONFIGS_DIR / name))
    system = build_system(config)
    assert system.shift.k == len(config["system"]["maps"])


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS_DIR.glob("*.json")))
def test_shipped_reports_hand_the_csv_writer_plain_cells(tmp_path, monkeypatch, name):
    # `_write_csv` writes each cell as the csv module does: a float as its
    # repr.  That is the report's format only for exact int, float and str
    # cells; str of a NumPy scalar need not equal the repr of a float.
    kinds = set()

    def checked(path, header, rows, write=cli._write_csv):
        rows = list(rows)
        kinds.update(type(v) for row in rows for v in row)
        write(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", checked)
    assert main(["all", "--config", str(CONFIGS_DIR / f"{name}.json"), "--out", str(tmp_path)]) == 0
    assert kinds and kinds <= {int, float, str}, kinds


def test_all_names_every_public_binding_of_the_package():
    # A name deleted from a module but left in __all__ would make
    # `from markovprod import *` raise.
    public = {name for name, value in vars(markovprod).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(markovprod.__all__) == public | {"__version__"}
    assert len(markovprod.__all__) == len(set(markovprod.__all__))


def test_console_script_runs(tmp_path):
    toml = tomllib or pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = toml.load(fh)["project"]["scripts"]["markovprod"]
    assert target == "markovprod.cli:entry"
    module, _, attr = target.partition(":")

    # What pip's generated console-script wrapper runs, with the source
    # under test first on the path so no other installed copy shadows it.
    wrapper = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'markovprod'\n"
        f"sys.exit({attr}())\n"
    )
    src_dir = str(Path(markovprod.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))

    path = write_config(tmp_path, cantor_config(stationary={}))
    proc = subprocess.run(
        [sys.executable, "-c", wrapper,
         "stationary", "--config", path, "--out", str(tmp_path / "script_out")],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "stationary: holds" in proc.stdout
    assert (tmp_path / "script_out" / "summary-stationary.json").exists()
