"""The byte comparison of tools/golden_diff.py."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from golden_diff import THREE_STATE, WIELANDT, compare_dirs, extra_invocations  # noqa: E402
from markovprod.config import experiment_block, load_config  # noqa: E402


def make_outputs(root: Path) -> Path:
    root.mkdir()
    (root / "summary-all.json").write_bytes(b'{\n  "average": 0.4998713\n}\n')
    (root / "operator.csv").write_bytes(b"step,distance\n0,0.125\n")
    return root


def test_identical_directories_have_no_differences(tmp_path):
    a = make_outputs(tmp_path / "a")
    b = make_outputs(tmp_path / "b")
    assert compare_dirs(a, b) == []


def test_a_single_changed_byte_is_flagged(tmp_path):
    a = make_outputs(tmp_path / "a")
    b = make_outputs(tmp_path / "b")
    data = bytearray((b / "summary-all.json").read_bytes())
    data[20] ^= 1
    (b / "summary-all.json").write_bytes(bytes(data))
    assert compare_dirs(a, b) == ["summary-all.json: differs from byte 20 (27 vs 27 bytes)"]


def test_missing_and_extra_files_are_flagged(tmp_path):
    a = make_outputs(tmp_path / "a")
    b = make_outputs(tmp_path / "b")
    (b / "operator.csv").unlink()
    (b / "extra.csv").write_bytes(b"x\n")
    assert compare_dirs(a, b) == [
        f"operator.csv: only in {a}",
        f"extra.csv: only in {b}",
    ]


def test_truncated_file_is_flagged_at_its_end(tmp_path):
    a = make_outputs(tmp_path / "a")
    b = make_outputs(tmp_path / "b")
    (b / "operator.csv").write_bytes(b"step,distance\n")
    assert compare_dirs(a, b) == ["operator.csv: differs from byte 14 (22 vs 14 bytes)"]


def test_extra_runs_change_keys_of_a_shipped_config(tmp_path):
    runs = {inv.label: inv for inv in extra_invocations(tmp_path)}
    assert {label: inv.subcommand for label, inv in runs.items()} == {
        "oracle-float-cantor_markov": "oracle",
        "oracle-float-s2-diagonal_2d": "oracle",
        "oracle-exact-diagonal_2d": "oracle",
        "split-sampled-diagonal_2d": "split-check",
        "split-exhaustive-diagonal_2d": "split-check",
        "ergodic-product-diagonal_2d": "ergodic",
        "split-row-positive-cantor_markov": "split-search",
        "split-strict-cantor_markov": "split-search",
        "split-strict-wielandt-cantor_markov": "split-search",
        "ergodic-three-state-cantor_markov": "ergodic",
        "sync-three-state-cantor_markov": "sync",
        "weak-hyp-three-state-cantor_markov": "weak-hyp",
    }
    configs = Path(__file__).resolve().parents[1] / "configs"
    for label, (name, block, keys) in {
        "oracle-float-cantor_markov": ("cantor_markov", "oracle", {"exact": False}),
        "oracle-float-s2-diagonal_2d": ("diagonal_2d", "oracle", {"exact": False, "s": 2}),
        "oracle-exact-diagonal_2d": ("diagonal_2d", "oracle", {"exact": True}),
        "split-sampled-diagonal_2d": ("diagonal_2d", "split", {"prefix_samples": 500}),
        "split-exhaustive-diagonal_2d": ("diagonal_2d", "split", {"horizon": 14}),
        "ergodic-product-diagonal_2d": ("diagonal_2d", "ergodic", {"phi": ["product", 1, 2]}),
        "split-row-positive-cantor_markov": ("cantor_markov", "split", {"normalize_mode": "row-positive"}),
        "split-strict-cantor_markov": ("cantor_markov", "split", {"strict_endpoints": True}),
    }.items():
        shipped = load_config(str(configs / f"{name}.json"))
        changed = load_config(str(runs[label].config))
        section = experiment_block(shipped["experiments"], block)
        assert {**section, **keys} != section
        shipped["experiments"][block] = {**section, **keys}
        assert changed == shipped


def test_three_state_runs_replace_the_system_block(tmp_path):
    # Three states and two map classes, where every shipped config has two
    # states and one class; the experiment blocks stay cantor_markov's.
    runs = [inv for inv in extra_invocations(tmp_path) if "three-state" in inv.label]
    assert len(runs) == 3
    shipped = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "cantor_markov.json"))
    for inv in runs:
        changed = load_config(str(inv.config))
        assert changed["system"]["transition_matrix"] == THREE_STATE["transition_matrix"]
        assert [m["kind"] for m in changed["system"]["maps"]] == ["moebius", "moebius", "affine"]
        assert {**shipped, "system": changed["system"]} == changed


def test_wielandt_run_forces_tail_connectors_on_three_states(tmp_path):
    # THREE_STATE's maps on the chain 1 -> 2 -> 3 -> {1, 2}, whose strict
    # normalization needs connectors of more than one edge; every other
    # block stays cantor_markov's, with strict endpoints forced.
    [inv] = [inv for inv in extra_invocations(tmp_path) if "wielandt" in inv.label]
    shipped = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "cantor_markov.json"))
    changed = load_config(str(inv.config))
    assert WIELANDT["maps"] == THREE_STATE["maps"]
    assert changed["system"]["transition_matrix"] == [[0, 1, 0], [0, 0, 1], [0.5, 0.5, 0]]
    assert [m["kind"] for m in changed["system"]["maps"]] == ["moebius", "moebius", "affine"]
    split = experiment_block(shipped["experiments"], "split")
    shipped["experiments"]["split"] = {**split, "strict_endpoints": True}
    assert {**shipped, "system": changed["system"]} == changed
