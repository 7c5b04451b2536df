"""The pairing and the output of tools/bench_pairs.py, with a fake runner in
place of perfbench/run.py."""

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402


def fake_result(wall: float) -> dict:
    """A result line as perfbench/run.py --trace 0 prints it."""
    metrics = {"wall_s": wall, "setup_s": 0.1, "peak_rss_mb": 50.0}
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {name: {"value": v, "unit": "s"} for name, v in metrics.items()}}


def fake_runs(pairs=10, walls=None):
    calls = []
    walls = walls or {"rev": 2.0, "change": 1.5}

    def run_one(tree, workload):
        calls.append((tree.name, workload))
        return fake_result(walls[tree.name] + 0.01 * len(calls))

    trees = {"rev": Path("rev"), "change": Path("change")}
    runs = bench_pairs.run_pairs(trees, ["report_1d", "report_2d"], pairs, run_one)
    return calls, runs


def test_pairs_alternate_which_side_runs_first():
    calls, runs = fake_runs(pairs=10)
    assert len(calls) == 2 * 2 * 10
    for workload in ("report_1d", "report_2d"):
        mine = [tree for tree, w in calls if w == workload]
        expected = [side for i in range(10) for side in (("rev", "change") if i % 2 == 0 else ("change", "rev"))]
        assert mine == expected
    assert [r["first"] for r in runs[:4]] == [True, False, True, False]
    assert [(r["pair"], r["side"]) for r in runs[:4]] == [(0, "rev"), (0, "change"), (1, "change"), (1, "rev")]


def test_runs_are_recorded_whole_and_summarized():
    _, runs = fake_runs(pairs=10)
    assert all(set(r) == {"workload", "pair", "side", "first", "result"} for r in runs)
    assert runs[0]["result"] == fake_result(2.01)
    summary = bench_pairs.summarize(runs)
    wall = summary["report_1d"]["wall_s"]
    assert summary["report_1d"]["correct"] is True
    assert wall["change_wins"] == 10 and wall["pairs"] == 10
    assert wall["rev"]["q1"] <= wall["rev"]["median"] <= wall["rev"]["q3"]
    assert wall["change"]["median"] < wall["rev"]["median"]
    # Equal values are ties, which count for neither side.
    assert summary["report_1d"]["setup_s"]["change_wins"] == 0
    json.dumps(summary)


def test_a_slower_change_wins_no_pair():
    _, runs = fake_runs(pairs=3, walls={"rev": 1.0, "change": 1.5})
    assert bench_pairs.summarize(runs)["report_2d"]["wall_s"]["change_wins"] == 0


def test_main_writes_the_bench_file(tmp_path, monkeypatch):
    # The run length comes from BENCHMARK.json and the pair count is fixed.
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 5}))
    for name in bench_pairs.TREE_PATHS:
        (tmp_path / name).mkdir()
        (tmp_path / name / "marker.txt").write_text(name)
    lengths = set()
    trees = set()

    def run_bench(tree, workload, seed, seconds):
        lengths.add(seconds)
        trees.add(tree)
        # The working tree's directories are copied for the change's runs.
        if tree.name == "new":
            assert all((tree / name / "marker.txt").read_text() == name for name in bench_pairs.TREE_PATHS)
        return fake_result(1.0)

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest, paths: None)
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    real_run = bench_pairs.subprocess.run

    def git(argv, **kwargs):
        assert argv[:2] == ["git", "rev-parse"]
        return real_run(["echo", "abc1234"], capture_output=True, text=True, check=True)

    monkeypatch.setattr(bench_pairs.subprocess, "run", git)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    assert bench_pairs.main(["HEAD~1", "--workload", "report_1d", "--label", "x"]) == 0
    record = json.loads((tmp_path / "BENCH_abc1234_x.json").read_text())
    assert {k: record[k] for k in ("rev", "change", "seed", "run_seconds", "pairs")} == {
        "rev": "abc1234", "change": "x", "seed": 3, "run_seconds": 5, "pairs": 10}
    assert lengths == {5}
    # Both sides run from copies on paths of equal length, never the checkout.
    assert len(trees) == 2 and tmp_path not in trees
    assert len({len(str(tree)) for tree in trees}) == 1
    assert [(r["pair"], r["side"]) for r in record["runs"][:4]] == [(0, "rev"), (0, "change"),
                                                                   (1, "change"), (1, "rev")]
    assert len(record["runs"]) == 20
    assert record["summary"]["report_1d"]["wall_s"]["pairs"] == 10


def test_quartiles_are_those_of_the_baseline_tool():
    values = [float(v) for v in range(1, 11)]
    assert bench_pairs.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert bench_pairs.quartiles(values) == (2.75, 5.5, 8.25)
