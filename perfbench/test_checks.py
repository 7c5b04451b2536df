"""Tests of the benchmark's own output checks and of BENCHMARK.json.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

# Minimal summaries that pass every check of their workload.
PASSING_RESULTS = {
    "report_1d": {
        "operator": {"mass_identity_error": 0.0, "final_distance": {"corner": 0.001, "uniform": 0.0012}},
        "sync": {"max_q": 0.3333333344740108},
        "weak-hyp": {"fraction": 1.0},
        "ergodic": {"average": 0.4998, "reference": 0.5005, "batch_sigma": 0.0005,
                    "reference_sigma": 0.0025},
    },
    "oracle_exact": {"rows": 330, "rows_failing": 0},
    "certify_moebius": {
        "split-check": {"horizon": {"verdict": "certified"}},
        "weak-hyp": {"fraction": 1.0},
        "coding": {"max_residual": 0.0, "max_allowance": 3.9e-16},
    },
}
PASSING_RESULTS["report_2d"] = PASSING_RESULTS["report_1d"]


def outputs_for(name: str, verdict: str = "holds") -> dict[str, bytes]:
    workload = bench.WORKLOADS[name]
    summary = {"verdict": verdict, "results": PASSING_RESULTS[name]}
    return {
        f"summary-{workload.subcommand}.json": json.dumps(summary, indent=2, sort_keys=True).encode(),
        "data.csv": b"n,value\n0,0.5\n",
    }


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_untampered_run_passes(name):
    outputs = outputs_for(name)
    assert bench.check_run(bench.WORKLOADS[name], 0, outputs, dict(outputs)) == []


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_flipped_verdict_fails(name):
    problems = bench.check_run(bench.WORKLOADS[name], 0, outputs_for(name, "fails"), None)
    assert any("verdict" in p for p in problems)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("file_index", [0, 1])
def test_one_changed_byte_fails(name, file_index):
    reference = outputs_for(name)
    tampered = dict(reference)
    key = sorted(tampered)[file_index]
    data = bytearray(tampered[key])
    data[-2] ^= 1
    tampered[key] = bytes(data)
    problems = bench.check_run(bench.WORKLOADS[name], 0, tampered, reference)
    assert any(key in p for p in problems)


def test_nonzero_exit_fails():
    outputs = outputs_for("oracle_exact")
    assert bench.check_run(bench.WORKLOADS["oracle_exact"], 1, outputs, None) == ["exit code 1"]


def test_missing_summary_fails():
    problems = bench.check_run(bench.WORKLOADS["oracle_exact"], 0, {}, None)
    assert problems and "lacks" in problems[0]


@pytest.mark.parametrize(
    "name, path, value",
    [
        ("report_1d", ("operator", "mass_identity_error"), 1e-11),
        ("report_1d", ("operator", "final_distance", "corner"), 0.02),
        ("report_1d", ("sync", "max_q"), 0.34),
        ("report_1d", ("weak-hyp", "fraction"), 0.9999),
        ("report_1d", ("ergodic", "average"), 0.52),
        ("oracle_exact", ("rows",), 329),
        ("oracle_exact", ("rows_failing",), 1),
        ("certify_moebius", ("split-check", "horizon", "verdict"), "not-falsified"),
        ("certify_moebius", ("weak-hyp", "fraction"), 0.5),
        ("certify_moebius", ("coding", "max_residual"), 1e-15),
    ],
)
def test_each_workload_condition_fails(name, path, value):
    results = json.loads(json.dumps(PASSING_RESULTS[name]))
    node = results
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    summary = json.dumps({"verdict": "holds", "results": results}).encode()
    outputs = {f"summary-{bench.WORKLOADS[name].subcommand}.json": summary}
    assert len(bench.check_run(bench.WORKLOADS[name], 0, outputs, None)) == 1


def test_benchmark_json_matches_the_harness():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
