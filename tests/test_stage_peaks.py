"""tools/stage_peaks.py on a shrunk certify_moebius config: one line per
stage that `all` runs, after the setup line, each with its three figures."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import stage_peaks  # noqa: E402
from markovprod import cli  # noqa: E402

EXPERIMENTS = {
    "split": {"word_a": [1, 1], "word_b": [2, 1], "horizon": 4},
    "sync": {"trials": 5, "n_max": 6},
    "contract": {"trials": 3, "n_max": 6},
    "weak_hyp": {"trials": 50, "depth": 8},
    "coding": {"words": [[1, 2] * 4], "depth": 8, "invariance_samples": 20},
}


def test_prints_one_row_per_stage_of_all(tmp_path, capsys):
    config = json.loads((stage_peaks.ROOT / "configs" / "moebius_pair.json").read_text())
    config["experiments"], config["out"] = EXPERIMENTS, str(tmp_path / "reports")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert stage_peaks.main(["--config", str(path), "--seed", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["stage", "wall_s", "minflt", "maxrss_mib"]
    stages = ["setup", *cli._all_subcommands(cli.load_config(str(path))["experiments"])]
    assert [row.split()[0] for row in rows] == stages == ["setup", "split-check", "sync", "contract",
                                                          "weak-hyp", "coding"]
    peaks = []
    for row in rows:
        _, wall, faults, peak = row.split()
        assert float(wall) >= 0.0 and int(faults) >= 0
        peaks.append(float(peak))
    assert peaks == sorted(peaks) and peaks[0] > 0.0  # a high-water mark never falls
    assert not (tmp_path / "reports").exists()  # the CSV files go to a temporary directory
