"""The experiment-block schema: defaults, accepted values, and the exact
ConfigError text for every way a key can be wrong."""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest

from markovprod.config import EXPERIMENT_BLOCKS, load_config, resolve_block, validate_config
from markovprod.errors import ConfigError

CONFIGS_DIR = Path(__file__).resolve().parents[1] / "configs"

SYSTEM = {
    "ambient": {"lo": [0.0], "hi": [1.0]},
    "transition_matrix": [[0.9, 0.1], [0.2, 0.8]],
    "maps": [
        {"kind": "moebius", "a": 1, "b": 0, "c": 0, "d": 3},
        {"kind": "moebius", "a": 1, "b": 2, "c": 0, "d": 3},
    ],
}

DEFAULTS = {
    "stationary": {},
    "split": {
        "word_a": None,
        "word_b": None,
        "max_len": 3,
        "horizon": 10,
        "cloud_size": 64,
        "prefix_samples": None,
        "normalize_mode": "primitive",
        "strict_endpoints": False,
    },
    "oracle": {"xi": None, "eta": None, "ell_max": 6, "grid_points": 33, "s": 1, "exact": False},
    "operator": {
        "n_steps": 30,
        "particles": 10_000,
        "initials": ["uniform", "corner", "center"],
        "target_samples": 20_000,
        "target_depth": 64,
    },
    "sync": {"trials": 100, "n_max": 20, "cloud_size": 256},
    "contract": {"trials": 10, "n_max": 20},
    "weak_hyp": {"trials": 10_000, "depth": 40, "tol": 1e-9},
    "coding": {"words": [], "depth": 40, "invariance_samples": 1000},
    "ergodic": {"n": 1_000_000, "x": None, "phi": ["coordinate", 1], "target_samples": 20_000},
}


def resolve(experiments: dict, system: dict = SYSTEM) -> dict:
    return validate_config({"system": copy.deepcopy(system), "experiments": experiments})


def test_block_names_in_run_order():
    assert EXPERIMENT_BLOCKS == tuple(DEFAULTS)


@pytest.mark.parametrize("name", list(DEFAULTS))
def test_empty_block_takes_the_defaults(name):
    resolved = resolve({name: {}})["experiments"][name]
    # json.dumps tells 1 from 1.0 and True from 1, which == does not.
    assert json.dumps(resolved, sort_keys=True) == json.dumps(DEFAULTS[name], sort_keys=True)


def test_default_lists_are_fresh_objects():
    first = resolve({"operator": {}, "coding": {}, "ergodic": {}})["experiments"]
    first["operator"]["initials"].append("x")
    first["coding"]["words"].append([1])
    first["ergodic"]["phi"].append(2)
    second = resolve({"operator": {}, "coding": {}, "ergodic": {}})["experiments"]
    assert second["operator"] == DEFAULTS["operator"]
    assert second["coding"] == DEFAULTS["coding"]
    assert second["ergodic"] == DEFAULTS["ergodic"]


def test_every_key_set_keeps_its_value_and_type():
    given = {
        "split": {
            "word_a": [1, 1],
            "word_b": [2, 1],
            "max_len": 2,
            "horizon": 0,
            "cloud_size": 8,
            "prefix_samples": 5,
            "normalize_mode": "row-positive",
            "strict_endpoints": True,
        },
        "oracle": {"xi": [1], "eta": [2], "ell_max": 2, "grid_points": 3, "s": 2, "exact": True},
        "operator": {
            "n_steps": 1,
            "particles": 2,
            "initials": ["center"],
            "target_samples": 3,
            "target_depth": 4,
        },
        "sync": {"trials": 1, "n_max": 3, "cloud_size": 1},
        "contract": {"trials": 1, "n_max": 3},
        "weak_hyp": {"trials": 1, "depth": 1, "tol": 1},
        "coding": {"words": [[1, 2]], "depth": 1, "invariance_samples": 0},
        "ergodic": {"n": 100, "x": [0], "phi": ["product", 1, 1], "target_samples": 2},
    }
    expected = copy.deepcopy(given)
    expected["weak_hyp"]["tol"] = 1.0
    expected["ergodic"]["x"] = [0.0]
    resolved = resolve(given)["experiments"]
    assert json.dumps(resolved, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_prefix_samples_accepts_an_explicit_null():
    resolved = resolve({"split": {"prefix_samples": None}})["experiments"]["split"]
    assert resolved["prefix_samples"] is None


def test_explicit_null_means_unset_for_every_key_whose_default_is_null():
    given = {
        "split": {"word_a": None, "word_b": None, "prefix_samples": None},
        "oracle": {"xi": None, "eta": None},
        "ergodic": {"x": None},
    }
    nulls = {(name, key) for name, default in DEFAULTS.items() for key, v in default.items() if v is None}
    assert nulls == {(name, key) for name, block in given.items() for key in block}
    resolved = resolve(given)["experiments"]
    for name in given:
        assert json.dumps(resolved[name], sort_keys=True) == json.dumps(DEFAULTS[name], sort_keys=True)


@pytest.mark.parametrize("path", sorted(CONFIGS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_resolved_config_loads_again(tmp_path, path):
    # Every summary embeds the resolved config; loading it again must give it back.
    resolved = load_config(str(path))
    copy_path = tmp_path / "resolved.json"
    copy_path.write_text(json.dumps(resolved, indent=2, sort_keys=True))
    assert json.dumps(load_config(str(copy_path)), sort_keys=True) == json.dumps(resolved, sort_keys=True)


# (experiments, exact ConfigError text)
REJECTIONS = [
    # blocks
    ({"bogus": {}}, "unknown key experiments.bogus"),
    ({"sync": []}, "experiments.sync must be an object"),
    ({"stationary": {"x": 1}}, "unknown key experiments.stationary.x"),
    # split
    ({"split": {"bogus": 1}}, "unknown key experiments.split.bogus"),
    ({"split": {"word_a": "12", "word_b": [1]}}, "experiments.split.word_a must be a nonempty array of symbols"),
    ({"split": {"word_a": [], "word_b": [1]}}, "experiments.split.word_a must be a nonempty array of symbols"),
    ({"split": {"word_a": 1, "word_b": [1]}}, "experiments.split.word_a must be a nonempty array of symbols"),
    ({"split": {"word_a": [0], "word_b": [1]}}, "experiments.split.word_a[0] must be >= 1"),
    ({"split": {"word_a": [1, 1.0], "word_b": [1]}}, "experiments.split.word_a[1] must be an integer"),
    ({"split": {"word_a": [1], "word_b": [True]}}, "experiments.split.word_b[0] must be an integer"),
    ({"split": {"word_a": [1], "word_b": {}}}, "experiments.split.word_b must be a nonempty array of symbols"),
    ({"split": {"word_a": [1]}}, "experiments.split: word_a and word_b must be given together"),
    ({"split": {"word_b": [1]}}, "experiments.split: word_a and word_b must be given together"),
    ({"split": {"max_len": 0}}, "experiments.split.max_len must be >= 1"),
    ({"split": {"max_len": "3"}}, "experiments.split.max_len must be an integer"),
    ({"split": {"max_len": True}}, "experiments.split.max_len must be an integer"),
    ({"split": {"horizon": -1}}, "experiments.split.horizon must be >= 0"),
    ({"split": {"horizon": 1.0}}, "experiments.split.horizon must be an integer"),
    ({"split": {"cloud_size": 0}}, "experiments.split.cloud_size must be >= 1"),
    ({"split": {"prefix_samples": 0}}, "experiments.split.prefix_samples must be >= 1"),
    ({"split": {"prefix_samples": "all"}}, "experiments.split.prefix_samples must be an integer"),
    ({"split": {"normalize_mode": "x"}}, "experiments.split.normalize_mode must be one of primitive, row-positive"),
    ({"split": {"normalize_mode": 1}}, "experiments.split.normalize_mode must be a string"),
    ({"split": {"strict_endpoints": 1}}, "experiments.split.strict_endpoints must be true or false"),
    # oracle
    ({"oracle": {"bogus": 1}}, "unknown key experiments.oracle.bogus"),
    ({"oracle": {"xi": 1, "eta": [1]}}, "experiments.oracle.xi must be a nonempty array of symbols"),
    ({"oracle": {"xi": [1], "eta": [0]}}, "experiments.oracle.eta[0] must be >= 1"),
    ({"oracle": {"xi": [1]}}, "experiments.oracle: xi and eta must be given together"),
    ({"oracle": {"eta": [1]}}, "experiments.oracle: xi and eta must be given together"),
    ({"oracle": {"ell_max": 0}}, "experiments.oracle.ell_max must be >= 1"),
    ({"oracle": {"grid_points": 0}}, "experiments.oracle.grid_points must be >= 1"),
    ({"oracle": {"grid_points": 2.5}}, "experiments.oracle.grid_points must be an integer"),
    ({"oracle": {"s": 0}}, "experiments.oracle.s must be >= 1"),
    ({"oracle": {"exact": "yes"}}, "experiments.oracle.exact must be true or false"),
    # operator
    ({"operator": {"bogus": 1}}, "unknown key experiments.operator.bogus"),
    ({"operator": {"n_steps": 0}}, "experiments.operator.n_steps must be >= 1"),
    ({"operator": {"particles": 0}}, "experiments.operator.particles must be >= 1"),
    ({"operator": {"particles": 1e4}}, "experiments.operator.particles must be an integer"),
    ({"operator": {"initials": "uniform"}}, "experiments.operator.initials must be a nonempty array"),
    ({"operator": {"initials": []}}, "experiments.operator.initials must be a nonempty array"),
    ({"operator": {"initials": ["uniform", "edge"]}},
     "experiments.operator.initials[1] must be one of uniform, corner, center"),
    ({"operator": {"initials": [1]}}, "experiments.operator.initials[0] must be a string"),
    ({"operator": {"initials": ["corner", "corner"]}}, "experiments.operator.initials must not repeat"),
    ({"operator": {"target_samples": 0}}, "experiments.operator.target_samples must be >= 1"),
    ({"operator": {"target_depth": 0}}, "experiments.operator.target_depth must be >= 1"),
    # sync
    ({"sync": {"bogus": 1}}, "unknown key experiments.sync.bogus"),
    ({"sync": {"trials": 0}}, "experiments.sync.trials must be >= 1"),
    ({"sync": {"n_max": 2}}, "experiments.sync.n_max must be >= 3"),
    ({"sync": {"cloud_size": 0}}, "experiments.sync.cloud_size must be >= 1"),
    # contract
    ({"contract": {"bogus": 1}}, "unknown key experiments.contract.bogus"),
    ({"contract": {"trials": 0}}, "experiments.contract.trials must be >= 1"),
    ({"contract": {"n_max": 2}}, "experiments.contract.n_max must be >= 3"),
    # weak_hyp
    ({"weak_hyp": {"bogus": 1}}, "unknown key experiments.weak_hyp.bogus"),
    ({"weak_hyp": {"trials": 0}}, "experiments.weak_hyp.trials must be >= 1"),
    ({"weak_hyp": {"depth": 0}}, "experiments.weak_hyp.depth must be >= 1"),
    ({"weak_hyp": {"tol": 0}}, "experiments.weak_hyp.tol must be positive"),
    ({"weak_hyp": {"tol": -1e-9}}, "experiments.weak_hyp.tol must be positive"),
    ({"weak_hyp": {"tol": "small"}}, "experiments.weak_hyp.tol must be a number"),
    ({"weak_hyp": {"tol": True}}, "experiments.weak_hyp.tol must be a number"),
    # coding
    ({"coding": {"bogus": 1}}, "unknown key experiments.coding.bogus"),
    ({"coding": {"words": [1, 2]}}, "experiments.coding.words[0] must be a nonempty array of symbols"),
    ({"coding": {"words": "12"}}, "experiments.coding.words must be an array of words"),
    ({"coding": {"words": [[1], []]}}, "experiments.coding.words[1] must be a nonempty array of symbols"),
    ({"coding": {"words": [[1, 0]]}}, "experiments.coding.words[0][1] must be >= 1"),
    ({"coding": {"depth": 0}}, "experiments.coding.depth must be >= 1"),
    ({"coding": {"invariance_samples": -1}}, "experiments.coding.invariance_samples must be >= 0"),
    # ergodic
    ({"ergodic": {"bogus": 1}}, "unknown key experiments.ergodic.bogus"),
    ({"ergodic": {"n": 99}}, "experiments.ergodic.n must be >= 100"),
    ({"ergodic": {"x": 0.5}}, "experiments.ergodic.x must be a nonempty array of numbers"),
    ({"ergodic": {"x": []}}, "experiments.ergodic.x must be a nonempty array of numbers"),
    ({"ergodic": {"x": "0.5"}}, "experiments.ergodic.x must be a nonempty array of numbers"),
    ({"ergodic": {"x": ["0.5"]}}, "experiments.ergodic.x[0] must be a number"),
    ({"ergodic": {"phi": "coordinate"}}, 'experiments.ergodic.phi must be an array like ["coordinate", 1]'),
    ({"ergodic": {"phi": []}}, 'experiments.ergodic.phi must be an array like ["coordinate", 1]'),
    ({"ergodic": {"phi": ["cube", 1]}},
     "experiments.ergodic.phi[0] must be one of coordinate, square, product"),
    ({"ergodic": {"phi": [1, 1]}}, "experiments.ergodic.phi[0] must be a string"),
    ({"ergodic": {"phi": ["coordinate"]}}, "experiments.ergodic.phi with kind coordinate must have 2 entries"),
    ({"ergodic": {"phi": ["square", 1, 1]}}, "experiments.ergodic.phi with kind square must have 2 entries"),
    ({"ergodic": {"phi": ["product", 1]}}, "experiments.ergodic.phi with kind product must have 3 entries"),
    ({"ergodic": {"phi": ["coordinate", 0]}}, "experiments.ergodic.phi[1] must be >= 1"),
    ({"ergodic": {"phi": ["product", 1, "2"]}}, "experiments.ergodic.phi[2] must be an integer"),
    ({"ergodic": {"target_samples": 1}}, "experiments.ergodic.target_samples must be >= 2"),
    # two bad keys: the first check in the old validators' order wins
    ({"split": {"bogus": 1, "max_len": 0}}, "unknown key experiments.split.bogus"),
    ({"split": {"max_len": 0, "word_a": "x"}}, "experiments.split.word_a must be a nonempty array of symbols"),
    ({"split": {"prefix_samples": 0, "strict_endpoints": 1}},
     "experiments.split.strict_endpoints must be true or false"),
    ({"split": {"word_a": [1], "prefix_samples": 0}}, "experiments.split.prefix_samples must be >= 1"),
    ({"oracle": {"xi": [1], "exact": 1}}, "experiments.oracle.exact must be true or false"),
    ({"operator": {"n_steps": 0, "initials": []}}, "experiments.operator.initials must be a nonempty array"),
    ({"weak_hyp": {"trials": 0, "tol": 0}}, "experiments.weak_hyp.tol must be positive"),
    ({"coding": {"depth": 0, "words": [[0]]}}, "experiments.coding.words[0][0] must be >= 1"),
    ({"ergodic": {"target_samples": 1, "phi": []}}, 'experiments.ergodic.phi must be an array like ["coordinate", 1]'),
    ({"ergodic": {"phi": [], "x": []}}, "experiments.ergodic.x must be a nonempty array of numbers"),
    ({"sync": {"cloud_size": 0, "trials": 0}}, "experiments.sync.trials must be >= 1"),
    # an explicit null leaves a key unset, so this is half a pair
    ({"split": {"word_a": None, "word_b": [1]}}, "experiments.split: word_a and word_b must be given together"),
]


@pytest.mark.parametrize(
    "experiments,message", REJECTIONS, ids=[f"{i:02d}-{m}" for i, (_, m) in enumerate(REJECTIONS)]
)
def test_rejection_message(experiments, message):
    with pytest.raises(ConfigError) as info:
        resolve(experiments)
    assert str(info.value) == message


def _system(**changes) -> dict:
    system = copy.deepcopy(SYSTEM)
    system.update(changes)
    return system


SYSTEM_REJECTIONS = [
    (_system(transition_matrix=[[0.5, "0.5"], [0.2, 0.8]]), "system.transition_matrix row 1 must be a number"),
    (_system(transition_matrix=[[0.5, 0.5], [0.2, 0.7]]),
     "system.transition_matrix row 2 sums to 0.8999999999999999, expected 1 within 1e-12"),
    (_system(transition_matrix=[[1.5, -0.5], [0.2, 0.8]]),
     "system.transition_matrix row 1 has an entry outside [0, 1]"),
    (_system(ambient={"lo": [1.0], "hi": [0.0]}), "system.ambient coordinate 1 has lo >= hi"),
    (_system(ambient={"lo": [0.0], "hi": [True]}), "system.ambient.hi[0] must be a number"),
    (_system(maps=[{"kind": "moebius", "a": 1, "b": 0, "c": 0, "d": "3"}, SYSTEM["maps"][1]]),
     "system.maps[0].d must be a number"),
    # Past the library's row-sum tolerance, so it fails here, not in build_shift.
    (_system(transition_matrix=[[0.5, 0.5000000005], [0.5, 0.5]]),
     "system.transition_matrix row 1 sums to 1.0000000005, expected 1 within 1e-12"),
    # Sums to 1 within the tolerance but has an entry above 1: the library's
    # row rule, not a schema twin of it, rejects it under its key path.
    (_system(transition_matrix=[[1.0000000000005, 0.0], [0.5, 0.5]]),
     "system.transition_matrix row 1 has an entry outside [0, 1]"),
    # Every row's entries are type-checked before any row-sum rule runs.
    (_system(transition_matrix=[[0.5, 0.6], [0.5, "0.5"]]), "system.transition_matrix row 2 must be a number"),
]


@pytest.mark.parametrize("system,message", SYSTEM_REJECTIONS)
def test_system_rejection_message(system, message):
    with pytest.raises(ConfigError) as info:
        resolve({}, system)
    assert str(info.value) == message


@pytest.mark.parametrize("name", list(DEFAULTS))
def test_resolve_block_of_nothing_is_the_default_block(name):
    resolved = resolve_block(name, {})
    assert json.dumps(resolved, sort_keys=True) == json.dumps(DEFAULTS[name], sort_keys=True)


def test_readme_schema_block_shows_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Configuration schema", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    shown = json.loads(re.sub(r"//.*", "", block))["experiments"]
    assert list(shown) == list(EXPERIMENT_BLOCKS)
    for name, given in shown.items():
        default = resolve_block(name, {})
        # Keys without a default (a word pair, a start point) appear only in comments.
        optional = {key for key, value in default.items() if value is None and key != "prefix_samples"}
        assert set(given) == set(default) - optional, name
        assert json.dumps(resolve_block(name, given), sort_keys=True) == json.dumps(default, sort_keys=True), name


@pytest.mark.parametrize(
    "text,message",
    [
        ("NaN", "experiments.weak_hyp.tol must be a finite number"),
        ("Infinity", "experiments.weak_hyp.tol must be a finite number"),
        ("1" + "0" * 400, "experiments.weak_hyp.tol must be a finite number"),
    ],
)
def test_non_finite_numbers_are_rejected(tmp_path, text, message):
    path = tmp_path / "config.json"
    path.write_text(
        '{"system": %s, "experiments": {"weak_hyp": {"tol": %s}}}' % (json.dumps(SYSTEM), text)
    )
    with pytest.raises(ConfigError) as info:
        load_config(str(path))
    assert str(info.value) == message
