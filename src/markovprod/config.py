"""Experiment configuration: a JSON file validated by hand against a fixed
schema.

Every error is a ConfigError naming the offending key path (and, for matrix
problems, the 1-based row), raised before any computation starts.  Unknown
keys are rejected everywhere.  `load_config` returns the resolved
configuration with all defaults filled in, which report writers embed
verbatim for reproducibility; `build_system` turns its system block into a
MapSystem and checks the experiment values that depend on it.
"""

from __future__ import annotations

import json
import math
from functools import partial
from numbers import Real

from .errors import ConfigError, InvalidMatrix, MarkovProdError
from .maps import AffineMap, IntervalBox, MapSystem, MoebiusMap, sign_table
from .markov_operator import INITIAL_KINDS
from .shift import as_transition_matrix, build_shift
from .splitting import NORMALIZE_MODES, PRIMITIVE_MODE
from .synchronization import PHI_KINDS


def _require_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object")
    return value


def _check_keys(obj: dict, path: str, allowed: tuple[str, ...], required: tuple[str, ...] = ()) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}" if path else f"unknown key {key}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing key {path}.{key}" if path else f"missing key {key}")


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path} must be >= {minimum}")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{path} must be a number")
    # json accepts NaN and Infinity, and NaN passes every range check.
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{path} must be a finite number")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be true or false")
    return value


def _as_str(value, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path} must be one of {', '.join(choices)}")
    return value


def _as_number_list(value, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path} must be a nonempty array of numbers")
    return [_as_float(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _as_word(value, path: str) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path} must be a nonempty array of symbols")
    return [_as_int(v, f"{path}[{i}]", minimum=1) for i, v in enumerate(value)]


def _validate_matrix(value, path: str) -> list[list[float]]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path} must be a nonempty array of rows")
    k = len(value)
    rows = []
    for i, row in enumerate(value, start=1):
        if not isinstance(row, list) or len(row) != k:
            raise ConfigError(f"{path} row {i} must have {k} entries")
        rows.append([_as_float(v, f"{path} row {i}") for v in row])
    try:
        as_transition_matrix(rows)
    except InvalidMatrix as exc:
        raise ConfigError(f"{path} {exc}") from exc
    return rows


def _validate_declared_types(value, path: str, dim: int) -> list[list[str]]:
    if not isinstance(value, list) or len(value) != dim:
        raise ConfigError(f"{path} must have {dim} rows of signs")
    rows = []
    for i, row in enumerate(value, start=1):
        if not isinstance(row, list) or len(row) != dim:
            raise ConfigError(f"{path} row {i} must have {dim} entries")
        for v in row:
            if v not in ("+", "-", "0"):
                raise ConfigError(f"{path} row {i} entries must be '+', '-', or '0'")
        rows.append(list(row))
    return rows


def _validate_map(obj, path: str, dim: int) -> dict:
    obj = _require_dict(obj, path)
    kind = _as_str(obj.get("kind"), f"{path}.kind", ("moebius", "affine")) if "kind" in obj else None
    if kind is None:
        raise ConfigError(f"missing key {path}.kind")
    declared = None
    if "declared_types" in obj:
        declared = _validate_declared_types(obj["declared_types"], f"{path}.declared_types", dim)
    if kind == "moebius":
        _check_keys(obj, path, ("kind", "a", "b", "c", "d", "declared_types"), ("a", "b", "c", "d"))
        if dim != 1:
            raise ConfigError(f"{path}: moebius maps need a 1-dimensional ambient box")
        out = {"kind": "moebius"}
        for key in ("a", "b", "c", "d"):
            out[key] = _as_float(obj[key], f"{path}.{key}")
    else:
        _check_keys(obj, path, ("kind", "matrix", "offset", "declared_types"), ("matrix", "offset"))
        matrix = obj["matrix"]
        if not isinstance(matrix, list) or len(matrix) != dim:
            raise ConfigError(f"{path}.matrix must have {dim} rows")
        rows = []
        for i, row in enumerate(matrix, start=1):
            if not isinstance(row, list) or len(row) != dim:
                raise ConfigError(f"{path}.matrix row {i} must have {dim} entries")
            rows.append([_as_float(v, f"{path}.matrix row {i}") for v in row])
        offset = _as_number_list(obj["offset"], f"{path}.offset")
        if len(offset) != dim:
            raise ConfigError(f"{path}.offset must have {dim} entries")
        out = {"kind": "affine", "matrix": rows, "offset": offset}
    if declared is not None:
        out["declared_types"] = declared
    return out


def _validate_system(obj, path: str) -> dict:
    obj = _require_dict(obj, path)
    _check_keys(obj, path, ("ambient", "transition_matrix", "maps"), ("ambient", "transition_matrix", "maps"))
    ambient = _require_dict(obj["ambient"], f"{path}.ambient")
    _check_keys(ambient, f"{path}.ambient", ("lo", "hi"), ("lo", "hi"))
    lo = _as_number_list(ambient["lo"], f"{path}.ambient.lo")
    hi = _as_number_list(ambient["hi"], f"{path}.ambient.hi")
    if len(lo) != len(hi):
        raise ConfigError(f"{path}.ambient lo and hi must have the same length")
    for i, (a, b) in enumerate(zip(lo, hi), start=1):
        if a >= b:
            raise ConfigError(f"{path}.ambient coordinate {i} has lo >= hi")
    matrix = _validate_matrix(obj["transition_matrix"], f"{path}.transition_matrix")
    maps = obj["maps"]
    if not isinstance(maps, list) or not maps:
        raise ConfigError(f"{path}.maps must be a nonempty array")
    if len(maps) != len(matrix):
        raise ConfigError(
            f"{path}.maps has {len(maps)} entries for a {len(matrix)}-state matrix"
        )
    dim = len(lo)
    return {
        "ambient": {"lo": lo, "hi": hi},
        "transition_matrix": matrix,
        "maps": [_validate_map(m, f"{path}.maps[{i}]", dim) for i, m in enumerate(maps)],
    }


def _as_initials(value, path: str) -> list[str]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path} must be a nonempty array")
    for i, kind in enumerate(value):
        _as_str(kind, f"{path}[{i}]", INITIAL_KINDS)
    if len(set(value)) != len(value):
        raise ConfigError(f"{path} must not repeat")
    return list(value)


def _as_positive(value, path: str) -> float:
    value = _as_float(value, path)
    if value <= 0.0:
        raise ConfigError(f"{path} must be positive")
    return value


def _as_words(value, path: str) -> list[list[int]]:
    if not isinstance(value, list):
        raise ConfigError(f"{path} must be an array of words")
    return [_as_word(w, f"{path}[{i}]") for i, w in enumerate(value)]


def _as_phi(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path} must be an array like [\"coordinate\", 1]")
    kind = _as_str(value[0], f"{path}[0]", PHI_KINDS)
    want = 3 if kind == "product" else 2
    if len(value) != want:
        raise ConfigError(f"{path} with kind {kind} must have {want} entries")
    return [kind] + [_as_int(v, f"{path}[{i}]", minimum=1) for i, v in enumerate(value[1:], start=1)]


# Experiment block -> key -> (default, check).  A key left out takes its
# default, which passes through the check (so lists come out fresh) unless
# it is None.  For a key whose default is None an explicit null means unset,
# so a resolved config loads again; other keys' checks reject null.  Keys
# are checked in table order, which fixes the error a block with several
# bad keys reports; `all` runs blocks in table order.
_BLOCK_SCHEMA = {
    "stationary": {},
    "split": {
        "word_a": (None, _as_word),
        "word_b": (None, _as_word),
        "max_len": (3, partial(_as_int, minimum=1)),
        "horizon": (10, partial(_as_int, minimum=0)),
        "cloud_size": (64, partial(_as_int, minimum=1)),
        "normalize_mode": (PRIMITIVE_MODE, partial(_as_str, choices=NORMALIZE_MODES)),
        "strict_endpoints": (False, _as_bool),
        "prefix_samples": (None, partial(_as_int, minimum=1)),
    },
    "oracle": {
        "xi": (None, _as_word),
        "eta": (None, _as_word),
        "ell_max": (6, partial(_as_int, minimum=1)),
        "grid_points": (33, partial(_as_int, minimum=1)),
        "s": (1, partial(_as_int, minimum=1)),
        "exact": (False, _as_bool),
    },
    "operator": {
        "initials": (list(INITIAL_KINDS), _as_initials),
        "n_steps": (30, partial(_as_int, minimum=1)),
        "particles": (10_000, partial(_as_int, minimum=1)),
        "target_samples": (20_000, partial(_as_int, minimum=1)),
        "target_depth": (64, partial(_as_int, minimum=1)),
    },
    "sync": {
        "trials": (100, partial(_as_int, minimum=1)),
        "n_max": (20, partial(_as_int, minimum=3)),
        "cloud_size": (256, partial(_as_int, minimum=1)),
    },
    "contract": {
        "trials": (10, partial(_as_int, minimum=1)),
        "n_max": (20, partial(_as_int, minimum=3)),
    },
    "weak_hyp": {
        "tol": (1e-9, _as_positive),
        "trials": (10_000, partial(_as_int, minimum=1)),
        "depth": (40, partial(_as_int, minimum=1)),
    },
    "coding": {
        "words": ([], _as_words),
        "depth": (40, partial(_as_int, minimum=1)),
        "invariance_samples": (1000, partial(_as_int, minimum=0)),
    },
    "ergodic": {
        "n": (1_000_000, partial(_as_int, minimum=100)),
        "x": (None, _as_number_list),
        "phi": (["coordinate", 1], _as_phi),
        "target_samples": (20_000, partial(_as_int, minimum=2)),
    },
}

EXPERIMENT_BLOCKS = tuple(_BLOCK_SCHEMA)

# Keys that name one word pair: both are given or neither is.
_TOGETHER = {"split": ("word_a", "word_b"), "oracle": ("xi", "eta")}


def resolve_block(name: str, obj: dict) -> dict:
    """Check one experiment block against _BLOCK_SCHEMA; returns it with the
    defaults filled in.  resolve_block(name, {}) is the default block."""
    path = f"experiments.{name}"
    schema = _BLOCK_SCHEMA[name]
    _check_keys(obj, path, tuple(schema))
    out = {}
    for key, (default, check) in schema.items():
        value = obj.get(key, default)
        out[key] = None if value is None and default is None else check(value, f"{path}.{key}")
    if name in _TOGETHER:
        a, b = _TOGETHER[name]
        if (out[a] is None) != (out[b] is None):
            raise ConfigError(f"{path}: {a} and {b} must be given together")
    return out


def experiment_block(experiments: dict, name: str) -> dict:
    """The resolved block `name` of a config's experiments; a block the
    config leaves out takes its defaults."""
    return experiments.get(name) or resolve_block(name, {})


def validate_config(raw) -> dict:
    """Check a parsed JSON document against the schema; returns the resolved
    config with defaults filled in."""
    raw = _require_dict(raw, "config")
    _check_keys(raw, "", ("system", "seed", "out", "experiments"), ("system",))
    resolved = {
        "system": _validate_system(raw["system"], "system"),
        "seed": _as_int(raw.get("seed", 0), "seed", minimum=0),
        "out": _as_str(raw.get("out", "reports"), "out"),
        "experiments": {},
    }
    experiments = _require_dict(raw.get("experiments", {}), "experiments")
    for name, block in experiments.items():
        if name not in EXPERIMENT_BLOCKS:
            raise ConfigError(f"unknown key experiments.{name}")
        resolved["experiments"][name] = resolve_block(name, _require_dict(block, f"experiments.{name}"))
    return resolved


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(raw)


def build_system(config: dict) -> MapSystem:
    """Construct the validated MapSystem from a resolved config."""
    block = config["system"]
    ambient = IntervalBox(tuple(block["ambient"]["lo"]), tuple(block["ambient"]["hi"]))
    maps = []
    for i, spec in enumerate(block["maps"]):
        if spec["kind"] == "moebius":
            f = MoebiusMap(spec["a"], spec["b"], spec["c"], spec["d"])
        else:
            f = AffineMap(tuple(tuple(row) for row in spec["matrix"]), tuple(spec["offset"]))
        declared = spec.get("declared_types")
        if declared is not None:
            actual = sign_table(f)
            if tuple(tuple(row) for row in declared) != actual:
                raise ConfigError(
                    f"system.maps[{i}].declared_types does not match the computed "
                    f"sign table {actual}"
                )
        maps.append(f)
    try:
        shift = build_shift(block["transition_matrix"])
        system = MapSystem(shift=shift, maps=tuple(maps), ambient=ambient)
    except MarkovProdError as exc:
        raise ConfigError(f"system block rejected: {exc}") from exc
    _check_blocks_fit(config["experiments"], system)
    return system


def _check_blocks_fit(experiments: dict, system: MapSystem) -> None:
    """Reject the block values that the system cannot take: coordinates above
    its dimension, an ergodic start point of another dimension or outside the
    ambient box, and fewer operator particles than states."""
    dim = system.dim
    ergodic = experiment_block(experiments, "ergodic")
    coordinates = [("experiments.oracle.s", experiment_block(experiments, "oracle")["s"])]
    coordinates += [(f"experiments.ergodic.phi[{i}]", s) for i, s in enumerate(ergodic["phi"][1:], start=1)]
    for path, s in coordinates:
        if s > dim:
            raise ConfigError(f"{path} must be <= {dim}, the dimension of the system")
    x = ergodic["x"]
    if x is not None and len(x) != dim:
        raise ConfigError(f"experiments.ergodic.x must have {dim} entries")
    if x is not None and not system.ambient.contains(x):
        raise ConfigError("experiments.ergodic.x must lie in the ambient box")
    if experiment_block(experiments, "operator")["particles"] < system.k:
        raise ConfigError(f"experiments.operator.particles must be >= {system.k}, the number of states")
