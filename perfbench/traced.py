"""One traced run of the markovprod CLI, instrumented from outside.

Usage, with `src` on PYTHONPATH:

    python3 perfbench/traced.py LAYERS.json SPANS.npz -- SUBCOMMAND --config ... --out ...

Every public function named in run.TRACED_FUNCTIONS is wrapped by rebinding
its name in each markovprod module namespace that holds it (so
`cli.stability_experiment` and `markov_operator.stability_experiment` are
both traced), and `StateTaggedMeasure.state_mass` on its class.  Each call
records a span (name, start, end, parent) in memory.  After
`markovprod.cli.main` returns, the oracle measures are replayed through the
public `avoidance_measure` / `membership_measure` on the (word, ell, x)
inputs of every `verify_bounds` row, which must reproduce the row's lhs and
rhs exactly.  The aggregates per function (calls, inclusive and self
seconds) and the work counts go to LAYERS.json, the raw spans to SPANS.npz.

Counting hooks run on the clock's pause, so their cost lands in no span.
The process exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

import run as bench


class Tracer:
    """In-memory span recorder.  Span i has a name id, a start and an end in
    nanoseconds of hook-free time, and the index of its parent (-1 at the
    top).  Indices follow call order, so a parent precedes its children."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack: list[int] = []
        self.paused = 0
        self.counts: dict[str, int] = defaultdict(int)

    def now(self) -> int:
        return time.perf_counter_ns() - self.paused

    def wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        name_ids, starts, ends, parents, stack = (
            self.name_id, self.start, self.end, self.parent, self.stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(self.now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = self.now()
                stack.pop()
            if hook is not None:
                t0 = time.perf_counter_ns()
                hook(self.counts, args, kwargs, result)
                self.paused += time.perf_counter_ns() - t0
            return result

        return traced

    def aggregate(self, first_replay: int) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per name.  Spans from
        index `first_replay` on belong to the oracle replay: only its
        top-level spans count, so the CLI run alone sets every other layer's
        figures.  Self time is a span's time minus that of its direct
        children; no traced function calls itself through a traced name, so
        inclusive sums never nest."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        children = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(children, parent[nested], dur[nested])
        counted = (np.arange(len(dur)) < first_replay) | ~nested
        names, dur, children = names[counted], dur[counted], children[counted]
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        inclusive = np.bincount(names, weights=dur, minlength=n)
        own = np.bincount(names, weights=dur - children, minlength=n)
        return {
            name: {"calls": int(calls[i]), "s": inclusive[i] / 1e9, "self_s": own[i] / 1e9}
            for i, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
                 start_ns=np.frombuffer(self.start, np.int64),
                 end_ns=np.frombuffer(self.end, np.int64),
                 parent=np.frombuffer(self.parent, np.int64))


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_rows(key: str, rows_of):
    def hook(counts, args, kwargs, result):
        counts[key] += rows_of(result)
    return hook


def _distinct_particles(counts, args, kwargs, result) -> None:
    """Systematic resampling emits each stratum's picks in source order, so
    the copies of one particle sit together: distinct particles are the runs
    of equal consecutive (state, point) rows."""
    rows = np.column_stack([result.states.astype(float), result.points])
    counts["markov_operator.resample.slots"] += rows.shape[0]
    counts["markov_operator.resample.distinct"] += 1 + int(np.count_nonzero(
        np.any(rows[1:] != rows[:-1], axis=1)))


def _horizon(counts, args, kwargs, result) -> None:
    counts["splitting.horizon.prefixes"] += result.prefixes_checked


def _ergodic(counts, args, kwargs, result) -> None:
    counts["synchronization.ergodic.steps"] += result.steps


def install(tracer: Tracer) -> list:
    """Wrap every traced function; returns the recorded verify_bounds calls
    as (system, report) pairs for the replay."""
    import markovprod.cli  # imports every markovprod module
    from markovprod import markov_operator

    oracle_calls = []

    def operator_step(counts, args, kwargs, result):
        counts["markov_operator.particle_steps"] += _bind(
            originals["markov_operator.apply_operator"], args, kwargs)["mu"].n_particles

    def bounds(counts, args, kwargs, result):
        system = _bind(originals["oracle.verify_bounds"], args, kwargs)["sys"]
        oracle_calls.append((system, result))
        counts["oracle.rows"] += len(result.rows)
        counts["oracle.enumerated_words"] += sum(row.enumerated for row in result.rows)
        counts["oracle.membership_words"] += sum(row.membership_words for row in result.rows)
        per_ell = {row.ell: row.avoidance_words for row in result.rows}
        counts["oracle.avoidance_words"] += sum(per_ell.values())

    hooks = {
        "maps.map_points": _count_rows("maps.map_points.rows", lambda r: r.shape[0]),
        "maps.map_boxes": _count_rows("maps.map_boxes.rows", lambda r: r[0].shape[0]),
        "splitting.verify_split_horizon": _horizon,
        "oracle.verify_bounds": bounds,
        "markov_operator.apply_operator": operator_step,
        "markov_operator.resample": _distinct_particles,
        "synchronization.ergodic_average": _ergodic,
    }
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "markovprod" or name.startswith("markovprod.")]
    originals = {}
    for name in bench.TRACED_FUNCTIONS:
        module_name, attr = name.split(".")
        if name == "markov_operator.state_mass":
            cls = markov_operator.StateTaggedMeasure
            originals[name] = cls.state_mass
            cls.state_mass = tracer.wrap(name, cls.state_mass)
            continue
        original = getattr(importlib.import_module(f"markovprod.{module_name}"), attr)
        originals[name] = original
        wrapper = tracer.wrap(name, original, hooks.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return oracle_calls


def replay(oracle_calls) -> list[str]:
    """Time the public oracle measures on the inputs verify_bounds used and
    check that they agree with its rows."""
    from markovprod import oracle

    problems = []
    for system, report in oracle_calls:
        done = set()
        for row in report.rows:
            if row.ell not in done:
                done.add(row.ell)
                rhs = oracle.avoidance_measure(system.shift, report.word, row.ell, exact=report.exact)
                if rhs != row.rhs:
                    problems.append(f"avoidance_measure at ell={row.ell} is {rhs!r}, row has {row.rhs!r}")
            lhs = oracle.membership_measure(
                system, row.x, row.s, row.ell * report.block_length, exact=report.exact)
            if lhs != row.lhs:
                problems.append(
                    f"membership_measure at ell={row.ell}, x={row.x!r} is {lhs!r}, row has {row.lhs!r}")
    return problems


def main(argv: list[str]) -> int:
    layers_path, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer()
    oracle_calls = install(tracer)
    import markovprod.cli

    code = markovprod.cli.main(cli_args)
    first_replay = len(tracer.start)
    t0 = time.perf_counter()
    problems = replay(oracle_calls)
    replay_s = time.perf_counter() - t0
    with open(layers_path, "w", encoding="utf-8") as fh:
        json.dump({
            "functions": tracer.aggregate(first_replay),
            "counts": dict(tracer.counts),
            "replay_s": replay_s,
            "replay_problems": problems,
        }, fh, indent=1, sort_keys=True)
    tracer.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
