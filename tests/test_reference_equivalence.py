"""Bit-equality of the operator, the ergodic orbit and the word compositions
with plain references.

The references below are the straightforward per-step and per-call
implementations that the library's verified lockstep orbit, memoized
measures with their recorded state blocks, merged transport grid, single
composition primitive (`maps.orbit`, plus one batch loop that gathers the
maps' coefficients by symbol), batched horizon walk, batched decay curves
and oracle membership walk over a whole x-grid replace.  Every comparison is `==` on
floats (plus `repr`, which also tells 0.0 from -0.0): the new code must
compute the same doubles, not close ones.  The one exception is the oracle's
avoidance measure: its transfer-matrix recursion sums in another order than
the word enumeration it replaces, so it equals the enumeration exactly in
Fraction mode and to 1e-12 relative on floats.
"""

from __future__ import annotations

import gc
import math
import tracemalloc
import weakref
from dataclasses import astuple, replace
from fractions import Fraction
from functools import partial
from itertools import product, takewhile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import UNIT, cantor_markov, diagonal_2d, moebius_pair, single_contraction
from markovprod import (
    AffineMap,
    DenominatorVanishes,
    InadmissibleWord,
    IntervalBox,
    MapSystem,
    MarkovProdError,
    MoebiusMap,
    apply_operator,
    build_initial,
    build_shift,
    ergodic_average,
    estimate_target,
    make_measure,
    measure_contraction_experiment,
    resample,
    sample_word,
    sample_words,
    stability_experiment,
    sync_experiment,
    wasserstein_1d,
    weak_star_distance,
)
from markovprod import maps, markov_operator, oracle, splitting, synchronization
from markovprod import shift as shift_module
from markovprod.config import build_system, load_config
from markovprod.maps import (
    advance_rows,
    batch_reverse_boxes,
    batch_reverse_points,
    box_image,
    evaluate_map,
    forward_box_chain,
    forward_orbit,
    map_boxes,
    map_points,
    reverse_box,
    reverse_composition,
)
from markovprod.markov_operator import (
    StabilityResult,
    StabilityRow,
    StateTaggedMeasure,
    _allocate_slots,
    _planned_transport,
    _section,
    _transport,
    _TransportPlan,
)
from markovprod.splitting import HorizonReport, ambient_cloud, verify_split_horizon
from markovprod.synchronization import (
    BATCH_COUNT,
    ContractionFit,
    ContractionResult,
    ContractionRow,
    DecayCurve,
    ErgodicResult,
    RateFit,
    SyncResult,
    coding_invariance,
    coding_point,
    fit_decay_rate,
    image_diameter_curve,
)
from markovprod.synchronization import test_function as observable

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# --- references -------------------------------------------------------------


def _ref_apply(f):
    if isinstance(f, MoebiusMap):
        a, b, c, d = f.a, f.b, f.c, f.d
        return lambda x: ((a * x[0] + b) / (c * x[0] + d),)
    rows = f.matrix
    off = f.offset
    return lambda x: tuple(
        o + sum(a * v for a, v in zip(row, x)) for row, o in zip(rows, off)
    )


def ref_ergodic_average(sys, x, phi, n, seed=0, target_samples=20_000):
    f_phi = observable(phi)
    x = tuple(float(v) for v in x)
    P = sys.shift.P
    cums = tuple(tuple(float(c) for c in np.cumsum(P[i])) for i in range(sys.k))
    p_cum = tuple(float(c) for c in np.cumsum(sys.shift.p))
    rng = np.random.default_rng(seed)
    us = rng.random(n)
    appliers = tuple(_ref_apply(f) for f in sys.maps)

    def pick(cum, u):
        for j, c in enumerate(cum):
            if u < c:
                return j
        return len(cum) - 1

    batch_size = n // BATCH_COUNT
    used = batch_size * BATCH_COUNT
    batch_sums = np.zeros(BATCH_COUNT)
    state = pick(p_cum, us[0])
    total = 0.0
    pt = x
    for i in range(used):
        v = f_phi(pt)
        total += v
        batch_sums[i // batch_size] += v
        if i + 1 < used:
            state = pick(cums[state], us[i + 1])
            pt = appliers[state](pt)

    average = total / used
    batch_means = batch_sums / batch_size
    batch_sigma = float(batch_means.std(ddof=1) / np.sqrt(BATCH_COUNT))
    target = estimate_target(sys, target_samples, seed=seed + 104729)
    vals = np.array([f_phi(tuple(pt_)) for pt_ in target.measure.points])
    reference = float((vals * target.measure.weights).sum())
    reference_sigma = float(vals.std(ddof=1) / np.sqrt(target_samples))
    return ErgodicResult(
        average=average,
        batch_sigma=batch_sigma,
        reference=reference,
        reference_sigma=reference_sigma,
        steps=used,
    )


def ref_state_mass(mu):
    return np.array([math.fsum(mu.weights[mu.states == j + 1]) for j in range(mu.k)])


def ref_resample(mu, target_count, seed=0):
    masses = ref_state_mass(mu)
    slots = _allocate_slots(masses, target_count)
    rng = np.random.default_rng(seed)
    states_out, points_out, weights_out = [], [], []
    for j in range(1, mu.k + 1):
        n_j = int(slots[j - 1])
        if n_j == 0:
            continue
        sel = mu.states == j
        w = mu.weights[sel]
        pts = mu.points[sel]
        cum = np.cumsum(w)
        mass = math.fsum(w)
        offsets = (rng.random() + np.arange(n_j)) / n_j * min(mass, float(cum[-1]))
        idx = np.minimum(np.searchsorted(cum, offsets, side="right"), w.shape[0] - 1)
        states_out.append(np.full(n_j, j, dtype=np.int64))
        points_out.append(pts[idx])
        weights_out.append(np.full(n_j, mass / n_j))
    return StateTaggedMeasure(
        states=np.concatenate(states_out),
        points=np.concatenate(points_out),
        weights=np.concatenate(weights_out),
        k=mu.k,
    )


def ref_wasserstein_1d(x1, w1, x2, w2):
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    o1 = np.argsort(x1, kind="stable")
    o2 = np.argsort(x2, kind="stable")
    x1, w1 = x1[o1], w1[o1]
    x2, w2 = x2[o2], w2[o2]
    return ref_transport((x1, np.cumsum(w1)), (x2, np.cumsum(w2)))


def ref_transport(sec1, sec2):
    """The transport of two sections on the union1d grid, each quantile
    index found by its own binary search."""
    x1, c1 = sec1
    x2, c2 = sec2
    grid = np.union1d(c1, c2)
    grid = grid[grid <= min(c1[-1], c2[-1]) + 1e-15]
    prev = np.concatenate(([0.0], grid[:-1]))
    du = grid - prev
    mid = (grid + prev) / 2.0
    q1 = x1[np.minimum(np.searchsorted(c1, mid, side="left"), x1.shape[0] - 1)]
    q2 = x2[np.minimum(np.searchsorted(c2, mid, side="left"), x2.shape[0] - 1)]
    return float(np.sum(np.abs(q1 - q2) * du))


def ref_weak_star_distance(mu, nu):
    m1 = ref_state_mass(mu)
    m2 = ref_state_mass(nu)
    total = 0.0
    for j in range(mu.k):
        total += abs(float(m1[j]) - float(m2[j]))
        overlap = min(float(m1[j]), float(m2[j]))
        if overlap <= 0.0:
            continue
        sel1 = mu.states == j + 1
        sel2 = nu.states == j + 1
        w1 = mu.weights[sel1] / m1[j]
        w2 = nu.weights[sel2] / m2[j]
        for s in range(mu.dim):
            total += overlap * ref_wasserstein_1d(
                mu.points[sel1, s], w1, nu.points[sel2, s], w2
            )
    return total


def ref_stability_experiment(sys, initials, n_steps, particle_budget, seed=0, *,
                             target_samples=None, target_depth=64):
    target = estimate_target(
        sys, target_samples or particle_budget, target_depth, seed=seed + 977
    )
    p = sys.shift.p
    P = sys.shift.P
    rows = []
    worst = 0.0
    for idx, (name, mu) in enumerate(sorted(initials.items())):
        expected = ref_state_mass(mu)
        current = mu
        rows.append(StabilityRow(
            step=0,
            initial_id=name,
            distance=ref_weak_star_distance(current, target.measure),
            mass_gap=float(np.abs(ref_state_mass(current) - p).max()),
        ))
        for n in range(1, n_steps + 1):
            current = apply_operator(current, sys)
            current = ref_resample(current, particle_budget, seed=seed + 7919 * idx + n)
            expected = expected @ P
            worst = max(worst, float(np.abs(ref_state_mass(current) - expected).max()))
            rows.append(StabilityRow(
                step=n,
                initial_id=name,
                distance=ref_weak_star_distance(current, target.measure),
                mass_gap=float(np.abs(ref_state_mass(current) - p).max()),
            ))
    return StabilityResult(
        rows=tuple(rows), mass_identity_error=worst, target_diameter=target.max_diameter
    )


def assert_bit_equal(new, ref):
    assert new == ref
    assert repr(new) == repr(ref)


# --- systems ----------------------------------------------------------------


def affine_1d():
    # Negative slope and a -0.0 offset.
    return MapSystem(
        shift=build_shift([[0.3, 0.7], [0.6, 0.4]]),
        maps=(AffineMap(((-0.5,),), (0.75,)), AffineMap(((0.25,),), (-0.0,))),
        ambient=UNIT,
    )


def signed_zero_1d():
    # Mixed kinds; x -> -x/3 turns 0.0 into -0.0 and x -> x/2 + (-0.0)
    # turns it back, so an orbit from 0.0 keeps flipping the sign of zero.
    return MapSystem(
        shift=build_shift([[0.3, 0.7], [0.6, 0.4]]),
        maps=(MoebiusMap(-1.0, -0.0, 0.0, 3.0), AffineMap(((0.5,),), (-0.0,))),
        ambient=IntervalBox((-1.0,), (1.0,)),
    )


def affine_2d():
    return MapSystem(
        shift=build_shift([[0.7, 0.3], [0.45, 0.55]]),
        maps=(
            AffineMap(((0.3, -0.2), (0.1, 0.4)), (0.5, 0.25)),
            AffineMap(((-0.25, 0.15), (0.2, -0.3)), (0.55, 0.6)),
        ),
        ambient=IntervalBox((0.0, 0.0), (1.0, 1.0)),
    )


def affine_3d():
    return MapSystem(
        shift=build_shift([[0.5, 0.5], [0.25, 0.75]]),
        maps=(
            AffineMap(((0.2, -0.1, 0.05), (0.1, 0.3, -0.2), (-0.15, 0.1, 0.25)),
                      (0.4, 0.45, 0.35)),
            AffineMap(((-0.3, 0.1, 0.1), (0.05, -0.2, 0.15), (0.1, 0.1, 0.1)),
                      (0.6, 0.5, 0.3)),
        ),
        ambient=IntervalBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
    )


def three_state_1d():
    # Non-iid chain with zero transitions 1 -> 3 and 3 -> 2.
    return MapSystem(
        shift=build_shift([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.4, 0.0, 0.6]]),
        maps=(MoebiusMap(1, 0, -1, 4), MoebiusMap(0, 2, -1, 3), MoebiusMap(1.0, 1.0, 0.0, 3.0)),
        ambient=UNIT,
    )


def sign_of(x):
    return math.copysign(1.0, x[0])


ERGODIC_CASES = [
    pytest.param(cantor_markov, (0.3,), ("coordinate", 1), 5_000, id="moebius-markov"),
    pytest.param(moebius_pair, (0.9,), ("square", 1), 12_345, id="moebius-square-n12345"),
    pytest.param(affine_1d, (0.2,), ("coordinate", 1), 20_000, id="affine1d-above-chunk"),
    pytest.param(affine_1d, (1.0,), lambda x: x[0] * 3.0 - 1.0, 150, id="affine1d-callable-n150"),
    pytest.param(signed_zero_1d, (0.0,), sign_of, 3_000, id="mixed1d-signed-zero"),
    pytest.param(affine_2d, (0.3, 0.7), ("coordinate", 2), 4_321, id="affine2d-coordinate"),
    pytest.param(affine_2d, (0.9, 0.1), ("product", 1, 2), 6_000, id="affine2d-product"),
    pytest.param(affine_2d, (0.5, 0.5), ("square", 2), 2_000, id="affine2d-square"),
    pytest.param(diagonal_2d, (0.3, 0.7), lambda x: x[0] - x[1], 3_000, id="diagonal2d-callable"),
    pytest.param(affine_3d, (0.1, 0.5, 0.9), ("product", 3, 1), 2_500, id="affine3d-product"),
    pytest.param(affine_3d, (0.2, 0.2, 0.2), ("coordinate", 2), 1_000, id="affine3d-coordinate"),
    pytest.param(three_state_1d, (0.5,), ("coordinate", 1), 7_777, id="k3-zero-transition"),
    pytest.param(three_state_1d, (0.0,), lambda x: 1.0 / (1.0 + x[0]), 999, id="k3-callable"),
    pytest.param(single_contraction, (0.9,), ("square", 1), 1_234, id="k1-affine"),
]


@pytest.mark.parametrize("factory, x, phi, n", ERGODIC_CASES)
def test_ergodic_average_matches_reference(factory, x, phi, n):
    sys = factory()
    new = ergodic_average(sys, x, phi, n, seed=5, target_samples=300)
    ref = ref_ergodic_average(sys, x, phi, n, seed=5, target_samples=300)
    assert_bit_equal(astuple(new), astuple(ref))


@pytest.mark.parametrize("length", [1, 7, 256])
@pytest.mark.parametrize("lanes", [1, 3, 64])
@pytest.mark.parametrize("factory, x, phi", [
    (three_state_1d, (0.5,), ("square", 1)),
    (affine_2d, (0.3, 0.7), ("coordinate", 1)),
    (affine_3d, (0.1, 0.5, 0.9), lambda x: x[0] + x[2]),
    (signed_zero_1d, (0.0,), sign_of),
])
def test_ergodic_average_independent_of_lane_layout(monkeypatch, lanes, length, factory, x, phi):
    # Small layouts split every batch into several super-chunks, with a
    # partial last one.  Without a warm-up every lane starts from the guess
    # (state 0, x) at its first own step, so a lane whose predecessor does
    # not end there is re-run; on signed_zero_1d that includes an end at
    # -0.0, which equals the guess 0.0 but not bit for bit.
    sys = factory()
    ref = ref_ergodic_average(sys, x, phi, 2_345, seed=11, target_samples=200)
    for name, value in (("_LANES", lanes), ("_LANE_STEPS", length), ("_WARMUP", 0)):
        monkeypatch.setattr(synchronization, name, value)
    new = ergodic_average(sys, x, phi, 2_345, seed=11, target_samples=200)
    assert_bit_equal(astuple(new), astuple(ref))


def flip_1d():
    # x -> 1 - x and x -> x: orbits from two points never merge.
    return MapSystem(
        shift=build_shift([[0.5, 0.5], [0.5, 0.5]]),
        maps=(AffineMap(((-1.0,),), (1.0,)), AffineMap(((1.0,),), (0.0,))),
        ambient=UNIT,
    )


def orbit_reruns(sys, x, n, seed):
    rng = np.random.default_rng(seed)
    return sum(reruns for _, reruns in synchronization._orbit(sys, x, n, rng))


def test_ergodic_average_reruns_lanes_of_orbits_that_never_merge(monkeypatch):
    # From 0.1 the orbit moves to 0.9 and 1 - 0.9 = 0.09999999999999998, and
    # never comes back to 0.1.  The shipped layout re-runs every lane whose
    # guess took the wrong number of flips; without a warm-up the guess
    # (state 0, 0.1) is wrong for every lane but each super-chunk's first.
    sys = flip_1d()
    ref = ref_ergodic_average(sys, (0.1,), ("coordinate", 1), 20_000, seed=4, target_samples=200)
    new = ergodic_average(sys, (0.1,), ("coordinate", 1), 20_000, seed=4, target_samples=200)
    assert_bit_equal(astuple(new), astuple(ref))
    assert orbit_reruns(sys, (0.1,), 20_000, seed=4) > 0
    for name, value in (("_LANES", 4), ("_LANE_STEPS", 8), ("_WARMUP", 0)):
        monkeypatch.setattr(synchronization, name, value)
    new = ergodic_average(sys, (0.1,), ("coordinate", 1), 20_000, seed=4, target_samples=200)
    assert_bit_equal(astuple(new), astuple(ref))
    # 40 super-chunks of 4 lanes of 8 steps after the start point.
    assert orbit_reruns(sys, (0.1,), 1 + 40 * 32, seed=4) == 40 * 3


def test_orbits_that_never_merge_take_one_kernel_pass_per_super_chunk(monkeypatch):
    # Each lockstep round costs a kernel pass however few lanes it settles;
    # once a round would re-run more than `_SCALAR_SHARE` of the lanes, the
    # lanes are settled by scalar steps instead, so the orbit makes no
    # round after the first pass.
    sys = flip_1d()
    passes = []
    kernel = synchronization._lockstep
    monkeypatch.setattr(synchronization, "_lockstep", lambda *args: passes.append(1) or kernel(*args))
    chunk = synchronization._LANES * synchronization._LANE_STEPS + synchronization._WARMUP
    assert orbit_reruns(sys, (0.1,), 1 + 3 * chunk, seed=4) > 3 * synchronization._SCALAR_SHARE * synchronization._LANES
    assert len(passes) == 3


@pytest.mark.parametrize("name", ["cantor_iid", "diagonal_2d"])
def test_shipped_orbits_rerun_no_lane(name):
    # The lanes of the shipped iid systems merge within the warm-up, so the
    # orbit's speed does not come from its fallback.
    config = load_config(str(CONFIGS / f"{name}.json"))
    block = config["experiments"]["ergodic"]
    assert orbit_reruns(build_system(config), tuple(block["x"]), block["n"], seed=3) == 0


def test_square_observable_uses_python_power():
    # x ** 2 and x * x round differently on some floats; the orbit of the
    # constant map x -> v stays at v, so the average adds v ** 2 n times.
    rng = np.random.default_rng(0)
    n = 100

    def average(square):
        total = 0.0
        for _ in range(n):
            total += square
        return total / n

    candidates = (v for v in rng.random(200_000).tolist() if average(v ** 2) != average(v * v))
    v = next(candidates, None)
    assert v is not None, "no float in the sample has x ** 2 != x * x"
    sys = MapSystem(shift=build_shift([[1.0]]), maps=(AffineMap(((0.0,),), (v,)),), ambient=UNIT)
    result = ergodic_average(sys, (v,), ("square", 1), n, seed=1, target_samples=10)
    assert result.average == average(v ** 2) != average(v * v)


def test_signed_zero_case_flips_sign():
    # The signed-zero system must really visit -0.0, or its case above
    # would test nothing beyond the others.
    sys = signed_zero_1d()
    result = ergodic_average(sys, (0.0,), sign_of, 3_000, seed=5, target_samples=300)
    assert -1.0 < result.average < 1.0


# --- operator -----------------------------------------------------------------


def random_measure(sys, n, seed, states=None, grid=None):
    """Random particles; with `grid`, points are snapped to that many values
    per coordinate, so that tied points carry different weights."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(sys.ambient.lo, float)
    hi = np.asarray(sys.ambient.hi, float)
    u = rng.random((n, sys.dim))
    if grid is not None:
        u = np.floor(u * grid) / grid
    pts = lo + u * (hi - lo)
    if states is None:
        states = rng.integers(1, sys.k + 1, size=n)
    w = rng.random(n) + 0.01
    return make_measure(sys, states, pts, w / w.sum())


@pytest.mark.parametrize("factory", [cantor_markov, diagonal_2d, affine_3d, three_state_1d])
def test_state_mass_resample_and_distance_match_reference(factory):
    sys = factory()
    mu = random_measure(sys, 501, seed=1)
    nu = random_measure(sys, 377, seed=2)
    lone = random_measure(sys, 50, seed=3, states=np.ones(50, dtype=np.int64))
    tied = random_measure(sys, 800, seed=7, grid=5)
    for m in (mu, nu, lone, tied):
        assert_bit_equal(m.state_mass().tolist(), ref_state_mass(m).tolist())
    for a, b in [(mu, nu), (nu, mu), (mu, lone), (lone, nu), (mu, mu), (tied, mu), (nu, tied)]:
        assert_bit_equal(weak_star_distance(a, b), ref_weak_star_distance(a, b))
    new = resample(mu, 200, seed=4)
    ref = ref_resample(mu, 200, seed=4)
    for field in ("states", "points", "weights"):
        assert np.array_equal(getattr(new, field), getattr(ref, field))
    x1, x2 = mu.points[:, 0], nu.points[:, 0]
    assert_bit_equal(
        wasserstein_1d(x1, mu.weights, x2, nu.weights),
        ref_wasserstein_1d(x1, mu.weights, x2, nu.weights),
    )


def ulps(x, n):
    """x moved by n units in the last place."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


HALF, THREE_Q = 0.5, 0.75
# Breakpoint pairs (c1, c2).  Adjacent doubles: the midpoint of 0.5 and its
# successor rounds down onto 0.5, that of the successor and the next one up.
TRANSPORT_CASES = {
    "one-ulp-apart": ([0.25, HALF, ulps(HALF, 2), THREE_Q, 1.0],
                      [ulps(0.25, 1), ulps(HALF, 1), ulps(THREE_Q, -1), ulps(THREE_Q, 1), 1.0]),
    "shared": ([0.2, HALF, 0.8, 1.0], [0.2, 0.6, 0.8, 1.0]),
    "shared-and-adjacent": ([HALF, ulps(HALF, 1), 1.0], [ulps(HALF, 1), ulps(HALF, 2), 1.0]),
    "unequal-length": ([0.3, 0.9, 1.0], list(np.cumsum(np.full(50, 0.02)))),
    "single-particle": ([1.0], [0.1, 0.35, ulps(0.35, 1), 1.0]),
    "both-single": ([1.0], [1.0]),
    "tail-above-the-cap": ([HALF, 1.0 - 4e-15], [0.25, 1.0 - 2e-15, 1.0]),
    "totals-one-ulp-apart": ([HALF, 1.0], [0.4, ulps(1.0, -1)]),
}


@pytest.mark.parametrize("c1, c2", list(TRANSPORT_CASES.values()), ids=list(TRANSPORT_CASES))
def test_transport_matches_the_union_grid(c1, c2):
    c1, c2 = np.array(c1), np.array(c2)
    x1 = np.linspace(0.1, 0.9, c1.shape[0])
    x2 = np.linspace(0.95, 0.05, c2.shape[0]) ** 2
    for sec1, sec2 in [((x1, c1), (x2, c2)), ((x2, c2), (x1, c1)), ((x1, c1), (x1, c1))]:
        assert_bit_equal(_transport(sec1, sec2), ref_transport(sec1, sec2))


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2)), min_size=1, max_size=12),
       other=st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2)), min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1))
def test_transport_matches_on_near_ties(steps, other, seed):
    # Breakpoints a few ulps around four bases, so that the two sides share
    # some, sit next to each other, and repeat within one side.
    bases = (0.125, 0.3, HALF, 0.7)
    c1, c2 = (np.sort([ulps(bases[b], n) for b, n in side] + [1.0]) for side in (steps, other))
    rng = np.random.default_rng(seed)
    secs = [(np.sort(rng.random(c.shape[0])), c) for c in (c1, c2)]
    assert_bit_equal(_transport(*secs), ref_transport(*secs))


def plan_holder():
    """A stand-in for the measure whose memo keeps the plans."""
    return SimpleNamespace(_memo={})


@pytest.mark.parametrize("c1, c2", list(TRANSPORT_CASES.values()), ids=list(TRANSPORT_CASES))
def test_warm_plan_matches_the_union_grid_for_new_points(c1, c2):
    # A plan depends on the cumulative weights only; evaluated again on
    # other points it must still give the reference's bits.
    c1, c2 = np.array(c1), np.array(c2)
    rng = np.random.default_rng(5)
    holder = plan_holder()
    plans = []
    for x1, x2 in [(np.linspace(0.1, 0.9, c1.shape[0]), np.linspace(0.95, 0.05, c2.shape[0]) ** 2),
                   (np.sort(rng.random(c1.shape[0])), -np.sort(rng.random(c2.shape[0]))),
                   (np.zeros(c1.shape[0]), np.full(c2.shape[0], 0.5))]:
        got = _planned_transport(holder, 0, (x1, c1), (x2, c2))
        assert_bit_equal(got, ref_transport((x1, c1), (x2, c2)))
        plans.append(holder._memo[("plan", 0)])
    assert plans[0] is plans[1] is plans[2]


@pytest.mark.parametrize("c1, c2", list(TRANSPORT_CASES.values()), ids=list(TRANSPORT_CASES))
def test_plan_is_not_reused_for_weights_one_ulp_away(c1, c2):
    # Moving any one entry of either side by one ulp, either way, gives
    # another pair of weight vectors: the cached plan must not serve it.
    c1, c2 = np.array(c1), np.array(c2)
    plan = _TransportPlan(c1, c2)
    assert plan.fits(c1.copy(), c2.copy())
    for side in (0, 1):
        for i in range(len((c1, c2)[side])):
            for direction in (-1, 1):
                moved = [c1.copy(), c2.copy()]
                moved[side][i] = ulps(moved[side][i], direction)
                assert not plan.fits(*moved)
    # Through a measure's memo, a near miss builds a new plan and gives the
    # reference's bits.
    x1, x2 = np.linspace(0.1, 0.9, c1.shape[0]), np.linspace(0.95, 0.05, c2.shape[0]) ** 2
    holder = plan_holder()
    _planned_transport(holder, 0, (x1, c1), (x2, c2))
    first = holder._memo[("plan", 0)]
    near = c1.copy()
    near[0] = ulps(near[0], -1)
    assert_bit_equal(_planned_transport(holder, 0, (x1, near), (x2, c2)), ref_transport((x1, near), (x2, c2)))
    assert holder._memo[("plan", 0)] is not first


def test_stability_run_holds_at_most_one_plan_per_state(monkeypatch):
    # Plans are kept per state on the target, so a run holds at most k of
    # them at any distance, and none once it returns.
    sys = three_state_1d()
    live = weakref.WeakSet()
    built = []

    class CountedPlan(_TransportPlan):
        def __init__(self, c1, c2):
            super().__init__(c1, c2)
            live.add(self)
            built.append(1)

    held = []
    distance = markov_operator.weak_star_distance

    def counted_distance(mu, nu):
        result = distance(mu, nu)
        gc.collect()
        held.append(len(live))
        return result

    monkeypatch.setattr(markov_operator, "_TransportPlan", CountedPlan)
    monkeypatch.setattr(markov_operator, "weak_star_distance", counted_distance)
    kinds = ("uniform", "corner", "center")
    initials = {kind: build_initial(sys, kind, 120, seed=31 * i) for i, kind in enumerate(kinds)}
    stability_experiment(sys, initials, 6, 120, seed=3, target_samples=400, target_depth=30)
    assert len(held) == 3 * 7
    assert 0 < max(held) <= sys.k
    gc.collect()
    assert len(live) == 0
    assert len(built) > 0


def ref_sections(mu, j):
    sel = mu.states == j + 1
    w = mu.weights[sel] / ref_state_mass(mu)[j]
    return [_section(mu.points[sel, s], w) for s in range(mu.dim)]


def check_measure(mu):
    """state_mass and the sections equal the mask and fsum references, and
    recorded blocks spell out the states and weights exactly."""
    assert_bit_equal(mu.state_mass().tolist(), ref_state_mass(mu).tolist())
    for j in range(mu.k):
        if ref_state_mass(mu)[j] > 0.0:
            new = [[a.tolist() for a in sec] for sec in mu.sections(j)]
            assert_bit_equal(new, [[a.tolist() for a in sec] for sec in ref_sections(mu, j)])
    if mu._blocks is not None:
        runs = [(j + 1, count, w) for j, b in enumerate(mu._blocks) for count, w in b]
        assert mu.states.tolist() == [j for j, count, _ in runs for _ in range(count)]
        assert_bit_equal(mu.weights.tolist(), [w for _, count, w in runs for _ in range(count)])


def gapped_three_state_1d():
    # State 2 never enters state 2, so the parents of state 2 are states 1
    # and 3, whose runs are not adjacent.
    return MapSystem(
        shift=build_shift([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.2, 0.4, 0.4]]),
        maps=three_state_1d().maps,
        ambient=UNIT,
    )


def assert_one_read_only_array(mu):
    """Each field of mu is one C-contiguous, read-only array of its own."""
    for arr in (mu.states, mu.points, mu.weights):
        assert arr.flags.c_contiguous and arr.flags.owndata and not arr.flags.writeable


@pytest.mark.parametrize("factory", [cantor_markov, diagonal_2d, three_state_1d, gapped_three_state_1d])
def test_recorded_blocks_match_the_masks_and_fsums(factory):
    # From starts with no recorded blocks (the cycling uniform start, a
    # random measure, a corner), the first resample records them and every
    # later step carries them; three_state_1d has zero transitions, and on
    # gapped_three_state_1d the parents of state 2 are not adjacent.  Both
    # steps write their outputs as one array per field.
    sys = factory()
    starts = [build_initial(sys, "uniform", 301, seed=2), random_measure(sys, 257, seed=3),
              build_initial(sys, "corner", 40)]
    for i, mu in enumerate(starts):
        assert mu._blocks is None
        check_measure(mu)
        assert apply_operator(mu, sys)._blocks is None
        for n in range(5):
            stepped = apply_operator(mu, sys)
            check_measure(stepped)
            assert_one_read_only_array(stepped)
            mu = resample(stepped, 97, seed=10 * i + n)
            assert_one_read_only_array(mu)
            ref = ref_resample(stepped, 97, seed=10 * i + n)
            for field in ("states", "points", "weights"):
                assert_bit_equal(getattr(mu, field).tolist(), getattr(ref, field).tolist())
            assert mu._blocks is not None
            check_measure(mu)
            assert_bit_equal(weak_star_distance(mu, starts[0]), ref_weak_star_distance(mu, starts[0]))


@pytest.mark.parametrize("factory", [cantor_markov, diagonal_2d, three_state_1d, gapped_three_state_1d])
def test_apply_operator_on_recorded_blocks_matches_the_mask_path(factory):
    # A measure with recorded blocks takes each child set from the parents'
    # state runs; the same arrays without blocks take it by a mask.  On the
    # three-state systems, state 3 has no particles one step after a corner
    # start, so some runs are empty.
    sys = factory()
    for i, mu in enumerate([build_initial(sys, "uniform", 301, seed=2), build_initial(sys, "corner", 40)]):
        for n in range(4):
            mu = resample(apply_operator(mu, sys), 97, seed=10 * i + n)
            assert mu._blocks is not None
            plain = StateTaggedMeasure(mu.states, mu.points, mu.weights, mu.k)
            blocked, masked = apply_operator(mu, sys), apply_operator(plain, sys)
            for field in ("states", "points", "weights"):
                assert_bit_equal(getattr(blocked, field).tolist(), getattr(masked, field).tolist())


def test_blocks_are_not_a_constructor_field():
    # Only apply_operator and resample record blocks; a caller cannot pass
    # blocks that disagree with the arrays.
    mu = random_measure(cantor_markov(), 10, seed=6)
    with pytest.raises(TypeError):
        StateTaggedMeasure(mu.states, mu.points, mu.weights, mu.k, _blocks=((), ()))


def test_state_mass_returns_a_fresh_copy():
    mu = random_measure(cantor_markov(), 100, seed=6)
    first = mu.state_mass()
    first[:] = -1.0
    assert_bit_equal(mu.state_mass().tolist(), ref_state_mass(mu).tolist())


def test_measure_arrays_are_read_only():
    sys = cantor_markov()
    weights = np.full(4, 0.25)
    mu = make_measure(sys, [1, 2, 1, 2], [0.1, 0.2, 0.3, 0.4], weights)
    masses = mu.state_mass()
    for arr in (mu.states, mu.points, mu.weights, weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[1]
    stepped = resample(apply_operator(mu, sys), 4, seed=0)
    for arr in (stepped.states, stepped.points, stepped.weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[1]
    assert_bit_equal(mu.state_mass().tolist(), masses.tolist())


@pytest.mark.parametrize("factory, budget", [
    (cantor_markov, 200),
    (moebius_pair, 333),
    (diagonal_2d, 250),
    (affine_2d, 150),
    (three_state_1d, 120),
])
def test_stability_experiment_matches_reference(factory, budget):
    sys = factory()
    kinds = ("uniform", "corner", "center")
    initials = {kind: build_initial(sys, kind, budget, seed=31 * i) for i, kind in enumerate(kinds)}
    new = stability_experiment(sys, initials, 6, budget, seed=3, target_samples=400, target_depth=30)
    # Fresh initial measures, so that nothing memoized above is reused.
    initials = {kind: build_initial(sys, kind, budget, seed=31 * i) for i, kind in enumerate(kinds)}
    ref = ref_stability_experiment(sys, initials, 6, budget, seed=3, target_samples=400,
                                   target_depth=30)
    assert len(new.rows) == 3 * 7
    assert_bit_equal(new, ref)


# --- word compositions --------------------------------------------------------
# The per-symbol loops that maps.orbit and the shared masked batch loop
# replace, as they were written out in maps, oracle, splitting and
# synchronization.


def ref_forward_orbit(sys, word, x):
    x = tuple(x)
    for s in word:
        x = evaluate_map(sys.map_for(s), x)
    return x


def ref_reverse_composition(sys, word, x):
    x = tuple(x)
    for s in reversed(word):
        x = evaluate_map(sys.map_for(s), x)
    return x


def ref_forward_box_chain(sys, word, box=None):
    cur = sys.ambient if box is None else box
    out = [cur]
    for s in word:
        cur = box_image(sys.map_for(s), cur)
        out.append(cur)
    return out


def ref_reverse_box(sys, word, box=None):
    cur = sys.ambient if box is None else box
    for s in reversed(word):
        cur = box_image(sys.map_for(s), cur)
    return cur


def ref_reverse_boxes_disjoint(maps, ambient, word_a, word_b):
    def rev_box(word):
        box = ambient
        for sym in reversed(word):
            box = box_image(maps[sym - 1], box)
        return box

    ba, bb = rev_box(word_a), rev_box(word_b)
    for s in range(ambient.dim):
        if ba.hi[s] >= bb.lo[s] and bb.hi[s] >= ba.lo[s]:
            return False
    return True


def ref_enumerate_membership(maps, ambient, tables, x, s, n):
    k = len(maps)
    si = s - 1
    total = tables.one * 0
    count = 0
    words = []
    path = []

    def chain_contains():
        box = ambient
        for sym in reversed(path):
            box = box_image(maps[sym - 1], box)
        return box.lo[si] <= x <= box.hi[si]

    def rec(measure, last):
        nonlocal total, count
        if len(path) == n:
            total = total + measure
            count += 1
            words.append(tuple(path))
            return
        for a in range(1, k + 1):
            step = tables.q[last - 1][a - 1] if last else tables.p[a - 1]
            if step == 0:
                continue
            path.append(a)
            if chain_contains():
                rec(measure * step, a)
            path.pop()

    if n == 0:
        return tables.one, 1, [()]
    rec(tables.one, 0)
    return total, count, words


def ref_enumerate_avoidance(tables, k, word, ell):
    """Measure and count of the avoiding words by enumerating every word
    whose steps are all positive, depth first."""
    n_block = len(word)
    n = ell * n_block
    total = tables.one * 0
    count = 0

    def rec(pos, last, match, measure):
        nonlocal total, count
        if pos == n:
            total = total + measure
            count += 1
            return
        r = pos % n_block
        closing = r == n_block - 1
        for a in range(1, k + 1):
            step = tables.q[last - 1][a - 1] if pos else tables.p[a - 1]
            if step == 0:
                continue
            still = match and a == word[r]
            if closing and still:
                continue
            rec(pos + 1, a, True if closing else still, measure * step)

    if n == 0:
        return tables.one, 1
    rec(0, 0, True, tables.one)
    return total, count


class RefSweep:
    """The node checks of the horizon walk, one node at a time: per-depth
    certification flags and the first violation in visiting order."""

    def __init__(self, sys, word_a, word_b, n_max, cloud_size):
        self.sys, self.n_max = sys, n_max
        self.cert = [True] * (n_max + 1)
        self.violation = None
        cloud_a = cloud_b = ambient_cloud(sys, cloud_size)
        for s in word_a:
            cloud_a = map_points(sys.map_for(s), cloud_a)
        for s in word_b:
            cloud_b = map_points(sys.map_for(s), cloud_b)
        self.root = (ref_forward_box_chain(sys, word_a)[-1], ref_forward_box_chain(sys, word_b)[-1],
                     cloud_a, cloud_b)

    def visit(self, depth, ba, bb, ca, cb, prefix):
        if any(ba.hi[s] >= bb.lo[s] and bb.hi[s] >= ba.lo[s] for s in range(self.sys.dim)):
            self.cert[depth] = False
        if self.violation is None:
            a_lo, a_hi = ca.min(axis=0), ca.max(axis=0)
            b_lo, b_hi = cb.min(axis=0), cb.max(axis=0)
            for s in range(self.sys.dim):
                if a_hi[s] >= b_lo[s] and b_hi[s] >= a_lo[s]:
                    self.violation = (depth, s + 1, prefix)
                    break

    def report(self, exhaustive, prefixes):
        per_n = tuple(
            "violated" if self.violation is not None and self.violation[0] == d
            else "certified" if ok else "not-falsified"
            for d, ok in enumerate(self.cert)
        )
        return HorizonReport(n_max=self.n_max, exhaustive=exhaustive, prefixes_checked=prefixes,
                             per_n=per_n, violation=self.violation,
                             certified_to=len(list(takewhile(bool, self.cert))) - 1)


def ref_exhaustive_horizon(sys, word_a, word_b, n_max, cloud_size):
    """The exhaustive horizon walk as the recursive tree walk it was: every
    node is visited in preorder, children in symbol order."""
    sweep = RefSweep(sys, word_a, word_b, n_max, cloud_size)

    def walk(depth, ba, bb, ca, cb, prefix):
        sweep.visit(depth, ba, bb, ca, cb, prefix)
        if depth == n_max:
            return
        for j in range(1, sys.k + 1):
            f = sys.maps[j - 1]
            walk(depth + 1, box_image(f, ba), box_image(f, bb), map_points(f, ca), map_points(f, cb),
                 prefix + (j,))

    walk(0, *sweep.root, ())
    return sweep.report(True, sys.k**n_max)


def ref_sampled_horizon(sys, word_a, word_b, n_max, prefix_samples, cloud_size, seed):
    """The sampled horizon walk with the root visited once and then each
    sample's prefixes in turn, one map at a time."""
    sweep = RefSweep(sys, word_a, word_b, n_max, cloud_size)
    rng = np.random.default_rng(seed)
    sampled = rng.integers(1, sys.k + 1, size=(prefix_samples, n_max))
    sweep.visit(0, *sweep.root, ())
    for row in sampled:
        ba, bb, ca, cb = sweep.root
        for depth, j in enumerate(row, start=1):
            f = sys.maps[int(j) - 1]
            ba, bb = box_image(f, ba), box_image(f, bb)
            ca, cb = map_points(f, ca), map_points(f, cb)
            sweep.visit(depth, ba, bb, ca, cb, tuple(int(v) for v in row[:depth]))
    return sweep.report(False, prefix_samples)


def ref_image_diameter_curve(sys, word, n_max, cloud_size):
    boxes = ref_forward_box_chain(sys, word[:n_max])
    upper = tuple(float(sum(float(h) - float(l) for l, h in zip(b.lo, b.hi))) for b in boxes)
    cloud = ambient_cloud(sys, cloud_size)
    lower = [float((cloud.max(axis=0) - cloud.min(axis=0)).sum())]
    for sym in word[:n_max]:
        cloud = map_points(sys.maps[sym - 1], cloud)
        lower.append(float((cloud.max(axis=0) - cloud.min(axis=0)).sum()))
    return DecayCurve(word=word[:n_max], n=tuple(range(n_max + 1)), upper=upper, lower=tuple(lower))


def ref_sync_experiment(sys, trials, n_max, seed, cloud_size):
    """sync_experiment as the per-trial loop it was."""
    synchronization._require_row_positive(sys)
    curves, fits = [], []
    for t in range(trials):
        curve = ref_image_diameter_curve(sys, ref_sample_word(sys.shift, n_max, seed=seed + t), n_max,
                                         cloud_size)
        c_hat, q_hat = fit_decay_rate(curve)
        curves.append(curve)
        fits.append(RateFit(trial=t, q_hat=q_hat, c_hat=c_hat))
    return SyncResult(curves=tuple(curves), fits=tuple(fits))


def ref_measure_contraction_experiment(sys, trials, n_max, seed):
    """measure_contraction_experiment as the per-trial loop it was."""
    synchronization._require_row_positive(sys)
    rows, fits = [], []
    for t in range(trials):
        word = ref_sample_word(sys.shift, n_max, seed=seed + t)
        boxes = ref_forward_box_chain(sys, word)
        for s in range(1, sys.dim + 1):
            lengths = tuple(float(b.hi[s - 1]) - float(b.lo[s - 1]) for b in boxes)
            rows += [ContractionRow(trial=t, s=s, n=n, length=v) for n, v in enumerate(lengths)]
            curve = DecayCurve(word=word, n=tuple(range(len(lengths))), upper=lengths, lower=lengths)
            c_hat, q_hat = fit_decay_rate(curve)
            fits.append(ContractionFit(trial=t, s=s, q_hat=q_hat, c_hat=c_hat))
    return ContractionResult(rows=tuple(rows), fits=tuple(fits))


def ref_batch_reverse_points(sys, words, anchor):
    words = np.asarray(words)
    n = words.shape[0]
    pts = np.array(np.broadcast_to(np.asarray(anchor, dtype=float), (n, sys.dim)))
    for t in range(words.shape[1] - 1, -1, -1):
        col = words[:, t]
        for j in range(1, sys.k + 1):
            mask = col == j
            if mask.any():
                pts[mask] = map_points(sys.maps[j - 1], pts[mask])
    return pts


def ref_batch_reverse_boxes(sys, words):
    words = np.asarray(words)
    n = words.shape[0]
    lo = np.tile(np.asarray(sys.ambient.lo, dtype=float), (n, 1))
    hi = np.tile(np.asarray(sys.ambient.hi, dtype=float), (n, 1))
    for t in range(words.shape[1] - 1, -1, -1):
        col = words[:, t]
        for j in range(1, sys.k + 1):
            mask = col == j
            if mask.any():
                lo[mask], hi[mask] = map_boxes(sys.maps[j - 1], lo[mask], hi[mask])
    return lo, hi


def ref_advance_rows(sys, symbols, arrays):
    """advance_rows as the masked loop: per symbol, a mask, a copy of the
    rows, a map_boxes / map_points call and a scatter."""
    symbols = np.asarray(symbols)
    for j in range(1, sys.k + 1):
        mask = symbols == j
        if mask.any():
            f = sys.maps[j - 1]
            lo, hi, *clouds = (a[mask] for a in arrays)
            images = [*map_boxes(f, lo.reshape(-1, f.dim), hi.reshape(-1, f.dim))]
            images += [map_points(f, c.reshape(-1, f.dim)) for c in clouds]
            for a, image, part in zip(arrays, images, (lo, hi, *clouds)):
                a[mask] = image.reshape(part.shape)
    return arrays


def random_affine_2d(seed):
    """Random self-maps of the unit square whose off-diagonal entries are
    negative, so every box image mixes lower and upper corners."""
    rng = np.random.default_rng(seed)
    maps = []
    for _ in range(2):
        A = rng.uniform(-0.3, 0.3, size=(2, 2))
        A[0, 1], A[1, 0] = -abs(A[0, 1]), -abs(A[1, 0])
        low = np.minimum(A, 0.0).sum(axis=1)
        high = np.maximum(A, 0.0).sum(axis=1)
        b = rng.uniform(0.01 - low, 0.99 - high)
        maps.append(AffineMap(tuple(map(tuple, A.tolist())), tuple(b.tolist())))
    P = rng.uniform(0.1, 1.0, size=(2, 2))
    return MapSystem(
        shift=build_shift((P / P.sum(axis=1, keepdims=True)).tolist()),
        maps=tuple(maps),
        ambient=IntervalBox((0.0, 0.0), (1.0, 1.0)),
    )


def fraction_system(factory):
    """The same system with Fraction coefficients and ambient box."""
    sys = factory()
    maps, ambient = oracle._scalar_geometry(sys, exact=True)
    return MapSystem(ambient=ambient, maps=maps, shift=sys.shift)


def sample_words_of(sys, rng, count, max_len):
    lengths = [0] + [int(n) for n in rng.integers(1, max_len + 1, size=count)]
    return [tuple(int(a) for a in rng.integers(1, sys.k + 1, size=n)) for n in lengths]


def inner_box(box):
    """A start box strictly inside `box`, in the box's own number type."""
    return IntervalBox(
        tuple(a + (b - a) / 4 for a, b in zip(box.lo, box.hi)),
        tuple(a + (b - a) * 3 / 5 for a, b in zip(box.lo, box.hi)),
    )


def check_scalar_compositions(sys, seed):
    rng = np.random.default_rng(seed)
    x = tuple(a + (b - a) * 3 / 7 for a, b in zip(sys.ambient.lo, sys.ambient.hi))
    for word in sample_words_of(sys, rng, 6, 9):
        assert_bit_equal(forward_orbit(sys, word, x), ref_forward_orbit(sys, word, x))
        assert_bit_equal(reverse_composition(sys, word, x), ref_reverse_composition(sys, word, x))
        for box in (None, inner_box(sys.ambient)):
            assert_bit_equal(forward_box_chain(sys, word, box), ref_forward_box_chain(sys, word, box))
            assert_bit_equal(reverse_box(sys, word, box), ref_reverse_box(sys, word, box))


def membership_grids(sys, s, exact):
    """The default grid; some of its points out of order, repeated and with a
    signed zero; and the cylinder endpoints 1/3, 2/9 and 2/3 that lie in the
    ambient projection, where membership rests on the closed boundary."""
    conv = Fraction if exact else float
    default = [conv(x) for x in oracle.default_grid(sys, s)]
    lo, hi = sys.ambient.project(s)
    shuffled = [default[i] for i in (20, 3, 31, 3, 0, 20, 16, 32, 16, 9)]
    shuffled += [conv(-0.0)] if lo <= 0 <= hi else []
    ends = [v for v in (Fraction(1, 3), Fraction(2, 9), Fraction(2, 3)) if lo <= v <= hi]
    return default, shuffled, [conv(v) for v in ends]


def check_membership_walk(sys, exact, depths=range(7)):
    """The walk for all depths and a whole grid gives, for each (n, x), the
    measure, count and member words of the per-point reference DFS."""
    maps, ambient = oracle._scalar_geometry(sys, exact)
    tables = oracle._tables(sys.shift, exact)
    for s in range(1, sys.dim + 1):
        for xs in membership_grids(sys, s, exact):
            walked = oracle._walk_membership(maps, ambient, tables, xs, s, depths, collect=True)
            for n, per_x in zip(depths, walked):
                for x, new in zip(xs, per_x):
                    assert_bit_equal(new, ref_enumerate_membership(maps, ambient, tables, x, s, n))


def check_oracle_chains(sys, exact):
    check_membership_walk(sys, exact)
    maps, ambient = oracle._scalar_geometry(sys, exact)
    for pair in [((1,), (2,)), ((1, 2), (2, 1)), ((1, 1, 2), (1, 2, 2)), ((sys.k, 1), (sys.k, 1))]:
        assert oracle._reverse_boxes_disjoint(maps, ambient, *pair) == ref_reverse_boxes_disjoint(
            maps, ambient, *pair
        )


HORIZON_PAIRS = [((1, 1), (2, 1)), ((1, 2), (2, 2)), ((2, 1), (1, 2, 1))]


def check_clouds(sys, seed):
    for (word_a, word_b), n_max in product(HORIZON_PAIRS, (0, 1, 5)):
        assert_bit_equal(verify_split_horizon(sys, word_a, word_b, n_max, prefix_samples=30,
                                              cloud_size=9, seed=seed),
                         ref_sampled_horizon(sys, word_a, word_b, n_max, 30, 9, seed))
    word = tuple(int(a) for a in np.random.default_rng(seed).integers(1, sys.k + 1, size=12))
    for n_max in (0, 3, 12):
        assert_bit_equal(image_diameter_curve(sys, word, n_max, 17),
                         ref_image_diameter_curve(sys, word, n_max, 17))


def frontier_rows(sys, n, seed):
    """n rows shaped as the horizon walk holds them: boxes (n, 2, m) inside
    the ambient box and clouds (n, 2, 5, m)."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(sys.ambient.lo, dtype=float)
    hi = np.asarray(sys.ambient.hi, dtype=float)
    a, b, cloud = (lo + rng.random(shape + (sys.dim,)) * (hi - lo) for shape in ((n, 2), (n, 2), (n, 2, 5)))
    return [np.minimum(a, b), np.maximum(a, b), cloud]


def check_batches(sys, words):
    anchor = sys.ambient.center()
    assert_bit_equal(batch_reverse_points(sys, words, anchor).tolist(),
                     ref_batch_reverse_points(sys, words, anchor).tolist())
    new_lo, new_hi = batch_reverse_boxes(sys, words)
    ref_lo, ref_hi = ref_batch_reverse_boxes(sys, words)
    assert_bit_equal((new_lo.tolist(), new_hi.tolist()), (ref_lo.tolist(), ref_hi.tolist()))
    if words.shape[1]:
        rows = frontier_rows(sys, words.shape[0], seed=int(words.sum()))
        new = advance_rows(sys, words[:, 0], [a.copy() for a in rows])
        assert_bit_equal([a.tolist() for a in new],
                         [a.tolist() for a in ref_advance_rows(sys, words[:, 0], rows)])


# Seeds 0, 6, 8 and 25 give random systems whose sampled horizon walk
# (seed 2) first finds a cloud overlap at depth 2 to 4 of some pair, and 14
# and 16 ones whose enclosures separate or overlap only from some depth on.
FLOAT_SYSTEMS = [cantor_markov, moebius_pair, affine_1d, signed_zero_1d, affine_2d, affine_3d,
                 three_state_1d, diagonal_2d] + [
    pytest.param(partial(random_affine_2d, seed), id=f"random_affine_2d-{seed}")
    for seed in (0, 6, 8, 14, 16, 25)
]


@pytest.mark.parametrize("factory", FLOAT_SYSTEMS)
def test_compositions_match_the_per_symbol_loops(factory):
    sys = factory()
    check_scalar_compositions(sys, seed=1)
    check_oracle_chains(sys, exact=False)
    check_oracle_chains(sys, exact=True)
    check_clouds(sys, seed=2)
    words = np.random.default_rng(3).integers(1, sys.k + 1, size=(40, 7))
    for depth in (0, 1, 7):
        check_batches(sys, words[:, :depth])


@pytest.mark.parametrize("factory", [cantor_markov, moebius_pair, affine_2d, three_state_1d])
def test_fraction_compositions_match_the_per_symbol_loops(factory):
    check_scalar_compositions(fraction_system(factory), seed=4)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_compositions_match_on_random_affine_2d_systems(seed):
    sys = random_affine_2d(seed)
    assert any(a < 0 for f in sys.maps for a in (f.matrix[0][1], f.matrix[1][0]))
    check_scalar_compositions(sys, seed)
    check_oracle_chains(sys, exact=False)
    check_clouds(sys, seed)
    words = np.random.default_rng(seed).integers(1, 3, size=(30, 6))
    check_batches(sys, words)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_membership_walk_matches_on_random_affine_2d_systems_in_exact_mode(seed):
    # The float walk runs in the test above, through check_oracle_chains.
    check_membership_walk(random_affine_2d(seed), exact=True)


@pytest.mark.parametrize("offset", [-1.0, math.nan], ids=["escaping", "nan"])
def test_membership_walk_matches_on_enclosures_outside_their_prefixes(offset):
    # x -> 3x - 1 sends [0, 1] onto [-1, 2], so an enclosure can hold points
    # its prefix's enclosure lost; a nan offset makes every enclosure after
    # it [nan, nan], which holds no point.  The per-point DFS drops such
    # points, and so must the walk.
    maps = (AffineMap(((3.0,),), (offset,)), AffineMap(((0.5,),), (0.0,)))
    tables = oracle._tables(build_shift([[0.5, 0.5], [0.5, 0.5]]), False)
    xs = [0.0, 0.25, 0.5, 0.75, 1.0]
    walked = oracle._walk_membership(maps, UNIT, tables, xs, 1, range(5), collect=True)
    for n, per_x in enumerate(walked):
        for x, new in zip(xs, per_x):
            assert_bit_equal(new, ref_enumerate_membership(maps, UNIT, tables, x, 1, n))


@pytest.mark.parametrize("factory", [cantor_markov, affine_2d])
def test_membership_walk_keeps_its_bits_when_every_enclosure_is_evicted(factory, monkeypatch):
    monkeypatch.setattr(oracle, "ENCLOSURE_CACHE", 1)
    check_membership_walk(factory(), exact=False)
    check_membership_walk(factory(), exact=True, depths=(2, 5))


def test_batch_loop_skips_symbols_absent_from_a_column():
    # k = 3; column 0 holds only symbol 1, column 1 never holds symbol 3,
    # and the last column holds every symbol.
    sys = three_state_1d()
    words = np.array([[1, 2, 3], [1, 1, 1], [1, 2, 2], [1, 1, 3]])
    check_batches(sys, words)
    check_batches(sys, words[:1])


@pytest.mark.parametrize("block_points", [1, 7])
@pytest.mark.parametrize("factory", FLOAT_SYSTEMS)
def test_batches_match_across_row_blocks(factory, block_points, monkeypatch):
    monkeypatch.setattr(maps, "BLOCK_POINTS", block_points)
    sys = factory()
    words = np.random.default_rng(5).integers(1, sys.k + 1, size=(40, 7))
    for depth in (1, 7):
        check_batches(sys, words[:, :depth])


@pytest.mark.parametrize("factory", [moebius_pair, signed_zero_1d, affine_3d])
def test_batches_match_past_the_shipped_block(factory):
    sys = factory()
    words = np.random.default_rng(6).integers(1, sys.k + 1, size=(maps.BLOCK_POINTS + 123, 3))
    check_batches(sys, words)


@pytest.mark.parametrize("factory", [signed_zero_1d, affine_1d])
def test_batches_keep_the_sign_of_zero_rows(factory):
    # Rows that start at 0.0 or -0.0 and boxes [-0.0, 0.0], [-0.0, -0.0]:
    # x -> -x/3, x/2 + (-0.0) and 0.25 x + (-0.0) flip or keep the sign.
    sys = factory()
    words = np.array([[1, 2], [2, 1], [2, 2], [1, 1]])
    anchors = np.array([[0.0], [-0.0], [-0.0], [0.0]])
    assert_bit_equal(batch_reverse_points(sys, words, anchors).tolist(),
                     ref_batch_reverse_points(sys, words, anchors).tolist())
    lo = np.array([[[-0.0], [-0.0]]] * 4)
    hi = np.array([[[0.0], [-0.0]]] * 4)
    clouds = np.concatenate([lo, hi], axis=1)[:, :, None, :]
    new = advance_rows(sys, words[:, 0], [lo.copy(), hi.copy(), clouds.copy()])
    ref = ref_advance_rows(sys, words[:, 0], [lo, hi, clouds])
    assert_bit_equal([a.tolist() for a in new], [a.tolist() for a in ref])


# --- horizon walk and decay curves ---------------------------------------------
# The frontier walk maps BLOCK_POINTS cloud points at a time; with 4096-point
# clouds the last frontier of a depth-4 walk, 30 samples and 20 sync trials
# each span several blocks; BLOCK_POINTS = 1 puts every row in a block of
# its own, and 2 * 9 * 3 three rows of 9-point clouds, splitting the
# children of one row across blocks.

BIG_CLOUD = 4096


def outcome(fn, *args, **kwargs):
    """What fn returns, or the type and message of the error it raises."""
    try:
        return fn(*args, **kwargs)
    except MarkovProdError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("block_points", [None, 1, 2 * 9 * 3],
                         ids=["shipped-blocks", "one-row-blocks", "three-row-blocks"])
@pytest.mark.parametrize("factory", FLOAT_SYSTEMS)
def test_horizon_walk_matches_the_node_by_node_walks(factory, block_points, monkeypatch):
    if block_points is not None:
        monkeypatch.setattr(splitting, "BLOCK_POINTS", block_points)
    sys = factory()
    for (word_a, word_b), n_max in product(HORIZON_PAIRS, (0, 1, 2, 5)):
        assert_bit_equal(verify_split_horizon(sys, word_a, word_b, n_max, cloud_size=9),
                         ref_exhaustive_horizon(sys, word_a, word_b, n_max, 9))
        assert_bit_equal(verify_split_horizon(sys, word_a, word_b, n_max, prefix_samples=30,
                                              cloud_size=9, seed=5),
                         ref_sampled_horizon(sys, word_a, word_b, n_max, 30, 9, 5))


@pytest.mark.parametrize("factory", FLOAT_SYSTEMS)
def test_horizon_walk_matches_across_blocks(factory):
    sys = factory()
    assert min(sys.k**4, 30) * 2 * BIG_CLOUD > maps.BLOCK_POINTS
    for word_a, word_b in HORIZON_PAIRS:
        assert_bit_equal(verify_split_horizon(sys, word_a, word_b, 4, cloud_size=BIG_CLOUD),
                         ref_exhaustive_horizon(sys, word_a, word_b, 4, BIG_CLOUD))
        assert_bit_equal(verify_split_horizon(sys, word_a, word_b, 4, prefix_samples=30,
                                              cloud_size=BIG_CLOUD, seed=1),
                         ref_sampled_horizon(sys, word_a, word_b, 4, 30, BIG_CLOUD, 1))


@pytest.mark.parametrize("prefix_samples, rows", [(None, 2 + 4 + 8 + 16), (30, 4 * 30)])
def test_horizon_walk_maps_every_prefix_once(monkeypatch, prefix_samples, rows):
    mapped = []

    def counting(sys, symbols, arrays):
        mapped.append(len(symbols))
        return advance_rows(sys, symbols, arrays)

    monkeypatch.setattr(splitting, "advance_rows", counting)
    verify_split_horizon(moebius_pair(), (1, 1), (2, 1), 4, prefix_samples=prefix_samples,
                         cloud_size=BIG_CLOUD)
    assert sum(mapped) == rows
    assert len(mapped) > 4


def test_coefficient_tables_are_built_once_per_system(monkeypatch):
    # The sync trials and the horizon walk span several blocks each, every
    # block one batched composition; all of them share the system's tables.
    built = []
    tables = MapSystem.__dict__["coefficient_tables"]
    build = tables.func
    monkeypatch.setattr(tables, "func", lambda sys: built.append(sys) or build(sys))
    sys = moebius_pair()
    sync_experiment(sys, 20, 6, seed=4, cloud_size=BIG_CLOUD)
    verify_split_horizon(sys, (1, 1), (2, 1), 4, cloud_size=BIG_CLOUD)
    batch_reverse_boxes(sys, np.ones((3, 2), dtype=np.int64))
    assert len(built) == 1 and built[0] is sys
    twin = replace(sys)
    assert_bit_equal([a.tolist() for a in batch_reverse_boxes(twin, np.ones((3, 2), dtype=np.int64))],
                     [a.tolist() for a in batch_reverse_boxes(sys, np.ones((3, 2), dtype=np.int64))])
    assert len(built) == 2 and built[1] is twin
    assert twin.coefficient_tables is not sys.coefficient_tables


@pytest.mark.parametrize("factory", FLOAT_SYSTEMS)
def test_decay_curves_match_the_per_trial_loops(factory):
    sys = factory()
    assert 20 * BIG_CLOUD > maps.BLOCK_POINTS
    for trials, n_max, cloud_size in ((3, 8, 17), (20, 6, BIG_CLOUD)):
        assert_bit_equal(outcome(sync_experiment, sys, trials, n_max, seed=4, cloud_size=cloud_size),
                         outcome(ref_sync_experiment, sys, trials, n_max, 4, cloud_size))
    assert_bit_equal(outcome(measure_contraction_experiment, sys, 6, 9, seed=4),
                     outcome(ref_measure_contraction_experiment, sys, 6, 9, 4))


# --- image kernels ------------------------------------------------------------
# The four kernels as they were written out before `_point_image` and
# `_box_image` replaced them: scalar loops for points and boxes, a matrix
# product and an (n, m, m) broadcast for the batch images.


def ref_evaluate_map(f, x):
    x = tuple(x)
    if isinstance(f, AffineMap):
        return tuple(
            b + sum(a * v for a, v in zip(row, x)) for row, b in zip(f.matrix, f.offset)
        )
    den = f.c * x[0] + f.d
    if den == 0:
        raise DenominatorVanishes(f"denominator vanishes at x = {x[0]!r}")
    return ((f.a * x[0] + f.b) / den,)


def ref_box_image(f, box):
    if isinstance(f, AffineMap):
        lo, hi = [], []
        for row, b in zip(f.matrix, f.offset):
            acc_lo, acc_hi = b, b
            for a, u, v in zip(row, box.lo, box.hi):
                t0, t1 = a * u, a * v
                if t0 > t1:
                    t0, t1 = t1, t0
                acc_lo += t0
                acc_hi += t1
            lo.append(acc_lo)
            hi.append(acc_hi)
        return IntervalBox(tuple(lo), tuple(hi))
    den0 = f.c * box.lo[0] + f.d
    den1 = f.c * box.hi[0] + f.d
    if den0 == 0 or den1 == 0 or (den0 > 0) != (den1 > 0):
        raise DenominatorVanishes(f"denominator has a zero on [{box.lo[0]!r}, {box.hi[0]!r}]")
    y0 = (f.a * box.lo[0] + f.b) / den0
    y1 = (f.a * box.hi[0] + f.b) / den1
    if y0 > y1:
        y0, y1 = y1, y0
    return IntervalBox((y0,), (y1,))


def ref_map_points(f, pts):
    pts = np.asarray(pts, dtype=float)
    if isinstance(f, AffineMap):
        A = np.array(f.matrix, dtype=float)
        b = np.array(f.offset, dtype=float)
        return pts @ A.T + b
    den = f.c * pts + f.d
    if np.any(den == 0.0):
        raise DenominatorVanishes("denominator vanishes at a sample point")
    return (f.a * pts + f.b) / den


def ref_map_boxes(f, lo, hi):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if isinstance(f, AffineMap):
        A = np.array(f.matrix, dtype=float)
        b = np.array(f.offset, dtype=float)
        t0 = lo[:, None, :] * A[None, :, :]
        t1 = hi[:, None, :] * A[None, :, :]
        return np.minimum(t0, t1).sum(axis=2) + b, np.maximum(t0, t1).sum(axis=2) + b
    den0 = f.c * lo + f.d
    den1 = f.c * hi + f.d
    if np.any(den0 == 0.0) or np.any(den1 == 0.0) or np.any((den0 > 0) != (den1 > 0)):
        raise DenominatorVanishes("denominator has a zero inside a sample interval")
    y0 = (f.a * lo + f.b) / den0
    y1 = (f.a * hi + f.b) / den1
    return np.minimum(y0, y1), np.maximum(y0, y1)


def points_in(box):
    """Points of `box`, drawn coordinate by coordinate (signed zeros included
    where the box holds 0)."""
    return st.tuples(*(st.floats(float(a), float(b)) for a, b in zip(box.lo, box.hi)))


def boxes_in(box):
    return st.tuples(points_in(box), points_in(box)).map(
        lambda pq: IntervalBox(tuple(map(min, *pq)), tuple(map(max, *pq)))
    )


def exact_box(box):
    return IntervalBox(tuple(map(Fraction, box.lo)), tuple(map(Fraction, box.hi)))


@pytest.mark.parametrize("factory", FLOAT_SYSTEMS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_scalar_kernels_match_the_previous_ones(factory, data):
    sys = factory()
    exact = fraction_system(factory)
    x = data.draw(points_in(sys.ambient))
    box = data.draw(boxes_in(sys.ambient))
    for f, g in zip(sys.maps, exact.maps):
        assert_bit_equal(evaluate_map(f, x), ref_evaluate_map(f, x))
        assert_bit_equal(box_image(f, box), ref_box_image(f, box))
        xq = tuple(map(Fraction, x))
        assert_bit_equal(evaluate_map(g, xq), ref_evaluate_map(g, xq))
        assert_bit_equal(box_image(g, exact_box(box)), ref_box_image(g, exact_box(box)))


def rows_in(box, rng, n):
    """n random rows of `box`, its corners first."""
    lo = np.asarray(box.lo, dtype=float)
    hi = np.asarray(box.hi, dtype=float)
    return np.vstack([np.array(box.corners(), dtype=float), lo + rng.random((n, box.dim)) * (hi - lo)])


@pytest.mark.parametrize(
    "factory", [cantor_markov, moebius_pair, affine_1d, signed_zero_1d, three_state_1d, diagonal_2d]
)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_batch_kernels_match_the_previous_ones_on_1d_and_diagonal_systems(factory, seed):
    sys = factory()
    rng = np.random.default_rng(seed)
    pts = rows_in(sys.ambient, rng, 30)
    a, b = rows_in(sys.ambient, rng, 30), rows_in(sys.ambient, rng, 30)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    for f in sys.maps:
        assert_bit_equal(map_points(f, pts).tolist(), ref_map_points(f, pts).tolist())
        new = [c.tolist() for c in map_boxes(f, lo, hi)]
        assert_bit_equal(new, [c.tolist() for c in ref_map_boxes(f, lo, hi)])


@st.composite
def mixing_affine_maps(draw):
    """Affine maps of dimension 2 or 3 whose off-diagonal entries are all
    negative, so every coordinate mixes lower and upper corners."""
    m = draw(st.integers(2, 3))
    entry = st.floats(-2.0, 2.0, allow_subnormal=False)
    rows = tuple(
        tuple(draw(entry) if i == j else -draw(st.floats(1e-3, 2.0)) for j in range(m))
        for i in range(m)
    )
    return AffineMap(rows, tuple(draw(entry) for _ in range(m)))


moebius_maps = st.builds(
    MoebiusMap,
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(-1.0, 1.0),
    st.floats(1.5, 3.0),  # d > |c|: no pole on [-1, 1]
)


affine_1d_maps = st.builds(lambda a, b: AffineMap(((a,),), (b,)), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@st.composite
def map_tuples(draw):
    """Two or three maps of one dimension: 1-D maps mix Moebius and affine
    kinds, 2-D and 3-D ones are affine with mixing signs."""
    if draw(st.booleans()):
        return tuple(draw(st.lists(st.one_of(moebius_maps, affine_1d_maps), min_size=2, max_size=3)))
    first = draw(mixing_affine_maps())
    more = draw(st.lists(mixing_affine_maps().filter(lambda g: g.dim == first.dim), min_size=1, max_size=2))
    return (first, *more)


def batch_outcome(fn, *args):
    """What a batch composition returns, as the repr of its rows (NaN and
    signed zeros included), or the type and message of its error."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except MarkovProdError as exc:
        return type(exc), str(exc)
    return repr([a.tolist() for a in (out if isinstance(out, (tuple, list)) else [out])])


class UncheckedSystem(MapSystem):
    def __post_init__(self):
        pass


@settings(max_examples=60, deadline=None)
@given(fs=map_tuples(), seed=st.integers(0, 2**32 - 1))
def test_batches_match_on_random_maps(fs, seed):
    # The batch compositions read only the maps and the ambient box, so a
    # system built without its self-map check will do: these maps need not
    # map [-1, 1]^m into itself; a pole met on the way must raise the same
    # error in both.
    m = fs[0].dim
    sys = UncheckedSystem(IntervalBox((-1.0,) * m, (1.0,) * m), fs, SimpleNamespace(k=len(fs)))
    rng = np.random.default_rng(seed)
    words = rng.integers(1, sys.k + 1, size=(12, 4))
    anchors = rng.uniform(-1.0, 1.0, size=(12, m))
    assert batch_outcome(batch_reverse_points, sys, words, anchors) == batch_outcome(
        ref_batch_reverse_points, sys, words, anchors)
    assert batch_outcome(batch_reverse_boxes, sys, words) == batch_outcome(ref_batch_reverse_boxes, sys, words)
    rows = frontier_rows(sys, 12, seed)
    assert batch_outcome(advance_rows, sys, words[:, 0], [a.copy() for a in rows]) == batch_outcome(
        ref_advance_rows, sys, words[:, 0], rows)


@settings(max_examples=60, deadline=None)
@given(f=st.one_of(mixing_affine_maps(), moebius_maps), seed=st.integers(0, 2**32 - 1))
def test_batch_rows_equal_the_scalar_kernels(f, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(40, f.dim))
    a, b = rng.uniform(-1.0, 1.0, size=(2, 40, f.dim))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # Signed zeros: products that tie at 0.0 and -0.0.
    pts[0], lo[0], hi[0] = -0.0, -0.0, 0.0
    lo[1] = hi[1] = -0.0
    assert_bit_equal(map_points(f, pts).tolist(), [list(evaluate_map(f, x)) for x in pts.tolist()])
    scalar = [box_image(f, IntervalBox(tuple(u), tuple(v))) for u, v in zip(lo.tolist(), hi.tolist())]
    new_lo, new_hi = map_boxes(f, lo, hi)
    assert_bit_equal(new_lo.tolist(), [list(box.lo) for box in scalar])
    assert_bit_equal(new_hi.tolist(), [list(box.hi) for box in scalar])


# --- oracle avoidance -----------------------------------------------------------


AVOIDANCE_WORDS = [(1,), (2,), (1, 1), (1, 2), (2, 1), (1, 1, 2)]


@pytest.mark.parametrize("factory", FLOAT_SYSTEMS)
def test_avoidance_recursion_matches_the_enumeration(factory):
    # Every ell with at most 2^16 words to enumerate: ell*N <= 16 for two
    # symbols, ell*N <= 10 for three.
    shift = factory().shift
    for word, exact in product(AVOIDANCE_WORDS, (True, False)):
        tables = oracle._tables(shift, exact)
        ell_max = max(ell for ell in range(17) if shift.k ** (ell * len(word)) <= 1 << 16)
        measures = oracle._avoidance(tables.p, tables.q, word, ell_max, tables.one)
        positive = [int(v != 0) for v in tables.p], [[int(v != 0) for v in r] for r in tables.q]
        counts = oracle._avoidance(*positive, word, ell_max, 1)
        for ell in range(ell_max + 1):
            ref_measure, ref_count = ref_enumerate_avoidance(tables, shift.k, word, ell)
            assert counts[ell] == ref_count
            if exact:
                assert measures[ell] == ref_measure
            else:
                assert abs(measures[ell] - ref_measure) <= 1e-12 * ref_measure


# --- coding invariance ----------------------------------------------------------


def ref_coding_invariance(sys, words):
    """The per-row loop that the batch compositions replace; the tail point
    starts from the ambient corner lo."""
    max_residual = max_allowance = 0.0
    violations = 0
    for row in words:
        word = tuple(int(a) for a in row)
        full, bound_full = coding_point(sys, word)
        _, bound_shifted = coding_point(sys, word[1:])
        shifted = reverse_composition(sys, word[1:], sys.ambient.lo)
        image = evaluate_map(sys.map_for(word[0]), shifted)
        residual = float(sum(abs(a - b) for a, b in zip(image, full)))
        allowance = bound_full + bound_shifted
        max_residual = max(max_residual, residual)
        max_allowance = max(max_allowance, allowance)
        if residual > allowance:
            violations += 1
    return max_residual, max_allowance, violations


@pytest.mark.parametrize("factory", FLOAT_SYSTEMS)
def test_coding_invariance_matches_the_per_row_loop(factory):
    sys = factory()
    words = np.random.default_rng(8).integers(1, sys.k + 1, size=(50, 9))
    for rows in (words, words[:, :2], words[:1, :5], words[:0]):
        assert_bit_equal(coding_invariance(sys, rows), ref_coding_invariance(sys, rows))


@pytest.mark.parametrize("words", [[[1, 2], [0, 1]], [[1, 2], [2, 3]], [[1], [2]]],
                         ids=["symbol-0", "symbol-k-plus-1", "single-symbol-rows"])
def test_coding_invariance_rejects_inadmissible_words(words):
    with pytest.raises(InadmissibleWord):
        coding_invariance(moebius_pair(), np.array(words))


# --- word sampling --------------------------------------------------------------


def ref_sample_word(shift, length, *, start=None, inverse=False, seed=0):
    """sample_word as the per-step scalar search it was."""
    if length == 0:
        return ()
    cum = np.cumsum(shift.matrix(inverse), axis=1)
    u = np.random.default_rng(seed).random(length)
    if start is None:
        cur = min(1 + int(np.searchsorted(np.cumsum(shift.p), u[0], side="right")), shift.k)
    else:
        cur = int(start)
    out = [cur]
    for t in range(1, length):
        cur = 1 + min(int(np.searchsorted(cum[cur - 1], u[t], side="right")), shift.k - 1)
        out.append(cur)
    return tuple(out)


def ref_sample_words(shift, count, length, *, inverse=False, seed=0):
    """sample_words as the (count, k) gather-compare-sum it was."""
    k = shift.k
    cum = np.cumsum(shift.matrix(inverse), axis=1)
    rng = np.random.default_rng(seed)
    words = np.empty((count, length), dtype=np.int64)
    words[:, 0] = 1 + np.minimum(np.searchsorted(np.cumsum(shift.p), rng.random(count), side="right"), k - 1)
    for t in range(1, length):
        u = rng.random(count)
        words[:, t] = 1 + np.minimum((cum[words[:, t - 1] - 1] <= u[:, None]).sum(axis=1), k - 1)
    return words


def lazy_cycle(k):
    P = np.zeros((k, k))
    states = np.arange(k)
    P[states, states] = P[states, (states + 1) % k] = 0.5
    return P


# The shipped chains are all 2-state, hence reversible; the circulant below
# is doubly stochastic but not symmetric, so Q = P^T differs from P.  Ten
# entries of 0.1 sum to 0.9999999999999999, the largest double below 1.0, so
# a uniform can reach the last cumulative entry of the ten-state chain's rows,
# and the clip at k - 1 decides its state.
SAMPLER_CHAINS = {
    **{name: load_config(str(CONFIGS / f"{name}.json"))["system"]["transition_matrix"]
       for name in ("cantor_iid", "cantor_markov", "diagonal_2d", "moebius_pair")},
    "three_cycle": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
    "non_reversible_3": [[0.1, 0.6, 0.3], [0.3, 0.1, 0.6], [0.6, 0.3, 0.1]],
    "ten_state_short_rows": [[0.1] * 10] * 10,
}


def edge_uniforms(shift):
    """Every cumulative entry of p, P and Q, its neighbours one ulp away, 0.0
    and the largest double below 1.0: the uniforms where a search's side and
    the clip at k - 1 decide the state."""
    cums = [np.cumsum(shift.p), *np.cumsum(shift.P, axis=1), *np.cumsum(shift.Q, axis=1)]
    values = np.concatenate([c for v in cums for c in (v, np.nextafter(v, 0.0), np.nextafter(v, 1.0))])
    return np.unique(np.r_[values, 0.0, np.nextafter(1.0, 0.0)].clip(0.0, np.nextafter(1.0, 0.0)))


class EdgeStream:
    """Stands in for `default_rng(seed)`: its uniforms cycle through the
    shift's edge uniforms in an order fixed by the seed."""

    def __init__(self, values, seed):
        self.values = np.random.Generator(np.random.PCG64(seed)).permutation(np.tile(values, 8))
        self.pos = 0

    def random(self, size=None, out=None):
        n = out.size if out is not None else size
        got = self.values[(self.pos + np.arange(n)) % len(self.values)]
        self.pos += n
        if out is None:
            return got
        out[...] = got
        return out


def streams(monkeypatch, shift):
    """The real generator, then (patched in for both sides) the edge stream."""
    yield "default_rng"
    values = edge_uniforms(shift)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: EdgeStream(values, seed))
    yield "edge"


@pytest.mark.parametrize("name", SAMPLER_CHAINS)
def test_next_state_table_matches_the_scalar_search(name):
    shift = build_shift(SAMPLER_CHAINS[name])
    k, u = shift.k, edge_uniforms(shift)
    for cum in (np.cumsum(shift.p)[None], np.cumsum(shift.P, axis=1), np.cumsum(shift.Q, axis=1)):
        table = shift_module._next_states(cum, u)
        assert table.dtype == np.min_scalar_type(k - 1)
        assert table.tolist() == [[min(int(np.searchsorted(row, x, side="right")), k - 1) for x in u]
                                  for row in cum]
    if name == "ten_state_short_rows":
        assert np.all(np.cumsum(shift.P, axis=1)[:, -1] <= u.max())  # so the clip runs


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("name", SAMPLER_CHAINS)
def test_sample_word_matches_the_scalar_loop(monkeypatch, name, inverse):
    shift = build_shift(SAMPLER_CHAINS[name])
    for _ in streams(monkeypatch, shift):
        for seed in range(3):
            for start in (None, *range(1, shift.k + 1)):
                for length in (1, 2, 80):
                    word = sample_word(shift, length, start=start, inverse=inverse, seed=seed)
                    assert word == ref_sample_word(shift, length, start=start, inverse=inverse, seed=seed)
                    assert all(type(a) is int for a in word)


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("name", SAMPLER_CHAINS)
def test_sample_words_match_the_compare_and_sum(monkeypatch, name, inverse):
    shift = build_shift(SAMPLER_CHAINS[name])
    for _ in streams(monkeypatch, shift):
        for count, length in ((1, 1), (1, 7), (60, 1), (500, 9)):
            words = sample_words(shift, count, length, inverse=inverse, seed=count + length)
            assert words.dtype == np.min_scalar_type(shift.k)
            assert words.shape == (count, length) and words.T.flags.c_contiguous
            assert words.tolist() == ref_sample_words(shift, count, length, inverse=inverse,
                                                      seed=count + length).tolist()


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("name", SAMPLER_CHAINS)
def test_sample_word_walks_across_table_blocks(monkeypatch, name, inverse):
    # Blocks of 1, 2 and 3 steps put block edges at every position of short words.
    shift = build_shift(SAMPLER_CHAINS[name])
    for cells in (shift.k, 2 * shift.k, 3 * shift.k):
        monkeypatch.setattr(shift_module, "WALK_CELLS", cells)
        for _ in streams(monkeypatch, shift):
            for start in (None, shift.k):
                for length in (1, 2, 3, 4, 7, 20):
                    assert sample_word(shift, length, start=start, inverse=inverse, seed=length) == \
                        ref_sample_word(shift, length, start=start, inverse=inverse, seed=length)
        monkeypatch.undo()


def test_long_words_on_many_states_keep_the_table_to_one_block_size(monkeypatch):
    shift = build_shift(lazy_cycle(300))
    length = 3 * shift_module.WALK_CELLS // shift.k + 5  # four blocks
    sizes = []

    def recording(cum, u):
        sizes.append(cum.shape[0] * len(u))
        return next_states(cum, u)

    next_states = shift_module._next_states
    monkeypatch.setattr(shift_module, "_next_states", recording)
    for inverse in (False, True):
        sizes.clear()
        word = sample_word(shift, length, inverse=inverse, seed=9)
        assert word == ref_sample_word(shift, length, inverse=inverse, seed=9)
        assert len(sizes) == 5 and max(sizes) <= shift_module.WALK_CELLS  # the start, then four blocks


def test_sync_and_contract_words_are_the_per_seed_words(monkeypatch):
    sys = moebius_pair()
    drawn = []

    def recording(*args, **kwargs):
        drawn.append(sample_word(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(synchronization, "sample_word", recording)
    sync_experiment(sys, 12, 9, seed=5, cloud_size=16)
    measure_contraction_experiment(sys, 7, 11, seed=6)
    assert drawn == [*(ref_sample_word(sys.shift, 9, seed=5 + t) for t in range(12)),
                     *(ref_sample_word(sys.shift, 11, seed=6 + t) for t in range(7))]


def test_symbols_past_one_byte_keep_their_values():
    shift = build_shift(lazy_cycle(300))
    assert shift_module._next_states(np.cumsum(shift.P, axis=1), np.array([0.5])).dtype == np.uint16
    for inverse in (False, True):
        words = sample_words(shift, 400, 30, inverse=inverse, seed=2)
        assert words.dtype == np.uint16 and words.max() > 255
        assert words.tolist() == ref_sample_words(shift, 400, 30, inverse=inverse, seed=2).tolist()
        word = sample_word(shift, 200, start=290, inverse=inverse, seed=2)
        assert word == ref_sample_word(shift, 200, start=290, inverse=inverse, seed=2)
        assert max(word) > 255


def test_sample_words_memory_does_not_grow_with_k():
    # Each lane reads only its own state's row, so the temporaries are a few
    # columns of `count` entries; a (k, count) next-state table per column
    # would be 12 MB here.
    shift, count = build_shift(lazy_cycle(300)), 20_000
    tracemalloc.start()
    try:
        words = sample_words(shift, count, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * count * 8
    assert words.tolist() == ref_sample_words(shift, count, 4).tolist()


@pytest.mark.parametrize("depth", [0, 1, 6])
def test_target_states_are_int64_copies_of_the_start_column(depth):
    sys = moebius_pair()
    words, mu = markov_operator.sample_target(sys, 500, depth, seed=3)
    assert mu.states.dtype == np.int64 and mu.states.flags.owndata
    ref = ref_sample_words(sys.shift, 500, max(depth, 1), inverse=True, seed=3)
    assert mu.states.tolist() == ref[:, 0].tolist()
    assert words is None if depth == 0 else words.tolist() == ref.tolist()


@pytest.mark.parametrize("factory", FLOAT_SYSTEMS)
def test_batch_compositions_read_every_table_layout_alike(factory):
    sys = factory()
    words = sample_words(sys.shift, 300, 12, inverse=True, seed=4)
    anchor = sys.ambient.center()
    points = batch_reverse_points(sys, words, anchor).tolist()
    boxes = [a.tolist() for a in batch_reverse_boxes(sys, words)]
    for other in (np.ascontiguousarray(words), words.astype(np.int64)):
        assert_bit_equal(batch_reverse_points(sys, other, anchor).tolist(), points)
        assert_bit_equal([a.tolist() for a in batch_reverse_boxes(sys, other)], boxes)
