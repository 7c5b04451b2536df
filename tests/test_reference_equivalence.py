"""Bit-equality of the operator and the ergodic orbit with plain references.

The references below are the straightforward per-step and per-call
implementations that the library's chunked orbit and memoized measures
replace.  Every comparison is `==` on floats (plus `repr`, which also tells
0.0 from -0.0): the faster code must compute the same doubles, not close
ones.
"""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np
import pytest

from conftest import UNIT, cantor_markov, diagonal_2d, moebius_pair, single_contraction
from markovprod import (
    AffineMap,
    IntervalBox,
    MapSystem,
    MoebiusMap,
    apply_operator,
    build_initial,
    build_shift,
    ergodic_average,
    estimate_target,
    make_measure,
    resample,
    stability_experiment,
    wasserstein_1d,
    weak_star_distance,
)
from markovprod import synchronization
from markovprod.markov_operator import (
    StabilityResult,
    StabilityRow,
    StateTaggedMeasure,
    _allocate_slots,
)
from markovprod.synchronization import BATCH_COUNT, ErgodicResult
from markovprod.synchronization import test_function as observable

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
    c1 = np.cumsum(w1)
    c2 = np.cumsum(w2)
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


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("factory, x, phi", [
    (three_state_1d, (0.5,), ("square", 1)),
    (affine_2d, (0.3, 0.7), ("coordinate", 1)),
    (affine_3d, (0.1, 0.5, 0.9), lambda x: x[0] + x[2]),
])
def test_ergodic_average_independent_of_chunk_length(monkeypatch, chunk, factory, x, phi):
    # Short chunks split every batch into several, with a partial last one.
    sys = factory()
    ref = ref_ergodic_average(sys, x, phi, 2_345, seed=11, target_samples=200)
    monkeypatch.setattr(synchronization, "_CHUNK", chunk)
    new = ergodic_average(sys, x, phi, 2_345, seed=11, target_samples=200)
    assert_bit_equal(astuple(new), astuple(ref))


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
