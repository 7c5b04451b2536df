"""Particle measures, the transfer operator, resampling, target estimation,
and the surrogate weak-* distance."""

import numpy as np
import pytest

from conftest import cantor_iid, cantor_markov, cantor_maps, single_contraction
from markovprod import (
    MapSystem,
    NotPrimitive,
    apply_operator,
    build_initial,
    build_shift,
    estimate_target,
    make_measure,
    resample,
    stability_experiment,
    wasserstein_1d,
    weak_star_distance,
)
from conftest import UNIT


def sorted_particles(mu) -> np.ndarray:
    """Rows (state, point..., weight) sorted lexicographically, for
    order-independent comparison."""
    rows = np.column_stack([mu.states.astype(float), mu.points, mu.weights])
    order = np.lexsort(tuple(rows[:, c] for c in range(rows.shape[1] - 1, -1, -1)))
    return rows[order]


def delta(sys, state, x, n_copies=1):
    return make_measure(
        sys,
        np.full(n_copies, state),
        np.tile(np.asarray(x, dtype=float), (n_copies, 1)),
        np.full(n_copies, 1.0 / n_copies),
    )


# --- make_measure / build_initial ----------------------------------------


def test_make_measure_validation():
    sys = cantor_iid()
    with pytest.raises(ValueError, match="weights"):
        make_measure(sys, [1], [[0.5]], [0.5])
    with pytest.raises(ValueError, match="states"):
        make_measure(sys, [3], [[0.5]], [1.0])
    with pytest.raises(ValueError, match="outside"):
        make_measure(sys, [1], [[1.5]], [1.0])
    with pytest.raises(ValueError):
        make_measure(sys, [], np.empty((0, 1)), [])


def test_make_measure_rejects_nan():
    sys = cantor_iid()
    with pytest.raises(ValueError, match="outside"):
        make_measure(sys, [1, 2], [[np.nan], [0.5]], [0.5, 0.5])
    with pytest.raises(ValueError, match="weights must be positive"):
        make_measure(sys, [1, 2], [[0.5], [0.5]], [np.nan, 1.0])


def test_build_initial_kinds():
    sys = cantor_markov()
    corner = build_initial(sys, "corner", 10)
    assert np.all(corner.points == 0.0)
    assert np.all(corner.states == 1)
    center = build_initial(sys, "center", 10)
    assert np.all(center.points == 0.5)
    uniform = build_initial(sys, "uniform", 10, seed=1)
    assert np.allclose(uniform.state_mass(), [0.5, 0.5])
    with pytest.raises(ValueError):
        build_initial(sys, "edge", 10)


# --- apply_operator -------------------------------------------------------


def test_apply_operator_single_map_pushforward():
    sys = single_contraction()
    mu = delta(sys, 1, (0.1,))
    nu = apply_operator(mu, sys)
    assert nu.points[0, 0] == pytest.approx(0.3, abs=1e-16)
    assert nu.weights[0] == 1.0


def test_apply_operator_mass_evolution_exact():
    # Starting from mass (1, 0) the per-state masses follow (1,0) P^n.
    sys = cantor_markov()
    mu = build_initial(sys, "corner", 50)
    m1 = apply_operator(mu, sys).state_mass()
    assert np.allclose(m1, [0.9, 0.1], atol=1e-15)
    m2 = apply_operator(apply_operator(mu, sys), sys).state_mass()
    assert np.allclose(m2, [0.83, 0.17], atol=1e-15)


def test_apply_operator_skips_zero_transitions():
    sys = MapSystem(
        shift=build_shift([[0.5, 0.5], [1.0, 0.0]]),
        maps=cantor_maps(),
        ambient=UNIT,
    )
    mu = delta(sys, 2, (0.5,))
    nu = apply_operator(mu, sys)
    # From state 2 only j = 1 is reachable: one child, full weight.
    assert nu.n_particles == 1
    assert nu.states[0] == 1
    assert nu.weights[0] == 1.0


def test_apply_operator_stationary_masses_stay():
    sys = cantor_iid()
    mu = build_initial(sys, "uniform", 40, seed=3)
    nu = apply_operator(mu, sys)
    assert np.allclose(nu.state_mass(), [0.5, 0.5], atol=1e-15)


# --- resample -------------------------------------------------------------


def test_resample_equal_weights_is_permutation():
    sys = cantor_markov()
    mu = build_initial(sys, "uniform", 64, seed=9)
    nu = resample(mu, 64, seed=4)
    assert np.array_equal(sorted_particles(mu), sorted_particles(nu))


def test_resample_systematic_counts():
    sys = single_contraction()
    mu = make_measure(sys, [1, 1], [[0.25], [0.75]], [0.75, 0.25])
    nu = resample(mu, 4, seed=11)
    assert nu.n_particles == 4
    assert np.allclose(nu.weights, 0.25)
    vals, counts = np.unique(nu.points[:, 0], return_counts=True)
    assert list(vals) == [0.25, 0.75]
    assert list(counts) == [3, 1]


def test_resample_preserves_state_masses():
    sys = cantor_markov()
    rng = np.random.default_rng(5)
    for trial in range(5):
        n = 200
        states = rng.integers(1, 3, size=n)
        points = rng.random((n, 1))
        w = rng.random(n) + 0.05
        w /= w.sum()
        w *= 1.0 / w.sum()
        mu = make_measure(sys, states, points, w)
        for target in (2, 37, 200, 1000):
            nu = resample(mu, target, seed=trial)
            assert nu.n_particles == target
            assert np.abs(nu.state_mass() - mu.state_mass()).max() <= 1e-15


def test_resample_requires_slot_per_state():
    sys = cantor_markov()
    mu = build_initial(sys, "uniform", 10)
    with pytest.raises(ValueError):
        resample(mu, 1)


# --- estimate_target ------------------------------------------------------


def test_estimate_target_single_map_fixed_point():
    sys = single_contraction()
    est = estimate_target(sys, 50, depth=40)
    assert np.all(est.measure.points == 0.5)
    assert est.max_diameter <= 1e-11
    assert est.depth == 40


def test_estimate_target_depth_zero_anchors():
    sys = cantor_markov()
    est = estimate_target(sys, 500, depth=0, seed=2)
    assert np.all(est.measure.points == 0.5)
    assert est.depth == 0
    assert est.max_diameter == 1.0
    # States are stationary draws: should be near (2/3, 1/3).
    assert abs(est.measure.state_mass()[0] - 2.0 / 3.0) <= 0.08


def test_estimate_target_cantor_mean():
    # The stationary law on the Cantor set is symmetric around 1/2.
    est = estimate_target(cantor_iid(), 4000, depth=40, seed=3)
    mean = float(np.sum(est.measure.points[:, 0] * est.measure.weights))
    assert abs(mean - 0.5) <= 0.02
    # 3^-40 underflows below the ulp of the O(1) endpoints, so the certified
    # diameter lands on float cancellation noise.
    assert est.max_diameter <= 1e-15


def test_estimate_target_requires_primitive():
    sys = MapSystem(
        shift=build_shift([[0.0, 1.0], [1.0, 0.0]]),
        maps=cantor_maps(),
        ambient=UNIT,
    )
    with pytest.raises(NotPrimitive):
        estimate_target(sys, 10)


def test_estimate_target_seed_reproducible():
    a = estimate_target(cantor_iid(), 100, depth=20, seed=8)
    b = estimate_target(cantor_iid(), 100, depth=20, seed=8)
    assert np.array_equal(a.measure.points, b.measure.points)
    assert np.array_equal(a.measure.states, b.measure.states)


# --- wasserstein_1d / weak_star_distance ----------------------------------


def test_wasserstein_singletons():
    assert wasserstein_1d([0.2], [1.0], [0.7], [1.0]) == pytest.approx(0.5, abs=1e-15)


def test_wasserstein_shift_invariance():
    x = np.linspace(0.0, 0.5, 20)
    w = np.full(20, 0.05)
    assert wasserstein_1d(x, w, x + 0.25, w) == pytest.approx(0.25, abs=1e-12)


def test_wasserstein_against_scipy():
    from scipy.stats import wasserstein_distance

    rng = np.random.default_rng(12)
    for trial in range(10):
        n1, n2 = rng.integers(2, 50, size=2)
        x1, x2 = rng.random(n1), rng.random(n2)
        w1 = rng.random(n1) + 0.01
        w2 = rng.random(n2) + 0.01
        w1 /= w1.sum()
        w2 /= w2.sum()
        ours = wasserstein_1d(x1, w1, x2, w2)
        ref = wasserstein_distance(x1, x2, w1, w2)
        assert abs(ours - ref) <= 1e-10


def test_weak_star_identity_is_zero():
    sys = cantor_markov()
    mu = build_initial(sys, "uniform", 30, seed=1)
    assert weak_star_distance(mu, mu) == 0.0


def test_weak_star_same_state_deltas():
    sys = cantor_iid()
    mu = delta(sys, 1, (0.2,))
    nu = delta(sys, 1, (0.9,))
    assert weak_star_distance(mu, nu) == pytest.approx(0.7, abs=1e-15)


def test_weak_star_disjoint_states_is_two():
    sys = cantor_iid()
    mu = delta(sys, 1, (0.2,))
    nu = delta(sys, 2, (0.2,))
    assert weak_star_distance(mu, nu) == 2.0


def test_weak_star_symmetric():
    sys = cantor_markov()
    mu = build_initial(sys, "uniform", 25, seed=2)
    nu = build_initial(sys, "corner", 40)
    assert weak_star_distance(mu, nu) == pytest.approx(
        weak_star_distance(nu, mu), abs=1e-14
    )


# --- stability_experiment -------------------------------------------------


def test_stability_contracts_and_preserves_masses():
    sys = cantor_markov()
    particles = 4000
    initials = {
        kind: build_initial(sys, kind, particles, seed=i)
        for i, kind in enumerate(("corner", "center", "uniform"))
    }
    result = stability_experiment(sys, initials, 12, particles, seed=0)
    assert result.mass_identity_error <= 1e-12
    assert result.target_diameter <= 1e-12
    by_initial: dict[str, list] = {}
    for row in result.rows:
        by_initial.setdefault(row.initial_id, []).append(row)
    assert set(by_initial) == {"corner", "center", "uniform"}
    for name, rows in by_initial.items():
        assert [r.step for r in rows] == list(range(13))
        assert rows[-1].distance < rows[0].distance
        assert rows[-1].distance < 0.06
        assert rows[-1].mass_gap <= 0.02


def test_stability_started_at_target_stays_low():
    sys = cantor_iid()
    particles = 4000
    target = estimate_target(sys, particles, depth=40, seed=77)
    result = stability_experiment(
        sys, {"target": target.measure}, 5, particles, seed=1
    )
    for row in result.rows:
        assert row.distance <= 0.05


def test_two_target_estimates_agree():
    sys = cantor_markov()
    a = estimate_target(sys, 8000, depth=40, seed=10)
    b = estimate_target(sys, 8000, depth=40, seed=20)
    assert weak_star_distance(a.measure, b.measure) < 0.02


def test_sorted_particles_order_independent():
    sys = cantor_markov()
    mu = build_initial(sys, "uniform", 50, seed=6)
    perm = np.random.default_rng(0).permutation(50)
    shuffled = make_measure(sys, mu.states[perm], mu.points[perm], mu.weights[perm])
    assert np.array_equal(sorted_particles(mu), sorted_particles(shuffled))
