"""Image-diameter decay, rate fits, weak hyperbolicity, coding points,
ergodic averages."""

import math

import numpy as np
import pytest

from conftest import (
    UNIT,
    cantor_iid,
    cantor_maps,
    cantor_markov,
    diagonal_2d,
    identity_control,
    moebius_pair,
)
from markovprod import (
    DecayCurve,
    DegenerateCurve,
    MapSystem,
    MoebiusMap,
    NoRowPositiveState,
    NotPrimitive,
    build_shift,
    coding_point,
    ergodic_average,
    fit_decay_rate,
    measure_contraction_experiment,
    reverse_box,
    reverse_composition,
    sync_experiment,
    weak_hyperbolicity_experiment,
)
from markovprod import synchronization
from markovprod.shift import sample_words
from markovprod.splitting import ambient_cloud
from markovprod.synchronization import DEFAULT_CLOUD, _decay_curves, coding_invariance
from markovprod.synchronization import test_function as observable

THIRD = 1.0 / 3.0


def two_cycle_system() -> MapSystem:
    return MapSystem(
        shift=build_shift([[0.0, 1.0], [1.0, 0.0]]),
        maps=cantor_maps(),
        ambient=UNIT,
    )


# --- image-diameter curves -----------------------------------------------


def image_diameter_curve(sys: MapSystem, word) -> DecayCurve:
    """The decay curve of one word, on the default cloud."""
    return _decay_curves(sys, [word], ambient_cloud(sys, DEFAULT_CLOUD))[0]


def test_curve_cantor_upper_equals_lower():
    # Affine-equivalent contractions with corner-seeded clouds: the rigorous
    # upper curve and the attained lower curve run through identical float
    # operations, so they coincide and equal 3^-n.
    sys = cantor_iid()
    curve = image_diameter_curve(sys, (1, 2, 1, 1, 2, 2, 1, 2, 1, 1))
    assert curve.n == tuple(range(11))
    for n, (up, low) in enumerate(zip(curve.upper, curve.lower)):
        assert up == low
        assert abs(up - 3.0**-n) <= 1e-12


def test_curve_identity_is_constant():
    curve = image_diameter_curve(identity_control(), (1,) * 10)
    assert curve.upper == (1.0,) * 11
    assert curve.lower == (1.0,) * 11


def test_curve_diagonal_2d_diameter():
    curve = image_diameter_curve(diagonal_2d(), (2, 1, 2, 1, 2))
    for n, up in enumerate(curve.upper):
        assert abs(up - 2.0 * 3.0**-n) <= 1e-12


def test_curve_upper_nonincreasing_and_dominates_lower():
    sys = moebius_pair()
    curve = image_diameter_curve(sys, (1, 2, 2, 1, 2, 1, 1, 2))
    for a, b in zip(curve.upper, curve.upper[1:]):
        assert b <= a
    for up, low in zip(curve.upper, curve.lower):
        assert low <= up + 1e-12


# --- fit_decay_rate -------------------------------------------------------


def test_fit_recovers_exact_geometric_decay():
    n = tuple(range(8))
    upper = tuple(3.0**-v for v in n)
    curve = DecayCurve(word=(1,) * 7, n=n, upper=upper, lower=upper)
    c_hat, q_hat = fit_decay_rate(curve)
    assert abs(q_hat - THIRD) <= 1e-12
    assert abs(c_hat - 1.0) <= 1e-12


def test_fit_constant_curve_gives_rate_one():
    curve = DecayCurve(word=(1,) * 6, n=tuple(range(7)), upper=(1.0,) * 7, lower=(1.0,) * 7)
    c_hat, q_hat = fit_decay_rate(curve)
    assert abs(q_hat - 1.0) <= 1e-12


def test_fit_rejects_degenerate_curve():
    curve = DecayCurve(
        word=(1, 1, 1),
        n=(0, 1, 2, 3),
        upper=(1.0, 1e-15, 1e-16, 0.0),
        lower=(0.0, 0.0, 0.0, 0.0),
    )
    with pytest.raises(DegenerateCurve):
        fit_decay_rate(curve)


# --- sync_experiment ------------------------------------------------------


def test_sync_cantor_rate_third():
    # n_max = 15 keeps the deepest diameters far above float cancellation
    # noise, so the fitted rate is exact to well below the 1e-9 pin.
    result = sync_experiment(cantor_iid(), trials=100, n_max=15, seed=0)
    assert len(result.fits) == 100
    assert result.contracting_fraction == 1.0
    for fit in result.fits:
        assert abs(fit.q_hat - THIRD) <= 1e-9
    assert abs(result.max_q - THIRD) <= 1e-9


def test_sync_seed_deterministic():
    a = sync_experiment(cantor_markov(), trials=5, n_max=10, seed=3)
    b = sync_experiment(cantor_markov(), trials=5, n_max=10, seed=3)
    assert [f.q_hat for f in a.fits] == [f.q_hat for f in b.fits]
    assert a.curves[0].word == b.curves[0].word


def test_sync_moebius_contracting_with_consistent_rates():
    result = sync_experiment(moebius_pair(), trials=20, n_max=30, seed=1)
    assert result.contracting_fraction == 1.0
    assert result.max_q < 1.0
    # The fitted rate agrees with the geometric mean of the per-step ratios
    # taken over the noise-free part of the curve; the gap is the fitted
    # constant C spread over the horizon, which shrinks as the horizon grows.
    for curve, fit in zip(result.curves, result.fits):
        ups = [u for u in curve.upper if u > 1e-12]
        gm = (ups[-1] / ups[0]) ** (1.0 / (len(ups) - 1))
        assert abs(fit.q_hat - gm) <= 0.02


def test_sync_requires_row_positive_state():
    with pytest.raises(NoRowPositiveState):
        sync_experiment(two_cycle_system(), trials=2, n_max=5)


def test_sync_affine_rate_bounded_by_spectral_norm():
    # Every map of the 2-D diagonal system scales the l1 diameter by exactly
    # 1/3, so no fitted rate can exceed it.
    result = sync_experiment(diagonal_2d(), trials=10, n_max=15, seed=2)
    for fit in result.fits:
        assert fit.q_hat <= THIRD + 1e-6


# --- measure_contraction_experiment ----------------------------------------


def test_contraction_cantor_lengths_exact():
    result = measure_contraction_experiment(cantor_iid(), trials=5, n_max=25, seed=0)
    assert len(result.rows) == 5 * 26
    for row in result.rows:
        assert row.s == 1
        assert abs(row.length - 3.0**-row.n) <= 1e-12
    for fit in result.fits:
        assert abs(fit.q_hat - THIRD) <= 1e-6


def test_contraction_initial_length_is_projection():
    result = measure_contraction_experiment(diagonal_2d(), trials=2, n_max=6, seed=1)
    for row in result.rows:
        if row.n == 0:
            assert row.length == 1.0
    assert {f.s for f in result.fits} == {1, 2}
    for fit in result.fits:
        assert abs(fit.q_hat - THIRD) <= 1e-9


def test_contraction_rates_match_sync_rates():
    sync = sync_experiment(diagonal_2d(), trials=3, n_max=12, seed=5)
    contract = measure_contraction_experiment(diagonal_2d(), trials=3, n_max=12, seed=5)
    sync_q = {f.trial: f.q_hat for f in sync.fits}
    for fit in contract.fits:
        assert abs(fit.q_hat - sync_q[fit.trial]) <= 1e-9


# --- weak_hyperbolicity_experiment ------------------------------------------


def test_weak_hyperbolicity_contracting_systems():
    for factory in (cantor_iid, cantor_markov, diagonal_2d, moebius_pair):
        result = weak_hyperbolicity_experiment(factory(), 2000, 40, 1e-9, seed=0)
        assert result.fraction == 1.0
        assert result.max_diameter < 1e-9


def test_weak_hyperbolicity_identity_control():
    result = weak_hyperbolicity_experiment(identity_control(), 2000, 40, 1e-9, seed=0)
    assert result.fraction == 0.0
    assert result.max_diameter == 1.0


def test_weak_hyperbolicity_infinite_tolerance():
    result = weak_hyperbolicity_experiment(identity_control(), 100, 10, np.inf)
    assert result.fraction == 1.0


# --- coding_point -----------------------------------------------------------


def test_coding_fixed_points_exact_at_depth():
    sys = cantor_iid()
    point, bound = coding_point(sys, (1,) * 1000)
    assert point == (0.0,)
    assert bound == 0.0
    point, bound = coding_point(sys, (2,) * 1000)
    assert point == (1.0,)
    assert bound == 0.0


def test_coding_periodic_word():
    point, bound = coding_point(cantor_iid(), (1, 2) * 20)
    assert abs(point[0] - 0.25) <= 1e-9
    assert bound <= 1e-9


def test_coding_point_inside_enclosure():
    sys = moebius_pair()
    word = (1, 2, 2, 1, 2, 1, 1, 2, 1, 2)
    point, bound = coding_point(sys, word)
    box = reverse_box(sys, word)
    assert box.lo[0] - 1e-12 <= point[0] <= box.hi[0] + 1e-12
    assert abs(bound - (box.hi[0] - box.lo[0])) <= 1e-18


def test_coding_anchor_independence():
    # Any two anchors land inside the same fibre enclosure, so their coded
    # points differ by at most the reported bound (plus evaluation rounding).
    sys = cantor_markov()
    words = sample_words(sys.shift, 50, 30, inverse=True, seed=13)
    for row in words:
        word = tuple(int(a) for a in row)
        _, bound = coding_point(sys, word)
        p1 = reverse_composition(sys, word, (0.1,))
        p2 = reverse_composition(sys, word, (0.9,))
        assert abs(p1[0] - p2[0]) <= bound + 1e-12


def test_coding_invariance_residual_below_bound():
    # prepending the first symbol to the shifted word's coded point must
    # reproduce the full coded point within the enclosure bound.  The tail
    # starts from the ambient corner lo, as in coding_invariance, so the two
    # sides are different float compositions.
    from markovprod import evaluate_map

    sys = cantor_iid()
    words = sample_words(sys.shift, 1000, 41, inverse=True, seed=21)
    for row in words:
        word = tuple(int(a) for a in row)
        full, bound = coding_point(sys, word)
        tail = reverse_composition(sys, word[1:], sys.ambient.lo)
        image = evaluate_map(sys.map_for(word[0]), tail)
        residual = abs(image[0] - full[0])
        assert residual <= bound + 1e-15
        assert residual <= 1e-12


def test_coding_invariance_residual_is_a_real_difference():
    # The tail point starts from the ambient corner lo and the full point
    # from the center, so the residual does not repeat the same floats; it
    # stays within the summed enclosure diameters.
    sys = cantor_iid()
    words = sample_words(sys.shift, 1000, 41, inverse=True, seed=23)
    max_residual, max_allowance, violations = coding_invariance(sys, words)
    assert 0.0 < max_residual <= max_allowance
    assert violations == 0


def test_coding_invariance_reports_a_perturbed_first_map(monkeypatch):
    # The image side f_{w_1}(pi(w_2 ...)) goes through a system whose map 1
    # is x -> x/3 + 1e-6 (map 2 unchanged), so every word starting with
    # symbol 1 breaks the invariance by 1e-6, far above its allowance.
    sys = cantor_iid()
    shifted = MapSystem(ambient=sys.ambient, shift=sys.shift,
                        maps=(MoebiusMap(1, 3e-6, 0, 3), sys.maps[1]))
    words = sample_words(sys.shift, 400, 41, inverse=True, seed=23)
    real = synchronization.batch_reverse_points

    def image_side_perturbed(sys_, rows, anchor):
        return real(shifted if np.shape(rows)[1] == 1 else sys_, rows, anchor)

    assert coding_invariance(sys, words)[2] == 0
    monkeypatch.setattr(synchronization, "batch_reverse_points", image_side_perturbed)
    max_residual, max_allowance, violations = coding_invariance(sys, words)
    assert violations == int((words[:, 0] == 1).sum()) > 0
    assert max_residual > 1e-7 > max_allowance


# --- ergodic_average --------------------------------------------------------


def test_observable_forms():
    f = observable(("coordinate", 2))
    assert f((0.1, 0.7)) == 0.7
    g = observable(("square", 1))
    assert g((0.5,)) == 0.25
    h = observable(("product", 1, 2))
    assert h((0.5, 0.4)) == 0.2
    k = observable(lambda x: 3.0)
    assert k((0.0,)) == 3.0
    with pytest.raises(ValueError):
        observable(("cube", 1))


def test_ergodic_constant_observable():
    result = ergodic_average(cantor_iid(), (0.5,), lambda x: 2.5, 2000, seed=0)
    assert result.average == 2.5
    assert result.batch_sigma == 0.0
    assert result.steps == 2000


def test_ergodic_cantor_mean_half():
    result = ergodic_average(cantor_iid(), (0.5,), ("coordinate", 1), 120_000, seed=0)
    assert result.batch_sigma > 0.0
    assert abs(result.average - 0.5) <= 5.0 * result.batch_sigma
    assert abs(result.reference - 0.5) <= 5.0 * result.reference_sigma + 1e-3


def test_ergodic_start_independent():
    a = ergodic_average(cantor_iid(), (0.0,), ("coordinate", 1), 60_000, seed=4)
    b = ergodic_average(cantor_iid(), (1.0,), ("coordinate", 1), 60_000, seed=5)
    assert abs(a.average - b.average) <= 4.0 * math.hypot(a.batch_sigma, b.batch_sigma)


def test_ergodic_spec_matches_callable():
    a = ergodic_average(cantor_markov(), (0.3,), ("square", 1), 5000, seed=9)
    b = ergodic_average(cantor_markov(), (0.3,), lambda x: x[0] ** 2, 5000, seed=9)
    assert a.average == b.average
    assert a.batch_sigma == b.batch_sigma


def test_ergodic_requires_primitive_and_enough_steps():
    with pytest.raises(NotPrimitive):
        ergodic_average(two_cycle_system(), (0.5,), ("coordinate", 1), 1000)
    with pytest.raises(ValueError):
        ergodic_average(cantor_iid(), (0.5,), ("coordinate", 1), 50)
    with pytest.raises(ValueError):
        ergodic_average(cantor_iid(), (1.5,), ("coordinate", 1), 1000)


def test_ergodic_start_of_another_dimension_is_outside_the_box():
    with pytest.raises(ValueError, match="outside the ambient box"):
        ergodic_average(cantor_markov(), (0.3, 0.4), ("coordinate", 1), 200)
