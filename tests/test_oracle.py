"""Exact cylinder measures: membership and avoidance measures, block
substitution, and the full bound sweep.

Brute-force reference implementations live in this file so every pinned
value is checked against an independent enumeration."""

import itertools
import time
import tracemalloc
from fractions import Fraction

import pytest

from conftest import UNIT, cantor_iid, cantor_maps, cantor_markov, moebius_pair
from markovprod import (
    AffineMap,
    BudgetExceeded,
    HypothesisViolated,
    LengthMismatch,
    MapSystem,
    MoebiusMap,
    avoidance_measure,
    build_shift,
    membership_measure,
    substitute_blocks,
    verify_bounds,
)

IID = [[0.5, 0.5], [0.5, 0.5]]


# --- independent brute-force references ----------------------------------


def frac_measure(shift, word) -> Fraction:
    if not word:
        return Fraction(1)
    acc = Fraction(shift.p[word[0] - 1])
    for a, b in zip(word, word[1:]):
        acc *= Fraction(shift.Q[a - 1][b - 1])
    return acc


def frac_interval_image(f, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    if isinstance(f, AffineMap):
        a, b = Fraction(f.matrix[0][0]), Fraction(f.offset[0])
        y0, y1 = a * lo + b, a * hi + b
    else:
        a, b, c, d = (Fraction(v) for v in (f.a, f.b, f.c, f.d))
        y0 = (a * lo + b) / (c * lo + d)
        y1 = (a * hi + b) / (c * hi + d)
    return (y0, y1) if y0 <= y1 else (y1, y0)


def brute_membership(sys, x, n) -> Fraction:
    # Total inverse measure of the words whose enclosure of
    # f_{w_0} o ... o f_{w_{n-1}}(ambient) contains x; innermost symbol first.
    x = Fraction(x)
    total = Fraction(0)
    for w in itertools.product(range(1, sys.k + 1), repeat=n):
        lo, hi = Fraction(sys.ambient.lo[0]), Fraction(sys.ambient.hi[0])
        for sym in reversed(w):
            lo, hi = frac_interval_image(sys.maps[sym - 1], lo, hi)
        if lo <= x <= hi:
            total += frac_measure(sys.shift, w)
    return total


def avoiding_words(shift, word, ell):
    n = len(word) * ell
    for w in itertools.product(range(1, shift.k + 1), repeat=n):
        if not any(w[i : i + len(word)] == word for i in range(0, n, len(word))):
            yield w


def brute_avoidance(shift, word, ell) -> Fraction:
    return sum((frac_measure(shift, w) for w in avoiding_words(shift, word, ell)), Fraction(0))


def brute_avoidance_count(shift, word, ell) -> int:
    # Words whose every step (first symbol included) has positive probability.
    return sum(1 for w in avoiding_words(shift, word, ell) if frac_measure(shift, w) > 0)


# --- membership_measure ---------------------------------------------------


def test_membership_n_zero_is_one():
    assert membership_measure(cantor_iid(), 0.5, 1, 0) == 1.0
    assert membership_measure(cantor_iid(), 0.5, 1, 0, exact=True) == Fraction(1)


def test_membership_gap_point_is_zero():
    assert membership_measure(cantor_iid(), 0.5, 1, 1) == 0.0


def test_membership_left_endpoint():
    # Only the all-ones word keeps 0 in its enclosure.
    assert membership_measure(cantor_iid(), 0.0, 1, 5) == 0.5**5
    assert membership_measure(cantor_iid(), 0.0, 1, 5, exact=True) == Fraction(1, 32)


def test_membership_closed_boundary():
    # x = 1/3 sits on the closed right endpoint of the enclosures of (1,)
    # and (1,2), so both cylinders count.
    sys = cantor_iid()
    x = 1.0 / 3.0
    assert membership_measure(sys, x, 1, 1) == 0.5
    assert membership_measure(sys, x, 1, 2) == 0.25


def test_membership_matches_brute_force():
    for sys in (cantor_iid(), cantor_markov(), moebius_pair()):
        for x in (0.0, 0.2, 1.0 / 3.0, 0.75, 1.0):
            for n in (0, 1, 2, 3, 4):
                got = membership_measure(sys, x, 1, n, exact=True)
                assert got == brute_membership(sys, x, n)


def test_membership_nonincreasing_in_n():
    sys = cantor_markov()
    for x in (0.0, 0.3, 0.9):
        prev = Fraction(1)
        for n in range(0, 8):
            cur = membership_measure(sys, x, 1, n, exact=True)
            assert cur <= prev
            prev = cur


def test_membership_float_tracks_exact():
    # Off enclosure boundaries (triadic rationals here) float containment
    # verdicts match the exact ones, so the sums agree to rounding error.
    sys = cantor_markov()
    for x in (0.0, 0.25, 0.9):
        for n in (1, 3, 5):
            approx = membership_measure(sys, x, 1, n)
            exact = membership_measure(sys, x, 1, n, exact=True)
            assert abs(approx - float(exact)) <= 1e-12


def test_membership_input_validation():
    sys = cantor_iid()
    with pytest.raises(ValueError):
        membership_measure(sys, 1.5, 1, 2)
    with pytest.raises(ValueError):
        membership_measure(sys, 0.5, 2, 2)
    with pytest.raises(ValueError):
        membership_measure(sys, 0.5, 1, -1)
    with pytest.raises(BudgetExceeded):
        membership_measure(sys, 0.5, 1, 25)


# --- avoidance_measure ----------------------------------------------------


def test_avoidance_single_symbol_iid():
    shift = build_shift(IID)
    assert avoidance_measure(shift, (1,), 3) == 0.5**3
    assert avoidance_measure(shift, (1,), 0) == 1.0


def test_avoidance_zero_measure_block_changes_nothing():
    # Block (2,2) is impossible under this chain, so nothing is excluded and
    # the measure is the full mass.  The stationary vector (2/3, 1/3) is a
    # float, so exact arithmetic reproduces its rounding, not an ideal 1.
    shift = build_shift([[0.5, 0.5], [1.0, 0.0]])
    got = avoidance_measure(shift, (2, 2), 2, exact=True)
    assert got == brute_avoidance(shift, (2, 2), 2)
    assert abs(float(got) - 1.0) <= 1e-15
    assert avoidance_measure(shift, (2, 2), 2) == pytest.approx(1.0, abs=1e-12)


def test_avoidance_iid_block_closed_form():
    # Aligned occurrences of a length-2 block under the uniform iid chain are
    # independent across blocks: the avoidance measure is exactly (3/4)^ell.
    shift = build_shift(IID)
    for ell in range(0, 51):
        assert avoidance_measure(shift, (1, 1), ell, exact=True) == Fraction(3, 4) ** ell


def test_avoidance_markov_pinned_value():
    # float() of the exact value at ell = 10.
    shift = cantor_markov().shift
    assert avoidance_measure(shift, (1, 2), 10) == pytest.approx(
        0.4698436603962219, abs=1e-15
    )


def test_avoidance_float_tracks_exact_to_rounding():
    shift = cantor_markov().shift
    for ell in range(1, 11):
        exact = float(avoidance_measure(shift, (1, 2), ell, exact=True))
        assert abs(avoidance_measure(shift, (1, 2), ell) - exact) <= 4e-16 * exact


def test_avoidance_long_words_exact_and_fast():
    # ell = 50 means 2^100 words of length 100; none is enumerated.
    shift = cantor_markov().shift
    start = time.perf_counter()
    got = avoidance_measure(shift, (1, 2), 50, exact=True)
    assert time.perf_counter() - start < 1.0
    assert 0 < got < avoidance_measure(shift, (1, 2), 10, exact=True)


def test_avoidance_matches_brute_force():
    shift = cantor_markov().shift
    for word in ((1,), (2,), (1, 2), (2, 1), (1, 1, 2)):
        for ell in (0, 1, 2, 3):
            got = avoidance_measure(shift, word, ell, exact=True)
            assert got == brute_avoidance(shift, word, ell)


def test_avoidance_nonincreasing_in_ell():
    shift = cantor_markov().shift
    prev = Fraction(1)
    for ell in range(0, 9):
        cur = avoidance_measure(shift, (1, 2), ell, exact=True)
        assert cur <= prev
        prev = cur


# --- substitute_blocks ----------------------------------------------------


def test_substitute_examples():
    assert substitute_blocks((1, 1, 2, 1), (1, 1), (1, 2)) == (1, 2, 2, 1)
    assert substitute_blocks((2, 1, 2, 2), (1, 1), (1, 2)) == (2, 1, 2, 2)
    assert substitute_blocks((1, 1, 1, 1), (1, 1), (1, 2)) == (1, 2, 1, 2)
    assert substitute_blocks((), (1, 1), (1, 2)) == ()


def test_substitute_length_errors():
    with pytest.raises(LengthMismatch):
        substitute_blocks((1, 2, 1), (1, 1), (1, 2))  # not a multiple
    with pytest.raises(LengthMismatch):
        substitute_blocks((1, 2), (1, 1), (1,))  # replacement length
    with pytest.raises(LengthMismatch):
        substitute_blocks((1, 2), (), ())


# --- verify_bounds --------------------------------------------------------


def normalized_pair_for(sys):
    from markovprod import certify_split, normalize_witness

    witness = certify_split(sys, (1, 1), (2, 1))
    assert witness is not None
    return normalize_witness(sys, witness)


def test_verify_bounds_iid_exact_equality():
    # For the uniform iid chain both pair words have measure 1/4, rho0 = 1/4,
    # and the avoidance measure meets the geometric bound with equality.
    sys = cantor_iid()
    report = verify_bounds(sys, normalized_pair_for(sys), ell_max=4, exact=True)
    assert report.all_hold
    assert not report.swapped
    assert report.word == (1, 1)
    assert report.replacement == (1, 2)
    assert report.decay_floor == Fraction(1, 4)
    for row in report.rows:
        assert row.rhs == Fraction(3, 4) ** row.ell
        assert row.rhs == row.geometric_bound
        assert row.lhs <= row.rhs
        assert row.injective
        assert row.measure_monotone
        assert row.exact_enclosures


def test_verify_bounds_markov_swaps_to_lower_measure_word():
    sys = cantor_markov()
    report = verify_bounds(sys, normalized_pair_for(sys), ell_max=4, exact=False)
    assert report.all_hold
    assert report.swapped
    assert report.word == (1, 2)
    assert report.replacement == (1, 1)
    # rho = min_j q_j1 * q_12 = 0.2 * 0.1; lower than the word measure 1/15.
    assert report.decay_floor == pytest.approx(0.02, abs=1e-15)
    assert report.word_measure == pytest.approx(1.0 / 15.0, abs=1e-16)
    assert report.replacement_measure == pytest.approx(0.6, abs=1e-15)


def test_verify_bounds_row_shape():
    sys = cantor_iid()
    report = verify_bounds(
        sys, normalized_pair_for(sys), ell_max=3, x_grid=(0.0, 0.5, 1.0)
    )
    assert len(report.rows) == 9
    assert {row.ell for row in report.rows} == {1, 2, 3}
    report_default = verify_bounds(sys, normalized_pair_for(sys), ell_max=2)
    assert len(report_default.rows) == 2 * 33


def test_verify_bounds_measures_each_word_once(monkeypatch):
    # At small ell one cylinder holds many grid points, and the walk lists
    # its word under each of them; each member word and image is measured
    # once for the whole grid.
    from markovprod import oracle

    sys = cantor_markov()
    pair = normalized_pair_for(sys)
    measure = oracle.inverse_word_measure
    for exact in (True, False):
        plain = verify_bounds(sys, pair, ell_max=3, exact=exact)
        calls = []
        monkeypatch.setattr(oracle, "inverse_word_measure",
                            lambda tables, w: calls.append(tuple(w)) or measure(tables, w))
        report = verify_bounds(sys, pair, ell_max=3, exact=exact)
        monkeypatch.undo()
        assert report == plain
        # The pair's two words first, then each word of the rows once.
        assert len(calls[2:]) == len(set(calls[2:]))
        assert sum(row.membership_words for row in report.rows) > len(calls)


def test_verify_bounds_float_and_exact_agree_on_verdicts():
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    for sys in (cantor_iid(), cantor_markov(), moebius_pair()):
        pair = normalized_pair_for(sys)
        approx = verify_bounds(sys, pair, ell_max=4, x_grid=grid, exact=False)
        exact = verify_bounds(sys, pair, ell_max=4, x_grid=grid, exact=True)
        for ra, re in zip(approx.rows, exact.rows):
            assert (ra.ell, ra.s) == (re.ell, re.s)
            assert ra.holds == re.holds
            assert abs(float(re.lhs) - ra.lhs) <= 1e-12
            assert abs(float(re.rhs) - ra.rhs) <= 1e-12


def test_verify_bounds_membership_dominated_by_avoidance_brute_force():
    # The reported lhs/rhs columns must equal the brute-force enumerations.
    sys = cantor_markov()
    pair = normalized_pair_for(sys)
    report = verify_bounds(sys, pair, ell_max=3, x_grid=(0.1, 0.9), exact=True)
    for row in report.rows:
        assert row.lhs == brute_membership(sys, row.x, row.ell * 2)
        assert row.rhs == brute_avoidance(sys.shift, report.word, row.ell)


def test_verify_bounds_avoidance_words_match_brute_count():
    # Under the chain with the zero transition 2 -> 2 the count leaves out
    # every word that steps from 2 to 2; under the other two it is 3^ell.
    zero_step = MapSystem(
        shift=build_shift([[0.5, 0.5], [1.0, 0.0]]), maps=cantor_maps(), ambient=UNIT
    )
    for sys in (cantor_iid(), cantor_markov(), zero_step):
        report = verify_bounds(sys, ((1, 1), (1, 2)), ell_max=4, x_grid=(0.0,), exact=True)
        for row in report.rows:
            assert row.avoidance_words == brute_avoidance_count(sys.shift, report.word, row.ell)
            assert row.enumerated == 2 ** (2 * row.ell)


def test_verify_bounds_refuses_over_budget_ell_max_before_enumerating(monkeypatch):
    from markovprod import oracle

    def walk_membership(*args, **kwargs):
        raise AssertionError("membership enumerated before the budget check")

    monkeypatch.setattr(oracle, "_walk_membership", walk_membership)
    sys = cantor_iid()
    with pytest.raises(BudgetExceeded, match=r"2\^26 words"):
        verify_bounds(sys, normalized_pair_for(sys), ell_max=13)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("x", [2.0, -1.0, float("nan")])
def test_verify_bounds_rejects_grid_points_off_the_ambient_projection(monkeypatch, x, exact):
    from markovprod import oracle

    def walk_membership(*args, **kwargs):
        raise AssertionError("membership enumerated before the grid check")

    sys = cantor_iid()
    with pytest.raises(ValueError) as single:
        membership_measure(sys, x, 1, 2, exact=exact)
    monkeypatch.setattr(oracle, "_walk_membership", walk_membership)
    with pytest.raises(ValueError) as grid:
        verify_bounds(sys, ((1, 1), (1, 2)), x_grid=[0.5, x], ell_max=2, exact=exact)
    assert str(grid.value) == str(single.value)


def test_membership_walk_memory_is_bounded_by_the_enclosure_cache():
    # Images [0, 3/4] and [1/4, 1] overlap, so 0.5 lies in the enclosures
    # of many words of every length, and by depth 16 the walk chains about
    # 14,000 distinct enclosures.  Under tracemalloc an uncapped cache of
    # them peaks at about 7 MB, the capped one at about 2.6 MB.
    sys = MapSystem(
        shift=build_shift(IID),
        maps=(AffineMap(((0.75,),), (0.0,)), AffineMap(((0.75,),), (0.25,))),
        ambient=UNIT,
    )
    tracemalloc.start()
    try:
        measure = membership_measure(sys, 0.5, 1, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert measure > 0.01
    assert peak < 5_000_000


def test_verify_bounds_rejects_mismatched_first_symbols():
    with pytest.raises(HypothesisViolated):
        verify_bounds(cantor_iid(), ((1, 1), (2, 1)))


def test_verify_bounds_rejects_identical_words():
    with pytest.raises(HypothesisViolated):
        verify_bounds(cantor_iid(), ((1, 1), (1, 1)))


def test_verify_bounds_rejects_unequal_lengths():
    with pytest.raises(LengthMismatch):
        verify_bounds(cantor_iid(), ((1, 1), (1, 2, 1)))


def test_verify_bounds_rejects_zero_measure_word():
    sys = MapSystem(
        shift=build_shift([[0.5, 0.5], [1.0, 0.0]]),
        maps=cantor_maps(),
        ambient=UNIT,
    )
    with pytest.raises(HypothesisViolated):
        verify_bounds(sys, ((2, 2), (2, 1)))


def test_verify_bounds_rejects_overlapping_boxes():
    sys = MapSystem(
        shift=build_shift(IID),
        maps=(AffineMap(((0.5,),), (0.0,)), AffineMap(((0.5,),), (0.5,))),
        ambient=UNIT,
    )
    # Reversed-word boxes [0, 1/4] and [1/4, 1/2] share an endpoint.
    with pytest.raises(HypothesisViolated):
        verify_bounds(sys, ((1, 1), (1, 2)))


def test_verify_bounds_moebius_exact_mode():
    sys = moebius_pair()
    report = verify_bounds(
        sys, normalized_pair_for(sys), ell_max=3, x_grid=(0.0, 0.5, 1.0), exact=True
    )
    assert report.all_hold
    assert report.exact
    assert isinstance(report.rows[0].lhs, Fraction)
    assert isinstance(report.rows[0].rhs, Fraction)
