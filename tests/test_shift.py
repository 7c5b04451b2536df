"""Markov shift algebra: classification, stationary vectors, time reversal,
cylinder measures, sampling."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cantor_markov, random_irreducible
from markovprod import (
    InadmissibleWord,
    InvalidMatrix,
    MarkovProdError,
    NotIrreducible,
    NumericalFailure,
    ZeroStationaryEntry,
    build_shift,
    classify_matrix,
    cylinder_measure,
    inverse_transition,
    is_admissible,
    sample_word,
    sample_words,
    stationary_vector,
    stationary_vector_power,
)
from markovprod import shift as shift_module
from markovprod.shift import as_transition_matrix

MARKOV = [[0.9, 0.1], [0.2, 0.8]]
THREE_CYCLE = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
TWO_CYCLE = [[0.0, 1.0], [1.0, 0.0]]


# --- validation ---------------------------------------------------------


def test_rejects_bad_row_sum_naming_row_one_based():
    with pytest.raises(InvalidMatrix, match="row 1 sums to"):
        build_shift([[0.5, 0.4], [0.5, 0.5]])


def test_rejects_negative_entry():
    with pytest.raises(InvalidMatrix, match="row 2"):
        build_shift([[0.5, 0.5], [-0.1, 1.1]])


def test_rejects_non_square():
    with pytest.raises(InvalidMatrix):
        build_shift([[0.5, 0.5]])


NAN = float("nan")


@pytest.mark.parametrize("check", [as_transition_matrix, build_shift, classify_matrix, stationary_vector,
                                   stationary_vector_power, inverse_transition])
def test_nan_entry_fails_the_entry_check(check):
    # Each check is `not lo <= x <= hi`; `x < lo or x > hi` let NaN through.
    with pytest.raises(InvalidMatrix, match="row 1 has an entry outside"):
        check([[NAN, 1.0], [0.5, 0.5]])


def test_nan_solve_fails_the_residual_check(monkeypatch):
    monkeypatch.setattr(np.linalg, "solve", lambda A, b: np.full(len(b), NAN))
    with pytest.raises(NumericalFailure, match="residual nan exceeds"):
        stationary_vector(MARKOV)


def test_nan_stationary_entry_fails_the_positivity_check():
    with pytest.raises(ZeroStationaryEntry):
        inverse_transition([[0.5, 0.5], [0.5, 0.5]], [NAN, 0.5])


def test_nan_row_defect_fails_the_stationarity_check():
    # inf passes the positivity check, and inf / inf puts NaN in every row.
    with np.errstate(invalid="ignore"), pytest.raises(InvalidMatrix, match="row defect nan"):
        inverse_transition([[0.5, 0.5], [0.5, 0.5]], [np.inf, 0.5])


# --- classification -----------------------------------------------------


def test_classify_positive_matrix_primitive():
    assert classify_matrix(MARKOV) == "primitive"


def test_classify_primitive_with_zero_entry():
    assert classify_matrix([[0.0, 1.0], [0.5, 0.5]]) == "primitive"


def test_classify_cycle_irreducible_not_primitive():
    assert classify_matrix(TWO_CYCLE) == "irreducible-not-primitive"
    assert classify_matrix(THREE_CYCLE) == "irreducible-not-primitive"


def test_classify_identity_reducible():
    assert classify_matrix([[1.0, 0.0], [0.0, 1.0]]) == "reducible"


def test_build_shift_rejects_reducible():
    with pytest.raises(NotIrreducible):
        build_shift([[1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("matrix", [MARKOV, THREE_CYCLE, [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]])
def test_build_shift_validates_once_and_levels_each_direction_once(monkeypatch, matrix):
    calls = []
    for name in ("as_transition_matrix", "_levels"):
        def wrapped(M, real=getattr(shift_module, name), name=name):
            calls.append((name, np.array(M)))
            return real(M)

        monkeypatch.setattr(shift_module, name, wrapped)
    spec = build_shift(matrix)
    assert [name for name, _ in calls] == ["as_transition_matrix", "_levels", "_levels"]
    A = calls[0][1] > 0.0
    assert np.array_equal(calls[1][1], A) and np.array_equal(calls[2][1], A.T)
    monkeypatch.undo()
    assert spec.classification == classify_matrix(matrix)
    assert spec.p.tolist() == stationary_vector(matrix).tolist()
    assert spec.Q.tolist() == inverse_transition(matrix).tolist()


# --- stationary vector --------------------------------------------------


def test_stationary_symmetric():
    p = stationary_vector([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(p, [0.5, 0.5], atol=1e-15)


def test_stationary_markov_exact_thirds():
    # Exact solve of p = pP for MARKOV: 0.1 p1 = 0.2 p2, so p = (2/3, 1/3).
    p = stationary_vector(MARKOV)
    assert abs(p[0] - 2.0 / 3.0) <= 1e-14
    assert abs(p[1] - 1.0 / 3.0) <= 1e-14


def test_stationary_requires_irreducible():
    with pytest.raises(NotIrreducible):
        stationary_vector([[1.0, 0.0], [0.0, 1.0]])


def test_power_iteration_matches_solver_including_periodic():
    for seed, k in [(1, 2), (2, 3), (3, 5), (4, 8)]:
        P = random_irreducible(seed, k)
        direct = stationary_vector(P)
        power = stationary_vector_power(P)
        assert float(np.max(np.abs(direct - power))) <= 1e-10
    cyc = stationary_vector_power(THREE_CYCLE)
    assert np.allclose(cyc, [1 / 3, 1 / 3, 1 / 3], atol=1e-10)


def test_singular_solve_raises_numerical_failure(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NumericalFailure, match="Singular matrix") as exc:
        stationary_vector([[0.5, 0.5], [0.5, 0.5]])
    assert isinstance(exc.value, MarkovProdError)
    assert isinstance(exc.value, ArithmeticError)


def test_power_iteration_cap_raises_numerical_failure():
    # Callers that caught ArithmeticError still catch it.
    with pytest.raises(ArithmeticError, match="did not converge"):
        stationary_vector_power([[0.9, 0.1], [0.2, 0.8]], max_iter=3)
    with pytest.raises(NumericalFailure):
        stationary_vector_power([[0.9, 0.1], [0.2, 0.8]], max_iter=3)


# --- time reversal ------------------------------------------------------


def test_inverse_symmetric_is_self():
    Q = inverse_transition([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(Q, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_inverse_markov_detailed_balance():
    # p1 p12 = (2/3)(0.1) = p2 p21 = (1/3)(0.2), so the chain is reversible
    # and Q equals P entry for entry.
    Q = inverse_transition(MARKOV)
    assert np.allclose(Q, MARKOV, atol=1e-14)


def test_inverse_cycle_is_transpose():
    Q = inverse_transition(THREE_CYCLE)
    assert np.allclose(Q, np.array(THREE_CYCLE).T, atol=1e-15)


def test_inverse_rejects_zero_stationary_entry():
    with pytest.raises(ZeroStationaryEntry):
        inverse_transition(THREE_CYCLE, p=[0.5, 0.0, 0.5])


def test_inverse_rejects_non_stationary_vector():
    with pytest.raises(InvalidMatrix, match="not stationary"):
        inverse_transition(MARKOV, p=[0.5, 0.5])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(2, 6))
def test_inverse_row_stochastic_and_involution(seed, k):
    P = random_irreducible(seed, k)
    p = stationary_vector(P)
    Q = inverse_transition(P, p)
    assert float(np.max(np.abs(Q.sum(axis=1) - 1.0))) <= 1e-12
    # p is stationary for Q as well, and reversing twice returns P.
    assert float(np.max(np.abs(p @ Q - p))) <= 1e-12
    assert float(np.max(np.abs(inverse_transition(Q, p) - P))) <= 1e-12


# --- cylinder measures --------------------------------------------------


def test_cylinder_empty_word_is_one():
    shift = cantor_markov().shift
    assert cylinder_measure(shift, ()) == 1.0
    assert cylinder_measure(shift, (), inverse=True) == 1.0


def test_cylinder_forward_example():
    shift = cantor_markov().shift
    assert abs(cylinder_measure(shift, (1, 2)) - 1.0 / 15.0) <= 1e-16


def test_cylinder_blocked_transition_is_zero():
    shift = build_shift([[0.5, 0.5], [1.0, 0.0]])
    assert cylinder_measure(shift, (2, 2)) == 0.0
    assert not is_admissible(shift, (2, 2))


def test_cylinder_rejects_bad_symbol():
    shift = cantor_markov().shift
    with pytest.raises(InadmissibleWord):
        cylinder_measure(shift, (1, 3))
    with pytest.raises(InadmissibleWord):
        cylinder_measure(shift, (0,))


def test_admissibility_differs_between_directions():
    shift = build_shift(THREE_CYCLE)
    assert is_admissible(shift, (1, 2))
    assert not is_admissible(shift, (1, 2), inverse=True)
    assert is_admissible(shift, (2, 1), inverse=True)


def test_reversal_identity_exhaustive_markov():
    # Forward measure of a word equals inverse measure of the reversed word.
    shift = cantor_markov().shift
    for n in range(1, 5):
        for word in itertools.product((1, 2), repeat=n):
            fwd = cylinder_measure(shift, word)
            back = cylinder_measure(shift, tuple(reversed(word)), inverse=True)
            assert abs(fwd - back) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(2, 4),
    data=st.data(),
)
def test_concatenation_identity(seed, k, data):
    # P(uv) = P(u) P_{u_last v_0} P(v) / p_{v_0} for nonempty u, v.
    shift = build_shift(random_irreducible(seed, k))
    u = tuple(data.draw(st.lists(st.integers(1, k), min_size=1, max_size=5)))
    v = tuple(data.draw(st.lists(st.integers(1, k), min_size=1, max_size=5)))
    lhs = cylinder_measure(shift, u + v)
    link = float(shift.P[u[-1] - 1, v[0] - 1])
    rhs = cylinder_measure(shift, u) * link * cylinder_measure(shift, v) / float(shift.p[v[0] - 1])
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_cylinder_measures_sum_to_one_by_length():
    shift = build_shift(random_irreducible(7, 3))
    for n in (1, 2, 4):
        total = Fraction(0)
        total = sum(
            cylinder_measure(shift, w) for w in itertools.product((1, 2, 3), repeat=n)
        )
        assert abs(total - 1.0) <= 1e-12


# --- sampling -----------------------------------------------------------


def test_sample_word_cycle_deterministic():
    shift = build_shift(TWO_CYCLE)
    assert sample_word(shift, 4, start=1) == (1, 2, 1, 2)
    assert sample_word(shift, 4, start=2) == (2, 1, 2, 1)


def test_sample_word_empty():
    shift = cantor_markov().shift
    assert sample_word(shift, 0) == ()


def test_sample_word_seed_reproducible():
    shift = cantor_markov().shift
    a = sample_word(shift, 50, seed=123)
    assert a == sample_word(shift, 50, seed=123)
    assert a != sample_word(shift, 50, seed=124)


def test_sample_word_rejects_bad_start():
    shift = cantor_markov().shift
    with pytest.raises(InadmissibleWord):
        sample_word(shift, 3, start=0)


def test_sample_words_rows_admissible():
    shift = build_shift(THREE_CYCLE)
    words = sample_words(shift, 20, 6, seed=5)
    assert words.shape == (20, 6)
    for row in words:
        assert is_admissible(shift, tuple(int(a) for a in row))


def test_sample_words_inverse_rows_admissible_for_inverse():
    shift = build_shift(THREE_CYCLE)
    words = sample_words(shift, 20, 6, inverse=True, seed=5)
    for row in words:
        assert is_admissible(shift, tuple(int(a) for a in row), inverse=True)


def test_sample_word_law_of_large_numbers():
    # Empirical state-1 frequency over 10^6 draws against the stationary
    # vector; tolerance 30 standard errors leaves the failure probability
    # negligible while still catching a wrong sampler.
    shift = cantor_markov().shift
    n = 1_000_000
    word = sample_word(shift, n, seed=42)
    freq = word.count(1) / n
    p1 = 2.0 / 3.0
    tol = 30.0 * (p1 * (1.0 - p1) / n) ** 0.5
    assert abs(freq - p1) <= tol
