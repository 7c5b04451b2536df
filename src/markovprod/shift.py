"""Finite-state Markov shift algebra.

Provides:
- validation and classification of row-stochastic transition matrices
  (primitive / irreducible-not-primitive / reducible) from one
  breadth-first level map of the positive-entry digraph: irreducible when
  it and its transpose reach every state, primitive when moreover the gcd
  of level(i) + 1 - level(j) over the edges i -> j, the period (Denardo
  1977), is 1
- stationary vectors by direct linear solve, with damped power iteration
  retained as an independent cross-check
- the time-reversed transition matrix q_ij = (p_j / p_i) * p_ji
- cylinder measures of the forward and inverse Markov measures, by the
  path product the oracle shares, and the first row-positive state
- admissibility tests and seeded word sampling: a uniform u moves row s of
  the chain's walk table, whose row k draws the stationary start, to the
  count of the first k - 1 entries of that row that are <= u, for many
  lanes at once (`_next_lanes`) or along one walk (`_walk`)

Symbols are 1-based integers throughout; a word is a tuple of symbols.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InadmissibleWord,
    InvalidMatrix,
    NoRowPositiveState,
    NotIrreducible,
    NumericalFailure,
    ZeroStationaryEntry,
)

Word = tuple[int, ...]

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-12

PRIMITIVE = "primitive"
IRREDUCIBLE = "irreducible-not-primitive"
REDUCIBLE = "reducible"


def as_transition_matrix(matrix) -> np.ndarray:
    """Validate and return a row-stochastic matrix as a read-only float array.

    Entries must lie in [0, 1] and every row must sum to 1 within 1e-12.
    Error messages name offending rows 1-based.  NaN fails every check.
    """
    P = np.array(matrix, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] == 0:
        raise InvalidMatrix(f"expected a nonempty square matrix, got shape {P.shape}")
    for i, row in enumerate(P):
        if not np.all((0.0 <= row) & (row <= 1.0)):
            raise InvalidMatrix(f"row {i + 1} has an entry outside [0, 1]")
        s = float(row.sum())
        if not abs(s - 1.0) <= ROW_SUM_TOL:
            raise InvalidMatrix(f"row {i + 1} sums to {s!r}, expected 1 within {ROW_SUM_TOL}")
    P.setflags(write=False)
    return P


def _levels(A: np.ndarray) -> np.ndarray:
    """Breadth-first depth of each state from state 1 along the Boolean
    adjacency matrix A, one level at a time; -1 where no path reaches it."""
    level = np.full(A.shape[0], -1)
    frontier = np.zeros(A.shape[0], dtype=bool)
    frontier[0] = True
    depth = 0
    while frontier.any():
        level[frontier] = depth
        frontier = A[frontier].any(axis=0) & (level < 0)
        depth += 1
    return level


def _irreducible_levels(A: np.ndarray) -> np.ndarray | None:
    """The level map of A when both A and its transpose reach every state
    from state 1, that is, when the chain is irreducible; None otherwise."""
    level = _levels(A)
    return level if level.min() >= 0 and _levels(A.T).min() >= 0 else None


def classify_matrix(matrix) -> str:
    """Classify a row-stochastic matrix.

    Returns "reducible" unless the positive-entry digraph A is strongly
    connected.  Otherwise the period of A is the gcd of
    level(i) + 1 - level(j) over its edges i -> j, with level the
    breadth-first depth from state 1 (Denardo 1977, *Periods of connected
    networks and powers of nonnegative matrices*): "primitive" when it is
    1, "irreducible-not-primitive" otherwise.
    """
    A = as_transition_matrix(matrix) > 0.0
    level = _irreducible_levels(A)
    if level is None:
        return REDUCIBLE
    i, j = np.nonzero(A)
    return PRIMITIVE if np.gcd.reduce(level[i] + 1 - level[j]) == 1 else IRREDUCIBLE


def stationary_vector(matrix) -> np.ndarray:
    """Solve p P = p, sum(p) = 1 for an irreducible row-stochastic P.

    Direct solve of the transposed balance equations with the normalization
    replacing one redundant row.  The residual max|pP - p| is checked against
    1e-12 before returning.
    """
    P = as_transition_matrix(matrix)
    if _irreducible_levels(P > 0.0) is None:
        raise NotIrreducible("stationary vector requires an irreducible matrix")
    k = P.shape[0]
    A = P.T - np.eye(k)
    A[-1, :] = 1.0
    rhs = np.zeros(k)
    rhs[-1] = 1.0
    try:
        p = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"stationary solve failed: {exc}") from exc
    residual = float(np.max(np.abs(p @ P - p)))
    if not residual <= STATIONARY_TOL:
        raise NumericalFailure(f"stationary solve residual {residual!r} exceeds {STATIONARY_TOL}")
    if not np.all(p > 0.0):
        raise NumericalFailure("stationary vector of an irreducible matrix must be positive")
    p.setflags(write=False)
    return p


def stationary_vector_power(matrix, tol: float = 1e-14, max_iter: int = 200_000) -> np.ndarray:
    """Stationary vector by damped power iteration; independent of the solver.

    Iterates p <- p (P + I)/2, which has the same stationary vector and
    converges for every irreducible matrix, periodic ones included.
    """
    P = as_transition_matrix(matrix)
    if _irreducible_levels(P > 0.0) is None:
        raise NotIrreducible("stationary vector requires an irreducible matrix")
    k = P.shape[0]
    lazy = 0.5 * (P + np.eye(k))
    p = np.full(k, 1.0 / k)
    for _ in range(max_iter):
        q = p @ lazy
        q /= q.sum()
        if np.max(np.abs(q - p)) < tol:
            return q
        p = q
    raise NumericalFailure(f"power iteration did not converge within {max_iter} steps")


def inverse_transition(matrix, p=None) -> np.ndarray:
    """Time-reversed matrix q_ij = (p_j / p_i) p_ji for stationary p.

    Row-stochasticity of the result is equivalent to stationarity of p, so it
    is checked and certified here.  Applying the operation twice gives back
    the original matrix.
    """
    P = as_transition_matrix(matrix)
    p = stationary_vector(P) if p is None else np.asarray(p, dtype=float)
    if p.shape != (P.shape[0],):
        raise InvalidMatrix(f"stationary vector shape {p.shape} does not match matrix {P.shape}")
    if not np.all(p > 0.0):
        raise ZeroStationaryEntry("time reversal requires a strictly positive stationary vector")
    Q = (P.T * p[None, :]) / p[:, None]
    row_err = float(np.max(np.abs(Q.sum(axis=1) - 1.0)))
    if not row_err <= 1e-10:
        raise InvalidMatrix(f"p is not stationary for the matrix (row defect {row_err!r})")
    # Rounding can overshoot the unit interval by an ulp; clamp so the result
    # revalidates as a transition matrix.
    Q = np.clip(Q, 0.0, 1.0)
    Q.setflags(write=False)
    return Q


@dataclass(frozen=True)
class MarkovShiftSpec:
    """Immutable bundle of a validated chain: P, stationary p, reversal Q.

    Only irreducible matrices get a spec, so p is strictly positive and both
    forward and inverse Markov measures are defined.
    """

    P: np.ndarray
    p: np.ndarray
    Q: np.ndarray
    classification: str

    @property
    def k(self) -> int:
        return self.P.shape[0]

    def matrix(self, inverse: bool = False) -> np.ndarray:
        return self.Q if inverse else self.P

    @cached_property
    def walk_table(self) -> np.ndarray:
        """Read-only (2, k + 1, k) `np.cumsum` rows of P (index 0) and Q (1),
        with row k that of p, the stationary start; built on first use."""
        table = np.empty((2, self.k + 1, self.k))
        for side, M in zip(table, (self.P, self.Q)):
            np.cumsum(M, axis=1, out=side[:-1])
            np.cumsum(self.p, out=side[-1])
        table.setflags(write=False)
        return table


def build_shift(matrix) -> MarkovShiftSpec:
    """Validate, classify, and close a transition matrix under time reversal."""
    P = as_transition_matrix(matrix)
    classification = classify_matrix(P)
    if classification == REDUCIBLE:
        raise NotIrreducible("shift spec requires an irreducible matrix")
    p = stationary_vector(P)
    Q = inverse_transition(P, p)
    return MarkovShiftSpec(P=P, p=p, Q=Q, classification=classification)


def check_word(word: Word, k: int, allow_empty: bool = True) -> Word:
    word = tuple(int(a) for a in word)
    if not word and not allow_empty:
        raise InadmissibleWord("word must be nonempty")
    for a in word:
        if not 1 <= a <= k:
            raise InadmissibleWord(f"symbol {a} outside 1..{k}")
    return word


def is_admissible(shift: MarkovShiftSpec, word: Word, inverse: bool = False) -> bool:
    """True when every consecutive transition of the word has positive probability."""
    word = check_word(word, shift.k)
    M = shift.matrix(inverse)
    return all(M[a - 1, b - 1] > 0.0 for a, b in zip(word, word[1:]))


def row_positive_state(shift: MarkovShiftSpec) -> int:
    """The first state, 1-based, whose transition row is strictly positive;
    NoRowPositiveState when no state has one."""
    for u, row in enumerate(shift.P, start=1):
        if np.all(row > 0.0):
            return u
    raise NoRowPositiveState("no state has a strictly positive transition row")


def _path_product(q, word: Word, start):
    """start * q_{W_0 W_1} * q_{W_1 W_2} * ... * q_{W_{N-2} W_{N-1}}, from the left."""
    return math.prod((q[a - 1][b - 1] for a, b in zip(word, word[1:])), start=start)


def cylinder_measure(shift: MarkovShiftSpec, word: Word, inverse: bool = False) -> float:
    """Measure of the cylinder [a_0 ... a_l]: p_{a_0} prod_i M_{a_i a_{i+1}}.

    M is P for the forward measure and Q for the inverse one; the empty word
    denotes the whole space and has measure 1.
    """
    word = check_word(word, shift.k)
    if not word:
        return 1.0
    return float(_path_product(shift.matrix(inverse), word, float(shift.p[word[0] - 1])))


def _next_lanes(table: np.ndarray, states: np.ndarray, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Add to `out` the 0-based next state of each lane, from its row in
    `states` of one direction's walk table for its uniform in `u`: the
    count of the first k - 1 entries of that row that are <= u.  Only each
    lane's own entry is gathered, so the temporaries are O(lanes)."""
    for column in table.T[:-1]:
        out += column.take(states) <= u
    return out


def _walk(table: np.ndarray, cur: int, u) -> list[int]:
    """The 0-based states of one walk from row `cur` of one direction's walk
    table, one per uniform in u, by the rule of `_next_lanes`."""
    hi, out = table.shape[1] - 1, []
    for v in u:
        cur = bisect_right(table[cur], v, 0, hi)
        out.append(cur)
    return out


def sample_word(
    shift: MarkovShiftSpec,
    length: int,
    *,
    start: int | None = None,
    inverse: bool = False,
    seed: int = 0,
) -> Word:
    """Draw one word of the given length from the chain.

    The first symbol is `start` when given, otherwise drawn from the
    stationary vector; transitions follow P or, with inverse=True, Q.
    Identical (parameters, seed) give identical words: the `length`
    uniforms of `default_rng(seed)`, the first drawn with or without a
    start, are walked one at a time through `_walk` on the walk table, so
    the memory is the table and O(length) besides."""
    if length < 0:
        raise ValueError("length must be >= 0")
    if length == 0:
        return ()
    if start is not None and not 1 <= int(start) <= shift.k:
        raise InadmissibleWord(f"start state {int(start)} outside 1..{shift.k}")
    u = np.random.default_rng(seed).random(length)
    table = shift.walk_table[int(inverse)]
    walk = _walk(table, shift.k, u) if start is None else [int(start) - 1, *_walk(table, int(start) - 1, u[1:])]
    return tuple(s + 1 for s in walk)


def sample_words(
    shift: MarkovShiftSpec,
    count: int,
    length: int,
    *,
    inverse: bool = False,
    seed: int = 0,
) -> np.ndarray:
    """Vectorised batch of `count` words (rows) of the given length.

    Column t, the starts from the walk table's row k first, takes the t-th
    `count` uniforms of `default_rng(seed)` through `_next_lanes`, so the
    temporaries are O(count).  The words are a (count, length) view of a
    (length, count) array in the smallest unsigned dtype that holds k, so
    each symbol column is contiguous."""
    if length <= 0 or count <= 0:
        raise ValueError("count and length must be positive")
    rng, buf = np.random.default_rng(seed), np.empty(count)
    words = np.zeros((length, count), dtype=np.min_scalar_type(shift.k))
    table = shift.walk_table[int(inverse)]
    _next_lanes(table, np.full(count, shift.k), rng.random(out=buf), words[0])
    for t in range(1, length):
        _next_lanes(table, words[t - 1], rng.random(out=buf), words[t])
    words += 1
    return words.T
