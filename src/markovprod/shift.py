"""Finite-state Markov shift algebra.

Provides:
- validation and classification of row-stochastic transition matrices
  (primitive / irreducible-not-primitive / reducible)
- stationary vectors by direct linear solve, with damped power iteration
  retained as an independent cross-check
- the time-reversed transition matrix q_ij = (p_j / p_i) * p_ji
- cylinder measures of the forward and inverse Markov measures
- admissibility tests and seeded word sampling from cumulative transition rows

Symbols are 1-based integers throughout; a word is a tuple of symbols.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InadmissibleWord,
    InvalidMatrix,
    NotIrreducible,
    NumericalFailure,
    ZeroStationaryEntry,
)

Word = tuple[int, ...]

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-12
# Entries of one next-state table that sample_word walks as a Python list.
WALK_CELLS = 1 << 20

PRIMITIVE = "primitive"
IRREDUCIBLE = "irreducible-not-primitive"
REDUCIBLE = "reducible"


def as_transition_matrix(matrix) -> np.ndarray:
    """Validate and return a row-stochastic matrix as a read-only float array.

    Entries must lie in [0, 1] and every row must sum to 1 within 1e-12.
    Error messages name offending rows 1-based.
    """
    P = np.array(matrix, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] == 0:
        raise InvalidMatrix(f"expected a nonempty square matrix, got shape {P.shape}")
    for i, row in enumerate(P):
        if np.any(row < 0.0) or np.any(row > 1.0):
            raise InvalidMatrix(f"row {i + 1} has an entry outside [0, 1]")
        s = float(row.sum())
        if abs(s - 1.0) > ROW_SUM_TOL:
            raise InvalidMatrix(f"row {i + 1} sums to {s!r}, expected 1 within {ROW_SUM_TOL}")
    P.setflags(write=False)
    return P


def _positive_digraph(P: np.ndarray) -> np.ndarray:
    return P > 0.0


def _strongly_connected(A: np.ndarray) -> bool:
    """Strong connectivity of a boolean adjacency matrix via two BFS passes."""

    def reaches_all(adj: np.ndarray) -> bool:
        k = adj.shape[0]
        seen = np.zeros(k, dtype=bool)
        seen[0] = True
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for w in np.flatnonzero(adj[v]):
                    if not seen[w]:
                        seen[w] = True
                        nxt.append(int(w))
            frontier = nxt
        return bool(seen.all())

    return reaches_all(A) and reaches_all(A.T)


def wielandt_bound(k: int) -> int:
    """Power cap used by the primitivity test."""
    return (k - 1) * k * k + 1


def classify_matrix(matrix) -> str:
    """Classify a row-stochastic matrix.

    Returns "primitive" when some power P^n (n <= (k-1)k^2 + 1) is entrywise
    positive, "irreducible-not-primitive" when the positive-entry digraph is
    strongly connected but no such power exists, and "reducible" otherwise.
    Positivity of boolean powers is monotone once rows and columns are
    nonempty, so testing the squares A, A^2, A^4, ... up to the cap decides.
    """
    P = as_transition_matrix(matrix)
    A = _positive_digraph(P)
    if not _strongly_connected(A):
        return REDUCIBLE
    bound = wielandt_bound(P.shape[0])
    B = A.copy()
    exponent = 1
    while True:
        if B.all():
            return PRIMITIVE
        if exponent >= bound:
            return IRREDUCIBLE
        B = B @ B
        exponent *= 2


def stationary_vector(matrix) -> np.ndarray:
    """Solve p P = p, sum(p) = 1 for an irreducible row-stochastic P.

    Direct solve of the transposed balance equations with the normalization
    replacing one redundant row.  The residual max|pP - p| is checked against
    1e-12 before returning.
    """
    P = as_transition_matrix(matrix)
    if not _strongly_connected(_positive_digraph(P)):
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
    if residual > STATIONARY_TOL:
        raise NumericalFailure(f"stationary solve residual {residual!r} exceeds {STATIONARY_TOL}")
    if np.any(p <= 0.0):
        raise NumericalFailure("stationary vector of an irreducible matrix must be positive")
    p.setflags(write=False)
    return p


def stationary_vector_power(matrix, tol: float = 1e-14, max_iter: int = 200_000) -> np.ndarray:
    """Stationary vector by damped power iteration; independent of the solver.

    Iterates p <- p (P + I)/2, which has the same stationary vector and
    converges for every irreducible matrix, periodic ones included.
    """
    P = as_transition_matrix(matrix)
    if not _strongly_connected(_positive_digraph(P)):
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
    if np.any(p <= 0.0):
        raise ZeroStationaryEntry("time reversal requires a strictly positive stationary vector")
    Q = (P.T * p[None, :]) / p[:, None]
    row_err = float(np.max(np.abs(Q.sum(axis=1) - 1.0)))
    if row_err > 1e-10:
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


def cylinder_measure(shift: MarkovShiftSpec, word: Word, inverse: bool = False) -> float:
    """Measure of the cylinder [a_0 ... a_l]: p_{a_0} prod_i M_{a_i a_{i+1}}.

    M is P for the forward measure and Q for the inverse one; the empty word
    denotes the whole space and has measure 1.
    """
    word = check_word(word, shift.k)
    if not word:
        return 1.0
    M = shift.matrix(inverse)
    out = float(shift.p[word[0] - 1])
    for a, b in zip(word, word[1:]):
        out *= float(M[a - 1, b - 1])
        if out == 0.0:
            return 0.0
    return out


def _next_states(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row i: the 0-based next state from state i for each uniform in u, the
    first s with u < cum[i, s] or else k - 1, in the smallest unsigned dtype
    that holds k - 1.  Rows of cumulative sums are nondecreasing, so this is
    the count of a row's first k - 1 entries that are <= u."""
    table = np.empty((len(cum), len(u)), dtype=np.min_scalar_type(cum.shape[1] - 1))
    for i, row in enumerate(cum[:, :-1]):
        table[i] = np.searchsorted(row, u, side="right")
    return table


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
    uniforms of `default_rng(seed)` are tabulated and walked in blocks of
    about WALK_CELLS / k steps, so beside the word itself the table takes
    O(WALK_CELLS) memory for any k and length."""
    if length < 0:
        raise ValueError("length must be >= 0")
    if length == 0:
        return ()
    if start is not None and not 1 <= int(start) <= shift.k:
        raise InadmissibleWord(f"start state {int(start)} outside 1..{shift.k}")
    rng = np.random.default_rng(seed)
    u = rng.random(1)  # drawn with or without a start
    cur = int(start) - 1 if start is not None else int(_next_states(np.cumsum(shift.p)[None], u)[0, 0])
    cum, out = np.cumsum(shift.matrix(inverse), axis=1), [cur + 1]
    block = max(1, WALK_CELLS // shift.k)
    for done in range(1, length, block):
        rows = _next_states(cum, rng.random(min(block, length - done))).tolist()
        for t in range(len(rows[0])):
            cur = rows[cur][t]
            out.append(cur + 1)
    return tuple(out)


def sample_words(
    shift: MarkovShiftSpec,
    count: int,
    length: int,
    *,
    inverse: bool = False,
    seed: int = 0,
) -> np.ndarray:
    """Vectorised batch of `count` words (rows) of the given length.

    Starts are stationary draws; column t takes the t-th `count` uniforms
    u of `default_rng(seed)`, and each lane counts the entries s < k - 1 of
    its state's cumulative row (summed as np.cumsum does) that are <= u, so
    the temporaries are O(count + k).  The words are a (count, length) view
    of a (length, count) array in the smallest unsigned dtype that holds k,
    so each symbol column is contiguous."""
    if length <= 0 or count <= 0:
        raise ValueError("count and length must be positive")
    rng, buf = np.random.default_rng(seed), np.empty(count)
    words = np.zeros((length, count), dtype=np.min_scalar_type(shift.k))
    words[0] = _next_states(np.cumsum(shift.p)[None], rng.random(out=buf))[0]
    M = shift.matrix(inverse)
    for t in range(1, length):
        u, entry = rng.random(out=buf), M[:, 0].copy()  # entry s - 1 of every cumulative row
        for s in range(1, shift.k):
            words[t] += entry.take(words[t - 1]) <= u
            entry += M[:, s]
    words += 1
    return words.T
