"""Splitting certificates for pairs of admissible words.

A pair of admissible words (a_1..a_l), (b_1..b_r) with a_l = b_r is a split
witness when the image sets M1 = f_{a_l} o ... o f_{a_1}(M) and
M2 = f_{b_r} o ... o f_{b_1}(M) stay projection-disjoint in every coordinate
under every further composition of system maps.  Provides:

- certify_split: the monotone-order criterion (strict separation
  sup pi_s(M1) < inf pi_s(M2) oriented by the sign class, which then persists
  for all iterates), plus the one-dimensional shortcut where injectivity of
  all maps makes plain disjointness of the two intervals sufficient
- verify_split_horizon: finite-horizon falsification/certification sweep over
  symbol prefixes, comparing chained enclosures (certification, with float
  endpoints rounded to nearest) and sampled point clouds (a cloud overlap
  falsifies, since the true image projections contain the cloud extremes),
  as one batched frontier walk in blocks of `maps.BLOCK_POINTS` cloud points
- search_witness: smallest-first deterministic enumeration of word pairs
- normalize_witness: turn a witness into an equal-length pair of words that
  is admissible for the inverse measure and starts at a common symbol, the
  form consumed by the cylinder-enumeration oracle
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    InadmissibleWord,
    LastSymbolMismatch,
    NotMonotoneSystem,
    NotPrimitive,
)
from .maps import (
    BLOCK_POINTS,
    MINUS,
    PLUS,
    IntervalBox,
    MapSystem,
    advance_rows,
    box_image,
    forward_box_chain,
    injective,
    map_points,
    monotone_classes,
    orbit,
)
from .shift import PRIMITIVE, Word, check_word, is_admissible, row_positive_state

SEARCH_BUDGET = 1 << 22
HORIZON_BUDGET = 1 << 20

MONOTONE_ORDER = "monotone-order"
INJECTIVE_1D = "injective-1d"

PRIMITIVE_MODE = "primitive"
ROW_POSITIVE_MODE = "row-positive"
# The modes `normalize_witness` interprets, as configs name them.
NORMALIZE_MODES = (PRIMITIVE_MODE, ROW_POSITIVE_MODE)


@dataclass(frozen=True)
class SplitWitness:
    word_a: Word
    word_b: Word
    box_a: IntervalBox
    box_b: IntervalBox
    certified_by: str
    signs: tuple[str, ...] | None = None


@dataclass(frozen=True)
class HorizonReport:
    """Outcome of a finite-horizon sweep.

    per_n[d] is "certified" when the chained enclosures were
    projection-disjoint at every checked prefix of length d, "violated" when
    some sampled cloud pair overlapped in a projection, and "not-falsified"
    otherwise.  `violation` holds the first offender as (n, coordinate,
    prefix): first in preorder (exhaustive) or in sample order (sampled).
    """

    n_max: int
    exhaustive: bool
    prefixes_checked: int
    per_n: tuple[str, ...]
    violation: tuple[int, int, Word] | None
    certified_to: int

    @property
    def verdict(self) -> str:
        if self.violation is not None:
            return "violated"
        if self.certified_to == self.n_max:
            return "certified"
        return "not-falsified"


@dataclass(frozen=True)
class NormalizedPair:
    """Equal-length inverse-admissible words with a common first symbol."""

    xi: Word
    eta: Word
    endpoint_matched: bool

    @property
    def block_length(self) -> int:
        return len(self.xi)


def _validate_pair(sys: MapSystem, word_a: Word, word_b: Word) -> tuple[Word, Word]:
    word_a = check_word(word_a, sys.k, allow_empty=False)
    word_b = check_word(word_b, sys.k, allow_empty=False)
    for name, w in (("word_a", word_a), ("word_b", word_b)):
        if not is_admissible(sys.shift, w):
            raise InadmissibleWord(f"{name} {w} has a zero-probability transition")
    if word_a[-1] != word_b[-1]:
        raise LastSymbolMismatch(
            f"witness words must share the last symbol, got {word_a[-1]} and {word_b[-1]}"
        )
    return word_a, word_b


def _split_routes(sys: MapSystem) -> tuple[tuple[tuple[str, ...], ...], bool]:
    """The system's common monotone classes and whether the injective 1-D
    route applies; NotMonotoneSystem when neither gives a route."""
    classes = monotone_classes(sys)
    injective_1d = sys.dim == 1 and all(injective(f) for f in sys.maps)
    if not classes and not injective_1d:
        raise NotMonotoneSystem(
            "system has no common monotone class and is not an injective 1-D system"
        )
    return classes, injective_1d


def _boxes_separated(
    box_a: IntervalBox, box_b: IntervalBox, signs: tuple[str, ...]
) -> bool:
    """Strict order separation of every projection, oriented by the class."""
    for s, sign in enumerate(signs):
        if sign == PLUS:
            if not box_a.hi[s] < box_b.lo[s]:
                return False
        else:
            if not box_a.lo[s] > box_b.hi[s]:
                return False
    return True


def _certify_boxes(
    word_a: Word,
    word_b: Word,
    box_a: IntervalBox,
    box_b: IntervalBox,
    routes: tuple[tuple[tuple[str, ...], ...], bool],
) -> SplitWitness | None:
    """The pair as a witness certified by the first of the `_split_routes`
    that separates its images box_a and box_b, or None."""
    classes, injective_1d = routes
    for signs in classes:
        if _boxes_separated(box_a, box_b, signs):
            return SplitWitness(word_a, word_b, box_a, box_b, MONOTONE_ORDER, signs)
    if injective_1d and (box_a.hi[0] < box_b.lo[0] or box_b.hi[0] < box_a.lo[0]):
        return SplitWitness(word_a, word_b, box_a, box_b, INJECTIVE_1D)
    return None


def certify_split(sys: MapSystem, word_a: Word, word_b: Word) -> SplitWitness | None:
    """Certify a word pair as a split witness, or return None.

    Monotone route: for some common sign class t, every coordinate satisfies
    sup pi_s(M1) < inf pi_s(M2) when t_s = '+' and the reverse inequality
    when t_s = '-'; monotonicity propagates the separation to all iterates.
    One-dimensional route: when all maps are injective, strict disjointness
    of the two image intervals in either orientation already suffices.
    """
    word_a, word_b = _validate_pair(sys, word_a, word_b)
    routes = _split_routes(sys)
    box_a = forward_box_chain(sys, word_a)[-1]
    box_b = forward_box_chain(sys, word_b)[-1]
    return _certify_boxes(word_a, word_b, box_a, box_b, routes)


_HALTON_BASES = (2, 3, 5, 7, 11, 13)


def ambient_cloud(sys: MapSystem, size: int) -> np.ndarray:
    """Deterministic point cloud in the ambient box: corners plus a
    low-discrepancy Halton fill, whose coordinate s is the van der Corput
    sequence in base _HALTON_BASES[s].  Corners guarantee that affine
    coordinate extremes are attained exactly."""
    corners = np.array(sys.ambient.corners(), dtype=float)
    n = np.arange(1, max(0, size - len(corners)) + 1)
    u = np.zeros((len(n), sys.dim))
    for s in range(sys.dim):
        base = _HALTON_BASES[s % len(_HALTON_BASES)]
        digits, denom = n, base
        while digits.any():
            digits, rem = np.divmod(digits, base)
            u[:, s] += rem / denom
            denom *= base
    lo, hi = corners[0], corners[-1]
    return np.vstack([corners, lo + u * (hi - lo)])


def verify_split_horizon(
    sys: MapSystem,
    word_a: Word,
    word_b: Word,
    n_max: int,
    *,
    prefix_samples: int | None = None,
    cloud_size: int = 64,
    seed: int = 0,
) -> HorizonReport:
    """Sweep compositions up to length n_max over symbol prefixes: all k^n_max
    of them (prefix_samples=None, budget 2^20) or that many sampled ones.

    One frontier walk serves both; a row holds both witness images'
    enclosures and clouds under one prefix.  Each row expands into its k
    children in lexicographic order, or the root spawns one row per sample
    (drawn a block at a time) and each advances by its own drawn symbol.
    `maps.advance_rows` maps children in blocks of at most `BLOCK_POINTS`
    cloud points, walked depth first, so memory does not grow with k^n_max
    or prefix_samples.  The walk always completes, so the certification
    table is exact for the checked prefixes.  The violation is the first
    offender in row order (of leaves or of samples) at its shallowest
    violating depth; for the exhaustive walk that is preorder: (1, 2, 2) at
    depth 3 precedes (2, 2) at depth 2.
    """
    word_a, word_b = _validate_pair(sys, word_a, word_b)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    k = sys.k
    if prefix_samples is None and k**n_max > HORIZON_BUDGET:
        raise BudgetExceeded(f"{k}^{n_max} prefixes exceed the horizon budget {HORIZON_BUDGET}")
    if prefix_samples is not None and prefix_samples < 0:
        raise ValueError("prefix_samples must be >= 0")
    boxes = [forward_box_chain(sys, w)[-1] for w in (word_a, word_b)]
    cloud = ambient_cloud(sys, cloud_size)
    rows_per_block = max(1, BLOCK_POINTS // (2 * len(cloud)))
    # A block: (depth, each row's first leaf in row order, that leaf's word, whose first `depth`
    # symbols are the row's prefix, both images' boxes (rows, 2, m) and clouds (rows, 2, C, m)).
    clouds = np.stack([orbit(map_points, sys.maps, w, cloud)[-1] for w in (word_a, word_b)])
    lo = np.array([[b.lo for b in boxes]], dtype=float)
    hi = np.array([[b.hi for b in boxes]], dtype=float)
    root = (0, np.zeros(1, dtype=np.int64), np.ones((1, n_max), dtype=np.int64), lo, hi, clouds[None])

    def children(depth, leaf, words, *arrays):  # yields (last, block); the walk drops it after the last
        def block(parent, leaf, words):
            return depth + 1, leaf, words, *advance_rows(sys, words[:, depth], [a[parent] for a in arrays])

        if prefix_samples is None:
            parent = np.repeat(np.arange(len(leaf)), k)
            j = np.tile(np.arange(k), len(leaf))
            leaf, words = leaf[parent] + j * k ** (n_max - depth - 1), words[parent]
            words[:, depth] = j + 1
            for r in range(0, len(leaf), rows_per_block):
                rows = slice(r, r + rows_per_block)
                yield r + rows_per_block >= len(leaf), block(parent[rows], leaf[rows], words[rows])
        elif depth:
            yield True, block(np.arange(len(leaf)), leaf, words)
        else:  # the root spawns the samples, drawn block by block: the same stream as one draw
            rng = np.random.default_rng(seed)
            for r in range(0, prefix_samples, rows_per_block):
                drawn = rng.integers(1, k + 1, size=(min(rows_per_block, prefix_samples - r), n_max))
                last = r + rows_per_block >= prefix_samples
                yield last, block(np.zeros(len(drawn), dtype=int), np.arange(r, r + len(drawn)), drawn)

    cert = [True] * (n_max + 1)
    first = None  # ((first leaf, depth), violation) of the first offender so far
    stack = [iter([(True, root)])]
    while stack:
        last, (depth, leaf, words, lo, hi, clouds) = next(stack[-1])
        if last:
            stack.pop()
        if ((hi[:, 0] >= lo[:, 1]) & (hi[:, 1] >= lo[:, 0])).any():
            cert[depth] = False
        c_lo, c_hi = clouds.min(axis=2), clouds.max(axis=2)
        overlap = (c_hi[:, 0] >= c_lo[:, 1]) & (c_hi[:, 1] >= c_lo[:, 0])
        r = int(overlap.any(axis=1).argmax())
        if overlap[r].any() and (first is None or (leaf[r], depth) < first[0]):
            first = (leaf[r], depth), (depth, int(overlap[r].argmax()) + 1, tuple(words[r, :depth].tolist()))
        if depth < n_max and prefix_samples != 0:
            stack.append(children(depth, leaf, words, lo, hi, clouds))

    violation = None if first is None else first[1]
    return HorizonReport(
        n_max=n_max,
        exhaustive=prefix_samples is None,
        prefixes_checked=k**n_max if prefix_samples is None else prefix_samples,
        per_n=tuple(
            "violated" if violation is not None and violation[0] == d
            else "certified" if ok else "not-falsified"
            for d, ok in enumerate(cert)
        ),
        violation=violation,
        certified_to=cert.index(False) - 1 if False in cert else n_max,
    )


def search_witness(sys: MapSystem, max_len: int) -> SplitWitness | None:
    """First certified witness in (total length, lexicographic) order.

    Enumerates ordered pairs of admissible words up to max_len symbols each,
    grouped by total length; within a total, word_a length ascends and both
    words run lexicographically.  Returns None when the enumeration is
    exhausted without a certificate.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    routes = _split_routes(sys)
    P = sys.shift.P
    by_len: dict[int, list[tuple[Word, IntervalBox]]] = {
        1: [((j,), box_image(sys.maps[j - 1], sys.ambient)) for j in range(1, sys.k + 1)]
    }
    total_words = sys.k
    for length in range(2, max_len + 1):
        rows = []
        for word, box in by_len[length - 1]:
            for j in range(1, sys.k + 1):
                if P[word[-1] - 1, j - 1] > 0.0:
                    rows.append((word + (j,), box_image(sys.maps[j - 1], box)))
        by_len[length] = rows
        total_words += len(rows)
        if total_words * total_words > SEARCH_BUDGET:
            raise BudgetExceeded(
                f"candidate pair count exceeds the search budget {SEARCH_BUDGET}"
            )
    for total in range(2, 2 * max_len + 1):
        for la in range(max(1, total - max_len), min(max_len, total - 1) + 1):
            lb = total - la
            for word_a, box_a in by_len[la]:
                for word_b, box_b in by_len[lb]:
                    if word_a[-1] != word_b[-1] or word_a == word_b:
                        continue
                    witness = _certify_boxes(word_a, word_b, box_a, box_b, routes)
                    if witness is not None:
                        return witness
    return None


def _boolean_powers(P: np.ndarray, cap: int) -> list[np.ndarray]:
    A = P > 0.0
    powers = [np.eye(A.shape[0], dtype=bool), A]
    for _ in range(cap - 1):
        powers.append(powers[-1] @ A)
    return powers


def _lex_min_path(powers: list[np.ndarray], source: int, target: int, edges: int) -> list[int]:
    """Lexicographically smallest admissible path with exactly `edges` edges,
    which the caller has checked exists (`powers[edges]`)."""
    path = [source]
    for step in range(edges):
        remaining = edges - step - 1
        path.append(next(v for v in range(1, powers[1].shape[0] + 1)
                         if powers[1][path[-1] - 1, v - 1] and powers[remaining][v - 1, target - 1]))
    return path


def normalize_witness(
    sys: MapSystem,
    witness: SplitWitness,
    mode: str = PRIMITIVE_MODE,
    *,
    strict_endpoints: bool = False,
) -> NormalizedPair:
    """Equal-length inverse-admissible pair built from a witness.

    Both output words start with the witness' common last symbol (so the
    enumerated cylinders stay inside the witness images), and their cylinder
    sets carry positive inverse measure.

    mode "primitive": reverse the witness words and, when their lengths
    differ or matching endpoints are forced, append a reversed admissible
    connector running from a free terminal state u to the first witness
    symbol; primitivity guarantees connectors of every sufficient length, so
    the search over the target length is capped at max(l, r) + k^2.

    mode "row-positive": prepend a common head [u c_1 .. c_j] whose first
    symbol u has a strictly positive transition row, connected to the shared
    last witness symbol; requires such a state to exist.

    With strict_endpoints=True the equal-length shortcut of the primitive
    mode is skipped, so the two words also end in the same symbol (the form
    needed by measure comparisons at interior block junctions).
    """
    shift = sys.shift
    word_a, word_b = _validate_pair(sys, witness.word_a, witness.word_b)
    ra, rb = tuple(reversed(word_a)), tuple(reversed(word_b))
    la, lb = len(ra), len(rb)
    cap = shift.k * shift.k

    if mode == PRIMITIVE_MODE:
        if shift.classification != PRIMITIVE:
            raise NotPrimitive("primitive-mode normalization requires a primitive shift")
        if la == lb and not strict_endpoints:
            return NormalizedPair(xi=ra, eta=rb, endpoint_matched=ra[-1] == rb[-1])
        ends = range(1, shift.k + 1)
    elif mode == ROW_POSITIVE_MODE:
        ends = (row_positive_state(shift),)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    head = mode == ROW_POSITIVE_MODE
    # Connectors have at most cap + |la - lb| edges, all within `powers`.  Both
    # modes need a primitive chain (a row-positive state has a self-loop), so
    # by Wielandt's bound both connectors exist once each has cap edges.
    powers = _boolean_powers(shift.P, cap + abs(la - lb) + 1)
    for n_total in range(max(la, lb) + 1, max(la, lb) + cap + 1):
        edges = (n_total - la, n_total - lb)
        for u in ends:
            # A head runs from the shared last witness symbol to u, a tail
            # from u to the witness' first symbol.
            links = [(w[-1], u) if head else (u, w[0]) for w in (word_a, word_b)]
            if all(powers[e][a - 1, b - 1] for e, (a, b) in zip(edges, links)):
                paths = [tuple(reversed(_lex_min_path(powers, a, b, e))) for e, (a, b) in zip(edges, links)]
                xi, eta = (p + r[1:] if head else r[:-1] + p for p, r in zip(paths, (ra, rb)))
                return NormalizedPair(xi=xi, eta=eta, endpoint_matched=xi[-1] == eta[-1])
