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
  falsifies, since the true image projections contain the cloud extremes)
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
    NoConnector,
    NoRowPositiveState,
    NotMonotoneSystem,
    NotPrimitive,
)
from .maps import (
    MINUS,
    PLUS,
    IntervalBox,
    MapSystem,
    MonotoneType,
    box_image,
    forward_box_chain,
    injective,
    map_points,
    monotone_classes,
    orbit,
)
from .shift import PRIMITIVE, Word, check_word, is_admissible

SEARCH_BUDGET = 1 << 22
HORIZON_BUDGET = 1 << 20

MONOTONE_ORDER = "monotone-order"
INJECTIVE_1D = "injective-1d"

PRIMITIVE_MODE = "primitive"
ROW_POSITIVE_MODE = "row-positive"


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
    otherwise.  `violation` holds the first offender in prefix-lexicographic
    (preorder) position as (n, coordinate, prefix).
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


def _injective_route(sys: MapSystem) -> bool:
    return sys.dim == 1 and all(injective(f) for f in sys.maps)


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
    sys: MapSystem,
    box_a: IntervalBox,
    box_b: IntervalBox,
    classes: tuple[MonotoneType, ...],
    injective_1d: bool,
) -> tuple[str, tuple[str, ...] | None] | None:
    for cls in classes:
        if _boxes_separated(box_a, box_b, cls.signs):
            return MONOTONE_ORDER, cls.signs
    if injective_1d and (box_a.hi[0] < box_b.lo[0] or box_b.hi[0] < box_a.lo[0]):
        return INJECTIVE_1D, None
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
    classes = monotone_classes(sys)
    injective_1d = _injective_route(sys)
    if not classes and not injective_1d:
        raise NotMonotoneSystem(
            "system has no common monotone class and is not an injective 1-D system"
        )
    box_a = forward_box_chain(sys, word_a)[-1]
    box_b = forward_box_chain(sys, word_b)[-1]
    got = _certify_boxes(sys, box_a, box_b, classes, injective_1d)
    if got is None:
        return None
    certified_by, signs = got
    return SplitWitness(
        word_a=word_a,
        word_b=word_b,
        box_a=box_a,
        box_b=box_b,
        certified_by=certified_by,
        signs=signs,
    )


def _van_der_corput(count: int, base: int) -> np.ndarray:
    out = np.zeros(count)
    for i in range(count):
        n, denom, x = i + 1, base, 0.0
        while n:
            n, rem = divmod(n, base)
            x += rem / denom
            denom *= base
        out[i] = x
    return out


_HALTON_BASES = (2, 3, 5, 7, 11, 13)


def ambient_cloud(sys: MapSystem, size: int) -> np.ndarray:
    """Deterministic point cloud in the ambient box: corners plus a
    low-discrepancy Halton fill.  Corners guarantee that affine coordinate
    extremes are attained exactly."""
    corners = np.array(sys.ambient.corners(), dtype=float)
    fill = max(0, size - corners.shape[0])
    if fill:
        lo = np.asarray(sys.ambient.lo, dtype=float)
        hi = np.asarray(sys.ambient.hi, dtype=float)
        u = np.stack(
            [_van_der_corput(fill, _HALTON_BASES[s % len(_HALTON_BASES)]) for s in range(sys.dim)],
            axis=1,
        )
        corners = np.vstack([corners, lo + u * (hi - lo)])
    return corners


def _intervals_overlap(lo1, hi1, lo2, hi2) -> bool:
    return hi1 >= lo2 and hi2 >= lo1


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
    """Sweep compositions up to length n_max over symbol prefixes.

    With prefix_samples=None every one of the k^n_max prefixes is walked as a
    shared tree (budget 2^20 nodes); otherwise that many uniformly sampled
    prefixes are walked independently.  The full traversal always completes,
    so the certification table is exact for the checked prefixes even when a
    violation is found early.
    """
    word_a, word_b = _validate_pair(sys, word_a, word_b)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    box_a = forward_box_chain(sys, word_a)[-1]
    box_b = forward_box_chain(sys, word_b)[-1]
    cloud = ambient_cloud(sys, cloud_size)
    cloud_a = orbit(map_points, sys.maps, word_a, cloud)[-1]
    cloud_b = orbit(map_points, sys.maps, word_b, cloud)[-1]

    cert = [True] * (n_max + 1)
    state = {"violation": None, "nodes": 0}

    def visit(depth: int, ba, bb, ca, cb, prefix: Word) -> None:
        state["nodes"] += 1
        for s in range(sys.dim):
            if _intervals_overlap(ba.lo[s], ba.hi[s], bb.lo[s], bb.hi[s]):
                cert[depth] = False
                break
        if state["violation"] is None:
            a_lo, a_hi = ca.min(axis=0), ca.max(axis=0)
            b_lo, b_hi = cb.min(axis=0), cb.max(axis=0)
            for s in range(sys.dim):
                if _intervals_overlap(a_lo[s], a_hi[s], b_lo[s], b_hi[s]):
                    state["violation"] = (depth, s + 1, prefix)
                    break

    if prefix_samples is None:
        if sys.k**n_max > HORIZON_BUDGET:
            raise BudgetExceeded(
                f"{sys.k}^{n_max} prefixes exceed the horizon budget {HORIZON_BUDGET}"
            )

        def walk(depth: int, ba, bb, ca, cb, prefix: Word) -> None:
            visit(depth, ba, bb, ca, cb, prefix)
            if depth == n_max:
                return
            for j in range(1, sys.k + 1):
                f = sys.maps[j - 1]
                walk(
                    depth + 1,
                    box_image(f, ba),
                    box_image(f, bb),
                    map_points(f, ca),
                    map_points(f, cb),
                    prefix + (j,),
                )

        walk(0, box_a, box_b, cloud_a, cloud_b, ())
        exhaustive = True
        prefixes = sys.k**n_max
    else:
        rng = np.random.default_rng(seed)
        sampled = rng.integers(1, sys.k + 1, size=(prefix_samples, n_max)) if n_max else np.zeros((prefix_samples, 0), dtype=int)
        visit(0, box_a, box_b, cloud_a, cloud_b, ())
        for row in sampled:
            word = tuple(int(v) for v in row)
            boxes_a = orbit(box_image, sys.maps, word, box_a)
            boxes_b = orbit(box_image, sys.maps, word, box_b)
            clouds_a = orbit(map_points, sys.maps, word, cloud_a)
            clouds_b = orbit(map_points, sys.maps, word, cloud_b)
            for depth in range(1, n_max + 1):
                visit(depth, boxes_a[depth], boxes_b[depth], clouds_a[depth], clouds_b[depth], word[:depth])
        exhaustive = False
        prefixes = prefix_samples

    certified_to = -1
    for d in range(n_max + 1):
        if not cert[d]:
            break
        certified_to = d
    per_n = []
    violation = state["violation"]
    for d in range(n_max + 1):
        if violation is not None and violation[0] == d:
            per_n.append("violated")
        elif cert[d]:
            per_n.append("certified")
        else:
            per_n.append("not-falsified")
    return HorizonReport(
        n_max=n_max,
        exhaustive=exhaustive,
        prefixes_checked=prefixes,
        per_n=tuple(per_n),
        violation=violation,
        certified_to=certified_to,
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
    classes = monotone_classes(sys)
    injective_1d = _injective_route(sys)
    if not classes and not injective_1d:
        raise NotMonotoneSystem(
            "system has no common monotone class and is not an injective 1-D system"
        )
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
                    got = _certify_boxes(sys, box_a, box_b, classes, injective_1d)
                    if got is not None:
                        certified_by, signs = got
                        return SplitWitness(
                            word_a=word_a,
                            word_b=word_b,
                            box_a=box_a,
                            box_b=box_b,
                            certified_by=certified_by,
                            signs=signs,
                        )
    return None


def _boolean_powers(P: np.ndarray, cap: int) -> list[np.ndarray]:
    A = P > 0.0
    powers = [np.eye(A.shape[0], dtype=bool), A]
    for _ in range(cap - 1):
        powers.append(powers[-1] @ A)
    return powers


def _lex_min_path(powers: list[np.ndarray], source: int, target: int, edges: int) -> list[int]:
    """Lexicographically smallest admissible path with exactly `edges` edges."""
    path = [source]
    cur = source
    for step in range(edges):
        remaining = edges - step - 1
        for v in range(1, powers[1].shape[0] + 1):
            if powers[1][cur - 1, v - 1] and powers[remaining][v - 1, target - 1]:
                path.append(v)
                cur = v
                break
        else:
            raise NoConnector(f"no admissible path {source}->{target} with {edges} edges")
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
    k = shift.k
    cap = k * k

    if mode == PRIMITIVE_MODE:
        if shift.classification != PRIMITIVE:
            raise NotPrimitive("primitive-mode normalization requires a primitive shift")
        if la == lb and not strict_endpoints:
            return NormalizedPair(xi=ra, eta=rb, endpoint_matched=ra[-1] == rb[-1])
        powers = _boolean_powers(shift.P, cap + abs(la - lb) + 1)
        for n_total in range(max(la, lb) + 1, max(la, lb) + cap + 1):
            ea, eb = n_total - la, n_total - lb
            if max(ea, eb) >= len(powers):
                break
            for u in range(1, k + 1):
                if powers[ea][u - 1, word_a[0] - 1] and powers[eb][u - 1, word_b[0] - 1]:
                    path_a = _lex_min_path(powers, u, word_a[0], ea)
                    path_b = _lex_min_path(powers, u, word_b[0], eb)
                    xi = ra + tuple(reversed(path_a[:-1]))
                    eta = rb + tuple(reversed(path_b[:-1]))
                    return NormalizedPair(xi=xi, eta=eta, endpoint_matched=True)
        raise NoConnector(f"no connector pair found within cap {cap}")

    if mode == ROW_POSITIVE_MODE:
        row_positive = [u for u in range(1, k + 1) if np.all(shift.P[u - 1] > 0.0)]
        if not row_positive:
            raise NoRowPositiveState("no state has a strictly positive transition row")
        u = row_positive[0]
        powers = _boolean_powers(shift.P, cap + abs(la - lb) + 1)
        shared_last = word_a[-1]
        for n_total in range(max(la, lb) + 1, max(la, lb) + cap + 1):
            ea, eb = n_total - la, n_total - lb
            if max(ea, eb) >= len(powers):
                break
            if powers[ea][shared_last - 1, u - 1] and powers[eb][shared_last - 1, u - 1]:
                path_a = _lex_min_path(powers, shared_last, u, ea)
                path_b = _lex_min_path(powers, shared_last, u, eb)
                xi = (u,) + tuple(reversed(path_a[1:-1])) + ra
                eta = (u,) + tuple(reversed(path_b[1:-1])) + rb
                return NormalizedPair(xi=xi, eta=eta, endpoint_matched=ra[-1] == rb[-1])
        raise NoConnector(f"no head connector found within cap {cap}")

    raise ValueError(f"unknown mode {mode!r}")
