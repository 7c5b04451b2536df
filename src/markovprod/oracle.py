"""Exact cylinder measures for the inverse Markov measure.

Ground truth for the probabilistic experiments:

- membership_measure: total inverse measure of the words w of length n whose
  chained image enclosure of f_{w_0} o ... o f_{w_{n-1}} (ambient) contains a
  given value x in projection s, by a pruned walk over word prefixes that
  serves a whole grid of x values and several word lengths at once, each
  enclosure chained from the cached enclosure of its suffix
- avoidance_measure: total inverse measure of the words of length ell*N with
  no N-block equal to a given word, by a transfer-matrix recursion over N-blocks
- substitute_blocks: blockwise word substitution
- verify_bounds: for a normalized witness pair, the membership-vs-avoidance
  inequality on a grid of x values, injectivity and per-word measure growth
  of the block substitution on the enumerated membership set, and the
  geometric decay bound of the avoidance measure

Every routine runs either on floats or, with exact=True, on Fractions built
from the same float inputs (Fraction(v) is the exact value of the float v),
flowing through identical code paths so the two modes differ only in
rounding.  One-dimensional enclosures are exact images in rational mode; for
m >= 2 the chained enclosure is an upper bound and rows are flagged accordingly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import astuple, dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded, HypothesisViolated, LengthMismatch
from .maps import IntervalBox, Map, MapSystem, box_image, orbit
from .shift import MarkovShiftSpec, Word, _path_product, check_word
from .splitting import NormalizedPair

ENUMERATION_BUDGET = 1 << 24
DEFAULT_GRID = 33
# Chained enclosures one membership walk keeps, least recently used evicted
# first: the cap, not the size of the word tree, bounds the walk's memory.
ENCLOSURE_CACHE = 1 << 12


@dataclass(frozen=True)
class BoundCheck:
    """One verified row: a single (ell, x) combination."""

    ell: int
    x: float | Fraction
    s: int
    lhs: float | Fraction
    rhs: float | Fraction
    bound_holds: bool
    injective: bool
    measure_monotone: bool
    geometric_bound: float | Fraction
    geometric_holds: bool
    membership_words: int
    avoidance_words: int
    enumerated: int
    exact_enclosures: bool

    @property
    def holds(self) -> bool:
        return (
            self.bound_holds
            and self.injective
            and self.measure_monotone
            and self.geometric_holds
        )


@dataclass(frozen=True)
class OracleReport:
    word: Word
    replacement: Word
    block_length: int
    s: int
    swapped: bool
    word_measure: float | Fraction
    replacement_measure: float | Fraction
    decay_floor: float | Fraction
    exact: bool
    rows: tuple[BoundCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(row.holds for row in self.rows)


@dataclass(frozen=True)
class _Tables:
    """Scalar twins of the shift data: stationary vector and inverse matrix."""

    p: tuple
    q: tuple[tuple, ...]
    one: object


def _tables(shift: MarkovShiftSpec, exact: bool) -> _Tables:
    conv = Fraction if exact else float
    q = tuple(tuple(conv(v) for v in row) for row in shift.Q)
    return _Tables(p=tuple(conv(v) for v in shift.p), q=q, one=conv(1))


def _exact(obj):
    """The map or box `obj` rebuilt from `astuple` with Fraction(v) for every leaf v."""

    def leaves(v):
        return tuple(map(leaves, v)) if isinstance(v, tuple) else Fraction(v)

    return type(obj)(*leaves(astuple(obj)))


def _scalar_geometry(sys: MapSystem, exact: bool) -> tuple[tuple[Map, ...], IntervalBox]:
    if exact:
        return tuple(map(_exact, sys.maps)), _exact(sys.ambient)
    return sys.maps, sys.ambient


def inverse_word_measure(tables: _Tables, word: Word):
    """Inverse cylinder measure from precomputed scalar tables."""
    if not word:
        return tables.one
    return _path_product(tables.q, word, tables.p[word[0] - 1])


def _check_budget(k: int, n: int) -> None:
    if k**n > ENUMERATION_BUDGET:
        raise BudgetExceeded(
            f"{k}^{n} words exceed the enumeration budget {ENUMERATION_BUDGET}"
        )


def _check_inside(xs, ambient: IntervalBox, s: int) -> None:
    lo, hi = ambient.project(s)
    for x in xs:
        if not lo <= x <= hi:
            raise ValueError(f"x = {x!r} outside the ambient projection [{lo!r}, {hi!r}]")


def _walk_membership(
    maps: tuple[Map, ...],
    ambient: IntervalBox,
    tables: _Tables,
    xs,
    s: int,
    depths,
    collect: bool,
) -> list[list[tuple]]:
    """One pruned walk over word prefixes for every x in xs and every word
    length n in `depths`.

    A node (a word w) carries the run of the ascending grid points that lie
    in the projection of the chained enclosure of each prefix of w, and is
    pruned when the run is empty: the enclosure of a prefix contains that of
    every extension (maps send the ambient box into itself and box images
    are inclusion-monotone).  Zero-measure transitions prune likewise.  The
    enclosure of w is box_image(f_{w_0}, enclosure of w[1:]), the images
    `orbit(box_image, maps, reversed(w), ambient)` chains, kept for the
    ENCLOSURE_CACHE most recently used words: eviction costs time, never
    bits.  Words of one length are reached in lexicographic order, so each
    x sums its measures in the order of a walk for that x alone.

    Returns, per n in `depths` and per x in xs, (measure, count, words) of
    the length-n words whose enclosures meet x; words is None unless
    `collect`.
    """
    k = len(maps)
    si = s - 1
    points = sorted(set(xs))
    stops = {n: i for i, n in enumerate(depths)}
    n_max = max(stops)
    totals = [[tables.one * 0] * len(points) for _ in stops]
    counts = [[0] * len(points) for _ in stops]
    words = [[[] for _ in points] for _ in stops]

    @lru_cache(maxsize=ENCLOSURE_CACHE)
    def enclosure(word: Word) -> IntervalBox:
        return box_image(maps[word[0] - 1], enclosure(word[1:])) if word else ambient

    # (word, measure of its prefix, last step, run of points in the prefix's enclosures)
    stack = [((), tables.one, None, 0, len(points))]
    try:
        while stack:
            word, measure, step, first, stop = stack.pop()
            if word:
                box = enclosure(word)
                lo, hi = box.lo[si], box.hi[si]
                if not lo <= hi:  # a NaN end, which no x lies within
                    continue
                first = bisect_left(points, lo, first, stop)
                stop = bisect_right(points, hi, first, stop)
                if first == stop:
                    continue
                measure = measure * step
            d = stops.get(len(word))
            if d is not None:
                for i in range(first, stop):
                    totals[d][i] = totals[d][i] + measure
                    counts[d][i] += 1
                    if collect:
                        words[d][i].append(word)
            if len(word) < n_max:
                last = word[-1] if word else 0
                for a in range(k, 0, -1):  # popped in increasing order
                    step = tables.q[last - 1][a - 1] if last else tables.p[a - 1]
                    if step != 0:
                        stack.append((word + (a,), measure, step, first, stop))
    finally:
        enclosure.cache_clear()
    slot = {x: i for i, x in enumerate(points)}
    return [
        [(totals[d][slot[x]], counts[d][slot[x]], words[d][slot[x]] if collect else None) for x in xs]
        for d in stops.values()
    ]


def membership_measure(sys: MapSystem, x, s: int, n: int, *, exact: bool = False):
    """Inverse measure of the length-n words whose image enclosure meets x.

    Membership is tested on the closed projection interval of the chained
    enclosure of f_{w_0} o ... o f_{w_{n-1}} (ambient); n = 0 gives 1.  Exact
    for one-dimensional systems, an upper bound for m >= 2.  The same
    pruned walk as verify_bounds, run for the one point x.
    """
    if not 1 <= s <= sys.dim:
        raise ValueError(f"coordinate {s} outside 1..{sys.dim}")
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_budget(sys.k, n)
    maps, ambient = _scalar_geometry(sys, exact)
    tables = _tables(sys.shift, exact)
    if exact:
        x = Fraction(x)
    _check_inside([x], ambient, s)
    [[(total, _, _)]] = _walk_membership(maps, ambient, tables, [x], s, [n], collect=False)
    return total


def avoidance_measure(
    shift: MarkovShiftSpec, word: Word, ell: int, *, exact: bool = False
):
    """Inverse measure of the length-(ell*N) words with no N-block equal
    to `word` at offsets 0, N, ..., (ell-1)N.  ell = 0 gives 1."""
    word = check_word(word, shift.k, allow_empty=False)
    if ell < 0:
        raise ValueError("ell must be >= 0")
    tables = _tables(shift, exact)
    return _avoidance(tables.p, tables.q, word, ell, tables.one)[ell]


def _times(v, m) -> tuple:
    """Row vector v times matrix m."""
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0])))


def _avoidance(p, q, word: Word, ell_max: int, one) -> list:
    """Avoidance measures for ell = 0..ell_max by a transfer matrix over
    N-blocks: entry j of v B^(ell-1) is the measure of the avoiding words of
    length ell*N that end in symbol j.  B[i] is row i of Q^N less the step
    from i into the block W at column W_{N-1}; v is p Q^(N-1) less the
    cylinder of W at the same column.  Run on the 0/1 indicators of p and Q
    with one = 1, it counts the avoiding words whose every step is positive."""
    interior = _path_product(q, word, one)
    first, last = word[0] - 1, word[-1] - 1
    heads = (p, *q)
    ends = heads
    for _ in word[1:]:
        ends = [_times(row, q) for row in ends]
    v, *b = [
        [r - head[first] * interior if j == last else r for j, r in enumerate(row)]
        for head, row in zip(heads, ends)
    ]
    out = [one]
    for _ in range(ell_max):
        out.append(sum(v))
        v = _times(v, b)
    return out


def substitute_blocks(word: Word, block: Word, replacement: Word) -> Word:
    """Replace every N-block of `word` equal to `block` by `replacement`."""
    n_block = len(block)
    if n_block == 0:
        raise LengthMismatch("block must be nonempty")
    if len(replacement) != n_block:
        raise LengthMismatch(
            f"replacement length {len(replacement)} != block length {n_block}"
        )
    if len(word) % n_block:
        raise LengthMismatch(
            f"word length {len(word)} is not a multiple of the block length {n_block}"
        )
    out: list[int] = []
    for i in range(0, len(word), n_block):
        piece = word[i : i + n_block]
        out.extend(replacement if piece == block else piece)
    return tuple(out)


def _reverse_boxes_disjoint(maps, ambient, word_a: Word, word_b: Word) -> bool:
    ba, bb = (orbit(box_image, maps, reversed(w), ambient)[-1] for w in (word_a, word_b))
    for s in range(ambient.dim):
        if ba.hi[s] >= bb.lo[s] and bb.hi[s] >= ba.lo[s]:
            return False
    return True


def default_grid(sys: MapSystem, s: int, points: int = DEFAULT_GRID) -> tuple[float, ...]:
    lo, hi = sys.ambient.project(s)
    return tuple(float(v) for v in np.linspace(float(lo), float(hi), points))


def verify_bounds(
    sys: MapSystem,
    pair: NormalizedPair | tuple[Word, Word],
    *,
    s: int = 1,
    x_grid=None,
    ell_max: int = 6,
    exact: bool = False,
) -> OracleReport:
    """Full oracle sweep for a normalized witness pair.

    For each ell <= ell_max: takes the avoidance measure of the lower-measure
    word W from one transfer-matrix recursion over N-blocks, and for each
    grid x the membership measure (which the avoidance measure must
    dominate), the injectivity of the block substitution W -> W' on the
    enumerated membership words, and the per-word measure growth under that
    substitution.  One pruned walk over word prefixes of length up to
    ell_max*N enumerates the membership words of every ell and grid x.
    Also records the geometric decay bound (1 - rho0)^ell where rho0 is the
    minimum of the measure of W and
    inf_j q_{jW_0} q_{W_0 W_1} ... q_{W_{N-2} W_{N-1}}.

    The word roles are swapped if needed so that W is the one of lower
    inverse measure.  Raises HypothesisViolated when either word has zero
    inverse measure, their first symbols differ, or their image boxes fail
    the projection disjointness the substitution argument rests on,
    BudgetExceeded, before enumerating anything, when the words of length
    ell_max*N exceed the enumeration budget, and ValueError, likewise
    before enumerating, for a grid x outside the ambient projection (as
    membership_measure does).
    """
    if isinstance(pair, NormalizedPair):
        xi, eta = pair.xi, pair.eta
    else:
        xi, eta = pair
    xi = check_word(xi, sys.k, allow_empty=False)
    eta = check_word(eta, sys.k, allow_empty=False)
    if len(xi) != len(eta):
        raise LengthMismatch(f"pair lengths differ: {len(xi)} != {len(eta)}")
    if xi[0] != eta[0]:
        raise HypothesisViolated(
            f"pair must share the first symbol, got {xi[0]} and {eta[0]}"
        )
    if xi == eta:
        raise HypothesisViolated("pair words must differ")
    if not 1 <= s <= sys.dim:
        raise ValueError(f"coordinate {s} outside 1..{sys.dim}")
    if ell_max < 1:
        raise ValueError("ell_max must be >= 1")

    maps, ambient = _scalar_geometry(sys, exact)
    tables = _tables(sys.shift, exact)
    one = tables.one

    mu_xi = inverse_word_measure(tables, xi)
    mu_eta = inverse_word_measure(tables, eta)
    if mu_xi == 0 or mu_eta == 0:
        raise HypothesisViolated("both pair words need positive inverse measure")
    if not _reverse_boxes_disjoint(maps, ambient, xi, eta):
        raise HypothesisViolated(
            "image boxes of the pair overlap in some projection"
        )

    swapped = mu_xi > mu_eta
    if swapped:
        word, replacement = eta, xi
        mu_w, mu_r = mu_eta, mu_xi
    else:
        word, replacement = xi, eta
        mu_w, mu_r = mu_xi, mu_eta
    n_block = len(word)

    rho = min(tables.q[j][word[0] - 1] for j in range(sys.k)) * _path_product(tables.q, word, one)
    rho0 = min(rho, mu_w)

    if x_grid is None:
        x_grid = default_grid(sys, s)
    xs = [Fraction(x) if exact else float(x) for x in x_grid]
    exact_enclosures = sys.dim == 1

    _check_budget(sys.k, ell_max * n_block)
    _check_inside(xs, ambient, s)
    avoid = _avoidance(tables.p, tables.q, word, ell_max, one)
    positive = [int(v != 0) for v in tables.p], [[int(v != 0) for v in r] for r in tables.q]
    avoid_counts = _avoidance(*positive, word, ell_max, 1)
    ells = range(1, ell_max + 1)
    membership = _walk_membership(
        maps, ambient, tables, xs, s, [ell * n_block for ell in ells], collect=True
    )
    # The walk lists a member word under every x its enclosure holds, so
    # each word's measure is computed once for the whole grid.
    word_measures: dict[Word, object] = {}

    def measure_of(w: Word):
        if w not in word_measures:
            word_measures[w] = inverse_word_measure(tables, w)
        return word_measures[w]

    rows: list[BoundCheck] = []
    for ell, rhs, avoid_count, per_x in zip(ells, avoid[1:], avoid_counts[1:], membership):
        geometric_bound = (one - rho0) ** ell
        geometric_holds = rhs <= geometric_bound
        for x, (lhs, member_count, members) in zip(xs, per_x):
            images = [substitute_blocks(w, word, replacement) for w in members]
            injective = len(set(images)) == len(images)
            monotone = all(measure_of(w) <= measure_of(fw) for w, fw in zip(members, images))
            rows.append(
                BoundCheck(
                    ell=ell,
                    x=x,
                    s=s,
                    lhs=lhs,
                    rhs=rhs,
                    bound_holds=lhs <= rhs,
                    injective=injective,
                    measure_monotone=monotone,
                    geometric_bound=geometric_bound,
                    geometric_holds=geometric_holds,
                    membership_words=member_count,
                    avoidance_words=avoid_count,
                    enumerated=sys.k ** (ell * n_block),
                    exact_enclosures=exact_enclosures,
                )
            )
    return OracleReport(
        word=word,
        replacement=replacement,
        block_length=n_block,
        s=s,
        swapped=swapped,
        word_measure=mu_w,
        replacement_measure=mu_r,
        decay_floor=rho0,
        exact=exact,
        rows=tuple(rows),
    )
