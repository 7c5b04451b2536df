"""Interval boxes and finite systems of box self-maps.

Provides:
- IntervalBox: compact axis-aligned boxes with per-coordinate interval
  images under the supported map kinds: exact for Fraction data; for
  floats the endpoints are rounded to nearest, not outward
- AffineMap x -> A x + b and MoebiusMap x -> (a x + b) / (c x + d) (1-D)
- point evaluation, and `orbit`, the one loop applying a word's maps in
  turn: forward orbits f_{w_n} o ... o f_{w_1} pass the word, coding-order
  compositions f_{w_1} o ... o f_{w_n} its reverse; batched by gathering
  each map's coefficients by symbol, one symbol column at a time
- monotone sign classification of a system: the common pattern
  t in {+,-}^m such that coordinate function j of every map follows t
  when t_j = t_1 and the flipped pattern otherwise, with zero partial
  dependence acting as a wildcard

Every image comes from one of two kernels, `_point_image` and `_box_image`,
in plain Python arithmetic.  A coordinate value is a float, a
fractions.Fraction, or (batch helpers) a float array holding that coordinate
for many rows, and then a coefficient may be one per row too; each row gets
the bits of the scalar evaluation: every step is the same IEEE operation.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import (
    DenominatorVanishes,
    InadmissibleWord,
    NotSelfMapping,
    OutsideDomain,
)
from .shift import MarkovShiftSpec, Word, check_word

PLUS = "+"
MINUS = "-"
ZERO = "0"

_FLIP = {PLUS: MINUS, MINUS: PLUS}

# Rows in one block of a batched composition, and cloud points in one of the
# horizon walk (both witness images) or of the sync trials: caps their memory.
# 2^13 float64 rows are 64 KiB, under glibc's default 128 KiB M_MMAP_THRESHOLD,
# so a block's temporaries come from the heap and are reused, not faulted in.
BLOCK_POINTS = 1 << 13


@dataclass(frozen=True)
class IntervalBox:
    """Product of closed intervals [lo_s, hi_s], 1 <= s <= m."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or not self.lo:
            raise ValueError("lo and hi must be nonempty tuples of equal length")
        for a, b in zip(self.lo, self.hi):
            if a > b:
                raise ValueError(f"interval [{a!r}, {b!r}] is empty")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def project(self, s: int) -> tuple:
        """Closed interval of coordinate s (1-based)."""
        return (self.lo[s - 1], self.hi[s - 1])

    def diameter(self):
        """l1 diameter: sum of side lengths."""
        return sum(b - a for a, b in zip(self.lo, self.hi))

    def center(self) -> tuple:
        return tuple((a + b) / 2 for a, b in zip(self.lo, self.hi))

    def contains(self, x) -> bool:
        """Whether the point x has this box's dimension and lies in it."""
        return len(x) == self.dim and all(a <= v <= b for a, v, b in zip(self.lo, x, self.hi))

    def contains_box(self, other: "IntervalBox") -> bool:
        return all(a <= c for a, c in zip(self.lo, other.lo)) and all(
            d <= b for d, b in zip(other.hi, self.hi)
        )

    def corners(self) -> list[tuple]:
        return [tuple(pt) for pt in product(*zip(self.lo, self.hi))]


@dataclass(frozen=True)
class AffineMap:
    """x -> A x + b with a square matrix A stored as a tuple of rows."""

    matrix: tuple[tuple, ...]
    offset: tuple

    def __post_init__(self):
        m = len(self.offset)
        if m == 0 or len(self.matrix) != m or any(len(row) != m for row in self.matrix):
            raise ValueError("matrix must be m x m matching the offset length")

    @property
    def dim(self) -> int:
        return len(self.offset)

    @property
    def kind(self) -> str:
        return "affine"


@dataclass(frozen=True)
class MoebiusMap:
    """x -> (a x + b) / (c x + d) on one coordinate."""

    a: object
    b: object
    c: object
    d: object

    @property
    def dim(self) -> int:
        return 1

    @property
    def kind(self) -> str:
        return "moebius1d"

    def determinant(self):
        return self.a * self.d - self.b * self.c


Map = AffineMap | MoebiusMap


def _ordered(t0, t1):
    """(t0, t1) in increasing order, swapped only where t0 > t1: a tie keeps t0."""
    if isinstance(t0, np.ndarray):
        return np.where(t0 > t1, t1, t0), np.where(t0 > t1, t0, t1)
    return (t1, t0) if t0 > t1 else (t0, t1)


def _anywhere(mask) -> bool:
    return mask.any() if isinstance(mask, np.ndarray) else mask


def _point_image(f: Map, x) -> tuple:
    """Per-coordinate image of the point x."""
    if isinstance(f, AffineMap):
        return tuple(b + sum(a * v for a, v in zip(row, x)) for row, b in zip(f.matrix, f.offset))
    den = f.c * x[0] + f.d
    # Inline rather than `_anywhere`: the scalar orbit calls this once a step.
    if (den == 0).any() if isinstance(den, np.ndarray) else den == 0:
        where = "a sample point" if isinstance(den, np.ndarray) else f"x = {x[0]!r}"
        raise DenominatorVanishes(f"denominator vanishes at {where}")
    return ((f.a * x[0] + f.b) / den,)


def _box_image(f: Map, lo, hi) -> tuple[tuple, tuple]:
    """Per-coordinate corners of the image of [lo, hi].  Affine: b_s + sum_l
    [min, max](A_sl * [lo_l, hi_l]), added from the left.  Moebius: monotone
    between endpoints once the denominator has one sign on the interval."""
    if isinstance(f, AffineMap):
        new_lo, new_hi = [], []
        for row, b in zip(f.matrix, f.offset):
            acc_lo = acc_hi = b
            for a, u, v in zip(row, lo, hi):
                t0, t1 = _ordered(a * u, a * v)
                acc_lo, acc_hi = acc_lo + t0, acc_hi + t1  # not +=: b may be a gathered array
            new_lo.append(acc_lo)
            new_hi.append(acc_hi)
        return tuple(new_lo), tuple(new_hi)
    den0 = f.c * lo[0] + f.d
    den1 = f.c * hi[0] + f.d
    if _anywhere((den0 == 0) | (den1 == 0) | ((den0 > 0) != (den1 > 0))):
        where = "inside a sample interval" if isinstance(den0, np.ndarray) else f"on [{lo[0]!r}, {hi[0]!r}]"
        raise DenominatorVanishes(f"denominator has a zero {where}")
    y0, y1 = _ordered((f.a * lo[0] + f.b) / den0, (f.a * hi[0] + f.b) / den1)
    return (y0,), (y1,)


def evaluate_map(f: Map, x, ambient: IntervalBox | None = None) -> tuple:
    """Image of a single point, as a tuple of scalars.

    When `ambient` is given the point must lie inside it.
    """
    x = tuple(x)
    if len(x) != f.dim:
        raise ValueError(f"point of dimension {len(x)} fed to a {f.dim}-dimensional map")
    if ambient is not None and not ambient.contains(x):
        raise OutsideDomain(f"point {x} outside the ambient box")
    return _point_image(f, x)


def box_image(f: Map, box: IntervalBox) -> IntervalBox:
    """Interval image of a box, coordinate by coordinate: exact for Fraction
    data; for floats the endpoints are rounded to nearest, not outward."""
    if box.dim != f.dim:
        raise ValueError("box dimension does not match the map")
    return IntervalBox(*_box_image(f, box.lo, box.hi))


def injective(f: Map) -> bool:
    if isinstance(f, MoebiusMap):
        return f.determinant() != 0
    det = np.linalg.det(np.array(f.matrix, dtype=float))
    return det != 0.0


def sign_table(f: Map) -> tuple[tuple[str, ...], ...]:
    """Per coordinate function, the sign of the dependence on each variable."""

    def sgn(v) -> str:
        if v > 0:
            return PLUS
        if v < 0:
            return MINUS
        return ZERO

    if isinstance(f, AffineMap):
        return tuple(tuple(sgn(a) for a in row) for row in f.matrix)
    return ((sgn(f.determinant()),),)


def map_points(f: Map, pts: np.ndarray) -> np.ndarray:
    """Images of an (n, m) float array of points, per row as `evaluate_map`."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != f.dim:
        raise ValueError(f"points of shape {pts.shape} fed to a {f.dim}-dimensional map")
    return np.stack(_point_image(f, pts.T), axis=1)


def map_boxes(f: Map, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box images for (n, m) arrays of lower/upper corners, per row as `box_image`."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim != 2 or lo.shape != hi.shape or lo.shape[1] != f.dim:
        raise ValueError("box dimension does not match the map")
    return tuple(np.stack(corner, axis=1) for corner in _box_image(f, lo.T, hi.T))


@dataclass(frozen=True)
class MonotoneType:
    """Common sign class of a system: pattern plus the per-map sign tables."""

    signs: tuple[str, ...]
    tables: tuple[tuple[tuple[str, ...], ...], ...]


def _compatible(table: tuple[tuple[str, ...], ...], signs: tuple[str, ...]) -> bool:
    flipped = tuple(_FLIP[s] for s in signs)
    for j, row in enumerate(table):
        required = signs if signs[j] == signs[0] else flipped
        if all(e == ZERO for e in row):
            return False
        for e, r in zip(row, required):
            if e != ZERO and e != r:
                return False
    return True


@dataclass(frozen=True)
class MapSystem:
    """k maps sharing an ambient box and the alphabet of a Markov shift.

    Construction verifies that every map sends the ambient box into itself,
    by exact endpoint comparison of its box image.
    """

    ambient: IntervalBox
    maps: tuple[Map, ...]
    shift: MarkovShiftSpec

    def __post_init__(self):
        if not self.maps:
            raise ValueError("system needs at least one map")
        if len(self.maps) != self.shift.k:
            raise ValueError(
                f"{len(self.maps)} maps for a {self.shift.k}-state shift"
            )
        for i, f in enumerate(self.maps):
            if f.dim != self.ambient.dim:
                raise ValueError(f"map {i + 1} has dimension {f.dim}, ambient {self.ambient.dim}")
            image = box_image(f, self.ambient)
            if not self.ambient.contains_box(image):
                raise NotSelfMapping(
                    f"map {i + 1} sends the ambient box to {image.lo}..{image.hi}"
                )

    @property
    def k(self) -> int:
        return len(self.maps)

    @property
    def dim(self) -> int:
        return self.ambient.dim

    def map_for(self, symbol: int) -> Map:
        if not 1 <= symbol <= self.k:
            raise ValueError(f"symbol {symbol} outside 1..{self.k}")
        return self.maps[symbol - 1]

    @cached_property
    def coefficient_tables(self) -> dict:
        """kind -> (map class, per-field float coefficients of all k maps, symbols
        last, stand-ins at other kinds' symbols) for the batched compositions."""
        return {
            f.kind: (type(f), [np.moveaxis(np.array(v, dtype=float), 0, -1)
                               for v in zip(*(astuple(g if g.kind == f.kind else f) for g in self.maps))])
            for f in self.maps[::-1]
        }


def monotone_classes(sys: MapSystem) -> tuple[MonotoneType, ...]:
    """All sign patterns t compatible with every map, in lexicographic order
    with '+' before '-'; empty when the system is not monotone."""
    tables = tuple(sign_table(f) for f in sys.maps)
    found = []
    for signs in product((PLUS, MINUS), repeat=sys.dim):
        if all(_compatible(t, signs) for t in tables):
            found.append(MonotoneType(signs=signs, tables=tables))
    return tuple(found)


def orbit(step, maps: tuple, symbols, start) -> list:
    """`start`, then its image under maps[s - 1] for each symbol s in turn,
    computed by `step(map, value)`.  `maps` may hold float or Fraction
    maps; the symbols are not checked here."""
    out = [start]
    for s in symbols:
        out.append(step(maps[s - 1], out[-1]))
    return out


def forward_orbit(sys: MapSystem, word: Word, x) -> tuple:
    """Apply f_{w_1} first: the orbit point f_{w_n} o ... o f_{w_1}(x)."""
    word = check_word(word, sys.k)
    x = tuple(x)
    if not sys.ambient.contains(x):
        raise OutsideDomain(f"orbit start {x} outside the ambient box")
    return orbit(evaluate_map, sys.maps, word, x)[-1]


def reverse_composition(sys: MapSystem, word: Word, x) -> tuple:
    """Apply f_{w_n} first: the coding-direction point f_{w_1} o ... o f_{w_n}(x)."""
    word = check_word(word, sys.k)
    x = tuple(x)
    if not sys.ambient.contains(x):
        raise OutsideDomain(f"composition anchor {x} outside the ambient box")
    return orbit(evaluate_map, sys.maps, reversed(word), x)[-1]


def forward_box_chain(sys: MapSystem, word: Word, box: IntervalBox | None = None) -> list[IntervalBox]:
    """Chained enclosures of f_{w_j} o ... o f_{w_1}(box) for j = 0..n.

    Index j holds the enclosure after the first j maps, so entry 0 is the
    starting box itself.
    """
    word = check_word(word, sys.k)
    return orbit(box_image, sys.maps, word, sys.ambient if box is None else box)


def reverse_box(sys: MapSystem, word: Word, box: IntervalBox | None = None) -> IntervalBox:
    word = check_word(word, sys.k)
    return orbit(box_image, sys.maps, reversed(word), sys.ambient if box is None else box)[-1]


def _reverse_rows(sys: MapSystem, words, arrays: list, boxed: bool) -> list:
    """Send row i of each array in `arrays` (shape (rows, ..., m); box corners
    lo, hi first when `boxed`, then point clouds) through word i's maps, last
    symbol first, in place, `BLOCK_POINTS` rows at a time: per depth, the
    `coefficient_tables` gathered by the symbol column form one map per kind
    for the image kernels, whose coordinates are written back one by one.
    A symbol outside 1..k raises InadmissibleWord."""
    words = np.asarray(words)
    low, high = (words.min(), words.max()) if words.size else (1, 1)
    if low < 1 or high > sys.k:
        raise InadmissibleWord(f"symbol {low if low < 1 else high} outside 1..{sys.k}")
    kinds, stacks = np.array([f.kind for f in sys.maps]), sys.coefficient_tables
    for start in range(0, words.shape[0], BLOCK_POINTS):
        block = slice(start, start + BLOCK_POINTS)
        for t in range(words.shape[1] - 1, -1, -1):
            for kind, (cls, tables) in stacks.items():
                rows = block if len(stacks) == 1 else start + np.flatnonzero(kinds[words[block, t] - 1] == kind)
                symbols = words[rows, t] - 1
                coefs = [v.take(symbols, axis=-1) for v in tables]
                parts = [a[rows] for a in arrays]  # and one map per part, broadcast over its rows
                maps = [cls(*(c.reshape(c.shape + (1,) * (a.ndim - 2)) for c in coefs)) for a in parts]
                xs = [tuple(np.moveaxis(a, -1, 0)) for a in parts]
                images = [*_box_image(maps[0], xs[0], xs[1])] if boxed else []
                images += [_point_image(f, x) for f, x in zip(maps[len(images) :], xs[len(images) :])]
                for a, image in zip(arrays, images):
                    for j, column in enumerate(image):
                        a[rows, ..., j] = column
    return arrays


def advance_rows(sys: MapSystem, symbols, arrays: list) -> list:
    """One forward step for many rows at once: row i of the boxes [lo, hi]
    and of the point clouds in `arrays` = [lo, hi, *clouds], all of shape
    (rows, ..., m), goes through f_{symbols[i]}, in place."""
    return _reverse_rows(sys, np.asarray(symbols)[:, None], arrays, boxed=True)


def batch_reverse_points(sys: MapSystem, words: np.ndarray, anchor) -> np.ndarray:
    """Reverse compositions of many words at once.  words is an (n, depth)
    integer array of symbols in 1..k, anchor one point of shape (m,) or one
    point per word, shape (n, m); the result is (n, m)."""
    n = np.asarray(words).shape[0]
    pts = np.array(np.broadcast_to(np.asarray(anchor, dtype=float), (n, sys.dim)))
    return _reverse_rows(sys, words, [pts], boxed=False)[0]


def batch_reverse_boxes(sys: MapSystem, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chained enclosures of the reverse compositions of many words at once;
    words as in `batch_reverse_points`."""
    n = np.asarray(words).shape[0]
    lo = np.tile(np.asarray(sys.ambient.lo, dtype=float), (n, 1))
    hi = np.tile(np.asarray(sys.ambient.hi, dtype=float), (n, 1))
    return tuple(_reverse_rows(sys, words, [lo, hi], boxed=True))
