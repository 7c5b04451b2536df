"""State-tagged particle measures and the transfer operator that drives them.

A measure on the product of the symbol alphabet and the ambient box is held
as weighted particles (state, point, weight).  One operator application
pushes each particle through every map with positive transition probability
from its state, so the per-state mass vector evolves exactly by the
transition matrix (up to float summation) no matter how points are
resampled.  The long-run law of orbits is estimated separately by sampling
inverse-measure words and evaluating reverse-order compositions, with the
chained enclosure diameter of each sample kept as a convergence
certificate.  An empirical weak-* surrogate distance compares per-state
masses plus per-coordinate transport distances of the normalized sections;
it detects mass misallocation and marginal displacement, which is what the
stability statement needs at finite resolution, but it is strictly weaker
than testing all continuous observables.

A measure's arrays, and its per-state masses (block-exact sums) and
sections (per state and coordinate, the stably sorted values and cumulative
normalized weights), memoized on first use, are read-only.  The cells of a
transport distance depend only on the two cumulative-weight vectors
(W1 = int |F1^-1 - F2^-1| du), so `weak_star_distance` keeps one plan of
them per state on its second measure and reuses it while both vectors stay
bitwise equal.  A stability run thus sorts and plans against its target
once, drops each step's sections once its row is taken, and gets the bits
of a fresh computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import NotPrimitive
from .maps import MapSystem, batch_reverse_boxes, batch_reverse_points, map_points
from .shift import PRIMITIVE, sample_words

MASS_TOL = 1e-12
TARGET_DEPTH = 64


@dataclass(frozen=True, eq=False)
class StateTaggedMeasure:
    """Weighted particles (state, point, weight) with unit total mass.

    Derived quantities are memoized on first use, so the arrays are made
    read-only on construction: writing to them raises instead of leaving
    the memoized values stale.  `_blocks`, recorded only by `apply_operator`
    and `resample`, lists per state the (count, weight) blocks of its
    particles, which sit in state order."""

    states: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    k: int
    _blocks: tuple | None = field(default=None, init=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        for arr in (self.states, self.points, self.weights):
            arr.setflags(write=False)

    @property
    def n_particles(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def _members(self, j: int):
        """Index of state j's (0-based) particles: their run if blocks are recorded, else a mask."""
        key = ("members", j)
        if key not in self._memo:
            sizes = None if self._blocks is None else [sum(c for c, _ in b) for b in self._blocks[: j + 1]]
            self._memo[key] = self.states == j + 1 if sizes is None else slice(sum(sizes[:-1]), sum(sizes))
        return self._memo[key]

    def state_mass(self) -> np.ndarray:
        masses = self._memo.get("mass")
        if masses is None:
            # The correctly rounded exact sum keeps the mass-evolution identity
            # at any particle count; fsum gives the same double as the blocks.
            masses = np.array([
                math.fsum(self.weights[self._members(j)].tolist()) if self._blocks is None
                else float(sum(count * Fraction(w) for count, w in self._blocks[j]))
                for j in range(self.k)
            ])
            self._memo["mass"] = masses
        return masses.copy()

    def sections(self, j: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per coordinate, the normalized section of state j (0-based) as
        prepared by `_section`; needs a positive mass on state j."""
        key = ("sections", j)
        found = self._memo.get(key)
        if found is None:
            sel = self._members(j)
            w = self.weights[sel] / self.state_mass()[j]
            pts = self.points[sel]
            found = tuple(_section(pts[:, s], w) for s in range(self.dim))
            for arr in (a for sec in found for a in sec):
                arr.setflags(write=False)
            self._memo[key] = found
        return found


def make_measure(sys: MapSystem, states, points, weights) -> StateTaggedMeasure:
    states = np.asarray(states, dtype=np.int64)
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    n = states.shape[0]
    if points.shape != (n, sys.dim) or weights.shape != (n,):
        raise ValueError("states, points and weights must have matching shapes")
    if n == 0:
        raise ValueError("a measure needs at least one particle")
    if np.any(states < 1) or np.any(states > sys.k):
        raise ValueError(f"states must lie in 1..{sys.k}")
    if not np.all(weights > 0.0):  # each check fails on NaN
        raise ValueError("weights must be positive")
    if not abs(weights.sum() - 1.0) <= MASS_TOL:
        raise ValueError(f"weights sum to {weights.sum()!r}, expected 1")
    lo = np.asarray(sys.ambient.lo, dtype=float)
    hi = np.asarray(sys.ambient.hi, dtype=float)
    if not np.all((lo <= points) & (points <= hi)):
        raise ValueError("some point lies outside the ambient box")
    return StateTaggedMeasure(states=states, points=points, weights=weights, k=sys.k)


# The kinds `build_initial` interprets, as configs name them.
INITIAL_KINDS = ("uniform", "corner", "center")


def build_initial(
    sys: MapSystem, kind: str, n_particles: int, seed: int = 0
) -> StateTaggedMeasure:
    """Canonical starting measures for stability runs.

    "uniform": random points, states cycling through the alphabet (equal
    state masses).  "corner": everything at the lower corner, state 1.
    "center": everything at the box center, state 1.
    """
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    lo = np.asarray(sys.ambient.lo, dtype=float)
    hi = np.asarray(sys.ambient.hi, dtype=float)
    if kind == "uniform":
        rng = np.random.default_rng(seed)
        points = lo + rng.random((n_particles, sys.dim)) * (hi - lo)
        states = (np.arange(n_particles) % sys.k) + 1
    elif kind == "corner":
        points = np.tile(lo, (n_particles, 1))
        states = np.ones(n_particles, dtype=np.int64)
    elif kind == "center":
        points = np.tile((lo + hi) / 2.0, (n_particles, 1))
        states = np.ones(n_particles, dtype=np.int64)
    else:
        raise ValueError(f"unknown initial kind {kind!r}")
    weights = np.full(n_particles, 1.0 / n_particles)
    return make_measure(sys, states, points, weights)


def apply_operator(mu: StateTaggedMeasure, sys: MapSystem) -> StateTaggedMeasure:
    """One transfer step: particle (i, x, w) spawns (j, f_j(x), w p_ij) for
    every j with p_ij > 0.  Children are emitted in j-blocks, so the output
    ordering is deterministic, and a child's weight block is its parent's
    times p_ij, so blocks recorded on mu carry over.  With blocks, the
    parents of state j are the state runs of the i with p_ij > 0, each
    weight run times the scalar p_ij; else a mask over all particles.  Each
    block is written straight into one output array per field."""
    P = sys.shift.P
    if mu._blocks is None:
        parents = [[(step > 0.0, step[step > 0.0])] for step in P[mu.states - 1].T]
    else:
        parents = [[(mu._members(i), p) for i, p in enumerate(col) if p > 0.0] for col in P.T.tolist()]
    out = _empty(mu, sum(_count(sel) for runs in parents for sel, _ in runs))
    end = 0
    for j, runs in enumerate(parents):
        start = end
        for sel, p in runs:
            n = _count(sel)
            np.multiply(mu.weights[sel], p, out=out[2][end : end + n])
            end += n
        if end > start:
            out[0][start:end] = j + 1
            out[1][start:end] = map_points(sys.maps[j], _parent_points(mu, [sel for sel, _ in runs]))
    return _blocked(*out, mu.k, None if mu._blocks is None else tuple(
        tuple((count, float(w * P[i, j])) for i, b in enumerate(mu._blocks) if P[i, j] > 0.0 for count, w in b)
        for j in range(sys.k)
    ))


def _count(sel) -> int:
    return sel.stop - sel.start if isinstance(sel, slice) else int(np.count_nonzero(sel))


def _parent_points(mu: StateTaggedMeasure, sels: list) -> np.ndarray:
    """The points one mask or a list of state runs selects: a view when the runs are adjacent."""
    if not isinstance(sels[0], slice):
        return mu.points[sels[0]]
    spans = [sels[0]]
    for run in sels[1:]:
        if spans[-1].stop == run.start:
            spans[-1] = slice(spans[-1].start, run.stop)
        else:
            spans.append(run)
    return mu.points[spans[0]] if len(spans) == 1 else np.concatenate([mu.points[span] for span in spans])


def _empty(mu: StateTaggedMeasure, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.empty(n, dtype=np.int64), np.empty((n, mu.dim)), np.empty(n)


def _blocked(states, points, weights, k, blocks) -> StateTaggedMeasure:
    """The measure of the given arrays, with their blocks recorded."""
    mu = StateTaggedMeasure(states, points, weights, k)
    object.__setattr__(mu, "_blocks", blocks)
    return mu


def _allocate_slots(masses: np.ndarray, target: int) -> np.ndarray:
    """Largest-remainder slot allocation with one guaranteed slot per
    positive-mass stratum.  Deterministic: ties break on state index."""
    positive = masses > 0.0
    raw = target * masses
    base = np.floor(raw).astype(int)
    base[positive & (base == 0)] = 1
    remainder = raw - np.floor(raw)
    order = sorted(range(len(masses)), key=lambda j: (-remainder[j], j))
    diff = target - int(base.sum())
    idx = 0
    while diff > 0:
        j = order[idx % len(order)]
        if positive[j]:
            base[j] += 1
            diff -= 1
        idx += 1
    shrink = sorted(range(len(masses)), key=lambda j: (remainder[j], j))
    idx = 0
    while diff < 0:
        j = shrink[idx % len(shrink)]
        if positive[j] and base[j] > 1:
            base[j] -= 1
            diff += 1
        idx += 1
    return base


def resample(
    mu: StateTaggedMeasure, target_count: int, seed: int = 0
) -> StateTaggedMeasure:
    """Systematic resampling inside each state stratum.

    Slots are split across strata by largest remainder (at least one per
    positive-mass stratum), then each stratum is resampled systematically
    with a single uniform offset, and its mass is spread equally over its
    slots, so per-state masses survive exactly.  Each stratum is written
    straight into one output array per field."""
    if target_count < mu.k:
        raise ValueError("target_count must be at least the number of states")
    masses = mu.state_mass()
    slots = _allocate_slots(masses, target_count)
    rng = np.random.default_rng(seed)
    out = _empty(mu, int(slots.sum()))
    end = 0
    for j in range(1, mu.k + 1):
        n_j = int(slots[j - 1])
        if n_j == 0:
            continue
        start, end = end, end + n_j
        sel = mu._members(j - 1)
        w = mu.weights[sel]
        cum = np.cumsum(w)
        # cum[-1] carries sequential-summation drift of order n*eps; the
        # emitted masses must not inherit it, so the stratum mass is the
        # exact sum from state_mass and the cumsum serves only to place
        # the selections.
        mass = float(masses[j - 1])
        offsets = (rng.random() + np.arange(n_j)) / n_j * min(mass, float(cum[-1]))
        idx = np.minimum(np.searchsorted(cum, offsets, side="right"), w.shape[0] - 1)
        out[0][start:end] = j
        np.take(mu.points[sel], idx, axis=0, out=out[1][start:end], mode="clip")  # unbuffered
        out[2][start:end] = mass / n_j
    return _blocked(*out, mu.k,
                    tuple(((n, m / n),) if n else () for n, m in zip(slots.tolist(), masses.tolist())))


@dataclass(frozen=True, eq=False)
class TargetEstimate:
    measure: StateTaggedMeasure
    diameters: np.ndarray
    depth: int

    @property
    def max_diameter(self) -> float:
        return float(self.diameters.max())


def sample_target(
    sys: MapSystem, n_samples: int, depth: int = TARGET_DEPTH, seed: int = 0
) -> tuple[np.ndarray | None, StateTaggedMeasure]:
    """The inverse-measure words behind `estimate_target` with the same
    arguments (None at depth 0) and the measure of their coded points,
    without the enclosures that certify it."""
    if sys.shift.classification != PRIMITIVE:
        raise NotPrimitive("target estimation requires a primitive shift")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    anchor = np.asarray(sys.ambient.center(), dtype=float)
    weights = np.full(n_samples, 1.0 / n_samples)
    words = sample_words(sys.shift, n_samples, max(depth, 1), inverse=True, seed=seed)
    if depth == 0:
        # Zero-depth fibres are the whole box: every sample sits at the
        # anchor, tagged by its stationary start.  make_measure copies the
        # states column, so no view keeps the word table alive.
        return None, make_measure(sys, words[:, 0], np.tile(anchor, (n_samples, 1)), weights)
    return words, make_measure(sys, words[:, 0], batch_reverse_points(sys, words, anchor), weights)


def estimate_target(
    sys: MapSystem, n_samples: int, depth: int = TARGET_DEPTH, seed: int = 0
) -> TargetEstimate:
    """Sampled estimate of the stationary law of coded points.

    Draws words from the inverse measure, applies the reverse-order
    composition to the box center, and tags each sample with its first
    symbol.  The chained enclosure diameter of each word bounds how far the
    returned point can sit from the true limit point of any extension."""
    words, measure = sample_target(sys, n_samples, depth, seed)
    if words is None:
        ambient_diam = float(
            (np.asarray(sys.ambient.hi, float) - np.asarray(sys.ambient.lo, float)).sum()
        )
        return TargetEstimate(
            measure=measure, diameters=np.full(n_samples, ambient_diam), depth=0
        )
    lo, hi = batch_reverse_boxes(sys, words)
    return TargetEstimate(measure=measure, diameters=(hi - lo).sum(axis=1), depth=depth)


def _section(x, w) -> tuple[np.ndarray, np.ndarray]:
    """A weighted one-dimensional sample prepared for transport: its values
    stably sorted, and the cumulative sums of the weights in that order."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    order = np.argsort(x, kind="stable")
    return x[order], np.cumsum(w[order])


class _TransportPlan:
    """The cells of the quantile gap integral for cumulative weights c1 and
    c2, from one stable merge of the breakpoints: their widths `du` and each
    side's quantile index on them."""

    __slots__ = ("c1", "c2", "du", "i1", "i2")

    def __init__(self, c1: np.ndarray, c2: np.ndarray) -> None:
        n1, n2 = c1.shape[0], c2.shape[0]
        both = np.concatenate((c1, c2))
        order = np.argsort(both, kind="stable")  # timsort: one merge of two sorted runs
        merged = both[order]
        merged = merged[: np.searchsorted(merged, min(c1[-1], c2[-1]) + 1e-15, side="right")]
        starts = np.flatnonzero(np.concatenate(([True], merged[1:] != merged[:-1])))
        grid = merged[starts]
        # On cell m a side's quantile index counts its breakpoints below grid[m],
        # or below grid[m - 1] where the cell's midpoint rounds down onto it.  At
        # merged position k, c1[o] (o = order[k]) has o, and c2[o - n1] k - o + n1.
        pick = np.arange(grid.shape[0])
        pick[1:] -= (grid[1:] + grid[:-1]) / 2.0 == grid[:-1]
        at = starts[pick]
        o = order[at]
        below1 = np.where(o < n1, o, at - o + n1)
        index = np.int32 if n1 + n2 <= np.iinfo(np.int32).max else np.int64
        self.c1, self.c2 = c1, c2
        self.du = np.diff(grid, prepend=0.0)
        self.i1 = np.minimum(below1, n1 - 1).astype(index)
        self.i2 = np.minimum(at - below1, n2 - 1).astype(index)

    def fits(self, c1: np.ndarray, c2: np.ndarray) -> bool:
        """Whether c1 and c2 are, bit for bit, this plan's vectors."""
        return all(new.shape == old.shape and bool(np.all(new.view(np.int64) == old.view(np.int64)))
                   for new, old in ((c1, self.c1), (c2, self.c2)))

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> float:
        """sum(|x1[i1] - x2[i2]| du), in place in one grid-length array."""
        q1 = x1.take(self.i1)
        q1 -= x2.take(self.i2)
        np.abs(q1, out=q1)
        np.multiply(q1, self.du, out=q1)
        return float(np.sum(q1))


def _transport(sec1, sec2) -> float:
    """Transport distance of two prepared sections (x, c) over their plan."""
    (x1, c1), (x2, c2) = sec1, sec2
    return _TransportPlan(c1, c2)(x1, x2)


def wasserstein_1d(x1, w1, x2, w2) -> float:
    """Exact transport distance of two weighted one-dimensional samples.

    Both weight vectors must sum to 1.  Computed as the integral of the
    quantile gap over a merged breakpoint grid."""
    return _transport(_section(x1, w1), _section(x2, w2))


def weak_star_distance(mu: StateTaggedMeasure, nu: StateTaggedMeasure) -> float:
    """Per-state mass gaps plus transported per-coordinate marginal gaps.

    Zero exactly when the state masses and all per-state per-coordinate
    marginals agree.  Symmetric.  Distances of normalized sections are
    weighted by the smaller section mass so the two summands stay on the
    scale of total variation."""
    if mu.k != nu.k or mu.dim != nu.dim:
        raise ValueError("measures live on different spaces")
    m1 = mu.state_mass()
    m2 = nu.state_mass()
    total = 0.0
    for j in range(mu.k):
        total += abs(float(m1[j]) - float(m2[j]))
        overlap = min(float(m1[j]), float(m2[j]))
        if overlap <= 0.0:
            continue
        for sec1, sec2 in zip(mu.sections(j), nu.sections(j)):
            total += overlap * _planned_transport(nu, j, sec1, sec2)
    return total


def _planned_transport(nu: StateTaggedMeasure, j: int, sec1, sec2) -> float:
    """`_transport(sec1, sec2)` through the plan nu keeps for state j."""
    plan = nu._memo.pop(("plan", j), None)
    if plan is not None and not plan.fits(sec1[1], sec2[1]):
        plan = None  # freed before its successor is built
    if plan is None:
        plan = _TransportPlan(sec1[1], sec2[1])
    nu._memo[("plan", j)] = plan
    return plan(sec1[0], sec2[0])


@dataclass(frozen=True)
class StabilityRow:
    step: int
    initial_id: str
    distance: float
    mass_gap: float


@dataclass(frozen=True)
class StabilityResult:
    rows: tuple[StabilityRow, ...]
    mass_identity_error: float
    target_diameter: float


def stability_experiment(
    sys: MapSystem,
    initials: dict[str, StateTaggedMeasure],
    n_steps: int,
    particle_budget: int,
    seed: int = 0,
    *,
    target_samples: int | None = None,
    target_depth: int = TARGET_DEPTH,
) -> StabilityResult:
    """Iterate the operator from several starting measures.

    Records, per step, the surrogate distance to a sampled target and the
    sup gap between state masses and the stationary vector.  Also tracks
    the worst deviation of the empirical state-mass vector from the exact
    matrix-power evolution of its starting value, which resampling must not
    disturb."""
    target = estimate_target(
        sys, target_samples or particle_budget, target_depth, seed=seed + 977
    )
    p = sys.shift.p
    P = sys.shift.P
    rows: list[StabilityRow] = []
    worst = 0.0
    for idx, (name, mu) in enumerate(sorted(initials.items())):
        expected = mu.state_mass()
        current = mu
        for n in range(n_steps + 1):
            if n:
                current = apply_operator(current, sys)
                current = resample(current, particle_budget, seed=seed + 7919 * idx + n)
                expected = expected @ P
                worst = max(worst, float(np.abs(current.state_mass() - expected).max()))
            rows.append(StabilityRow(step=n, initial_id=name, distance=weak_star_distance(current, target.measure),
                                     mass_gap=float(np.abs(current.state_mass() - p).max())))
            for j in range(sys.k):  # nothing reads these sections again
                current._memo.pop(("sections", j), None)
    return StabilityResult(
        rows=tuple(rows),
        mass_identity_error=worst,
        target_diameter=target.max_diameter,
    )
