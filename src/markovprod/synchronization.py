"""Forward-image contraction, fibre collapse, coding points, and Birkhoff
averages.

Upper curves are chained box enclosures (nonincreasing along forward
words; float endpoints are rounded to nearest, not outward); lower curves
track a deterministic point cloud, built once per run, through the same
maps, bracketing the image diameter up to that rounding.  All trials
advance together, one symbol column at a time through `maps.advance_rows`,
in blocks of `maps.BLOCK_POINTS` cloud points, and each gets the
floats of its one-trial curve.  Rates are fitted on the upper curve only.
Fibre (reverse-order) enclosures test weak hyperbolicity per sample; a
finite word's coding point has the enclosure diameter as bound.

The Birkhoff orbit runs as verified lockstep segments, the coupling idea
of Propp & Wilson (1996): under the splitting condition, orbits driven by
the same word merge exponentially fast, in floats bit for bit, so a
segment started a few dozen steps early from a guess lands on the true
orbit.  Numpy draws each super-chunk's uniforms; all its lanes advance
together in one pass, each step reading the lanes' uniforms as one strided
view, moving their states by `shift._next_lanes` on the chain's walk table
and applying their maps, gathered by state, through `maps._point_image`,
the image kernel of every other path, and each lane records its start as
row 0.  Then the lanes are settled in order: a lane whose start is not,
bit for bit, its settled predecessor's end is stepped again from that
end, its states walked by `shift._walk` on the same table and its points
one at a time through `maps.orbit` on the system's own maps.  Averages
are therefore bit-identical to the plain per-step loop, without any array
as long as the orbit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCurve, InadmissibleWord, NotPrimitive
from .maps import (
    BLOCK_POINTS,
    MapSystem,
    _gathered,
    _point_image,
    advance_rows,
    batch_reverse_boxes,
    batch_reverse_points,
    orbit,
    reverse_box,
    reverse_composition,
)
from .markov_operator import sample_target
from .shift import PRIMITIVE, Word, _next_lanes, _walk, check_word, row_positive_state, sample_word, sample_words
from .splitting import ambient_cloud

FIT_FLOOR = 1e-14
DEFAULT_CLOUD = 256
BATCH_COUNT = 100


@dataclass(frozen=True)
class DecayCurve:
    """Bracketed image diameters along one word.

    upper[n] is the l1 diameter of the chained enclosure of the first n
    maps (upper bound up to float rounding, nonincreasing); lower[n] is the
    l1 diameter of a mapped point cloud (attained lower bound, may
    fluctuate within enclosure slack)."""

    word: Word
    n: tuple[int, ...]
    upper: tuple[float, ...]
    lower: tuple[float, ...]


def _forward_extents(sys: MapSystem, words: list[Word], cloud: np.ndarray | None = None):
    """Side lengths (depth + 1, rows, m) of the enclosures f_{w_n} o ... o
    f_{w_1}(M) of the equal-length `words`, n = 0..depth, and of the images
    of `cloud` if given; all rows advance one symbol column at a time."""
    words = np.array(words, dtype=np.int64)
    arrays = [np.tile(np.asarray(c, dtype=float), (len(words), 1)) for c in (sys.ambient.lo, sys.ambient.hi)]
    arrays += [] if cloud is None else [np.tile(cloud, (len(words), 1, 1))]
    boxes, clouds = [], []
    for t in range(words.shape[1] + 1):
        lo, hi, *pts = advance_rows(sys, words[:, t - 1], arrays) if t else arrays
        boxes.append(hi - lo)
        clouds += [c.max(axis=1) - c.min(axis=1) for c in pts]
    return np.array(boxes), np.array(clouds)


def _decay_curves(sys: MapSystem, words: list[Word], cloud: np.ndarray) -> list[DecayCurve]:
    """The DecayCurve of each of the equal-length `words`, in blocks of at
    most `BLOCK_POINTS` cloud points; every l1 sum adds the coordinates in
    the order of the one-word curve."""
    per_block = max(1, BLOCK_POINTS // len(cloud))
    curves = []
    for i in range(0, len(words), per_block):
        boxes, clouds = _forward_extents(sys, words[i : i + per_block], cloud)
        upper = sum(boxes[..., s] for s in range(sys.dim)).T.tolist()
        lower = clouds.sum(axis=-1).T.tolist()
        rows = zip(words[i : i + per_block], upper, lower)
        curves += [DecayCurve(w, tuple(range(len(w) + 1)), tuple(u), tuple(v)) for w, u, v in rows]
    return curves


def fit_decay_rate(curve: DecayCurve) -> tuple[float, float]:
    """Least-squares log-linear fit of the upper curve: returns (C, q) with
    upper_n ~ C q^n, fitted over the entries above the floor 1e-14."""
    n = np.asarray(curve.n, dtype=float)
    upper = np.asarray(curve.upper, dtype=float)
    usable = upper > FIT_FLOOR
    if int(usable.sum()) < 3:
        raise DegenerateCurve(
            f"only {int(usable.sum())} usable points above {FIT_FLOOR}"
        )
    slope, intercept = np.polyfit(n[usable], np.log(upper[usable]), 1)
    return float(np.exp(intercept)), float(np.exp(slope))


@dataclass(frozen=True)
class RateFit:
    trial: int
    q_hat: float
    c_hat: float


@dataclass(frozen=True)
class SyncResult:
    curves: tuple[DecayCurve, ...]
    fits: tuple[RateFit, ...]

    @property
    def max_q(self) -> float:
        return max(f.q_hat for f in self.fits)

    @property
    def contracting_fraction(self) -> float:
        return sum(1 for f in self.fits if f.q_hat < 1.0) / len(self.fits)


def sync_experiment(
    sys: MapSystem,
    trials: int,
    n_max: int,
    seed: int = 0,
    cloud_size: int = DEFAULT_CLOUD,
) -> SyncResult:
    """Forward-image diameter decay over independently sampled words."""
    row_positive_state(sys.shift)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    words = [sample_word(sys.shift, n_max, seed=seed + t) for t in range(trials)]
    curves = _decay_curves(sys, words, ambient_cloud(sys, cloud_size))
    fits = [RateFit(trial=t, q_hat=q, c_hat=c) for t, (c, q) in enumerate(map(fit_decay_rate, curves))]
    return SyncResult(curves=tuple(curves), fits=tuple(fits))


@dataclass(frozen=True)
class ContractionRow:
    trial: int
    s: int
    n: int
    length: float


@dataclass(frozen=True)
class ContractionFit:
    trial: int
    s: int
    q_hat: float
    c_hat: float


@dataclass(frozen=True)
class ContractionResult:
    rows: tuple[ContractionRow, ...]
    fits: tuple[ContractionFit, ...]


def measure_contraction_experiment(
    sys: MapSystem, trials: int, n_max: int, seed: int = 0
) -> ContractionResult:
    """Lebesgue length of each coordinate projection of the forward
    enclosures, per sampled word, with per-coordinate rate fits."""
    row_positive_state(sys.shift)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    words = [sample_word(sys.shift, n_max, seed=seed + t) for t in range(trials)]
    lengths, _ = _forward_extents(sys, words)
    rows, fits = [], []
    for t, (word, per_s) in enumerate(zip(words, lengths.transpose(1, 2, 0).tolist())):
        for s, curve in enumerate(per_s, start=1):
            rows += [ContractionRow(trial=t, s=s, n=n, length=v) for n, v in enumerate(curve)]
            n = tuple(range(len(curve)))
            c_hat, q_hat = fit_decay_rate(DecayCurve(word=word, n=n, upper=tuple(curve), lower=tuple(curve)))
            fits.append(ContractionFit(trial=t, s=s, q_hat=q_hat, c_hat=c_hat))
    return ContractionResult(rows=tuple(rows), fits=tuple(fits))


@dataclass(frozen=True)
class WeakHyperbolicityResult:
    fraction: float
    trials: int
    depth: int
    tol: float
    max_diameter: float


def weak_hyperbolicity_experiment(
    sys: MapSystem, trials: int, depth: int, tol: float, seed: int = 0
) -> WeakHyperbolicityResult:
    """Fraction of inverse-measure words whose fibre enclosure at the given
    depth has l1 diameter below tol."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    words = sample_words(sys.shift, trials, depth, inverse=True, seed=seed)
    lo, hi = batch_reverse_boxes(sys, words)
    diam = (hi - lo).sum(axis=1)
    return WeakHyperbolicityResult(
        fraction=float((diam < tol).mean()),
        trials=trials,
        depth=depth,
        tol=tol,
        max_diameter=float(diam.max()),
    )


def coding_point(sys: MapSystem, word: Word) -> tuple[tuple, float]:
    """Finite-depth coding point with an error radius.

    Returns the reverse-order composition applied to the box center and the
    l1 diameter of the chained fibre enclosure: the limit point of any
    extension of the word lies inside that enclosure, and so does the
    returned point (both up to float rounding, which the enclosure does not
    round outward), so the diameter bounds their distance."""
    word = check_word(word, sys.k, allow_empty=False)
    anchor = sys.ambient.center()
    point = reverse_composition(sys, word, anchor)
    box = reverse_box(sys, word)
    diameter = float(sum(float(h) - float(l) for l, h in zip(box.lo, box.hi)))
    return point, diameter


def coding_invariance(sys: MapSystem, words) -> tuple[float, float, int]:
    """Check pi(w) = f_{w_1}(pi(w_2 w_3 ...)) on each row of `words`, where pi
    is `coding_point`, allowing the sum of the two points' bounds.  The tail
    point starts from the ambient corner `lo` instead of the center, so the
    two sides are different compositions.  Returns the largest l1 residual,
    the largest allowance, and the number of words whose residual exceeds
    their allowance.  The rows run through the batch compositions and each
    l1 sum adds coordinates from the left, so every row gets the floats of
    the per-word compositions."""
    words = np.asarray(words)
    if words.ndim != 2 or words.shape[1] < 2:
        raise InadmissibleWord("coding invariance needs words of at least two symbols")
    full = batch_reverse_points(sys, words, sys.ambient.center())
    tail = batch_reverse_points(sys, words[:, 1:], sys.ambient.lo)
    image = batch_reverse_points(sys, words[:, :1], tail)
    residual = sum(np.abs(image[:, s] - full[:, s]) for s in range(sys.dim))
    allowance = 0
    for rows in (words, words[:, 1:]):
        lo, hi = batch_reverse_boxes(sys, rows)
        allowance = allowance + sum(hi[:, s] - lo[:, s] for s in range(sys.dim))
    max_residual, max_allowance = (float(v.max(initial=0.0)) for v in (residual, allowance))
    return max_residual, max_allowance, int((residual > allowance).sum())


@dataclass(frozen=True)
class ErgodicResult:
    average: float
    batch_sigma: float
    reference: float
    reference_sigma: float
    steps: int


# The built-in observables of `test_function`, as configs name them.
PHI_KINDS = ("coordinate", "square", "product")


def test_function(spec):
    """Built-in observables: ("coordinate", s), ("square", s),
    ("product", s, t), all 1-based, or any callable on point tuples."""
    if callable(spec):
        return spec
    kind = spec[0]
    if kind == "coordinate":
        s = spec[1] - 1
        return lambda x: float(x[s])
    if kind == "square":
        s = spec[1] - 1
        return lambda x: float(x[s]) ** 2
    if kind == "product":
        s, t = spec[1] - 1, spec[2] - 1
        return lambda x: float(x[s]) * float(x[t])
    raise ValueError(f"unknown test function {spec!r}")


# The orbit runs in super-chunks of `_LANES` lanes of `_LANE_STEPS` steps
# each, plus `_WARMUP` steps that the first lane records and every other lane
# spends reaching its own start from a guess: at most 2^17 steps, so memory
# does not grow with the orbit length.
_LANES = 256
_LANE_STEPS = 256
_WARMUP = 64


def _lockstep(sys: MapSystem, u: np.ndarray, stride: int, state: np.ndarray, point: np.ndarray, steps: int):
    """Advance one lane per entry of `state` by `steps` steps, all together.

    Lane j starts in state `state[j]` (0-based) at the point `point[:, j]`;
    at its step t it moves on the uniform `u[j * stride + t - 1]`, read for
    all lanes as one strided view, by `shift._next_lanes` on the forward walk
    table and applies that state's map through `maps._point_image`, the maps
    `_gathered` by state, one per map class.  Returns the states (steps + 1,
    lanes), in the smallest unsigned dtype that holds k - 1, and the points
    (m, steps + 1, lanes): row 0 is the start, row t the lane after its
    step t."""
    table, lanes = sys.shift.walk_table[0], len(state)
    states = np.zeros((steps + 1, lanes), dtype=np.min_scalar_type(sys.k - 1))
    points = np.empty((point.shape[0], steps + 1, lanes))
    states[0], points[:, 0] = state, point
    maps = None
    for t in range(1, steps + 1):
        _next_lanes(table, states[t - 1], u[t - 1 :: stride][:lanes], states[t])
        maps = _gathered(sys, states[t], reuse=maps)
        x = points[:, t - 1]
        for rows, f, _ in maps:
            points[:, t, rows] = _point_image(f, x[:, rows])
    return states, points


def _orbit(sys: MapSystem, x: tuple, n: int, rng: np.random.Generator):
    """The first n points of the forward orbit from x, in consecutive
    pieces: yields (coords, reruns), coords an (m, length) array.

    The first piece is x, whose uniform draws the initial state.  Each
    later super-chunk draws its uniforms from `rng` in one call.  Its lanes
    advance together in one `_lockstep` pass: lane 0 from the true state and
    point, every later lane `_WARMUP` steps before its first own step from
    the guess (state 0, x), so its row `_WARMUP` is its start.  One array
    comparison checks every lane's start against its predecessor's end, bit
    for bit.  From the first lane that fails it, the lanes are settled in
    order: each that did not start at its settled predecessor's end is
    stepped again from there, its own uniforms walked by `shift._walk` for
    the states and its points through `maps.orbit` on the system's own
    maps.  So every point is the one a step-by-step loop gives.  `reruns`
    counts the lanes stepped again."""
    lanes, length, warm = _LANES, _LANE_STEPS, _WARMUP
    table = sys.shift.walk_table[0]
    start = np.array(x, dtype=float)[:, None]
    state = np.array(_walk(table, sys.k, rng.random(1)))
    point = start
    yield start, 0
    for done in range(1, n, lanes * length + warm):
        m = min(lanes * length + warm, n - done)
        count = max(1, -(-(m - warm) // length))
        # Uniforms past m, read only by the last lane after its last own step, are 0.
        u = np.zeros(count * length + warm)
        rng.random(out=u[:m])
        states, points = _lockstep(sys, u, length, np.r_[state, np.zeros(count - 1, state.dtype)],
                                   np.hstack([point, np.repeat(start, count - 1, axis=1)]), length + warm)
        ok = (states[warm, 1:] == states[-1, :-1]) & np.all(
            points[:, warm, 1:].view(np.int64) == points[:, -1, :-1].view(np.int64), axis=0)
        bad = np.flatnonzero(~ok) + 1
        reruns = 0
        for lane in range(bad[0] if len(bad) else count, count):
            end_s, end_p = int(states[-1, lane - 1]), points[:, -1, lane - 1]
            if states[warm, lane] == end_s and np.all(points[:, warm, lane].view(np.int64) == end_p.view(np.int64)):
                continue
            # Only the last lane's own uniforms reach past m.
            own = lane * length + warm
            walk = [end_s, *_walk(table, end_s, u[own : min(own + length, m)])]
            got = orbit(_point_image, sys.maps, [s + 1 for s in walk[1:]], tuple(end_p.tolist()))
            states[warm : warm + len(walk), lane] = walk
            points[:, warm : warm + len(walk), lane] = list(zip(*got))
            reruns += 1
        coords = np.concatenate(
            [points[:, 1:, 0], points[:, warm + 1 :, 1:].transpose(0, 2, 1).reshape(len(start), -1)], axis=1
        )[:, :m]
        last = m - (count - 1) * length
        # Copies, so this super-chunk's arrays are freed once the next one's exist.
        state, point = states[last, -1:].copy(), points[:, last, -1:].copy()
        yield coords, reruns


def _array_observable(phi):
    """The observable as an array operation on coordinate rows (m, n) for
    coordinates and products, the same IEEE operations as `test_function`;
    None for squares and callables, which run per point in Python, since
    Python's x ** 2 is not always x * x."""
    if callable(phi) or phi[0] not in ("coordinate", "product"):
        return None
    if phi[0] == "coordinate":
        return lambda coords: np.ascontiguousarray(coords[phi[1] - 1])
    return lambda coords: coords[phi[1] - 1] * coords[phi[2] - 1]


def _running_sum(start: float, values) -> float:
    """start + v_1 + v_2 + ..., added one at a time from the left."""
    acc = np.empty(len(values) + 1)
    acc[0] = start
    acc[1:] = values
    return float(np.cumsum(acc)[-1])


def ergodic_average(
    sys: MapSystem, x, phi, n: int, seed: int = 0, target_samples: int = 20_000
) -> ErgodicResult:
    """Birkhoff average of an observable along one sampled forward orbit.

    Requires a primitive shift; meaningful as a law-of-orbits check only
    when the system has a certified split witness (callers verify that).
    The spread of 100 batch means estimates the correlated-sample error of
    the time average; the reference value integrates the observable against
    a sampled estimate of the stationary law of coded points.

    The orbit comes from `_orbit` in verified lockstep segments of at most
    2^17 steps, bit for bit the points of a step-by-step loop, and the
    total and batch sums add the observable from the left, so the result
    is bit-identical to that loop and the memory does not grow with n."""
    if sys.shift.classification != PRIMITIVE:
        raise NotPrimitive("ergodic averaging requires a primitive shift")
    if n < BATCH_COUNT:
        raise ValueError(f"n must be at least {BATCH_COUNT}")
    f_phi = test_function(phi)
    x = tuple(float(v) for v in x)
    if not sys.ambient.contains(x):
        raise ValueError(f"starting point {x} outside the ambient box")

    batch_size = n // BATCH_COUNT
    used = batch_size * BATCH_COUNT
    batch_sums = np.zeros(BATCH_COUNT)
    total = 0.0
    observe = _array_observable(phi)

    # Only the sampled law is integrated; its enclosures are not needed.  It
    # comes first, so the orbit's pieces reuse the memory of its word table.
    _, target = sample_target(sys, target_samples, seed=seed + 104729)
    vals = observe(target.points.T) if observe else np.array([f_phi(tuple(pt_)) for pt_ in target.points])
    reference = float((vals * target.weights).sum())
    reference_sigma = float(vals.std(ddof=1) / np.sqrt(target_samples))
    del target, vals
    done = 0
    for coords, _ in _orbit(sys, x, used, np.random.default_rng(seed)):
        values = observe(coords) if observe else np.array(list(map(f_phi, zip(*coords.tolist()))), dtype=float)
        total = _running_sum(total, values)
        stop = done + len(values)
        for b in range(done // batch_size, (stop - 1) // batch_size + 1):
            piece = values[max(b * batch_size, done) - done : min((b + 1) * batch_size, stop) - done]
            batch_sums[b] = _running_sum(batch_sums[b], piece)
        done = stop

    average = total / used
    batch_means = batch_sums / batch_size
    batch_sigma = float(batch_means.std(ddof=1) / np.sqrt(BATCH_COUNT))

    return ErgodicResult(
        average=average,
        batch_sigma=batch_sigma,
        reference=reference,
        reference_sigma=reference_sigma,
        steps=used,
    )
