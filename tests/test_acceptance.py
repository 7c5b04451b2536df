"""Acceptance gate: ten numbered end-to-end checks with contractual tolerances.

Each test prints a single PASS/FAIL line, so ``pytest -s tests/test_acceptance.py``
reads as a checklist.  Every check runs the public API at desk scale with
fixed seeds; the timed criteria also assert a wall-clock budget around their
computational core.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from conftest import (
    SPLITTING_SYSTEMS,
    THIRD,
    cantor_iid,
    identity_control,
    moebius_pair,
    random_irreducible,
)
from markovprod.markov_operator import (
    build_initial,
    estimate_target,
    stability_experiment,
    weak_star_distance,
)
from markovprod.oracle import avoidance_measure, verify_bounds
from markovprod.shift import (
    build_shift,
    cylinder_measure,
    inverse_transition,
    sample_words,
    stationary_vector,
)
from markovprod.splitting import certify_split, normalize_witness
from markovprod.synchronization import (
    coding_invariance,
    coding_point,
    ergodic_average,
    measure_contraction_experiment,
    sync_experiment,
    weak_hyperbolicity_experiment,
)


def _report(criterion: int, label: str, ok: bool, problems: list[str] | None = None) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion:2d}: {label}")
    detail = "; ".join(problems) if problems else label
    assert ok, f"criterion {criterion}: {detail}"


def _normalized_pair(sys_):
    witness = certify_split(sys_, (1, 1), (2, 1))
    assert witness is not None
    return normalize_witness(sys_, witness, "primitive")


def test_criterion_01_shift_algebra_on_random_chains():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 11))
        P = random_irreducible(int(rng.integers(0, 2**31)), k)
        p = stationary_vector(P)
        Q = inverse_transition(P, p)
        back = inverse_transition(Q, p)
        worst = max(
            worst,
            float(np.abs(p @ P - p).max()),
            float(np.abs(Q.sum(axis=1) - 1.0).max()),
            float(np.abs(p @ Q - p).max()),
            float(np.abs(back - P).max()),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(
        1,
        f"stationarity/reversal/double-inverse on 1000 random chains, "
        f"worst residual {worst:.2e}, {elapsed:.2f}s (< 5s)",
        ok,
    )


def test_criterion_02_reversal_identity_exhaustive():
    matrices = (
        [[0.9, 0.1], [0.2, 0.8]],
        [[0.2, 0.3, 0.5], [0.4, 0.4, 0.2], [0.25, 0.5, 0.25]],
        [[0.0, 0.5, 0.5], [0.3, 0.3, 0.4], [1.0, 0.0, 0.0]],
    )
    worst = 0.0
    count = 0
    for matrix in matrices:
        shift = build_shift(matrix)
        for n in range(1, 7):
            for word in itertools.product(range(1, shift.k + 1), repeat=n):
                lhs = cylinder_measure(shift, word, inverse=True)
                rhs = cylinder_measure(shift, tuple(reversed(word)))
                worst = max(worst, abs(lhs - rhs))
                count += 1
    ok = worst <= 1e-12
    _report(
        2,
        f"inverse measure equals reversed forward measure on all {count} words "
        f"of length <= 6 (k <= 3), worst gap {worst:.2e}",
        ok,
    )


def test_criterion_03_exact_rational_bound_tables():
    t0 = time.perf_counter()
    problems = []
    for name in ("cantor_iid", "cantor_markov", "moebius_pair"):
        sys_ = SPLITTING_SYSTEMS[name]()
        report = verify_bounds(sys_, _normalized_pair(sys_), s=1, ell_max=6, exact=True)
        if report.block_length != 2:
            problems.append(f"{name}: block length {report.block_length}")
        if not isinstance(report.rows[0].lhs, Fraction):
            problems.append(f"{name}: lhs is not a rational")
        if len(report.rows) != 6 * 33:
            problems.append(f"{name}: {len(report.rows)} rows, expected 198")
        bad = sum(
            1
            for row in report.rows
            if not (row.bound_holds and row.injective and row.measure_monotone)
        )
        if bad:
            problems.append(f"{name}: {bad} failing rows")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    _report(
        3,
        f"exact rational bound tables (ell <= 6, 33-point grid) on three systems, "
        f"{elapsed:.1f}s (< 60s)",
        ok,
        problems,
    )


def test_criterion_04_geometric_avoidance_bound_and_equality():
    problems = []
    for name in ("cantor_iid", "cantor_markov"):
        sys_ = SPLITTING_SYSTEMS[name]()
        report = verify_bounds(sys_, _normalized_pair(sys_), s=1, x_grid=(0.5,), ell_max=10)
        bad = [row.ell for row in report.rows if not row.geometric_holds]
        if bad:
            problems.append(f"{name}: geometric bound fails at ell {bad}")
    shift = cantor_iid().shift
    worst = max(
        abs(avoidance_measure(shift, (1, 1), ell) - 0.75**ell) for ell in range(1, 11)
    )
    if worst > 1e-12:
        problems.append(f"closed-form equality gap {worst:.2e}")
    ok = not problems
    _report(
        4,
        "avoidance measure below (1 - rho0)^ell for ell <= 10 and equal to "
        f"(3/4)^ell on the symmetric system (worst gap {worst:.2e})",
        ok,
        problems,
    )


def test_criterion_05_synchronization_rates():
    t0 = time.perf_counter()
    problems = []
    for name in ("cantor_iid", "cantor_markov", "diagonal_2d"):
        result = sync_experiment(SPLITTING_SYSTEMS[name](), trials=100, n_max=20, seed=0)
        worst = max(abs(f.q_hat - THIRD) for f in result.fits)
        if worst > 1e-6:
            problems.append(f"{name}: worst |q - 1/3| = {worst:.2e}")
    result = sync_experiment(moebius_pair(), trials=100, n_max=30, seed=0)
    if result.contracting_fraction != 1.0:
        problems.append("moebius_pair: a trial fitted q >= 1")
    gap = 0.0
    for curve, fit in zip(result.curves, result.fits):
        ups = [u for u in curve.upper if u > 1e-12]
        gm = (ups[-1] / ups[0]) ** (1.0 / (len(ups) - 1))
        gap = max(gap, abs(fit.q_hat - gm))
    if gap > 0.02:
        problems.append(f"moebius_pair: fit vs per-step geometric mean gap {gap:.3f}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 30.0
    _report(
        5,
        f"fitted decay rates: 1/3 within 1e-6 on 3 systems (100 trials each), "
        f"contracting with rate gap {gap:.3f} (<= 0.02) on the non-affine pair, "
        f"{elapsed:.1f}s (< 30s)",
        ok,
        problems,
    )


def test_criterion_06_projected_enclosure_lengths():
    result = measure_contraction_experiment(cantor_iid(), trials=10, n_max=30, seed=0)
    worst = max(abs(row.length - 3.0**-row.n) for row in result.rows)
    ok = worst <= 1e-12
    _report(
        6,
        f"projected image lengths equal 3^-n for n <= 30, worst gap {worst:.2e}",
        ok,
    )


def test_criterion_07_weak_hyperbolicity_fractions():
    problems = []
    for name, factory in SPLITTING_SYSTEMS.items():
        res = weak_hyperbolicity_experiment(factory(), trials=10_000, depth=40, tol=1e-9, seed=11)
        if res.fraction != 1.0:
            problems.append(f"{name}: fraction {res.fraction}")
    control = weak_hyperbolicity_experiment(
        identity_control(), trials=10_000, depth=40, tol=1e-9, seed=11
    )
    if control.fraction != 0.0:
        problems.append(f"identity control: fraction {control.fraction}")
    ok = not problems
    _report(
        7,
        "fibre-diameter fraction 1.0 on all four splitting systems and 0.0 on "
        "the identity control (10^4 samples, depth 40, tol 1e-9)",
        ok,
        problems,
    )


def test_criterion_08_operator_mass_identity_and_stability():
    t0 = time.perf_counter()
    problems = []
    for name in ("cantor_iid", "cantor_markov"):
        sys_ = SPLITTING_SYSTEMS[name]()
        initials = {
            kind: build_initial(sys_, kind, 100_000, seed=5 + i)
            for i, kind in enumerate(("uniform", "corner", "center"))
        }
        result = stability_experiment(sys_, initials, 30, 100_000, seed=3)
        if result.mass_identity_error > 1e-12:
            problems.append(f"{name}: mass identity error {result.mass_identity_error:.2e}")
        rerun = stability_experiment(sys_, initials, 30, 100_000, seed=1234)
        if rerun.mass_identity_error > 1e-12:
            problems.append(
                f"{name}: mass identity error {rerun.mass_identity_error:.2e} "
                "under a different resampling seed"
            )
        finals = {row.initial_id: row.distance for row in result.rows if row.step == 30}
        if len(finals) != 3 or max(finals.values()) >= 0.02:
            problems.append(f"{name}: final distances {finals}")
        ta = estimate_target(sys_, 20_000, depth=64, seed=101)
        tb = estimate_target(sys_, 20_000, depth=64, seed=202)
        gap = weak_star_distance(ta.measure, tb.measure)
        if gap >= 0.01:
            problems.append(f"{name}: independent target estimates disagree by {gap:.4f}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 120.0
    _report(
        8,
        f"state masses track the chain exactly; 3 initial measures land within "
        f"0.02 of the target at step 30 with 10^5 particles; independent target "
        f"estimates agree within 0.01; {elapsed:.1f}s (< 120s)",
        ok,
        problems,
    )


def test_criterion_09_ergodic_averages():
    sys_ = cantor_iid()
    a = ergodic_average(sys_, (0.1,), ("coordinate", 1), 1_000_000, seed=17)
    b = ergodic_average(sys_, (0.9,), ("coordinate", 1), 1_000_000, seed=18)
    problems = []
    for label, res in (("start 0.1", a), ("start 0.9", b)):
        if abs(res.average - 0.5) > 3.0 * res.batch_sigma:
            problems.append(f"{label}: average {res.average:.6f} off 0.5 beyond 3 sigma")
    # The difference of two independent averages has sigma = hypot of the two.
    if abs(a.average - b.average) > 3.0 * math.hypot(a.batch_sigma, b.batch_sigma):
        problems.append(f"starts disagree: {a.average:.6f} vs {b.average:.6f}")
    ok = not problems
    _report(
        9,
        f"coordinate averages over 10^6 steps: {a.average:.5f} and {b.average:.5f}, "
        f"both within 3 batch sigma of 0.5 and of each other",
        ok,
        problems,
    )


def test_criterion_10_coding_map():
    sys_ = cantor_iid()
    problems = []
    p1, _ = coding_point(sys_, (1,) * 1000)
    p2, _ = coding_point(sys_, (2,) * 1000)
    if p1 != (0.0,):
        problems.append(f"constant-1 word coded to {p1}, not exactly 0")
    if p2 != (1.0,):
        problems.append(f"constant-2 word coded to {p2}, not exactly 1")
    pp, _ = coding_point(sys_, (1, 2) * 20)
    if abs(pp[0] - 0.25) > 1e-9:
        problems.append(f"(1,2)-periodic word coded to {pp[0]!r}, expected 0.25")
    words = sample_words(sys_.shift, 1000, 41, inverse=True, seed=23)
    _, _, violations = coding_invariance(sys_, words)
    if violations:
        problems.append(f"{violations} invariance residuals above the reported bounds")
    ok = not problems
    _report(
        10,
        "coding fixes both endpoint words exactly, codes the (1,2)-periodic word "
        "to 0.25 within 1e-9, and satisfies the invariance bound on 1000 samples",
        ok,
        problems,
    )
