"""Split certificates, horizon sweeps, witness search, normalization."""

import itertools
import tracemalloc

import pytest

from conftest import (
    SPLITTING_SYSTEMS,
    UNIT,
    cantor_iid,
    cantor_markov,
    cantor_maps,
    diagonal_2d,
    moebius_pair,
)
from markovprod import (
    AffineMap,
    BudgetExceeded,
    InadmissibleWord,
    IntervalBox,
    LastSymbolMismatch,
    MapSystem,
    NoRowPositiveState,
    NotMonotoneSystem,
    NotPrimitive,
    SplitWitness,
    build_shift,
    certify_split,
    normalize_witness,
    search_witness,
    verify_split_horizon,
)
from markovprod.shift import cylinder_measure, is_admissible

IID = [[0.5, 0.5], [0.5, 0.5]]


def halves_touching() -> MapSystem:
    # f1 = x/2, f2 = x/2 + 1/2: the two branch images meet at 1/2, so the
    # natural candidate pair fails the strict-separation requirement.
    return MapSystem(
        shift=build_shift(IID),
        maps=(AffineMap(((0.5,),), (0.0,)), AffineMap(((0.5,),), (0.5,))),
        ambient=UNIT,
    )


def folded_pair() -> MapSystem:
    # f1 = x/2 increasing, f2 = 1 - x/2 decreasing: no common monotone class,
    # certification must fall back to 1-D injectivity.
    return MapSystem(
        shift=build_shift(IID),
        maps=(AffineMap(((0.5,),), (0.0,)), AffineMap(((-0.5,),), (1.0,))),
        ambient=UNIT,
    )


def squeeze() -> MapSystem:
    # f1 = x/3 and f2 = 0.5 + 1e-9 (x - 0.5): f2 squeezes the unit interval
    # onto a sliver around 1/2, so two witness images it maps overlap.
    return MapSystem(
        shift=build_shift(IID),
        maps=(AffineMap(((1.0 / 3.0,),), (0.0,)), AffineMap(((1e-9,),), (0.5 - 0.5e-9,))),
        ambient=UNIT,
    )


# --- certify_split ------------------------------------------------------


def test_certify_cantor_pair():
    w = certify_split(cantor_iid(), (1, 1), (2, 1))
    assert w is not None
    assert w.certified_by == "monotone-order"
    assert w.signs == ("+",)
    assert w.box_a.lo[0] == 0.0
    assert abs(w.box_a.hi[0] - 1.0 / 9.0) <= 1e-16
    assert abs(w.box_b.lo[0] - 2.0 / 9.0) <= 1e-16
    assert abs(w.box_b.hi[0] - 1.0 / 3.0) <= 1e-16


def test_certify_requires_shared_last_symbol():
    with pytest.raises(LastSymbolMismatch):
        certify_split(cantor_iid(), (1,), (2,))


def test_certify_rejects_inadmissible_word():
    sys = MapSystem(
        shift=build_shift([[0.5, 0.5], [1.0, 0.0]]),
        maps=cantor_maps(),
        ambient=UNIT,
    )
    with pytest.raises(InadmissibleWord):
        certify_split(sys, (2, 2, 1), (1, 1))


def test_certify_touching_images_fail_strictness():
    assert certify_split(halves_touching(), (1, 1), (2, 1)) is None


def test_certify_diagonal_2d():
    w = certify_split(diagonal_2d(), (1, 1), (2, 1))
    assert w is not None
    assert w.certified_by == "monotone-order"
    assert w.signs == ("+", "+")


def test_certify_injective_route_without_monotone_class():
    # Images under (2,2) and (1,2): f2 f2(M) = [3/8, 1/2]... compute:
    # word (2,2): f2(f2(M)) with f2 = 1 - x/2: f2(M) = [1/2, 1], then
    # f2([1/2,1]) = [1/2, 3/4].  word (1,2): f2(f1(M)) = f2([0,1/2]) =
    # [3/4, 1].  Touching at 3/4, so try (2,2,2) vs (1,1,2) instead:
    sys = folded_pair()
    w = certify_split(sys, (2, 2, 2), (1, 1, 2))
    assert w is not None
    assert w.certified_by == "injective-1d"
    assert w.signs is None


def test_certify_not_monotone_2d_raises():
    sys = MapSystem(
        shift=build_shift([[1.0]]),
        maps=(AffineMap(((1.0 / 3.0, 0.0), (0.0, -1.0 / 3.0)), (0.0, 1.0)),),
        ambient=IntervalBox((0.0, 0.0), (1.0, 1.0)),
    )
    with pytest.raises(NotMonotoneSystem):
        certify_split(sys, (1,), (1,))


# --- verify_split_horizon -----------------------------------------------


def test_horizon_cantor_exhaustive_certified():
    report = verify_split_horizon(cantor_iid(), (1, 1), (2, 1), 5)
    assert report.verdict == "certified"
    assert report.exhaustive
    assert report.prefixes_checked == 32
    assert report.per_n == ("certified",) * 6
    assert report.certified_to == 5
    assert report.violation is None


def test_horizon_equal_words_violated_at_zero():
    report = verify_split_horizon(cantor_iid(), (1, 1), (1, 1), 3)
    assert report.verdict == "violated"
    assert report.violation == (0, 1, ())
    assert report.per_n[0] == "violated"


@pytest.mark.parametrize("prefix_samples", [None, 0, 5])
def test_horizon_root_violation_in_both_walks(prefix_samples):
    # With no samples the sampled walk still checks the root.
    report = verify_split_horizon(cantor_iid(), (1, 1), (1, 1), 3, prefix_samples=prefix_samples)
    assert report.violation == (0, 1, ())
    assert report.per_n[0] == "violated"


def test_horizon_folded_touching_violated():
    # Image intervals [0, 1/4] and [1/4, 1/2] share the point 1/4, which the
    # corner-seeded cloud attains exactly on both sides.
    report = verify_split_horizon(folded_pair(), (1, 1), (2, 1), 3)
    assert report.verdict == "violated"
    assert report.violation == (0, 1, ())


def test_horizon_reports_the_first_violation_in_preorder():
    # (2, 2) overlaps at depth 2, but (1, 2, 2) overlaps at depth 3 and comes
    # first in preorder: a prefix sorts before its extensions, and (1, ...)
    # before (2, ...).  Depth 2 is then not certified and not the violation.
    report = verify_split_horizon(squeeze(), (1, 1), (2, 1), 3)
    assert report.violation == (3, 1, (1, 2, 2))
    assert report.per_n == ("certified", "certified", "not-falsified", "violated")
    assert report.certified_to == 1


def test_horizon_sampled_reports_the_first_violating_sample():
    report = verify_split_horizon(squeeze(), (1, 1), (2, 1), 3, prefix_samples=7, seed=5)
    assert report.violation == (2, 1, (2, 2))
    assert report.per_n == ("certified", "certified", "violated", "not-falsified")


def traced_peak(**kwargs) -> int:
    tracemalloc.start()
    try:
        verify_split_horizon(moebius_pair(), (1, 1), (2, 1), **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_horizon_sampled_walk_memory_is_capped():
    # The samples are drawn and walked a block at a time, and a block is
    # dropped once its children are out, so memory grows neither with the
    # number of samples (the whole symbol table would add 7.5 MiB here) nor
    # with the depth (one block per depth would add about 44 MiB).
    few, many = (traced_peak(n_max=20, prefix_samples=s, cloud_size=2) for s in (16_384, 65_536))
    assert many < few + 2 * 2**20
    assert traced_peak(n_max=200, prefix_samples=2000, cloud_size=4) < 6 * 2**20


def test_horizon_sampled_mode():
    report = verify_split_horizon(
        cantor_markov(), (1, 1), (2, 1), 8, prefix_samples=50, seed=7
    )
    assert not report.exhaustive
    assert report.prefixes_checked == 50
    assert report.verdict == "certified"
    assert report.certified_to == 8


def test_horizon_budget_guard():
    with pytest.raises(BudgetExceeded):
        verify_split_horizon(cantor_iid(), (1, 1), (2, 1), 21)


@pytest.mark.parametrize("name", sorted(SPLITTING_SYSTEMS))
def test_horizon_certifies_reference_witnesses(name):
    sys = SPLITTING_SYSTEMS[name]()
    report = verify_split_horizon(sys, (1, 1), (2, 1), 10)
    assert report.exhaustive
    assert report.verdict == "certified"
    assert report.prefixes_checked == 1024


# --- search_witness -----------------------------------------------------


def test_search_cantor_smallest_pair():
    w = search_witness(cantor_iid(), 2)
    assert w is not None
    assert (w.word_a, w.word_b) == ((1, 1), (2, 1))


def test_search_too_short_returns_none():
    assert search_witness(cantor_iid(), 1) is None


def test_search_identical_maps_returns_none():
    f = AffineMap(((1.0 / 3.0,),), (0.0,))
    sys = MapSystem(shift=build_shift(IID), maps=(f, f), ambient=UNIT)
    assert search_witness(sys, 3) is None


def test_search_minimality_and_order():
    # Independent re-enumeration: the returned witness must be the first
    # certified pair in (total length, len(word_a), lex, lex) order.
    sys = moebius_pair()
    found = search_witness(sys, 3)
    assert found is not None

    def words_of(length):
        return [
            w
            for w in itertools.product((1, 2), repeat=length)
            if is_admissible(sys.shift, w)
        ]

    first = None
    for total in range(2, 7):
        if first:
            break
        for la in range(max(1, total - 3), min(3, total - 1) + 1):
            if first:
                break
            for wa in words_of(la):
                if first:
                    break
                for wb in words_of(total - la):
                    if wa[-1] != wb[-1] or wa == wb:
                        continue
                    if certify_split(sys, wa, wb) is not None:
                        first = (wa, wb)
                        break
    assert first == (found.word_a, found.word_b)


def test_search_respects_admissibility():
    sys = MapSystem(
        shift=build_shift([[0.5, 0.5], [1.0, 0.0]]),
        maps=cantor_maps(),
        ambient=UNIT,
    )
    w = search_witness(sys, 3)
    assert w is not None
    for word in (w.word_a, w.word_b):
        assert is_admissible(sys.shift, word)
        assert all((a, b) != (2, 2) for a, b in zip(word, word[1:]))


# --- normalize_witness --------------------------------------------------


def test_normalize_equal_length_relaxed():
    sys = cantor_iid()
    w = certify_split(sys, (1, 1), (2, 1))
    pair = normalize_witness(sys, w)
    assert pair.xi == (1, 1)
    assert pair.eta == (1, 2)
    assert not pair.endpoint_matched
    assert pair.block_length == 2
    assert pair.xi[0] == pair.eta[0]
    for word in (pair.xi, pair.eta):
        assert is_admissible(sys.shift, word, inverse=True)
        assert cylinder_measure(sys.shift, word, inverse=True) > 0.0


def test_normalize_strict_endpoints():
    sys = cantor_iid()
    w = certify_split(sys, (1, 1), (2, 1))
    pair = normalize_witness(sys, w, strict_endpoints=True)
    assert pair.xi == (1, 1, 1)
    assert pair.eta == (1, 2, 1)
    assert pair.endpoint_matched
    assert pair.xi[-1] == pair.eta[-1]


def test_normalize_unequal_lengths_uses_connector():
    sys = cantor_markov()
    w = certify_split(sys, (1, 1), (2, 2, 1))
    assert w is not None
    pair = normalize_witness(sys, w)
    assert pair.xi == (1, 1, 1, 1)
    assert pair.eta == (1, 2, 2, 1)
    assert pair.endpoint_matched
    assert abs(cylinder_measure(sys.shift, pair.xi, inverse=True) - 0.486) <= 1e-15
    assert (
        abs(cylinder_measure(sys.shift, pair.eta, inverse=True) - (2.0 / 3.0) * 0.1 * 0.8 * 0.2)
        <= 1e-17
    )


def test_normalize_row_positive_mode():
    sys = cantor_markov()
    w = certify_split(sys, (1, 1), (2, 1))
    pair = normalize_witness(sys, w, mode="row-positive")
    assert pair.xi == (1, 1, 1)
    assert pair.eta == (1, 1, 2)
    assert pair.xi[0] == pair.eta[0]
    # The defining property: the shared first symbol has a positive row.
    assert all(float(v) > 0.0 for v in sys.shift.P[pair.xi[0] - 1])
    for word in (pair.xi, pair.eta):
        assert is_admissible(sys.shift, word, inverse=True)


def test_normalize_requires_primitive_shift():
    sys = MapSystem(
        shift=build_shift([[0.0, 1.0], [1.0, 0.0]]),
        maps=cantor_maps(),
        ambient=UNIT,
    )
    fake = SplitWitness(
        word_a=(2, 1),
        word_b=(1, 2, 1),
        box_a=IntervalBox((0.0,), (0.1,)),
        box_b=IntervalBox((0.2,), (0.3,)),
        certified_by="monotone-order",
        signs=("+",),
    )
    with pytest.raises(NotPrimitive):
        normalize_witness(sys, fake)
    with pytest.raises(NoRowPositiveState):
        normalize_witness(sys, fake, mode="row-positive")


def test_normalize_rejects_unknown_mode():
    sys = cantor_iid()
    w = certify_split(sys, (1, 1), (2, 1))
    with pytest.raises(ValueError):
        normalize_witness(sys, w, mode="other")


@pytest.mark.parametrize("name", sorted(SPLITTING_SYSTEMS))
def test_normalize_contract_on_reference_systems(name):
    # Equal lengths, shared first symbol, strictly positive inverse measure:
    # the exact contract the enumeration oracle relies on.
    sys = SPLITTING_SYSTEMS[name]()
    w = certify_split(sys, (1, 1), (2, 1))
    assert w is not None
    pair = normalize_witness(sys, w)
    assert len(pair.xi) == len(pair.eta)
    assert pair.xi[0] == pair.eta[0]
    assert pair.xi != pair.eta
    for word in (pair.xi, pair.eta):
        assert cylinder_measure(sys.shift, word, inverse=True) > 0.0
