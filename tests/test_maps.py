"""Interval boxes, affine/Moebius maps, orbits, enclosures, monotone classes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import THIRD, UNIT, cantor_iid, cantor_markov, diagonal_2d, moebius_pair
from markovprod import (
    AffineMap,
    DenominatorVanishes,
    InadmissibleWord,
    IntervalBox,
    MapSystem,
    MoebiusMap,
    NotSelfMapping,
    OutsideDomain,
    box_image,
    build_shift,
    evaluate_map,
    forward_box_chain,
    monotone_classes,
    reverse_box,
    reverse_composition,
)
from markovprod.maps import (
    batch_reverse_boxes,
    batch_reverse_points,
    injective,
    map_boxes,
    map_points,
    orbit,
    sign_table,
)
from markovprod.splitting import ambient_cloud

IID = [[0.5, 0.5], [0.5, 0.5]]


def in_order_cone(x, y, signs: tuple[str, ...]) -> bool:
    """Strict order x < y coordinatewise, with '-' coordinates reversed."""
    return all((a < b) if s == "+" else (a > b) for a, b, s in zip(x, y, signs))


def decreasing_pair() -> MapSystem:
    # Two decreasing contractions; ambient chosen so both are self-maps.
    return MapSystem(
        shift=build_shift(IID),
        maps=(AffineMap(((-0.5,),), (1.0,)), AffineMap(((-0.5,),), (0.25,))),
        ambient=IntervalBox((-1.0,), (1.5,)),
    )


# --- IntervalBox --------------------------------------------------------


def test_box_rejects_empty_interval():
    with pytest.raises(ValueError):
        IntervalBox((1.0,), (0.0,))


@pytest.mark.parametrize("lo, hi", [((float("nan"),), (1.0,)), ((0.0,), (float("nan"),)),
                                    ((0.0, float("nan")), (1.0, 1.0))])
def test_box_rejects_nan_endpoints(lo, hi):
    with pytest.raises(ValueError, match="is empty"):
        IntervalBox(lo, hi)


def test_box_geometry():
    box = IntervalBox((0.0, 1.0), (0.5, 3.0))
    assert box.dim == 2
    assert box.project(2) == (1.0, 3.0)
    assert box.diameter() == 2.5
    assert box.center() == (0.25, 2.0)
    assert box.contains((0.5, 1.0))
    assert not box.contains((0.6, 2.0))
    assert box.contains_box(IntervalBox((0.1, 1.5), (0.2, 2.0)))
    assert len(box.corners()) == 4


# --- evaluation ---------------------------------------------------------


def test_evaluate_affine_1d():
    f = AffineMap(((THIRD,),), (0.0,))
    (y,) = evaluate_map(f, (0.6,))
    assert abs(y - 0.2) <= 1e-15


def test_evaluate_moebius_fixed_point():
    f = MoebiusMap(1, 0, -1, 2)  # x / (2 - x)
    assert evaluate_map(f, (1.0,)) == (1.0,)
    assert evaluate_map(f, (0.0,)) == (0.0,)


def test_evaluate_affine_2d():
    f = AffineMap(((THIRD, 0.0), (0.0, THIRD)), (0.0, 2.0 / 3.0))
    y = evaluate_map(f, (0.3, 0.3))
    assert abs(y[0] - 0.1) <= 1e-15
    assert abs(y[1] - 2.3 / 3.0) <= 1e-15


def test_evaluate_checks_ambient_when_given():
    f = AffineMap(((0.5,),), (0.0,))
    with pytest.raises(OutsideDomain):
        evaluate_map(f, (1.5,), ambient=UNIT)


def test_evaluate_moebius_pole():
    f = MoebiusMap(1.0, 0.0, -1.0, 0.5)
    with pytest.raises(DenominatorVanishes):
        evaluate_map(f, (0.5,))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        evaluate_map(AffineMap(((1.0,),), (0.0,)), (0.1, 0.2))


# --- box images ---------------------------------------------------------


def test_box_image_affine_1d():
    img = box_image(AffineMap(((THIRD,),), (0.0,)), UNIT)
    assert img.lo == (0.0,)
    assert img.hi == (THIRD,)


def test_box_image_affine_2d():
    f = AffineMap(((THIRD, 0.0), (0.0, THIRD)), (2.0 / 3.0, 0.0))
    img = box_image(f, IntervalBox((0.0, 0.0), (1.0, 1.0)))
    assert abs(img.lo[0] - 2.0 / 3.0) <= 1e-15
    assert abs(img.hi[0] - 1.0) <= 1e-15
    assert img.lo[1] == 0.0
    assert abs(img.hi[1] - THIRD) <= 1e-15


def test_box_image_negative_slope_swaps_endpoints():
    img = box_image(AffineMap(((-0.5,),), (1.0,)), UNIT)
    assert img.lo == (0.5,)
    assert img.hi == (1.0,)


def test_box_image_moebius_unit_fixed():
    img = box_image(MoebiusMap(1, 0, -1, 2), UNIT)
    assert img.lo == (0.0,)
    assert img.hi == (1.0,)


def test_box_image_moebius_pole_inside():
    with pytest.raises(DenominatorVanishes):
        box_image(MoebiusMap(1.0, 0.0, -1.0, 0.5), UNIT)


def test_map_system_rejects_escape():
    with pytest.raises(NotSelfMapping):
        MapSystem(
            shift=build_shift([[1.0]]),
            maps=(AffineMap(((2.0,),), (0.0,)),),
            ambient=UNIT,
        )


@pytest.mark.parametrize("f", [AffineMap(((float("nan"),),), (0.0,)), AffineMap(((0.5,),), (float("nan"),)),
                               MoebiusMap(float("nan"), 0.0, 0.0, 1.0)], ids=["matrix", "offset", "moebius"])
def test_map_system_rejects_a_map_with_a_nan_image(f):
    # The image [nan, nan] fails the box check, so the map is not self-mapping.
    with pytest.raises(NotSelfMapping, match="map 1 sends the ambient box to no interval"):
        MapSystem(shift=build_shift([[1.0]]), maps=(f,), ambient=UNIT)


def test_map_system_rejects_pole_in_ambient():
    with pytest.raises(DenominatorVanishes):
        MapSystem(
            shift=build_shift([[1.0]]),
            maps=(MoebiusMap(1.0, 0.0, -1.0, 0.5),),
            ambient=UNIT,
        )


# --- orbits and compositions --------------------------------------------


def orbit_point(sys, word, x):
    """Apply f_{w_1} first: the orbit point f_{w_n} o ... o f_{w_1}(x)."""
    return orbit(evaluate_map, sys.maps, word, x)[-1]


def test_forward_orbit_examples():
    sys = cantor_iid()
    assert orbit_point(sys, (), (0.7,)) == (0.7,)
    (y,) = orbit_point(sys, (1, 2), (0.0,))
    assert abs(y - 2.0 / 3.0) <= 1e-16
    (z,) = orbit_point(sys, (1, 1, 1), (1.0,))
    assert abs(z - 1.0 / 27.0) <= 1e-16


def test_reverse_composition_outside_domain():
    with pytest.raises(OutsideDomain):
        reverse_composition(cantor_iid(), (1,), (2.0,))


@pytest.mark.parametrize("point", [(), (0.3, 0.4)], ids=["empty", "two-coordinates"])
def test_point_of_another_dimension_is_outside_the_box(point):
    sys = cantor_markov()
    assert not sys.ambient.contains(point)
    with pytest.raises(OutsideDomain):
        reverse_composition(sys, (), point)


def test_reverse_composition_examples():
    sys = cantor_iid()
    (y,) = reverse_composition(sys, (1, 2), (0.0,))
    assert abs(y - 2.0 / 9.0) <= 1e-16
    # Single symbol: both orders coincide with plain evaluation.
    assert reverse_composition(sys, (2,), (0.5,)) == evaluate_map(sys.maps[1], (0.5,))
    assert orbit_point(sys, (2,), (0.5,)) == evaluate_map(sys.maps[1], (0.5,))


def test_reverse_composition_periodic_limit():
    # (1,2)-periodic coding point solves x = f1(f2(x)), i.e. x = 1/4.
    sys = cantor_iid()
    for n, scale in [(5, 9.0**-5), (10, 9.0**-10)]:
        (y,) = reverse_composition(sys, (1, 2) * n, (0.5,))
        assert abs(y - 0.25) <= scale


def test_order_of_composition_differs():
    sys = cantor_iid()
    assert orbit_point(sys, (1, 2), (0.0,)) != reverse_composition(sys, (1, 2), (0.0,))


# --- box chains ---------------------------------------------------------


def test_forward_box_chain_indexing():
    sys = cantor_iid()
    chain = forward_box_chain(sys, (1, 2))
    assert len(chain) == 3
    assert chain[0] == sys.ambient
    assert chain[1].hi[0] == pytest.approx(THIRD, abs=1e-16)
    assert chain[2].lo[0] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_reverse_box_equals_forward_box_of_reversed_word():
    sys = cantor_iid()
    word = (1, 2, 2, 1)
    assert reverse_box(sys, word) == forward_box_chain(sys, tuple(reversed(word)))[-1]


def test_batch_reverse_points_matches_scalar():
    sys = moebius_pair()
    words = np.array([[1, 2, 1], [2, 2, 2], [1, 1, 2]])
    pts = batch_reverse_points(sys, words, (0.5,))
    for row, pt in zip(words, pts):
        expected = reverse_composition(sys, tuple(int(a) for a in row), (0.5,))
        assert abs(pt[0] - expected[0]) <= 1e-15


def test_batch_reverse_boxes_matches_scalar():
    sys = cantor_markov()
    words = np.array([[1, 2, 1, 1], [2, 1, 2, 2], [1, 1, 1, 1]])
    lo, hi = batch_reverse_boxes(sys, words)
    for row, a, b in zip(words, lo, hi):
        box = reverse_box(sys, tuple(int(v) for v in row))
        assert abs(a[0] - box.lo[0]) <= 1e-15
        assert abs(b[0] - box.hi[0]) <= 1e-15


# --- monotone classes ---------------------------------------------------


def test_sign_tables():
    assert sign_table(MoebiusMap(1, 0, -1, 2)) == (("+",),)
    assert sign_table(MoebiusMap(0, 1, 1, 1)) == (("-",),)
    assert sign_table(AffineMap(((THIRD, 0.0), (0.0, -THIRD)), (0.0, 1.0))) == (
        ("+", "0"),
        ("0", "-"),
    )


def test_monotone_classes_increasing_1d():
    classes = monotone_classes(cantor_iid())
    assert list(classes) == [("+",)]


def test_monotone_classes_decreasing_1d():
    classes = monotone_classes(decreasing_pair())
    assert list(classes) == [("-",)]


def test_monotone_classes_diagonal_2d():
    classes = monotone_classes(diagonal_2d())
    assert list(classes) == [("+", "+"), ("+", "-")]


def test_monotone_classes_mixed_sign_diagonal_empty():
    sys = MapSystem(
        shift=build_shift([[1.0]]),
        maps=(AffineMap(((THIRD, 0.0), (0.0, -THIRD)), (0.0, 1.0)),),
        ambient=IntervalBox((0.0, 0.0), (1.0, 1.0)),
    )
    assert monotone_classes(sys) == ()


def test_monotone_classes_zero_row_rejected():
    # A coordinate that depends on nothing cannot preserve any strict order.
    sys = MapSystem(
        shift=build_shift([[1.0]]),
        maps=(AffineMap(((0.0, 0.0), (0.0, THIRD)), (0.5, 0.0)),),
        ambient=IntervalBox((0.0, 0.0), (1.0, 1.0)),
    )
    assert monotone_classes(sys) == ()


def test_injectivity():
    assert injective(MoebiusMap(1, 0, -1, 2))
    assert not injective(MoebiusMap(1.0, 2.0, 0.5, 1.0))  # det = 0
    assert injective(AffineMap(((0.5,),), (0.0,)))
    assert not injective(AffineMap(((0.0,),), (0.5,)))


def test_in_order_cone():
    assert in_order_cone((0.0, 1.0), (0.5, 0.5), ("+", "-"))
    assert not in_order_cone((0.0, 1.0), (0.5, 2.0), ("+", "-"))
    assert not in_order_cone((0.0,), (0.0,), ("+",))  # strict


def test_order_cone_preserved_by_increasing_words():
    sys = moebius_pair()
    rng = np.random.default_rng(3)
    for trial in range(20):
        word = tuple(rng.integers(1, 3, size=20))
        x, y = sorted(rng.random(2))
        if x == y:
            continue
        fx = orbit_point(sys, word, (x,))
        fy = orbit_point(sys, word, (y,))
        assert in_order_cone(fx, fy, ("+",))


def test_order_cone_alternates_for_decreasing_class():
    # With every map order-reversing, the cone flips each step and returns
    # after every second one.
    sys = decreasing_pair()
    x, y = (0.1,), (0.3,)
    for word in [(1,), (2,), (1, 2), (2, 2), (1, 2, 1)]:
        fx = orbit_point(sys, word, x)
        fy = orbit_point(sys, word, y)
        if len(word) % 2 == 0:
            assert in_order_cone(fx, fy, ("+",))
        else:
            assert in_order_cone(fy, fx, ("+",))


def test_monotone_classes_2d_cross_terms():
    # Strictly positive matrix: only the all-plus pattern survives.
    f = AffineMap(((0.25, 0.25), (0.1, 0.2)), (0.1, 0.1))
    sys = MapSystem(
        shift=build_shift([[1.0]]),
        maps=(f,),
        ambient=IntervalBox((0.0, 0.0), (1.0, 1.0)),
    )
    assert list(monotone_classes(sys)) == [("+", "+")]


# --- vectorised helpers -------------------------------------------------


def test_map_points_matches_evaluate():
    for f in (
        AffineMap(((0.3, 0.1), (0.0, 0.5)), (0.1, 0.2)),
        MoebiusMap(1.0, 0.5, 0.2, 2.0),
    ):
        dim = f.dim
        rng = np.random.default_rng(0)
        pts = rng.random((50, dim))
        out = map_points(f, pts)
        for x, y in zip(pts, out):
            expected = evaluate_map(f, tuple(x))
            assert max(abs(a - b) for a, b in zip(expected, y)) <= 1e-15


@pytest.mark.parametrize(
    "f", [MoebiusMap(1, 0, -1, 4), AffineMap(((0.5,),), (0.25,))], ids=["moebius", "affine"]
)
def test_batch_kernels_reject_rows_of_another_dimension(f):
    rows = np.array([[0.2, 0.5]])
    for pts in (rows, np.array([0.2, 0.5])):
        with pytest.raises(ValueError, match="fed to a 1-dimensional map"):
            map_points(f, pts)
    for lo, hi in ((rows, rows), (rows[:, :1], rows)):
        with pytest.raises(ValueError, match="box dimension does not match the map"):
            map_boxes(f, lo, hi)


def test_batch_reverse_points_takes_one_anchor_per_word():
    sys = moebius_pair()
    words = np.array([[1, 2, 2], [2, 1, 1], [1, 1, 2]])
    anchors = np.array([[0.1], [0.5], [0.9]])
    rows = batch_reverse_points(sys, words, anchors)
    for word, anchor, row in zip(words, anchors, rows):
        assert row.tolist() == batch_reverse_points(sys, word[None, :], anchor).tolist()[0]


@pytest.mark.parametrize("words, bad", [([[0, 2], [1, 1]], 0), ([[1, 2], [3, 1]], 3)])
def test_batch_compositions_reject_symbols_outside_the_alphabet(words, bad):
    # A symbol no map answers to must not be skipped: [[0, 2], [3, 1]]
    # would otherwise give the rows of [[2], [1]].
    sys = moebius_pair()
    with pytest.raises(InadmissibleWord, match=f"symbol {bad} outside 1..2"):
        batch_reverse_points(sys, np.array(words), sys.ambient.center())
    with pytest.raises(InadmissibleWord, match=f"symbol {bad} outside 1..2"):
        batch_reverse_boxes(sys, np.array(words))


def test_batch_compositions_take_empty_word_arrays():
    sys = moebius_pair()
    assert batch_reverse_points(sys, np.zeros((0, 3), dtype=int), (0.5,)).shape == (0, 1)
    lo, hi = batch_reverse_boxes(sys, np.zeros((2, 0), dtype=int))
    assert lo.tolist() == [[0.0], [0.0]] and hi.tolist() == [[1.0], [1.0]]


def test_ambient_cloud_contains_corners_and_stays_inside():
    sys = diagonal_2d()
    cloud = ambient_cloud(sys, 64)
    assert cloud.shape == (64, 2)
    corner_set = {tuple(c) for c in sys.ambient.corners()}
    assert corner_set <= {tuple(row) for row in cloud}
    for row in cloud:
        assert sys.ambient.contains(tuple(row))


# --- properties ---------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    w1=st.lists(st.integers(1, 2), max_size=6),
    w2=st.lists(st.integers(1, 2), max_size=6),
    x=st.floats(0.0, 1.0),
)
def test_orbit_concatenation_property(w1, w2, x):
    sys = cantor_iid()
    w1, w2 = tuple(w1), tuple(w2)
    whole = orbit_point(sys, w1 + w2, (x,))
    staged = orbit_point(sys, w2, orbit_point(sys, w1, (x,)))
    assert abs(whole[0] - staged[0]) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(word=st.lists(st.integers(1, 2), min_size=1, max_size=10), seed=st.integers(0, 99))
def test_box_image_projection_exact_for_samples(word, seed):
    # Every mapped sample stays within the enclosure, and for affine maps the
    # corner-seeded cloud attains each projection's endpoints exactly.
    sys = diagonal_2d()
    word = tuple(word)
    box = forward_box_chain(sys, word)[-1]
    cloud = ambient_cloud(sys, 128)
    for s in word:
        cloud = map_points(sys.map_for(s), cloud)
    for s in (1, 2):
        lo, hi = box.project(s)
        vals = cloud[:, s - 1]
        assert float(vals.min()) == lo
        assert float(vals.max()) == hi
