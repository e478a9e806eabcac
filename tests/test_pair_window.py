"""The pairwise map operations work on the intersection of the two maps'
support boxes. These tests hold them equal to the full-frame forms they
replaced, which are kept below as references."""

from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from semdist import (
    LEVEL_ABSENT,
    BinaryMask,
    ConfidencePolicy,
    GenConfig,
    InstanceRecord,
    LayerStackScene,
    OrderRegions,
    OrderVerdict,
    PerturbConfig,
    SemDistMap,
    encode_scene,
    encode_semdist,
    generate,
    order_regions,
    overlap_region,
    perturb_semdist,
    relative_order,
    visibility_levels,
)
from semdist.metrics import _order_counts

F = np.float32


# ---------------------------------------------------------------------------
# full-frame references


def ref_visibility_levels(scene, instance_id):
    hits = scene.stacks == instance_id
    if hits.shape[0] == 0:
        return np.full((scene.height, scene.width), LEVEL_ABSENT, dtype=np.int32)
    present = hits.any(axis=0)
    levels = hits.argmax(axis=0).astype(np.int32)
    return np.where(present, levels, np.int32(LEVEL_ABSENT))


def _fraction(semdist):
    values = semdist.values
    return values - np.floor(values)


def ref_overlap_region(map_a, map_b, c):
    joint = _fraction(map_a) * _fraction(map_b)
    return joint > np.float64(c) * np.float64(c)


def ref_relative_order(map_a, map_b, c):
    omega = ref_overlap_region(map_a, map_b, c)
    diff = (np.floor(map_a.values) - np.floor(map_b.values)).astype(np.int32)
    return np.where(omega, diff, np.int32(0))


def _ref_largest_component(mask):
    if not mask.any():
        return 0
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    labels, _ = ndimage.label(mask, structure=structure)
    return int(np.bincount(labels.ravel())[1:].max())


def ref_order_regions(map_a, map_b, c):
    omega = ref_overlap_region(map_a, map_b, c)
    if not omega.any():
        return OrderRegions(OrderVerdict.DISJOINT, 0, 0, 0)
    votes = ref_relative_order(map_a, map_b, c)
    front = _ref_largest_component(votes > 0)
    behind = _ref_largest_component(votes < 0)
    if front == behind:
        verdict = OrderVerdict.AMBIGUOUS
    elif front > behind:
        verdict = OrderVerdict.A_IN_FRONT
    else:
        verdict = OrderVerdict.B_IN_FRONT
    return OrderRegions(verdict, int(omega.sum()), front, behind)


def ref_perturb_semdist(maps, config, c):
    """The full-frame body, which compared against c*c in float32; callers
    pass a c whose square float32 holds exactly, where float32 and float64
    agree."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    entries = sorted(maps, key=lambda item: item[0])
    values = {mid: np.array(m.values) for mid, m in entries}
    threshold = float(c) * float(c)
    for (id_a, map_a), (id_b, map_b) in combinations(entries, 2):
        joint = _fraction(map_a) * _fraction(map_b)
        omega = joint > threshold
        if not omega.any():
            continue
        if rng.uniform() >= config.level_flip_prob:
            continue
        va, vb = values[id_a], values[id_b]
        floor_a, floor_b = np.floor(va), np.floor(vb)
        va[omega] = (va - floor_a + floor_b)[omega]
        vb[omega] = (vb - floor_b + floor_a)[omega]
    return [(mid, SemDistMap(values[mid])) for mid, _ in entries]


def ref_order_counts(scene_gt, pred_maps, c, gt_confidence):
    by_id = dict(pred_maps)
    ids = sorted(scene_gt.ids())
    gt_maps = encode_scene(scene_gt, ConfidencePolicy(constant=gt_confidence))
    amodal = {i: gt_maps[i].values != 0.0 for i in ids}
    correct = evaluated = skipped = 0
    for id_a, id_b in combinations(ids, 2):
        if not (amodal[id_a] & amodal[id_b]).any():
            continue
        gt_verdict = ref_order_regions(gt_maps[id_a], gt_maps[id_b], c).verdict
        if gt_verdict in (OrderVerdict.AMBIGUOUS, OrderVerdict.DISJOINT):
            skipped += 1
            continue
        evaluated += 1
        map_a = by_id.get(id_a)
        map_b = by_id.get(id_b)
        if map_a is None or map_b is None:
            continue
        if ref_order_regions(map_a, map_b, c).verdict == gt_verdict:
            correct += 1
    return correct, evaluated, skipped


# ---------------------------------------------------------------------------
# cases


def _grid(shape, cells):
    values = np.zeros(shape, dtype=F)
    for (y, x), v in cells.items():
        values[y, x] = v
    return SemDistMap(values)


def _pair_cases():
    """(name, maps) cases that stress the window bounds."""
    cases = []
    h, w = 5, 7
    top = np.zeros((h, w), F)
    top[0, :] = F(0.9)
    left = np.zeros((h, w), F)
    left[:, 0] = F(0.8) - F(1)
    bottom = np.zeros((h, w), F)
    bottom[h - 1, :] = F(0.7) - F(2)
    right = np.zeros((h, w), F)
    right[:, w - 1] = F(0.95)
    full = np.full((h, w), F(0.6) - F(1), dtype=F)
    cases.append(("borders", [SemDistMap(v) for v in (top, left, bottom, right, full)]))

    corners = []
    for y, x in ((0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1)):
        v = np.zeros((h, w), F)
        v[y, x] = F(0.9)
        corners.append(SemDistMap(v))
    cases.append(("corners", corners + [SemDistMap(full)]))

    empty = SemDistMap(np.zeros((h, w), F))
    cases.append(("empty", [empty, SemDistMap(full), SemDistMap(top), empty]))
    cases.append(
        (
            "one_pixel",
            [SemDistMap(np.full((1, 1), v, F)) for v in (F(0.9), F(0.8) - F(1), F(0.0), F(0.6))],
        )
    )

    # boxes intersect, supports do not: an L and the corner it wraps, and two diagonals
    ell = np.zeros((4, 4), F)
    ell[0, :] = F(0.9)
    ell[:, 0] = F(0.9)
    corner = np.zeros((4, 4), F)
    corner[1:, 1:] = F(0.8) - F(1)
    cases.append(("l_shape", [SemDistMap(ell), SemDistMap(corner)]))
    diag = np.zeros((4, 4), F)
    anti = np.zeros((4, 4), F)
    for i in range(4):
        diag[i, i] = F(0.9)
        anti[i, 3 - i] = F(0.7) - F(1)
    shifted = np.zeros((4, 4), F)
    for i in range(3):
        shifted[i, i + 1] = F(0.85) - F(2)
    cases.append(("diagonals", [SemDistMap(diag), SemDistMap(anti), SemDistMap(shifted)]))

    # fraction 0: -0.0 lies outside the box, whole negatives inside it
    neg_zero = np.zeros((h, w), F)
    neg_zero[1:4, 1:5] = F(-0.0)
    neg_zero[2, 2] = F(0.9)
    whole = np.zeros((h, w), F)
    whole[0:3, 0:6] = F(-1.0)
    whole[4, 6] = F(-3.0)
    mixed = np.zeros((h, w), F)
    mixed[1:5, 2:7] = F(0.75) - F(1)
    mixed[2, 3] = F(-2.0)
    cases.append(("zero_fraction", [SemDistMap(v) for v in (neg_zero, whole, mixed, full)]))

    for seed in range(3):
        scene = generate(
            GenConfig(seed=300 + seed, width=40, height=32, object_count_range=(5, 8))
        )
        cases.append((f"generated_{seed}", [encode_semdist(scene, i) for i in scene.ids()]))
    return cases


PAIR_CASES = _pair_cases()
C_VALUES = (0.25, 0.5, 0.7, 0.75, 0.9)
EXACT_SQUARE_C = (0.25, 0.5, 0.75)  # c*c is exact in float32


def _assert_pairs_equal(maps, c):
    for map_a, map_b in permutations(maps, 2):
        assert np.array_equal(overlap_region(map_a, map_b, c).bits, ref_overlap_region(map_a, map_b, c))
        assert np.array_equal(relative_order(map_a, map_b, c).values, ref_relative_order(map_a, map_b, c))
        assert order_regions(map_a, map_b, c) == ref_order_regions(map_a, map_b, c)


def _assert_perturb_equal(maps, c, seed, prob):
    entries = list(enumerate(maps, start=1))
    config = PerturbConfig(level_flip_prob=prob, seed=seed)
    assert perturb_semdist(entries, config, c) == ref_perturb_semdist(entries, config, c)


@pytest.mark.parametrize("name, maps", PAIR_CASES, ids=[n for n, _ in PAIR_CASES])
@pytest.mark.parametrize("c", C_VALUES)
def test_pair_operations_match_full_frame(name, maps, c):
    _assert_pairs_equal(maps, c)


@pytest.mark.parametrize("name, maps", PAIR_CASES, ids=[n for n, _ in PAIR_CASES])
@pytest.mark.parametrize("c", EXACT_SQUARE_C)
def test_perturb_semdist_matches_full_frame(name, maps, c):
    for seed in range(4):
        for prob in (0.3, 1.0):
            _assert_perturb_equal(maps, c, seed, prob)


def test_boxes_that_meet_around_disjoint_supports_read_disjoint():
    ell, corner = dict(PAIR_CASES)["l_shape"]
    assert order_regions(ell, corner).verdict is OrderVerdict.DISJOINT
    assert not overlap_region(ell, corner).bits.any()


# ---------------------------------------------------------------------------
# scenes: visibility levels and order counts


def _scene(width, height, ids, planes):
    stacks = np.array(planes, dtype=np.int32).reshape(len(planes), height, width)
    return LayerStackScene(width, height, tuple(InstanceRecord(i) for i in ids), stacks)


def _scene_cases():
    cases = [
        ("zero_depth", LayerStackScene(3, 2, (InstanceRecord(1), InstanceRecord(2)), np.zeros((0, 2, 3), np.int32))),
        # id 3 is listed but absent from the stacks; id 9 is in the stacks but not listed
        ("missing_ids", _scene(3, 2, (1, 2, 3), [[[1, 1, 9], [2, 0, 0]], [[2, 2, 0], [0, 0, 0]]])),
        # id 1 twice in one stack: the front-most level counts
        ("duplicate_in_stack", _scene(2, 2, (1, 2), [[[1, 2], [0, 0]], [[1, 1], [0, 0]]])),
        ("one_pixel", _scene(1, 1, (1, 2), [[[2]], [[1]]])),
    ]
    h, w = 4, 5
    edges = [np.zeros((h, w), bool) for _ in range(4)]
    edges[0][0, :] = True
    edges[1][:, 0] = True
    edges[2][h - 1, :] = True
    edges[3][:, w - 1] = True
    cases.append(
        (
            "borders",
            LayerStackScene.from_layers(
                w, h, [(InstanceRecord(i + 1), BinaryMask(m)) for i, m in enumerate(edges)]
            ),
        )
    )
    for seed in range(3):
        cases.append(
            (
                f"generated_{seed}",
                generate(GenConfig(seed=500 + seed, width=48, height=40, object_count_range=(5, 8))),
            )
        )
    return cases


SCENE_CASES = _scene_cases()


@pytest.mark.parametrize("name, scene", SCENE_CASES, ids=[n for n, _ in SCENE_CASES])
def test_visibility_levels_match_argmax(name, scene):
    for instance_id in scene.ids():
        assert np.array_equal(visibility_levels(scene, instance_id), ref_visibility_levels(scene, instance_id))


@pytest.mark.parametrize("name, scene", SCENE_CASES, ids=[n for n, _ in SCENE_CASES])
@pytest.mark.parametrize("c", (0.5, 0.7))
def test_order_counts_match_full_frame(name, scene, c):
    maps = [(i, encode_semdist(scene, i)) for i in scene.ids()]
    preds = [maps, maps[1:]]  # the second misses a prediction
    for seed in range(3):
        preds.append(perturb_semdist(maps, PerturbConfig(level_flip_prob=0.5, seed=seed)))
    for pred in preds:
        assert _order_counts(scene, pred, c, 0.95) == ref_order_counts(scene, pred, c, 0.95)


def test_order_counts_skip_supports_that_meet_without_overlap():
    # just above 0.5, a confidence at levels 3 and 4 rounds to a fraction of
    # exactly 0.5, so the supports of 4 and 5 meet but 0.5 * 0.5 does not clear c^2
    confidence = float(np.nextafter(F(0.5), F(1)))
    scene = _scene(2, 1, (1, 2, 3, 4, 5), [[[k, k]] for k in (1, 2, 3, 4, 5)])
    maps = [(i, encode_semdist(scene, i, confidence)) for i in scene.ids()]
    counts = _order_counts(scene, maps, 0.5, confidence)
    assert counts == ref_order_counts(scene, maps, 0.5, confidence)
    assert counts[2] > 0


# ---------------------------------------------------------------------------
# property: random sparse maps

_VALUES = [F(0.0), F(-0.0), F(-1.0), F(-2.0)] + [
    F(f) - F(level) for f in (0.2, 0.25, 0.5, 0.7, 0.75, 0.95) for level in (0, 1, 3)
]


@st.composite
def _sparse_maps(draw):
    height = draw(st.integers(1, 9))
    width = draw(st.integers(1, 9))
    cell = st.tuples(st.integers(0, height - 1), st.integers(0, width - 1))
    count = draw(st.integers(2, 4))
    maps = [
        _grid((height, width), draw(st.dictionaries(cell, st.sampled_from(_VALUES), max_size=12)))
        for _ in range(count)
    ]
    return maps, draw(st.sampled_from(EXACT_SQUARE_C)), draw(st.integers(0, 2**16))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_sparse_maps())
def test_random_sparse_maps_match_full_frame(case):
    maps, c, seed = case
    _assert_pairs_equal(maps, c)
    _assert_perturb_equal(maps, c, seed, 0.5)
