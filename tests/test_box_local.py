"""Every map the library builds carries its support box from the start, and
encoding and decoding compute inside that box only. These tests hold them
bit-identical to the full-frame forms they replaced, which are kept below as
references. Grids are compared as uint32 or int32 views, so +0.0 and -0.0
differ."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdist import (
    EMISSION_FLOOR,
    LEVEL_ABSENT,
    BinaryMask,
    ConfidencePolicy,
    GenConfig,
    InstanceRecord,
    LayeringMap,
    LayerStackScene,
    PerturbConfig,
    SemDistMap,
    decode_amodal,
    decode_levels,
    decode_modal,
    encode_scene,
    encode_semdist,
    generate,
    instance_layering_target,
    perturb_semdist,
    read_semdist,
    semdist_from_layering,
    visibility_levels,
    write_semdist,
)

F = np.float32
C_VALUES = (0.25, 0.5, 0.7, 0.9)


# ---------------------------------------------------------------------------
# full-frame references


def ref_visibility_levels(scene, instance_id):
    scene.record_of(instance_id)
    levels = np.full((scene.height, scene.width), LEVEL_ABSENT, dtype=np.int32)
    for depth in reversed(range(scene.stacks.shape[0])):
        levels[scene.stacks[depth] == instance_id] = depth
    return levels


def ref_semdist_from_levels(levels, confidence):
    values = np.where(
        levels != LEVEL_ABSENT, confidence - levels.astype(F), F(0.0)
    )
    return SemDistMap(values)  # the public constructor: full copy and full check


def _policy(policy):
    if isinstance(policy, ConfidencePolicy):
        return policy
    return ConfidencePolicy(constant=float(policy))


def ref_encode_semdist(scene, instance_id, policy):
    grid = _policy(policy).grid(scene.height, scene.width)
    return ref_semdist_from_levels(ref_visibility_levels(scene, instance_id), grid)


def ref_semdist_from_layering(layering, policy):
    stacked = layering.values
    winner = np.argmax(stacked, axis=0)
    winning = np.take_along_axis(stacked, winner[None, :, :], axis=0)[0]
    confidence = np.minimum(winning, _policy(policy).grid(layering.height, layering.width))
    return ref_semdist_from_levels(np.where(winning >= EMISSION_FLOOR, winner, LEVEL_ABSENT), confidence)


def ref_decode_modal(semdist):
    values = semdist.values
    return np.where((values >= 0.0) & (values < 1.0), values, F(0.0))


def ref_decode_amodal(semdist):
    values = semdist.values
    return values - np.floor(values)


def ref_decode_levels(semdist, c):
    values = semdist.values
    fractional = values - np.floor(values)
    with np.errstate(invalid="ignore"):  # the full-frame cast saw every pixel
        levels = (-np.floor(values)).astype(np.int32)
    return np.where(fractional >= c, levels, np.int32(LEVEL_ABSENT))


def ref_box(values):
    """Box around the values whose bits are not +0.0, from their coordinates."""
    ys, xs = np.nonzero(values.view(np.uint32))
    if ys.size == 0:
        return None
    return int(ys.min()), int(ys.max()) + 1, int(xs.min()), int(xs.max()) + 1


# ---------------------------------------------------------------------------
# comparisons


def _bits(grid):
    return grid.view(np.uint32 if grid.dtype == F else np.int32)


def assert_grid_identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


def assert_map_identical(got, want):
    assert_grid_identical(got.values, want.values)
    assert not got.values.flags.writeable
    assert got._support_box == ref_box(want.values)


def assert_decoders_identical(semdist):
    assert_grid_identical(decode_modal(semdist), ref_decode_modal(semdist))
    assert_grid_identical(decode_amodal(semdist), ref_decode_amodal(semdist))
    for c in C_VALUES:
        assert_grid_identical(decode_levels(semdist, c), ref_decode_levels(semdist, c))


def assert_scene_identical(scene, policy=0.95):
    maps = encode_scene(scene, policy)
    assert tuple(maps) == scene.ids()
    for instance_id in scene.ids():
        want = ref_encode_semdist(scene, instance_id, policy)
        assert_grid_identical(
            visibility_levels(scene, instance_id), ref_visibility_levels(scene, instance_id)
        )
        assert_map_identical(encode_semdist(scene, instance_id, policy), want)
        assert_map_identical(maps[instance_id], want)
        assert_decoders_identical(maps[instance_id])
    return maps


# ---------------------------------------------------------------------------
# scenes


def _scene(width, height, ids, planes):
    stacks = np.array(planes, dtype=np.int32).reshape(len(planes), height, width)
    return LayerStackScene(width, height, tuple(InstanceRecord(i) for i in ids), stacks)


def _from_masks(width, height, masks):
    return LayerStackScene.from_layers(
        width, height, [(InstanceRecord(i + 1), BinaryMask(m)) for i, m in enumerate(masks)]
    )


def _scene_cases():
    h, w = 5, 7
    edges = [np.zeros((h, w), bool) for _ in range(4)]
    edges[0][0, :] = True
    edges[1][:, 0] = True
    edges[2][h - 1, :] = True
    edges[3][:, w - 1] = True
    corners = []
    for y, x in ((0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1)):
        corner = np.zeros((h, w), bool)
        corner[y, x] = True
        corners.append(corner)
    full = np.ones((h, w), bool)
    cases = [
        ("borders", _from_masks(w, h, edges + [full])),
        ("corners", _from_masks(w, h, [full] + corners)),
        # ids 1 and 3 are listed but hold no pixel
        ("empty", _from_masks(w, h, [np.zeros((h, w), bool), full, np.zeros((h, w), bool)])),
        ("one_pixel", _scene(1, 1, (1, 2, 3), [[[2]], [[1]]])),
        ("zero_depth", LayerStackScene(3, 2, (InstanceRecord(1), InstanceRecord(2)), np.zeros((0, 2, 3), np.int32))),
        # id 1 twice in one stack: the front-most level counts; id 9 is not listed
        ("duplicate_in_stack", _scene(3, 2, (1, 2), [[[1, 2, 9], [0, 0, 0]], [[1, 1, 0], [2, 0, 0]]])),
    ]
    for seed in range(3):
        cases.append(
            (
                f"generated_{seed}",
                generate(GenConfig(seed=700 + seed, width=48, height=40, object_count_range=(5, 8))),
            )
        )
    return cases


SCENE_CASES = _scene_cases()
SCENE_IDS = [n for n, _ in SCENE_CASES]


@pytest.mark.parametrize("name, scene", SCENE_CASES, ids=SCENE_IDS)
def test_constant_policy_matches_full_frame(name, scene):
    assert_scene_identical(scene, 0.95)
    assert_scene_identical(scene, ConfidencePolicy(0.7))


@pytest.mark.parametrize("name, scene", SCENE_CASES, ids=SCENE_IDS)
def test_grid_policy_matches_full_frame(name, scene):
    rng = np.random.default_rng(len(name))
    grid = rng.uniform(0.05, 0.95, size=(scene.height, scene.width)).astype(F)
    assert_scene_identical(scene, ConfidencePolicy(grid_values=grid))


@pytest.mark.parametrize("name, scene", SCENE_CASES, ids=SCENE_IDS)
def test_semdist_from_layering_matches_full_frame(name, scene):
    depth = max(scene.max_depth(), 1)
    rng = np.random.default_rng(3)
    for instance_id in scene.ids():
        binary = instance_layering_target(scene, instance_id, depth)
        soft = LayeringMap(binary.values * rng.uniform(0.3, 1.0, binary.values.shape).astype(F))
        for layering in (binary, soft):
            for policy in (0.95, 0.6):
                got = semdist_from_layering(layering, policy)
                assert_map_identical(got, ref_semdist_from_layering(layering, policy))
                assert_decoders_identical(got)


@pytest.mark.parametrize("name, scene", SCENE_CASES, ids=SCENE_IDS)
def test_perturbed_maps_keep_their_boxes(name, scene):
    maps = list(encode_scene(scene).items())
    for seed in range(3):
        for mid, semdist in perturb_semdist(maps, PerturbConfig(level_flip_prob=1.0, seed=seed)):
            assert semdist._support_box == ref_box(semdist.values)
            assert semdist._support_box == dict(maps)[mid]._support_box
            assert not semdist.values.flags.writeable
            assert_decoders_identical(semdist)


# ---------------------------------------------------------------------------
# maps from files and user code


def _negative_zero_map():
    values = np.zeros((5, 7), F)
    values[1:4, 1:6] = F(-0.0)
    values[2, 2] = F(0.9)
    values[3, 4] = F(0.8) - F(2)
    values[0, 6] = F(-0.0)
    return SemDistMap(values)


def test_read_map_with_negative_zero_outside_its_support(tmp_path):
    path = tmp_path / "neg.sdm"
    write_semdist(_negative_zero_map(), path)
    semdist = read_semdist(path)
    # -0.0 counts as support, so the box reaches the corner -0.0 at (6, 0)
    assert semdist._support_box == (0, 4, 1, 7)
    assert semdist._support_box == ref_box(semdist.values)
    assert_decoders_identical(semdist)
    modal = decode_modal(semdist)
    assert np.signbit(modal[0, 6]) and np.signbit(modal[1, 1]) and not np.signbit(modal[4, 0])
    other = encode_semdist(_scene(7, 5, (1,), [[[1] * 7] * 5]), 1)
    for mid, swapped in perturb_semdist([(1, semdist), (2, other)], PerturbConfig(level_flip_prob=1.0)):
        assert swapped._support_box == ref_box(swapped.values)


def test_all_negative_zero_map_has_a_box_and_decodes():
    semdist = SemDistMap(np.full((2, 3), F(-0.0)))
    assert semdist._support_box == (0, 2, 0, 3)
    assert_decoders_identical(semdist)
    assert SemDistMap(np.zeros((2, 3), F))._support_box is None


_VALUES = [F(0.0), F(-0.0), F(-1.0), F(-2.0), F(-1e10), F(-3.4e38)] + [
    F(f) - F(level) for f in (0.2, 0.5, 0.7, 0.95) for level in (0, 1, 3)
]


@st.composite
def _sparse_maps(draw):
    height, width = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cell = st.tuples(st.integers(0, height - 1), st.integers(0, width - 1))
    values = np.zeros((height, width), F)
    for (y, x), v in draw(st.dictionaries(cell, st.sampled_from(_VALUES), max_size=12)).items():
        values[y, x] = v
    return SemDistMap(values)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_sparse_maps())
def test_random_sparse_maps_decode_like_full_frame(semdist):
    assert semdist._support_box == ref_box(semdist.values)
    assert_decoders_identical(semdist)


# ---------------------------------------------------------------------------
# property: generated scenes


@st.composite
def _generated(draw):
    config = GenConfig(
        seed=draw(st.integers(0, 2**16)),
        width=draw(st.integers(8, 40)),
        height=draw(st.integers(8, 40)),
        object_count_range=(1, draw(st.integers(1, 6))),
    )
    policy = draw(
        st.one_of(
            st.sampled_from([0.95, 0.5, 0.99]),
            st.builds(
                lambda seed: ConfidencePolicy(
                    grid_values=np.random.default_rng(seed)
                    .uniform(0.05, 0.95, (config.height, config.width))
                    .astype(F)
                ),
                st.integers(0, 2**16),
            ),
        )
    )
    return generate(config), policy


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_generated())
def test_generated_scenes_match_full_frame(case):
    scene, policy = case
    maps = assert_scene_identical(scene, policy)
    pred = perturb_semdist(list(maps.items()), PerturbConfig(level_flip_prob=0.5, seed=1))
    for _, semdist in pred:
        assert semdist._support_box == ref_box(semdist.values)
