"""Scenes carry their instance boxes and maps hold only their box crop.

The boxes of a scene must be those of its stacks, however the scene was
made and whichever read found them, and every per-instance read must equal
its full-stack expression, both on the read that finds the box and on the
reads that use it. A
map the library builds must keep its frame unbuilt through the whole codec
path; when the frame is built it must be the +0.0 frame with the crop
pasted in, bit for bit. Grids are compared as uint32 or int32 views, so
+0.0 and -0.0 differ.
"""

import copy
import pickle
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdist import (
    LEVEL_ABSENT,
    BinaryMask,
    GenConfig,
    InstanceRecord,
    LayerStackScene,
    PerturbConfig,
    SemDistMap,
    amodal_mask_of,
    decode_levels,
    decode_modal,
    encode_scene,
    encode_semdist,
    generate,
    order_accuracy,
    order_regions,
    perturb_semdist,
    scene_from_dict,
    scene_to_dict,
    semdist_from_layering,
    semdist_to_bytes,
    instance_layering_target,
    visibility_levels,
    visible_mask_of,
)

from _util import race

F = np.float32


def ref_box(mask):
    """Box around the True pixels of a 2-D mask, from their coordinates."""
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        return None
    return int(ys.min()), int(ys.max()) + 1, int(xs.min()), int(xs.max()) + 1


def ref_amodal(scene, instance_id):
    return (scene.stacks == instance_id).any(axis=0)


def ref_visible(scene, instance_id):
    if scene.stacks.shape[0] == 0:
        return np.zeros((scene.height, scene.width), bool)
    return scene.stacks[0] == instance_id


def ref_levels(scene, instance_id):
    levels = np.full((scene.height, scene.width), LEVEL_ABSENT, np.int32)
    for depth in reversed(range(scene.stacks.shape[0])):
        levels[scene.stacks[depth] == instance_id] = depth
    return levels


def ref_frame(semdist):
    """The frame the full-frame encoder wrote: +0.0 with the crop pasted in."""
    frame = np.zeros((semdist.height, semdist.width), F)
    if semdist._support_box is not None:
        y0, y1, x0, x1 = semdist._support_box
        frame[y0:y1, x0:x1] = semdist._crop
    return frame


def _bits(grid):
    return grid.view(np.uint32)


def assert_boxes_match_stacks(scene):
    assert set(scene._boxes) == set(scene.ids())
    for instance_id in scene.ids():
        assert scene._boxes[instance_id] == ref_box(ref_amodal(scene, instance_id))


READS = {
    "amodal": (lambda s, i: amodal_mask_of(s, i).bits, ref_amodal),
    "visible": (lambda s, i: visible_mask_of(s, i).bits, ref_visible),
    "levels": (visibility_levels, ref_levels),
}


def assert_reads_match_stacks(scene):
    """Each read, once as the read that finds the boxes of a fresh copy of
    the scene and once more after them, equals its full-stack expression."""
    for first in READS:
        fresh = _plain(scene)
        assert fresh._boxes == {}
        for name in (first, *READS):
            read, ref = READS[name]
            for instance_id in scene.ids():
                assert np.array_equal(read(fresh, instance_id), ref(fresh, instance_id)), name
        assert_boxes_match_stacks(fresh)
    for read, ref in READS.values():
        for instance_id in scene.ids():
            assert np.array_equal(read(scene, instance_id), ref(scene, instance_id))
    assert_boxes_match_stacks(scene)


def assert_unbuilt(semdist):
    assert "values" not in semdist.__dict__


# ---------------------------------------------------------------------------
# scene boxes


def _masks_scene():
    h, w = 6, 9
    masks = [np.zeros((h, w), bool) for _ in range(4)]
    masks[0][1:4, 2:5] = True
    masks[1][3:6, 0:3] = True
    masks[3][0, 8] = True  # masks[2] is empty: id 3 is listed but absent
    layers = [(InstanceRecord(i + 1), BinaryMask(m)) for i, m in enumerate(masks)]
    layers.append((InstanceRecord(2**40), BinaryMask.zeros(w, h)))  # past int32, absent
    return LayerStackScene.from_layers(w, h, layers)


def _generated():
    return generate(GenConfig(seed=5, width=40, height=32, object_count_range=(6, 9)))


def _plain(scene):
    return LayerStackScene(scene.width, scene.height, scene.instances, scene.stacks)


@pytest.mark.parametrize("make", [_masks_scene, _generated], ids=["from_layers", "generate"])
def test_producers_seed_the_boxes_they_know(make):
    scene = make()
    assert_boxes_match_stacks(scene)
    plain = _plain(scene)
    assert plain._boxes == {} and plain == scene
    assert_reads_match_stacks(plain)
    assert plain._boxes == scene._boxes


@pytest.mark.parametrize("stacks", ["sparse", "dense"])
@pytest.mark.parametrize("make", [_masks_scene, _generated], ids=["from_layers", "generate"])
def test_read_scenes_have_the_boxes_of_their_stacks(make, stacks):
    scene = make()
    back = scene_from_dict(scene_to_dict(scene, stacks))
    assert back == scene and back._boxes == {}
    assert_reads_match_stacks(back)
    assert back._boxes == scene._boxes


def test_listed_ids_absent_from_the_stacks_have_no_box():
    scene = _masks_scene()
    assert scene._boxes[3] is None and scene._boxes[2**40] is None
    assert scene._boxes[4] == (0, 1, 8, 9)
    assert_reads_match_stacks(scene)
    assert_reads_match_stacks(_plain(scene))


def test_zero_depth_scene_has_no_boxes():
    records = (InstanceRecord(1), InstanceRecord(7))
    scene = LayerStackScene(4, 3, records, np.zeros((0, 3, 4), np.int32))
    assert_reads_match_stacks(scene)
    assert scene._boxes == {1: None, 7: None}
    empty = LayerStackScene.from_layers(4, 3, [(r, BinaryMask.zeros(4, 3)) for r in records])
    assert empty.stacks.shape == (0, 3, 4) and empty._boxes == {1: None, 7: None}


@st.composite
def _raw_scenes(draw):
    """Any stacks the plain constructor takes: gaps, repeats within a stack
    and unlisted ids included."""
    depth, height, width = draw(st.integers(0, 3)), draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cells = st.lists(st.integers(0, 5), min_size=depth * height * width, max_size=depth * height * width)
    stacks = np.array(draw(cells), np.int32).reshape(depth, height, width)
    ids = draw(st.lists(st.integers(1, 6), unique=True, max_size=5))
    return LayerStackScene(width, height, tuple(InstanceRecord(i) for i in ids), stacks)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_raw_scenes())
def test_random_scene_reads_equal_their_full_stack_expressions(scene):
    assert_reads_match_stacks(scene)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2**16), st.integers(4, 40), st.integers(4, 40))
def test_generated_scene_reads_equal_their_full_stack_expressions(seed, width, height):
    scene = generate(GenConfig(seed=seed, width=width, height=height, object_count_range=(1, 8)))
    assert_reads_match_stacks(scene)


# ---------------------------------------------------------------------------
# crop-backed maps


def ref_encoded(scene, instance_id):
    """encode_semdist(scene, instance_id) at 0.95 as the full-frame encoder wrote it."""
    levels = ref_levels(scene, instance_id)
    return np.where(levels != LEVEL_ABSENT, F(0.95) - levels.astype(F), F(0.0))


def _library_maps():
    """(map, frame it must build) for every library constructor: the encoders,
    semdist_from_layering and perturb_semdist."""
    scene = _generated()
    maps = encode_scene(scene)
    cases = [(m, ref_encoded(scene, i)) for i, m in maps.items()]
    cases += [(encode_semdist(scene, i), ref_encoded(scene, i)) for i in scene.ids()]
    # binary targets reproduce encode_semdist bit for bit
    cases += [(semdist_from_layering(instance_layering_target(scene, i, 8)), ref_encoded(scene, i))
              for i in scene.ids()]
    perturbed = perturb_semdist(list(maps.items()), PerturbConfig(level_flip_prob=1.0, seed=2))
    cases += [(m, ref_frame(m)) for mid, m in perturbed if m is not maps[mid]]
    empty = _masks_scene()
    cases.append((encode_semdist(empty, 3), np.zeros((empty.height, empty.width), F)))
    return cases


def test_library_maps_hold_only_their_crop_until_values_is_read():
    cases = _library_maps()
    assert any(m._support_box is None for m, _ in cases)
    for semdist, want in cases:
        assert_unbuilt(semdist)
        assert (semdist._crop is None) == (semdist._support_box is None)
        values = semdist.values
        assert values.dtype == F and values.shape == want.shape
        assert np.array_equal(_bits(values), _bits(want))
        assert not values.flags.writeable
        assert semdist.values is values
        with pytest.raises(ValueError):
            values[0, 0] = 0.5


def test_public_constructor_fills_the_frame_and_crops_a_view_of_it():
    values = np.zeros((4, 5), F)
    values[1:3, 2:4] = F(0.9) - F(1)
    semdist = SemDistMap(values)
    assert "values" in semdist.__dict__
    assert semdist._support_box == (1, 3, 2, 4)
    assert np.shares_memory(semdist._crop, semdist.values)
    assert not np.shares_memory(semdist.values, values)
    assert not semdist._crop.flags.writeable
    assert SemDistMap(np.zeros((2, 2), F))._crop is None


def test_shape_and_equality_never_build_the_frame():
    scene = _generated()
    maps = encode_scene(scene)
    other = encode_scene(scene, 0.9)
    for instance_id, semdist in maps.items():
        assert (semdist.width, semdist.height) == (scene.width, scene.height)
        semdist.require_same_shape(other[instance_id])
        assert semdist == encode_semdist(scene, instance_id)
        assert semdist != other[instance_id]
        assert_unbuilt(semdist)
        assert_unbuilt(other[instance_id])
        full = SemDistMap(np.array(semdist.values))
        assert full == semdist and semdist == full


def test_signed_zero_crops_compare_by_bits():
    shape = (2, 4)
    crop = np.array([[F(0.5), F(-0.0), F(0.5)]], F)
    crop_backed = SemDistMap._from_crop(shape, (0, 1, 0, 3), crop)
    negative = np.zeros(shape, F)
    negative[0, :3] = [0.5, -0.0, 0.5]
    assert crop_backed == SemDistMap(negative) and SemDistMap(negative) == crop_backed
    positive = negative.copy()
    positive[0, 1] = F(0.0)
    assert crop_backed != SemDistMap(positive) and SemDistMap(positive) != crop_backed
    # a -0.0 on the edge widens the box, so the maps differ in their boxes as well
    edge = SemDistMap._from_crop(shape, (0, 1, 0, 4), np.array([[0.5, 0.0, 0.5, -0.0]], F))
    plain = SemDistMap._from_crop(shape, (0, 1, 0, 3), np.array([[0.5, 0.0, 0.5]], F))
    assert edge != plain
    assert edge == SemDistMap(np.array([[0.5, 0.0, 0.5, -0.0], [0, 0, 0, 0]], F))
    assert_unbuilt(crop_backed)
    assert_unbuilt(edge)


@pytest.mark.parametrize("roundtrip", [
    lambda m: pickle.loads(pickle.dumps(m)),
    copy.deepcopy,
    copy.copy,
], ids=["pickle", "deepcopy", "copy"])
def test_maps_round_trip_without_building_their_frame(roundtrip):
    maps = [m for m, _ in _library_maps()]
    maps.append(SemDistMap(np.array([[0.5, -0.0], [0.0, F(0.7) - F(2)]], F)))
    for semdist in maps:
        was_built = "values" in semdist.__dict__
        back = roundtrip(semdist)
        assert back == semdist and back._support_box == semdist._support_box
        # the frame is a cache: a round trip carries the crop alone
        assert_unbuilt(back)
        assert ("values" in semdist.__dict__) == was_built
        if back._crop is not None:
            assert not back._crop.flags.writeable
        assert not back.values.flags.writeable
        assert semdist_to_bytes(back) == semdist_to_bytes(semdist)


def test_file_bytes_are_those_of_the_full_frame():
    for semdist, want in _library_maps():
        assert semdist_to_bytes(semdist) == semdist_to_bytes(SemDistMap(want))


def test_threads_building_one_frame_share_one_array():
    for semdist, want in _library_maps():
        seen = race(lambda: semdist.values)
        assert all(values is semdist.values for values in seen)
        assert np.array_equal(_bits(semdist.values), _bits(want))


def test_threads_finding_one_scene_box_agree():
    scene = _generated()
    for _ in range(5):
        fresh = _plain(scene)
        seen = race(lambda: [amodal_mask_of(fresh, i).bits for i in scene.ids()])
        for masks in seen:
            for instance_id, bits in zip(scene.ids(), masks):
                assert np.array_equal(bits, ref_amodal(scene, instance_id))
        assert fresh._boxes == scene._boxes


def test_codec_path_of_a_crowded_scene_builds_no_frame():
    scene = generate(GenConfig(seed=11, width=96, height=96, object_count_range=(8, 12),
                               size_range=(0.15, 0.4)))
    maps = [(i, encode_semdist(scene, i)) for i in scene.ids()]
    pred = perturb_semdist(maps, PerturbConfig(level_flip_prob=0.5, seed=3))
    regions = [order_regions(a, b) for (_, a), (_, b) in combinations(pred, 2)]
    assert any(r.overlap_area for r in regions)
    assert any(a is not b for (_, a), (_, b) in zip(maps, pred))
    for _, semdist in pred:
        decode_levels(semdist)
        decode_modal(semdist)
    assert 0.0 <= order_accuracy(scene, pred) <= 1.0
    for _, semdist in maps + pred:
        assert_unbuilt(semdist)
