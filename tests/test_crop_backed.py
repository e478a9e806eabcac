"""Scenes hold their occupied stack entries and carry their instance boxes,
and maps hold only their box crop.

A scene's entries must give every read what its dense stacks give, and no
library path, validate_scene and render included, may build those stacks.
The boxes of a scene must be those of its stacks from construction, however
the scene was made, and every per-instance read must equal its full-stack
expression, both as the first read of a scene and on later reads. No map
holds its frame until a caller reads values, however it was built, and no
library path (the codec, the SDM writer and readers) builds it; when the
frame is built it must be the +0.0 frame with the crop pasted in, bit for
bit. Grids are compared as uint32 or int32 views, so +0.0 and -0.0 differ.
"""

import copy
import inspect
import json
import pickle
import tempfile
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdist import (
    DEFAULT_THRESHOLD,
    LEVEL_ABSENT,
    BinaryMask,
    GenConfig,
    InstanceRecord,
    LayerStackScene,
    LayeringMap,
    PerturbConfig,
    RelativeOrderMap,
    SemDistMap,
    amodal_mask_of,
    decode_levels,
    decode_modal,
    encode_scene,
    encode_semdist,
    evaluate,
    generate,
    order_accuracy,
    order_regions,
    overlap_region,
    perturb_semdist,
    read_scene,
    read_semdist,
    relative_order,
    render,
    scene_annotations,
    scene_from_dict,
    scene_to_dict,
    semdist_from_bytes,
    semdist_from_layering,
    semdist_to_bytes,
    instance_layering_target,
    validate_scene,
    visibility_levels,
    visible_mask_of,
    write_scene,
    write_semdist,
)
from semdist.compositor import instance_color

from semdist.types import _instance_slots

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
    """Each read, once as the first read of a fresh copy of the scene, which
    holds the stacks' boxes at construction, and once more after the other
    reads, equals its full-stack expression."""
    for first in READS:
        fresh = _plain(scene)
        assert_boxes_match_stacks(fresh)
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
    assert_boxes_match_stacks(plain)
    assert plain == scene
    assert_reads_match_stacks(plain)
    assert plain._boxes == scene._boxes


@pytest.mark.parametrize("stacks", ["sparse", "dense"])
@pytest.mark.parametrize("make", [_masks_scene, _generated], ids=["from_layers", "generate"])
def test_read_scenes_have_the_boxes_of_their_stacks(make, stacks):
    scene = make()
    back = scene_from_dict(scene_to_dict(scene, stacks))
    assert back == scene
    assert_boxes_match_stacks(back)
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
def _raw_parts(draw):
    """(width, height, records, stacks) of any stacks the plain constructor
    takes: gaps, repeats within a stack, negative and unlisted ids included."""
    depth, height, width = draw(st.integers(0, 3)), draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cells = st.lists(st.integers(-1, 5), min_size=depth * height * width, max_size=depth * height * width)
    stacks = np.array(draw(cells), np.int32).reshape(depth, height, width)
    ids = draw(st.lists(st.integers(1, 6), unique=True, max_size=5))
    return width, height, tuple(InstanceRecord(i) for i in ids), stacks


def _raw_scenes():
    return _raw_parts().map(lambda parts: LayerStackScene(*parts))


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
# scene entries


def ref_trimmed(stacks):
    """The stacks with their trailing all-empty planes dropped."""
    occupied = np.flatnonzero(stacks.any(axis=(1, 2)))
    return stacks[: occupied[-1] + 1 if occupied.size else 0]


def ref_violations(records, stacks):
    """(kind, pixel, id) of validate_scene's findings, by walking the dense
    array as its docstring describes."""
    found, seen = [], set()
    for record in records:
        if record.id in seen:
            found.append(("duplicate_instance", None, record.id))
        seen.add(record.id)
    depth, height, width = stacks.shape
    firsts = {}
    for d in range(depth):
        for y in range(height):
            for x in range(width):
                firsts.setdefault(int(stacks[d, y, x]), (x, y))
    for uid in sorted(firsts):
        if uid != 0 and uid not in seen:
            found.append(("invalid_id" if uid < 0 else "unknown_id", firsts[uid], uid))
    repeated = {}
    for y in range(height):
        for x in range(width):
            column = [int(v) for v in stacks[:, y, x] if v != 0]
            for uid in sorted({v for v in column if column.count(v) > 1}):
                repeated.setdefault(uid, (y * width + x, (x, y)))
    for uid, (_, pixel) in sorted(repeated.items(), key=lambda item: (item[1][0], item[0])):
        found.append(("duplicate_id_in_stack", pixel, uid))
    gaps = [(x, y) for d in range(depth - 1) for y in range(height) for x in range(width)
            if stacks[d, y, x] == 0 and stacks[d + 1, y, x] != 0]
    if gaps:
        found.append(("gap_in_stack", gaps[0], None))
    return found


def ref_render(records, stacks):
    """render of the scene of these parts: its front plane, coloured per
    listed id, black elsewhere."""
    front = ref_trimmed(stacks)[:1]
    image = np.zeros((*stacks.shape[1:], 3), np.uint8)
    for record in records:
        image[(front == record.id).any(axis=0)] = instance_color(record.id)
    return image


def ref_scene_doc(width, height, records, stacks, form):
    """scene_to_dict of the scene of these parts, from the dense array."""
    cells = {}
    for y in range(height):
        for x in range(width):
            column = [int(v) for v in stacks[:, y, x] if v != 0]
            if column or form == "dense":
                cells[y * width + x] = column
    return {
        "width": width,
        "height": height,
        "instances": [{"id": r.id, "category": r.category} for r in records],
        "stacks": list(cells.values()) if form == "dense" else {str(k): v for k, v in cells.items()},
    }


def assert_stacks_unbuilt(scene):
    assert "stacks" not in vars(scene)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_raw_parts(), _raw_parts())
def test_random_scene_entries_equal_their_dense_array(parts, other_parts):
    width, height, records, stacks = parts
    scene = LayerStackScene(*parts)
    # the scene keeps no array it was given; every read below but stacks uses the entries
    assert_stacks_unbuilt(scene)
    assert scene == LayerStackScene(width, height, records, np.concatenate([stacks, 0 * stacks]))
    other = LayerStackScene(*other_parts)
    same = (other_parts[:3] == parts[:3]
            and np.array_equal(ref_trimmed(other_parts[3]), ref_trimmed(stacks)))
    assert (scene == other) == (other == scene) == same
    for form in ("sparse", "dense"):
        want = ref_scene_doc(width, height, records, stacks, form)
        assert scene_to_dict(scene, form) == want
        with tempfile.TemporaryDirectory() as tmp:
            write_scene(scene, Path(tmp) / "scene.json", form)
            text = (Path(tmp) / "scene.json").read_text(encoding="utf-8")
        assert text == json.dumps(want, indent=2, sort_keys=True) + "\n"
    dense = SimpleNamespace(stacks=ref_trimmed(stacks), width=width, height=height)
    for instance_id in scene.ids():
        for read, ref in READS.values():
            assert np.array_equal(read(scene, instance_id), ref(dense, instance_id))
        assert np.array_equal(_bits(encode_semdist(scene, instance_id).values),
                              _bits(ref_encoded(dense, instance_id)))
    assert np.array_equal(scene.depth_counts(), (stacks != 0).sum(axis=0))
    assert [(v.kind, v.pixel, v.instance_id) for v in validate_scene(scene)] == ref_violations(
        records, stacks)
    assert np.array_equal(render(scene), ref_render(records, stacks))
    assert_stacks_unbuilt(scene)
    for twin in (pickle.loads(pickle.dumps(scene)), copy.deepcopy(scene), copy.copy(scene)):
        assert twin == scene and twin.ids() == scene.ids()
        assert_stacks_unbuilt(twin)
        assert np.array_equal(twin.stacks, ref_trimmed(stacks))
    assert scene.stacks.dtype == np.int32 and not scene.stacks.flags.writeable
    assert np.array_equal(scene.stacks, ref_trimmed(stacks)) and scene.stacks is scene.stacks
    for y in range(height):
        for x in range(width):
            assert scene.stack_at(x, y) == tuple(int(v) for v in stacks[:, y, x] if v != 0)


def test_library_paths_never_build_the_stacks(tmp_path):
    scene = generate(GenConfig(seed=11, width=96, height=96, object_count_range=(8, 12),
                               size_range=(0.15, 0.4)))
    for form in ("sparse", "dense"):
        write_scene(scene, tmp_path / f"{form}.json", form)
    scenes = [scene, read_scene(tmp_path / "sparse.json"), read_scene(tmp_path / "dense.json")]
    for each in scenes:
        assert_stacks_unbuilt(each)
        maps = encode_scene(each)
        assert maps == {i: encode_semdist(each, i) for i in each.ids()}
        gt = scene_annotations(each)
        pred = perturb_semdist(sorted(maps.items()), PerturbConfig(level_flip_prob=0.5, seed=3))
        evaluate([gt], [gt], order_items=[(each, pred)])
        order_accuracy(each, pred)
        assert validate_scene(each) == []
        assert np.array_equal(render(each), render(scene))
        for form in ("sparse", "dense"):
            write_scene(each, tmp_path / "again.json", form)
            assert (tmp_path / "again.json").read_bytes() == (tmp_path / f"{form}.json").read_bytes()
        assert each == scene and scene == each
        assert_stacks_unbuilt(each)


def test_threads_building_one_scene_stacks_share_one_array():
    scene = _generated()
    for _ in range(5):
        fresh = _plain(scene)
        seen = race(lambda: fresh.stacks)
        assert all(stacks is fresh.stacks for stacks in seen)
        assert np.array_equal(fresh.stacks, scene.stacks)


def test_scene_reads_past_the_int32_slot_range_without_its_stacks():
    # 2**32 pixels with a 2-deep stack: the entries alone are held
    side, last = 2**16, 2**31 - 1
    doc = {"width": side, "height": side,
           "instances": [{"id": 1, "category": None}, {"id": last, "category": None}],
           "stacks": {str(side * side - 1): [1, last], "7": [last]}}
    scene = scene_from_dict(doc)
    assert _instance_slots(scene, 1)[0] == (side - 1, side, side - 1, side)
    assert _instance_slots(scene, last)[0] == (0, side, 7, side)
    assert scene_to_dict(scene) == doc
    assert scene == scene_from_dict(scene_to_dict(scene))
    assert_stacks_unbuilt(scene)
    assert repr(scene) == f"LayerStackScene(width={side}, height={side}, ids=(1, {last}), entries=3)"
    assert_stacks_unbuilt(scene)


def test_repr_reads_neither_stacks_nor_values():
    scene = _generated()
    semdist = encode_semdist(scene, scene.ids()[0])
    entries = int(scene.depth_counts().sum())  # one entry per occupied stack slot
    assert repr(scene) == (
        f"LayerStackScene(width=40, height=32, ids={scene.ids()}, entries={entries})"
    )
    assert repr(semdist) == f"SemDistMap(shape=(32, 40), box={semdist._support_box})"
    assert semdist._support_box is not None
    assert repr(SemDistMap(np.zeros((2, 3), np.float32))) == "SemDistMap(shape=(2, 3), box=None)"
    assert_stacks_unbuilt(scene)
    assert "values" not in vars(semdist)


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


def test_public_constructor_copies_only_the_crop():
    values = np.zeros((4, 5), F)
    values[1:3, 2:4] = F(0.9) - F(1)
    semdist = SemDistMap(values)
    assert_unbuilt(semdist)
    assert semdist._support_box == (1, 3, 2, 4)
    assert not np.shares_memory(semdist._crop, values)
    assert not semdist._crop.flags.writeable
    values[2, 3] = F(0.5)  # the map keeps no array it was given
    assert semdist._crop[1, 1] == F(0.9) - F(1)
    assert SemDistMap(np.zeros((2, 2), F))._crop is None
    assert SemDistMap([[0.0, 0.5]]) == SemDistMap(np.array([[0.0, 0.5]], F))


def _state_frames():
    """A frame with a -0.0 inside its box, one with a -0.0 on its box's
    edge, and an all-+0.0 frame."""
    inside = np.zeros((5, 7), F)
    inside[1:4, 2:6] = F(0.8) - F(1)
    inside[2, 3] = F(-0.0)
    edge = np.zeros((3, 4), F)
    edge[0, 1], edge[2, 3] = F(0.5), F(-0.0)
    return [inside, edge, np.zeros((2, 3), F)]


def ref_perturbed(frames, c=DEFAULT_THRESHOLD):
    """perturb_semdist at level_flip_prob 1.0 on full frames: in ascending
    id order, every pair swaps its integer parts on its joint overlap."""
    out = {i: frame.copy() for i, frame in frames.items()}
    for a, b in combinations(sorted(out), 2):
        va, vb = out[a], out[b]
        floor_a, floor_b = np.floor(va), np.floor(vb)
        frac_a, frac_b = va - floor_a, vb - floor_b
        omega = frac_a * frac_b > np.float64(c) * np.float64(c)
        va[omega] = (frac_a + floor_b)[omega]
        vb[omega] = (frac_b + floor_a)[omega]
    return out


def _read_file(frame, tmp_path):
    path = tmp_path / "map.sdm"
    path.write_bytes(semdist_to_bytes(SemDistMap(frame)))
    return read_semdist(path)


def _scenes():
    """A generated scene, and one listing two ids that no pixel holds."""
    return [_generated(), _masks_scene()]


def _encoded(_):
    return [(encode_semdist(s, i), ref_encoded(s, i)) for s in _scenes() for i in s.ids()]


def _from_layering(_):
    return [(semdist_from_layering(instance_layering_target(s, i, 8)), ref_encoded(s, i))
            for s in _scenes() for i in s.ids()]


def _perturbed(_):
    cases = []
    for scene in _scenes():
        maps = [(i, encode_semdist(scene, i)) for i in scene.ids()]
        pred = perturb_semdist(maps, PerturbConfig(level_flip_prob=1.0, seed=2))
        assert any(a is not b for (_, a), (_, b) in zip(maps, pred))
        want = ref_perturbed({i: ref_encoded(scene, i) for i in scene.ids()})
        cases += [(m, want[i]) for i, m in pred]
    return cases


# constructor -> (tmp_path -> [(map untouched since it was built, frame it holds)])
MAP_CONSTRUCTORS = {
    "SemDistMap": lambda _: [(SemDistMap(f), f) for f in _state_frames()],
    "semdist_from_bytes": lambda _: [
        (semdist_from_bytes(semdist_to_bytes(SemDistMap(f))), f) for f in _state_frames()
    ],
    "read_semdist": lambda tmp: [(_read_file(f, tmp), f) for f in _state_frames()],
    "encode_semdist": _encoded,
    "semdist_from_layering": _from_layering,
    "perturb_semdist": _perturbed,
}


def assert_state_from_construction(semdist, frame):
    """The instance already holds the support box and crop of frame."""
    state = vars(semdist)
    assert "_support_box" in state and "_crop" in state
    box = ref_box(_bits(frame) != 0)
    assert state["_support_box"] == box
    if box is None:
        assert state["_crop"] is None
        return
    y0, y1, x0, x1 = box
    crop = state["_crop"]
    assert crop.dtype == F and not crop.flags.writeable
    assert np.array_equal(_bits(crop), _bits(frame[y0:y1, x0:x1]))


@pytest.mark.parametrize("name", MAP_CONSTRUCTORS)
def test_every_constructor_sets_the_box_and_crop(name, tmp_path):
    cases = MAP_CONSTRUCTORS[name](tmp_path)
    assert any(ref_box(_bits(frame) != 0) is None for _, frame in cases)
    for semdist, frame in cases:
        assert_state_from_construction(semdist, frame)
        # every constructor holds the box and crop alone; none keeps a frame
        assert_unbuilt(semdist)


def test_maps_offer_no_bare_frame_wrapper():
    # every grid comes in through its constructor's checks; none is wrapped bare
    for grid_type in (BinaryMask, SemDistMap, LayeringMap, RelativeOrderMap):
        assert not hasattr(grid_type, "_fresh")
    # _from_crop keeps its crop without a copy, but never without the check
    assert list(inspect.signature(SemDistMap._from_crop).parameters) == ["shape", "box", "crop"]
    with pytest.raises(ValueError, match="^map values must be strictly below 1$"):
        SemDistMap._from_crop((1, 2), (0, 1, 0, 2), np.array([[0.5, 1.0]], F))


def assert_owned_and_read_only(grid):
    assert grid.flags.owndata and not grid.flags.writeable


def test_library_masks_and_votes_own_their_read_only_grids():
    overlapping = 0
    for scene in _scenes():
        for ann in scene_annotations(scene):
            assert_owned_and_read_only(ann.amodal.bits)
            assert_owned_and_read_only(ann.visible.bits)
        for instance_id in scene.ids():
            assert_owned_and_read_only(amodal_mask_of(scene, instance_id).bits)
            assert_owned_and_read_only(visible_mask_of(scene, instance_id).bits)
        for a, b in combinations(encode_scene(scene).values(), 2):
            overlap = overlap_region(a, b)
            assert_owned_and_read_only(overlap.bits)
            assert_owned_and_read_only(relative_order(a, b).values)
            overlapping += overlap.area() > 0
    assert overlapping  # both the pasted and the all-False paths ran


def _counted_checks(monkeypatch):
    """The crops SemDistMap._check sees from now on, in order."""
    seen, check = [], SemDistMap._check

    def counted(values):
        seen.append(values)
        check(values)

    monkeypatch.setattr(SemDistMap, "_check", staticmethod(counted))
    return seen


def test_encoders_check_each_map_they_build_once(monkeypatch):
    cases = [(scene, scene.ids(), [instance_layering_target(scene, i, 8) for i in scene.ids()])
             for scene in _scenes()]
    seen = _counted_checks(monkeypatch)
    empty = 0
    for scene, ids, targets in cases:
        built = [encode_semdist(scene, i) for i in ids]
        built += encode_scene(scene).values()
        built += [semdist_from_layering(target) for target in targets]
        held = [m._crop for m in built if m._crop is not None]
        assert len(seen) == len(held) and all(a is b for a, b in zip(seen, held))
        empty += len(built) - len(held)
        seen.clear()
    assert empty  # a listed id that no pixel holds builds a map with no crop to check


@pytest.mark.parametrize("roundtrip", [
    lambda m: pickle.loads(pickle.dumps(m)),
    copy.deepcopy,
    copy.copy,
], ids=["pickle", "deepcopy", "copy"])
def test_round_trips_set_the_box_and_crop(roundtrip, tmp_path):
    for make in MAP_CONSTRUCTORS.values():
        for semdist, frame in make(tmp_path):
            assert_state_from_construction(roundtrip(semdist), frame)


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
        back = roundtrip(semdist)
        assert back == semdist and back._support_box == semdist._support_box
        # a round trip carries the crop alone
        assert_unbuilt(back)
        assert_unbuilt(semdist)
        if back._crop is not None:
            assert not back._crop.flags.writeable
        assert not back.values.flags.writeable
        assert semdist_to_bytes(back) == semdist_to_bytes(semdist)


def test_file_bytes_are_those_of_the_full_frame():
    for semdist, want in _library_maps():
        assert semdist_to_bytes(semdist) == semdist_to_bytes(SemDistMap(want))


def test_sdm_writers_and_readers_build_no_frame(tmp_path):
    cases = _library_maps() + [(SemDistMap(f), f) for f in _state_frames()]
    for semdist, want in cases:
        data = semdist_to_bytes(semdist)
        write_semdist(semdist, tmp_path / "map.sdm")
        assert_unbuilt(semdist)
        assert data[16:] == want.astype("<f4").tobytes()
        for back in (semdist_from_bytes(data), read_semdist(tmp_path / "map.sdm")):
            assert_unbuilt(back)
            assert back == semdist and semdist_to_bytes(back) == data
            assert_unbuilt(back)


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
