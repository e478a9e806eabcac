"""A scene holds each id's sorted slots as runs of consecutive values.

A run is a start slot and a length, both intp; the ids are held once each.
The sparse scenes here sit on both sides of the boundary where (max depth +
1) * height * width passes 2**31 - 1, with their entries in the
bottom-right corner, so their slots are the largest an int32 slot held or
just past it. They go through every read that does not allocate the frame
(so not depth_counts, visibility_levels or stacks).

Before runs, a scene held every occupied slot with the id held there
(intp and then int32 slots, per-entry ids and then ids held once per id).
That per-entry layout is kept below as the oracle: on any entries, gaps,
repeated, negative and unlisted ids and the CORNERS frames included, every
scene reader must give what it gives. Pickles hold the run table, and
pickles written by both earlier layouts must still load.
"""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdist import (
    LEVEL_ABSENT,
    GenConfig,
    InstanceRecord,
    LayerStackScene,
    SceneViolation,
    encode_semdist,
    generate,
    read_scene,
    render,
    scene_from_dict,
    scene_to_dict,
    validate_scene,
    write_scene,
)
from semdist.compositor import instance_color
from semdist.types import _instance_levels, _instance_masks, _instance_slots, _scene_cells

F = np.float32


def corner_doc(side, deep):
    """Sparse scene document on a side x side frame: instance 1 on the last
    pixel and the one left of it, instance 2 on the last pixel and the one
    above it; the last pixel's stack is [1, 2] when deep, else [2]."""
    last = side * side - 1
    return {
        "width": side,
        "height": side,
        "instances": [{"id": 1, "category": None}, {"id": 2, "category": "far"}],
        "stacks": {str(last - side): [2], str(last - 1): [1], str(last): [1, 2] if deep else [2]},
    }


CORNERS = [  # (side, deep)
    (46340, False),  # 1 plane of 2,147,395,600 slots
    (46340, True),  # 2 planes: past int32
    (46341, False),  # 1 plane of 2,147,488,281 slots: past int32
    (32767, True),  # 2 planes of 1,073,676,289 slots: the last slot is 2,147,352,577
]


def run_dtype(scene):
    """The dtype of the scene's run starts, which its run lengths share."""
    assert scene._starts.dtype == scene._lengths.dtype
    return scene._starts.dtype


@pytest.mark.parametrize("side, deep", sorted(CORNERS))
def test_corner_scene_reads_at_the_int32_slot_boundary(side, deep, tmp_path):
    doc = corner_doc(side, deep)
    scene = scene_from_dict(doc)
    assert run_dtype(scene) == np.intp
    far = side - 1  # the last row and column
    box_1 = (far, side, far - 1, side if deep else far)
    assert _instance_slots(scene, 1)[0] == box_1
    assert _instance_slots(scene, 2)[0] == (far - 1, side, far, side)
    assert scene.stack_at(far, far) == ((1, 2) if deep else (2,))
    assert scene.stack_at(far - 1, far) == (1,) and scene.stack_at(0, 0) == ()

    level = 1 if deep else 0  # instance 2 at the last pixel
    one, two = encode_semdist(scene, 1), encode_semdist(scene, 2)
    assert one._support_box == box_1
    assert np.array_equal(one._crop, [[F(0.95), F(0.95)]] if deep else [[F(0.95)]])
    assert two._support_box == (far - 1, side, far, side)
    assert np.array_equal(two._crop, [[F(0.95)], [F(0.95) - F(level)]])

    assert validate_scene(scene) == []
    assert scene_to_dict(scene) == doc
    write_scene(scene, tmp_path / "scene.json")
    again = read_scene(tmp_path / "scene.json")
    assert again == scene and run_dtype(again) == run_dtype(scene)
    unpickled = pickle.loads(pickle.dumps(scene))
    assert unpickled == scene and run_dtype(unpickled) == run_dtype(scene)
    other = dict(doc, stacks={**doc["stacks"], str(side * side - 1 - side): [1]})
    assert scene_from_dict(other) != scene
    assert "stacks" not in vars(scene)


# ---------------------------------------------------------------------------
# bytes held


def held_bytes(scene):
    return sum(value.nbytes for value in vars(scene).values() if isinstance(value, np.ndarray))


def run_bound(scene):
    """16 bytes per slot run (an intp start and length) and 12 per id (an
    int32 id and an intp first run), with the run count after the last."""
    return 16 * scene._lengths.size + 12 * scene._ids.size + 8


def per_entry_bytes(scene):
    """What the layout before runs held: an int32 slot per entry and the
    same 12 bytes per id and 8 after the last."""
    return 4 * int(scene._lengths.sum()) + 12 * scene._ids.size + 8


def test_order_256_scene_holds_16_bytes_per_slot_run_and_a_constant_per_id():
    scene = generate(GenConfig(seed=0, width=256, height=256, object_count_range=(8, 12),
                               size_range=(0.15, 0.4)))
    assert int(scene._lengths.sum()) > 10_000 and run_dtype(scene) == np.intp
    assert held_bytes(scene) <= run_bound(scene)
    assert 8 * held_bytes(scene) <= per_entry_bytes(scene)


def test_a_640x480_scene_holds_16_bytes_per_slot_run_and_a_constant_per_id():
    scene = generate(GenConfig(seed=0, width=640, height=480))
    assert int(scene._lengths.sum()) > 50_000 and run_dtype(scene) == np.intp
    assert held_bytes(scene) <= run_bound(scene)
    assert 8 * held_bytes(scene) <= per_entry_bytes(scene)


def test_a_scene_with_no_consecutive_slots_of_one_id_holds_16_bytes_per_slot():
    # two ids taking turns slot by slot: neither holds two consecutive slots
    stacks = (np.arange(63) % 2 + 1).astype(np.int32).reshape(1, 7, 9)
    scene = LayerStackScene(9, 7, (InstanceRecord(1), InstanceRecord(2)), stacks)
    assert scene._lengths.size == 63 and (scene._lengths == 1).all()
    assert held_bytes(scene) == 16 * 63 + 12 * 2 + 8


# ---------------------------------------------------------------------------
# pickles of the earlier layouts


# a pickle of old_scene() written when scenes held intp slots and an int32 id per entry
OLD_PICKLE = bytes.fromhex(
    "8004950d020000000000008c086275696c74696e73948c07676574617474729493948c0d73656d64"
    "6973742e7479706573948c0f4c61796572537461636b5363656e659493948c0b5f6f665f656e7472"
    "6965739486945294284b054b0468038c0e496e7374616e63655265636f72649493942981947d9428"
    "8c026964944b018c0863617465676f7279948c03637570947562680a2981947d9428680d4b02680e"
    "4e7562680a2981947d9428680d4b03680e8c03626f7894756287948c166e756d70792e5f636f7265"
    "2e6d756c74696172726179948c0c5f7265636f6e7374727563749493948c056e756d7079948c076e"
    "6461727261799493944b0085944301629487945294284b014b0c859468198c056474797065949394"
    "8c02693894898887945294284b038c013c944e4e4e4affffffff4affffffff4b0074946289436000"
    "0000000000000001000000000000000f000000000000000300000000000000040000000000000008"
    "000000000000001a0000000000000005000000000000000600000000000000070000000000000015"
    "000000000000001800000000000000947494626818681b4b008594681d87945294284b014b0c8594"
    "68228c02693494898887945294284b0368264e4e4e4affffffff4affffffff4b0074946289433001"
    "00000001000000010000000200000002000000020000000200000003000000030000000300000003"
    "0000000300000094749462749452942e"
)


def old_scene():
    stacks = np.array([[[1, 1, 0, 2, 2], [3, 3, 3, 2, 0], [0, 0, 0, 0, 0], [1, 0, 0, 0, 0]],
                       [[0, 3, 0, 0, 3], [0, 2, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]]])
    records = (InstanceRecord(1, "cup"), InstanceRecord(2), InstanceRecord(3, "box"))
    return LayerStackScene(5, 4, records, stacks)


def test_a_pickle_of_per_entry_ids_and_intp_slots_still_loads():
    scene = pickle.loads(OLD_PICKLE)
    assert scene == old_scene()
    assert np.array_equal(scene.stacks, old_scene().stacks)
    assert pickle.loads(pickle.dumps(scene)) == scene


# a pickle of int32_scene() written when scenes held int32 slots with their
# ids once per id; id 1's slots 9..12 cross from plane 0 into plane 1, and
# the scene has a gap, id 1 twice in one stack, and ids -2 and 9 unlisted
INT32_PICKLE = bytes.fromhex(
    "800495d3010000000000008c086275696c74696e73948c07676574617474729493948c0d73656d64"
    "6973742e7479706573948c0f4c61796572537461636b5363656e659493948c0b5f6f665f656e7472"
    "6965739486945294284b044b0368038c0e496e7374616e63655265636f72649493942981947d9428"
    "8c026964944b018c0863617465676f7279948c03637570947562680a2981947d9428680d4b02680e"
    "4e7562680a2981947d9428680d4b03680e8c03626f7894756287948c166e756d70792e5f636f7265"
    "2e6d756c74696172726179948c0c5f7265636f6e7374727563749493948c056e756d7079948c076e"
    "6461727261799493944b0085944301629487945294284b014b0f859468198c056474797065949394"
    "8c02693494898887945294284b038c013c944e4e4e4affffffff4affffffff4b0074946289433c05"
    "0000000000000001000000090000000a0000000b0000000c00000012000000020000000600000007"
    "0000000f000000040000000e00000008000000947494626818681b4b008594681d87945294284b01"
    "4b0f8594682589433cfeffffff010000000100000001000000010000000100000001000000010000"
    "000200000002000000020000000200000003000000030000000900000094749462749452942e"
)


def int32_scene():
    stacks = np.array([[[1, 1, 2, 0], [3, -2, 2, 2], [9, 1, 1, 1]],
                       [[1, 0, 3, 2], [0, 0, 1, 0], [0, 0, 0, 0]]])
    records = (InstanceRecord(1, "cup"), InstanceRecord(2), InstanceRecord(3, "box"))
    return LayerStackScene(4, 3, records, stacks)


def test_a_pickle_of_int32_slots_with_ids_once_per_id_still_loads():
    scene = pickle.loads(INT32_PICKLE)
    built = int32_scene()
    assert scene == built
    assert np.array_equal(scene.stacks, built.stacks)
    assert validate_scene(scene) == validate_scene(built)
    # id 1: slots 0-1, 9-12 (across the plane boundary) and 18
    assert _instance_slots(scene, 1)[1].tolist() == [0, 1, 9, 10, 11, 12, 18]
    assert scene._lengths[scene._id_runs[1] : scene._id_runs[2]].tolist() == [2, 4, 1]
    assert pickle.loads(pickle.dumps(scene)) == scene


def test_reduce_hands_the_run_table_to_of_runs():
    scene = old_scene()
    build, (width, height, instances, ids, id_runs, starts, lengths) = scene.__reduce__()
    assert build == LayerStackScene._of_runs
    assert (width, height, instances) == (5, 4, scene.instances)
    # the slots 0, 1, 15 | 3, 4, 8, 26 | 5, 6, 7, 21, 24 as runs
    assert ids.dtype == np.int32 and ids.tolist() == [1, 2, 3]
    assert id_runs.tolist() == [0, 2, 5, 8]
    assert starts.tolist() == [0, 15, 3, 8, 26, 5, 21, 24]
    assert lengths.tolist() == [2, 1, 2, 1, 1, 3, 1, 1]
    assert build(width, height, instances, ids, id_runs, starts, lengths) == scene


@pytest.mark.parametrize("config", [
    GenConfig(seed=0, width=640, height=480),
    GenConfig(seed=0, width=256, height=256, object_count_range=(8, 12), size_range=(0.15, 0.4)),
], ids=["640x480", "order-256"])
def test_a_pickle_takes_about_the_bytes_the_scene_holds(config):
    scene = generate(config)
    data = pickle.dumps(scene)
    assert held_bytes(scene) < len(data) <= held_bytes(scene) + 1_024
    assert pickle.loads(data) == scene


# ---------------------------------------------------------------------------
# the per-entry layout as the oracle


class Entries:
    """Every occupied slot with the id held there, sorted by id and then by
    slot, and each scene read as that layout answered it."""

    def __init__(self, width, height, records, slots, ids):
        order = np.lexsort((slots, ids))
        self.width, self.height, self.records = width, height, records
        self.area = width * height
        self.slots = np.asarray(slots, np.int64)[order]
        self.ids = np.asarray(ids, np.int64)[order]

    def instance_slots(self, instance_id):
        slots = self.slots[self.ids == instance_id]
        if not slots.size:
            return None, slots
        pixels = slots % self.area
        cols = pixels % self.width
        box = (int(pixels.min()) // self.width, int(pixels.max()) // self.width + 1,
               int(cols.min()), int(cols.max()) + 1)
        return box, slots

    def stack_at(self, x, y):
        here = self.slots % self.area == y * self.width + x
        return tuple(self.ids[here][self.slots[here].argsort()].tolist())

    def cells(self, dense):
        depth, pixel = np.divmod(self.slots, self.area)
        order = np.lexsort((depth, pixel))
        pixel, ids = pixel[order], self.ids[order]
        if dense:
            return np.arange(self.area), np.bincount(pixel, minlength=self.area), ids
        starts = np.flatnonzero(np.diff(pixel, prepend=-1))
        return pixel[starts], np.diff(starts, append=pixel.size), ids

    def stacks(self):
        depth = int(self.slots.max()) // self.area + 1 if self.slots.size else 0
        stacks = np.zeros((depth, self.height, self.width), np.int32)
        stacks.reshape(-1)[self.slots] = self.ids
        return stacks

    def violations(self):
        out, seen = [], set()
        for record in self.records:
            if record.id in seen:
                out.append(SceneViolation("duplicate_instance",
                                          f"instance id {record.id} listed more than once",
                                          None, record.id))
            seen.add(record.id)
        pixels = self.slots % self.area
        for uid in np.unique(self.ids).tolist():
            if uid in seen:
                continue
            y, x = divmod(int(pixels[np.argmax(self.ids == uid)]), self.width)
            if uid < 0:
                out.append(SceneViolation(
                    "invalid_id", f"stack at ({x}, {y}) holds non-positive id {uid}", (x, y), uid))
            else:
                out.append(SceneViolation(
                    "unknown_id",
                    f"stack at ({x}, {y}) references id {uid} missing from the instance list",
                    (x, y), uid))
        pairs = sorted(zip(self.ids.tolist(), pixels.tolist()))
        twice = {}
        for (uid, pixel), (next_uid, next_pixel) in zip(pairs, pairs[1:]):
            if (uid, pixel) == (next_uid, next_pixel):
                twice.setdefault(uid, pixel)
        for uid, pixel in sorted(twice.items(), key=lambda item: (item[1], item[0])):
            y, x = divmod(pixel, self.width)
            out.append(SceneViolation("duplicate_id_in_stack",
                                      f"id {uid} occurs twice in the stack at ({x}, {y})",
                                      (x, y), uid))
        occupied = set(self.slots.tolist())
        gaps = [slot - self.area for slot in occupied if slot >= self.area
                and slot - self.area not in occupied]
        if gaps:
            y, x = divmod(min(gaps) % self.area, self.width)
            out.append(SceneViolation(
                "gap_in_stack", f"stack at ({x}, {y}) has an occupied slot below an empty one",
                (x, y)))
        return out

    def levels(self, instance_id):
        box, slots = self.instance_slots(instance_id)
        if box is None:
            return None, None
        levels = np.full((self.height, self.width), LEVEL_ABSENT, np.int32)
        for slot in slots[::-1].tolist():  # back to front: the front-most level wins
            levels.reshape(-1)[slot % self.area] = slot // self.area
        return box, levels[box[0] : box[1], box[2] : box[3]]

    def masks(self, instance_id):
        _, slots = self.instance_slots(instance_id)
        amodal = np.zeros(self.area, bool)
        amodal[slots % self.area] = True
        visible = np.zeros(self.area, bool)
        visible[slots[slots < self.area]] = True
        shape = (self.height, self.width)
        return amodal.reshape(shape), visible.reshape(shape)

    def render(self):
        image = np.zeros((self.area, 3), np.uint8)
        for record in self.records:
            front = self.slots[(self.ids == record.id) & (self.slots < self.area)]
            image[front] = instance_color(record.id)
        return image.reshape(self.height, self.width, 3)


RECORDS = (InstanceRecord(1, "cup"), InstanceRecord(2), InstanceRecord(3, "box"),
           InstanceRecord(2**31 - 1), InstanceRecord(2**40))
IDS = [1, 1, 2, 3, 2**31 - 1, -1, -(2**31), 7]  # 1 most often; -1, -2**31 and 7 are not listed


@st.composite
def _entry_parts(draw):
    """(width, height, slots, ids) of distinct slots drawn as stretches of
    consecutive slots of one id, later stretches overwriting earlier ones:
    on a small frame, or on a CORNERS frame with the stretches at the ends
    and starts of its planes and its last slot always held, so that its
    slots reach the last of the frame's planes."""
    corner = draw(st.sampled_from([None, *sorted(CORNERS)]))
    if corner is None:
        width, height = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        planes = draw(st.integers(1, 4))
        end = planes * width * height
        spots = st.integers(0, end - 1)
        held = {}
    else:
        side, deep = corner
        width = height = side
        end = (2 if deep else 1) * side * side
        # near a plane's start or end, or about a row before it
        offsets = st.one_of(st.integers(-20, 20), st.integers(-side - 20, -side + 20))
        spots = st.builds(lambda edge, offset: min(max(edge + offset, 0), end - 1),
                          st.sampled_from(range(0, end + 1, side * side)), offsets)
        held = {end - 1: draw(st.sampled_from(IDS))}
    for start, length, instance_id in draw(st.lists(
            st.tuples(spots, st.integers(1, 17), st.sampled_from(IDS)), max_size=12)):
        for slot in range(start, min(start + length, end)):
            held[slot] = instance_id
    return width, height, list(held), list(held.values())


def assert_reads_match_entries(scene, want):
    # expanded slots keep the runs' dtype, as pickles do
    assert scene._entry_slots().dtype == run_dtype(scene)
    assert np.array_equal(scene._entry_slots(), want.slots)
    assert np.array_equal(scene._entry_ids(), want.ids)
    for record in scene.instances:
        box, slots = _instance_slots(scene, record.id)
        want_box, want_slots = want.instance_slots(record.id)
        assert box == want_box and np.array_equal(slots, want_slots)
        assert slots.dtype == run_dtype(scene)
    pixels = sorted(set((want.slots % want.area).tolist()) | {0, want.area - 1})
    for pixel in pixels:
        y, x = divmod(pixel, want.width)
        assert scene.stack_at(x, y) == want.stack_at(x, y)
    for got, expected in zip(_scene_cells(scene, False), want.cells(False)):
        assert np.array_equal(got, expected)
    assert validate_scene(scene) == want.violations()
    build, args = scene.__reduce__()
    assert build == LayerStackScene._of_runs
    assert args[:3] == (want.width, want.height, scene.instances)
    assert all(mine is held for mine, held in zip(
        args[3:], (scene._ids, scene._id_runs, scene._starts, scene._lengths)))
    twin = pickle.loads(pickle.dumps(scene))
    assert twin == scene and run_dtype(twin) == run_dtype(scene)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_entry_parts(), st.randoms(use_true_random=False))
def test_every_scene_read_gives_what_the_per_entry_layout_gives(parts, rng):
    width, height, slots, ids = parts
    want = Entries(width, height, RECORDS, slots, ids)
    scene = LayerStackScene._of_entries(width, height, RECORDS, np.array(slots),
                                        np.array(ids, np.int32))
    assert_reads_match_entries(scene, want)
    assert "stacks" not in vars(scene)
    # the entries in any order make the same runs
    order = list(range(len(slots)))
    rng.shuffle(order)
    shuffled = LayerStackScene._of_entries(width, height, RECORDS, np.array(slots, np.int64)[order],
                                           np.array(ids, np.int32)[order])
    assert shuffled == scene and run_dtype(shuffled) == run_dtype(scene)
    if slots:
        changed = list(ids)
        changed[rng.randrange(len(ids))] = 3 if changed[0] != 3 else 2
        other = LayerStackScene._of_entries(width, height, RECORDS, np.array(slots),
                                            np.array(changed, np.int32))
        assert (other == scene) == (sorted(zip(slots, changed)) == sorted(zip(slots, ids)))
    if width * height > 64:  # a CORNERS frame: no read of the whole frame
        return
    stacks = want.stacks()
    assert LayerStackScene(width, height, RECORDS, stacks) == scene
    assert np.array_equal(scene.stacks, stacks)
    assert np.array_equal(scene.depth_counts(), (stacks != 0).sum(axis=0))
    for got, expected in zip(_scene_cells(scene, True), want.cells(True)):
        assert np.array_equal(got, expected)
    assert np.array_equal(render(scene), want.render())
    for record in RECORDS:
        box, levels = _instance_levels(scene, record.id)
        want_box, want_levels = want.levels(record.id)
        assert box == want_box and (levels is None) == (want_levels is None)
        assert levels is None or np.array_equal(levels, want_levels)
        for got, expected in zip(_instance_masks(scene, record.id), want.masks(record.id)):
            assert np.array_equal(got.bits, expected)


@pytest.mark.parametrize("seed", [0, 1])
def test_generated_and_read_scenes_match_the_per_entry_layout(seed, tmp_path):
    scene = generate(GenConfig(seed=seed, width=97, height=41, object_count_range=(4, 9)))
    flat = scene.stacks.reshape(-1)
    slots = np.flatnonzero(flat)
    want = Entries(scene.width, scene.height, scene.instances, slots, flat[slots])
    fresh = LayerStackScene(scene.width, scene.height, scene.instances, scene.stacks)
    assert_reads_match_entries(fresh, want)
    for form in ("sparse", "dense"):
        write_scene(scene, tmp_path / f"{form}.json", form)
        again = read_scene(tmp_path / f"{form}.json")
        assert again == scene
        assert_reads_match_entries(again, want)


def test_a_reader_keeps_maximal_runs_when_keys_come_in_string_order():
    # string order puts "10" before "9", so one row's pixels arrive out of order
    random.seed(3)
    ids = [random.choice([1, 2]) for _ in range(30)]
    doc = {"width": 30, "height": 1,
           "instances": [{"id": 1, "category": None}, {"id": 2, "category": None}],
           "stacks": {str(x): [i] for x, i in sorted(enumerate(ids), key=lambda c: str(c[0]))}}
    scene = scene_from_dict(doc)
    want = LayerStackScene(30, 1, (InstanceRecord(1), InstanceRecord(2)),
                           np.array(ids, np.int32).reshape(1, 1, 30))
    assert scene == want
    assert scene._lengths.size == 1 + int(np.count_nonzero(np.diff(ids)))
