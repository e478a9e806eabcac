"""A scene holds each stack entry in 4 bytes wherever it can.

The slots are int32 where every stack plane of the frame fits int32, that
is where (max depth + 1) * height * width <= 2**31 - 1, and intp otherwise,
and the ids are held once per run. The sparse scenes here sit on both sides
of that boundary with their entries in the bottom-right corner, so their
slots are the largest the dtype holds. They go through every read that does
not allocate the frame (so not depth_counts, visibility_levels or stacks).
"""

import pickle

import numpy as np
import pytest

from semdist import (
    GenConfig,
    InstanceRecord,
    LayerStackScene,
    encode_semdist,
    generate,
    read_scene,
    scene_from_dict,
    scene_to_dict,
    validate_scene,
    write_scene,
)
from semdist.types import _instance_slots

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


CORNERS = {  # (side, deep): the slots' dtype
    (46340, False): np.int32,  # 1 plane of 2,147,395,600 slots
    (46340, True): np.intp,  # 2 planes: past int32
    (46341, False): np.intp,  # 1 plane of 2,147,488,281 slots: past int32
    (32767, True): np.int32,  # 2 planes of 1,073,676,289 slots: the last slot is 2,147,352,577
}


@pytest.mark.parametrize("side, deep", sorted(CORNERS))
def test_corner_scene_reads_at_the_int32_slot_boundary(side, deep, tmp_path):
    doc = corner_doc(side, deep)
    scene = scene_from_dict(doc)
    assert scene._slots.dtype == CORNERS[side, deep]
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
    assert again == scene and again._slots.dtype == scene._slots.dtype
    unpickled = pickle.loads(pickle.dumps(scene))
    assert unpickled == scene and unpickled._slots.dtype == scene._slots.dtype
    other = dict(doc, stacks={**doc["stacks"], str(side * side - 1 - side): [1]})
    assert scene_from_dict(other) != scene
    assert "stacks" not in vars(scene)


def held_bytes(scene):
    return sum(value.nbytes for value in vars(scene).values() if isinstance(value, np.ndarray))


def test_an_order_256_scene_holds_4_bytes_per_entry_and_a_constant_per_run():
    scene = generate(GenConfig(seed=0, width=256, height=256, object_count_range=(8, 12),
                               size_range=(0.15, 0.4)))
    entries, runs = scene._slots.size, len(scene.ids())
    assert entries > 10_000 and scene._slots.dtype == np.int32
    # an int32 id and an intp start per run, and the entry count after the last
    assert held_bytes(scene) <= 4 * entries + 12 * runs + 8


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
    assert scene == old_scene() and scene._slots.dtype == np.int32
    assert np.array_equal(scene.stacks, old_scene().stacks)
    assert pickle.loads(pickle.dumps(scene)) == scene


def test_reduce_hands_the_slots_and_an_id_per_entry_to_of_entries():
    scene = old_scene()
    build, (width, height, instances, slots, ids) = scene.__reduce__()
    assert build == LayerStackScene._of_entries
    assert (width, height, instances) == (5, 4, scene.instances)
    assert slots.tolist() == [0, 1, 15, 3, 4, 8, 26, 5, 6, 7, 21, 24]
    assert ids.dtype == np.int32 and ids.tolist() == [1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3]
