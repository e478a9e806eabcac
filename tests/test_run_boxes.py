"""Every scene holds the support box of each listed instance from
construction, found from its run table in one pass over the runs.

Right after any builder (the public constructor, _of_entries, from_layers,
generate, read_scene and scene_from_dict in both stack forms, and pickle),
_boxes must map exactly the listed ids, each to the brute-force box of the
pixels whose stack holds it, or to None where no pixel does, as a tuple of
Python ints. _boxes is read-only, and no read changes it. The raw stacks
here have gaps, an id twice in one stack, negative and unlisted ids, zero
depth, runs over a row end, runs into the next plane and runs longer than
one plane; the listed ids include ids past int32.
"""

import pickle
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semdist import (
    BinaryMask,
    GenConfig,
    GenerationError,
    InstanceRecord,
    LayerStackScene,
    amodal_mask_of,
    encode_scene,
    encode_semdist,
    generate,
    read_scene,
    render,
    scene_annotations,
    scene_from_dict,
    scene_to_dict,
    visibility_levels,
    visible_mask_of,
    write_scene,
)
from semdist.types import _instance_slots

INT32_MAX = 2**31 - 1
RECORDS = (InstanceRecord(1, "cup"), InstanceRecord(2), InstanceRecord(3, "box"),
           InstanceRecord(5), InstanceRecord(INT32_MAX), InstanceRecord(2**40))
IDS = [1, 1, 2, 3, INT32_MAX, -1, -(2**31), 7]  # 5 and 2**40 never held; -1, -2**31, 7 unlisted


def brute_boxes(records, stacks):
    """The box of each listed id around the pixels whose stack holds it,
    from the (depth, height, width) stacks, or None where none does."""
    boxes = {}
    for record in records:
        held = np.zeros(stacks.shape[1:], bool)
        if record.id <= INT32_MAX:  # an id past int32 is in no stack
            held = (stacks == record.id).any(axis=0)
        ys, xs = np.nonzero(held)
        boxes[record.id] = (None if ys.size == 0 else
                            (int(ys.min()), int(ys.max()) + 1, int(xs.min()), int(xs.max()) + 1))
    return boxes


def assert_holds_boxes(scene, want):
    assert dict(scene._boxes) == want
    for box in scene._boxes.values():
        assert box is None or (len(box) == 4 and all(type(bound) is int for bound in box))
    for key in (*want, 12345):
        with pytest.raises(TypeError):
            scene._boxes[key] = None
    with pytest.raises(TypeError):
        del scene._boxes[next(iter(want))]
    assert dict(scene._boxes) == want


def assert_reads_keep_boxes(scene, want):
    """No per-instance read, encode_scene, scene_annotations or render
    changes the boxes."""
    boxes = scene._boxes
    for instance_id in scene.ids():
        assert _instance_slots(scene, instance_id)[0] == want[instance_id]
        amodal_mask_of(scene, instance_id)
        visible_mask_of(scene, instance_id)
        visibility_levels(scene, instance_id)
        assert encode_semdist(scene, instance_id)._support_box == want[instance_id]
    encode_scene(scene)
    render(scene)
    if all(box is not None for box in want.values()):  # else an empty mask raises
        scene_annotations(scene)
    assert scene._boxes is boxes and dict(boxes) == want


def assert_pickles_hold_boxes(scene, want):
    twin = pickle.loads(pickle.dumps(scene))
    assert twin == scene
    assert_holds_boxes(twin, want)


# ---------------------------------------------------------------------------
# any stacks the public constructor takes


@st.composite
def _raw_stacks(draw):
    """(width, height, stacks) on a small frame with 0 to 4 planes, drawn
    as stretches of consecutive slots of one id, later ones overwriting
    earlier ones; a stretch may run over row ends, into the next plane and
    past a whole plane, so one stack may hold an id twice."""
    width, height, planes = draw(st.integers(1, 7)), draw(st.integers(1, 7)), draw(st.integers(0, 4))
    area = width * height
    flat = np.zeros(planes * area, np.int64)
    if planes:
        for start, length, instance_id in draw(st.lists(st.tuples(
                st.integers(0, flat.size - 1), st.integers(1, 2 * area + 2), st.sampled_from(IDS)),
                max_size=10)):
            flat[start : start + length] = instance_id
    return width, height, flat.reshape(planes, height, width)


# 4x3 frame: id 1 over slots 10..30 (row ends, both plane boundaries, longer
# than a plane, twice in the stacks of pixels 10 and 11), id 2 in one row,
# INT32_MAX over a row end, -1 and 7 unlisted, and a gap at pixel 5
CRAFTED = np.zeros(3 * 12, np.int64)
CRAFTED[10:31] = 1
CRAFTED[0:3] = 2
CRAFTED[6:10] = INT32_MAX
CRAFTED[3], CRAFTED[4] = -1, 7


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_raw_stacks(), st.randoms(use_true_random=False))
@example((4, 3, CRAFTED.reshape(3, 3, 4)), random.Random(0))
@example((5, 2, np.zeros((0, 2, 5), np.int64)), random.Random(0))
def test_raw_stacks_hold_their_boxes_from_construction(parts, rng):
    width, height, stacks = parts
    want = brute_boxes(RECORDS, stacks)
    scene = LayerStackScene(width, height, RECORDS, stacks)
    assert_holds_boxes(scene, want)
    flat = stacks.reshape(-1)
    slots = np.flatnonzero(flat)
    order = list(range(slots.size))
    rng.shuffle(order)
    entries = LayerStackScene._of_entries(width, height, RECORDS, slots[order],
                                          flat[slots][order].astype(np.int32))
    assert entries == scene
    assert_holds_boxes(entries, want)
    assert_pickles_hold_boxes(scene, want)
    assert_reads_keep_boxes(scene, want)


def test_the_crafted_stacks_have_the_runs_they_are_meant_to():
    scene = LayerStackScene(4, 3, RECORDS, CRAFTED.reshape(3, 3, 4))
    k = int(np.searchsorted(scene._ids, 1))
    runs = slice(scene._id_runs[k], scene._id_runs[k + 1])
    assert scene._starts[runs].tolist() == [10] and scene._lengths[runs].tolist() == [21]
    assert scene._boxes[1] == (0, 3, 0, 4) and scene._boxes[2] == (0, 1, 0, 3)
    assert scene._boxes[INT32_MAX] == (1, 3, 0, 4)
    assert scene._boxes[5] is None and scene._boxes[2**40] is None
    assert scene.stack_at(2, 2) == (1, 1)


# ---------------------------------------------------------------------------
# scenes that the readers take back: from_layers and generate


def assert_read_back_holds_boxes(scene, want):
    for form in ("sparse", "dense"):
        back = scene_from_dict(scene_to_dict(scene, form))
        assert back == scene
        assert_holds_boxes(back, want)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scene.json"
            write_scene(scene, path, form)
            again = read_scene(path)
        assert again == scene
        assert_holds_boxes(again, want)
        assert_reads_keep_boxes(again, want)
    assert_pickles_hold_boxes(scene, want)


@st.composite
def _layers(draw):
    """(width, height, layers) of random masks front to back, among them an
    absent id past int32 and, maybe, other empty masks."""
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    count = draw(st.integers(0, 5))
    bits = draw(st.lists(st.lists(st.booleans(), min_size=width * height,
                                  max_size=width * height), min_size=count, max_size=count))
    ids = draw(st.permutations([1, 2, 3, 4, 5]))[:count]
    layers = [(InstanceRecord(i), BinaryMask(np.array(b, bool).reshape(height, width)))
              for i, b in zip(ids, bits)]
    layers.insert(draw(st.integers(0, count)), (InstanceRecord(2**40), BinaryMask.zeros(width, height)))
    return width, height, layers


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_layers())
def test_from_layers_and_read_scenes_hold_their_boxes_from_construction(parts):
    width, height, layers = parts
    want = {}
    for record, mask in layers:
        ys, xs = np.nonzero(mask.bits)
        want[record.id] = (None if ys.size == 0 else
                           (int(ys.min()), int(ys.max()) + 1, int(xs.min()), int(xs.max()) + 1))
    scene = LayerStackScene.from_layers(width, height, layers)
    assert_holds_boxes(scene, want)
    assert_read_back_holds_boxes(scene, want)
    assert_reads_keep_boxes(scene, want)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 48), st.integers(2, 48))
def test_generated_and_read_scenes_hold_their_boxes_from_construction(seed, width, height):
    try:
        scene = generate(GenConfig(seed=seed, width=width, height=height,
                                   object_count_range=(1, 8)))
    except GenerationError:
        return
    want = brute_boxes(scene.instances, scene.stacks)
    assert_holds_boxes(scene, want)
    assert_read_back_holds_boxes(scene, want)
    assert_reads_keep_boxes(scene, want)


@pytest.mark.parametrize("config", [GenConfig(seed=0, width=97, height=41),
                                    GenConfig(seed=0, width=640, height=480)],
                         ids=lambda c: f"{c.width}x{c.height}")
def test_larger_generated_scenes_hold_their_boxes_from_construction(config):
    scene = generate(config)
    want = brute_boxes(scene.instances, scene.stacks)
    assert_holds_boxes(scene, want)
    assert_read_back_holds_boxes(scene, want)
