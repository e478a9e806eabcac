import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdist import (
    BinaryMask,
    CocoaImportError,
    GenConfig,
    ImageFormatError,
    InstanceRecord,
    LayerStackScene,
    PerturbConfig,
    RleError,
    RleMask,
    SchemaError,
    SdmFormatError,
    SemDistError,
    SemDistMap,
    amodal_mask_of,
    annotations_from_dict,
    annotations_to_dict,
    assign_maps_to_gt,
    encode_semdist,
    evaluate,
    generate,
    import_cocoa,
    perturb,
    rasterize_polygon,
    read_pgm,
    read_annotations,
    read_ppm,
    read_scene,
    read_semdist,
    rle_decode,
    rle_encode,
    scene_annotations,
    scene_from_dict,
    scene_to_dict,
    write_pgm,
    write_ppm,
    write_scene,
    write_semdist,
)
from semdist import io as semdist_io
from semdist.cli import main
from semdist.io import (
    _dump_json,
    _get_required,
    _load_json,
    _parse_instances,
    _reject_unknown,
    _require_int,
    _require_list,
    _require_object,
    _scene_from_text,
)


class TestRle:
    def test_s0_front_mask_counts(self, s0):
        rle = rle_encode(amodal_mask_of(s0, 1))
        assert rle.counts == (0, 2, 1, 2, 1, 2, 1)

    def test_leading_background_run(self, s0):
        rle = rle_encode(amodal_mask_of(s0, 2))
        assert rle.counts == (1, 2, 1, 2, 1, 2)

    def test_full_and_empty(self):
        full = rle_encode(BinaryMask(np.ones((2, 3), bool)))
        assert full.counts == (0, 6)
        empty = rle_encode(BinaryMask.zeros(3, 2))
        assert empty.counts == (6,)

    def test_round_trip_random_masks(self):
        rng = np.random.Generator(np.random.PCG64(31))
        for _ in range(25):
            h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            mask = BinaryMask(rng.uniform(size=(h, w)) < 0.4)
            assert rle_decode(rle_encode(mask)) == mask

    def test_counts_must_sum_to_area(self):
        with pytest.raises(RleError):
            rle_decode(RleMask(3, 3, (0, 5)))

    def test_counts_must_be_non_negative_ints(self):
        with pytest.raises(RleError):
            RleMask(2, 2, (0, -4))
        with pytest.raises(RleError):
            RleMask(2, 2, (0, 2.0))
        with pytest.raises(RleError):
            RleMask(2, 2, (True, 3))

    def test_int_subclass_counts_are_accepted(self):
        class Count(int):
            pass

        assert rle_decode(RleMask(2, 2, (Count(1), Count(3)))).area() == 3

    def test_dimensions_positive(self):
        with pytest.raises(RleError):
            RleMask(0, 3, (0,))

    def test_area_past_intp_raises_before_numpy(self):
        # counts that sum to the area but do not fit int64; numpy never sees them
        with pytest.raises(RleError, match="more pixels than an array can index"):
            rle_decode(RleMask(10**10, 10**10, (0, 10**20)))

    def test_mask_no_memory_can_hold_raises_rle_error(self):
        # 2**62 bytes: an allocation that fails at once, with nothing to overcommit
        with pytest.raises(RleError) as err:
            rle_decode(RleMask(2**31, 2**31, (0, 2**62)))
        assert str(err.value) == "a 2147483648x2147483648 mask does not fit in memory"
        assert isinstance(err.value.__cause__, (MemoryError, ValueError))


class TestSceneJson:
    def test_sparse_round_trip(self, s0):
        assert scene_from_dict(scene_to_dict(s0)) == s0

    def test_dense_round_trip(self, s0):
        doc = scene_to_dict(s0, "dense")
        assert isinstance(doc["stacks"], list)
        assert len(doc["stacks"]) == 9
        assert scene_from_dict(doc) == s0

    def test_sparse_keys_are_pixel_indices(self, s0):
        doc = scene_to_dict(s0)
        # row 0 of the 3x3 grid holds only instance 1
        assert doc["stacks"]["0"] == [1]
        assert doc["stacks"]["4"] == [1, 2]
        assert doc["stacks"]["8"] == [2]

    def test_sparse_keys_are_row_major(self):
        # on a 3-wide, 2-high scene, (x=1, y=0) is key 1 row-major but 2
        # column-major, and (x=0, y=1) is key 3 row-major but 1 column-major
        stacks = np.zeros((1, 2, 3), dtype=np.int32)
        stacks[0, 0, 1] = 1
        stacks[0, 1, 0] = 2
        scene = LayerStackScene(3, 2, (InstanceRecord(1), InstanceRecord(2)), stacks)
        doc = scene_to_dict(scene)
        assert doc["stacks"] == {"1": [1], "3": [2]}
        assert scene_from_dict(doc) == scene

    def test_generated_scene_round_trips(self, corpus):
        for scene in corpus[:5]:
            assert scene_from_dict(scene_to_dict(scene)) == scene
            assert scene_from_dict(scene_to_dict(scene, "dense")) == scene

    def test_file_round_trip_is_deterministic(self, s0, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_scene(s0, first)
        write_scene(s0, second)
        assert first.read_bytes() == second.read_bytes()
        assert read_scene(first) == s0

    def test_unknown_top_level_field(self, s0):
        doc = scene_to_dict(s0)
        doc["colour"] = 1
        with pytest.raises(SchemaError) as err:
            scene_from_dict(doc)
        assert err.value.path == "$.colour"

    def test_unknown_instance_field(self, s0):
        doc = scene_to_dict(s0)
        doc["instances"][0]["pose"] = []
        with pytest.raises(SchemaError) as err:
            scene_from_dict(doc)
        assert err.value.path == "$.instances[0].pose"

    def test_missing_field_reports_path(self, s0):
        doc = scene_to_dict(s0)
        del doc["width"]
        with pytest.raises(SchemaError) as err:
            scene_from_dict(doc)
        assert err.value.path == "$.width"

    def test_duplicate_instance_ids_rejected(self, s0):
        doc = scene_to_dict(s0)
        doc["instances"].append({"id": 1, "category": None})
        with pytest.raises(SchemaError) as err:
            scene_from_dict(doc)
        assert err.value.path == "$.instances[2].id"

    def test_stack_must_reference_known_ids(self, s0):
        doc = scene_to_dict(s0)
        doc["stacks"]["0"] = [99]
        with pytest.raises(SchemaError) as err:
            scene_from_dict(doc)
        assert err.value.path == '$.stacks["0"][0]'

    def test_stack_cell_duplicates_rejected(self, s0):
        doc = scene_to_dict(s0)
        doc["stacks"]["0"] = [1, 1]
        with pytest.raises(SchemaError):
            scene_from_dict(doc)

    @pytest.mark.parametrize("key", ["x", "-1", "01", "1.5", "9"])
    def test_sparse_key_validation(self, s0, key):
        doc = scene_to_dict(s0)
        doc["stacks"][key] = [1]
        with pytest.raises(SchemaError):
            scene_from_dict(doc)

    def test_sparse_cells_must_not_be_empty(self, s0):
        doc = scene_to_dict(s0)
        doc["stacks"]["0"] = []
        with pytest.raises(SchemaError):
            scene_from_dict(doc)

    def test_dense_length_must_match(self, s0):
        doc = scene_to_dict(s0, "dense")
        doc["stacks"].append([])
        with pytest.raises(SchemaError) as err:
            scene_from_dict(doc)
        assert err.value.path == "$.stacks"

    def test_stacks_type_checked(self, s0):
        doc = scene_to_dict(s0)
        doc["stacks"] = "nope"
        with pytest.raises(SchemaError):
            scene_from_dict(doc)

    def test_root_must_be_object(self):
        with pytest.raises(SchemaError) as err:
            scene_from_dict([1, 2])
        assert err.value.path == "$"

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError):
            read_scene(path)

    def test_category_type_checked(self, s0):
        doc = scene_to_dict(s0)
        doc["instances"][0]["category"] = 7
        with pytest.raises(SchemaError):
            scene_from_dict(doc)

    def test_bool_not_accepted_as_int(self, s0):
        doc = scene_to_dict(s0)
        doc["width"] = True
        with pytest.raises(SchemaError):
            scene_from_dict(doc)


def _reference_scene_to_dict(scene, stacks="sparse"):
    """scene_to_dict written as one Python step per pixel: the reference
    the golden tests hold the vectorised writer to."""
    instances = [{"id": r.id, "category": r.category} for r in scene.instances]
    arr = scene.stacks
    if stacks == "dense":
        cells = [
            [int(v) for v in arr[:, y, x] if v != 0]
            for y in range(scene.height)
            for x in range(scene.width)
        ]
    else:
        cells = {}
        occupied = np.argwhere(arr.any(axis=0)) if arr.size else []
        for y, x in occupied:
            column = arr[:, y, x]
            cells[str(int(y) * scene.width + int(x))] = [int(v) for v in column[column != 0]]
    return {"width": scene.width, "height": scene.height, "instances": instances, "stacks": cells}


def _oracle_parse_stack_cell(raw, path, known):
    entries = _require_list(raw, path)
    cell = []
    for pos, value in enumerate(entries):
        entry_path = f"{path}[{pos}]"
        instance_id = _require_int(value, entry_path, 1)
        if instance_id not in known:
            raise SchemaError(entry_path, f"id {instance_id} missing from the instance list")
        if instance_id > 2**31 - 1:  # stacks are int32
            raise SchemaError(entry_path, f"id {instance_id} exceeds the int32 stack range")
        if instance_id in cell:
            raise SchemaError(entry_path, f"id {instance_id} repeated within one pixel stack")
        cell.append(instance_id)
    return cell


def _oracle_scene_from_dict(doc):
    """scene_from_dict written as a walk over every stack cell: the
    reference the property test holds the bulk reader to. A listed id above
    the int32 range is rejected at its stack entry, in document order like
    every other rule."""
    root = _require_object(doc, "$")
    _reject_unknown(root, ("width", "height", "instances", "stacks"), "$")
    width = _require_int(_get_required(root, "width", "$"), "$.width", 1)
    height = _require_int(_get_required(root, "height", "$"), "$.height", 1)
    records = _parse_instances(_get_required(root, "instances", "$"), "$.instances")
    known = {record.id for record in records}
    raw_stacks = _get_required(root, "stacks", "$")
    cells = {}
    if isinstance(raw_stacks, list):
        if len(raw_stacks) != width * height:
            raise SchemaError("$.stacks", "dense length")
        for index, raw_cell in enumerate(raw_stacks):
            cell = _oracle_parse_stack_cell(raw_cell, f"$.stacks[{index}]", known)
            if cell:
                cells[index] = cell
    elif isinstance(raw_stacks, dict):
        for key, raw_cell in raw_stacks.items():
            key_path = f'$.stacks["{key}"]'
            if not isinstance(key, str) or not re.fullmatch(r"0|[1-9][0-9]*", key):
                raise SchemaError(key_path, "sparse keys must be decimal pixel indices")
            index = int(key)
            if index >= width * height:
                raise SchemaError(key_path, "pixel index outside the grid")
            cell = _oracle_parse_stack_cell(raw_cell, key_path, known)
            if not cell:
                raise SchemaError(key_path, "sparse stack cells must not be empty")
            cells[index] = cell
    else:
        raise SchemaError("$.stacks", "expected an array (dense) or object (sparse)")
    depth = max((len(cell) for cell in cells.values()), default=0)
    stacks = np.zeros((depth, height, width), dtype=np.int32)
    for index, cell in cells.items():
        y, x = divmod(index, width)
        stacks[: len(cell), y, x] = cell
    return LayerStackScene(width, height, records, stacks)


def _edge_scenes():
    empty = LayerStackScene(5, 4, (InstanceRecord(3),), np.zeros((0, 4, 5), dtype=np.int32))
    # stacks with gaps and a non-positive id, as validate_scene allows
    gapped = np.zeros((3, 2, 3), dtype=np.int32)
    gapped[1, 0, 0] = 1
    gapped[:, 1, 2] = (2, 0, 1)
    gapped[2, 0, 2] = -1
    gaps = LayerStackScene(3, 2, (InstanceRecord(1), InstanceRecord(2)), gapped)
    # sixteen occupied pixels: keys "10".."15" sort before "2" as strings
    full = np.zeros((2, 4, 4), dtype=np.int32)
    full[0] = 7
    full[1, 1:3] = 12
    categories = (
        InstanceRecord(7, None),
        InstanceRecord(12, 'a "stacks": {} b, "q\'uo"te\\'),
    )
    crowded = LayerStackScene(4, 4, categories, full)
    unicode = LayerStackScene(2, 2, (InstanceRecord(1, "ñandú 日本"),), np.ones((1, 2, 2), dtype=np.int32))
    return [empty, gaps, crowded, unicode]


_GOLDEN_SCENES = (
    [generate(GenConfig(seed=s, width=16, height=16)) for s in range(6)]
    + [generate(GenConfig(seed=s)) for s in range(3)]
    + [generate(GenConfig(seed=0, width=256, height=256, object_count_range=(8, 12)))]
    + _edge_scenes()
)


def _plain_ints(node):
    if isinstance(node, dict):
        return all(map(_plain_ints, node.values()))
    if isinstance(node, list):
        return all(map(_plain_ints, node))
    return node is None or type(node) in (int, str)


class TestSceneWriterGolden:
    @pytest.mark.parametrize("form", ["sparse", "dense"])
    @pytest.mark.parametrize("index", range(len(_GOLDEN_SCENES)))
    def test_matches_per_pixel_reference(self, index, form, tmp_path):
        scene = _GOLDEN_SCENES[index]
        doc = scene_to_dict(scene, form)
        reference = _reference_scene_to_dict(scene, form)
        assert doc == reference
        assert _plain_ints(doc)
        if form == "sparse":
            assert list(doc["stacks"]) == list(reference["stacks"])
        path = tmp_path / "scene.json"
        write_scene(scene, path, form)
        expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    def test_unknown_form_rejected(self, s0, tmp_path):
        with pytest.raises(ValueError):
            write_scene(s0, tmp_path / "scene.json", "csv")
        with pytest.raises(ValueError):
            scene_to_dict(s0, "csv")


_CANNOT_HOLD = (
    "cannot hold 1x4294967296x4294967296 stacks: "
    "the stacks are larger than the maximum possible array size"
)


class TestSceneReaderLimits:
    @pytest.mark.parametrize(
        "form, cell, path",
        [("sparse", "0", '$.stacks["0"][0]'), ("dense", 0, "$.stacks[0][1]")],
    )
    def test_id_beyond_int32_in_a_stack(self, s0, form, cell, path):
        doc = scene_to_dict(s0, form)
        doc["instances"].append({"id": 2**40, "category": None})
        if form == "sparse":
            doc["stacks"][cell] = [2**40]
        else:
            doc["stacks"][cell] = [1, 2**40]
        with pytest.raises(SchemaError) as err:
            scene_from_dict(doc)
        assert err.value.path == path

    @pytest.mark.parametrize("form, cell, path", [("sparse", "0", '$.stacks["0"]'), ("dense", 0, "$.stacks[0]")])
    @pytest.mark.parametrize("entry", [[1], {}, {"1": 1}, [[1]]])
    def test_stack_entry_that_is_a_container(self, s0, tmp_path, form, cell, path, entry):
        # an unhashable entry is a schema error, not a TypeError, on both paths
        doc = scene_to_dict(s0, form)
        doc["stacks"][cell] = [entry]
        file = tmp_path / "nested.json"
        file.write_text(json.dumps(doc), encoding="utf-8")
        for read in (lambda: scene_from_dict(doc), lambda: read_scene(file)):
            with pytest.raises(SchemaError) as err:
                read()
            assert err.value.path == f"{path}[0]"
            assert "expected an integer" in str(err.value)

    def test_id_beyond_int32_outside_the_stacks_still_reads(self, s0):
        doc = scene_to_dict(s0)
        doc["instances"].append({"id": 2**40, "category": None})
        scene = scene_from_dict(doc)
        assert scene.ids() == (1, 2, 2**40)
        assert np.array_equal(scene.stacks, s0.stacks)

    @pytest.mark.parametrize("stacks", [{}, {"0": [1]}])
    def test_grid_too_big_to_hold(self, s0, stacks):
        # numpy refuses this shape outright, without trying to allocate it
        doc = scene_to_dict(s0)
        doc["width"] = doc["height"] = 2**40
        doc["stacks"] = stacks
        with pytest.raises(SchemaError) as err:
            scene_from_dict(doc)
        assert err.value.path == "$"

    @pytest.mark.parametrize("key", [5, 1.5, None, "1,2", "1_0", "١"])
    def test_keys_that_are_not_decimal_strings(self, s0, key):
        doc = scene_to_dict(s0)
        doc["stacks"][key] = [1]
        with pytest.raises(SchemaError) as err:
            scene_from_dict(doc)
        assert err.value.path == f'$.stacks["{key}"]'

    @pytest.mark.parametrize(
        "key, path, message",
        [
            # past intp, past the text reader's 10 digits, and short enough for it
            ("9223372036854775808", "$", _CANNOT_HOLD),
            ("1099511627776", "$", _CANNOT_HOLD),
            ("1", "$", _CANNOT_HOLD),
            (str(2**64), f'$.stacks["{2**64}"]', f"pixel index {2**64} outside a 4294967296x4294967296 grid"),
        ],
    )
    def test_stacks_of_a_frame_no_array_can_hold(self, tmp_path, key, path, message):
        doc = {"width": 2**32, "height": 2**32, "instances": [{"id": 1}], "stacks": {key: [1]}}
        file = tmp_path / "huge.json"
        file.write_text(json.dumps(doc), encoding="utf-8")
        for read in (lambda: scene_from_dict(doc), lambda: read_scene(file)):
            with pytest.raises(SchemaError) as err:
                read()
            assert err.value.path == path and str(err.value) == f"{path}: {message}"

    def test_key_too_long_to_parse(self, s0):
        doc = scene_to_dict(s0)
        key = "1" + "0" * 5000
        doc["stacks"][key] = [1]
        with pytest.raises(SchemaError) as err:
            scene_from_dict(doc)
        assert err.value.path == f'$.stacks["{key}"]'


_MUTATIONS = (
    "drop", "duplicate", "unknown", "bool", "float", "huge", "huge_known", "zero",
    "bad_key", "out_of_range", "move", "empty", "not_list",
)
_BAD_KEYS = ("01", "-1", "1e3", "", " 1", "1,2", "+1", "١", 5, 1.5, None)


def _mutate(doc, kind, draw):
    stacks = doc["stacks"]
    sparse = isinstance(stacks, dict)
    slots = list(stacks) if sparse else list(range(len(stacks)))
    if not slots:
        stacks["0"] = [doc["instances"][0]["id"]]
        return
    slot = draw(st.sampled_from(slots))
    cell = stacks[slot]
    known = [item["id"] for item in doc["instances"]]
    at = draw(st.integers(0, len(cell))) if isinstance(cell, list) else 0
    if kind in ("bad_key", "out_of_range", "move") and not sparse:
        stacks.append([]) if kind == "out_of_range" else stacks.pop()
    elif kind == "bad_key":
        stacks[draw(st.sampled_from(_BAD_KEYS))] = stacks.pop(slot)
    elif kind == "out_of_range":
        area = doc["width"] * doc["height"]
        stacks[str(area + draw(st.integers(0, 3)))] = stacks.pop(slot)
    elif kind == "move":
        area = doc["width"] * doc["height"]
        stacks[str(draw(st.integers(0, area - 1)))] = stacks.pop(slot)
    elif kind == "empty":
        stacks[slot] = []
    elif kind == "not_list":
        stacks[slot] = draw(st.sampled_from([5, "1", None, {"0": 1}, (1,)]))
    elif not isinstance(cell, list):
        return
    elif kind == "drop":
        if cell:
            del cell[min(at, len(cell) - 1)]
    elif kind == "duplicate":
        if cell:
            cell.insert(at, draw(st.sampled_from(cell)))
    elif kind == "huge_known":
        doc["instances"].append({"id": 2**40, "category": None})
        cell.insert(at, 2**40)
    else:
        value = {
            "unknown": max(known, default=0) + 1,
            "bool": True,
            "float": float(known[0]) if known else 1.0,
            "huge": draw(st.sampled_from([2**31, 2**40, 2**70])),
            "zero": draw(st.sampled_from([0, -1])),
        }[kind]
        cell.insert(at, value)


@st.composite
def _mutated_scene_docs(draw):
    size = draw(st.sampled_from([3, 5, 12]))
    scene = generate(GenConfig(seed=draw(st.integers(0, 40)), width=size, height=size))
    doc = json.loads(json.dumps(scene_to_dict(scene, draw(st.sampled_from(["sparse", "dense"])))))
    for _ in range(draw(st.integers(0, 3))):
        _mutate(doc, draw(st.sampled_from(_MUTATIONS)), draw)
    return doc


class TestSceneReaderEquivalence:
    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(_mutated_scene_docs())
    def test_bulk_reader_matches_per_cell_oracle(self, doc):
        try:
            expected = _oracle_scene_from_dict(doc)
        except SemDistError as exc:
            expected = exc
        try:
            got = scene_from_dict(doc)
        except SemDistError as exc:
            got = exc
        if isinstance(expected, LayerStackScene):
            assert got == expected
        else:
            assert type(got) is type(expected)
            assert got.path == expected.path


def _render(doc, style):
    """A scene document as JSON text: as write_scene lays it out, compact,
    or with irregular JSON whitespace (tabs, carriage returns, blank runs)."""
    if style == "sorted":  # keys that are not strings become strings first
        return json.dumps(json.loads(json.dumps(doc)), indent=2, sort_keys=True) + "\n"
    if style == "compact":
        return json.dumps(doc, separators=(",", ":"))
    return "\r\n " + json.dumps(doc, indent="\t \r", separators=(" ,\n", "\t:  ")) + " \t\n"


def _read_both(text):
    """(read_scene, scene_from_dict on the parsed JSON) for one file text;
    each is a scene or the SemDistError it raised."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.json"
        path.write_bytes(text.encode("utf-8"))
        for read in (read_scene, lambda p: scene_from_dict(_load_json(p))):
            try:
                outcomes.append(read(path))
            except SemDistError as exc:
                outcomes.append(exc)
    return outcomes


def _assert_same_outcome(got, expected):
    if isinstance(expected, LayerStackScene):
        assert got == expected
    else:
        assert type(got) is type(expected)
        assert got.path == expected.path
        assert str(got) == str(expected)


def _block_span(text):
    """Start and end (past its closing brace) of the sparse stacks block."""
    start = re.search(r'"st(acks|\\u0061cks)": \{', text).end() - 1
    return start, text.index("}", start) + 1


def _digit_at(text, draw, span, leading=False):
    """Index of a drawn digit in text[span]; with leading, one that opens its number."""
    start, end = span
    spots = [
        i for i in range(start, end)
        if text[i].isdigit() and not (leading and text[i - 1].isdigit())
    ]
    return draw(st.sampled_from(spots)) if spots else None


_BYTE_MUTATIONS = (
    "digit_flip", "leading_zero", "eleven_digits", "drop_comma", "duplicate_cell",
    "second_stacks", "escaped_stacks", "brace_in_block", "trailing_garbage",
    "drop_number", "insert_punctuation", "swap_punctuation",
)


def _mutate_text(text, kind, draw):
    span = _block_span(text)
    start, end = span
    if kind == "digit_flip":
        at = _digit_at(text, draw, span)
        if at is None:
            return text
        return text[:at] + draw(st.sampled_from("0123456789")) + text[at + 1 :]
    if kind == "leading_zero":
        at = _digit_at(text, draw, span, leading=True)
        return text if at is None else text[:at] + "0" + text[at:]
    if kind in ("eleven_digits", "drop_number"):
        numbers = [m.span() for m in re.finditer(r"\d+", text[start:end])]
        if not numbers:
            return text
        first, last = draw(st.sampled_from(numbers))
        digits = "12345678901" if kind == "eleven_digits" else ""
        return text[: start + first] + digits + text[start + last :]
    if kind == "drop_comma":
        commas = [i for i in range(start, end) if text[i] == ","]
        if not commas:
            return text
        at = draw(st.sampled_from(commas))
        return text[:at] + text[at + 1 :]
    if kind == "duplicate_cell":
        cells = [m.span() for m in re.finditer(r'"\d+": \[[^\]]*\]', text[start:end])]
        if not cells:
            return text
        # a second cell under a key already used, before or after the first,
        # holding the ids of a drawn cell: JSON keeps the last of the two
        cell_start, cell_end = draw(st.sampled_from(cells))
        key = text[start + cell_start : text.index(":", start + cell_start)]
        other_start, other_end = draw(st.sampled_from(cells))
        ids = text[text.index("[", start + other_start) : start + other_end]
        cell = f"{key}: {ids}"
        if draw(st.booleans()):
            at = start + cell_start
            return text[:at] + cell + ",\n    " + text[at:]
        at = start + cell_end
        return text[:at] + ",\n    " + cell + text[at:]
    if kind == "second_stacks":
        where = draw(st.sampled_from(['"stacks"', '"st\\u0061cks"', "category"]))
        if where == "category":
            return text.replace('"category": null', '"category": "stacks"', 1)
        return text.replace('\n  "width"', f'\n  {where}: {{}},\n  "width"')
    if kind == "escaped_stacks":
        return text.replace('"stacks"', '"st\\u0061cks"')
    if kind in ("brace_in_block", "insert_punctuation"):
        at = draw(st.integers(start + 1, end - 1))
        mark = "}" if kind == "brace_in_block" else draw(st.sampled_from('[]:,"'))
        return text[:at] + mark + text[at:]
    if kind == "swap_punctuation":
        marks = [i for i in range(start + 1, end - 1) if text[i] in '[]:,"']
        at = draw(st.sampled_from(marks)) if marks else None
        return text if at is None else text[:at] + draw(st.sampled_from('[]:,"')) + text[at + 1 :]
    return text + draw(st.sampled_from(["x", "}", "{}", "\n]", "\u00a0"]))


@st.composite
def _mutated_scene_texts(draw):
    size = draw(st.sampled_from([1, 3, 5, 12]))
    if size == 1:
        scene = LayerStackScene(1, 1, (InstanceRecord(1),), np.ones((1, 1, 1), dtype=np.int32))
    else:
        scene = generate(GenConfig(seed=draw(st.integers(0, 40)), width=size, height=size))
    text = json.dumps(scene_to_dict(scene), indent=2, sort_keys=True) + "\n"
    for _ in range(draw(st.integers(1, 3))):
        text = _mutate_text(text, draw(st.sampled_from(_BYTE_MUTATIONS)), draw)
    return text


def _sparse_text_scenes():
    """Generated scenes, the empty and 1x1 edge cases, and ids up to int32 max."""
    top = LayerStackScene(
        3, 2, (InstanceRecord(2**31 - 1), InstanceRecord(5)),
        np.array([[[2**31 - 1, 5, 0], [0, 0, 5]], [[5, 2**31 - 1, 0], [0, 0, 0]]], dtype=np.int32),
    )
    return (
        [generate(GenConfig(seed=s, width=w, height=w)) for s in range(8) for w in (5, 16, 64)]
        + [generate(GenConfig(seed=0, width=256, height=256, object_count_range=(8, 12)))]
        + [_edge_scenes()[0], top]
        + [LayerStackScene(1, 1, (InstanceRecord(1),), np.ones((1, 1, 1), dtype=np.int32))]
        + [LayerStackScene(1, 1, (InstanceRecord(4),), np.zeros((0, 1, 1), dtype=np.int32))]
    )


_SPARSE_TEXT_SCENES = _sparse_text_scenes()


class TestSceneTextReader:
    """read_scene reads a sparse stacks block in one numpy pass over its
    text and parses only the rest with json.loads; on any text that pass
    does not take, scene_from_dict decides. Either way read_scene must end
    as scene_from_dict(json.loads(text)) does."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(_mutated_scene_docs(), st.sampled_from(["sorted", "compact", "irregular"]))
    def test_rendered_documents_read_as_their_dict(self, doc, style):
        _assert_same_outcome(*_read_both(_render(doc, style)))

    @settings(max_examples=600, deadline=None, database=None, derandomize=True)
    @given(_mutated_scene_texts())
    def test_byte_mutations_read_as_their_dict(self, text):
        _assert_same_outcome(*_read_both(text))

    @pytest.mark.parametrize("index", range(len(_SPARSE_TEXT_SCENES)))
    def test_sparse_files_take_the_text_path(self, index, tmp_path):
        scene = _SPARSE_TEXT_SCENES[index]
        path = tmp_path / "scene.json"
        write_scene(scene, path)
        text = path.read_text(encoding="utf-8")
        assert _scene_from_text(text) == scene
        for style in ("compact", "irregular"):
            assert _scene_from_text(_render(scene_to_dict(scene), style)) == scene
        assert read_scene(path) == scene

    def test_writer_output_never_reaches_the_dict_walk(self, tmp_path, monkeypatch):
        def walk(*args):
            pytest.fail("the dict reader's walk read a file that write_scene wrote")

        monkeypatch.setattr(semdist_io, "_stack_cells", walk)
        for index, scene in enumerate(_SPARSE_TEXT_SCENES):
            write_scene(scene, tmp_path / f"{index}.json")
            assert read_scene(tmp_path / f"{index}.json") == scene
        # the eval-64 benchmark's read recipe over scenes its build recipe wrote
        scenes = [generate(GenConfig(seed=seed)) for seed in range(4)]
        preds = [
            perturb(
                scene_annotations(scene),
                PerturbConfig(erode_radius=1, drop_occluded_prob=0.2, score_noise=0.1, seed=seed),
            )
            for seed, scene in enumerate(scenes)
        ]
        reports = []
        for read_back in (False, True):
            gt_images, order_items = [], []
            for scene, pred in zip(scenes, preds):
                if read_back:
                    write_scene(scene, tmp_path / "gt.json")
                    scene = read_scene(tmp_path / "gt.json")
                gt = scene_annotations(scene)
                maps = {ann.id: encode_semdist(scene, ann.id) for ann in pred}
                order_items.append((scene, assign_maps_to_gt(gt, pred, maps)))
                gt_images.append(gt)
            reports.append(evaluate(gt_images, preds, order_items=order_items))
        assert reports[0] == reports[1]
        # the CLI pipeline
        scenes, maps, pred = tmp_path / "scenes", tmp_path / "maps", tmp_path / "pred.json"
        gt = scenes / "scene_0000.json"
        assert main(["generate", "--seed", "4", "--count", "2", "--out", str(scenes)]) == 0
        assert main(["encode", "--scene", str(gt), "--out", str(maps)]) == 0
        assert main(["perturb", "--gt", str(gt), "--erode", "1", "--out", str(pred)]) == 0
        assert main(["eval", "--gt", str(gt), "--pred", str(pred)]) == 0
        assert main(["eval", "--gt", str(scenes), "--pred", str(scenes)]) == 0

    @pytest.mark.parametrize(
        "stacks",
        [
            '{"0": [1], "0": [1]}',  # a key twice: JSON keeps the last
            '{"0": [1], "1": [1], "0": []}',
            '{"0": [01]}',  # leading zeros
            '{"00": [1]}',
            '{"0": [12345678901]}',  # over 10 digits
            '{"12345678901": [1]}',
            '{"0": [1 1]}',  # whitespace inside a number or a key
            '{" 0": [1]}',
            '{"0 ": [1]}',
            '{"0": [1,]}',  # separators out of place
            '{"0": [1,,,2]}',
            '{"0": [1:2]}',
            '{"0": [1]:"1": [2]}',
            '{"0": [1":[2]}',
            '{"0"],"1":[1]}',
            '{"0": [1], "1": [1], }',
            '{"0": []}',  # no id in a cell
            '{"": []}',
            '[[1]]',  # the dense form
        ],
    )
    def test_blocks_the_pass_leaves_to_the_dict_reader(self, stacks):
        instances = '[{"id": 1}, {"id": 2}, {"id": 12345678901}]'
        text = f'{{"height": 1, "instances": {instances}, "stacks": {stacks}, "width": 1}}'
        assert _scene_from_text(text) is None
        _assert_same_outcome(*_read_both(text))

    @pytest.mark.parametrize(
        "text",
        [
            # a second root key spelt with an escape: JSON keeps the empty one
            '{"height": 1, "instances": [{"id": 1}], "stacks": {"0": [1]}, "st\\u0061cks": {}, "width": 1}',
            '{"height": 1, "instances": [{"id": 1}], "stacks": {"0": [1]}, "stacks": {}, "width": 1}',
            '{"height": 1, "instances": [{"id": 1}], "stacks": {"0": [1]}, "width": 1, "x": 0}',
            '{"height": 1, "instances": [{"id": 1, "stacks": {"0": [1]}}], "width": 1}',
            '{"height": 1, "instances": [{"id": 1}], "stacks": {"0": [1]}, "width": 1}\u000b',
        ],
    )
    def test_texts_the_pass_leaves_to_the_dict_reader(self, text):
        assert _scene_from_text(text) is None
        _assert_same_outcome(*_read_both(text))

    def test_a_stacks_block_never_closed_is_left_to_the_dict_reader(self, tmp_path):
        text = '{"height": 1, "instances": [{"id": 1}], "width": 1, "stacks": {"0": [1]'
        assert _scene_from_text(text) is None
        path = tmp_path / "scene.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            read_scene(path)
        assert err.value.path == "$"

    @pytest.mark.parametrize("instances", ["[]", '[{"id": 4294967296}]'])
    def test_ids_with_no_listed_id_to_hold_them_are_a_schema_error(self, tmp_path, instances):
        text = f'{{"height": 1, "instances": {instances}, "stacks": {{"0": [1]}}, "width": 1}}'
        assert _scene_from_text(text) is None
        path = tmp_path / "scene.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            read_scene(path)
        assert err.value.path == '$.stacks["0"][0]' and "id 1 missing from the instance list" in str(err.value)


def _raw_cells(stacks):
    """(pixels, lengths, ids) of a scene document's "stacks" value, as both
    scene readers parse them: pixels None for dense stacks, ids int64."""
    dense = isinstance(stacks, list)
    cells = stacks if dense else list(stacks.values())
    pixels = None if dense else np.array([int(key) for key in stacks], dtype=np.intp)
    lengths = np.array([len(cell) for cell in cells], dtype=np.intp)
    return pixels, lengths, np.array([i for cell in cells for i in cell], dtype=np.int64)


class TestSceneFromCells:
    """LayerStackScene._from_cells is the one check of reader cells: it
    takes them raw, returns None for every defect, and never raises."""

    _LISTED = (InstanceRecord(1), InstanceRecord(2))

    @pytest.mark.parametrize(
        "records, size, stacks",
        [
            (_LISTED, 2, {"0": [1], "1": [9]}),  # an id not listed
            (_LISTED + (InstanceRecord(2**31),), 2, {"0": [1], "1": [2**31]}),  # past int32
            ((), 2, {"0": [1]}),  # no listed id
            ((InstanceRecord(2**32),), 2, {"0": [1]}),  # no listed id within int32
            (_LISTED, 2, {"0": [1, 2, 1]}),  # an id twice in one cell
            (_LISTED, 2, [[1], [2, 2], [], []]),
            (_LISTED, 2, {"0": [1], "1": []}),  # an empty sparse cell
            (_LISTED, 2, {"0": [1], "4": [2]}),  # a pixel past the frame
            (_LISTED, 2**32, {"0": [1]}),  # stacks no array can hold
            (_LISTED, 2**32, {}),
        ],
    )
    def test_a_defect_returns_none(self, records, size, stacks):
        assert LayerStackScene._from_cells(size, size, records, *_raw_cells(stacks)) is None

    @pytest.mark.parametrize(
        "stacks", [{"5": [2], "0": [1], "1": [2, 1]}, [[1], [2, 1], [], [], [], [2]], {}]
    )
    def test_valid_cells_make_the_scene_of_their_document(self, stacks):
        doc = {"width": 3, "height": 2, "instances": [{"id": 1}, {"id": 2}], "stacks": stacks}
        scene = LayerStackScene._from_cells(3, 2, self._LISTED, *_raw_cells(stacks))
        assert scene == scene_from_dict(doc)
        assert scene._boxes == scene_from_dict(doc)._boxes


class TestAnnotationsJson:
    def test_round_trip(self, s0):
        annotations = scene_annotations(s0)
        doc = annotations_to_dict(3, 3, annotations)
        width, height, back = annotations_from_dict(doc)
        assert (width, height) == (3, 3)
        assert back == annotations

    def test_doc_is_json_serializable(self, s0):
        doc = annotations_to_dict(3, 3, scene_annotations(s0))
        json.dumps(doc)

    def test_unknown_field_rejected(self, s0):
        doc = annotations_to_dict(3, 3, scene_annotations(s0))
        doc["annotations"][0]["bbox"] = [0, 0, 1, 1]
        with pytest.raises(SchemaError) as err:
            annotations_from_dict(doc)
        assert err.value.path == "$.annotations[0].bbox"

    def test_inconsistent_rle_rejected(self, s0):
        doc = annotations_to_dict(3, 3, scene_annotations(s0))
        doc["annotations"][0]["amodal"] = [0, 5]
        with pytest.raises(SchemaError) as err:
            annotations_from_dict(doc)
        assert err.value.path == "$.annotations[0].amodal"

    @pytest.mark.parametrize(
        "count, message",
        [
            ("2", "expected an integer, got '2'"),
            (-1, "expected an integer >= 0, got -1"),
            (True, "expected an integer, got True"),
            (2.0, "expected an integer, got 2.0"),
        ],
    )
    def test_bad_rle_count_is_named_by_position(self, s0, count, message):
        doc = annotations_to_dict(3, 3, scene_annotations(s0))
        doc["annotations"][0]["amodal"][1] = count
        with pytest.raises(SchemaError) as err:
            annotations_from_dict(doc)
        assert err.value.path == "$.annotations[0].amodal[1]"
        assert message in str(err.value)

    def test_visible_outside_amodal_rejected(self, s0):
        doc = annotations_to_dict(3, 3, scene_annotations(s0))
        # instance 1 occupies rows 0 and 1; claim full visibility of the grid
        doc["annotations"][0]["visible"] = [0, 9]
        doc["annotations"][0]["occlusion_rate"] = 0.0
        with pytest.raises(SchemaError):
            annotations_from_dict(doc)

    def test_rate_must_match_masks(self, s0):
        doc = annotations_to_dict(3, 3, scene_annotations(s0))
        doc["annotations"][0]["occlusion_rate"] = 0.9
        with pytest.raises(SchemaError):
            annotations_from_dict(doc)

    def test_duplicate_ids_rejected(self, s0):
        doc = annotations_to_dict(3, 3, scene_annotations(s0))
        doc["annotations"].append(dict(doc["annotations"][0]))
        with pytest.raises(SchemaError):
            annotations_from_dict(doc)

    def test_score_bounds_checked(self, s0):
        doc = annotations_to_dict(3, 3, scene_annotations(s0))
        doc["annotations"][0]["score"] = 1.5
        with pytest.raises(SchemaError):
            annotations_from_dict(doc)

    @pytest.mark.parametrize("field", ["score", "occlusion_rate"])
    def test_number_that_is_not_a_number_is_a_schema_error(self, s0, field):
        doc = annotations_to_dict(3, 3, scene_annotations(s0))
        doc["annotations"][0][field] = "high"
        with pytest.raises(SchemaError, match="expected a number, got 'high'") as err:
            annotations_from_dict(doc)
        assert err.value.path == f"$.annotations[0].{field}"

    @pytest.mark.parametrize("field", ["score", "occlusion_rate"])
    def test_number_past_float_range_is_a_schema_error(self, s0, field):
        doc = annotations_to_dict(3, 3, scene_annotations(s0))
        doc["annotations"][0][field] = 10**400
        with pytest.raises(SchemaError) as err:
            annotations_from_dict(doc)
        assert err.value.path == f"$.annotations[0].{field}"

    def test_mask_past_intp_is_a_schema_error(self):
        doc = {"width": 10**10, "height": 10**10, "annotations": [
            {"id": 1, "score": 1.0, "occlusion_rate": 0.0,
             "amodal": [0, 10**20], "visible": [0, 10**20]}]}
        with pytest.raises(SchemaError) as err:
            annotations_from_dict(doc)
        assert err.value.path == "$.annotations[0].amodal"


class TestJsonFileErrors:
    @pytest.mark.parametrize("reader", [read_scene, read_annotations])
    @pytest.mark.parametrize(
        "payload",
        [b'{"width": 3, "category": "\xff\xfe"}',
         b'{"width": ' + b"1" * 5000 + b"}",
         b"[" * 100000 + b"]" * 100000],
        ids=["not_utf8", "integer_past_digit_limit", "nested_too_deeply"],
    )
    def test_unreadable_file_raises_schema_error_at_root(self, tmp_path, reader, payload):
        path = tmp_path / "doc.json"
        path.write_bytes(payload)
        with pytest.raises(SchemaError) as err:
            reader(path)
        assert err.value.path == "$"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_writer_refuses_a_float_json_cannot_hold(self, value):
        with pytest.raises(ValueError):
            _dump_json({"x": value})
        with pytest.raises(ValueError):
            _dump_json({"meta": {"cuts": [0.25, value]}})
        assert _dump_json({"x": 0.25}) == '{\n  "x": 0.25\n}\n'


class TestSdmBinary:
    def test_round_trip_bit_exact(self, s0, tmp_path):
        semdist = encode_semdist(s0, 2, 0.9)
        path = tmp_path / "map.sdm"
        write_semdist(semdist, path)
        back = read_semdist(path)
        assert back == semdist
        assert back.values.tobytes() == semdist.values.tobytes()

    def test_header_layout(self, s0, tmp_path):
        semdist = encode_semdist(s0, 1)
        path = tmp_path / "map.sdm"
        write_semdist(semdist, path)
        blob = path.read_bytes()
        assert blob[:4] == b"SDM1"
        assert int.from_bytes(blob[4:8], "little") == 3   # width
        assert int.from_bytes(blob[8:12], "little") == 3  # height
        assert int.from_bytes(blob[12:16], "little") == 1  # channels
        assert len(blob) == 16 + 4 * 9

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.sdm"
        path.write_bytes(b"SDM1\x01")
        with pytest.raises(SdmFormatError):
            read_semdist(path)

    def test_bad_magic(self, s0, tmp_path):
        semdist = encode_semdist(s0, 1)
        path = tmp_path / "bad.sdm"
        write_semdist(semdist, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"SDM2"
        path.write_bytes(bytes(blob))
        with pytest.raises(SdmFormatError):
            read_semdist(path)

    def test_payload_length_checked(self, s0, tmp_path):
        semdist = encode_semdist(s0, 1)
        path = tmp_path / "trunc.sdm"
        write_semdist(semdist, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(SdmFormatError):
            read_semdist(path)
        path.write_bytes(blob + b"\x00\x00\x00\x00")
        with pytest.raises(SdmFormatError):
            read_semdist(path)

    def test_multichannel_rejected(self, s0, tmp_path):
        import struct

        path = tmp_path / "multi.sdm"
        payload = np.zeros(8, dtype="<f4").tobytes()
        path.write_bytes(struct.pack("<4sIII", b"SDM1", 2, 2, 2) + payload)
        with pytest.raises(SdmFormatError):
            read_semdist(path)

    def test_out_of_range_values_rejected(self, tmp_path):
        import struct

        path = tmp_path / "range.sdm"
        payload = np.full(4, 1.5, dtype="<f4").tobytes()
        path.write_bytes(struct.pack("<4sIII", b"SDM1", 2, 2, 1) + payload)
        with pytest.raises(SdmFormatError):
            read_semdist(path)

    def test_zero_dimension_rejected(self, tmp_path):
        import struct

        path = tmp_path / "zero.sdm"
        path.write_bytes(struct.pack("<4sIII", b"SDM1", 0, 2, 1))
        with pytest.raises(SdmFormatError):
            read_semdist(path)


class TestNetpbm:
    def test_pgm_round_trip(self, tmp_path):
        image = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "img.pgm"
        write_pgm(image, path)
        assert path.read_bytes().startswith(b"P5\n4 3\n255\n")
        assert np.array_equal(read_pgm(path), image)

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(1))
        image = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(image, path)
        assert np.array_equal(read_ppm(path), image)

    def test_write_validates_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(np.zeros((2, 2), dtype=np.float32), tmp_path / "x.pgm")
        with pytest.raises(ValueError):
            write_ppm(np.zeros((2, 2, 4), dtype=np.uint8), tmp_path / "x.ppm")

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P7\n2 2\n255\n" + bytes(4))
        with pytest.raises(ImageFormatError):
            read_pgm(path)

    def test_read_rejects_short_payload(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
        with pytest.raises(ImageFormatError):
            read_pgm(path)

    def test_read_rejects_a_max_value_other_than_255(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ImageFormatError, match="unsupported max value 65535"):
            read_pgm(path)

    @pytest.mark.parametrize("reader, magic", [(read_pgm, b"P5"), (read_ppm, b"P6")])
    def test_read_rejects_header_number_past_digit_limit(self, tmp_path, reader, magic):
        path = tmp_path / "huge.img"
        path.write_bytes(magic + b"\n" + b"9" * 5000 + b" 2\n255\n" + bytes(4))
        with pytest.raises(ImageFormatError, match="too many digits"):
            reader(path)


class TestRasterizePolygon:
    def test_square_covers_pixel_centers(self):
        mask = rasterize_polygon([0, 0, 4, 0, 4, 4, 0, 4], 4, 4)
        assert mask.area() == 16

    def test_half_square_triangle(self):
        mask = rasterize_polygon([0, 0, 4, 0, 0, 4], 4, 4)
        assert mask.area() == 6
        assert mask.bits[0].tolist() == [True, True, True, False]
        assert mask.bits[3].tolist() == [False, False, False, False]

    def test_polygon_outside_grid(self):
        mask = rasterize_polygon([10, 10, 14, 10, 14, 14, 10, 14], 4, 4)
        assert mask.area() == 0

    def test_orientation_irrelevant(self):
        cw = rasterize_polygon([0, 0, 0, 4, 4, 4, 4, 0], 4, 4)
        ccw = rasterize_polygon([0, 0, 4, 0, 4, 4, 0, 4], 4, 4)
        assert cw == ccw


def _square_counts(width, height, x0, y0, x1, y1):
    bits = np.zeros((height, width), dtype=bool)
    bits[y0:y1, x0:x1] = True
    return list(rle_encode(BinaryMask(bits)).counts), bits


class TestCocoaImport:
    def _document(self):
        amodal_counts, self._r2_bits = _square_counts(6, 6, 1, 1, 5, 5)
        visible_counts, self._r2_visible = _square_counts(6, 6, 1, 1, 5, 3)
        return {
            "images": [
                {"id": 10, "width": 6, "height": 6, "file_name": "a.png"},
                {"id": 11, "width": 4, "height": 4},
            ],
            "annotations": [
                {
                    "image_id": 10,
                    "regions": [
                        {
                            "segmentation": [0, 0, 6, 0, 6, 6, 0, 6],
                            "name": "table",
                        },
                        {
                            "segmentation": {"size": [6, 6], "counts": amodal_counts},
                            "visible_mask": {"size": [6, 6], "counts": visible_counts},
                            "isStuff": 1,
                        },
                    ],
                    "depth_constraint": "1-2",
                }
            ],
        }

    def test_basic_import(self):
        result = import_cocoa(self._document())
        assert result.warning_count == 0
        assert result.warnings == ()
        assert len(result.images) == 2
        image = result.images[0]
        assert image.image_id == 10 and image.file_name == "a.png"
        assert image.order_pairs == ((1, 2),)
        first, second = image.annotations
        assert first.id == 1 and first.category == "table"
        assert first.amodal.area() == 36
        assert first.occlusion_rate == 0.0  # no visibility data means fully visible
        assert second.id == 2 and second.category == "stuff"
        assert np.array_equal(second.amodal.bits, self._r2_bits)
        assert np.array_equal(second.visible.bits, self._r2_visible)
        assert second.occlusion_rate == 0.5

    def test_image_without_annotations_is_kept_empty(self):
        result = import_cocoa(self._document())
        assert result.images[1].annotations == ()

    def test_invisible_mask_subtracts(self):
        doc = self._document()
        amodal_counts, _ = _square_counts(6, 6, 0, 0, 6, 6)
        invisible_counts, invisible_bits = _square_counts(6, 6, 0, 0, 6, 3)
        doc["annotations"][0]["regions"] = [
            {
                "segmentation": {"size": [6, 6], "counts": amodal_counts},
                "invisible_mask": {"size": [6, 6], "counts": invisible_counts},
            }
        ]
        doc["annotations"][0].pop("depth_constraint")
        result = import_cocoa(doc)
        ann = result.images[0].annotations[0]
        assert np.array_equal(ann.visible.bits, ~invisible_bits)
        assert ann.occlusion_rate == 0.5

    def test_compressed_rle_is_skipped_with_warning(self):
        doc = self._document()
        doc["annotations"][0]["regions"].insert(
            0, {"segmentation": {"size": [6, 6], "counts": "PZko02N1O"}}
        )
        result = import_cocoa(doc)
        assert result.warning_count == 1
        assert [path for path, _ in result.warnings] == [
            "$.annotations[0].regions[0].segmentation"
        ]
        # surviving regions keep their original 1-based positions
        assert [ann.id for ann in result.images[0].annotations] == [2, 3]

    def test_rle_with_float_count_is_skipped_with_warning(self):
        doc = self._document()
        counts = doc["annotations"][0]["regions"][1]["segmentation"]["counts"]
        counts[1] = float(counts[1])
        result = import_cocoa(doc)
        assert result.warnings == (
            (
                "$.annotations[0].regions[1].segmentation",
                f"run counts must be integers, got {counts[1]!r}",
            ),
        )
        assert [ann.id for ann in result.images[0].annotations] == [1]

    def test_unknown_fields_are_counted(self):
        doc = self._document()
        doc["annotations"][0]["regions"][0]["area"] = 36   # known, ignored quietly
        doc["annotations"][0]["regions"][0]["wings"] = 2   # unknown
        doc["images"][0]["exif"] = {}
        result = import_cocoa(doc)
        assert result.warning_count == 2
        assert result.warnings == (
            ("$.images[0].exif", "unknown field"),
            ("$.annotations[0].regions[0].wings", "unknown field"),
        )

    def test_malformed_depth_token_warned_and_skipped(self):
        doc = self._document()
        doc["annotations"][0]["depth_constraint"] = "1-2,zap,3-1"
        result = import_cocoa(doc)
        assert result.warning_count == 1
        (path, reason), = result.warnings
        assert path == "$.annotations[0].depth_constraint" and "'zap'" in reason
        assert result.images[0].order_pairs == ((1, 2), (3, 1))

    def test_unknown_image_id_fails(self):
        doc = self._document()
        doc["annotations"][0]["image_id"] = 99
        with pytest.raises(CocoaImportError) as err:
            import_cocoa(doc)
        assert "image_id" in err.value.path

    def test_duplicate_annotation_entry_fails(self):
        doc = self._document()
        doc["annotations"].append(doc["annotations"][0])
        with pytest.raises(CocoaImportError):
            import_cocoa(doc)

    def test_missing_images_section_fails(self):
        with pytest.raises(CocoaImportError):
            import_cocoa({"annotations": []})

    def test_odd_polygon_is_skipped_with_warning(self):
        doc = self._document()
        doc["annotations"][0]["regions"][0]["segmentation"] = [0, 0, 6]
        result = import_cocoa(doc)
        assert result.warning_count == 1
        assert [path for path, _ in result.warnings] == [
            "$.annotations[0].regions[0].segmentation"
        ]
        assert [ann.id for ann in result.images[0].annotations] == [2]

    @pytest.mark.parametrize(
        "ring",
        [[0, 0, 6, 0, 6, 6, 0, 10**400],
         [0, 0, 6, 0, 6, 6, 0, float("inf")],
         [0, 0, 6, 0, 6, 6, 0, float("nan")],
         [0, -1e308, 6, -1e308, 6, 1e308, 0, 1e308]],
        ids=["past_float_range", "infinity", "nan", "edge_difference_overflows"],
    )
    def test_polygon_with_unusable_coordinate_is_skipped_with_warning(self, ring):
        doc = self._document()
        doc["annotations"][0]["regions"][0]["segmentation"] = ring
        result = import_cocoa(doc)
        assert result.warnings == ((
            "$.annotations[0].regions[0].segmentation",
            "polygon ring has a coordinate that is not finite or too large",
        ),)
        assert [ann.id for ann in result.images[0].annotations] == [2]

    def test_image_too_large_to_hold_fails_at_its_path(self):
        doc = self._document()
        doc["images"][0].update(width=10**12, height=10**12)
        with pytest.raises(CocoaImportError) as err:
            import_cocoa(doc)
        assert err.value.path == "$.images[0]"

    def test_rle_mask_past_intp_is_skipped_with_warning(self):
        doc = self._document()
        doc["images"][1].update(width=10**10, height=10**10)
        doc["annotations"].append({"image_id": 11, "regions": [
            {"segmentation": {"size": [10**10, 10**10], "counts": [0, 10**20]}}]})
        result = import_cocoa(doc)
        (path, reason), = result.warnings
        assert path == "$.annotations[1].regions[0].segmentation"
        assert "more pixels than an array can index" in reason
        assert result.images[1].annotations == ()

    @pytest.mark.parametrize("token", ["\u0661-\u0662", "1-\u0662", "\uff11-2"])
    def test_depth_pair_of_digits_other_than_ascii_is_warned_and_skipped(self, token):
        doc = self._document()
        doc["annotations"][0]["depth_constraint"] = f"1-2,{token}"
        result = import_cocoa(doc)
        assert result.warnings == (
            ("$.annotations[0].depth_constraint", f"depth pair {token!r} is not FRONT-BEHIND"),
        )
        assert result.images[0].order_pairs == ((1, 2),)

    def test_depth_token_past_digit_limit_is_warned_and_skipped(self):
        doc = self._document()
        doc["annotations"][0]["depth_constraint"] = "1-2," + "9" * 5000 + "-1"
        result = import_cocoa(doc)
        (path, reason), = result.warnings
        assert path == "$.annotations[0].depth_constraint" and "FRONT-BEHIND" in reason
        assert result.images[0].order_pairs == ((1, 2),)

    def test_depth_token_warning_quotes_a_bounded_prefix(self):
        doc = self._document()
        doc["annotations"][0]["depth_constraint"] = "1-2," + "9" * 5000 + "-1, 3-x"
        result = import_cocoa(doc)
        (path, long_reason), (_, short_reason) = result.warnings
        assert path == "$.annotations[0].depth_constraint"
        assert len(long_reason) < 200 and "FRONT-BEHIND" in long_reason
        assert "'" + "9" * 32 + "'" in long_reason and "5002 characters" in long_reason
        assert short_reason == "depth pair '3-x' is not FRONT-BEHIND"

    @pytest.mark.parametrize(
        "edit, path, message",
        [
            (lambda doc: [doc], "$", "expected an object, got list"),
            (lambda doc: doc["images"].__setitem__(0, 10), "$.images[0]", "expected an object"),
            (lambda doc: doc["annotations"].__setitem__(0, "x"), "$.annotations[0]",
             "expected an object"),
            (lambda doc: doc["annotations"][0]["regions"].__setitem__(0, None),
             "$.annotations[0].regions[0]", "expected an object"),
            (lambda doc: doc["images"][0].update(id="10"), "$.images[0].id",
             "missing or not an integer"),
            (lambda doc: doc["images"][0].update(width=6.0), "$.images[0].width",
             "missing or not an integer"),
            (lambda doc: doc["images"][0].update(height=True), "$.images[0].height",
             "missing or not an integer"),
            (lambda doc: doc["annotations"][0].update(image_id="10"),
             "$.annotations[0].image_id", "missing or not an integer"),
            (lambda doc: doc["images"][1].update(id=10), "$.images[1].id",
             "duplicate image id 10"),
            (lambda doc: doc["images"][0].update(file_name=7), "$.images[0].file_name",
             "expected a string"),
            (lambda doc: doc["annotations"][0]["regions"][0].update(name=["table"]),
             "$.annotations[0].regions[0].name", "expected a string"),
            (lambda doc: doc["images"][1].update(height=0), "$.images[1]",
             "image dimensions must be positive"),
            (lambda doc: doc.update(annotations={}), "$.annotations", "expected an array"),
            (lambda doc: doc["annotations"][0].update(regions={}),
             "$.annotations[0].regions", "missing or not an array"),
            (lambda doc: doc["annotations"][0].update(depth_constraint=[1, 2]),
             "$.annotations[0].depth_constraint", "expected a string, got list"),
            (lambda doc: doc["annotations"][0]["regions"][0].update(segmentation="0 0 6 6"),
             "$.annotations[0].regions[0].segmentation",
             "expected a polygon array or RLE object, got str"),
        ],
        ids=[
            "root", "image", "annotation", "region", "image_id_field", "width", "height",
            "annotation_image_id", "duplicate_image_id", "file_name", "name", "image_size",
            "annotations", "regions", "depth_constraint", "segmentation",
        ],
    )
    def test_malformed_document_fails_at_its_path(self, edit, path, message):
        doc = self._document()
        doc = edit(doc) or doc
        with pytest.raises(CocoaImportError) as err:
            import_cocoa(doc)
        assert err.value.path == path
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "region, reason",
        [
            ({"name": "ghost"}, "region has no segmentation"),
            ({"segmentation": [10, 10, 14, 10, 14, 14, 10, 14]}, "empty amodal mask"),
        ],
    )
    def test_region_without_pixels_is_skipped_with_warning(self, region, reason):
        doc = self._document()
        doc["annotations"][0]["regions"].insert(0, region)
        result = import_cocoa(doc)
        where = "$.annotations[0].regions[0]" + (".segmentation" if "segmentation" in region else "")
        assert result.warnings == ((where, reason),)
        assert [ann.id for ann in result.images[0].annotations] == [2, 3]

    def test_empty_depth_tokens_are_skipped_quietly(self):
        doc = self._document()
        doc["annotations"][0]["depth_constraint"] = " ,1-2,, 2-1 ,"
        result = import_cocoa(doc)
        assert result.warnings == ()
        assert result.images[0].order_pairs == ((1, 2), (2, 1))

    def test_multi_ring_polygon_even_odd(self):
        doc = self._document()
        doc["annotations"][0]["regions"] = [
            {
                "segmentation": [
                    [0, 0, 6, 0, 6, 6, 0, 6],   # outer square, 36 px
                    [2, 2, 4, 2, 4, 4, 2, 4],   # inner square, 4 px hole
                ]
            }
        ]
        doc["annotations"][0].pop("depth_constraint")
        result = import_cocoa(doc)
        ann = result.images[0].annotations[0]
        assert ann.amodal.area() == 32
        assert not ann.amodal.bits[2, 2] and not ann.amodal.bits[3, 3]
        assert ann.amodal.bits[0, 0]
