"""Bit-exact serialization for masks, scenes, annotations, and sem-dist maps.

Formats:
  * run-length masks: column-major scan, counts alternate background/
    foreground runs and always start with a (possibly zero-length)
    background run, matching the familiar detection-dataset convention
  * scene JSON: width/height, instance list, per-pixel stacks either dense
    (row-major list of id lists) or sparse ({"y*width+x": [ids]}, keys
    written in string order: "10" before "2")
  * annotation JSON: per-image instance records with RLE masks
  * SDM binary: magic "SDM1", little-endian u32 width/height/channels, then
    channel-planar row-major float32 values
  * PGM (P5) / PPM (P6) for grayscale masks and renders

Readers are strict: unknown JSON fields, wrong types, and inconsistent
counts raise structured errors naming the offending JSON path.

read_scene reads a sparse stacks block in one numpy pass over its bytes
(_sparse_block) and parses only the rest of the text with json.loads. Any
text that pass does not take (the dense form, a backslash, "stacks" other
than exactly once, a repeated key, a number with a leading zero or over 10
digits, or any failed check) goes to scene_from_dict(json.loads(text)), so
the result, or the error and its path, is the same either way.

Both scene readers check the stacks as per-pixel cells and hand them to the
scene as they are (LayerStackScene._from_cells); both writers take the cells
from the scene's entries (types._scene_cells), and neither side builds the
dense stacks. types owns how scenes and map crops sit in memory: the SDM
reader hands SemDistMap a read-only view of the bytes, which copies only the
crop, and the writer pastes the crop into a fresh frame (types._paste).
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass
from itertools import chain, repeat
from operator import getitem
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .types import (
    BinaryMask,
    InstanceAnnotation,
    InstanceRecord,
    LayerStackScene,
    SemDistError,
    SemDistMap,
)
from .types import _INT32_MAX, _INTP_MAX, _paste, _ranks, _scene_cells

__all__ = [
    "SDM_MAGIC",
    "RleError",
    "SchemaError",
    "SdmFormatError",
    "ImageFormatError",
    "CocoaImportError",
    "RleMask",
    "rle_encode",
    "rle_decode",
    "scene_to_dict",
    "scene_from_dict",
    "write_scene",
    "read_scene",
    "annotations_to_dict",
    "annotations_from_dict",
    "write_annotations",
    "read_annotations",
    "semdist_to_bytes",
    "semdist_from_bytes",
    "write_semdist",
    "read_semdist",
    "write_pgm",
    "read_pgm",
    "write_ppm",
    "read_ppm",
    "rasterize_polygon",
    "CocoaImage",
    "CocoaImport",
    "import_cocoa",
]

PathLike = Union[str, Path]


class RleError(SemDistError):
    """A run-length encoding is malformed or inconsistent with its size."""


class _PathError(SemDistError):
    """An error at one node of a JSON document, named by its path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class SchemaError(_PathError):
    """A JSON document violates its schema; path names the offending node."""


class SdmFormatError(SemDistError):
    """An SDM binary payload is malformed."""


class ImageFormatError(SemDistError):
    """A PGM/PPM payload is malformed."""


class CocoaImportError(_PathError):
    """A COCOA-style document cannot be imported; path names the offender."""


# ---------------------------------------------------------------------------
# run-length masks


@dataclass(frozen=True)
class RleMask:
    """Column-major run-length mask: counts of alternating 0/1 runs.

    The first count is the length of the leading background run and may be
    zero when the scan starts inside the mask.
    """

    width: int
    height: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise RleError(f"mask must be at least 1x1, got {self.width}x{self.height}")
        counts = tuple(self.counts)
        # exact ints only: bool is an int subclass; other subclasses take the walk
        if not (set(map(type, counts)) <= {int} and min(counts, default=0) >= 0):
            for value in counts:  # walk only to name the first bad count
                if isinstance(value, bool) or not isinstance(value, int):
                    raise RleError(f"run counts must be integers, got {value!r}")
                if value < 0:
                    raise RleError(f"run counts must be non-negative, got {value}")
        object.__setattr__(self, "counts", counts)


def rle_encode(mask: BinaryMask) -> RleMask:
    """Encode a mask by scanning columns top to bottom, left to right."""
    flat = mask.bits.ravel(order="F")
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    boundaries = np.concatenate(([0], changes, [flat.size]))
    runs = np.diff(boundaries).tolist()
    if flat[0]:
        runs.insert(0, 0)
    return RleMask(mask.width, mask.height, runs)


def rle_decode(rle: RleMask) -> BinaryMask:
    """Decode back to a mask; the counts must sum to width * height, and a
    mask that no array can index or memory can hold raises RleError."""
    total = sum(rle.counts)
    area = rle.width * rle.height
    if total != area:
        raise RleError(
            f"run counts sum to {total}, expected {area} for a {rle.width}x{rle.height} mask"
        )
    # on Python ints, before numpy sees a count: np.repeat can crash past intp
    if area > _INTP_MAX:
        raise RleError(
            f"a {rle.width}x{rle.height} mask has more pixels than an array can index"
        )
    values = np.zeros(len(rle.counts), dtype=bool)
    values[1::2] = True
    try:
        flat = np.repeat(values, np.array(rle.counts, dtype=np.int64))
    except (MemoryError, ValueError) as exc:
        raise RleError(f"a {rle.width}x{rle.height} mask does not fit in memory") from exc
    return BinaryMask(flat.reshape((rle.height, rle.width), order="F"))


# ---------------------------------------------------------------------------
# schema helpers


def _require_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    return value

def _require_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected an array, got {type(value).__name__}")
    return value


def _require_int(value, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(path, f"expected an integer >= {minimum}, got {value}")
    return value


def _require_real(value, path: str, lo: float, hi: float) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        message = f"expected a number in [{lo}, {hi}], got an integer beyond the float range"
        raise SchemaError(path, message) from None
    if not (lo <= value <= hi):
        raise SchemaError(path, f"expected a number in [{lo}, {hi}], got {value}")
    return value


def _reject_unknown(obj: dict, allowed: Sequence[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown field")


def _get_required(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return obj[key]


# ---------------------------------------------------------------------------
# scene JSON


_SPARSE_KEY = "0|[1-9][0-9]*"
_SPARSE_KEYS = re.compile(f"(?:{_SPARSE_KEY})(?:,(?:{_SPARSE_KEY}))*")


def _stack_form(stacks: str) -> bool:
    """True for "dense", False for "sparse"."""
    if stacks not in ("sparse", "dense"):
        raise ValueError(f'stacks must be "sparse" or "dense", got {stacks!r}')
    return stacks == "dense"


def _scene_fields(scene: LayerStackScene) -> dict:
    instances = [
        {"id": record.id, "category": record.category} for record in scene.instances
    ]
    return {"width": scene.width, "height": scene.height, "instances": instances}


def scene_to_dict(scene: LayerStackScene, stacks: str = "sparse") -> dict:
    """Scene as a JSON-ready dict; stacks is either "sparse" or "dense"."""
    dense = _stack_form(stacks)
    pixels, lengths, ids = _scene_cells(scene, dense)
    ends = np.cumsum(lengths).tolist()
    cells = list(map(getitem, repeat(ids.tolist()), map(slice, [0] + ends[:-1], ends)))
    return {
        **_scene_fields(scene),
        "stacks": cells if dense else dict(zip(map(str, pixels.tolist()), cells)),
    }


def _stacks_text(pixels: np.ndarray, lengths: np.ndarray, ids: np.ndarray, dense: bool) -> str:
    """The "stacks" value of scene_to_dict as _dump_json renders it inside the
    root object: one id per line, "[]" for an empty dense cell, "{}" for an
    empty sparse block, and sparse keys in string order ("10" before "2")."""
    if not lengths.size:
        return "{}"  # a dense block has a cell per pixel, so only sparse is empty
    keys = [] if dense else list(map(str, pixels.tolist()))
    # sort_keys orders the sparse cells; every cell is four text slots
    # (separator, key, "[" and its closing bracket) plus one slot per id
    order = np.arange(lengths.size) if dense else sorted(range(len(keys)), key=keys.__getitem__)
    size = lengths + 4
    start = np.empty_like(size)
    start[order] = np.cumsum(size[order]) - size[order]
    slots = np.empty(int(size.sum()), dtype=object)
    slots[start] = ",\n    " if dense else ',\n    "'
    slots[0] = "[\n    " if dense else '{\n    "'
    slots[start + 1] = "" if dense else keys
    slots[start + 2] = "[" if dense else '": ['
    close = start + size - 1
    slots[close] = "\n    ]"
    slots[close[lengths == 0]] = "]"
    # one id per line, after a comma unless it opens its cell
    rank = _ranks(lengths)
    names, inverse = np.unique(ids, return_inverse=True)
    lines = np.array(
        [(",\n      " + name, "\n      " + name) for name in map(str, names.tolist())],
        dtype=object,
    ).reshape(-1, 2)
    slots[np.repeat(start, lengths) + 3 + rank] = lines[inverse, (rank == 0).view(np.int8)]
    return "".join(slots.tolist()) + ("\n  ]" if dense else "\n  }")


def _parse_id_and_category(obj: dict, path: str, seen: set[int]) -> tuple[int, Optional[str]]:
    """The required positive "id", new to seen, and the optional string
    "category" of one instance object."""
    instance_id = _require_int(_get_required(obj, "id", path), f"{path}.id", 1)
    if instance_id in seen:
        raise SchemaError(f"{path}.id", f"duplicate instance id {instance_id}")
    seen.add(instance_id)
    category = obj.get("category")
    if category is not None and not isinstance(category, str):
        raise SchemaError(f"{path}.category", f"expected a string or null, got {category!r}")
    return instance_id, category


def _parse_instances(raw, path: str) -> tuple[InstanceRecord, ...]:
    records = []
    seen: set[int] = set()
    for idx, item in enumerate(_require_list(raw, path)):
        item_path = f"{path}[{idx}]"
        obj = _require_object(item, item_path)
        _reject_unknown(obj, ("id", "category"), item_path)
        records.append(InstanceRecord(*_parse_id_and_category(obj, item_path, seen)))
    return tuple(records)


def _parse_stack_cell(raw, path: str, known: set[int]) -> list[int]:
    entries = _require_list(raw, path)
    cell = []
    for pos, value in enumerate(entries):
        entry_path = f"{path}[{pos}]"
        instance_id = _require_int(value, entry_path, 1)
        if instance_id not in known:
            raise SchemaError(entry_path, f"id {instance_id} missing from the instance list")
        if instance_id > _INT32_MAX:
            raise SchemaError(entry_path, f"id {instance_id} exceeds the int32 stack range")
        if instance_id in cell:
            raise SchemaError(entry_path, f"id {instance_id} repeated within one pixel stack")
        cell.append(instance_id)
    return cell


def _raise_stack_defect(raw_stacks: Union[dict, list], width: int, height: int, known: set[int]) -> None:
    """Walk the stack cells in document order and raise the first defect.
    Runs only after the bulk checks have found one, to name its JSON path."""
    if isinstance(raw_stacks, list):
        for index, raw_cell in enumerate(raw_stacks):
            _parse_stack_cell(raw_cell, f"$.stacks[{index}]", known)
    else:
        for key, raw_cell in raw_stacks.items():
            key_path = f'$.stacks["{key}"]'
            if not isinstance(key, str) or not re.fullmatch(_SPARSE_KEY, key):
                raise SchemaError(key_path, "sparse keys must be decimal pixel indices")
            try:
                index = int(key)
            except ValueError:  # more digits than int() parses: beyond any grid
                index = width * height
            if index >= width * height:
                raise SchemaError(key_path, f"pixel index {key} outside a {width}x{height} grid")
            if not _parse_stack_cell(raw_cell, key_path, known):
                raise SchemaError(key_path, "sparse stack cells must not be empty")
    raise AssertionError("the bulk stack check rejected stacks the walk accepts")


def _stack_arrays(
    keys: Optional[list], cells: list
) -> Optional[tuple[Optional[np.ndarray], np.ndarray, np.ndarray]]:
    """(pixel indices, cell lengths, flat ids) of stacks parsed from JSON,
    or None when a cell is not a list of ints or a key is not a decimal
    string. keys is None for dense stacks, and so are their pixel indices."""
    if not all(map(isinstance, cells, repeat(list))):
        return None
    flat = list(chain.from_iterable(cells))
    if not all(map(isinstance, flat, repeat(int))) or any(map(isinstance, flat, repeat(bool))):
        return None
    try:
        ids = np.array(flat, dtype=np.int64)
    except OverflowError:  # past int64, so past the int32 stack range too
        return None
    lengths = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells))
    if keys is None:
        return None, lengths, ids
    try:
        joined = ",".join(keys)  # TypeError on a key that is not a str
        indices = list(map(int, keys))  # no key that int() takes holds a comma
    except (TypeError, ValueError):
        return None
    if keys and not _SPARSE_KEYS.fullmatch(joined):
        return None
    # an index past intp fits only a grid no array can hold: object keeps it
    # exact for the range check, and the allocation then fails
    big = max(indices, default=0) > _INTP_MAX
    return np.array(indices, dtype=object if big else np.intp), lengths, ids


def _scene_head(doc) -> tuple[int, int, tuple[InstanceRecord, ...], object]:
    """width, height, instance records and the raw "stacks" value of a scene
    document, every field but the stacks checked."""
    root = _require_object(doc, "$")
    _reject_unknown(root, ("width", "height", "instances", "stacks"), "$")
    width = _require_int(_get_required(root, "width", "$"), "$.width", 1)
    height = _require_int(_get_required(root, "height", "$"), "$.height", 1)
    records = _parse_instances(_get_required(root, "instances", "$"), "$.instances")
    return width, height, records, _get_required(root, "stacks", "$")


def _stacked_scene(
    width: int,
    height: int,
    records: tuple[InstanceRecord, ...],
    pixels: Optional[np.ndarray],
    lengths: np.ndarray,
    ids: np.ndarray,
) -> Optional[LayerStackScene]:
    """The scene whose stacks hold the flat ids cell by cell, front to back,
    at the cells' pixel indices (None for dense stacks: a cell per pixel),
    or None when the arrays fail a check of _raise_stack_defect: an id not
    listed or outside 1..int32 max, an id twice in one cell or, for sparse
    stacks, an empty cell or an index outside the grid."""
    # listed ids are positive, so an id equal to its nearest listed id is in range
    listed = np.array(sorted(r.id for r in records if r.id <= _INT32_MAX), dtype=np.int64)
    if ids.size and not listed.size:
        return None
    which = listed.searchsorted(ids)
    if (listed.take(which, mode="clip") != ids).any():
        return None
    if pixels is not None and pixels.size:
        if not lengths.all() or int(pixels.max()) >= width * height:
            return None
    try:
        # None for an id twice in one cell
        return LayerStackScene._from_cells(width, height, records, pixels, lengths, listed, which)
    except ValueError as exc:
        depth = int(lengths.max(initial=0))
        raise SchemaError("$", f"cannot hold {depth}x{height}x{width} stacks: {exc}") from exc


def scene_from_dict(doc) -> LayerStackScene:
    """Parse and validate a scene document; raises SchemaError on any defect."""
    width, height, records, raw_stacks = _scene_head(doc)
    if isinstance(raw_stacks, list):
        if len(raw_stacks) != width * height:
            raise SchemaError(
                "$.stacks",
                f"dense stacks need {width * height} entries, got {len(raw_stacks)}",
            )
        keys, cells = None, raw_stacks
    elif isinstance(raw_stacks, dict):
        keys, cells = list(raw_stacks), list(raw_stacks.values())
    else:
        raise SchemaError("$.stacks", "expected an array (dense) or object (sparse)")
    parsed = _stack_arrays(keys, cells)
    scene = None if parsed is None else _stacked_scene(width, height, records, *parsed)
    if scene is None:
        _raise_stack_defect(raw_stacks, width, height, {record.id for record in records})
    return scene


# Between two digit runs, a sparse stacks block without its whitespace holds
# ',' between ids, '":[' from a key to its ids, or '],"' from the last id of
# a cell to the next key: each read as the little-endian number of its bytes,
# its length in the top byte.
_COMMA, _KEY_TO_IDS, _NEXT_CELL = (
    int.from_bytes(sep, "little") | len(sep) << 24 for sep in (b",", b'":[', b'],"')
)
_POWERS_OF_TEN = 10 ** np.arange(10, dtype=np.int64)
_STACKS_KEY = re.compile(r'"stacks"[ \t\n\r]*:[ \t\n\r]*\{')


def _sparse_block(block: bytes) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(pixel indices, cell lengths, flat ids) of a sparse stacks block in
    document order, read in one pass over its bytes, or None unless the
    block is {"key": [id, ...], ...} with JSON whitespace, at least one id
    per cell, no number with a leading zero or over 10 digits, and no key
    twice."""
    compact = block.translate(None, b" \t\n\r")
    data = np.frombuffer(compact, dtype=np.uint8)
    number = data - ord("0")  # a digit's value; above 9 for any other byte
    digit = number < 10
    # the block opens on "{" and closes on "}", so edges alternate start, end
    edges = (digit[1:] != digit[:-1]).nonzero()[0] + 1
    starts, ends = edges[0::2], edges[1::2]
    if not starts.size:
        return (starts, starts, starts) if compact == b"{}" else None
    if compact[: starts[0]] != b'{"' or compact[ends[-1] :] != b"]}":
        return None
    # the separator after every run but the last, as the little-endian number
    # of its bytes: ',' (gap 1), '":[' or '],"' (gap 3); "]}" follows the last
    gap = starts[1:] - ends[:-1]
    words = np.ndarray((data.size - 3,), dtype="<u4", buffer=compact, strides=(1,))
    separator = words.take(ends[:-1]) & np.where(gap == 1, 0xFF, 0xFFFFFF) | gap << 24
    to_ids = separator == _KEY_TO_IDS
    next_cell = separator == _NEXT_CELL
    # a run that opens the block or follows '],"' is a key, and '":[' follows a key
    key = np.concatenate(([True], next_cell))
    if not (to_ids | next_cell | (separator == _COMMA)).all() or (to_ids != key[:-1]).any():
        return None
    # in the block so checked, the runs of digit or quote bytes are the keys
    # with their quotes and the ids; whitespace that parted two of them split a
    # number or stood inside a key's quotes
    raw = np.frombuffer(block, dtype=np.uint8)
    tight = ((raw - ord("0")) < 10) | (raw == ord('"'))
    if np.count_nonzero(tight[1:] > tight[:-1]) != starts.size:
        return None
    size = ends - starts
    if size.max() > 10 or ((size > 1) & (number.take(starts) == 0)).any():
        return None
    # every digit times ten to the power of its place in its run, summed per run
    where = digit.nonzero()[0]
    place = (ends - 1).repeat(size) - where
    values = np.add.reduceat(
        number.take(where) * _POWERS_OF_TEN.take(place), size.cumsum() - size
    )
    at_key = key.nonzero()[0]
    pixels = values.take(at_key)
    ordered = np.sort(pixels)
    if (ordered[1:] == ordered[:-1]).any():
        return None
    lengths = np.concatenate((at_key[1:], [key.size])) - at_key - 1
    return pixels, lengths, values[~key]


def _scene_from_text(text: str) -> Optional[LayerStackScene]:
    """The scene of a scene file's text, its sparse stacks block read by
    _sparse_block and the rest of the text by json.loads, or None where only
    scene_from_dict(json.loads(text)) can decide: a backslash anywhere,
    "stacks" other than exactly once, the dense form, or a failed check.
    Never raises."""
    if "\\" in text or text.count('"stacks"') != 1:
        return None
    found = _STACKS_KEY.match(text, text.find('"stacks"'))
    if found is None:
        return None
    opening = found.end() - 1
    closing = text.find("}", opening)  # the grammar holds no brace inside
    if closing < 0:
        return None
    parsed = _sparse_block(text[opening : closing + 1].encode("ascii", "replace"))
    if parsed is None:
        return None
    try:
        # one "stacks" in the text, so a head that passes holds it at the root
        width, height, records, _ = _scene_head(
            json.loads(text[:opening] + "{}" + text[closing + 1 :])
        )
        return _stacked_scene(width, height, records, *parsed)
    except (ValueError, RecursionError, SemDistError):
        return None


def write_scene(scene: LayerStackScene, path: PathLike, stacks: str = "sparse") -> None:
    """Write _dump_json(scene_to_dict(scene, stacks)) byte for byte, with the
    stacks block rendered from arrays by _stacks_text."""
    dense = _stack_form(stacks)
    fields = _scene_fields(scene)
    width = fields.pop("width")
    head = _dump_json(fields)  # ends "\n}\n"; "stacks" and "width" sort after its keys
    block = _stacks_text(*_scene_cells(scene, dense), dense)
    text = f'{head[:-3]},\n  "stacks": {block},\n  "width": {json.dumps(width)}\n}}\n'
    Path(path).write_text(text, encoding="utf-8")


def read_scene(path: PathLike) -> LayerStackScene:
    """Read a scene file: the sparse stacks block in one numpy pass over its
    bytes where it can, else scene_from_dict on the parsed JSON, with the
    same result either way."""
    text = _read_text(path)
    scene = _scene_from_text(text)
    return scene if scene is not None else scene_from_dict(_parse_json(text))


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _read_text(path: PathLike) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError("$", f"not UTF-8 text: {exc}") from exc


def _parse_json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int()'s digit limit
        raise SchemaError("$", f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("$", "arrays or objects nested too deeply to parse") from exc


def _load_json(path: PathLike):
    return _parse_json(_read_text(path))


# ---------------------------------------------------------------------------
# annotation JSON


def annotations_to_dict(
    width: int, height: int, annotations: Sequence[InstanceAnnotation]
) -> dict:
    items = []
    for ann in annotations:
        items.append(
            {
                "id": ann.id,
                "category": ann.category,
                "score": ann.score,
                "occlusion_rate": ann.occlusion_rate,
                "amodal": list(rle_encode(ann.amodal).counts),
                "visible": list(rle_encode(ann.visible).counts),
            }
        )
    return {"width": width, "height": height, "annotations": items}


def _parse_rle_field(raw, path: str, width: int, height: int) -> BinaryMask:
    counts = _require_list(raw, path)
    try:
        return rle_decode(RleMask(width, height, tuple(counts)))
    except RleError as exc:
        for pos, value in enumerate(counts):  # name the first bad count, if any
            _require_int(value, f"{path}[{pos}]", 0)
        raise SchemaError(path, str(exc)) from exc


def annotations_from_dict(doc) -> tuple[int, int, list[InstanceAnnotation]]:
    root = _require_object(doc, "$")
    _reject_unknown(root, ("width", "height", "annotations"), "$")
    width = _require_int(_get_required(root, "width", "$"), "$.width", 1)
    height = _require_int(_get_required(root, "height", "$"), "$.height", 1)
    annotations = []
    seen: set[int] = set()
    for idx, item in enumerate(_require_list(_get_required(root, "annotations", "$"), "$.annotations")):
        path = f"$.annotations[{idx}]"
        obj = _require_object(item, path)
        _reject_unknown(
            obj, ("id", "category", "score", "occlusion_rate", "amodal", "visible"), path
        )
        instance_id, category = _parse_id_and_category(obj, path, seen)
        score = _require_real(_get_required(obj, "score", path), f"{path}.score", 0.0, 1.0)
        rate = _require_real(
            _get_required(obj, "occlusion_rate", path), f"{path}.occlusion_rate", 0.0, 1.0
        )
        amodal = _parse_rle_field(_get_required(obj, "amodal", path), f"{path}.amodal", width, height)
        visible = _parse_rle_field(_get_required(obj, "visible", path), f"{path}.visible", width, height)
        try:
            annotations.append(
                InstanceAnnotation(
                    id=instance_id,
                    amodal=amodal,
                    visible=visible,
                    occlusion_rate=rate,
                    score=score,
                    category=category,
                )
            )
        except (ValueError, SemDistError) as exc:
            raise SchemaError(path, str(exc)) from exc
    return width, height, annotations


def write_annotations(
    width: int, height: int, annotations: Sequence[InstanceAnnotation], path: PathLike
) -> None:
    Path(path).write_text(
        _dump_json(annotations_to_dict(width, height, annotations)), encoding="utf-8"
    )


def read_annotations(path: PathLike) -> tuple[int, int, list[InstanceAnnotation]]:
    return annotations_from_dict(_load_json(path))


# ---------------------------------------------------------------------------
# SDM binary maps

SDM_MAGIC = b"SDM1"
_SDM_HEADER = struct.Struct("<4sIII")


def semdist_to_bytes(semdist: SemDistMap) -> bytes:
    header = _SDM_HEADER.pack(SDM_MAGIC, semdist.width, semdist.height, 1)
    frame = _paste(semdist._shape, semdist._support_box, semdist._crop, np.float32(0.0))
    return header + frame.astype("<f4", copy=False).tobytes()


def semdist_from_bytes(data: bytes) -> SemDistMap:
    if len(data) < _SDM_HEADER.size:
        raise SdmFormatError(
            f"truncated header: got {len(data)} bytes, need {_SDM_HEADER.size}"
        )
    magic, width, height, channels = _SDM_HEADER.unpack_from(data)
    if magic != SDM_MAGIC:
        raise SdmFormatError(f"bad magic {magic!r}, expected {SDM_MAGIC!r}")
    if width < 1 or height < 1 or channels < 1:
        raise SdmFormatError(
            f"dimensions must be positive, got {width}x{height}x{channels}"
        )
    if channels != 1:
        raise SdmFormatError(f"unsupported channel count {channels}, expected 1")
    expected = _SDM_HEADER.size + 4 * width * height * channels
    if len(data) != expected:
        raise SdmFormatError(f"payload is {len(data)} bytes, expected {expected}")
    values = np.frombuffer(data, dtype="<f4", offset=_SDM_HEADER.size)
    try:
        return SemDistMap(values.reshape((height, width)))
    except ValueError as exc:
        raise SdmFormatError(f"invalid map values: {exc}") from exc


def write_semdist(semdist: SemDistMap, path: PathLike) -> None:
    Path(path).write_bytes(semdist_to_bytes(semdist))


def read_semdist(path: PathLike) -> SemDistMap:
    return semdist_from_bytes(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# netpbm images


def _write_netpbm(image: np.ndarray, path: PathLike, magic: bytes, planes: int) -> None:
    arr = np.asarray(image)
    channels = () if planes == 1 else (planes,)
    if arr.ndim != 2 + len(channels) or arr.shape[2:] != channels or arr.dtype != np.uint8:
        expected = "(h, w)" if planes == 1 else f"(h, w, {planes})"
        raise ValueError(
            f"{magic.decode()} payload must be a {expected} uint8 array, got {arr.dtype} {arr.shape}"
        )
    header = magic + f"\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + arr.tobytes(order="C"))


def write_pgm(gray: np.ndarray, path: PathLike) -> None:
    """Write a P5 grayscale image from a uint8 (height, width) array."""
    _write_netpbm(gray, path, b"P5", 1)


def write_ppm(rgb: np.ndarray, path: PathLike) -> None:
    """Write a P6 color image from a uint8 (height, width, 3) array."""
    _write_netpbm(rgb, path, b"P6", 3)


def _read_netpbm(path: PathLike, magic: bytes, planes: int) -> np.ndarray:
    data = Path(path).read_bytes()
    matched = re.match(
        rb"^" + re.escape(magic) + rb"\s+(\d+)\s+(\d+)\s+(\d+)\s", data
    )
    if matched is None:
        raise ImageFormatError(f"malformed {magic.decode()} header")
    try:
        width, height, maxval = (int(g) for g in matched.groups())
    except ValueError:  # more digits than int() parses
        raise ImageFormatError(f"{magic.decode()} header number has too many digits") from None
    if maxval != 255:
        raise ImageFormatError(f"unsupported max value {maxval}, expected 255")
    payload = data[matched.end():]
    expected = width * height * planes
    if len(payload) != expected:
        raise ImageFormatError(f"payload is {len(payload)} bytes, expected {expected}")
    arr = np.frombuffer(payload, dtype=np.uint8)
    shape = (height, width) if planes == 1 else (height, width, planes)
    return arr.reshape(shape).copy()


def read_pgm(path: PathLike) -> np.ndarray:
    return _read_netpbm(path, b"P5", 1)


def read_ppm(path: PathLike) -> np.ndarray:
    return _read_netpbm(path, b"P6", 3)


# ---------------------------------------------------------------------------
# COCOA-style import


def rasterize_polygon(coords: Sequence[float], width: int, height: int) -> BinaryMask:
    """Even-odd fill of a flat [x0, y0, x1, y1, ...] ring over pixel centers."""
    pts = np.asarray(coords, dtype=np.float64).reshape(-1, 2)
    xs = np.arange(width, dtype=np.float64) + 0.5
    ys = np.arange(height, dtype=np.float64) + 0.5
    inside = np.zeros((height, width), dtype=bool)
    ax, ay = pts[:, 0], pts[:, 1]
    bx, by = np.roll(ax, -1), np.roll(ay, -1)
    for edge in range(pts.shape[0]):
        # half-open span in y gives each vertex to exactly one of its edges
        crosses = (ay[edge] <= ys) != (by[edge] <= ys)
        if not crosses.any():
            continue
        t = (ys[crosses] - ay[edge]) / (by[edge] - ay[edge])
        x_at = ax[edge] + t * (bx[edge] - ax[edge])
        inside[crosses] ^= xs[None, :] < x_at[:, None]
    return BinaryMask(inside)


@dataclass(frozen=True)
class CocoaImage:
    """Imported annotations of one image; region ids are 1-based positions."""

    image_id: int
    file_name: Optional[str]
    width: int
    height: int
    annotations: tuple[InstanceAnnotation, ...]
    order_pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CocoaImport:
    """Import outcome: per-image annotation lists plus one (json_path, reason)
    warning per region, field or token that was skipped or ignored, in
    document order."""

    images: tuple[CocoaImage, ...]
    warnings: tuple[tuple[str, str], ...]

    @property
    def warning_count(self) -> int:
        return len(self.warnings)


_KNOWN_IMAGE_KEYS = (
    "id", "width", "height", "file_name", "license", "coco_url", "date_captured",
    "flickr_url",
)
_KNOWN_ANNOTATION_KEYS = ("image_id", "regions", "depth_constraint", "size", "id")
_KNOWN_REGION_KEYS = (
    "segmentation", "visible_mask", "invisible_mask", "name", "order", "isStuff",
    "occlude_rate", "area", "id",
)


_Warnings = list[tuple[str, str]]


def _warn_unknown_keys(obj: dict, known: Sequence[str], path: str, warnings: _Warnings) -> None:
    warnings.extend((f"{path}.{key}", "unknown field") for key in obj if key not in known)


_COORDINATE_LIMIT = float(np.finfo(np.float64).max) / 2
"""Largest polygon coordinate magnitude: the difference of two stays finite."""


def _in_coordinate_range(value) -> bool:
    """False for NaN, the infinities and numbers beyond _COORDINATE_LIMIT."""
    try:
        return abs(float(value)) <= _COORDINATE_LIMIT
    except OverflowError:  # an integer beyond the float range
        return False


def _decode_region_mask(
    raw, path: str, image: tuple[str, int, int], warnings: _Warnings
) -> Optional[BinaryMask]:
    """Polygon list or uncompressed RLE dict -> mask on image = (json path,
    width, height); None (plus a warning) when the geometry is unsupported."""
    image_path, width, height = image
    if isinstance(raw, list):
        if raw and isinstance(raw[0], list):
            rings = raw
        else:
            rings = [raw]
        try:
            combined = np.zeros((height, width), dtype=bool)
        except (MemoryError, ValueError) as exc:
            message = f"a {width}x{height} image does not fit in memory"
            raise CocoaImportError(image_path, message) from exc
        for ring in rings:
            if (
                not isinstance(ring, list)
                or len(ring) < 6
                or len(ring) % 2 != 0
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in ring)
            ):
                warnings.append((path, "polygon ring is not an even list of 6 or more numbers"))
                return None
            if not all(map(_in_coordinate_range, ring)):
                warnings.append(
                    (path, "polygon ring has a coordinate that is not finite or too large")
                )
                return None
            combined ^= rasterize_polygon(ring, width, height).bits
        return BinaryMask(combined)
    if isinstance(raw, dict):
        size = raw.get("size")
        counts = raw.get("counts")
        if not isinstance(size, list) or size != [height, width] or not isinstance(counts, list):
            warnings.append((path, "compressed RLE, or size other than [height, width]"))
            return None
        try:
            return rle_decode(RleMask(width, height, tuple(counts)))
        except RleError as exc:
            warnings.append((path, str(exc)))
            return None
    raise CocoaImportError(path, f"expected a polygon array or RLE object, got {type(raw).__name__}")


_QUOTE_LIMIT = 32  # characters of a malformed token that its warning quotes


def _quote(token: str) -> str:
    """repr of token, cut to its first _QUOTE_LIMIT characters and its length
    when longer, so a warning stays short whatever the document holds."""
    if len(token) <= _QUOTE_LIMIT:
        return repr(token)
    return f"{token[:_QUOTE_LIMIT]!r}... ({len(token)} characters)"


def _parse_depth_constraint(raw, path: str, warnings: _Warnings) -> tuple[tuple[int, int], ...]:
    if raw is None:
        return ()
    if not isinstance(raw, str):
        raise CocoaImportError(path, f"expected a string, got {type(raw).__name__}")
    pairs = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        matched = re.fullmatch(r"(\d+)-(\d+)", token)
        try:
            pairs.append((int(matched.group(1)), int(matched.group(2))))
        except (AttributeError, ValueError):  # no match, or more digits than int() parses
            warnings.append((path, f"depth pair {_quote(token)} is not FRONT-BEHIND"))
    return tuple(pairs)


def import_cocoa(document) -> CocoaImport:
    """Import a COCOA-style amodal annotation document.

    Regions become InstanceAnnotation records with ids equal to their 1-based
    position in the regions list; occlusion_rate is recomputed from the
    decoded masks rather than trusted. Depth-order pairs from
    depth_constraint strings are preserved verbatim as (front, behind) region
    ids. Unsupported geometry and unknown fields are skipped, each with a
    warning that names its JSON path and the reason.
    """
    warnings: _Warnings = []
    root = document
    if not isinstance(root, dict):
        raise CocoaImportError("$", f"expected an object, got {type(root).__name__}")

    images_raw = root.get("images")
    if not isinstance(images_raw, list):
        raise CocoaImportError("$.images", "missing or not an array")
    image_meta: dict[int, tuple[str, Optional[str], int, int]] = {}  # id -> path, name, size
    for idx, item in enumerate(images_raw):
        path = f"$.images[{idx}]"
        if not isinstance(item, dict):
            raise CocoaImportError(path, "expected an object")
        _warn_unknown_keys(item, _KNOWN_IMAGE_KEYS, path, warnings)
        for key in ("id", "width", "height"):
            if not isinstance(item.get(key), int) or isinstance(item.get(key), bool):
                raise CocoaImportError(f"{path}.{key}", "missing or not an integer")
        image_id = item["id"]
        if image_id in image_meta:
            raise CocoaImportError(f"{path}.id", f"duplicate image id {image_id}")
        file_name = item.get("file_name")
        if file_name is not None and not isinstance(file_name, str):
            raise CocoaImportError(f"{path}.file_name", "expected a string")
        if item["width"] < 1 or item["height"] < 1:
            raise CocoaImportError(path, "image dimensions must be positive")
        image_meta[image_id] = (path, file_name, item["width"], item["height"])

    annotations_raw = root.get("annotations", [])
    if not isinstance(annotations_raw, list):
        raise CocoaImportError("$.annotations", "expected an array")
    _warn_unknown_keys(
        root, ("images", "annotations", "info", "licenses", "categories"), "$", warnings
    )

    per_image: dict[int, tuple[tuple[InstanceAnnotation, ...], tuple[tuple[int, int], ...]]] = {}
    for idx, entry in enumerate(annotations_raw):
        path = f"$.annotations[{idx}]"
        if not isinstance(entry, dict):
            raise CocoaImportError(path, "expected an object")
        _warn_unknown_keys(entry, _KNOWN_ANNOTATION_KEYS, path, warnings)
        image_id = entry.get("image_id")
        if not isinstance(image_id, int) or isinstance(image_id, bool):
            raise CocoaImportError(f"{path}.image_id", "missing or not an integer")
        if image_id not in image_meta:
            raise CocoaImportError(f"{path}.image_id", f"unknown image id {image_id}")
        if image_id in per_image:
            raise CocoaImportError(f"{path}.image_id", f"image {image_id} annotated twice")
        image_path, _, width, height = image_meta[image_id]
        image = (image_path, width, height)

        regions_raw = entry.get("regions")
        if not isinstance(regions_raw, list):
            raise CocoaImportError(f"{path}.regions", "missing or not an array")
        annotations = []
        for r_idx, region in enumerate(regions_raw):
            r_path = f"{path}.regions[{r_idx}]"
            if not isinstance(region, dict):
                raise CocoaImportError(r_path, "expected an object")
            _warn_unknown_keys(region, _KNOWN_REGION_KEYS, r_path, warnings)
            if "segmentation" not in region:
                warnings.append((r_path, "region has no segmentation"))
                continue
            amodal = _decode_region_mask(
                region["segmentation"], f"{r_path}.segmentation", image, warnings
            )
            if amodal is None or amodal.area() == 0:
                if amodal is not None:
                    warnings.append((f"{r_path}.segmentation", "empty amodal mask"))
                continue
            visible: Optional[BinaryMask] = None
            if region.get("visible_mask") is not None:
                visible = _decode_region_mask(
                    region["visible_mask"], f"{r_path}.visible_mask", image, warnings
                )
            if visible is None and region.get("invisible_mask") is not None:
                invisible = _decode_region_mask(
                    region["invisible_mask"], f"{r_path}.invisible_mask", image, warnings
                )
                if invisible is not None:
                    visible = BinaryMask(amodal.bits & ~invisible.bits)
            if visible is None:
                visible = amodal  # no occlusion data means fully visible
            else:
                visible = BinaryMask(visible.bits & amodal.bits)
            name = region.get("name")
            if name is not None and not isinstance(name, str):
                raise CocoaImportError(f"{r_path}.name", "expected a string")
            category = name
            if category is None and region.get("isStuff"):
                category = "stuff"
            annotations.append(
                InstanceAnnotation.from_masks(
                    r_idx + 1, amodal, visible, score=1.0, category=category
                )
            )
        pairs = _parse_depth_constraint(
            entry.get("depth_constraint"), f"{path}.depth_constraint", warnings
        )
        per_image[image_id] = (tuple(annotations), pairs)

    images = tuple(
        CocoaImage(image_id, *meta[1:], *per_image.get(image_id, ((), ())))
        for image_id, meta in image_meta.items()
    )
    return CocoaImport(images=images, warnings=tuple(warnings))
