"""Core value types for layered occlusion scenes and their invariants.

Everything here is an immutable value: numpy payloads are copied on
construction and marked read-only, so instances are safe to share across
threads and to use as fixture data. A map holds its frame shape, support box
and crop from construction, and a scene holds its occupied stack entries.
Library functions read only entries and crops: a scene's dense stacks and a
map's full frame (LayerStackScene.stacks, SemDistMap.values) are built only
when a caller reads them, and then kept. A scene also keeps each instance's
support box once a read has found it, and the gt depth order for the last
threshold and gt confidence the scene was scored at. All caches are
deterministic functions of the value (and of that key) and never change what
it means, so threads that race to fill them fill in equal data.

This module alone knows how scenes and maps sit in memory. A scene's dense
stacks are a (depth, height, width) int32 array whose plane k holds each
pixel's (k + 1)-th id from the front, 0 past the end of its stack. The scene
itself holds only the occupied slots of that array as entries: each entry is
a slot, the flat index depth * height * width + y * width + x, and the id
held there. The entries are sorted by id and then by slot, so one
instance's entries are one run that lists them depth by depth from the front
and row-major within a depth. The scene keeps the slots in one array and
the ids as runs: the distinct ids in ascending order and where each one's
run starts. An instance's run is found by binary search over the run ids,
and the few readers that need an id per entry rebuild one from the runs and
drop it. The slots are int32 where every stack plane of the frame fits
int32, that is where (max depth + 1) * height * width <= 2**31 - 1, and intp
otherwise, so an entry costs 4 bytes in all but huge frames. Arithmetic on
int32 slots stays int32, so every value the readers compute from slots (the
frame area, a plane's offset, the pixel-major sort key of _scene_cells) is
kept below that bound. A search in the slots takes its key in their dtype
(_searched), as a Python int key makes numpy convert them all, and an index
made from slots is cast to intp (_index) before it indexes, which is faster
than numpy's own cast inside the indexing.

Cells are the occupied (or all) row-major pixel indices, their stack
lengths and all their ids front to back in one flat array: the scene
readers hand cells to LayerStackScene._from_cells, and the writers take them
from _scene_cells.
Every crop on a support box becomes a full frame through _paste.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "LEVEL_ABSENT",
    "SemDistError",
    "UnknownInstanceError",
    "DimensionMismatchError",
    "BinaryMask",
    "InstanceRecord",
    "LayerStackScene",
    "SceneViolation",
    "SemDistMap",
    "LayeringMap",
    "InstanceAnnotation",
    "validate_scene",
    "amodal_mask_of",
    "visible_mask_of",
]

LEVEL_ABSENT = -1
"""Sentinel used in integer level grids for pixels where an instance is absent."""

_INT32_MIN = int(np.iinfo(np.int32).min)  # stacks are int32
_INT32_MAX = int(np.iinfo(np.int32).max)
_INTP_MAX = int(np.iinfo(np.intp).max)  # the most elements an array can index


class SemDistError(Exception):
    """Base class for every error raised by this package."""


class UnknownInstanceError(SemDistError):
    """An instance id was requested that the scene does not contain."""


class DimensionMismatchError(SemDistError):
    """Two grids that must share dimensions do not."""


_Box = tuple[int, int, int, int]
"""Half-open (y0, y1, x0, x1) bounds of a grid's support."""


def _box_of(mask: np.ndarray) -> Optional[_Box]:
    """Smallest box holding every True of a 2-D mask; None when there is none."""
    rows = np.logical_or.reduce(mask, axis=1).nonzero()[0]
    if rows.size == 0:
        return None
    y0, y1 = int(rows[0]), int(rows[-1]) + 1
    cols = np.logical_or.reduce(mask[y0:y1], axis=0).nonzero()[0]
    return y0, y1, int(cols[0]), int(cols[-1]) + 1


def _window(box: _Box) -> tuple[slice, slice]:
    return slice(box[0], box[1]), slice(box[2], box[3])


def _local(inner: _Box, box: _Box) -> tuple[slice, slice]:
    """The window of inner, a box inside box, in an array of box."""
    return slice(inner[0] - box[0], inner[1] - box[0]), slice(inner[2] - box[2], inner[3] - box[2])


def _paste(shape: tuple[int, int], box: Optional[_Box], crop, fill: np.generic) -> np.ndarray:
    """Fresh frame of fill's dtype holding crop on box and fill elsewhere; box
    None (with crop None) pastes nothing. A zero fill takes np.zeros, which
    leaves the pages that the crop misses untouched only where the allocator
    maps fresh zero pages for the frame; where it reuses freed memory,
    np.zeros clears the whole frame."""
    frame = np.full(shape, fill) if fill else np.zeros(shape, fill.dtype)
    if box is not None:
        frame[_window(box)] = crop
    return frame


class _FrozenGrid:
    """Read-only numpy grid held in one dataclass field.

    A subclass names its payload field and declares the dtype, rank and a
    noun for messages; _check adds its own value checks. The payload is
    copied to the dtype, must have the rank and no 0-length axis, and is
    marked read-only; its shape is kept as _shape. Grids compare equal only
    to grids of the same type with the same shape and values; float32
    values compare by bit pattern, so -0.0 and +0.0 differ, as they do in a
    map's support box and file.
    """

    _field: ClassVar[str] = "values"
    _dtype: ClassVar[type]
    _rank: ClassVar[int] = 2
    _noun: ClassVar[str]
    _shape: tuple[int, ...]

    def __post_init__(self) -> None:
        grid = self._shaped(np.array(getattr(self, self._field), dtype=self._dtype))
        self._check(grid)
        grid.setflags(write=False)
        object.__setattr__(self, self._field, grid)
        object.__setattr__(self, "_shape", grid.shape)

    @classmethod
    def _shaped(cls, grid: np.ndarray) -> np.ndarray:
        """grid, once it is known to have the type's rank and no 0-length axis."""
        if grid.ndim != cls._rank:
            raise ValueError(f"{cls._noun} grid must be {cls._rank}-D, got {grid.ndim}-D")
        if 0 in grid.shape:
            raise ValueError(f"{cls._noun} grid has a 0-length axis: shape {grid.shape}")
        return grid

    @staticmethod
    def _check(grid: np.ndarray) -> None:
        """Raise ValueError on values the type does not allow."""

    @classmethod
    def _fresh(cls, grid: np.ndarray):
        """Wrap a grid that no one else holds, of the type's dtype and rank
        and with no 0-length axis, without copying it; it is checked and made
        read-only as the constructor would."""
        cls._check(grid)
        grid.setflags(write=False)
        wrapped = object.__new__(cls)
        wrapped.__dict__.update({cls._field: grid, "_shape": grid.shape})
        return wrapped

    @property
    def width(self) -> int:
        return self._shape[-1]

    @property
    def height(self) -> int:
        return self._shape[-2]

    def require_same_shape(self, other: "_FrozenGrid") -> None:
        if self._shape != other._shape:
            raise DimensionMismatchError(
                f"{self._noun} dimensions differ: {self.width}x{self.height} "
                f"vs {other.width}x{other.height}"
            )

    def __eq__(self, other: object):
        if not isinstance(other, type(self)):
            return NotImplemented
        mine, theirs = getattr(self, self._field), getattr(other, other._field)
        if self._dtype is np.float32:  # by bits, so -0.0 != +0.0; values are finite
            mine, theirs = mine.view(np.uint32), theirs.view(np.uint32)
        return mine.shape == theirs.shape and bool(np.array_equal(mine, theirs))

    __hash__ = None


@dataclass(frozen=True, eq=False)
class BinaryMask(_FrozenGrid):
    """Row-major boolean grid. Origin is top-left; x grows rightward, y downward."""

    bits: np.ndarray

    _field = "bits"
    _dtype = bool
    _noun = "mask"

    @classmethod
    def zeros(cls, width: int, height: int) -> "BinaryMask":
        return cls(np.zeros((height, width), dtype=bool))

    def area(self) -> int:
        return int(np.count_nonzero(self.bits))

    def is_subset_of(self, other: "BinaryMask") -> bool:
        self.require_same_shape(other)
        return not bool((self.bits & ~other.bits).any())


def _check_instance_id(instance_id) -> None:
    if isinstance(instance_id, bool) or not isinstance(instance_id, int) or instance_id < 1:
        raise ValueError(f"instance id must be a positive integer, got {instance_id!r}")


@dataclass(frozen=True)
class InstanceRecord:
    """Identity of one scene instance; ids are opaque positive integers."""

    id: int
    category: Optional[str] = None

    def __post_init__(self) -> None:
        _check_instance_id(self.id)
        if self.category is not None and not isinstance(self.category, str):
            raise ValueError(f"category must be a string or None, got {self.category!r}")


def _ranks(lengths: np.ndarray) -> np.ndarray:
    """Depth of every flat id inside its stack, for stacks of these lengths."""
    return np.arange(int(lengths.sum())) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _pixel_box(pixels: np.ndarray, width: int) -> Optional[_Box]:
    """Smallest box around row-major pixel indices of a frame this wide;
    None when there are none. The rows are those of the least and greatest
    index."""
    if not pixels.size:
        return None
    cols = pixels % width
    return (int(pixels.min()) // width, int(pixels.max()) // width + 1,
            int(cols.min()), int(cols.max()) + 1)


def _searched(slots: np.ndarray, bound: int) -> int:
    """How many of the ascending slots lie below bound, a slot value of the
    scene, searched in the slots' dtype."""
    return int(slots.searchsorted(slots.dtype.type(bound)))


def _index(slots: np.ndarray) -> np.ndarray:
    """slots as an intp index array, copied only when they are not intp."""
    return slots.astype(np.intp, copy=False)


def _grouped(slots: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(slot, id) entries sorted by id and then by slot."""
    order = np.lexsort((slots, ids))
    return slots[order], ids[order]


def _scene_cells(scene: "LayerStackScene", dense: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cells of the scene's stacks: the occupied pixels in order, or every
    pixel when dense, their stack lengths and their ids front to back, with
    empty slots dropped."""
    area = scene.height * scene.width
    depth, pixel = np.divmod(scene._slots, area)
    # slots are distinct, so so are the keys: pixel by pixel, front to back,
    # and all below planes * area, so in the slots' dtype
    order = (pixel * (int(depth.max(initial=0)) + 1) + depth).argsort()
    pixel = pixel[order]
    ids = scene._entry_ids()[order]
    if dense:
        return np.arange(area), np.bincount(pixel, minlength=area), ids
    starts = np.flatnonzero(np.diff(pixel, prepend=-1))
    return pixel[starts], np.diff(starts, append=pixel.size), ids


@dataclass(frozen=True, eq=False)
class LayerStackScene:
    """Per-pixel front-to-back stacks of instance ids.

    ``stacks`` has shape (depth, height, width); the front-most entry sits at
    depth index 0 and 0 marks an empty slot. Trailing all-empty depth planes
    are trimmed, so equal scenes hold equal arrays. The constructor takes
    any such array, gaps, repeated, negative and unlisted ids included, and
    raises ValueError for a value that int32 does not hold exactly.

    A scene holds only the occupied slots of its stacks, as entries grouped
    by id: one array of slots, 4 bytes each wherever the stacks' planes fit
    int32, and one (id, run start) pair per id (see the module docstring).
    It keeps no array it is given.
    Library functions read the entries alone: from_layers, generate and
    the scene readers hand them over, and per-instance reads, stack_at,
    depth_counts, validate_scene, compositor.render, equality, pickling,
    repr and the scene writers read them. stacks is built from the entries
    only when a caller reads it, read-only, and the first array stored is
    the one every later access returns, so threads racing to build it all
    get one array.

    The scene also carries the support boxes of its instances in _boxes:
    the smallest box around the pixels whose stack holds an id, or None when
    no pixel does. from_layers and generate know every box from the pixels
    they hand _from_pixels. In any other scene, the first read of an
    instance finds its box from the instance's entries and keeps it. The
    boxes take no part in equality. Threads that read one instance at once
    find the same box.

    The scene also keeps, in _gt_orders, the gt depth order of its
    overlapping instance pairs for the last (c, gt_confidence) that
    order_accuracy or evaluate scored it at, so scoring it again at that
    key walks no pair. Only one key is kept, and a walk that raises keeps
    nothing. The entry is one (key, triples) tuple stored in one attribute
    write, so a racing thread reads either an older entry or a finished
    one, and entries for one key are equal. It takes no part in equality.
    """

    width: int
    height: int
    instances: tuple[InstanceRecord, ...]
    stacks: np.ndarray

    def __post_init__(self) -> None:
        self._check_head()
        stacks = np.asarray(self.stacks)
        # checked before the cast, which would wrap, truncate or warn
        fits = (stacks >= _INT32_MIN) & (stacks <= _INT32_MAX) & (np.trunc(stacks) == stacks)
        if not fits.all():
            raise ValueError(f"stack value {stacks[~fits][0]} does not fit the int32 stacks")
        stacks = stacks.astype(np.int32)
        if stacks.ndim != 3 or stacks.shape[1:] != (self.height, self.width):
            raise ValueError(
                f"stacks must have shape (depth, {self.height}, {self.width}), "
                f"got {stacks.shape}"
            )
        flat = stacks.reshape(-1)
        slots = np.flatnonzero(flat)
        del self.__dict__["stacks"]  # built again from the entries on first access
        self._keep(*_grouped(slots, flat[slots]))

    def _check_head(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"scene must be at least 1x1, got {self.width}x{self.height}")
        instances = tuple(self.instances)
        for record in instances:
            if not isinstance(record, InstanceRecord):
                raise ValueError(f"instances must be InstanceRecord, got {record!r}")
        self.__dict__["instances"] = instances

    def _keep(self, slots: np.ndarray, ids: np.ndarray) -> None:
        """Hold the entries given as integer slots and their int32 ids,
        sorted by id and then by slot: the slots as int32 where every stack
        plane of the frame fits int32 and as intp otherwise, and the ids as
        their runs, _run_ids (ascending) and _run_starts (with the entry
        count appended, so run k is _slots[_run_starts[k]:_run_starts[k + 1]]).
        The kept arrays are made read-only. Slots that already have the kept
        dtype are kept without a copy, so no caller may keep them writable."""
        area = self.height * self.width
        planes = int(slots.max(initial=0)) // area + 1
        slots = slots.astype(np.int32 if planes * area <= _INT32_MAX else np.intp, copy=False)
        new = np.ones(ids.size, dtype=bool)
        np.not_equal(ids[1:], ids[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        run_ids, run_starts = ids[starts], np.append(starts, ids.size)
        for kept in (slots, run_ids, run_starts):
            kept.setflags(write=False)
        self.__dict__.update(
            _slots=slots, _run_ids=run_ids, _run_starts=run_starts, _boxes={}, _gt_orders=None
        )

    def _entry_ids(self) -> np.ndarray:
        """The id of every entry, rebuilt from the runs for a reader that
        needs them all; the scene does not keep it."""
        return self._run_ids.repeat(np.diff(self._run_starts))

    @classmethod
    def _of_entries(
        cls, width: int, height: int, instances: Sequence[InstanceRecord], slots: np.ndarray,
        ids: np.ndarray,
    ) -> "LayerStackScene":
        """The scene of these entries, as _keep takes them."""
        scene = object.__new__(cls)
        scene.__dict__.update(width=width, height=height, instances=instances)
        scene._check_head()
        scene._keep(slots, ids)
        return scene

    @classmethod
    def _from_cells(
        cls,
        width: int,
        height: int,
        instances: Sequence[InstanceRecord],
        pixels: Optional[np.ndarray],
        lengths: np.ndarray,
        ids: np.ndarray,
    ) -> "LayerStackScene":
        """The scene whose stacks hold the flat ids cell by cell, front to
        back, at the cells' pixel indices (None: a cell per pixel, in
        order). The cells must fit the frame and hold no id twice, and the
        ids must fit int32. Raises ValueError where the stacks are too big
        for numpy to shape, as it refuses such an array even with no planes."""
        depth = int(lengths.max(initial=0))
        if max(depth, 1) * height * width * 4 > _INTP_MAX:  # 4 bytes per int32 slot
            raise ValueError("the stacks are larger than the maximum possible array size")
        pixel = (np.arange(lengths.size) if pixels is None else pixels.astype(np.intp)).repeat(lengths)
        slots = _ranks(lengths) * (height * width) + pixel
        return cls._of_entries(width, height, instances, *_grouped(slots, ids.astype(np.int32)))

    @classmethod
    def from_layers(
        cls,
        width: int,
        height: int,
        layers: Sequence[tuple[InstanceRecord, BinaryMask]],
    ) -> "LayerStackScene":
        """Build a scene from (record, amodal mask) pairs ordered front to back.

        Each pixel's stack becomes the ids of the masks covering it, in the
        given order. Every instance appears once, so stacks cannot hold
        duplicates by construction.
        """

        def pixels(record: InstanceRecord, mask: BinaryMask) -> np.ndarray:
            if mask.width != width or mask.height != height:
                raise DimensionMismatchError(
                    f"mask for instance {record.id} is {mask.width}x{mask.height}, "
                    f"scene is {width}x{height}"
                )
            return np.flatnonzero(mask.bits)

        return cls._from_pixels(width, height, ((r, pixels(r, m)) for r, m in layers))

    @classmethod
    def _from_pixels(
        cls,
        width: int,
        height: int,
        layers: Iterable[tuple[InstanceRecord, np.ndarray]],
    ) -> "LayerStackScene":
        """The scene of (record, pixels) pairs ordered front to back, pixels
        being the ascending row-major indices of the record's amodal mask:
        what from_layers builds from the masks. Each record's box is taken
        from its pixels. Raises ValueError for an id listed twice, and for
        an id past int32 that some pixel holds."""
        records = []
        runs: list[tuple[int, np.ndarray]] = []  # (id, slots) of every instance a pixel holds
        boxes: dict[int, Optional[_Box]] = {}
        area = height * width
        count = np.zeros(area, dtype=np.intp)  # stack length so far: the depth of the next id
        for record, index in layers:
            if record.id in boxes:
                raise ValueError(f"duplicate instance id {record.id}")
            # an id that no pixel uses never enters the stacks, so it may exceed int32
            if record.id > _INT32_MAX and index.size:
                raise ValueError(f"instance id {record.id} does not fit the int32 stacks")
            boxes[record.id] = _pixel_box(index, width)
            records.append(record)
            if index.size:
                depth = count[index]
                count[index] = depth + 1
                runs.append((record.id, np.sort(depth * area + index)))  # depth by depth
        runs.sort(key=lambda run: run[0])
        slots = np.concatenate([np.empty(0, dtype=np.intp), *(s for _, s in runs)])
        ids = np.array([i for i, _ in runs], dtype=np.int32).repeat([s.size for _, s in runs])
        scene = cls._of_entries(width, height, tuple(records), slots, ids)
        scene._boxes.update(boxes)
        return scene

    def __getattr__(self, name: str):
        # reached only for names missing from the instance: stacks before its first build
        if name != "stacks":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        area = self.height * self.width
        depth = int(self._slots.max()) // area + 1 if self._slots.size else 0
        stacks = np.zeros((depth, self.height, self.width), dtype=np.int32)
        stacks.reshape(-1)[_index(self._slots)] = self._entry_ids()
        stacks.setflags(write=False)
        return self.__dict__.setdefault("stacks", stacks)

    def ids(self) -> tuple[int, ...]:
        return tuple(record.id for record in self.instances)

    def record_of(self, instance_id: int) -> InstanceRecord:
        for record in self.instances:
            if record.id == instance_id:
                return record
        raise UnknownInstanceError(f"instance {instance_id} is not part of the scene")

    def stack_at(self, x: int, y: int) -> tuple[int, ...]:
        """Front-to-back instance ids at one pixel (empty slots dropped)."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise IndexError(f"pixel ({x}, {y}) outside {self.width}x{self.height} scene")
        # the pixel's entries; their slots grow with depth
        here = self._slots % (self.height * self.width) == y * self.width + x
        return tuple(self._entry_ids()[here][self._slots[here].argsort()].tolist())

    def depth_counts(self) -> np.ndarray:
        """Per-pixel stack lengths as an (height, width) int32 grid."""
        area = self.height * self.width
        counts = np.bincount(self._slots % area, minlength=area).astype(np.int32)
        return counts.reshape(self.height, self.width)

    def max_depth(self) -> int:
        return int(self.depth_counts().max())

    def __eq__(self, other: object):
        if not isinstance(other, LayerStackScene):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.instances == other.instances
            and bool(np.array_equal(self._slots, other._slots))
            and bool(np.array_equal(self._run_ids, other._run_ids))
            and bool(np.array_equal(self._run_starts, other._run_starts))
        )

    __hash__ = None

    def __reduce__(self):
        return type(self)._of_entries, (
            self.width, self.height, self.instances, self._slots, self._entry_ids()
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(width={self.width}, height={self.height}, "
            f"ids={self.ids()}, entries={self._slots.size})"
        )


@dataclass(frozen=True)
class SceneViolation:
    """One violated scene invariant, with a witness pixel where one applies."""

    kind: str
    message: str
    pixel: Optional[tuple[int, int]] = None
    instance_id: Optional[int] = None


def validate_scene(scene: LayerStackScene) -> list[SceneViolation]:
    """Check LayerStackScene invariants. Violations are data, not exceptions.

    Detects: duplicate entries in the instance list, ids in stacks that the
    instance list lacks, non-positive ids in stacks, one id occurring twice in
    a single pixel stack, and empty slots sitting above occupied ones.

    Each stack defect is reported once per id, at a witness pixel. An
    unknown or non-positive id is reported at its first entry, planes first
    (the front-most plane holding it, then row-major), in ascending id
    order. A repeated id is reported at the first pixel, in row-major order,
    whose stack holds it twice, in the order of those pixels. Only the first
    gap is reported, planes first.

    Reads the entries, not the stacks: slots order entries planes first.
    """
    violations: list[SceneViolation] = []

    seen: set[int] = set()
    for record in scene.instances:
        if record.id in seen:
            message = f"instance id {record.id} listed more than once"
            violations.append(SceneViolation("duplicate_instance", message, None, record.id))
        seen.add(record.id)

    slots, width = scene._slots, scene.width
    area = scene.height * width
    pixels = slots % area

    # the first entry of each id's run is its first, planes first
    for uid, first in zip(scene._run_ids.tolist(), scene._run_starts.tolist()):
        if uid in seen:
            continue
        y, x = divmod(int(pixels[first]), width)
        if uid < 0:
            kind, message = "invalid_id", f"stack at ({x}, {y}) holds non-positive id {uid}"
        else:
            kind = "unknown_id"
            message = f"stack at ({x}, {y}) references id {uid} missing from the instance list"
        violations.append(SceneViolation(kind, message, (x, y), uid))

    # an id twice in one stack is an (id, pixel) pair twice: sort the pairs,
    # take each id at its first such pixel, and report in pixel order
    ids = scene._entry_ids()
    order = np.lexsort((pixels, ids))
    uids, where = ids[order], pixels[order]
    twice = (uids[1:] == uids[:-1]) & (where[1:] == where[:-1])
    uids, where = uids[1:][twice], where[1:][twice]
    firsts = np.flatnonzero(np.diff(uids, prepend=0))
    for k in firsts[np.lexsort((uids[firsts], where[firsts]))].tolist():
        uid, (y, x) = int(uids[k]), divmod(int(where[k]), width)
        message = f"id {uid} occurs twice in the stack at ({x}, {y})"
        violations.append(SceneViolation("duplicate_id_in_stack", message, (x, y), uid))

    # a gap is an empty slot right in front of an occupied one
    fronts = slots[slots >= area] - area
    gaps = fronts[~np.isin(fronts, slots, assume_unique=True)]
    if gaps.size:
        y, x = divmod(int(gaps.min()) % area, width)
        message = f"stack at ({x}, {y}) has an occupied slot below an empty one"
        violations.append(SceneViolation("gap_in_stack", message, (x, y)))

    return violations


def _instance_slots(scene: LayerStackScene, instance_id: int) -> tuple[Optional[_Box], np.ndarray]:
    """(box, slots) for a listed instance: its support box (None when no
    pixel holds it) and the slots of its entries, depth by depth from the
    front and row-major within a depth. The first read of an instance finds
    its box from those slots and keeps it. Raises UnknownInstanceError for
    an id the scene does not list."""
    scene.record_of(instance_id)
    slots = scene._slots[:0]  # a listed id past int32 is in no stack
    if instance_id <= _INT32_MAX:
        run = int(scene._run_ids.searchsorted(np.int32(instance_id)))  # in the ids' dtype
        if run < scene._run_ids.size and scene._run_ids[run] == instance_id:
            slots = scene._slots[scene._run_starts[run] : scene._run_starts[run + 1]]
    if instance_id not in scene._boxes:
        scene._boxes[instance_id] = _pixel_box(slots % (scene.height * scene.width), scene.width)
    return scene._boxes[instance_id], slots


def _instance_levels(
    scene: LayerStackScene, instance_id: int
) -> tuple[Optional[_Box], Optional[np.ndarray]]:
    """Support box of the instance and its levels on that box (LEVEL_ABSENT
    where it is missing), from its entries; (None, None) when no pixel holds
    the instance. The levels are a window of whole frame rows, so an
    entry's place in those rows is its slot less a constant per depth. The
    depths are written back to front, so where an id sits twice in one
    stack the front-most level wins."""
    box, slots = _instance_slots(scene, instance_id)
    if box is None:
        return None, None
    area, width = scene.height * scene.width, scene.width
    rows = np.empty((box[1] - box[0], width), dtype=np.int32)
    levels = rows[:, box[2] : box[3]]
    levels.fill(LEVEL_ABSENT)  # every entry lies in these columns, so the rest stays unread
    flat = rows.reshape(-1)
    end, depth = slots.size, int(slots[-1]) // area
    while end:
        start = _searched(slots, depth * area)
        flat[_index(slots[start:end] - (depth * area + box[0] * width))] = depth
        end, depth = start, depth - 1
    return box, levels


def _instance_masks(scene: LayerStackScene, instance_id: int) -> tuple[BinaryMask, BinaryMask]:
    """Amodal and visible mask of one instance, from its entries: the
    pixels of all of them, and of those at depth 0, whose slots are their
    pixels."""
    _, slots = _instance_slots(scene, instance_id)
    area = scene.height * scene.width
    amodal = np.zeros(area, dtype=bool)
    amodal[_index(slots % area)] = True
    visible = np.zeros(area, dtype=bool)
    visible[_index(slots[: _searched(slots, area)])] = True
    shape = (scene.height, scene.width)
    return BinaryMask._fresh(amodal.reshape(shape)), BinaryMask._fresh(visible.reshape(shape))


def amodal_mask_of(scene: LayerStackScene, instance_id: int) -> BinaryMask:
    """Pixels whose stack contains the instance at any depth."""
    return _instance_masks(scene, instance_id)[0]


def visible_mask_of(scene: LayerStackScene, instance_id: int) -> BinaryMask:
    """Pixels where the instance is the front-most stack entry."""
    return _instance_masks(scene, instance_id)[1]


@dataclass(frozen=True, eq=False)
class SemDistMap(_FrozenGrid):
    """Single-channel float32 grid encoding one instance.

    The fractional part of a value is an occurrence confidence in (0, 1); the
    non-positive integer part is minus the number of objects occluding the
    pixel, so every stored value is strictly below 1. Pixels outside the
    instance's amodal support hold 0: maps built by this package hold exactly
    +0.0 there, while maps read from files or built by hand may also hold
    -0.0.

    The support box is the smallest box around the values whose bit pattern
    is not +0.0, so a -0.0 counts as inside; outside it every value is +0.0.
    A map is its frame shape, its support box (_support_box, None when
    every value is +0.0) and the read-only crop of its values on that box
    (_crop, None without a box), all set when it is built: SemDistMap(values),
    which the file reader calls, finds the box on the frame and copies and
    checks only the crop. Library functions (decoding, pair work on the
    intersection of two boxes, shape checks, equality by shape, box and crop
    bits, pickling, repr and the file writer) read the crop alone. values is
    built only when a caller reads it, as +0.0 with the crop pasted in; the
    first frame stored is the one every later access returns, so threads
    racing to build it all get one read-only array.
    """

    values: np.ndarray

    _dtype = np.float32
    _noun = "map"

    @staticmethod
    def _check(values: np.ndarray) -> None:
        if not np.isfinite(values).all():
            raise ValueError("map values must be finite")
        if not (values < 1.0).all():
            raise ValueError("map values must be strictly below 1")

    def __post_init__(self) -> None:
        # outside the box every value is +0.0, so only the crop needs a check
        frame = self._shaped(np.asarray(self.__dict__.pop("values"), dtype=np.float32))
        box = _box_of(frame.view(np.uint32) != 0)
        self._hold(frame.shape, box, None if box is None else np.array(frame[_window(box)]))

    _fresh = None  # a map holds a box and crop, which the constructor and _from_crop set

    @classmethod
    def _from_crop(
        cls, shape: tuple[int, int], box: Optional[_Box], crop: Optional[np.ndarray]
    ) -> "SemDistMap":
        """Map on a frame of the given shape holding crop on box and +0.0
        elsewhere, without copying crop. box must be the support box of that
        frame (None with crop None: every value is +0.0)."""
        semdist = object.__new__(cls)
        semdist._hold(shape, box, crop)
        return semdist

    def _hold(self, shape: tuple[int, int], box: Optional[_Box], crop: Optional[np.ndarray]) -> None:
        """Keep shape, box and crop; only the crop is checked, then made read-only."""
        if crop is not None:
            self._check(crop)
            crop.setflags(write=False)
        self.__dict__.update(_shape=tuple(shape), _support_box=box, _crop=crop)

    def __getattr__(self, name: str):
        # reached only for names missing from the instance: values before its first build
        if name != "values":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        frame = _paste(self._shape, self._support_box, self._crop, np.float32(0.0))
        frame.setflags(write=False)
        return self.__dict__.setdefault("values", frame)

    def __eq__(self, other: object):
        if not isinstance(other, type(self)):
            return NotImplemented
        if (self._shape, self._support_box) != (other._shape, other._support_box):
            return False
        # by bits, so -0.0 != +0.0; values are finite
        return self._crop is None or bool(
            np.array_equal(self._crop.view(np.uint32), other._crop.view(np.uint32))
        )

    def __reduce__(self):
        return SemDistMap._from_crop, (self._shape, self._support_box, self._crop)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self._shape}, box={self._support_box})"


@dataclass(frozen=True, eq=False)
class LayeringMap(_FrozenGrid):
    """Stack of per-level occupancy grids with values in [0, 1].

    Channel k describes visibility level k. Ground-truth targets are exactly
    0/1; predicted maps may carry fractional confidences.
    """

    values: np.ndarray

    _dtype = np.float32
    _rank = 3
    _noun = "layering"

    @staticmethod
    def _check(values: np.ndarray) -> None:
        if not np.isfinite(values).all():
            raise ValueError("layering values must be finite")
        if ((values < 0.0) | (values > 1.0)).any():
            raise ValueError("layering values must lie in [0, 1]")

    @property
    def layer_count(self) -> int:
        return self.values.shape[0]

    def channel(self, k: int) -> np.ndarray:
        if not (0 <= k < self.layer_count):
            raise IndexError(f"channel {k} outside 0..{self.layer_count - 1}")
        return self.values[k]

    def is_binary(self) -> bool:
        return bool(((self.values == 0.0) | (self.values == 1.0)).all())


_RATE_TOLERANCE = 1e-9  # stored occlusion_rate must agree with the mask areas


@dataclass(frozen=True)
class InstanceAnnotation:
    """I/O-facing record of one instance: masks, occlusion rate, score, label."""

    id: int
    amodal: BinaryMask
    visible: BinaryMask
    occlusion_rate: float
    score: float = 1.0
    category: Optional[str] = None

    def __post_init__(self) -> None:
        _check_instance_id(self.id)
        self.amodal.require_same_shape(self.visible)
        if not self.visible.is_subset_of(self.amodal):
            raise ValueError(f"visible mask of instance {self.id} leaves its amodal mask")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must lie in [0, 1], got {self.score}")
        if not (0.0 <= self.occlusion_rate <= 1.0):
            raise ValueError(f"occlusion_rate must lie in [0, 1], got {self.occlusion_rate}")
        area = self.amodal.area()
        if area > 0:
            expected = 1.0 - self.visible.area() / area
            if abs(expected - self.occlusion_rate) > _RATE_TOLERANCE:
                raise ValueError(
                    f"occlusion_rate {self.occlusion_rate} disagrees with mask areas "
                    f"(expected {expected})"
                )

    @classmethod
    def from_masks(
        cls,
        instance_id: int,
        amodal: BinaryMask,
        visible: BinaryMask,
        score: float = 1.0,
        category: Optional[str] = None,
    ) -> "InstanceAnnotation":
        """Build an annotation, deriving occlusion_rate from the two masks."""
        if not isinstance(amodal, BinaryMask):
            amodal = BinaryMask(amodal)
        if not isinstance(visible, BinaryMask):
            visible = BinaryMask(visible)
        area = amodal.area()
        if area == 0:
            raise ValueError(f"instance {instance_id} has an empty amodal mask")
        rate = 1.0 - visible.area() / area
        return cls(
            id=instance_id,
            amodal=amodal,
            visible=visible,
            occlusion_rate=rate,
            score=score,
            category=category,
        )

    __hash__ = None
