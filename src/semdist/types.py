"""Core value types for layered occlusion scenes and their invariants.

Everything here is an immutable value: numpy payloads are copied on
construction and marked read-only, so instances are safe to share across
threads and to use as fixture data. Every grid comes in through its
constructor's checks of shape and values; SemDistMap._from_crop is the one
entry that takes an array (a map's crop) without copying it, and it checks
that crop as the constructor does. A map holds its frame shape, support box
and crop from construction, and a scene holds its occupied stack entries and
the support box of each listed instance from construction.
Library functions read only entries and crops: a scene's dense stacks and a
map's full frame (LayerStackScene.stacks, SemDistMap.values) are built only
when a caller reads them, and then kept. A scene also keeps the gt depth
order for the last threshold and gt confidence the scene was scored at.
All caches are deterministic functions of the value (and of that key) and
never change what it means, so threads that race to fill them fill in equal
data.

This module alone knows how scenes and maps sit in memory. A scene's dense
stacks are a (depth, height, width) int32 array whose plane k holds each
pixel's (k + 1)-th id from the front, 0 past the end of its stack. The scene
itself holds only the occupied slots of that array: a slot is the flat index
depth * height * width + y * width + x, and each occupied slot holds an id.
Sorted, one id's slots fall into few runs of consecutive values, mostly one
per row stretch of the instance at one depth, so the scene keeps, for each
id, the runs of its sorted slots: a start slot and a length per run
(_starts, _lengths, both intp), with the runs sorted by id and then by
start and every run as long as it can be. The ids are kept once each
(_ids, ascending), with where each one's runs begin (_id_runs). A run takes
16 bytes, and a default 64x64 scene holds about 12 entries per run and a
default 640x480 one about 85, a small fraction of the 4 bytes per entry of
an int32 slot array. The worst case is a scene in which no two slots of one
id are consecutive: one run per entry, so 16 bytes per entry, four times
such an array.

A reader expands the runs it needs back into slots with _expanded, one
numpy pass with no loop over runs: an instance's runs give its slots depth
by depth from the front and row-major within a depth, and all runs give
every entry sorted by id and then by slot. The few readers that need an id
per entry rebuild one from the run table and drop it. Other modules read
slots only through _instance_slots and _front_pixels. Builders never sort
slots: each hands its entries, in its own order, to _entry_runs (the public
constructor directly, the others through LayerStackScene._of_entries),
which cuts them into pieces of one id and consecutive slots for _run_table
to sort and join.

Cells are the occupied (or all) row-major pixel indices, their stack
lengths and all their ids front to back in one flat array: the scene
readers hand their raw cells to LayerStackScene._from_cells, the one check
of which cells make a scene, and the writers take them from _scene_cells.
Every crop on a support box becomes a full frame through _paste.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
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
    marked read-only; its shape is kept as _shape. The constructor is the
    only way in (SemDistMap adds _from_crop, which checks too), so every
    grid has passed these checks. Grids compare equal only to grids of the
    same type with the same shape and values; float32 values compare by bit
    pattern, so -0.0 and +0.0 differ, as they do in a map's support box and
    file.
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
    firsts = (lengths.cumsum() - lengths).repeat(lengths)
    return np.arange(firsts.size) - firsts


def _expanded(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The slots of intp runs, run after run: start, start + 1, ... for
    each run's length. Each slot is its place in the output plus its run's
    start less the place where the run begins there."""
    shift = lengths.cumsum()
    shift -= lengths
    np.subtract(starts, shift, out=shift)
    slots = shift.repeat(lengths)
    slots += np.arange(slots.size, dtype=slots.dtype)
    return slots


def _run_table(
    ids: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ids, id runs, starts, lengths) of the runs that pieces of distinct
    slots, given in any order as their id, start slot and length, make:
    the pieces are sorted by id and then by start, a piece that goes on
    where the one before it of its id ends joins it, and the distinct ids
    come in ascending order, with where each one's runs begin and the run
    count after the last (id runs)."""
    order = np.lexsort((starts, ids))
    ids, starts, lengths = ids[order], starts[order], lengths[order]
    join = starts[1:] == starts[:-1] + lengths[:-1]
    join &= ids[1:] == ids[:-1]
    if join.any():
        heads = np.flatnonzero(np.concatenate(([True], ~join)))
        ids, starts, lengths = ids[heads], starts[heads], np.add.reduceat(lengths, heads)
    first = np.ones(ids.size + 1, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=first[1:-1])
    id_runs = np.flatnonzero(first)
    return ids[id_runs[:-1]], id_runs, starts, lengths


def _entry_runs(
    slots: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The _run_table of entries given as distinct integer slots and their
    ids, in any order: the entries are cut, in the order given, into pieces
    of one id in which every slot is one past the one before."""
    head = np.ones(slots.size + 1, dtype=bool)
    np.not_equal(slots[1:], slots[:-1] + 1, out=head[1:-1])
    head[1:-1] |= ids[1:] != ids[:-1]
    bounds = np.flatnonzero(head)
    heads = bounds[:-1]
    return _run_table(ids[heads], slots[heads], bounds[1:] - heads)


def _stacks_fit(depth: int, area: int) -> bool:
    """Whether numpy can shape int32 stacks of this depth on a frame of this
    area, on Python ints: it refuses too big a shape even with no planes."""
    return max(depth, 1) * area * 4 <= _INTP_MAX  # 4 bytes per int32 slot


def _run_boxes(
    width: int, height: int, id_runs: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> list[_Box]:
    """The support box of each id of a run table on this frame, in the
    ids' order, from one pass over the runs: a run inside one row gives
    that row and its columns, a run over a row end every column of its
    rows, and a run that goes on into the next plane the whole frame."""
    if not starts.size:
        return []
    area = height * width
    first = starts % area
    last = first + lengths - 1  # area or more where the run goes on into the next plane
    y0, y1 = first // width, last // width + 1
    x0, x1 = first % width, last % width + 1
    wide = y1 - y0 > 1
    x0[wide], x1[wide] = 0, width
    deep = last >= area
    y0[deep], y1[deep] = 0, height
    heads = id_runs[:-1]
    return list(zip(*(
        reduce.reduceat(bound, heads).tolist()
        for reduce, bound in ((np.minimum, y0), (np.maximum, y1), (np.minimum, x0), (np.maximum, x1))
    )))


def _scene_cells(scene: "LayerStackScene", dense: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cells of the scene's stacks: the occupied pixels in order, or every
    pixel when dense, their stack lengths and their ids front to back, with
    empty slots dropped."""
    area = scene.height * scene.width
    depth, pixel = np.divmod(scene._entry_slots(), area)
    # slots are distinct, so so are the keys: pixel by pixel, front to back
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

    A scene holds only the occupied slots of its stacks, and those as
    runs: for each id, the runs of consecutive values among its sorted
    slots, a start slot and a length each, 16 bytes per run, and one (id,
    first run) pair per id (see the module docstring). Most runs hold many
    slots; a scene in which no two slots of one id are consecutive holds 16
    bytes per entry. It keeps no array it is given.
    Library functions read the runs alone: from_layers, generate and the
    scene readers hand their entries to _of_entries, which cuts them into
    runs, and per-instance reads, stack_at,
    depth_counts, validate_scene, compositor.render, equality, pickling,
    repr and the scene writers read them, expanding into slots only the
    runs they need. stacks is built from the runs only when a caller reads
    it, read-only, and the first array stored is the one every later access
    returns, so threads racing to build it all get one array.

    The scene also carries the support box of each listed instance in
    _boxes, a read-only mapping from id to the smallest box around the
    pixels whose stack holds the id, or None when no pixel does. Every
    builder finds them all with the run table, in one pass over the runs
    (see _keep), so reads never write them. The boxes take no part in
    equality.

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
        del self.__dict__["stacks"]  # built again from the runs on first access
        self._keep(*_entry_runs(slots, flat[slots]))

    def _check_head(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"scene must be at least 1x1, got {self.width}x{self.height}")
        instances = tuple(self.instances)
        for record in instances:
            if not isinstance(record, InstanceRecord):
                raise ValueError(f"instances must be InstanceRecord, got {record!r}")
        self.__dict__["instances"] = instances

    def _keep(
        self, ids: np.ndarray, id_runs: np.ndarray, starts: np.ndarray, lengths: np.ndarray
    ) -> None:
        """Hold the run table of _run_table, _ids (int32, ascending),
        _id_runs (so id k's runs are those from _id_runs[k] up to
        _id_runs[k + 1]) and each run's start slot and length (_starts,
        _lengths), the last three as intp, and the box of every listed id
        in _boxes, as a tuple of Python ints, or None for an id that no
        pixel holds. The kept arrays and _boxes are read-only."""
        table = (
            ids.astype(np.int32, copy=False),
            id_runs.astype(np.intp, copy=False),
            starts.astype(np.intp, copy=False),
            lengths.astype(np.intp, copy=False),
        )
        for array in table:
            array.setflags(write=False)
        self.__dict__.update(zip(("_ids", "_id_runs", "_starts", "_lengths"), table))
        held = dict(zip(table[0].tolist(), _run_boxes(self.width, self.height, *table[1:])))
        boxes = {record.id: held.get(record.id) for record in self.instances}
        self.__dict__.update(_boxes=MappingProxyType(boxes), _gt_orders=None)

    def _entry_slots(self) -> np.ndarray:
        """The slot of every entry, sorted by id and then by slot, expanded
        from the runs for a reader that needs them all; the scene does not
        keep them."""
        return _expanded(self._starts, self._lengths)

    def _entry_ids(self) -> np.ndarray:
        """The id of every entry, in the order of _entry_slots, rebuilt
        from the run table for a reader that needs them all; the scene does
        not keep it."""
        return self._ids.repeat(np.diff(self._id_runs)).repeat(self._lengths)

    @classmethod
    def _of_runs(
        cls, width: int, height: int, instances: Sequence[InstanceRecord], ids: np.ndarray,
        id_runs: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
    ) -> "LayerStackScene":
        """The scene of a run table as _run_table gives it, with its head
        fields checked; pickles call it with the table a scene holds."""
        scene = object.__new__(cls)
        scene.__dict__.update(width=width, height=height, instances=instances)
        scene._check_head()
        scene._keep(ids, id_runs, starts, lengths)
        return scene

    @classmethod
    def _of_entries(
        cls, width: int, height: int, instances: Sequence[InstanceRecord], slots: np.ndarray,
        ids: np.ndarray,
    ) -> "LayerStackScene":
        """The scene of these entries, distinct slots and an id for each,
        in any order: the last step of from_layers, generate and the scene
        readers, and what pickles of earlier layouts call."""
        return cls._of_runs(width, height, instances, *_entry_runs(slots, ids))

    @classmethod
    def _from_cells(
        cls,
        width: int,
        height: int,
        instances: Sequence[InstanceRecord],
        pixels: Optional[np.ndarray],
        lengths: np.ndarray,
        ids: np.ndarray,
    ) -> Optional["LayerStackScene"]:
        """The scene whose stacks hold the flat int64 ids cell by cell,
        front to back, at the cells' pixel indices (None: a cell per pixel,
        in order), as both scene readers parse them, or None where the cells
        make no scene: an id not listed or past int32, an id twice in one
        cell, stacks too big for any array (_stacks_fit) or, for sparse
        cells, an empty cell or a pixel outside the frame. Both readers
        give distinct non-negative pixels, which it does not check. This is
        the one check of reader cells, and it never raises: the
        text reader takes None as a cue for scene_from_dict, whose walk over
        the cells exists to name the defect.

        One stable sort by id puts each id's entries in cell order, so an
        id twice in a cell sits next to its twin, and the entries go to
        _of_entries in that order: each id's fall into pieces of consecutive
        slots, few where the cells come in pixel order, as they do from the
        writers up to the string order of keys of different lengths."""
        area = height * width
        if pixels is not None and pixels.size:
            if not lengths.all() or int(pixels.max()) >= area:
                return None
        # listed ids are positive, so an id equal to its nearest listed id is in range
        names = np.array(sorted(r.id for r in instances if r.id <= _INT32_MAX), dtype=np.int64)
        which = names.searchsorted(ids)
        if (ids.size and not names.size) or (names.take(which, mode="clip") != ids).any():
            return None
        cells = np.arange(lengths.size) if pixels is None else pixels.astype(np.intp, copy=False)
        pixel = cells.repeat(lengths)
        # a stable sort of keys of 16 bits or less is a radix sort
        order = which.astype(np.min_scalar_type(names.size)).argsort(kind="stable")
        which, pixel = which[order], pixel[order]
        if ((which[1:] == which[:-1]) & (pixel[1:] == pixel[:-1])).any():
            return None
        if not _stacks_fit(int(lengths.max(initial=0)), area):
            return None
        slots = _ranks(lengths)[order] * area + pixel
        return cls._of_entries(width, height, instances, slots, names[which])

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
        what from_layers builds from the masks. Raises ValueError for an id
        listed twice, and for an id past int32 that some pixel holds.

        In pixel order, a record's slots (its depth at a pixel times the
        frame area, plus the pixel) go up by one along each row stretch at
        one depth, so they fall into few pieces; all records' slots go to
        _of_entries record after record, never sorted."""
        records: dict[int, InstanceRecord] = {}
        held: list[int] = []  # every id a pixel holds, with its slots below
        slots: list[np.ndarray] = []
        area = height * width
        count = np.zeros(area, dtype=np.intp)  # stack length so far: the depth of the next id
        for record, index in layers:
            if record.id in records:
                raise ValueError(f"duplicate instance id {record.id}")
            # an id that no pixel uses never enters the stacks, so it may exceed int32
            if record.id > _INT32_MAX and index.size:
                raise ValueError(f"instance id {record.id} does not fit the int32 stacks")
            records[record.id] = record
            if index.size:
                depth = count[index]
                count[index] = depth + 1
                held.append(record.id)
                slots.append(depth * area + index)
        ids = np.array(held, dtype=np.int32).repeat([piece.size for piece in slots])
        slots = np.concatenate([np.empty(0, dtype=np.intp), *slots])
        return cls._of_entries(width, height, tuple(records.values()), slots, ids)

    def __getattr__(self, name: str):
        # reached only for names missing from the instance: stacks before its first build
        if name != "stacks":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        area = self.height * self.width
        depth = (int((self._starts + self._lengths).max(initial=0)) + area - 1) // area
        stacks = np.zeros((depth, self.height, self.width), dtype=np.int32)
        stacks.reshape(-1)[self._entry_slots()] = self._entry_ids()
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
        # the pixel's slot in each plane, front to back, against every run;
        # a slot lies in one run at most
        area = self.height * self.width
        ends = self._starts + self._lengths
        depth = (int(ends.max(initial=0)) + area - 1) // area
        slots = np.arange(0, depth * area, area)[:, None] + (y * self.width + x)
        _, runs = ((self._starts <= slots) & (slots < ends)).nonzero()
        return tuple(self._ids.repeat(np.diff(self._id_runs))[runs].tolist())

    def depth_counts(self) -> np.ndarray:
        """Per-pixel stack lengths as an (height, width) int32 grid."""
        area = self.height * self.width
        counts = np.bincount(self._entry_slots() % area, minlength=area).astype(np.int32)
        return counts.reshape(self.height, self.width)

    def max_depth(self) -> int:
        return int(self.depth_counts().max())

    def __eq__(self, other: object):
        # every builder keeps the runs maximal and sorted by id and then by
        # start, so equal entries make equal run tables
        if not isinstance(other, LayerStackScene):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.instances == other.instances
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("_ids", "_id_runs", "_starts", "_lengths")
            )
        )

    __hash__ = None

    def __reduce__(self):
        return type(self)._of_runs, (
            self.width, self.height, self.instances,
            self._ids, self._id_runs, self._starts, self._lengths,
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(width={self.width}, height={self.height}, "
            f"ids={self.ids()}, entries={int(self._lengths.sum())})"
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

    slots, width = scene._entry_slots(), scene.width
    area = scene.height * width
    pixels = slots % area

    # the start of each id's first run is its first slot, planes first
    firsts = scene._starts[scene._id_runs[:-1]] % area
    for uid, first in zip(scene._ids.tolist(), firsts.tolist()):
        if uid in seen:
            continue
        y, x = divmod(first, width)
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
    front and row-major within a depth. Raises UnknownInstanceError for an
    id the scene does not list."""
    if instance_id not in scene._boxes:  # the boxes are those of the listed ids
        scene.record_of(instance_id)
    box, runs = scene._boxes[instance_id], slice(0)
    if box is not None:  # some stack holds the id, so it fits int32
        k = int(scene._ids.searchsorted(np.int32(instance_id)))  # in the ids' dtype
        runs = slice(scene._id_runs[k], scene._id_runs[k + 1])
    return box, _expanded(scene._starts[runs], scene._lengths[runs])


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
        start = int(slots.searchsorted(depth * area))
        flat[slots[start:end] - (depth * area + box[0] * width)] = depth
        end, depth = start, depth - 1
    return box, levels


def _front_pixels(scene: LayerStackScene, slots: np.ndarray) -> np.ndarray:
    """The pixels where an instance is front-most, from its slots as
    _instance_slots gives them: the leading depth-0 slots, which are pixels."""
    return slots[: int(slots.searchsorted(scene.height * scene.width))]


def _instance_masks(scene: LayerStackScene, instance_id: int) -> tuple[BinaryMask, BinaryMask]:
    """Amodal and visible mask of one instance, from its entries: the
    pixels of all of them, and its _front_pixels."""
    _, slots = _instance_slots(scene, instance_id)
    area = scene.height * scene.width
    amodal = np.zeros(area, dtype=bool)
    amodal[slots % area] = True
    visible = np.zeros(area, dtype=bool)
    visible[_front_pixels(scene, slots)] = True
    shape = (scene.height, scene.width)
    return BinaryMask(amodal.reshape(shape)), BinaryMask(visible.reshape(shape))


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
    checks only the crop, and _from_crop, which the encoders, perturbation
    and pickles call, keeps a crop without a copy and checks it all the
    same, so every map has passed the check. Library functions (decoding,
    pair work on the intersection of two boxes, shape checks, equality by
    shape, box and crop bits, pickling, repr and the file writer) read the
    crop alone. values is built only when a caller reads it, as +0.0 with
    the crop pasted in; the first frame stored is the one every later
    access returns, so threads racing to build it all get one read-only
    array.
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

    @classmethod
    def _from_crop(cls, shape: tuple[int, int], box: Optional[_Box], crop: Optional[np.ndarray]):
        """Map on a frame of the given shape holding crop on box and +0.0
        elsewhere. box must be the support box of that frame (None with crop
        None: every value is +0.0). The one entry that takes a crop without
        copying it, so crop must be a float32 array no one else holds; it
        is still checked as the constructor checks its crop."""
        semdist = object.__new__(cls)
        semdist._hold(shape, box, crop)
        return semdist

    def _hold(self, shape: tuple[int, int], box: Optional[_Box], crop: Optional[np.ndarray]) -> None:
        """Keep shape, box and crop, the last step of every way a map is
        built; the crop is checked, then made read-only."""
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
