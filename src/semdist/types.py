"""Core value types for layered occlusion scenes and their invariants.

Everything here is an immutable value: numpy payloads are copied on
construction and marked read-only, so instances are safe to share across
threads and to use as fixture data. Three private caches fill on first use
and never change what a value means: a map the library has just built holds
only its crop on its support box and builds its full frame on first access,
a scene keeps each instance's support box once a read has found it, and a
scene keeps its gt depth order for the last threshold and gt confidence it
was scored at. All are deterministic functions of the value (and of that
key), so threads that race to fill them fill in equal data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Optional, Sequence

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

_INT32_MAX = int(np.iinfo(np.int32).max)  # stacks are int32


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


def _local(window: tuple[slice, slice], box: _Box) -> tuple[slice, slice]:
    """A frame window inside box, in the coordinates of an array of the box."""
    ys, xs = window
    return slice(ys.start - box[0], ys.stop - box[0]), slice(xs.start - box[2], xs.stop - box[2])


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
        grid = np.array(getattr(self, self._field), dtype=self._dtype)
        if grid.ndim != self._rank:
            raise ValueError(f"{self._noun} grid must be {self._rank}-D, got {grid.ndim}-D")
        if 0 in grid.shape:
            raise ValueError(f"{self._noun} grid has a 0-length axis: shape {grid.shape}")
        self._check(grid)
        grid.setflags(write=False)
        object.__setattr__(self, self._field, grid)
        object.__setattr__(self, "_shape", grid.shape)

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


@dataclass(frozen=True, eq=False)
class LayerStackScene:
    """Per-pixel front-to-back stacks of instance ids.

    ``stacks`` has shape (depth, height, width); the front-most entry sits at
    depth index 0 and 0 marks an empty slot. Trailing all-empty depth planes
    are trimmed on construction so equal scenes hold equal arrays.

    The scene also carries the support boxes of its instances in _boxes:
    the smallest box around the pixels whose stack holds an id, or None when
    no pixel does. from_layers knows every box from its masks. In any other
    scene, the first read of an instance compares all of the stacks, as it
    must to find the instance, and keeps the box it finds; every later read
    compares the stacks on that box only. The boxes take no part in
    equality. Threads that read one instance at once find the same box.

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
        if self.width < 1 or self.height < 1:
            raise ValueError(f"scene must be at least 1x1, got {self.width}x{self.height}")
        instances = tuple(self.instances)
        for record in instances:
            if not isinstance(record, InstanceRecord):
                raise ValueError(f"instances must be InstanceRecord, got {record!r}")
        stacks = np.array(self.stacks, dtype=np.int32)
        if stacks.ndim != 3 or stacks.shape[1:] != (self.height, self.width):
            raise ValueError(
                f"stacks must have shape (depth, {self.height}, {self.width}), "
                f"got {stacks.shape}"
            )
        occupied = np.flatnonzero(stacks.any(axis=(1, 2)))
        depth = int(occupied[-1]) + 1 if occupied.size else 0
        stacks = np.ascontiguousarray(stacks[:depth])
        stacks.setflags(write=False)
        object.__setattr__(self, "instances", instances)
        object.__setattr__(self, "stacks", stacks)
        object.__setattr__(self, "_boxes", {})
        object.__setattr__(self, "_gt_orders", None)

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
        records = []
        seen: set[int] = set()
        for record, mask in layers:
            if record.id in seen:
                raise ValueError(f"duplicate instance id {record.id}")
            seen.add(record.id)
            if mask.width != width or mask.height != height:
                raise DimensionMismatchError(
                    f"mask for instance {record.id} is {mask.width}x{mask.height}, "
                    f"scene is {width}x{height}"
                )
            # an id that no pixel uses never enters the stacks, so it may exceed int32
            if record.id > _INT32_MAX and mask.bits.any():
                raise ValueError(f"instance id {record.id} does not fit the int32 stacks")
            records.append(record)
        boxes = {record.id: _box_of(mask.bits) for record, mask in layers}
        cover = np.zeros((height, width), dtype=np.int32)
        for _, mask in layers:
            cover += mask.bits
        depth = int(cover.max()) if records else 0
        stacks = np.zeros((depth, height, width), dtype=np.int32)
        fill = np.zeros((height, width), dtype=np.intp)
        for record, mask in layers:
            ys, xs = np.nonzero(mask.bits)
            if ys.size == 0:
                continue
            stacks[fill[ys, xs], ys, xs] = record.id
            fill[ys, xs] += 1
        scene = cls(width, height, tuple(records), stacks)
        scene._boxes.update(boxes)
        return scene

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
        column = self.stacks[:, y, x]
        return tuple(int(v) for v in column[column != 0])

    def depth_counts(self) -> np.ndarray:
        """Per-pixel stack lengths as an (height, width) int32 grid."""
        return (self.stacks != 0).sum(axis=0, dtype=np.int32)

    def max_depth(self) -> int:
        return int(self.depth_counts().max())

    def __eq__(self, other: object):
        if not isinstance(other, LayerStackScene):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.instances == other.instances
            and self.stacks.shape == other.stacks.shape
            and bool(np.array_equal(self.stacks, other.stacks))
        )

    __hash__ = None


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
    """
    violations: list[SceneViolation] = []

    seen: set[int] = set()
    for record in scene.instances:
        if record.id in seen:
            violations.append(
                SceneViolation(
                    kind="duplicate_instance",
                    message=f"instance id {record.id} listed more than once",
                    instance_id=record.id,
                )
            )
        seen.add(record.id)

    stacks = scene.stacks
    if stacks.size == 0:
        return violations

    known = set(scene.ids())
    for uid in np.unique(stacks):
        uid = int(uid)
        if uid == 0:
            continue
        plane, y, x = (int(v) for v in np.argwhere(stacks == uid)[0])
        if uid < 0:
            violations.append(
                SceneViolation(
                    kind="invalid_id",
                    message=f"stack at ({x}, {y}) holds non-positive id {uid}",
                    pixel=(x, y),
                    instance_id=uid,
                )
            )
        elif uid not in known:
            violations.append(
                SceneViolation(
                    kind="unknown_id",
                    message=f"stack at ({x}, {y}) references id {uid} "
                    "missing from the instance list",
                    pixel=(x, y),
                    instance_id=uid,
                )
            )

    # duplicate id inside one pixel stack: sort the depth axis and compare neighbours
    if stacks.shape[0] > 1:
        ordered = np.sort(stacks, axis=0)
        dup = (ordered[1:] == ordered[:-1]) & (ordered[1:] != 0)
        reported: set[int] = set()
        for y, x in np.argwhere(dup.any(axis=0)):
            column = stacks[:, y, x]
            values, counts = np.unique(column[column != 0], return_counts=True)
            for uid in values[counts > 1]:
                uid = int(uid)
                if uid in reported:
                    continue
                reported.add(uid)
                violations.append(
                    SceneViolation(
                        kind="duplicate_id_in_stack",
                        message=f"id {uid} occurs twice in the stack at ({int(x)}, {int(y)})",
                        pixel=(int(x), int(y)),
                        instance_id=uid,
                    )
                )

    if stacks.shape[0] > 1:
        gaps = (stacks[:-1] == 0) & (stacks[1:] != 0)
        if gaps.any():
            _, y, x = (int(v) for v in np.argwhere(gaps)[0])
            violations.append(
                SceneViolation(
                    kind="gap_in_stack",
                    message=f"stack at ({x}, {y}) has an occupied slot below an empty one",
                    pixel=(x, y),
                )
            )

    return violations


def _instance_hits(
    scene: LayerStackScene, instance_id: int
) -> tuple[Optional[_Box], Optional[np.ndarray], Optional[_Box]]:
    """(box, hits, hits_box) for a listed instance: its support box, and the
    (depth, rows, cols) grid of where the stacks hold it on hits_box, a
    frame box around the support box. Only the read that finds the support
    box compares all of the stacks, so its hits_box is the whole frame;
    later reads compare the support box alone. box is None when no pixel
    holds the instance, and then hits may be None too. Raises
    UnknownInstanceError for an id the scene does not list."""
    scene.record_of(instance_id)
    if instance_id not in scene._boxes:
        hits = scene.stacks == instance_id
        box = scene._boxes[instance_id] = _box_of(np.logical_or.reduce(hits, axis=0))
        return box, hits, (0, scene.height, 0, scene.width)
    box = scene._boxes[instance_id]
    if box is None:
        return None, None, None
    return box, scene.stacks[(slice(None), *_window(box))] == instance_id, box


def _instance_masks(scene: LayerStackScene, instance_id: int) -> tuple[BinaryMask, BinaryMask]:
    """Amodal and visible mask of one instance, from one compare of the
    stacks."""
    box, hits, hits_box = _instance_hits(scene, instance_id)
    amodal = np.zeros((scene.height, scene.width), dtype=bool)
    visible = np.zeros((scene.height, scene.width), dtype=bool)
    if box is not None:
        window = _window(hits_box)
        amodal[window] = np.logical_or.reduce(hits, axis=0)
        visible[window] = hits[0]
    return BinaryMask._fresh(amodal), BinaryMask._fresh(visible)


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
    A map is its frame shape, its support box and the read-only crop of its
    values on that box; per-map work (decoding, and pair work on the
    intersection of two boxes) reads the crop only. values is a cache: a
    map built from a full frame keeps that frame, finds its box on first
    use and crops a view of the frame; a map the library builds holds the
    box and crop alone, and builds values on first access as +0.0 with the
    crop pasted in. The first frame stored is the one every later access
    returns, so threads racing to build it all get one read-only array;
    racing box finds compute equal boxes. Shape checks, equality (shape,
    box and crop bits) and pickling never build a frame.
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

    @cached_property
    def _support_box(self) -> Optional[_Box]:
        """Support box, or None when every value is +0.0; found on first use
        for a map built from a frame."""
        return _box_of(self.values.view(np.uint32) != 0)

    @cached_property
    def _crop(self) -> Optional[np.ndarray]:
        """Read-only values on the support box, None without one; a view of
        the frame for a map built from a frame."""
        box = self._support_box
        return None if box is None else self.values[_window(box)]

    @classmethod
    def _from_crop(
        cls, shape: tuple[int, int], box: Optional[_Box], crop: Optional[np.ndarray]
    ) -> "SemDistMap":
        """Map on a frame of the given shape holding crop on box and +0.0
        elsewhere, without copying crop. box must be the support box of that
        frame (None with crop None: every value is +0.0); only the crop is
        checked, and it is made read-only."""
        if crop is not None:
            cls._check(crop)
            crop.setflags(write=False)
        semdist = object.__new__(cls)
        semdist.__dict__.update(_shape=tuple(shape), _support_box=box, _crop=crop)
        return semdist

    def __getattr__(self, name: str):
        # reached only for names missing from the instance: values before its first build
        if name != "values":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        frame = np.zeros(self._shape, dtype=np.float32)
        if self._support_box is not None:
            frame[_window(self._support_box)] = self._crop
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
