"""Core value types for layered occlusion scenes and their invariants.

Everything here is an immutable value: numpy payloads are copied on
construction (a map the library has just built keeps its fresh frame) and
marked read-only, so instances are safe to share across threads and to use
as fixture data.
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


class _FrozenGrid:
    """Read-only numpy grid held in one dataclass field.

    A subclass names its payload field and declares the dtype, rank and a
    noun for messages; _check adds its own value checks. The payload is
    copied to the dtype, must have the rank and no 0-length axis, and is
    marked read-only. Grids compare equal only to grids of the same type
    with the same shape and values; float32 values compare by bit pattern,
    so -0.0 and +0.0 differ, as they do in a map's support box and file.
    """

    _field: ClassVar[str] = "values"
    _dtype: ClassVar[type]
    _rank: ClassVar[int] = 2
    _noun: ClassVar[str]
    _grid: np.ndarray  # the payload, under one name for the shared methods

    def __post_init__(self) -> None:
        grid = np.array(getattr(self, self._field), dtype=self._dtype)
        if grid.ndim != self._rank:
            raise ValueError(f"{self._noun} grid must be {self._rank}-D, got {grid.ndim}-D")
        if 0 in grid.shape:
            raise ValueError(f"{self._noun} grid has a 0-length axis: shape {grid.shape}")
        self._check(grid)
        grid.setflags(write=False)
        object.__setattr__(self, self._field, grid)
        object.__setattr__(self, "_grid", grid)

    @staticmethod
    def _check(grid: np.ndarray) -> None:
        """Raise ValueError on values the type does not allow."""

    @property
    def width(self) -> int:
        return self._grid.shape[-1]

    @property
    def height(self) -> int:
        return self._grid.shape[-2]

    def require_same_shape(self, other: "_FrozenGrid") -> None:
        if self._grid.shape != other._grid.shape:
            raise DimensionMismatchError(
                f"{self._noun} dimensions differ: {self.width}x{self.height} "
                f"vs {other.width}x{other.height}"
            )

    def __eq__(self, other: object):
        if not isinstance(other, type(self)):
            return NotImplemented
        mine, theirs = self._grid, other._grid
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
        return int(self.bits.sum())

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
        return cls(width, height, tuple(records), stacks)

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


def amodal_mask_of(scene: LayerStackScene, instance_id: int) -> BinaryMask:
    """Pixels whose stack contains the instance at any depth."""
    scene.record_of(instance_id)
    return BinaryMask((scene.stacks == instance_id).any(axis=0))


def visible_mask_of(scene: LayerStackScene, instance_id: int) -> BinaryMask:
    """Pixels where the instance is the front-most stack entry."""
    scene.record_of(instance_id)
    if scene.stacks.shape[0] == 0:
        return BinaryMask.zeros(scene.width, scene.height)
    return BinaryMask(scene.stacks[0] == instance_id)


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
    Per-map work (decoding, and pair work on the intersection of two boxes)
    runs on the box only.
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

    @classmethod
    def _built(cls, values: np.ndarray, box: Optional[_Box]) -> "SemDistMap":
        """Wrap a freshly built float32 frame without copying it.

        The frame must hold +0.0 outside box and box must be its support box;
        only the box is checked, and the box is cached as given.
        """
        if box is not None:
            cls._check(values[_window(box)])
        values.setflags(write=False)
        semdist = object.__new__(cls)
        object.__setattr__(semdist, "values", values)
        object.__setattr__(semdist, "_grid", values)
        semdist.__dict__["_support_box"] = box
        return semdist

    @cached_property
    def _support_box(self) -> Optional[_Box]:
        """Support box, or None when every value is +0.0. Cached, which holds
        because values is a read-only private array."""
        return _box_of(self.values.view(np.uint32) != 0)


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
