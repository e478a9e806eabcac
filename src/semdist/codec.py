"""Sem-dist map codec: encoding, modal/amodal decoding, and depth ordering.

A sem-dist value packs two things into one float: its fractional part is the
occurrence confidence of the instance at that pixel, and its integer part is
minus the visibility level (how many objects sit in front). Level 0 means
directly visible, so values in [0, 1) mark the modal region, negative values
mark occluded amodal pixels, and exactly 0 marks background.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np
from scipy import ndimage

from .types import (
    LEVEL_ABSENT,
    BinaryMask,
    DimensionMismatchError,
    LayeringMap,
    LayerStackScene,
    SemDistError,
    SemDistMap,
)
from .types import _FrozenGrid

__all__ = [
    "DEFAULT_CONFIDENCE",
    "DEFAULT_THRESHOLD",
    "EMISSION_FLOOR",
    "ConfidencePolicy",
    "LayerCountError",
    "OrderVerdict",
    "OrderRegions",
    "RelativeOrderMap",
    "visibility_levels",
    "encode_semdist",
    "encode_scene",
    "decode_modal",
    "decode_amodal",
    "decode_levels",
    "overlap_region",
    "relative_order",
    "object_order",
    "order_regions",
    "global_layering_target",
    "instance_layering_target",
    "semdist_from_layering",
]

DEFAULT_CONFIDENCE = 0.95
"""Ground-truth occurrence confidence. Keep it above any threshold in use."""

DEFAULT_THRESHOLD = 0.5
"""Confidence threshold for decoding and overlap tests."""

EMISSION_FLOOR = 0.5
"""Minimum winning channel value for a layering pixel to emit a sem-dist value."""


class LayerCountError(SemDistError):
    """A layering map was requested with fewer channels than the scene needs."""

    def __init__(self, required: int, requested: int):
        self.required = required
        self.requested = requested
        super().__init__(
            f"layer count {requested} is too small, the scene needs {required} channels"
        )


@dataclass(frozen=True, eq=False)
class ConfidencePolicy:
    """Source of the occurrence confidence written into sem-dist values.

    Either a single constant in (0, 1) exclusive, or a per-pixel grid of such
    values. 0 stays reserved for pixels outside amodal support, and 1 is
    excluded so the integer and fractional parts never blur together.
    """

    constant: float = DEFAULT_CONFIDENCE
    grid_values: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.grid_values is None:
            value = float(self.constant)
            # validate the float32 image of the constant, that is what gets stored
            if not (0.0 < float(np.float32(value)) < 1.0):
                raise ValueError(
                    f"constant confidence must lie strictly inside (0, 1), got {value}"
                )
            object.__setattr__(self, "constant", value)
        else:
            grid = np.array(self.grid_values, dtype=np.float32)
            if grid.ndim != 2:
                raise ValueError(f"confidence grid must be 2-D, got {grid.ndim}-D")
            if not ((grid > 0.0) & (grid < 1.0)).all():
                raise ValueError("per-pixel confidences must lie strictly inside (0, 1)")
            grid.setflags(write=False)
            object.__setattr__(self, "grid_values", grid)

    @property
    def mode(self) -> str:
        return "constant" if self.grid_values is None else "map"

    def grid(self, height: int, width: int) -> np.ndarray:
        """Confidence values as a float32 (height, width) grid."""
        if self.grid_values is None:
            return np.full((height, width), np.float32(self.constant), dtype=np.float32)
        if self.grid_values.shape != (height, width):
            raise DimensionMismatchError(
                f"confidence grid is {self.grid_values.shape[1]}x{self.grid_values.shape[0]}, "
                f"target is {width}x{height}"
            )
        return self.grid_values


PolicyLike = Union[ConfidencePolicy, float]


def _as_policy(policy: PolicyLike) -> ConfidencePolicy:
    if isinstance(policy, ConfidencePolicy):
        return policy
    return ConfidencePolicy(constant=float(policy))


def visibility_levels(scene: LayerStackScene, instance_id: int) -> np.ndarray:
    """Stack index of the instance per pixel; LEVEL_ABSENT where it is missing.

    The index equals the number of objects that must be removed before the
    instance becomes visible at that pixel (0 = already visible).
    """
    scene.record_of(instance_id)
    levels = np.full((scene.height, scene.width), LEVEL_ABSENT, dtype=np.int32)
    # back to front, so the front-most level wins
    for depth in reversed(range(scene.stacks.shape[0])):
        levels[scene.stacks[depth] == instance_id] = depth
    return levels


def encode_semdist(
    scene: LayerStackScene,
    instance_id: int,
    policy: PolicyLike = DEFAULT_CONFIDENCE,
) -> SemDistMap:
    """Encode one instance: confidence minus visibility level inside its
    amodal support, exactly 0 outside."""
    policy = _as_policy(policy)
    levels = visibility_levels(scene, instance_id)
    return _semdist_from_levels(levels, policy.grid(scene.height, scene.width))


def encode_scene(
    scene: LayerStackScene, policy: PolicyLike = DEFAULT_CONFIDENCE
) -> dict[int, SemDistMap]:
    """Encode each instance; keys follow scene.ids(), and each map equals
    encode_semdist(scene, id, policy)."""
    confidence = _as_policy(policy).grid(scene.height, scene.width)
    return {
        instance_id: _semdist_from_levels(visibility_levels(scene, instance_id), confidence)
        for instance_id in scene.ids()
    }


def _semdist_from_levels(levels: np.ndarray, confidence: np.ndarray) -> SemDistMap:
    """Confidence minus level where the level is set, exactly 0 elsewhere."""
    values = np.where(
        levels != LEVEL_ABSENT,
        confidence - levels.astype(np.float32),
        np.float32(0.0),
    )
    return SemDistMap(values)


def decode_modal(semdist: SemDistMap) -> np.ndarray:
    """Confidence heatmap of the directly visible region.

    Values already in [0, 1) pass through; occluded (negative) pixels and
    background become 0.
    """
    values = semdist.values
    return np.where((values >= 0.0) & (values < 1.0), values, np.float32(0.0))


def decode_amodal(semdist: SemDistMap) -> np.ndarray:
    """Confidence heatmap of the full amodal region: the fractional part."""
    values = semdist.values
    return values - np.floor(values)


def decode_levels(
    semdist: SemDistMap, confidence_threshold: float = DEFAULT_THRESHOLD
) -> np.ndarray:
    """Recover integer visibility levels where amodal confidence clears the
    threshold; LEVEL_ABSENT elsewhere."""
    _check_threshold(confidence_threshold)
    values = semdist.values
    fractional = values - np.floor(values)
    levels = (-np.floor(values)).astype(np.int32)
    return np.where(fractional >= confidence_threshold, levels, np.int32(LEVEL_ABSENT))


def _check_threshold(c: float) -> None:
    if not (0.0 < c < 1.0):
        raise ValueError(f"confidence threshold must lie strictly inside (0, 1), got {c}")


_Window = tuple[slice, slice]


def _pair_overlap(
    map_a: SemDistMap, map_b: SemDistMap, c: float
) -> Optional[tuple[_Window, np.ndarray]]:
    """Intersection of the two maps' support boxes and, on that window only,
    the pixels where both amodal confidences jointly clear c:
    frac_a * frac_b > c^2. None when the boxes are disjoint.

    Outside its box a map holds only 0 or -0.0, whose fractional part is 0,
    so no overlap pixel lies outside the window.
    """
    map_a.require_same_shape(map_b)
    _check_threshold(c)
    box_a, box_b = map_a._support_box, map_b._support_box
    if box_a is None or box_b is None:
        return None
    y0, x0 = max(box_a[0], box_b[0]), max(box_a[2], box_b[2])
    y1, x1 = min(box_a[1], box_b[1]), min(box_a[3], box_b[3])
    if y0 >= y1 or x0 >= x1:
        return None
    window = (slice(y0, y1), slice(x0, x1))
    a, b = map_a.values[window], map_b.values[window]
    joint = (a - np.floor(a)) * (b - np.floor(b))
    return window, joint > np.float64(c) * np.float64(c)


def _votes(
    map_a: SemDistMap, map_b: SemDistMap, window: _Window, omega: np.ndarray
) -> np.ndarray:
    """floor(A) - floor(B) on the window where omega holds, 0 elsewhere."""
    diff = (np.floor(map_a.values[window]) - np.floor(map_b.values[window])).astype(np.int32)
    return np.where(omega, diff, np.int32(0))


def overlap_region(
    map_a: SemDistMap, map_b: SemDistMap, c: float = DEFAULT_THRESHOLD
) -> BinaryMask:
    """Pixels where both amodal confidences jointly clear c: frac_a * frac_b > c^2."""
    bits = np.zeros(map_a.values.shape, dtype=bool)
    pair = _pair_overlap(map_a, map_b, c)
    if pair is not None:
        window, omega = pair
        bits[window] = omega
    return BinaryMask(bits)


@dataclass(frozen=True, eq=False)
class RelativeOrderMap(_FrozenGrid):
    """Integer grid of per-pixel depth votes between two instances.

    Positive values mean the first instance is closer to the camera at that
    pixel, negative the second; 0 marks pixels outside the joint overlap.
    """

    values: np.ndarray

    _dtype = np.int32
    _noun = "order"


def relative_order(
    map_a: SemDistMap, map_b: SemDistMap, c: float = DEFAULT_THRESHOLD
) -> RelativeOrderMap:
    """Per-pixel difference of integer parts, floor(A) - floor(B), inside the
    joint overlap region; 0 outside."""
    votes = np.zeros(map_a.values.shape, dtype=np.int32)
    pair = _pair_overlap(map_a, map_b, c)
    if pair is not None:
        window, omega = pair
        votes[window] = _votes(map_a, map_b, window, omega)
    return RelativeOrderMap(votes)


class OrderVerdict(Enum):
    """Object-level depth relation between two instances."""

    A_IN_FRONT = "A_in_front"
    B_IN_FRONT = "B_in_front"
    AMBIGUOUS = "ambiguous"
    DISJOINT = "disjoint"


@dataclass(frozen=True)
class OrderRegions:
    """Region evidence behind an object-level depth verdict."""

    verdict: OrderVerdict
    overlap_area: int
    largest_front_region: int
    largest_behind_region: int


_FOUR_CONNECTED = np.array(
    [[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool
)  # 4-connectivity: no diagonal adjacency


def _largest_component(mask: np.ndarray) -> int:
    if not mask.any():
        return 0
    labels, count = ndimage.label(mask, structure=_FOUR_CONNECTED)
    return int(np.bincount(labels.ravel())[1:].max())


def order_regions(
    map_a: SemDistMap, map_b: SemDistMap, c: float = DEFAULT_THRESHOLD
) -> OrderRegions:
    """Object-level depth verdict together with the vote region areas.

    The per-pixel votes inside the overlap are grouped into 4-connected
    components per sign; the sign of the largest component wins. An exact
    area tie (including the all-zero-votes case) is ambiguous; an empty
    overlap region means the instances are disjoint. The work is done on the
    intersection of the two maps' support boxes, so a pair whose boxes are
    disjoint returns DISJOINT without reading its pixels.
    """
    pair = _pair_overlap(map_a, map_b, c)
    if pair is None or not pair[1].any():
        return OrderRegions(OrderVerdict.DISJOINT, 0, 0, 0)
    window, omega = pair
    # components of masks that are empty outside the window are the same on the window
    votes = _votes(map_a, map_b, window, omega)
    front = _largest_component(votes > 0)
    behind = _largest_component(votes < 0)
    if front == behind:
        verdict = OrderVerdict.AMBIGUOUS
    elif front > behind:
        verdict = OrderVerdict.A_IN_FRONT
    else:
        verdict = OrderVerdict.B_IN_FRONT
    return OrderRegions(verdict, int(omega.sum()), front, behind)


def object_order(
    map_a: SemDistMap, map_b: SemDistMap, c: float = DEFAULT_THRESHOLD
) -> OrderVerdict:
    """Object-level depth verdict: sign of the largest same-sign vote region."""
    return order_regions(map_a, map_b, c).verdict


def global_layering_target(scene: LayerStackScene, layer_count: int) -> LayeringMap:
    """Binary channels marking, per level k, pixels whose stacks reach past k.

    Channel k is 1 where more than k objects overlap, so channels are nested:
    each is a subset of the previous one.
    """
    if layer_count < 1:
        raise ValueError(f"layer count must be at least 1, got {layer_count}")
    counts = scene.depth_counts()
    required = int(counts.max())
    if layer_count < required:
        raise LayerCountError(required=required, requested=layer_count)
    channels = counts[None, :, :] > np.arange(layer_count, dtype=np.int32)[:, None, None]
    return LayeringMap(channels.astype(np.float32))


def instance_layering_target(
    scene: LayerStackScene, instance_id: int, layer_count: int
) -> LayeringMap:
    """One-hot per-level channels for a single instance.

    Channel k is 1 exactly where the instance sits at visibility level k, so
    the channels sum to the instance's amodal mask.
    """
    if layer_count < 1:
        raise ValueError(f"layer count must be at least 1, got {layer_count}")
    levels = visibility_levels(scene, instance_id)
    present = levels != LEVEL_ABSENT
    required = int(levels[present].max()) + 1 if present.any() else 1
    if layer_count < required:
        raise LayerCountError(required=required, requested=layer_count)
    channels = levels[None, :, :] == np.arange(layer_count, dtype=np.int32)[:, None, None]
    return LayeringMap(channels.astype(np.float32))


def semdist_from_layering(
    layering: LayeringMap, policy: PolicyLike = DEFAULT_CONFIDENCE
) -> SemDistMap:
    """Collapse per-level channels back into a sem-dist map.

    Per pixel the strongest channel wins, ties going to the lowest level. A
    pixel emits confidence minus winning level only when the winning value
    reaches EMISSION_FLOOR; the confidence is the winning value capped by the
    policy, which keeps values below 1 and makes binary targets reproduce
    encode_semdist bit for bit.
    """
    policy = _as_policy(policy)
    stacked = layering.values
    winner = np.argmax(stacked, axis=0)
    winning = np.take_along_axis(stacked, winner[None, :, :], axis=0)[0]
    confidence = np.minimum(winning, policy.grid(layering.height, layering.width))
    return _semdist_from_levels(
        np.where(winning >= EMISSION_FLOOR, winner, LEVEL_ABSENT), confidence
    )
