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
from itertools import combinations
from typing import Optional, Union

import numpy as np

from .types import (
    LEVEL_ABSENT,
    BinaryMask,
    DimensionMismatchError,
    LayeringMap,
    LayerStackScene,
    SemDistError,
    SemDistMap,
)
from .types import _Box, _FrozenGrid, _box_of, _instance_levels, _local, _paste, _window

__all__ = [
    "DEFAULT_CONFIDENCE",
    "DEFAULT_THRESHOLD",
    "EMISSION_FLOOR",
    "ConfidencePolicy",
    "ConfidencePrecisionError",
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


class ConfidencePrecisionError(SemDistError):
    """A confidence does not survive float32 rounding at its visibility level.

    confidence - level rounded to a value whose integer part is not -level,
    or whose fraction is 0, so decoding would lose the pixel or its level.
    """

    def __init__(self, pixel: tuple[int, int], level: int, confidence: float):
        self.pixel = pixel
        self.level = level
        self.confidence = confidence
        x, y = pixel
        super().__init__(
            f"confidence {np.float32(confidence)!s} at level {level} does not survive "
            f"float32 rounding at pixel ({x}, {y})"
        )


def _require_exact(
    values: np.ndarray,
    integer: np.ndarray,
    confidence: Union[np.ndarray, np.float32],
    where: np.ndarray,
    origin: tuple[int, int],
) -> None:
    """Raise ConfidencePrecisionError at the first pixel of where whose value
    does not lie strictly between integer (minus the level) and integer + 1.

    The grids cover one window whose top-left pixel is origin = (y0, x0);
    integer is float32 and confidence a float32 scalar or grid.
    """
    lost = where & ((np.floor(values) != integer) | (values == integer))
    if lost.any():
        y, x = np.argwhere(lost)[0]
        conf = confidence[y, x] if np.ndim(confidence) else confidence
        raise ConfidencePrecisionError(
            (int(origin[1] + x), int(origin[0] + y)), -int(integer[y, x]), float(conf)
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


def _confidence(policy: PolicyLike, height: int, width: int) -> Union[np.ndarray, np.float32]:
    """The policy's confidence: a float32 scalar for a constant, else its grid
    checked against the frame."""
    if not isinstance(policy, ConfidencePolicy):
        policy = ConfidencePolicy(constant=float(policy))
    if policy.grid_values is None:
        return np.float32(policy.constant)
    return policy.grid(height, width)


def visibility_levels(scene: LayerStackScene, instance_id: int) -> np.ndarray:
    """Stack index of the instance per pixel; LEVEL_ABSENT where it is missing.

    The index equals the number of objects that must be removed before the
    instance becomes visible at that pixel (0 = already visible).
    """
    shape = (scene.height, scene.width)
    return _paste(shape, *_instance_levels(scene, instance_id), np.int32(LEVEL_ABSENT))


def encode_semdist(
    scene: LayerStackScene,
    instance_id: int,
    policy: PolicyLike = DEFAULT_CONFIDENCE,
) -> SemDistMap:
    """Encode one instance: confidence minus visibility level inside its
    amodal support, exactly 0 outside.

    Raises ConfidencePrecisionError where the float32 value would not decode
    back to the level.
    """
    shape = (scene.height, scene.width)
    confidence = _confidence(policy, *shape)
    return _semdist_from_levels(shape, *_instance_levels(scene, instance_id), confidence)


def encode_scene(
    scene: LayerStackScene, policy: PolicyLike = DEFAULT_CONFIDENCE
) -> dict[int, SemDistMap]:
    """Encode each instance; keys follow scene.ids(), and each map equals
    encode_semdist(scene, id, policy)."""
    shape = (scene.height, scene.width)
    confidence = _confidence(policy, *shape)
    return {
        instance_id: _semdist_from_levels(
            shape, *_instance_levels(scene, instance_id), confidence
        )
        for instance_id in scene.ids()
    }


def _semdist_from_levels(
    shape: tuple[int, int],
    box: Optional[_Box],
    levels: Optional[np.ndarray],
    confidence: Union[np.ndarray, np.float32],
) -> SemDistMap:
    """Confidence minus level where the level is set, exactly +0.0 elsewhere.

    levels covers box, the box of the set levels (None: none is set), and
    confidence is a float32 scalar or a grid of the given shape. Only the
    box is computed and checked, and the map holds nothing else.

    Raises ConfidencePrecisionError where a value would not decode back to
    its level, naming the pixel in frame coordinates.
    """
    if box is None:
        return SemDistMap._from_crop(shape, None, None)
    if np.ndim(confidence):
        confidence = confidence[_window(box)]
    present = levels != LEVEL_ABSENT
    integer = -levels.astype(np.float32)
    crop = np.zeros(levels.shape, dtype=np.float32)
    # confidence + (-level) has the same bits as confidence - level
    np.add(confidence, integer, out=crop, where=present)
    _require_exact(crop, integer, confidence, present, (box[0], box[2]))
    return SemDistMap._from_crop(shape, box, crop)


# outside its support box a map holds +0.0, which each decoder maps to its fill


def decode_modal(semdist: SemDistMap) -> np.ndarray:
    """Confidence heatmap of the directly visible region.

    Values already in [0, 1) pass through; occluded (negative) pixels and
    background become 0.
    """
    modal = values = semdist._crop
    if values is not None:
        modal = np.where(values >= 0.0, values, np.float32(0.0))
    return _paste(semdist._shape, semdist._support_box, modal, np.float32(0.0))


def decode_amodal(semdist: SemDistMap) -> np.ndarray:
    """Confidence heatmap of the full amodal region: the fractional part."""
    amodal = values = semdist._crop
    if values is not None:
        amodal = values - np.floor(values)
    return _paste(semdist._shape, semdist._support_box, amodal, np.float32(0.0))


def decode_levels(
    semdist: SemDistMap, confidence_threshold: float = DEFAULT_THRESHOLD
) -> np.ndarray:
    """Recover integer visibility levels where amodal confidence clears the
    threshold; LEVEL_ABSENT elsewhere."""
    _check_threshold(confidence_threshold)
    levels = values = semdist._crop
    if values is not None:
        floor = np.floor(values)
        kept = (values - floor) >= confidence_threshold
        # only kept pixels reach the cast: a value without fraction may not fit int32
        levels = np.where(kept, -floor, np.float32(LEVEL_ABSENT)).astype(np.int32)
    return _paste(semdist._shape, semdist._support_box, levels, np.int32(LEVEL_ABSENT))


def _check_threshold(c: float) -> None:
    if not (0.0 < c < 1.0):
        raise ValueError(f"confidence threshold must lie strictly inside (0, 1), got {c}")


_Pair = tuple[_Box, np.ndarray, np.ndarray, np.ndarray]


def _pair(map_a: SemDistMap, map_b: SemDistMap, c: float) -> Optional[_Pair]:
    """The pair step, after checking that the maps share a frame and that c
    is valid: the intersection of the two support boxes, the values of a
    and of b on it, and their joint overlap there,
    frac_a * frac_b > c^2 with a float32 product and a float64 threshold.
    None when the boxes are disjoint.

    Outside its box a map holds only +0.0, whose fractional part is 0, so no
    pixel of a pair's overlap lies outside the intersection.
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
    box = y0, y1, x0, x1
    va, vb = map_a._crop[_local(box, box_a)], map_b._crop[_local(box, box_b)]
    joint = (va - np.floor(va)) * (vb - np.floor(vb))
    return box, va, vb, joint > np.float64(c) * np.float64(c)


def _votes(a: np.ndarray, b: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """floor(a) - floor(b) where omega holds, 0 elsewhere."""
    diff = np.floor(a) - np.floor(b)
    # only omega reaches the cast: a value without fraction may not fit int32
    return np.where(omega, diff, np.float32(0.0)).astype(np.int32)


def overlap_region(
    map_a: SemDistMap, map_b: SemDistMap, c: float = DEFAULT_THRESHOLD
) -> BinaryMask:
    """Pixels where both amodal confidences jointly clear c: frac_a * frac_b > c^2."""
    pair = _pair(map_a, map_b, c)
    box, omega = (None, None) if pair is None else (pair[0], pair[3])
    return BinaryMask._fresh(_paste(map_a._shape, box, omega, np.False_))


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
    pair = _pair(map_a, map_b, c)
    box, votes = (None, None) if pair is None else (pair[0], _votes(*pair[1:]))
    return RelativeOrderMap._fresh(_paste(map_a._shape, box, votes, np.int32(0)))


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


def _largest_component(mask: np.ndarray) -> int:
    """Area of the largest 4-connected component of a 2-D bool mask (0 when
    the mask is empty), by run-based labelling.

    Each row's runs of True come from one pass over a flat copy with a False
    column after every row, so no run crosses a row end. Two runs are joined
    when they sit in adjacent rows and share a column; the runs of the row
    above that a run touches lie between two searchsorted bounds. A
    union-find over the runs, whose roots are always the smaller run index,
    then sums run lengths per component. The work grows with the number of
    runs and of touching run pairs, not with the pixels: a blobby mask such
    as a vote region is a few runs per row, but a noise-like mask (a 256x256
    mask of i.i.d. pixels, about 16k runs) costs several milliseconds.
    """
    if not mask.any():
        return 0
    height, width = mask.shape
    stride = width + 1
    flat = np.zeros(height * stride + 1, dtype=bool)  # flat[0] is False, as is every row's last
    flat[1:].reshape(height, stride)[:, :width] = mask
    edges = np.flatnonzero(flat[1:] != flat[:-1])
    starts, stops = edges[0::2], edges[1::2]  # [start, stop) of each run in the padded rows
    # the runs of the row above that overlap a run's columns
    low = np.searchsorted(stops, starts - stride, side="right")
    count = np.searchsorted(starts, stops - stride) - low
    below = np.arange(starts.size).repeat(count)
    above = np.arange(below.size) - (count.cumsum() - count - low).repeat(count)
    parent = list(range(starts.size))
    for a, b in zip(below.tolist(), above.tolist()):
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a > b:
            parent[a] = b
        elif b > a:
            parent[b] = a
    for run, up in enumerate(parent):  # up < run, so parent[up] is a root already
        parent[run] = parent[up]
    return int(np.bincount(parent, weights=stops - starts).max())


def _verdict(front: int, behind: int) -> OrderVerdict:
    """The verdict of the largest front and behind vote regions: the larger
    wins, and an exact tie (0 against 0 too) is ambiguous."""
    if front == behind:
        return OrderVerdict.AMBIGUOUS
    return OrderVerdict.A_IN_FRONT if front > behind else OrderVerdict.B_IN_FRONT


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
    return _regions(_pair(map_a, map_b, c))


def _signs(pair: Optional[_Pair]) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(front votes, behind votes, overlap) masks of one pair step's result
    on its box; None when the overlap is empty."""
    if pair is None or not pair[3].any():
        return None
    _, values_a, values_b, omega = pair
    # components of masks that are empty outside the box are the same on the box
    votes = _votes(values_a, values_b, omega)
    return votes > 0, votes < 0, omega


def _regions(pair: Optional[_Pair]) -> OrderRegions:
    """The verdict and region areas of one pair step's result."""
    signs = _signs(pair)
    if signs is None:
        return OrderRegions(OrderVerdict.DISJOINT, 0, 0, 0)
    front_votes, behind_votes, omega = signs
    front = _largest_component(front_votes)
    behind = _largest_component(behind_votes)
    return OrderRegions(_verdict(front, behind), int(omega.sum()), front, behind)


def _pair_verdict(pair: Optional[_Pair]) -> OrderVerdict:
    """The verdict of _regions(pair) alone. Regions are labelled only when
    both vote signs are present: with one sign, any region of it beats the
    empty other side, and with no signed vote the two sides tie at 0."""
    signs = _signs(pair)
    if signs is None:
        return OrderVerdict.DISJOINT
    front_votes, behind_votes, _ = signs
    front, behind = bool(front_votes.any()), bool(behind_votes.any())
    if front and behind:
        return _verdict(_largest_component(front_votes), _largest_component(behind_votes))
    return _verdict(front, behind)


def object_order(
    map_a: SemDistMap, map_b: SemDistMap, c: float = DEFAULT_THRESHOLD
) -> OrderVerdict:
    """Object-level depth verdict: sign of the largest same-sign vote region,
    as order_regions gives it. The vote regions are labelled only when both
    signs are present."""
    return _pair_verdict(_pair(map_a, map_b, c))


def _gt_order(
    scene: LayerStackScene, c: float, gt_confidence: float
) -> tuple[tuple[int, int, OrderVerdict], ...]:
    """(id_a, id_b, verdict) for each pair of instances, ids ascending, whose
    amodal masks meet. The gt maps are those of encode_scene(scene,
    gt_confidence), which hold only their box crops, so no full frame is
    built; the walk raises exactly where that encode raises.

    The scene keeps the triples of the last (c, gt_confidence) it was asked
    for, keyed by their float values, so scoring a scene again at the same
    threshold walks nothing. A walk that raises stores nothing."""
    key = float(c), float(gt_confidence)
    cached = scene._gt_orders
    if cached is not None and cached[0] == key:
        return cached[1]
    gt = encode_scene(scene, gt_confidence)
    order = []
    for id_a, id_b in combinations(sorted(gt), 2):
        pair = _pair(gt[id_a], gt[id_b], c)
        # a gt value is confidence minus level, so it is 0 exactly outside the amodal mask
        if pair is not None and ((pair[1] != 0.0) & (pair[2] != 0.0)).any():
            order.append((id_a, id_b, _pair_verdict(pair)))
    order = tuple(order)
    # one attribute store, so a racing thread sees the old entry or this one, never a mix
    object.__setattr__(scene, "_gt_orders", (key, order))
    return order


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
    cap = _confidence(policy, layering.height, layering.width)
    stacked = layering.values
    winner = np.argmax(stacked, axis=0)
    winning = np.take_along_axis(stacked, winner[None, :, :], axis=0)[0]
    emitted = winning >= EMISSION_FLOOR
    box = _box_of(emitted)
    levels = None
    if box is not None:
        window = _window(box)
        levels = np.where(emitted[window], winner[window], LEVEL_ABSENT).astype(np.int32)
    shape = (layering.height, layering.width)
    return _semdist_from_levels(shape, box, levels, np.minimum(winning, cap))
