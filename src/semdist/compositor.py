"""Deterministic synthetic occlusion scenes, rendering, and degradation.

Scenes are produced from a seeded PCG64 stream, so equal configs give
bit-identical scenes. Shapes are filled convex primitives rasterized by
pixel-center inclusion on their own box, a window of the frame around the
shape's bounds, and placed back to front; a placement that would hide an
already placed object completely is discarded and redrawn. The checks and
the placement read and write the candidate's box alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil, floor, isqrt
from typing import Sequence

import numpy as np

from .codec import DEFAULT_THRESHOLD
from .codec import _pair, _require_exact
from .types import (
    BinaryMask,
    InstanceAnnotation,
    InstanceRecord,
    LayerStackScene,
    SemDistError,
    SemDistMap,
)
from .types import _instance_masks, _instance_slots, _local, _searched

__all__ = [
    "SHAPES",
    "GenConfig",
    "PerturbConfig",
    "GenerationError",
    "ZeroAreaError",
    "generate",
    "render",
    "instance_color",
    "occlusion_rate",
    "scene_annotations",
    "perturb",
    "perturb_semdist",
]

SHAPES = ("ellipse", "rectangle", "triangle")


class GenerationError(SemDistError):
    """Scene generation exhausted its retry budget."""


class ZeroAreaError(SemDistError):
    """An instance with an empty amodal mask has no occlusion rate."""


@dataclass(frozen=True)
class GenConfig:
    """Parameters for the synthetic scene generator."""

    seed: int = 0
    width: int = 64
    height: int = 64
    object_count_range: tuple[int, int] = (3, 6)
    shape_set: tuple[str, ...] = SHAPES
    size_range: tuple[float, float] = (0.2, 0.55)
    max_levels: int = 8

    def __post_init__(self) -> None:
        if self.width < 2 or self.height < 2:
            raise ValueError(f"scene must be at least 2x2, got {self.width}x{self.height}")
        lo, hi = self.object_count_range
        if lo < 1 or hi < lo:
            raise ValueError(f"bad object count range {self.object_count_range}")
        shapes = tuple(sorted(set(self.shape_set)))
        if not shapes:
            raise ValueError("shape set must not be empty")
        for kind in shapes:
            if kind not in SHAPES:
                raise ValueError(f"unknown shape kind {kind!r}, pick from {SHAPES}")
        object.__setattr__(self, "shape_set", shapes)
        slo, shi = self.size_range
        if not (0.0 < slo <= shi <= 1.0):
            raise ValueError(f"size range must satisfy 0 < lo <= hi <= 1, got {self.size_range}")
        if self.max_levels < 1:
            raise ValueError(f"max_levels must be at least 1, got {self.max_levels}")


@dataclass(frozen=True)
class PerturbConfig:
    """Parameters for degrading ground truth into imperfect predictions."""

    erode_radius: int = 0
    dilate_radius: int = 0
    drop_occluded_prob: float = 0.0
    level_flip_prob: float = 0.0
    score_noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.erode_radius < 0 or self.dilate_radius < 0:
            raise ValueError("morphology radii must be non-negative")
        for name in ("drop_occluded_prob", "level_flip_prob"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if not (self.score_noise >= 0.0):  # NaN fails this too
            raise ValueError(f"score_noise must be non-negative, got {self.score_noise}")


def _rng(seed: int) -> np.random.Generator:
    # PCG64 is the one documented stream; see the README reproducibility note
    return np.random.Generator(np.random.PCG64(seed))


def _pixel_centers(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    xs = np.arange(width, dtype=np.float64) + 0.5
    ys = np.arange(height, dtype=np.float64)[:, None] + 0.5
    return xs, ys


def _span(lo: float, hi: float, size: int) -> slice:
    """The pixels k of a frame axis this long whose centres k + 0.5 can meet
    [lo, hi], with one pixel of margin on each side, clipped to the axis.
    A centre outside the span lies more than a pixel outside [lo, hi]."""
    start = min(max(ceil(lo - 0.5) - 1, 0), size)
    return slice(start, max(min(floor(hi - 0.5) + 2, size), start))


def _sample_shape(
    rng: np.random.Generator, config: GenConfig
) -> tuple[str, tuple[slice, slice], np.ndarray]:
    """Draw one shape kind, its box (a window of the frame) and its
    pixel-center rasterization on that box (may be empty).

    The box holds the pixels whose centres can meet the shape's bounds (the
    rectangle's half-sides, the ellipse's axes, the triangle's vertex box)
    plus a pixel of margin, clipped to the frame. The mask is the
    full-frame expression on the box's slice of the pixel-centre grids, so
    each pixel gets the same bit, and the margin keeps every pixel the
    frame would set: rounding moves a centre's test by far less than a
    pixel, except in a triangle so thin that its edge tests round to any
    sign, which is rasterized on the whole frame (see _thin).
    """
    kind = config.shape_set[int(rng.integers(len(config.shape_set)))]
    side = min(config.width, config.height)
    cx = rng.uniform(0.0, config.width)
    cy = rng.uniform(0.0, config.height)
    size = rng.uniform(config.size_range[0], config.size_range[1]) * side
    if kind == "triangle":
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=3))
        radii = rng.uniform(0.5, 1.0, size=3) * 0.5 * size
        vx = cx + radii * np.cos(angles)
        vy = cy + radii * np.sin(angles)
        if _thin(vx, vy, config.width, config.height):
            bounds = (0.0, config.width), (0.0, config.height)  # the whole frame
        else:
            bounds = (vx.min(), vx.max()), (vy.min(), vy.max())
    else:
        half_x = 0.5 * size * rng.uniform(0.6, 1.0)
        half_y = 0.5 * size * rng.uniform(0.6, 1.0)
        bounds = (cx - half_x, cx + half_x), (cy - half_y, cy + half_y)
    box = _span(*bounds[1], config.height), _span(*bounds[0], config.width)
    xs, ys = _pixel_centers(config.width, config.height)
    xs, ys = xs[box[1]], ys[box[0]]
    if kind == "rectangle":
        mask = (np.abs(xs - cx) <= half_x) & (np.abs(ys - cy) <= half_y)
    elif kind == "ellipse":
        # a size near 0 makes a term overflow to inf or divide 0 by 0 to
        # nan, and either fails the test, as the pixel lies outside
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            mask = ((xs - cx) / half_x) ** 2 + ((ys - cy) / half_y) ** 2 <= 1.0
    else:
        mask = _fill_triangle(xs, ys, vx, vy)
    return kind, box, mask


def _thin(vx: np.ndarray, vy: np.ndarray, width: int, height: int) -> bool:
    """Whether _fill_triangle may set a frame pixel more than a pixel
    outside the triangle's vertex box.

    For a centre that far out, some edge's exact cross product is below
    -|area2| / (2 * extent), extent being the vertex box's longer side, and
    each computed cross product is off by at most about 8 * 2**-53 * extent
    * reach, reach bounding a centre's distance to a vertex on either axis.
    So no such centre passes all three tests unless |area2| is within
    2**-49 * extent**2 * reach of zero; this bound is 2**9 times wider. Such
    a triangle is a sliver: its edge tests round to any sign along its line,
    and the frame can set pixels far past its vertices."""
    extent = max(vx.max() - vx.min(), vy.max() - vy.min())
    reach = max(vx.max(), width - vx.min(), vy.max(), height - vy.min())
    area2 = (vx[1] - vx[0]) * (vy[2] - vy[0]) - (vy[1] - vy[0]) * (vx[2] - vx[0])
    return bool(abs(area2) <= 2.0**-40 * extent * extent * reach)


def _fill_triangle(xs, ys, vx, vy) -> np.ndarray:
    """Half-plane test against all three edges, boundary inclusive."""
    area2 = (vx[1] - vx[0]) * (vy[2] - vy[0]) - (vy[1] - vy[0]) * (vx[2] - vx[0])
    if area2 == 0.0:
        return np.zeros((ys.shape[0], xs.shape[0]), dtype=bool)
    orient = np.sign(area2)
    inside = np.ones((ys.shape[0], xs.shape[0]), dtype=bool)
    for i in range(3):
        j = (i + 1) % 3
        cross = (vx[j] - vx[i]) * (ys - vy[i]) - (vy[j] - vy[i]) * (xs - vx[i])
        inside &= orient * cross >= 0.0
    return inside


def _pixels(box: tuple[slice, slice], mask: np.ndarray, width: int) -> np.ndarray:
    """Ascending row-major frame indices of the pixels a mask on box sets."""
    rows, cols = box
    index = np.arange(rows.start, rows.stop)[:, None] * width + np.arange(cols.start, cols.stop)
    return index[mask]


def generate(config: GenConfig) -> LayerStackScene:
    """Generate a seeded random scene.

    Objects are placed back to front. A candidate is rejected when it would
    leave some earlier object with no visible pixel, push the stack depth
    past max_levels, or rasterize to an empty mask. Ids are assigned in
    placement order, categories carry the shape kind.

    Every step works on the candidate's box: the frame keeps each pixel's
    stack depth and the placement number of its front-most object (0 for
    none), and each placed object keeps its count of visible pixels, so a
    candidate buries an earlier object exactly when it hides as many of its
    pixels as the object shows.
    """
    rng = _rng(config.seed)
    lo, hi = config.object_count_range
    count = int(rng.integers(lo, hi + 1))
    budget = 60 * count + 400

    kinds: list[str] = []
    shapes: list[tuple[tuple[slice, slice], np.ndarray]] = []  # (box, mask on it)
    shown = np.zeros(count, dtype=np.intp)  # visible pixels of each placed object
    depth = np.zeros((config.height, config.width), dtype=np.int32)
    front = np.zeros((config.height, config.width), dtype=np.int32)
    attempts = 0
    while len(shapes) < count:
        attempts += 1
        if attempts > budget:
            raise GenerationError(
                f"gave up after {budget} placement attempts "
                f"(seed {config.seed}, {len(shapes)}/{count} objects placed)"
            )
        kind, box, candidate = _sample_shape(rng, config)
        if not candidate.any():
            continue
        if int((depth[box] + candidate).max()) > config.max_levels:
            continue
        placed = len(shapes)
        hidden = np.bincount(front[box][candidate], minlength=placed + 1)[1:]
        if (hidden >= shown[:placed]).any():
            continue  # placing this shape would fully occlude an earlier object
        shown[:placed] -= hidden
        shown[placed] = np.count_nonzero(candidate)
        front[box][candidate] = placed + 1
        depth[box] += candidate
        shapes.append((box, candidate))
        kinds.append(kind)

    layers = (
        (InstanceRecord(i + 1, kinds[i]), _pixels(*shapes[i], config.width))
        for i in reversed(range(count))
    )
    return LayerStackScene._from_pixels(config.width, config.height, layers)


_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    # splitmix64 finalizer, used as a stable id -> color hash
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def instance_color(instance_id: int) -> tuple[int, int, int]:
    """Deterministic flat color for an id; never black, distinct in practice."""
    h = _mix64(int(instance_id))
    channels = ((h >> 16) & 0xFF, (h >> 32) & 0xFF, (h >> 48) & 0xFF)
    # squeeze each channel into [64, 255] so no id renders as background black
    return tuple(64 + (c * 3) // 4 for c in channels)


def render(scene: LayerStackScene) -> np.ndarray:
    """Flat-color render: front-most instance wins, empty pixels are black.
    Colours the depth-0 entries of each listed instance, whose slots are
    their pixels, so it reads the scene's entries, not its stacks."""
    area = scene.height * scene.width
    image = np.zeros((area, 3), dtype=np.uint8)
    for record in scene.instances:
        _, slots = _instance_slots(scene, record.id)
        image[slots[: _searched(slots, area)]] = instance_color(record.id)
    return image.reshape(scene.height, scene.width, 3)


def occlusion_rate(scene: LayerStackScene, instance_id: int) -> float:
    """Fraction of the amodal mask hidden behind other objects."""
    amodal, visible = _instance_masks(scene, instance_id)
    amodal_area = amodal.area()
    if amodal_area == 0:
        raise ZeroAreaError(f"instance {instance_id} has an empty amodal mask")
    return 1.0 - visible.area() / amodal_area


def scene_annotations(scene: LayerStackScene) -> list[InstanceAnnotation]:
    """Ground-truth annotations (score 1.0) for every instance in the scene."""
    out = []
    for record in scene.instances:
        out.append(
            InstanceAnnotation.from_masks(
                record.id,
                *_instance_masks(scene, record.id),
                score=1.0,
                category=record.category,
            )
        )
    return out


def _disk_morph(bits: np.ndarray, radius: int, erode: bool) -> np.ndarray:
    """bits eroded (every pixel of the disk set) or dilated (any pixel of it
    set) by the disk of offsets dx, dy with dx*dx + dy*dy <= radius*radius;
    pixels outside the frame count as unset.

    Each row dy of the disk is a span of columns -s..s with s =
    isqrt(radius*radius - dy*dy). A span is widened by one column on each
    side per step, and each disk row's span, shifted by its dy, is combined
    into the result once, on a copy padded with False. Past the frame the
    disk reaches only unset pixels: a row |dy| >= height reaches none of the
    frame and a span s >= width reaches all of a row and some pixel outside
    it. So rows past |dy| = height and columns past s = width change
    nothing, and the padding, the rows and the spans stop there: the work
    is at most 2*min(radius, height) + 2*min(radius, width) + 1 slice
    operations on at most 9 times the frame, for any radius.

    Two disks decide the result without that work. An erosion with radius
    >= min(height, width) is empty, as the offsets (0, radius) and (radius,
    0) leave the frame from every pixel. A dilation whose disk holds the
    frame's diagonal, radius**2 >= (height-1)**2 + (width-1)**2, reaches
    every pixel from any set one, so it is full unless bits is empty.
    """
    combine = np.logical_and if erode else np.logical_or
    height, width = bits.shape
    if erode and radius >= min(height, width):
        return np.zeros((height, width), dtype=bool)
    if not erode and radius * radius >= (height - 1) ** 2 + (width - 1) ** 2:
        return np.full((height, width), bits.any())
    ry, rx = min(radius, height), min(radius, width)
    padded = np.zeros((height + 2 * ry, width + 2 * rx), dtype=bool)
    padded[ry:ry + height, rx:rx + width] = bits
    span, s = padded[:, rx:rx + width], 0  # padded rows combined over columns x-s..x+s
    out = None
    for dy in sorted(range(-ry, ry + 1), key=abs, reverse=True):  # so s only grows
        while s < min(isqrt(radius * radius - dy * dy), rx):
            s += 1
            span = combine(span, padded[:, rx - s:rx - s + width])
            span = combine(span, padded[:, rx + s:rx + s + width], out=span)
        rows = span[ry + dy:ry + dy + height]
        out = rows.copy() if out is None else combine(out, rows, out=out)
    return out


def perturb(
    annotations: Sequence[InstanceAnnotation], config: PerturbConfig
) -> list[InstanceAnnotation]:
    """Degrade annotations into imperfect predictions, deterministically.

    Applies erosion then dilation to the amodal mask, intersects the original
    visible mask with the result, drops occluded instances with the given
    probability, and adds clamped Gaussian score noise. Instances whose
    amodal mask becomes empty are dropped. The random draws per annotation
    are consumed unconditionally so outcomes stay aligned with the seed.
    """
    rng = _rng(config.seed)
    survivors: list[InstanceAnnotation] = []
    for ann in annotations:
        drop_draw = rng.uniform()
        noise = rng.normal() * config.score_noise
        if (
            config.drop_occluded_prob > 0.0
            and ann.occlusion_rate > 0.0
            and drop_draw < config.drop_occluded_prob
        ):
            continue
        amodal = ann.amodal.bits
        if config.erode_radius > 0:
            amodal = _disk_morph(amodal, config.erode_radius, erode=True)
        if config.dilate_radius > 0:
            amodal = _disk_morph(amodal, config.dilate_radius, erode=False)
        if not amodal.any():
            continue
        visible = amodal & ann.visible.bits
        score = float(np.clip(ann.score + noise, 0.0, 1.0))
        survivors.append(
            InstanceAnnotation.from_masks(
                ann.id,
                BinaryMask(amodal),
                BinaryMask(visible),
                score=score,
                category=ann.category,
            )
        )
    return survivors


def perturb_semdist(
    maps: Sequence[tuple[int, SemDistMap]],
    config: PerturbConfig,
    c: float = DEFAULT_THRESHOLD,
) -> list[tuple[int, SemDistMap]]:
    """Swap the integer parts of overlapping map pairs with level_flip_prob.

    This is the map-space counterpart of perturb: it corrupts depth order
    while leaving the confidence (fractional) content untouched. Pairs are
    visited in ascending id order; one uniform draw is consumed per
    overlapping pair. A map that no swap touched is returned as it came.

    Raises ConfidencePrecisionError where a fraction does not survive float32
    rounding at the integer part it is moved to.
    """
    rng = _rng(config.seed)
    entries = sorted(maps, key=lambda item: item[0])
    swapped: dict[int, np.ndarray] = {}  # entry position -> crop copy, made on its first swap
    for (i, (_, map_a)), (j, (_, map_b)) in combinations(enumerate(entries), 2):
        pair = _pair(map_a, map_b, c)
        if pair is None or not pair[3].any():
            continue
        if rng.uniform() >= config.level_flip_prob:
            continue
        box, _, _, omega = pair
        for k, semdist in ((i, map_a), (j, map_b)):
            if k not in swapped:
                swapped[k] = np.array(semdist._crop)
        # views: the swap writes through
        va = swapped[i][_local(box, map_a._support_box)]
        vb = swapped[j][_local(box, map_b._support_box)]
        floor_a, floor_b = np.floor(va), np.floor(vb)
        frac_a, frac_b = va - floor_a, vb - floor_b
        va[omega] = (frac_a + floor_b)[omega]
        vb[omega] = (frac_b + floor_a)[omega]
        origin = (box[0], box[2])
        _require_exact(va, floor_b, frac_a, omega, origin)
        _require_exact(vb, floor_a, frac_b, omega, origin)
    # a swap keeps every omega pixel non-zero, so each map keeps its box
    return [
        (mid, SemDistMap._from_crop(semdist._shape, semdist._support_box, swapped[k])
         if k in swapped else semdist)
        for k, (mid, semdist) in enumerate(entries)
    ]
