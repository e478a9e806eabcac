"""Deterministic synthetic occlusion scenes, rendering, and degradation.

Scenes are produced from a seeded PCG64 stream, so equal configs give
bit-identical scenes. Shapes are filled convex primitives rasterized by
pixel-center inclusion and placed back to front; a placement that would hide
an already placed object completely is discarded and redrawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np
from scipy import ndimage

from .codec import DEFAULT_THRESHOLD
from .codec import _pair_overlap, _require_exact
from .types import (
    BinaryMask,
    InstanceAnnotation,
    InstanceRecord,
    LayerStackScene,
    SemDistError,
    SemDistMap,
    amodal_mask_of,
    visible_mask_of,
)

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
        if self.score_noise < 0.0:
            raise ValueError(f"score_noise must be non-negative, got {self.score_noise}")


def _rng(seed: int) -> np.random.Generator:
    # PCG64 is the one documented stream; see the README reproducibility note
    return np.random.Generator(np.random.PCG64(seed))


def _pixel_centers(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    xs = np.arange(width, dtype=np.float64) + 0.5
    ys = np.arange(height, dtype=np.float64)[:, None] + 0.5
    return xs, ys


def _sample_shape(rng: np.random.Generator, config: GenConfig) -> tuple[str, np.ndarray]:
    """Draw one shape kind and its pixel-center rasterization (may be empty)."""
    kind = config.shape_set[int(rng.integers(len(config.shape_set)))]
    side = min(config.width, config.height)
    cx = rng.uniform(0.0, config.width)
    cy = rng.uniform(0.0, config.height)
    size = rng.uniform(config.size_range[0], config.size_range[1]) * side
    xs, ys = _pixel_centers(config.width, config.height)
    if kind == "rectangle":
        half_w = 0.5 * size * rng.uniform(0.6, 1.0)
        half_h = 0.5 * size * rng.uniform(0.6, 1.0)
        mask = (np.abs(xs - cx) <= half_w) & (np.abs(ys - cy) <= half_h)
    elif kind == "ellipse":
        axis_a = 0.5 * size * rng.uniform(0.6, 1.0)
        axis_b = 0.5 * size * rng.uniform(0.6, 1.0)
        mask = ((xs - cx) / axis_a) ** 2 + ((ys - cy) / axis_b) ** 2 <= 1.0
    else:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=3))
        radii = rng.uniform(0.5, 1.0, size=3) * 0.5 * size
        vx = cx + radii * np.cos(angles)
        vy = cy + radii * np.sin(angles)
        mask = _fill_triangle(xs, ys, vx, vy)
    return kind, mask


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


def generate(config: GenConfig) -> LayerStackScene:
    """Generate a seeded random scene.

    Objects are placed back to front. A candidate is rejected when it would
    leave some earlier object with no visible pixel, push the stack depth
    past max_levels, or rasterize to an empty mask. Ids are assigned in
    placement order, categories carry the shape kind.
    """
    rng = _rng(config.seed)
    lo, hi = config.object_count_range
    count = int(rng.integers(lo, hi + 1))
    budget = 60 * count + 400

    kinds: list[str] = []
    masks: list[np.ndarray] = []
    visible: list[np.ndarray] = []
    depth = np.zeros((config.height, config.width), dtype=np.int32)
    attempts = 0
    while len(masks) < count:
        attempts += 1
        if attempts > budget:
            raise GenerationError(
                f"gave up after {budget} placement attempts "
                f"(seed {config.seed}, {len(masks)}/{count} objects placed)"
            )
        kind, candidate = _sample_shape(rng, config)
        if not candidate.any():
            continue
        if int((depth + candidate).max()) > config.max_levels:
            continue
        if any(not (vis & ~candidate).any() for vis in visible):
            continue  # placing this shape would fully occlude an earlier object
        for vis in visible:
            vis &= ~candidate
        visible.append(candidate.copy())
        masks.append(candidate)
        kinds.append(kind)
        depth += candidate

    layers = [
        (InstanceRecord(i + 1, kinds[i]), BinaryMask(masks[i]))
        for i in reversed(range(count))
    ]
    return LayerStackScene.from_layers(config.width, config.height, layers)


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
    """Flat-color render: front-most instance wins, empty pixels are black."""
    image = np.zeros((scene.height, scene.width, 3), dtype=np.uint8)
    if scene.stacks.shape[0] == 0:
        return image
    top = scene.stacks[0]
    for record in scene.instances:
        image[top == record.id] = instance_color(record.id)
    return image


def occlusion_rate(scene: LayerStackScene, instance_id: int) -> float:
    """Fraction of the amodal mask hidden behind other objects."""
    amodal_area = amodal_mask_of(scene, instance_id).area()
    if amodal_area == 0:
        raise ZeroAreaError(f"instance {instance_id} has an empty amodal mask")
    visible_area = visible_mask_of(scene, instance_id).area()
    return 1.0 - visible_area / amodal_area


def scene_annotations(scene: LayerStackScene) -> list[InstanceAnnotation]:
    """Ground-truth annotations (score 1.0) for every instance in the scene."""
    out = []
    for record in scene.instances:
        out.append(
            InstanceAnnotation.from_masks(
                record.id,
                amodal_mask_of(scene, record.id),
                visible_mask_of(scene, record.id),
                score=1.0,
                category=record.category,
            )
        )
    return out


def _disk(radius: int) -> np.ndarray:
    span = np.arange(-radius, radius + 1)
    return (span[:, None] ** 2 + span[None, :] ** 2) <= radius * radius


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
            amodal = ndimage.binary_erosion(amodal, structure=_disk(config.erode_radius))
        if config.dilate_radius > 0:
            amodal = ndimage.binary_dilation(amodal, structure=_disk(config.dilate_radius))
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
    swapped: dict[int, np.ndarray] = {}  # entry position -> copy, made on its first swap
    for (i, (_, map_a)), (j, (_, map_b)) in combinations(enumerate(entries), 2):
        pair = _pair_overlap(map_a, map_b, c)
        if pair is None or not pair[1].any():
            continue
        if rng.uniform() >= config.level_flip_prob:
            continue
        window, omega = pair
        for k, semdist in ((i, map_a), (j, map_b)):
            if k not in swapped:
                swapped[k] = np.array(semdist.values)
        va, vb = swapped[i][window], swapped[j][window]  # views: the swap writes through
        floor_a, floor_b = np.floor(va), np.floor(vb)
        frac_a, frac_b = va - floor_a, vb - floor_b
        va[omega] = (frac_a + floor_b)[omega]
        vb[omega] = (frac_b + floor_a)[omega]
        origin = (window[0].start, window[1].start)
        _require_exact(va, floor_b, frac_a, omega, origin)
        _require_exact(vb, floor_a, frac_b, omega, origin)
    # a swap keeps every omega pixel non-zero, so each map keeps its box
    return [
        (mid, SemDistMap._built(swapped[k], semdist._support_box) if k in swapped else semdist)
        for k, (mid, semdist) in enumerate(entries)
    ]
