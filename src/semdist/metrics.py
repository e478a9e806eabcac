"""Evaluation: mask IoU, greedy matching, AP/AR, occlusion strata, depth order.

AP and AR average over the ten IoU thresholds 0.50, 0.55, ..., 0.95. The
thresholds are built from integers so boundary cases like an IoU of exactly
0.60 compare reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .codec import (
    DEFAULT_CONFIDENCE,
    DEFAULT_THRESHOLD,
    OrderVerdict,
    object_order,
)
from .codec import _gt_order
from .types import (
    BinaryMask,
    DimensionMismatchError,
    InstanceAnnotation,
    LayerStackScene,
    SemDistError,
    SemDistMap,
)

__all__ = [
    "IOU_THRESHOLDS",
    "HEAVY_OCCLUSION_CUT",
    "EmptyGroundTruthError",
    "NoOverlappingPairsError",
    "MatchResult",
    "ImageDiagnostics",
    "EvalReport",
    "iou",
    "iou_matrix",
    "match",
    "average_precision",
    "average_recall",
    "stratified_ar",
    "order_accuracy",
    "assign_maps_to_gt",
    "evaluate",
    "report_to_dict",
]

IOU_THRESHOLDS = tuple(t / 100 for t in range(50, 100, 5))

HEAVY_OCCLUSION_CUT = 0.25
"""Occlusion rate above which an instance counts as heavily occluded."""


class EmptyGroundTruthError(SemDistError):
    """Recall-based metrics are undefined without ground-truth instances."""


class NoOverlappingPairsError(SemDistError):
    """Depth-order accuracy is undefined without overlapping instance pairs."""


def iou(a: BinaryMask, b: BinaryMask) -> float:
    """Intersection over union of two masks; 0 when both are empty."""
    a.require_same_shape(b)
    intersection = int((a.bits & b.bits).sum())
    union = int((a.bits | b.bits).sum())
    if union == 0:
        return 0.0
    return intersection / union


def iou_matrix(
    gt: Sequence[InstanceAnnotation], pred: Sequence[InstanceAnnotation]
) -> np.ndarray:
    """Pairwise amodal-mask IoU, shape (len(gt), len(pred))."""
    if not gt or not pred:
        return np.zeros((len(gt), len(pred)), dtype=np.float64)
    shape = gt[0].amodal.bits.shape
    for ann in list(gt) + list(pred):
        if ann.amodal.bits.shape != shape:
            raise DimensionMismatchError(
                "all masks in one image must share dimensions, "
                f"got {ann.amodal.bits.shape} vs {shape}"
            )
    # float64 takes the BLAS matmul; every count is an integer below 2**53, so
    # each sum is exact in any order and the IoUs equal those of int64 counts
    g = np.stack([ann.amodal.bits.ravel() for ann in gt]).astype(np.float64)
    p = np.stack([ann.amodal.bits.ravel() for ann in pred]).astype(np.float64)
    inter = g @ p.T
    union = g.sum(axis=1)[:, None] + p.sum(axis=1)[None, :] - inter
    out = np.zeros_like(inter, dtype=np.float64)
    np.divide(inter, union, out=out, where=union > 0)
    return out


@dataclass(frozen=True)
class MatchResult:
    """Outcome of greedy matching for one image at one IoU threshold."""

    pairs: tuple[tuple[int, int, float], ...]  # (gt_id, pred_id, iou)
    unmatched_gt: tuple[int, ...]
    unmatched_pred: tuple[int, ...]


@dataclass(frozen=True)
class ImageDiagnostics:
    """Per-image evaluation summary carried inside an EvalReport."""

    image: str
    gt_count: int
    pred_count: int
    matched_at_50: int


def _check_heavy_cut(heavy_cut: float) -> None:
    """A cut that is not finite raises: NaN puts no occluded gt in a stratum,
    and no JSON report can hold it."""
    if not -np.inf < heavy_cut < np.inf:  # NaN fails both comparisons
        raise ValueError(f"heavy_cut must be finite, got {heavy_cut}")


@dataclass(frozen=True)
class EvalReport:
    """Scalar evaluation metrics plus per-image diagnostics and the heavy
    occlusion cut the strata were split at, which must be finite.

    The metric fields are the ones before per_image; each lies in [0, 1] or is
    None. Stratified recall fields are None when the corresponding occlusion
    stratum holds no ground-truth instances; order_accuracy is None when no
    depth-order pairs were evaluable.
    """

    ap: float
    ar10: float
    ar100: float
    ar_none: Optional[float]
    ar_partial: Optional[float]
    ar_heavy: Optional[float]
    order_accuracy: Optional[float]
    per_image: tuple[ImageDiagnostics, ...] = ()
    heavy_cut: float = HEAVY_OCCLUSION_CUT

    def __post_init__(self) -> None:
        for field in fields(self):
            if field.name == "per_image":
                break
            value = getattr(self, field.name)
            if value is not None and not (0.0 <= value <= 1.0):
                raise ValueError(f"{field.name} must lie in [0, 1], got {value}")
        _check_heavy_cut(self.heavy_cut)
        object.__setattr__(self, "per_image", tuple(self.per_image))


class _Image:
    """One image ready for matching: gt by id, predictions in score order and the
    IoU matrix between them, built once for every threshold, budget and stratum."""

    def __init__(self, gt, pred, class_aware: bool) -> None:
        self.gt = sorted(gt, key=lambda ann: ann.id)
        self.pred = sorted(pred, key=lambda ann: (-ann.score, ann.id))
        self.iou = iou_matrix(self.gt, self.pred).tolist()
        if class_aware:  # a pair of two differing categories reads 0, which no threshold accepts
            for (g, a), (p, b) in product(enumerate(self.gt), enumerate(self.pred)):
                if None not in (a.category, b.category) and a.category != b.category:
                    self.iou[g][p] = 0.0

    def claims(self, thresholds=IOU_THRESHOLDS, keep=None) -> list[list[int]]:
        """Per threshold, per prediction in score order, the gt row it claims by the
        rule of match, among the rows keep accepts, or -1. A claim depends only on
        earlier predictions, so the first k claims are the matching at budget k."""
        rows = [g for g, ann in enumerate(self.gt) if keep is None or keep(ann)]
        out = []
        for threshold in thresholds:
            taken = [False] * len(self.gt)
            out.append([])
            for p in range(len(self.pred)):
                best, best_iou = -1, 0.0
                for g in rows:
                    value = self.iou[g][p]
                    if not taken[g] and value >= threshold and value > best_iou:
                        best, best_iou = g, value
                if best >= 0:
                    taken[best] = True
                out[-1].append(best)
        return out


def match(
    gt: Sequence[InstanceAnnotation],
    pred: Sequence[InstanceAnnotation],
    iou_threshold: float,
    *,
    class_aware: bool = False,
) -> MatchResult:
    """Greedy one-to-one matching on amodal masks.

    Predictions are visited by descending score (ties to the lower id); each
    claims the still unmatched ground-truth instance with the highest IoU at
    or above the threshold (ties to the lower gt id). With class_aware=True a
    pair additionally needs equal categories whenever both sides carry one.
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise ValueError(f"IoU threshold must lie in (0, 1], got {iou_threshold}")
    image = _Image(gt, pred, class_aware)
    claims = image.claims((iou_threshold,))[0]
    return MatchResult(
        pairs=tuple((image.gt[g].id, ann.id, image.iou[g][p])
                    for p, (ann, g) in enumerate(zip(image.pred, claims)) if g >= 0),
        unmatched_gt=tuple(ann.id for g, ann in enumerate(image.gt) if g not in claims),
        unmatched_pred=tuple(ann.id for ann, g in zip(image.pred, claims) if g < 0),
    )


def _check_image_counts(gt_images, pred_images) -> None:
    if len(gt_images) != len(pred_images):
        raise ValueError(
            f"gt and prediction image counts differ: {len(gt_images)} vs {len(pred_images)}"
        )


def _require_gt(gt_images, metric: str) -> int:
    total = sum(len(image) for image in gt_images)
    if total == 0:
        raise EmptyGroundTruthError(f"{metric} needs at least one gt instance")
    return total


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


def _pooled_ap(images: Sequence[_Image], passes, total_gt: int) -> float:
    """average_precision from the passes. A prediction is a true positive when its id
    is among the ids matched in its image, so predictions sharing an id share the verdict."""
    keys = [(-ann.score, idx, ann.id) for idx, image in enumerate(images) for ann in image.pred]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    per_threshold = []
    for t in range(len(IOU_THRESHOLDS)):
        hits = []
        for image, claims in zip(images, passes):
            matched = {ann.id for ann, g in zip(image.pred, claims[t]) if g >= 0}
            hits += [ann.id in matched for ann in image.pred]
        flags = np.array(hits, dtype=bool)[order]
        cum_tp = np.cumsum(flags)
        precision = cum_tp / np.arange(1, flags.size + 1)
        recall = cum_tp / total_gt
        envelope = np.maximum.accumulate(precision[::-1])[::-1]
        previous = np.concatenate(([0.0], recall[:-1]))
        per_threshold.append(float(np.sum((recall - previous) * envelope * flags)))
    return float(np.mean(per_threshold))


def _recall(passes, k: int, total_gt: int) -> float:
    """Mean over the thresholds of the claims by each image's first k predictions, per gt."""
    matched = [sum(sum(g >= 0 for g in claims[t][:k]) for claims in passes)
               for t in range(len(IOU_THRESHOLDS))]
    return float(np.mean([count / total_gt for count in matched]))


def average_precision(
    gt_images: Sequence[Sequence[InstanceAnnotation]],
    pred_images: Sequence[Sequence[InstanceAnnotation]],
    *,
    class_aware: bool = False,
) -> float:
    """Mean over the IoU thresholds of the area under the pooled PR curve.

    Matching runs per image; all predictions are then pooled and sorted by
    descending score (ties broken by image position, then prediction id) and
    the PR curve is integrated with monotone-envelope step interpolation.
    """
    _check_image_counts(gt_images, pred_images)
    total_gt = _require_gt(gt_images, "average precision")
    images = [_Image(gt, pred, class_aware) for gt, pred in zip(gt_images, pred_images)]
    return _pooled_ap(images, [image.claims() for image in images], total_gt)


def average_recall(
    gt_images: Sequence[Sequence[InstanceAnnotation]],
    pred_images: Sequence[Sequence[InstanceAnnotation]],
    k: int,
    *,
    class_aware: bool = False,
) -> float:
    """Mean over the IoU thresholds of matched gt over total gt, keeping at
    most the k highest-scoring predictions per image."""
    _check_image_counts(gt_images, pred_images)
    _check_k(k)
    total_gt = _require_gt(gt_images, "average recall")
    passes = [_Image(gt, pred, class_aware).claims() for gt, pred in zip(gt_images, pred_images)]
    return _recall(passes, k, total_gt)


def _strata_ar(images: Sequence[_Image], k: int, heavy_cut: float):
    """AR@k of the occlusion strata none, partial and heavy; None for an empty one."""
    _check_heavy_cut(heavy_cut)
    out = []
    for keep in (
        lambda ann: ann.occlusion_rate == 0.0,
        lambda ann: 0.0 < ann.occlusion_rate <= heavy_cut,
        lambda ann: ann.occlusion_rate > heavy_cut,
    ):
        total = sum(keep(ann) for image in images for ann in image.gt)
        out.append(_recall([image.claims(keep=keep) for image in images], k, total)
                   if total else None)
    return tuple(out)


def stratified_ar(
    gt_images: Sequence[Sequence[InstanceAnnotation]],
    pred_images: Sequence[Sequence[InstanceAnnotation]],
    k: int = 100,
    *,
    heavy_cut: float = HEAVY_OCCLUSION_CUT,
    class_aware: bool = False,
) -> tuple[Optional[float], Optional[float], Optional[float]]:
    """AR@k over three occlusion strata of the ground truth.

    Strata: occlusion_rate exactly 0, in (0, heavy_cut], and above heavy_cut.
    Predictions are never filtered. A stratum holding no gt instance anywhere
    reports None rather than a number.
    """
    _check_image_counts(gt_images, pred_images)
    if any(gt_images):
        _check_k(k)  # every gt instance lies in one stratum; k matters only if one is non-empty
    images = [_Image(gt, pred, class_aware) for gt, pred in zip(gt_images, pred_images)]
    return _strata_ar(images, k, heavy_cut)


def _order_counts(
    scene_gt: LayerStackScene,
    pred_maps: Sequence[tuple[int, SemDistMap]],
    c: float,
    gt_confidence: float,
) -> tuple[int, int, int]:
    """(correct, evaluated, skipped) over the gt pairs whose amodal masks
    meet. A gt pair is skipped when its own order is ambiguous, or disjoint
    because its joint overlap at c is empty; every other pair is evaluated,
    and it is correct when its predicted verdict equals the gt verdict, so a
    missing, ambiguous or disjoint prediction counts as incorrect. The gt
    order comes from _gt_order, which the scene keeps for the last (c,
    gt_confidence)."""
    by_id = dict(pred_maps)
    correct = 0
    evaluated = 0
    skipped = 0
    for id_a, id_b, gt_verdict in _gt_order(scene_gt, c, gt_confidence):
        if gt_verdict in (OrderVerdict.AMBIGUOUS, OrderVerdict.DISJOINT):
            skipped += 1  # no defined gt order for this pair
            continue
        evaluated += 1
        map_a = by_id.get(id_a)
        map_b = by_id.get(id_b)
        if map_a is None or map_b is None:
            continue  # missing prediction counts as incorrect
        if object_order(map_a, map_b, c) == gt_verdict:
            correct += 1
    return correct, evaluated, skipped


def _check_order_threshold(c: float, gt_confidence: float) -> None:
    if not (0.0 < c < gt_confidence):
        raise ValueError(
            f"threshold c must satisfy 0 < c < gt confidence, got c={c}, "
            f"confidence={gt_confidence}"
        )


def order_accuracy(
    scene_gt: LayerStackScene,
    pred_maps: Sequence[tuple[int, SemDistMap]],
    c: float = DEFAULT_THRESHOLD,
    *,
    gt_confidence: float = DEFAULT_CONFIDENCE,
) -> float:
    """Fraction of overlapping gt pairs whose predicted object-level depth
    order matches the ground truth.

    pred_maps pairs each predicted map with the gt id it was assigned to.
    Gt pairs whose masks meet are excluded when their own order is
    ambiguous, or disjoint because their joint overlap at c is empty.
    Missing, ambiguous or disjoint predictions on an ordered gt pair count
    as incorrect.

    The gt order is the order of the maps of encode_scene(scene_gt,
    gt_confidence), which hold only their box crops, so no full frame is
    built. The scene keeps it for the last (c, gt_confidence), so scoring
    the scene again at them reuses it. Raises ConfidencePrecisionError, as
    that encode does, where gt_confidence does not survive float32 rounding
    at a level of the scene.
    """
    _check_order_threshold(c, gt_confidence)
    correct, evaluated, _ = _order_counts(scene_gt, pred_maps, c, gt_confidence)
    if evaluated == 0:
        raise NoOverlappingPairsError(
            "no overlapping gt pair with a defined depth order in this scene"
        )
    return correct / evaluated


def assign_maps_to_gt(
    gt: Sequence[InstanceAnnotation],
    pred: Sequence[InstanceAnnotation],
    pred_maps: dict[int, SemDistMap],
) -> list[tuple[int, SemDistMap]]:
    """Pair predicted maps with gt ids by best amodal overlap.

    Greedy one-to-one assignment over descending IoU (any positive overlap
    qualifies); ties break to lower gt id then lower prediction id.
    """
    matrix = iou_matrix(gt, pred)
    candidates = []
    for g_idx, g_ann in enumerate(gt):
        for p_idx, p_ann in enumerate(pred):
            value = float(matrix[g_idx, p_idx])
            if value > 0.0 and p_ann.id in pred_maps:
                candidates.append((-value, g_ann.id, p_ann.id))
    candidates.sort()
    used_gt: set[int] = set()
    used_pred: set[int] = set()
    assigned: list[tuple[int, SemDistMap]] = []
    for neg_iou, gt_id, pred_id in candidates:
        if gt_id in used_gt or pred_id in used_pred:
            continue
        used_gt.add(gt_id)
        used_pred.add(pred_id)
        assigned.append((gt_id, pred_maps[pred_id]))
    return assigned


def evaluate(
    gt_images: Sequence[Sequence[InstanceAnnotation]],
    pred_images: Sequence[Sequence[InstanceAnnotation]],
    *,
    image_names: Optional[Sequence[str]] = None,
    order_items: Optional[Sequence[tuple[LayerStackScene, Sequence[tuple[int, SemDistMap]]]]] = None,
    c: float = DEFAULT_THRESHOLD,
    gt_confidence: float = DEFAULT_CONFIDENCE,
    k_small: int = 10,
    k_large: int = 100,
    heavy_cut: float = HEAVY_OCCLUSION_CUT,
    class_aware: bool = False,
) -> EvalReport:
    """Assemble the full evaluation report over a corpus of images.

    order_items optionally supplies (gt scene, assigned predicted maps) pairs
    for depth-order accuracy, pooled over all scenes; without them (or with
    no evaluable pair) order_accuracy is None. With them, c must satisfy
    0 < c < gt_confidence, as in order_accuracy. The gt order of each scene
    comes from the maps of encode_scene(scene, gt_confidence) as crops, with
    no full frames, and is kept by the scene as order_accuracy keeps it.
    ConfidencePrecisionError is raised where gt_confidence does not survive
    float32 rounding at a level of a scene.
    """
    _check_image_counts(gt_images, pred_images)
    if image_names is None:
        image_names = [f"{idx:04d}" for idx in range(len(gt_images))]
    elif len(image_names) != len(gt_images):
        raise ValueError("image_names length must match the image count")
    if order_items is not None:
        _check_order_threshold(c, gt_confidence)

    total_gt = _require_gt(gt_images, "average precision")
    images = [_Image(gt, pred, class_aware) for gt, pred in zip(gt_images, pred_images)]
    _check_k(k_small)
    _check_k(k_large)
    passes = [image.claims() for image in images]
    ar_none, ar_partial, ar_heavy = _strata_ar(images, k_large, heavy_cut)

    order_value: Optional[float] = None
    if order_items is not None:
        counts = [_order_counts(scene, maps, c, gt_confidence) for scene, maps in order_items]
        evaluated = sum(total for _, total, _ in counts)
        if evaluated > 0:
            order_value = sum(correct for correct, _, _ in counts) / evaluated

    at_50 = IOU_THRESHOLDS.index(0.5)
    diagnostics = [
        ImageDiagnostics(image=name, gt_count=len(image.gt), pred_count=len(image.pred),
                         matched_at_50=sum(g >= 0 for g in claims[at_50]))
        for name, image, claims in sorted(zip(image_names, images, passes), key=lambda r: r[0])
    ]
    return EvalReport(
        ap=_pooled_ap(images, passes, total_gt),
        ar10=_recall(passes, k_small, total_gt),
        ar100=_recall(passes, k_large, total_gt),
        ar_none=ar_none,
        ar_partial=ar_partial,
        ar_heavy=ar_heavy,
        order_accuracy=order_value,
        per_image=tuple(diagnostics),
        heavy_cut=heavy_cut,
    )


def report_to_dict(report: EvalReport) -> dict:
    """EvalReport as a JSON-ready dict: each field under its own name, in field
    order, except heavy_cut, which meta reports as heavy_occlusion_cut."""
    doc = {field.name: getattr(report, field.name) for field in fields(report)}
    names = [field.name for field in fields(ImageDiagnostics)]
    doc["per_image"] = [{name: getattr(diag, name) for name in names}
                        for diag in report.per_image]
    doc["meta"] = {
        "iou_thresholds": list(IOU_THRESHOLDS),
        "ar_averages_over_iou_thresholds": True,
        "heavy_occlusion_cut": doc.pop("heavy_cut"),
    }
    return doc
