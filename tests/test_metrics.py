import dataclasses
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdist import (
    IOU_THRESHOLDS,
    BinaryMask,
    ConfidencePrecisionError,
    DimensionMismatchError,
    EmptyGroundTruthError,
    EvalReport,
    GenConfig,
    InstanceAnnotation,
    InstanceRecord,
    LayerStackScene,
    NoOverlappingPairsError,
    OrderVerdict,
    PerturbConfig,
    SemDistMap,
    amodal_mask_of,
    assign_maps_to_gt,
    average_precision,
    average_recall,
    encode_scene,
    encode_semdist,
    evaluate,
    generate,
    iou,
    iou_matrix,
    match,
    object_order,
    order_accuracy,
    perturb,
    report_to_dict,
    scene_annotations,
    stratified_ar,
)


def _strip_annotation(width: int, on_columns: range, row_count: int = 1, **kwargs):
    bits = np.zeros((row_count, width), dtype=bool)
    bits[:, list(on_columns)] = True
    mask = BinaryMask(bits)
    return InstanceAnnotation.from_masks(kwargs.pop("ann_id", 1), mask, mask, **kwargs)


class TestIou:
    def test_s0_masks_give_one_third(self, s0):
        value = iou(amodal_mask_of(s0, 1), amodal_mask_of(s0, 2))
        assert value == 1 / 3

    def test_both_empty_is_zero(self):
        assert iou(BinaryMask.zeros(3, 3), BinaryMask.zeros(3, 3)) == 0.0

    def test_identical_masks(self, s0):
        mask = amodal_mask_of(s0, 1)
        assert iou(mask, mask) == 1.0

    def test_matrix_agrees_with_scalar(self, s0):
        annotations = scene_annotations(s0)
        matrix = iou_matrix(annotations, annotations)
        for i, a in enumerate(annotations):
            for j, b in enumerate(annotations):
                assert matrix[i, j] == iou(a.amodal, b.amodal)

    def test_matrix_rejects_mixed_shapes(self, s0):
        small = InstanceAnnotation.from_masks(
            9, BinaryMask(np.ones((2, 2), bool)), BinaryMask(np.ones((2, 2), bool))
        )
        with pytest.raises(DimensionMismatchError):
            iou_matrix(scene_annotations(s0), [small])


@st.composite
def _mask_sets(draw):
    height, width = draw(st.integers(1, 80)), draw(st.integers(1, 80))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32))))

    def annotations(count):
        out = []
        for index in range(count):
            bits = rng.uniform(size=(height, width)) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
            bits.flat[rng.integers(bits.size)] = True  # an amodal mask is never empty
            out.append(InstanceAnnotation.from_masks(index + 1, BinaryMask(bits), BinaryMask(bits)))
        return out

    return annotations(draw(st.integers(0, 6))), annotations(draw(st.integers(0, 6)))


class TestIouMatrixCounts:
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(_mask_sets())
    def test_equals_integer_counts(self, masks):
        gt, pred = masks
        got = iou_matrix(gt, pred)
        expected = np.zeros((len(gt), len(pred)), dtype=np.float64)
        if gt and pred:
            g = np.stack([ann.amodal.bits.ravel() for ann in gt]).astype(np.int64)
            p = np.stack([ann.amodal.bits.ravel() for ann in pred]).astype(np.int64)
            inter = g @ p.T
            union = g.sum(axis=1)[:, None] + p.sum(axis=1)[None, :] - inter
            np.divide(inter, union, out=expected, where=union > 0)
        assert got.dtype == np.float64
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestMatch:
    def test_thresholds_built_from_integers(self):
        assert IOU_THRESHOLDS == tuple(t / 100 for t in range(50, 100, 5))
        assert len(IOU_THRESHOLDS) == 10

    def test_greedy_visits_by_score(self):
        gt = [_strip_annotation(10, range(0, 10), ann_id=1)]
        strong = _strip_annotation(10, range(0, 6), ann_id=7, score=0.9)   # IoU 0.6
        better = _strip_annotation(10, range(0, 9), ann_id=8, score=0.8)   # IoU 0.9
        result = match(gt, [strong, better], 0.5)
        assert result.pairs == ((1, 7, 0.6),)
        assert result.unmatched_pred == (8,)

    def test_each_gt_claimed_once(self):
        gt = [_strip_annotation(10, range(0, 10), ann_id=1)]
        preds = [
            _strip_annotation(10, range(0, 10), ann_id=5, score=0.9),
            _strip_annotation(10, range(0, 10), ann_id=6, score=0.8),
        ]
        result = match(gt, preds, 0.5)
        assert len(result.pairs) == 1
        assert result.unmatched_pred == (6,)

    def test_score_tie_breaks_to_lower_id(self):
        gt = [_strip_annotation(10, range(0, 10), ann_id=1)]
        preds = [
            _strip_annotation(10, range(0, 10), ann_id=6, score=0.5),
            _strip_annotation(10, range(0, 10), ann_id=5, score=0.5),
        ]
        result = match(gt, preds, 0.5)
        assert result.pairs[0][1] == 5

    def test_class_aware_blocks_mismatched_categories(self):
        gt = [_strip_annotation(10, range(0, 10), ann_id=1, category="cat")]
        pred = [_strip_annotation(10, range(0, 10), ann_id=2, category="dog", score=0.9)]
        assert match(gt, pred, 0.5).pairs != ()
        assert match(gt, pred, 0.5, class_aware=True).pairs == ()
        # a missing category on either side never blocks a match
        pred_none = [_strip_annotation(10, range(0, 10), ann_id=2, score=0.9)]
        assert match(gt, pred_none, 0.5, class_aware=True).pairs != ()

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.01])
    def test_threshold_domain(self, bad):
        with pytest.raises(ValueError):
            match([], [], bad)


class TestAveragePrecision:
    def test_gt_vs_gt_is_exactly_one(self, corpus):
        images = [scene_annotations(scene) for scene in corpus[:10]]
        assert average_precision(images, images) == 1.0

    def test_iou_point_six_gives_exactly_point_three(self):
        # IoU of 3/5 clears thresholds 0.50, 0.55, 0.60 and no others, so the
        # threshold mean is exactly 3/10
        gt = [[_strip_annotation(5, range(0, 5), ann_id=1)]]
        pred = [[_strip_annotation(5, range(0, 3), ann_id=1, score=0.9)]]
        assert iou(gt[0][0].amodal, pred[0][0].amodal) == 0.6
        assert average_precision(gt, pred) == 0.3

    def test_score_rescaling_never_changes_ap(self, corpus):
        gt = [scene_annotations(scene) for scene in corpus[:6]]
        pred = [
            perturb(image, PerturbConfig(erode_radius=1, score_noise=0.3, seed=11))
            for image in gt
        ]
        rescaled = [
            [
                InstanceAnnotation(
                    id=ann.id,
                    amodal=ann.amodal,
                    visible=ann.visible,
                    occlusion_rate=ann.occlusion_rate,
                    score=ann.score * 0.5,
                    category=ann.category,
                )
                for ann in image
            ]
            for image in pred
        ]
        assert average_precision(gt, pred) == average_precision(gt, rescaled)

    def test_high_scoring_false_positive_lowers_ap(self, s0):
        gt = [scene_annotations(s0)]
        correct = [
            InstanceAnnotation(
                id=ann.id,
                amodal=ann.amodal,
                visible=ann.visible,
                occlusion_rate=ann.occlusion_rate,
                score=0.5,
                category=ann.category,
            )
            for ann in gt[0]
        ]
        noise = _strip_annotation(3, range(0, 1), row_count=3, ann_id=9, score=0.99)
        assert average_precision(gt, [correct]) == 1.0
        assert average_precision(gt, [correct + [noise]]) < 1.0

    def test_empty_gt_raises(self):
        with pytest.raises(EmptyGroundTruthError):
            average_precision([[]], [[]])

    def test_no_predictions_is_zero(self, s0):
        assert average_precision([scene_annotations(s0)], [[]]) == 0.0


class TestAverageRecall:
    def test_gt_vs_gt_is_exactly_one(self, corpus):
        images = [scene_annotations(scene) for scene in corpus[:10]]
        assert average_recall(images, images, 10) == 1.0
        assert average_recall(images, images, 100) == 1.0

    def test_monotone_in_k(self, corpus):
        gt = [scene_annotations(scene) for scene in corpus[:8]]
        pred = [
            perturb(image, PerturbConfig(erode_radius=1, score_noise=0.4, seed=3))
            for image in gt
        ]
        values = [average_recall(gt, pred, k) for k in (1, 2, 3, 6, 10)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_budget_keeps_top_scorers(self):
        gt = [[_strip_annotation(8, range(0, 8), ann_id=1)]]
        good = _strip_annotation(8, range(0, 8), ann_id=5, score=0.4)
        bad = _strip_annotation(8, range(0, 1), ann_id=6, score=0.9)
        assert average_recall(gt, [[good, bad]], 2) == 1.0
        # with a budget of one, the high-scoring poor mask crowds out the match
        assert average_recall(gt, [[good, bad]], 1) == 0.0

    def test_k_must_be_positive(self, s0):
        images = [scene_annotations(s0)]
        with pytest.raises(ValueError):
            average_recall(images, images, 0)

    def test_empty_gt_raises(self):
        with pytest.raises(EmptyGroundTruthError):
            average_recall([[]], [[]], 10)


def _rate_fixture():
    """One image: three gt instances with occlusion rates 0, 0.2, and 0.5."""
    gt = []
    for ann_id, x0, hidden in ((1, 0, 0), (2, 12, 2), (3, 24, 5)):
        amodal = np.zeros((1, 40), dtype=bool)
        amodal[:, x0 : x0 + 10] = True
        visible = amodal.copy()
        visible[:, x0 : x0 + hidden] = False
        gt.append(
            InstanceAnnotation.from_masks(ann_id, BinaryMask(amodal), BinaryMask(visible))
        )
    return gt


class TestStratifiedAr:
    def test_rates_route_to_strata(self):
        gt = [_rate_fixture()]
        # predict only the unoccluded and the heavily occluded instance
        pred = [[gt[0][0], gt[0][2]]]
        ar_none, ar_partial, ar_heavy = stratified_ar(gt, pred)
        assert ar_none == 1.0
        assert ar_partial == 0.0
        assert ar_heavy == 1.0

    def test_boundary_rate_counts_as_partial(self):
        amodal = np.zeros((1, 4), dtype=bool)
        amodal[:, :4] = True
        visible = amodal.copy()
        visible[:, 0] = False  # rate exactly 0.25
        ann = InstanceAnnotation.from_masks(1, BinaryMask(amodal), BinaryMask(visible))
        assert ann.occlusion_rate == 0.25
        ar_none, ar_partial, ar_heavy = stratified_ar([[ann]], [[ann]])
        assert ar_partial == 1.0
        assert ar_none is None and ar_heavy is None

    def test_empty_strata_report_none(self, s0):
        gt = [[ann for ann in scene_annotations(s0) if ann.occlusion_rate == 0.0]]
        ar_none, ar_partial, ar_heavy = stratified_ar(gt, gt)
        assert ar_none == 1.0
        assert ar_partial is None
        assert ar_heavy is None


class TestOrderAccuracy:
    def _gt_maps(self, scene):
        return [(r.id, encode_semdist(scene, r.id)) for r in scene.instances]

    def test_gt_maps_score_one(self, s0):
        assert order_accuracy(s0, self._gt_maps(s0)) == 1.0

    def test_missing_prediction_counts_incorrect(self, s0):
        partial = [pair for pair in self._gt_maps(s0) if pair[0] == 1]
        assert order_accuracy(s0, partial) == 0.0

    def test_ambiguous_prediction_counts_incorrect(self, s0):
        # predicted maps tie on the s0 overlap: one pixel votes each way and
        # the middle pixel falls outside the joint region
        front = np.float32(0.95)
        behind = np.float32(0.95) - np.float32(1.0)
        values_a = np.zeros((3, 3), dtype=np.float32)
        values_b = np.zeros((3, 3), dtype=np.float32)
        values_a[1, 0], values_b[1, 0] = front, behind
        values_a[1, 2], values_b[1, 2] = behind, front
        tied = [(1, SemDistMap(values_a)), (2, SemDistMap(values_b))]
        assert order_accuracy(s0, tied) == 0.0

    def test_no_overlap_raises(self):
        stacks = np.zeros((1, 2, 4), dtype=np.int32)
        stacks[0, :, 0] = 1
        stacks[0, :, 3] = 2
        scene = LayerStackScene(4, 2, (InstanceRecord(1), InstanceRecord(2)), stacks)
        with pytest.raises(NoOverlappingPairsError):
            order_accuracy(scene, [(r.id, encode_semdist(scene, r.id)) for r in scene.instances])

    def test_gt_ties_are_excluded_from_the_denominator(self):
        # instances 1 and 2 tie (two opposing single-pixel overlaps); 1 and 3
        # have a clean order, so accuracy must rest on that pair alone
        stacks = np.zeros((2, 2, 4), dtype=np.int32)
        stacks[:, 0, 0] = (1, 2)
        stacks[:, 1, 1] = (2, 1)
        stacks[:, 0, 2] = (1, 3)
        stacks[0, 1, 3] = 3
        scene = LayerStackScene(
            4, 2, (InstanceRecord(1), InstanceRecord(2), InstanceRecord(3)), stacks
        )
        maps = [(r.id, encode_semdist(scene, r.id)) for r in scene.instances]
        assert order_accuracy(scene, maps) == 1.0

    def test_threshold_domain(self, s0):
        maps = self._gt_maps(s0)
        with pytest.raises(ValueError):
            order_accuracy(s0, maps, c=0.95)
        with pytest.raises(ValueError):
            order_accuracy(s0, maps, c=0.0)

    def test_gt_confidence_lost_in_float32_raises_like_encode(self):
        # in float32, 1e-8 - 1 is -1.0: a level-1 pixel would decode as absent
        scene = generate(GenConfig(seed=3))
        maps = list(encode_scene(scene).items())
        with pytest.raises(ConfidencePrecisionError) as encoded:
            encode_scene(scene, 1e-8)
        assert (encoded.value.pixel, encoded.value.level) == ((39, 17), 1)
        images = [scene_annotations(scene)]
        calls = (
            lambda: order_accuracy(scene, maps, 1e-9, gt_confidence=1e-8),
            lambda: evaluate(images, images, order_items=[(scene, maps)], c=1e-9,
                             gt_confidence=1e-8),
        )
        for call in calls:
            with pytest.raises(ConfidencePrecisionError) as raised:
                call()
            assert (raised.value.pixel, raised.value.level) == ((39, 17), 1)
            assert str(raised.value) == str(encoded.value)


class TestAssignMaps:
    def test_assignment_follows_best_overlap(self, s0):
        gt = scene_annotations(s0)
        pred = scene_annotations(s0)
        renamed = [
            InstanceAnnotation(
                id=ann.id + 10,
                amodal=ann.amodal,
                visible=ann.visible,
                occlusion_rate=ann.occlusion_rate,
                score=ann.score,
                category=ann.category,
            )
            for ann in pred
        ]
        maps = {ann.id: encode_semdist(s0, ann.id - 10) for ann in renamed}
        assigned = dict(assign_maps_to_gt(gt, renamed, maps))
        assert set(assigned) == {1, 2}
        assert assigned[1] == encode_semdist(s0, 1)
        assert assigned[2] == encode_semdist(s0, 2)

    def test_predictions_without_maps_are_skipped(self, s0):
        gt = scene_annotations(s0)
        assert assign_maps_to_gt(gt, gt, {}) == []


class TestEvaluate:
    def test_full_report_on_gt(self, corpus):
        scenes = corpus[:6]
        images = [scene_annotations(scene) for scene in scenes]
        order_items = [
            (scene, [(r.id, encode_semdist(scene, r.id)) for r in scene.instances])
            for scene in scenes
        ]
        report = evaluate(images, images, order_items=order_items)
        assert report.ap == 1.0
        assert report.ar10 == 1.0
        assert report.ar100 == 1.0
        assert report.order_accuracy == 1.0
        assert len(report.per_image) == 6
        names = [diag.image for diag in report.per_image]
        assert names == sorted(names)
        for diag in report.per_image:
            assert diag.gt_count == diag.pred_count == diag.matched_at_50

    def test_report_dict_shape(self, s0):
        images = [scene_annotations(s0)]
        report = evaluate(images, images)
        doc = report_to_dict(report)
        assert set(doc) == {
            "ap", "ar10", "ar100", "ar_none", "ar_partial", "ar_heavy",
            "order_accuracy", "per_image", "meta",
        }
        assert doc["order_accuracy"] is None  # no order items were supplied
        assert doc["meta"]["iou_thresholds"] == list(IOU_THRESHOLDS)

    def test_report_dict_follows_the_report_fields(self, corpus):
        scenes = corpus[:4]
        gt = [scene_annotations(scene) for scene in scenes]
        pred = [perturb(image, PerturbConfig(erode_radius=1, score_noise=0.3, seed=5))
                for image in gt]
        order_items = [
            (scene, [(r.id, encode_semdist(scene, r.id)) for r in scene.instances])
            for scene in scenes
        ]
        report = evaluate(gt, pred, order_items=order_items)
        assert report.order_accuracy is not None
        doc = report_to_dict(report)
        names = [field.name for field in dataclasses.fields(report)]
        assert list(doc) == names[:-1] + ["meta"]  # heavy_cut is reported under meta
        for name in names[:-2]:
            assert doc[name] == getattr(report, name), name
        assert doc["meta"]["heavy_occlusion_cut"] == report.heavy_cut
        assert len(doc["per_image"]) == len(report.per_image) == 4
        for entry, diag in zip(doc["per_image"], report.per_image):
            assert entry == {field.name: getattr(diag, field.name)
                             for field in dataclasses.fields(diag)}
            assert list(entry) == [field.name for field in dataclasses.fields(diag)]

    def test_report_meta_names_the_heavy_cut_used(self, corpus):
        images = [scene_annotations(scene) for scene in corpus[:3]]
        default = evaluate(images, images)
        assert default.heavy_cut == 0.25
        assert report_to_dict(default)["meta"]["heavy_occlusion_cut"] == 0.25
        report = evaluate(images, images, heavy_cut=1.0)
        assert report.heavy_cut == 1.0
        assert report_to_dict(report)["meta"]["heavy_occlusion_cut"] == 1.0
        assert report.ar_heavy is None  # no occlusion rate exceeds 1

    def test_report_checks_every_metric_field(self):
        metrics = dict(ap=0.5, ar10=0.5, ar100=0.5, ar_none=None, ar_partial=None,
                       ar_heavy=None, order_accuracy=None)
        for name in metrics:
            for value in (-0.25, 1.5):
                with pytest.raises(ValueError,
                                   match=rf"^{name} must lie in \[0, 1\], got {value}$"):
                    EvalReport(**{**metrics, name: value})
            assert getattr(EvalReport(**{**metrics, name: 1.0}), name) == 1.0
        # heavy_cut records a setting, which evaluate accepts at any value
        assert EvalReport(**metrics, heavy_cut=2.0).heavy_cut == 2.0

    def test_bad_order_threshold_raises_like_order_accuracy(self, s0):
        images = [scene_annotations(s0)]
        maps = [(r.id, encode_semdist(s0, r.id)) for r in s0.instances]
        message = "threshold c must satisfy 0 < c < gt confidence"
        with pytest.raises(ValueError, match=message):
            order_accuracy(s0, maps, c=0.96, gt_confidence=0.95)
        with pytest.raises(ValueError, match=message):
            evaluate(images, images, order_items=[(s0, maps)], c=0.96, gt_confidence=0.95)
        # without order items the threshold is not used
        assert evaluate(images, images, c=0.96).order_accuracy is None

    def test_image_count_mismatch(self, s0):
        images = [scene_annotations(s0)]
        with pytest.raises(ValueError):
            evaluate(images, images + images)


def _reference_ap(gt_images, pred_images, class_aware):
    """Pooled AP from one public match() call per image and threshold."""
    total_gt = sum(len(image) for image in gt_images)
    per_threshold = []
    for threshold in IOU_THRESHOLDS:
        rows = []
        for image_idx, (gt, pred) in enumerate(zip(gt_images, pred_images)):
            result = match(gt, pred, threshold, class_aware=class_aware)
            matched = {pred_id for _, pred_id, _ in result.pairs}
            rows += [(-ann.score, image_idx, ann.id, ann.id in matched) for ann in pred]
        if not rows:
            per_threshold.append(0.0)
            continue
        rows.sort()
        flags = np.array([row[3] for row in rows], dtype=bool)
        cum_tp = np.cumsum(flags)
        precision = cum_tp / np.arange(1, flags.size + 1)
        recall = cum_tp / total_gt
        envelope = np.maximum.accumulate(precision[::-1])[::-1]
        previous = np.concatenate(([0.0], recall[:-1]))
        per_threshold.append(float(np.sum((recall - previous) * envelope * flags)))
    return float(np.mean(per_threshold))


def _reference_ar(gt_images, pred_images, k, class_aware):
    """AR@k from public match() on each image's k top-scoring predictions;
    None when there is no gt instance."""
    total_gt = sum(len(image) for image in gt_images)
    if total_gt == 0:
        return None
    recalls = []
    for threshold in IOU_THRESHOLDS:
        matched = 0
        for gt, pred in zip(gt_images, pred_images):
            top = sorted(pred, key=lambda ann: (-ann.score, ann.id))[:k]
            matched += len(match(gt, top, threshold, class_aware=class_aware).pairs)
        recalls.append(matched / total_gt)
    return float(np.mean(recalls))


def _reference_order(order_items):
    """Pooled order accuracy from per-instance encodes and amodal masks."""
    correct = evaluated = 0
    for scene, maps in order_items:
        by_id = dict(maps)
        gt_maps = {i: encode_semdist(scene, i) for i in scene.ids()}
        for id_a, id_b in combinations(sorted(scene.ids()), 2):
            if not (amodal_mask_of(scene, id_a).bits & amodal_mask_of(scene, id_b).bits).any():
                continue
            verdict = object_order(gt_maps[id_a], gt_maps[id_b])
            if verdict in (OrderVerdict.AMBIGUOUS, OrderVerdict.DISJOINT):
                continue
            evaluated += 1
            if id_a in by_id and id_b in by_id:
                correct += object_order(by_id[id_a], by_id[id_b]) == verdict
    return correct / evaluated if evaluated else None


class TestSinglePassEquivalence:
    """evaluate() reads every metric off one IoU matrix and one greedy pass per
    threshold; each field must equal a reference built from public match()."""

    @pytest.fixture(scope="class")
    def inputs(self, corpus):
        scenes = corpus[:10]
        gt_images, pred_images, order_items = [], [], []
        for idx, scene in enumerate(scenes):
            gt = [
                dataclasses.replace(ann, category=(None, "a", "b")[(ann.id + idx) % 3])
                for ann in scene_annotations(scene)
            ]
            config = PerturbConfig(
                erode_radius=idx % 2, drop_occluded_prob=0.3, score_noise=0.3, seed=idx
            )
            pred = [
                dataclasses.replace(ann, category=(None, "a", "b")[(ann.id * 7 + idx) % 3])
                for ann in perturb(gt, config)
            ]
            gt_images.append(gt)
            pred_images.append([] if idx == 4 else pred)  # one image without predictions
            maps = [(ann.id, encode_semdist(scene, ann.id)) for ann in pred if ann.id % 3]
            order_items.append((scene, maps))
        return gt_images, pred_images, order_items

    @pytest.mark.parametrize("class_aware", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 10, 100])
    def test_report_equals_public_match_reference(self, inputs, k, class_aware):
        gt_images, pred_images, order_items = inputs
        report = evaluate(
            gt_images, pred_images, order_items=order_items,
            k_small=k, k_large=k, class_aware=class_aware,
        )
        assert report.ap == _reference_ap(gt_images, pred_images, class_aware)
        assert report.ar10 == report.ar100 == _reference_ar(gt_images, pred_images, k, class_aware)
        assert report.ap == average_precision(gt_images, pred_images, class_aware=class_aware)
        assert report.ar10 == average_recall(gt_images, pred_images, k, class_aware=class_aware)
        strata = (
            [[ann for ann in image if ann.occlusion_rate == 0.0] for image in gt_images],
            [[ann for ann in image if 0.0 < ann.occlusion_rate <= 0.25] for image in gt_images],
            [[ann for ann in image if ann.occlusion_rate > 0.25] for image in gt_images],
        )
        expected = tuple(_reference_ar(s, pred_images, k, class_aware) for s in strata)
        assert (report.ar_none, report.ar_partial, report.ar_heavy) == expected
        assert stratified_ar(gt_images, pred_images, k, class_aware=class_aware) == expected
        assert report.order_accuracy == _reference_order(order_items)
        assert [diag.matched_at_50 for diag in report.per_image] == [
            len(match(gt, pred, 0.5, class_aware=class_aware).pairs)
            for gt, pred in zip(gt_images, pred_images)
        ]
        assert report.per_image[4].pred_count == 0 and report.per_image[4].matched_at_50 == 0

    def test_default_budgets_and_empty_stratum(self, inputs):
        gt_images, pred_images, _ = inputs
        # no occlusion rate lies above 1, so the heavy stratum is empty
        report = evaluate(gt_images, pred_images, heavy_cut=1.0)
        assert report.ar10 == _reference_ar(gt_images, pred_images, 10, False)
        assert report.ar100 == _reference_ar(gt_images, pred_images, 100, False)
        partial = [[ann for ann in image if ann.occlusion_rate > 0.0] for image in gt_images]
        assert report.ar_partial == _reference_ar(partial, pred_images, 100, False)
        assert report.ar_heavy is None
        assert stratified_ar(gt_images, pred_images, heavy_cut=1.0)[2] is None


class TestEvaluateEdges:
    def test_duplicate_prediction_ids_both_count_as_hits(self):
        # true positives are marked by prediction id per image, so two
        # predictions sharing an id both count once that id is matched
        gt = scene_annotations(generate(GenConfig(seed=3)))
        pred = [dataclasses.replace(gt[0], score=0.9), dataclasses.replace(gt[0], score=0.8)]
        assert average_precision([gt], [pred]) == 0.33333333333333337
        report = evaluate([gt], [pred])
        assert report.ap == average_precision([gt], [pred])
        # recall counts matched gt, so the second copy adds nothing there
        assert report.ar100 == average_recall([gt], [pred], 100) == 0.16666666666666669
        assert report.per_image[0].matched_at_50 == 1

    def test_error_order(self, s0):
        good = scene_annotations(s0)
        small = InstanceAnnotation.from_masks(
            9, BinaryMask(np.ones((2, 2), bool)), BinaryMask(np.ones((2, 2), bool))
        )
        # image count, then image_names length, then empty gt, then dimensions
        with pytest.raises(ValueError, match="image counts differ"):
            evaluate([[]], [[small], [small]], image_names=["a", "b", "c"])
        with pytest.raises(ValueError, match="image_names length"):
            evaluate([[]], [[small]], image_names=["a", "b"])
        with pytest.raises(EmptyGroundTruthError):
            evaluate([[]], [[small]], k_small=0)
        with pytest.raises(DimensionMismatchError):
            evaluate([good], [[small]], k_small=0)
        with pytest.raises(ValueError, match="k must be at least 1"):
            evaluate([good], [good], k_small=0)

    def test_recall_functions_check_every_prediction(self, s0):
        good = scene_annotations(s0)
        small = InstanceAnnotation.from_masks(
            9, BinaryMask(np.ones((2, 2), bool)), BinaryMask(np.ones((2, 2), bool)), score=0.0
        )
        # like evaluate, the recall functions reject a mis-sized mask even past the budget
        with pytest.raises(DimensionMismatchError):
            average_recall([good], [good + [small]], 1)
        with pytest.raises(DimensionMismatchError):
            stratified_ar([good], [good + [small]], 1)
        # a bad k still comes before the dimension check, and only with some gt
        with pytest.raises(ValueError, match="k must be at least 1"):
            average_recall([good], [[small]], 0)
        with pytest.raises(ValueError, match="k must be at least 1"):
            stratified_ar([good], [[small]], 0)
        assert stratified_ar([[]], [[small]], 0) == (None, None, None)
