import dataclasses
import warnings

import numpy as np
import pytest

from semdist import (
    BinaryMask,
    DimensionMismatchError,
    EvalReport,
    InstanceAnnotation,
    InstanceRecord,
    LayeringMap,
    LayerStackScene,
    RelativeOrderMap,
    SemDistError,
    SemDistMap,
    UnknownInstanceError,
    amodal_mask_of,
    decode_modal,
    overlap_region,
    semdist_to_bytes,
    validate_scene,
    visible_mask_of,
)


class TestBinaryMask:
    def test_copies_and_freezes_input(self):
        raw = np.ones((2, 2), dtype=bool)
        mask = BinaryMask(raw)
        raw[0, 0] = False
        assert mask.bits[0, 0]
        with pytest.raises(ValueError):
            mask.bits[0, 0] = False

    def test_area_and_dims(self):
        mask = BinaryMask(np.eye(3, dtype=bool))
        assert mask.area() == 3
        assert (mask.width, mask.height) == (3, 3)

    def test_subset(self):
        small = BinaryMask(np.array([[True, False], [False, False]]))
        big = BinaryMask(np.array([[True, True], [False, False]]))
        assert small.is_subset_of(big)
        assert not big.is_subset_of(small)

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            BinaryMask.zeros(2, 2).require_same_shape(BinaryMask.zeros(3, 2))

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            BinaryMask(np.zeros(4, dtype=bool))
        with pytest.raises(ValueError):
            BinaryMask(np.zeros((0, 3), dtype=bool))

    def test_equality_is_content_based(self):
        a = BinaryMask(np.eye(2, dtype=bool))
        b = BinaryMask(np.eye(2, dtype=bool))
        assert a == b
        assert a != BinaryMask.zeros(2, 2)


class TestInstanceRecord:
    @pytest.mark.parametrize("bad", [0, -1, True, 1.5, "1"])
    def test_rejects_bad_ids(self, bad):
        with pytest.raises(ValueError):
            InstanceRecord(bad)

    def test_category_optional(self):
        assert InstanceRecord(1).category is None
        assert InstanceRecord(1, "disc").category == "disc"

    @pytest.mark.parametrize("category", [7, b"disc", ["disc"]])
    def test_rejects_a_category_that_is_not_a_string(self, category):
        with pytest.raises(ValueError, match=r"^category must be a string or None, got "):
            InstanceRecord(1, category)


class TestLayerStackScene:
    def test_s0_stacks(self, s0):
        assert s0.stack_at(0, 0) == (1,)
        assert s0.stack_at(1, 1) == (1, 2)
        assert s0.stack_at(2, 2) == (2,)
        assert s0.max_depth() == 2
        assert s0.ids() == (1, 2)

    def test_depth_counts(self, s0):
        counts = s0.depth_counts()
        assert counts.tolist() == [[1, 1, 1], [2, 2, 2], [1, 1, 1]]

    def test_trailing_empty_planes_trimmed(self):
        stacks = np.zeros((4, 2, 2), dtype=np.int32)
        stacks[0, 0, 0] = 1
        scene = LayerStackScene(2, 2, (InstanceRecord(1),), stacks)
        assert scene.stacks.shape == (1, 2, 2)

    def test_from_layers_duplicate_id_rejected(self):
        mask = BinaryMask(np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            LayerStackScene.from_layers(
                2, 2, [(InstanceRecord(1), mask), (InstanceRecord(1), mask)]
            )

    def test_from_layers_id_beyond_int32_rejected(self):
        mask = BinaryMask(np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError, match=str(2**40)):
            LayerStackScene.from_layers(2, 2, [(InstanceRecord(2**40), mask)])

    def test_from_layers_id_beyond_int32_without_pixels_kept(self):
        mask = BinaryMask(np.ones((2, 2), dtype=bool))
        scene = LayerStackScene.from_layers(
            2, 2, [(InstanceRecord(1), mask), (InstanceRecord(2**40), BinaryMask.zeros(2, 2))]
        )
        assert scene.ids() == (1, 2**40)
        assert scene.stacks.tolist() == [[[1, 1], [1, 1]]]

    def test_from_layers_id_past_int64_without_pixels_kept(self):
        # such an id never meets numpy: it would not fit any integer array
        mask = BinaryMask(np.ones((2, 2), dtype=bool))
        scene = LayerStackScene.from_layers(
            2, 2, [(InstanceRecord(2**70), BinaryMask.zeros(2, 2)), (InstanceRecord(3), mask)]
        )
        assert scene.ids() == (2**70, 3)
        assert scene.stacks.tolist() == [[[3, 3], [3, 3]]]
        assert amodal_mask_of(scene, 2**70).area() == 0

    @pytest.mark.parametrize(
        "stacks, shown",
        [
            (np.array([[[2**31 + 5]]], np.int64), "2147483653"),
            (np.array([[[-(2**31) - 1]]], np.int64), "-2147483649"),
            (np.array([[[2**63]]], np.uint64), "9223372036854775808"),
            (np.array([[[1.7]]]), "1.7"),
            (np.array([[[np.inf]]]), "inf"),
            (np.array([[[np.nan]]]), "nan"),
            ([[[2**31]]], "2147483648"),
            ([[[2**70]]], str(2**70)),
        ],
        ids=["int64", "int64-low", "uint64", "fraction", "inf", "nan", "list", "list-past-int64"],
    )
    def test_constructor_rejects_values_int32_does_not_hold(self, stacks, shown):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # NaN raises before the cast could warn
            with pytest.raises(ValueError, match=f"stack value {shown} does not fit the int32 stacks"):
                LayerStackScene(1, 1, (), stacks)

    def test_constructor_keeps_integral_values_of_any_dtype(self):
        for stacks in (np.ones((1, 1, 2)), [[[2**31 - 1, -(2**31)]]], np.array([[[1, 0]]], np.uint64)):
            scene = LayerStackScene(2, 1, (), stacks)
            assert scene.stacks.dtype == np.int32
            assert scene.stacks.tolist() == np.asarray(stacks).astype(np.int64).tolist()

    def test_from_layers_zero_width_rejected(self):
        with pytest.raises(ValueError, match="at least 1x1"):
            LayerStackScene.from_layers(0, 2, [])

    def test_from_layers_stacks_follow_layer_order(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(20):
            height, width = (int(v) for v in rng.integers(1, 7, size=2))
            bits = rng.uniform(size=(int(rng.integers(0, 6)), height, width)) < 0.5
            records = [InstanceRecord(int(k)) for k in rng.permutation(np.arange(1, 9))]
            layers = list(zip(records, map(BinaryMask, bits)))
            scene = LayerStackScene.from_layers(width, height, layers)
            for y in range(height):
                for x in range(width):
                    expected = tuple(r.id for r, mask in layers if mask.bits[y, x])
                    assert scene.stack_at(x, y) == expected
            assert scene.stacks.shape[0] == int(bits.sum(axis=0).max(initial=0))

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 2, (), np.zeros((0, 2, 0), np.int32)), "at least 1x1"),
            ((2, 2, (1,), np.zeros((0, 2, 2), np.int32)), "must be InstanceRecord"),
            ((2, 2, (), np.zeros((1, 2, 3), np.int32)), r"shape \(depth, 2, 2\)"),
            ((2, 2, (), np.zeros((2, 2), np.int32)), r"shape \(depth, 2, 2\)"),
        ],
    )
    def test_constructor_errors(self, args, message):
        with pytest.raises(ValueError, match=message):
            LayerStackScene(*args)

    def test_from_layers_checks_mask_dims(self):
        with pytest.raises(DimensionMismatchError):
            LayerStackScene.from_layers(
                2, 2, [(InstanceRecord(1), BinaryMask.zeros(3, 3))]
            )

    def test_stack_at_bounds(self, s0):
        with pytest.raises(IndexError):
            s0.stack_at(3, 0)

    def test_record_lookup(self, s0):
        assert s0.record_of(2).category == "back"
        with pytest.raises(UnknownInstanceError):
            s0.record_of(9)


def test_scene_never_equals_a_non_scene(s0):
    assert s0.__eq__(3) is NotImplemented
    assert (s0 == 3) is False and s0 != 3


def test_scene_equality_ignores_construction_path(s0):
    stacks = np.zeros((2, 3, 3), dtype=np.int32)
    stacks[0, 0, :] = 1
    stacks[0, 1, :] = 1
    stacks[1, 1, :] = 2
    stacks[0, 2, :] = 2
    twin = LayerStackScene(
        3, 3, (InstanceRecord(1, "front"), InstanceRecord(2, "back")), stacks
    )
    assert twin == s0


class TestValidateScene:
    def test_clean_scene(self, s0):
        assert validate_scene(s0) == []

    def test_duplicate_instance_listing(self):
        scene = LayerStackScene(
            2, 2, (InstanceRecord(1), InstanceRecord(1)), np.zeros((0, 2, 2), np.int32)
        )
        kinds = [v.kind for v in validate_scene(scene)]
        assert kinds == ["duplicate_instance"]

    def test_unknown_and_invalid_ids(self):
        stacks = np.zeros((1, 2, 2), dtype=np.int32)
        stacks[0, 0, 0] = 7
        stacks[0, 1, 1] = -3
        scene = LayerStackScene(2, 2, (InstanceRecord(1),), stacks)
        kinds = {v.kind for v in validate_scene(scene)}
        assert kinds == {"unknown_id", "invalid_id"}

    def test_duplicate_id_in_stack(self):
        stacks = np.zeros((2, 2, 2), dtype=np.int32)
        stacks[:, 0, 0] = 1
        scene = LayerStackScene(2, 2, (InstanceRecord(1),), stacks)
        violations = validate_scene(scene)
        assert [v.kind for v in violations] == ["duplicate_id_in_stack"]
        assert violations[0].pixel == (0, 0)

    def test_unknown_id_witness_is_its_first_entry_planes_first(self):
        stacks = np.zeros((2, 2, 2), dtype=np.int32)
        stacks[0, 0, 0] = 1
        stacks[1, 0, 0] = 7  # row-major first, but on the second plane
        stacks[0, 1, 1] = 7
        scene = LayerStackScene(2, 2, (InstanceRecord(1),), stacks)
        (violation,) = validate_scene(scene)
        assert (violation.kind, violation.pixel, violation.instance_id) == ("unknown_id", (1, 1), 7)

    def test_repeated_id_witness_is_its_first_pixel_row_major(self):
        stacks = np.zeros((3, 2, 2), dtype=np.int32)
        stacks[:2, 1, 0] = 2  # on the front planes, but on the second row
        stacks[0, 0, 1] = 3
        stacks[1:, 0, 1] = 2
        stacks[:2, 0, 0] = 3
        scene = LayerStackScene(2, 2, (InstanceRecord(2), InstanceRecord(3)), stacks)
        found = [(v.kind, v.pixel, v.instance_id) for v in validate_scene(scene)]
        assert found == [
            ("duplicate_id_in_stack", (0, 0), 3),
            ("duplicate_id_in_stack", (1, 0), 2),
        ]

    def test_gap_in_stack(self):
        stacks = np.zeros((2, 2, 2), dtype=np.int32)
        stacks[1, 0, 1] = 1  # occupied slot below an empty one
        scene = LayerStackScene(2, 2, (InstanceRecord(1),), stacks)
        violations = validate_scene(scene)
        assert [v.kind for v in violations] == ["gap_in_stack"]
        assert violations[0].pixel == (1, 0)


class TestMaskExtraction:
    def test_s0_masks(self, s0):
        amodal_b = amodal_mask_of(s0, 2)
        visible_b = visible_mask_of(s0, 2)
        assert amodal_b.bits.tolist() == [
            [False, False, False],
            [True, True, True],
            [True, True, True],
        ]
        assert visible_b.bits.tolist() == [
            [False, False, False],
            [False, False, False],
            [True, True, True],
        ]
        assert visible_mask_of(s0, 1) == amodal_mask_of(s0, 1)

    def test_unknown_instance(self, s0):
        with pytest.raises(UnknownInstanceError):
            amodal_mask_of(s0, 42)
        with pytest.raises(UnknownInstanceError):
            visible_mask_of(s0, 42)


class TestSemDistMap:
    def test_rejects_values_at_or_above_one(self):
        with pytest.raises(ValueError):
            SemDistMap(np.ones((2, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            SemDistMap(np.full((2, 2), 1.5, dtype=np.float32))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SemDistMap(np.array([[0.5, np.nan]], dtype=np.float32))
        with pytest.raises(ValueError):
            SemDistMap(np.array([[-np.inf, 0.0]], dtype=np.float32))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            SemDistMap(np.zeros(4, dtype=np.float32))

    def test_stores_float32_read_only(self):
        semdist = SemDistMap(np.zeros((2, 3)))
        assert semdist.values.dtype == np.float32
        assert (semdist.width, semdist.height) == (3, 2)
        with pytest.raises(ValueError):
            semdist.values[0, 0] = 0.5

    def test_equality_bitwise(self):
        a = SemDistMap(np.full((2, 2), 0.25, dtype=np.float32))
        b = SemDistMap(np.full((2, 2), 0.25, dtype=np.float32))
        c = SemDistMap(np.full((2, 2), 0.75, dtype=np.float32))
        assert a == b and a != c

    def test_signed_zeros_compare_unequal(self):
        negative = SemDistMap(np.array([[-0.0, 0.5]], dtype=np.float32))
        positive = SemDistMap(np.array([[0.0, 0.5]], dtype=np.float32))
        # the two differ in their support box, their file bytes and their modal bits
        assert negative._support_box != positive._support_box
        assert semdist_to_bytes(negative) != semdist_to_bytes(positive)
        bits = [decode_modal(m).view(np.uint32) for m in (negative, positive)]
        assert not np.array_equal(*bits)
        assert negative != positive and not negative == positive
        assert negative == SemDistMap(np.array([[-0.0, 0.5]], dtype=np.float32))
        assert positive == SemDistMap(np.array([[0.0, 0.5]], dtype=np.float32))
        layering = LayeringMap(np.array([[[-0.0, 1.0]]], dtype=np.float32))
        assert layering != LayeringMap(np.array([[[0.0, 1.0]]], dtype=np.float32))
        assert layering == LayeringMap(np.array([[[-0.0, 1.0]]], dtype=np.float32))


class TestLayeringMap:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            LayeringMap(np.full((1, 2, 2), -0.1, dtype=np.float32))
        with pytest.raises(ValueError):
            LayeringMap(np.full((1, 2, 2), 1.1, dtype=np.float32))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        values = np.zeros((1, 2, 2), dtype=np.float32)
        values[0, 1, 0] = value
        with pytest.raises(ValueError, match=r"^layering values must be finite$"):
            LayeringMap(values)

    def test_channel_access(self):
        values = np.zeros((2, 2, 2), dtype=np.float32)
        values[1] = 1.0
        layering = LayeringMap(values)
        assert layering.layer_count == 2
        assert layering.channel(1).all()
        assert layering.is_binary()
        with pytest.raises(IndexError):
            layering.channel(2)

    def test_fractional_values_not_binary(self):
        layering = LayeringMap(np.full((1, 2, 2), 0.5, dtype=np.float32))
        assert not layering.is_binary()


class TestInstanceAnnotation:
    def test_visible_must_stay_inside_amodal(self):
        amodal = BinaryMask(np.array([[True, False]]))
        visible = BinaryMask(np.array([[False, True]]))
        with pytest.raises(ValueError):
            InstanceAnnotation(1, amodal, visible, occlusion_rate=0.0)

    def test_rate_must_match_areas(self):
        amodal = BinaryMask(np.array([[True, True]]))
        visible = BinaryMask(np.array([[True, False]]))
        with pytest.raises(ValueError):
            InstanceAnnotation(1, amodal, visible, occlusion_rate=0.9)
        ok = InstanceAnnotation(1, amodal, visible, occlusion_rate=0.5)
        assert ok.occlusion_rate == 0.5

    def test_from_masks_derives_rate(self):
        amodal = BinaryMask(np.array([[True, True, True, True]]))
        visible = BinaryMask(np.array([[True, False, False, False]]))
        ann = InstanceAnnotation.from_masks(3, amodal, visible)
        assert ann.occlusion_rate == 0.75

    def test_from_masks_takes_bare_bool_arrays(self):
        amodal = np.array([[True, True], [True, False]])
        visible = np.array([[True, False], [False, False]])
        ann = InstanceAnnotation.from_masks(4, amodal, visible, score=0.5, category="cup")
        assert isinstance(ann.amodal, BinaryMask) and isinstance(ann.visible, BinaryMask)
        assert ann == InstanceAnnotation.from_masks(
            4, BinaryMask(amodal), BinaryMask(visible), score=0.5, category="cup"
        )
        assert ann.occlusion_rate == 1.0 - 1 / 3
        with pytest.raises(ValueError, match="^instance 4 has an empty amodal mask$"):
            InstanceAnnotation.from_masks(4, np.zeros((2, 2), bool), np.zeros((2, 2), bool))

    def test_from_masks_rejects_empty_amodal(self):
        with pytest.raises(ValueError):
            InstanceAnnotation.from_masks(1, BinaryMask.zeros(2, 2), BinaryMask.zeros(2, 2))

    @pytest.mark.parametrize("rate, shown", [(-0.1, "-0.1"), (1.5, "1.5"), (float("nan"), "nan")])
    def test_occlusion_rate_bounds(self, rate, shown):
        mask = BinaryMask(np.ones((1, 1), dtype=bool))
        with pytest.raises(ValueError) as err:
            InstanceAnnotation(1, mask, mask, occlusion_rate=rate)
        assert str(err.value) == f"occlusion_rate must lie in [0, 1], got {shown}"

    @pytest.mark.parametrize("score", [-0.1, 1.1])
    def test_score_bounds(self, score):
        mask = BinaryMask(np.ones((1, 1), dtype=bool))
        with pytest.raises(ValueError):
            InstanceAnnotation(1, mask, mask, occlusion_rate=0.0, score=score)


def test_annotation_equality_follows_its_fields():
    amodal = BinaryMask(np.array([[1, 1], [1, 0]], dtype=bool))
    visible = BinaryMask(np.array([[1, 0], [1, 0]], dtype=bool))
    base = InstanceAnnotation.from_masks(1, amodal, visible, score=0.5, category="cup")
    copy = InstanceAnnotation.from_masks(
        1, BinaryMask(amodal.bits.copy()), BinaryMask(visible.bits.copy()),
        score=0.5, category="cup",
    )
    assert base == copy and not base != copy
    # same areas, so the occlusion rate still agrees with the masks
    other_amodal = BinaryMask(np.array([[1, 0], [1, 1]], dtype=bool))
    other_visible = BinaryMask(np.array([[1, 1], [0, 0]], dtype=bool))
    changed = [
        dataclasses.replace(base, id=2),
        dataclasses.replace(base, amodal=other_amodal),
        dataclasses.replace(base, visible=other_visible),
        dataclasses.replace(base, score=0.25),
        dataclasses.replace(base, category="bowl"),
        dataclasses.replace(base, category=None),
    ]
    for other in changed:
        assert base != other and not base == other, other
    # occlusion_rate alone differs within the rate tolerance of the mask areas
    nudged = dataclasses.replace(base, occlusion_rate=base.occlusion_rate + 1e-12)
    assert base != nudged
    with pytest.raises(TypeError):
        hash(base)
    assert (base == "annotation") is False
    assert (base == base.amodal) is False


class TestEvalReport:
    def test_optional_fields_accept_none(self):
        report = EvalReport(
            ap=0.5, ar10=0.5, ar100=0.5,
            ar_none=None, ar_partial=None, ar_heavy=None, order_accuracy=None,
        )
        assert report.ar_none is None

    def test_unit_interval_enforced(self):
        with pytest.raises(ValueError):
            EvalReport(
                ap=1.5, ar10=0.5, ar100=0.5,
                ar_none=None, ar_partial=None, ar_heavy=None, order_accuracy=None,
            )


def test_every_error_is_a_semdist_error():
    assert issubclass(UnknownInstanceError, SemDistError)
    assert issubclass(DimensionMismatchError, SemDistError)


# One frozen-grid base serves all four grid types; each must keep the same contract.
_GRID_TYPES = [
    (BinaryMask, "bits", np.ones((2, 3), dtype=bool)),
    (SemDistMap, "values", np.full((2, 3), 0.5, dtype=np.float32)),
    (LayeringMap, "values", np.full((1, 2, 3), 0.5, dtype=np.float32)),
    (RelativeOrderMap, "values", np.ones((2, 3), dtype=np.int32)),
]


@pytest.mark.parametrize(
    "cls, field, payload", _GRID_TYPES, ids=[cls.__name__ for cls, _, _ in _GRID_TYPES]
)
class TestFrozenGrid:
    def test_copies_input_and_is_read_only(self, cls, field, payload):
        raw = payload.copy()
        grid = cls(raw)
        raw[...] = 0
        assert np.array_equal(getattr(grid, field), payload)
        assert (grid.width, grid.height) == (3, 2)
        with pytest.raises(ValueError):
            getattr(grid, field)[..., 0, 0] = 0

    def test_rejects_wrong_rank_and_empty_axes(self, cls, field, payload):
        with pytest.raises(ValueError):
            cls(payload[..., 0])
        with pytest.raises(ValueError):
            cls(payload[None])
        for axis in range(payload.ndim):
            with pytest.raises(ValueError):
                cls(np.take(payload, [], axis=axis))

    def test_equal_by_content_and_unhashable(self, cls, field, payload):
        assert cls(payload) == cls(payload.copy())
        assert cls(payload) != cls(np.zeros_like(payload))
        assert cls(payload) != cls(np.concatenate([payload, payload], axis=-1))
        with pytest.raises(TypeError):
            hash(cls(payload))


def test_grids_of_different_types_never_compare_equal():
    zeros = np.zeros((2, 2))
    grids = [
        BinaryMask(zeros),
        SemDistMap(zeros),
        RelativeOrderMap(zeros),
        LayeringMap(zeros[None]),
    ]
    assert SemDistMap(zeros) != RelativeOrderMap(zeros)
    for i, a in enumerate(grids):
        for j, b in enumerate(grids):
            assert (a == b) is (i == j)
            assert (a != b) is (i != j)


def test_dimension_mismatch_names_the_grid_kind():
    with pytest.raises(DimensionMismatchError, match="^mask dimensions differ: 2x2 vs 3x2$"):
        BinaryMask.zeros(2, 2).require_same_shape(BinaryMask.zeros(3, 2))
    with pytest.raises(DimensionMismatchError, match="^map dimensions differ: 2x2 vs 3x2$"):
        overlap_region(SemDistMap(np.zeros((2, 2))), SemDistMap(np.zeros((2, 3))))
