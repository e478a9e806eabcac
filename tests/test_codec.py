import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdist import (
    LEVEL_ABSENT,
    ConfidencePolicy,
    ConfidencePrecisionError,
    DimensionMismatchError,
    InstanceRecord,
    LayerCountError,
    LayeringMap,
    LayerStackScene,
    OrderVerdict,
    SemDistMap,
    UnknownInstanceError,
    amodal_mask_of,
    decode_amodal,
    decode_levels,
    decode_modal,
    encode_scene,
    encode_semdist,
    global_layering_target,
    instance_layering_target,
    object_order,
    order_regions,
    overlap_region,
    PerturbConfig,
    perturb_semdist,
    relative_order,
    semdist_from_layering,
    visibility_levels,
    visible_mask_of,
)
from semdist.codec import _semdist_from_levels
from semdist.types import _box_of, _window

F = np.float32


class TestVisibilityLevels:
    def test_s0_front_instance(self, s0):
        levels = visibility_levels(s0, 1)
        assert levels.tolist() == [[0, 0, 0], [0, 0, 0], [-1, -1, -1]]

    def test_s0_occluded_instance(self, s0):
        levels = visibility_levels(s0, 2)
        assert levels.tolist() == [[-1, -1, -1], [1, 1, 1], [0, 0, 0]]

    def test_unknown_instance(self, s0):
        with pytest.raises(UnknownInstanceError):
            visibility_levels(s0, 5)


class TestEncode:
    def test_s0_occluded_instance_rows(self, s0):
        semdist = encode_semdist(s0, 2, 0.9)
        occluded_value = F(0.9) - F(1.0)
        assert semdist.values[0].tolist() == [0.0, 0.0, 0.0]
        assert np.all(semdist.values[1] == occluded_value)
        assert np.all(semdist.values[2] == F(0.9))
        assert abs(float(occluded_value) + 0.1) < 1e-6

    def test_s0_front_instance_rows(self, s0):
        semdist = encode_semdist(s0, 1, 0.9)
        assert np.all(semdist.values[0:2] == F(0.9))
        assert np.all(semdist.values[2] == 0.0)

    def test_zero_reserved_for_background(self, s0):
        semdist = encode_semdist(s0, 2)
        support = amodal_mask_of(s0, 2).bits
        assert np.all(semdist.values[~support] == 0.0)
        assert np.all(semdist.values[support] != 0.0)

    def test_per_pixel_policy(self, s0):
        grid = np.full((3, 3), 0.6, dtype=np.float32)
        grid[0, 0] = 0.8
        semdist = encode_semdist(s0, 1, ConfidencePolicy(grid_values=grid))
        assert semdist.values[0, 0] == F(0.8)
        assert semdist.values[0, 1] == F(0.6)

    def test_unknown_instance(self, s0):
        with pytest.raises(UnknownInstanceError):
            encode_semdist(s0, 9)


class TestEncodeScene:
    @staticmethod
    def _assert_matches_per_instance(scene, policy):
        maps = encode_scene(scene, policy)
        assert tuple(maps) == scene.ids()
        for instance_id, semdist in maps.items():
            expected = encode_semdist(scene, instance_id, policy)
            assert semdist.values.tobytes() == expected.values.tobytes()

    def test_constant_policy_matches_encode_semdist(self, corpus):
        for scene in corpus[:10]:
            self._assert_matches_per_instance(scene, 0.95)
            self._assert_matches_per_instance(scene, ConfidencePolicy(constant=0.3))

    def test_grid_policy_matches_encode_semdist(self, corpus):
        rng = np.random.default_rng(5)
        for scene in corpus[:10]:
            grid = rng.uniform(0.01, 0.99, size=(scene.height, scene.width))
            self._assert_matches_per_instance(scene, ConfidencePolicy(grid_values=grid))

    def test_front_most_level_wins_and_unknown_ids_are_ignored(self):
        # instance 1 sits twice in the left column stack; 9 is not a scene instance
        stacks = np.array([[[2, 9]], [[1, 1]], [[1, 0]]], dtype=np.int32)
        scene = LayerStackScene(2, 1, (InstanceRecord(2), InstanceRecord(1)), stacks)
        self._assert_matches_per_instance(scene, 0.9)
        assert encode_scene(scene, 0.9)[1].values.tolist() == [[F(0.9) - F(1.0), F(0.9) - F(1.0)]]

    def test_deep_stacks_keep_exact_levels(self):
        stacks = np.zeros((300, 1, 2), dtype=np.int32)
        stacks[:, 0, 0] = np.arange(300) + 2
        stacks[299, 0, 1] = 1  # instance 1 sits behind 299 others in one column
        scene = LayerStackScene(2, 1, tuple(InstanceRecord(i) for i in range(1, 302)), stacks)
        self._assert_matches_per_instance(scene, 0.9)
        assert encode_scene(scene, 0.9)[1].values[0, 1] == F(0.9) - F(299.0)

    def test_zero_depth_planes(self):
        stacks = np.zeros((0, 2, 3), dtype=np.int32)
        scene = LayerStackScene(3, 2, (InstanceRecord(4), InstanceRecord(2)), stacks)
        assert scene.stacks.shape[0] == 0
        maps = encode_scene(scene)
        assert tuple(maps) == (4, 2)
        for semdist in maps.values():
            assert semdist.values.tolist() == [[0.0] * 3] * 2
        self._assert_matches_per_instance(scene, 0.95)

    def test_bad_policy_raises_without_instances(self):
        scene = LayerStackScene(3, 2, (), np.zeros((0, 2, 3), dtype=np.int32))
        with pytest.raises(ValueError):
            encode_scene(scene, 1.5)
        with pytest.raises(DimensionMismatchError):
            encode_scene(scene, ConfidencePolicy(grid_values=np.full((3, 3), 0.5)))


class TestConfidencePolicy:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_constant_must_be_interior(self, bad):
        with pytest.raises(ValueError):
            ConfidencePolicy(constant=bad)

    def test_grid_values_must_be_interior(self):
        with pytest.raises(ValueError):
            ConfidencePolicy(grid_values=np.array([[0.5, 1.0]]))

    @pytest.mark.parametrize("shape, rank", [((4,), 1), ((2, 2, 2), 3)])
    def test_grid_values_must_be_2d(self, shape, rank):
        with pytest.raises(ValueError, match=rf"^confidence grid must be 2-D, got {rank}-D$"):
            ConfidencePolicy(grid_values=np.full(shape, 0.5))

    def test_modes(self):
        assert ConfidencePolicy(0.7).mode == "constant"
        assert ConfidencePolicy(grid_values=np.full((2, 2), 0.7)).mode == "map"

    def test_grid_shape_must_match(self):
        policy = ConfidencePolicy(grid_values=np.full((2, 2), 0.7))
        with pytest.raises(DimensionMismatchError):
            policy.grid(3, 3)

    def test_constant_expands(self):
        grid = ConfidencePolicy(0.7).grid(2, 4)
        assert grid.shape == (2, 4) and grid.dtype == np.float32
        assert np.all(grid == F(0.7))


class TestDecode:
    def test_modal_passthrough_and_suppression(self, s0):
        semdist = encode_semdist(s0, 2, 0.9)
        modal = decode_modal(semdist)
        assert np.all(modal[2] == F(0.9))
        assert np.all(modal[0:2] == 0.0)

    def test_amodal_fraction_recovers_confidence(self, s0):
        semdist = encode_semdist(s0, 2, 0.9)
        amodal = decode_amodal(semdist)
        # one level of occlusion subtracts exactly 1, so the fraction returns
        # bit-identical to the stored confidence
        assert np.all(amodal[1] == F(0.9))
        assert np.all(amodal[2] == F(0.9))
        assert np.all(amodal[0] == 0.0)

    def test_levels_round_trip(self, s0):
        semdist = encode_semdist(s0, 2, 0.9)
        assert np.array_equal(decode_levels(semdist), visibility_levels(s0, 2))

    def test_levels_threshold_above_confidence_blanks_all(self, s0):
        semdist = encode_semdist(s0, 2, 0.9)
        assert np.all(decode_levels(semdist, 0.95) == LEVEL_ABSENT)

    def test_threshold_boundary_is_inclusive(self, s0):
        semdist = encode_semdist(s0, 2, 0.5)
        levels = decode_levels(semdist, 0.5)
        assert np.array_equal(levels, visibility_levels(s0, 2))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 2.0])
    def test_threshold_validation(self, bad, s0):
        semdist = encode_semdist(s0, 1)
        with pytest.raises(ValueError):
            decode_levels(semdist, bad)

    def test_support_sets_match_masks(self, corpus):
        for scene in corpus[:10]:
            for record in scene.instances:
                semdist = encode_semdist(scene, record.id)
                amodal = decode_amodal(semdist) > 0.0
                modal = decode_modal(semdist) > 0.0
                assert np.array_equal(amodal, amodal_mask_of(scene, record.id).bits)
                assert np.array_equal(modal, visible_mask_of(scene, record.id).bits)


class TestOverlapAndOrder:
    def test_s0_overlap_is_the_shared_row(self, s0):
        map_a = encode_semdist(s0, 1, 0.9)
        map_b = encode_semdist(s0, 2, 0.9)
        omega = overlap_region(map_a, map_b)
        assert omega.bits.tolist() == [
            [False, False, False],
            [True, True, True],
            [False, False, False],
        ]

    def test_overlap_threshold_is_strict(self, s0):
        map_a = encode_semdist(s0, 1, 0.9)
        map_b = encode_semdist(s0, 2, 0.9)
        # joint confidence is float32(0.9)^2 which sits just below 0.81
        assert overlap_region(map_a, map_b, 0.9).area() == 0
        assert overlap_region(map_a, map_b, 0.89).area() == 3

    def test_s0_relative_order(self, s0):
        map_a = encode_semdist(s0, 1, 0.9)
        map_b = encode_semdist(s0, 2, 0.9)
        votes = relative_order(map_a, map_b)
        assert votes.values.tolist() == [[0, 0, 0], [1, 1, 1], [0, 0, 0]]
        flipped = relative_order(map_b, map_a)
        assert np.array_equal(flipped.values, -votes.values)

    def test_s0_object_order(self, s0):
        map_a = encode_semdist(s0, 1)
        map_b = encode_semdist(s0, 2)
        assert object_order(map_a, map_b) == OrderVerdict.A_IN_FRONT
        assert object_order(map_b, map_a) == OrderVerdict.B_IN_FRONT
        regions = order_regions(map_a, map_b)
        assert regions.overlap_area == 3
        assert regions.largest_front_region == 3
        assert regions.largest_behind_region == 0

    def test_disjoint_maps(self):
        values_a = np.zeros((2, 4), dtype=np.float32)
        values_a[:, :2] = F(0.95)
        values_b = np.zeros((2, 4), dtype=np.float32)
        values_b[:, 2:] = F(0.95)
        verdict = object_order(SemDistMap(values_a), SemDistMap(values_b))
        assert verdict == OrderVerdict.DISJOINT

    def test_exact_tie_is_ambiguous(self):
        # each instance is in front in one 2-pixel column: a perfect tie
        values_a = np.array([[0.95, -0.05], [0.95, -0.05]], dtype=np.float32)
        values_b = np.array([[-0.05, 0.95], [-0.05, 0.95]], dtype=np.float32)
        regions = order_regions(SemDistMap(values_a), SemDistMap(values_b))
        assert regions.verdict == OrderVerdict.AMBIGUOUS
        assert regions.largest_front_region == regions.largest_behind_region == 2

    def test_mutual_occlusion_majority_by_largest_region(self):
        # stacks disagree per pixel: instance 1 in front over a 5-pixel
        # region, instance 2 in front over a 3-pixel region, one pixel
        # belongs to instance 1 alone
        stacks = np.zeros((2, 3, 3), dtype=np.int32)
        a_front = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
        b_front = [(1, 2), (2, 1), (2, 2)]
        for y, x in a_front:
            stacks[:, y, x] = (1, 2)
        for y, x in b_front:
            stacks[:, y, x] = (2, 1)
        stacks[0, 2, 0] = 1
        scene = LayerStackScene(3, 3, (InstanceRecord(1), InstanceRecord(2)), stacks)
        map_a = encode_semdist(scene, 1)
        map_b = encode_semdist(scene, 2)
        regions = order_regions(map_a, map_b)
        assert regions.largest_front_region == 5
        assert regions.largest_behind_region == 3
        assert regions.verdict == OrderVerdict.A_IN_FRONT

    def test_four_connectivity_splits_diagonals(self):
        # three diagonal A-front pixels are singletons under 4-connectivity,
        # so the 2-pixel B-front bar wins; diagonal adjacency would flip this
        stacks = np.zeros((2, 3, 3), dtype=np.int32)
        for y, x in [(0, 0), (1, 1), (2, 2)]:
            stacks[:, y, x] = (1, 2)
        for y, x in [(0, 1), (0, 2)]:
            stacks[:, y, x] = (2, 1)
        scene = LayerStackScene(3, 3, (InstanceRecord(1), InstanceRecord(2)), stacks)
        regions = order_regions(encode_semdist(scene, 1), encode_semdist(scene, 2))
        assert regions.largest_front_region == 1
        assert regions.largest_behind_region == 2
        assert regions.verdict == OrderVerdict.B_IN_FRONT

    def test_dimension_mismatch(self, s0):
        map_a = encode_semdist(s0, 1)
        other = SemDistMap(np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(DimensionMismatchError):
            overlap_region(map_a, other)


class TestLayeringTargets:
    def test_global_target_s0(self, s0):
        layering = global_layering_target(s0, 2)
        assert layering.channel(0).tolist() == [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
        assert layering.channel(1).tolist() == [[0, 0, 0], [1, 1, 1], [0, 0, 0]]
        assert layering.is_binary()

    def test_global_target_too_few_layers(self, s0):
        with pytest.raises(LayerCountError) as err:
            global_layering_target(s0, 1)
        assert err.value.required == 2 and err.value.requested == 1

    def test_global_target_nested(self, corpus):
        for scene in corpus[:8]:
            layering = global_layering_target(scene, scene.max_depth())
            for k in range(1, layering.layer_count):
                upper = layering.channel(k).astype(bool)
                lower = layering.channel(k - 1).astype(bool)
                assert not (upper & ~lower).any()

    def test_instance_target_s0(self, s0):
        layering = instance_layering_target(s0, 2, 2)
        assert layering.channel(0).tolist() == [[0, 0, 0], [0, 0, 0], [1, 1, 1]]
        assert layering.channel(1).tolist() == [[0, 0, 0], [1, 1, 1], [0, 0, 0]]

    def test_instance_target_channels_sum_to_amodal(self, corpus):
        for scene in corpus[:8]:
            depth = scene.max_depth()
            for record in scene.instances:
                layering = instance_layering_target(scene, record.id, depth)
                total = layering.values.sum(axis=0)
                assert np.array_equal(total > 0, amodal_mask_of(scene, record.id).bits)
                assert float(total.max()) <= 1.0  # one-hot per pixel

    def test_instance_target_too_few_layers(self, s0):
        with pytest.raises(LayerCountError):
            instance_layering_target(s0, 2, 1)
        # the fully visible instance fits in a single layer
        assert instance_layering_target(s0, 1, 1).layer_count == 1

    @pytest.mark.parametrize("bad", [0, -1])
    def test_layer_count_must_be_positive(self, s0, bad):
        with pytest.raises(ValueError):
            global_layering_target(s0, bad)
        with pytest.raises(ValueError):
            instance_layering_target(s0, 1, bad)


class TestSemdistFromLayering:
    def test_binary_target_reproduces_encoding_bit_for_bit(self, s0):
        for instance_id in (1, 2):
            layering = instance_layering_target(s0, instance_id, 2)
            rebuilt = semdist_from_layering(layering, 0.95)
            assert rebuilt == encode_semdist(s0, instance_id, 0.95)

    def test_soft_channels_pick_strongest_level(self):
        layering = LayeringMap(np.array([[[0.3]], [[0.8]]], dtype=np.float32))
        semdist = semdist_from_layering(layering, 0.95)
        assert semdist.values[0, 0] == F(0.8) - F(1.0)
        assert abs(float(semdist.values[0, 0]) + 0.2) < 1e-6

    def test_policy_caps_confidence(self):
        layering = LayeringMap(np.array([[[0.9]]], dtype=np.float32))
        semdist = semdist_from_layering(layering, 0.6)
        assert semdist.values[0, 0] == F(0.6)

    def test_below_emission_floor_stays_background(self):
        layering = LayeringMap(np.array([[[0.4]], [[0.45]]], dtype=np.float32))
        semdist = semdist_from_layering(layering, 0.95)
        assert semdist.values[0, 0] == 0.0

    def test_tie_goes_to_the_shallowest_level(self):
        layering = LayeringMap(np.array([[[0.7]], [[0.7]]], dtype=np.float32))
        semdist = semdist_from_layering(layering, 0.95)
        assert semdist.values[0, 0] == F(0.7)

    def test_round_trip_levels_on_generated_scenes(self, corpus):
        for scene in corpus[:6]:
            depth = scene.max_depth()
            for record in scene.instances:
                layering = instance_layering_target(scene, record.id, depth)
                semdist = semdist_from_layering(layering, 0.95)
                assert np.array_equal(
                    decode_levels(semdist), visibility_levels(scene, record.id)
                )


def _column_scene(depth):
    """1x2 scene: instances 1..depth+1 stacked front to back on pixel (1, 0),
    so instance depth+1 sits at level depth there."""
    stacks = np.zeros((depth + 1, 1, 2), dtype=np.int32)
    stacks[:, 0, 1] = np.arange(1, depth + 2)
    return LayerStackScene(2, 1, tuple(InstanceRecord(i) for i in range(1, depth + 2)), stacks)


class TestPrecisionEnvelope:
    """confidence - level is rounded to float32; a map is built only where
    every pixel keeps -level as its integer part and a non-zero fraction."""

    @pytest.mark.parametrize("confidence", [0.99999994, 1e-8])
    def test_lost_fraction_at_level_2_raises(self, confidence):
        scene = _column_scene(2)
        with pytest.raises(ConfidencePrecisionError) as err:
            encode_semdist(scene, 3, confidence)
        assert (err.value.pixel, err.value.level) == ((1, 0), 2)
        assert err.value.confidence == float(F(confidence))
        assert "level 2" in str(err.value) and "(1, 0)" in str(err.value)
        with pytest.raises(ConfidencePrecisionError):
            encode_scene(scene, confidence)
        with pytest.raises(ConfidencePrecisionError):
            semdist_from_layering(instance_layering_target(scene, 3, 3), confidence)

    def test_default_confidence_at_level_2_round_trips(self):
        scene = _column_scene(2)
        semdist = encode_semdist(scene, 3, 0.95)
        assert decode_levels(semdist).tolist() == [[LEVEL_ABSENT, 2]]
        assert decode_amodal(semdist)[0, 1] == F(0.95000005)

    def test_grid_policy_names_the_first_bad_pixel(self):
        stacks = np.array([[[1, 1, 1]], [[2, 2, 2]], [[3, 3, 3]]], dtype=np.int32)
        scene = LayerStackScene(3, 1, tuple(InstanceRecord(i) for i in (1, 2, 3)), stacks)
        grid = np.array([[0.95, 1e-8, 0.99999994]], dtype=np.float32)
        with pytest.raises(ConfidencePrecisionError) as err:
            encode_semdist(scene, 3, ConfidencePolicy(grid_values=grid))
        assert (err.value.pixel, err.value.level, err.value.confidence) == ((1, 0), 2, float(F(1e-8)))

    @pytest.mark.parametrize("front_id, deep_id", [(1, 2), (2, 1)])
    def test_swap_that_loses_the_fraction_raises(self, front_id, deep_id):
        front = np.zeros((2, 3), F)
        front[1, 1:] = F(0.99999994)
        deep = np.zeros((2, 3), F)
        deep[:, 2] = F(0.95) - F(2)
        maps = [(front_id, SemDistMap(front)), (deep_id, SemDistMap(deep))]
        with pytest.raises(ConfidencePrecisionError) as err:
            perturb_semdist(maps, PerturbConfig(level_flip_prob=1.0))
        assert (err.value.pixel, err.value.level) == ((2, 1), 2)
        assert err.value.confidence == float(F(0.99999994))

    def test_swap_that_keeps_the_fractions_passes(self):
        front = SemDistMap(np.array([[F(0.95)]]))
        deep = SemDistMap(np.array([[F(0.9) - F(2)]]))
        [(_, a), (_, b)] = perturb_semdist([(1, front), (2, deep)], PerturbConfig(level_flip_prob=1.0))
        assert decode_levels(a).tolist() == [[2]] and decode_levels(b).tolist() == [[0]]


_TINY_C = float(np.nextafter(F(0), F(1)))  # keeps every pixel with a non-zero fraction


@st.composite
def _levels_and_confidences(draw):
    height, width = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    level = st.one_of(
        st.just(LEVEL_ABSENT), st.integers(0, 8), st.integers(0, 2**23), st.just(2**23)
    )
    confidence = st.one_of(
        st.sampled_from([0.99999994, 1e-8, 0.95, 0.5]),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, width=32),
    )
    levels = np.array(draw(st.lists(level, min_size=height * width, max_size=height * width)))
    grid = np.array(draw(st.lists(confidence, min_size=height * width, max_size=height * width)))
    return levels.reshape(height, width).astype(np.int32), grid.reshape(height, width).astype(F)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_levels_and_confidences())
def test_every_encoded_map_decodes_back_or_raises(case):
    levels, confidence = case
    present = levels != LEVEL_ABSENT
    # the oracle: per pixel, in float32 scalar arithmetic
    exact = all(
        np.floor(F(c) - F(l)) == -l and F(c) - F(l) != -l
        for l, c in zip(levels[present].tolist(), confidence[present].tolist())
    )
    box = _box_of(present)
    local = None if box is None else levels[_window(box)]
    try:
        semdist = _semdist_from_levels(levels.shape, box, local, confidence)
    except ConfidencePrecisionError as err:
        assert not exact
        x, y = err.pixel
        assert err.level == levels[y, x]
        return
    assert exact
    assert np.array_equal(decode_levels(semdist, _TINY_C), levels)
    assert np.array_equal(decode_amodal(semdist) > 0.0, present)
    assert np.array_equal(decode_modal(semdist) > 0.0, levels == 0)


class TestNoCastWarnings:
    """A map may hold any finite value below 1. Values without a fraction are
    never decoded or voted, so they must not reach an int32 cast."""

    def _quietly(self, fn, *args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return fn(*args)

    def test_decode_levels(self):
        semdist = SemDistMap(np.array([[-1e10, 0.5]], dtype=F))
        assert self._quietly(decode_levels, semdist).tolist() == [[LEVEL_ABSENT, 0]]

    def test_relative_order_and_order_regions(self):
        a = SemDistMap(np.array([[-1e10, 0.5]], dtype=F))
        b = SemDistMap(np.array([[-2.5, F(0.6) - F(1)]], dtype=F))
        assert self._quietly(relative_order, a, b).values.tolist() == [[0, 1]]
        regions = self._quietly(order_regions, a, b)
        assert (regions.verdict, regions.overlap_area) == (OrderVerdict.A_IN_FRONT, 1)
