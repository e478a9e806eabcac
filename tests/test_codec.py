import numpy as np
import pytest

from semdist import (
    LEVEL_ABSENT,
    ConfidencePolicy,
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
    relative_order,
    semdist_from_layering,
    visibility_levels,
    visible_mask_of,
)

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
