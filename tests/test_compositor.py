import numpy as np
import pytest

from semdist import (
    SHAPES,
    BinaryMask,
    GenConfig,
    GenerationError,
    InstanceRecord,
    LayerStackScene,
    OrderVerdict,
    PerturbConfig,
    ZeroAreaError,
    encode_scene,
    encode_semdist,
    generate,
    instance_color,
    object_order,
    occlusion_rate,
    perturb,
    perturb_semdist,
    render,
    scene_annotations,
    validate_scene,
    visible_mask_of,
)


class TestGenerate:
    def test_same_seed_same_scene(self):
        assert generate(GenConfig(seed=5)) == generate(GenConfig(seed=5))

    def test_different_seeds_differ(self):
        scenes = [generate(GenConfig(seed=s)) for s in range(4)]
        assert any(scenes[0] != other for other in scenes[1:])

    def test_counts_ids_and_categories(self, corpus):
        for scene in corpus:
            n = len(scene.instances)
            assert 3 <= n <= 6
            assert sorted(scene.ids()) == list(range(1, n + 1))
            for record in scene.instances:
                assert record.category in SHAPES

    def test_every_instance_keeps_a_visible_pixel(self, corpus):
        for scene in corpus:
            for record in scene.instances:
                assert visible_mask_of(scene, record.id).area() > 0

    def test_depth_budget_respected(self, corpus):
        for scene in corpus:
            assert scene.max_depth() <= 8

    def test_generated_scenes_are_valid(self, corpus):
        for scene in corpus:
            assert validate_scene(scene) == []

    def test_later_placements_sit_in_front(self, corpus):
        # ids follow placement order, so every pixel stack must be strictly
        # decreasing front to back
        for scene in corpus[:10]:
            for y in range(scene.height):
                for x in range(scene.width):
                    stack = scene.stack_at(x, y)
                    assert all(a > b for a, b in zip(stack, stack[1:]))

    def test_single_shape_config(self):
        scene = generate(GenConfig(seed=3, shape_set=("rectangle",)))
        assert {r.category for r in scene.instances} == {"rectangle"}

    def test_impossible_config_raises(self):
        config = GenConfig(
            seed=0, width=4, height=4, object_count_range=(50, 50), max_levels=1
        )
        with pytest.raises(GenerationError):
            generate(config)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width": 1},
            {"object_count_range": (0, 3)},
            {"object_count_range": (4, 2)},
            {"shape_set": ()},
            {"shape_set": ("hexagon",)},
            {"size_range": (0.0, 0.5)},
            {"size_range": (0.6, 0.5)},
            {"max_levels": 0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            GenConfig(**kwargs)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            GenConfig(seed=-1)
        assert GenConfig(seed=2**64).seed == 2**64  # PCG64 takes any other int


class TestRender:
    def test_instance_colors_are_stable_and_bright(self):
        colors = [instance_color(i) for i in range(1, 17)]
        assert colors == [instance_color(i) for i in range(1, 17)]
        assert len(set(colors)) == 16
        for color in colors:
            assert all(64 <= channel <= 255 for channel in color)

    def test_s0_render_front_wins(self, s0):
        image = render(s0)
        front, back = instance_color(1), instance_color(2)
        assert tuple(image[0, 0]) == front
        assert tuple(image[1, 1]) == front  # overlap row belongs to the front
        assert tuple(image[2, 2]) == back

    def test_background_is_black(self):
        stacks = np.zeros((1, 2, 2), dtype=np.int32)
        stacks[0, 0, 0] = 1
        scene = LayerStackScene(2, 2, (InstanceRecord(1),), stacks)
        image = render(scene)
        assert tuple(image[0, 0]) == instance_color(1)
        assert image[1, 1].tolist() == [0, 0, 0]

    def test_render_matches_visible_masks(self, corpus):
        scene = corpus[0]
        image = render(scene)
        for record in scene.instances:
            visible = visible_mask_of(scene, record.id).bits
            assert np.all(image[visible] == np.array(instance_color(record.id), np.uint8))


class TestOcclusionRate:
    def test_s0_rates(self, s0):
        assert occlusion_rate(s0, 1) == 0.0
        assert occlusion_rate(s0, 2) == 0.5

    def test_empty_instance_raises(self):
        scene = LayerStackScene(2, 2, (InstanceRecord(1),), np.zeros((0, 2, 2), np.int32))
        with pytest.raises(ZeroAreaError):
            occlusion_rate(scene, 1)

    def test_annotations_carry_scene_truth(self, s0):
        annotations = scene_annotations(s0)
        by_id = {ann.id: ann for ann in annotations}
        assert set(by_id) == {1, 2}
        assert by_id[2].occlusion_rate == 0.5
        assert by_id[1].score == 1.0
        assert by_id[1].category == "front"

    def test_annotations_skip_a_listed_instance_no_pixel_holds(self):
        mask = BinaryMask(np.array([[1, 1, 0], [0, 1, 1]], dtype=bool))
        scene = LayerStackScene.from_layers(
            3, 2, [(InstanceRecord(1), mask), (InstanceRecord(2), BinaryMask.zeros(3, 2))]
        )
        assert validate_scene(scene) == []
        (annotation,) = scene_annotations(scene)
        assert annotation.id == 1 and annotation.amodal == mask and annotation.occlusion_rate == 0.0
        assert not encode_scene(scene)[2].values.any()


class TestPerturb:
    def test_zero_config_is_identity(self, s0):
        annotations = scene_annotations(s0)
        assert perturb(annotations, PerturbConfig()) == annotations

    def test_seeded_determinism(self, s0):
        annotations = scene_annotations(s0)
        config = PerturbConfig(erode_radius=1, drop_occluded_prob=0.5, score_noise=0.2, seed=9)
        assert perturb(annotations, config) == perturb(annotations, config)

    def test_erosion_shrinks_dilation_grows(self, corpus):
        annotations = scene_annotations(corpus[0])
        eroded = {a.id: a for a in perturb(annotations, PerturbConfig(erode_radius=1))}
        dilated = {a.id: a for a in perturb(annotations, PerturbConfig(dilate_radius=1))}
        for ann in annotations:
            if ann.id in eroded:
                assert eroded[ann.id].amodal.is_subset_of(ann.amodal)
                assert eroded[ann.id].visible.is_subset_of(ann.visible)
            assert ann.amodal.is_subset_of(dilated[ann.id].amodal)

    def test_drop_occluded_prob_one(self, s0):
        annotations = scene_annotations(s0)
        kept = perturb(annotations, PerturbConfig(drop_occluded_prob=1.0))
        assert [ann.id for ann in kept] == [1]  # only the unoccluded one stays

    def test_drop_draws_do_not_shift_noise_stream(self, s0):
        annotations = scene_annotations(s0)
        noisy = perturb(annotations, PerturbConfig(score_noise=0.2, seed=4))
        dropped = perturb(
            annotations, PerturbConfig(score_noise=0.2, drop_occluded_prob=1.0, seed=4)
        )
        noisy_by_id = {ann.id: ann.score for ann in noisy}
        for ann in dropped:
            assert ann.score == noisy_by_id[ann.id]

    def test_scores_stay_in_unit_interval(self, corpus):
        annotations = scene_annotations(corpus[1])
        noisy = perturb(annotations, PerturbConfig(score_noise=5.0, seed=2))
        for ann in noisy:
            assert 0.0 <= ann.score <= 1.0

    def test_instances_eroded_to_nothing_are_dropped(self):
        stacks = np.zeros((1, 5, 5), dtype=np.int32)
        stacks[0, 2, 2] = 1
        scene = LayerStackScene(5, 5, (InstanceRecord(1),), stacks)
        annotations = scene_annotations(scene)
        assert perturb(annotations, PerturbConfig(erode_radius=1)) == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"erode_radius": -1},
            {"drop_occluded_prob": 1.5},
            {"level_flip_prob": -0.1},
            {"score_noise": -1.0},
            {"score_noise": float("nan")},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            PerturbConfig(**kwargs)

    def test_seed_must_be_non_negative(self, s0):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            PerturbConfig(seed=-1)
        config = PerturbConfig(score_noise=0.1, seed=2**64)
        assert perturb(scene_annotations(s0), config) == perturb(scene_annotations(s0), config)


class TestPerturbSemdist:
    def _maps(self, s0):
        return [(1, encode_semdist(s0, 1)), (2, encode_semdist(s0, 2))]

    def test_flip_prob_one_swaps_depth_order(self, s0):
        flipped = dict(perturb_semdist(self._maps(s0), PerturbConfig(level_flip_prob=1.0)))
        assert object_order(flipped[1], flipped[2]) == OrderVerdict.B_IN_FRONT

    def test_flip_preserves_amodal_confidence(self, s0):
        from semdist import decode_amodal

        originals = dict(self._maps(s0))
        flipped = dict(perturb_semdist(self._maps(s0), PerturbConfig(level_flip_prob=1.0)))
        for key in originals:
            assert np.array_equal(
                decode_amodal(flipped[key]), decode_amodal(originals[key])
            )

    def test_flip_prob_zero_is_identity(self, s0):
        maps = self._maps(s0)
        assert perturb_semdist(maps, PerturbConfig(level_flip_prob=0.0)) == maps

    def test_untouched_maps_are_returned_as_given(self, s0):
        maps = self._maps(s0)
        returned = perturb_semdist(maps, PerturbConfig(level_flip_prob=0.0))
        assert all(out is given for (_, out), (_, given) in zip(returned, maps))

    def test_duplicate_ids_stay_separate_maps(self):
        from semdist import SemDistMap

        front = SemDistMap(np.full((2, 2), np.float32(0.9)))
        behind = SemDistMap(np.full((2, 2), np.float32(0.9) - np.float32(1)))
        maps = [(1, front), (1, behind)]
        assert perturb_semdist(maps, PerturbConfig(level_flip_prob=0.0)) == maps
        assert perturb_semdist(maps, PerturbConfig(level_flip_prob=1.0)) == [(1, behind), (1, front)]

    def test_disjoint_pairs_never_flip(self):
        values_a = np.zeros((2, 4), dtype=np.float32)
        values_a[:, :2] = np.float32(0.95)
        values_b = np.zeros((2, 4), dtype=np.float32)
        values_b[:, 2:] = np.float32(0.95)
        from semdist import SemDistMap

        maps = [(1, SemDistMap(values_a)), (2, SemDistMap(values_b))]
        assert perturb_semdist(maps, PerturbConfig(level_flip_prob=1.0)) == maps

    def test_overlap_uses_the_overlap_region_threshold(self):
        from semdist import SemDistMap, overlap_region

        # fractions 0.5 and float32(0.98) multiply to float32(0.49) exactly, which
        # clears 0.7 * 0.7 in float64 but not once c * c is rounded to float32
        map_a = SemDistMap(np.full((1, 1), np.float32(0.5) - np.float32(1)))
        map_b = SemDistMap(np.full((1, 1), np.float32(0.98)))
        assert overlap_region(map_a, map_b, 0.7).bits.all()
        flipped = dict(
            perturb_semdist([(1, map_a), (2, map_b)], PerturbConfig(level_flip_prob=1.0), 0.7)
        )
        assert flipped[1].values.tolist() == [[0.5]]
        assert flipped[2].values.tolist() == [[float(np.float32(0.98) - np.float32(1))]]
