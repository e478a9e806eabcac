"""generate rasterizes, checks and places every candidate shape on its own
box. These tests hold it bit-identical to the full-frame generator it
replaced, which is kept below as the reference: the same scenes, the same
instance boxes and the same GenerationError message when the retry budget
runs out. Each shape's box mask is held equal to its frame mask, crafted
edge cases included, and from_layers, which builds scenes through the same
core as generate, is held to rebuild a generated scene from its masks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdist import (
    SHAPES,
    BinaryMask,
    DimensionMismatchError,
    GenConfig,
    GenerationError,
    InstanceRecord,
    LayerStackScene,
    amodal_mask_of,
    generate,
)
from semdist.compositor import _sample_shape

# ---------------------------------------------------------------------------
# full-frame reference


def ref_fill_triangle(xs, ys, vx, vy):
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


def ref_sample_shape(rng, config):
    kind = config.shape_set[int(rng.integers(len(config.shape_set)))]
    side = min(config.width, config.height)
    cx = rng.uniform(0.0, config.width)
    cy = rng.uniform(0.0, config.height)
    size = rng.uniform(config.size_range[0], config.size_range[1]) * side
    xs = np.arange(config.width, dtype=np.float64) + 0.5
    ys = np.arange(config.height, dtype=np.float64)[:, None] + 0.5
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
        mask = ref_fill_triangle(xs, ys, vx, vy)
    return kind, mask


def ref_generate(config):
    rng = np.random.Generator(np.random.PCG64(config.seed))
    lo, hi = config.object_count_range
    count = int(rng.integers(lo, hi + 1))
    budget = 60 * count + 400

    kinds, masks, visible = [], [], []
    depth = np.zeros((config.height, config.width), dtype=np.int32)
    attempts = 0
    while len(masks) < count:
        attempts += 1
        if attempts > budget:
            raise GenerationError(
                f"gave up after {budget} placement attempts "
                f"(seed {config.seed}, {len(masks)}/{count} objects placed)"
            )
        kind, candidate = ref_sample_shape(rng, config)
        if not candidate.any():
            continue
        if int((depth + candidate).max()) > config.max_levels:
            continue
        if any(not (vis & ~candidate).any() for vis in visible):
            continue
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


def outcome(make, config):
    """(scene, None), or (None, message) when make gives up. Tiny sizes make
    the ellipse test divide by zero or overflow on the frame, so numpy's
    warnings are silenced for both generators."""
    with np.errstate(all="ignore"):
        try:
            return make(config), None
        except GenerationError as error:
            return None, str(error)


def assert_same_outcome(config):
    (scene, error), (want, want_error) = outcome(generate, config), outcome(ref_generate, config)
    assert error == want_error
    if want is not None:
        assert scene == want
        assert scene._boxes == want._boxes


# ---------------------------------------------------------------------------
# property: any frame, size range, shape set and depth budget


@st.composite
def _configs(draw):
    lo = draw(st.integers(1, 12))
    return GenConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        width=draw(st.integers(2, 97)),
        height=draw(st.integers(2, 97)),
        object_count_range=(lo, lo + draw(st.integers(0, 8))),
        shape_set=tuple(draw(st.sets(st.sampled_from(SHAPES), min_size=1))),
        size_range=tuple(sorted(draw(st.floats(0.0, 1.0, exclude_min=True)) for _ in range(2))),
        max_levels=draw(st.integers(1, 8)),
    )


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_configs())
def test_generate_matches_the_full_frame_reference(config):
    assert_same_outcome(config)


# ---------------------------------------------------------------------------
# the rasterizer: a shape's box mask is its frame mask


class Scripted:
    """Stands in for the generator's rng and hands out the given draws in
    order, so a test picks a shape's kind, centre, size and proportions."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def integers(self, *args, **kwargs):
        return self.draws.pop(0)

    def uniform(self, *args, **kwargs):
        return self.draws.pop(0)


def assert_box_is_frame(config, draws):
    """_sample_shape and the full-frame reference, fed the same draws, set
    the same pixels, and the box holds them all. Returns the frame mask."""
    with np.errstate(all="ignore"):
        kind, box, mask = _sample_shape(Scripted(*draws), config)
        want_kind, want = ref_sample_shape(Scripted(*draws), config)
    assert kind == want_kind
    assert mask.shape == want[box].shape
    assert np.array_equal(mask, want[box])
    outside = want.copy()
    outside[box] = False
    assert not outside.any()
    return want


def shape_draws(kind, cx, cy, size, *rest):
    """Draws that make _sample_shape pick this kind, centre and size
    fraction; rest are the kind's own draws."""
    return (SHAPES.index(kind), cx, cy, size, *rest)


def triangle_draws(config, vx, vy):
    """Draws for the triangle with these vertices, up to the rounding of
    the polar form that _sample_shape builds them from: the centre is
    their centroid and the radii are given in units of half the size."""
    cx, cy = sum(vx) / 3, sum(vy) / 3
    angles = np.array([math.atan2(y - cy, x - cx) % (2 * math.pi) for x, y in zip(vx, vy)])
    radii = np.array([math.hypot(x - cx, y - cy) for x, y in zip(vx, vy)])
    order = angles.argsort()
    half = 0.5 * min(config.width, config.height)  # size 1.0
    return shape_draws("triangle", cx, cy, 1.0, angles[order], radii[order] / half)


FRAMES = [(2, 2), (3, 2), (17, 5), (40, 40), (97, 41)]


@pytest.mark.parametrize("width, height", FRAMES)
@pytest.mark.parametrize("kind", SHAPES)
def test_shapes_crossing_each_frame_edge(kind, width, height):
    config = GenConfig(width=width, height=height)
    triangle = (np.array([0.3, 2.5, 4.4]), np.array([0.7, 1.0, 0.55]))
    rest = triangle if kind == "triangle" else (0.9, 0.7)
    near = (0.0, 0.01, 0.5, 0.99)
    centres = [(x, y) for x in near + tuple(width - v for v in near[1:])
               for y in near + tuple(height - v for v in near[1:])]
    for cx, cy in centres:
        for size in (0.3, 1.0):
            mask = assert_box_is_frame(config, shape_draws(kind, cx, cy, size, *rest))
            if size == 1.0 and kind != "triangle":
                assert mask.any()


@pytest.mark.parametrize("kind", SHAPES)
def test_shapes_that_rasterize_to_nothing(kind):
    config = GenConfig(width=20, height=12)
    rest = (np.array([0.1, 2.2, 4.3]), np.ones(3)) if kind == "triangle" else (0.6, 0.6)
    cases = [
        # between four pixel centres, too small to reach one
        shape_draws(kind, 6.0, 5.0, 0.01, *rest),
        shape_draws(kind, 0.0, 0.0, 0.01, *rest),
        # sizes that underflow, which the ellipse test divides by
        shape_draws(kind, 6.2, 5.9, 5e-324, *rest),
        shape_draws(kind, 6.2, 5.9, 1e-300, *rest),
    ]
    if kind == "triangle":
        cases += [
            # three vertices on one ray from the centre: no area
            shape_draws(kind, 6.5, 5.5, 0.5, np.ones(3), np.array([0.5, 0.7, 1.0])),
            # every vertex past the right edge: an empty box
            shape_draws(kind, 19.9, 6.0, 1.0, np.array([6.2, 6.25, 6.3]), np.ones(3)),
        ]
    for draws in cases:
        assert not assert_box_is_frame(config, draws).any()


def _slivers(config, count, seed):
    """Near-collinear vertex triples: three points on a line through the
    frame, some through pixel centres, one moved off it by a tiny offset."""
    rng = np.random.default_rng(seed)
    width, height = config.width, config.height
    for k in range(count):
        if k % 3 == 0:
            p, d = rng.uniform(0, [width, height]), rng.normal(size=2)
        elif k % 3 == 1:  # a diagonal through pixel centres
            p, d = np.floor(rng.uniform(0, [width, height])) + 0.5, np.array([1.0, 1.0])
        else:  # a row of pixel centres
            p = np.array([rng.uniform(0, width), math.floor(rng.uniform(0, height)) + 0.5])
            d = np.array([1.0, 0.0])
        d /= np.hypot(*d)
        t = np.sort(rng.uniform(-0.45, 0.45, 3)) * min(width, height)
        vx, vy = p[0] + t * d[0], p[1] + t * d[1]
        i, offset = int(rng.integers(3)), 10.0 ** rng.uniform(-300, -1)
        vx[i] -= d[1] * offset
        vy[i] += d[0] * offset
        yield vx, vy


def test_near_collinear_triangles():
    """The frame sets some pixels of these slivers far past their vertices,
    where every edge test rounds to a pass; the box holds them all, as a
    triangle that thin is rasterized on the whole frame."""
    config = GenConfig(width=160, height=120)
    past = 0
    for vx, vy in _slivers(config, 3000, seed=0):
        draws = triangle_draws(config, vx, vy)
        mask = assert_box_is_frame(config, draws)
        rows, cols = mask.nonzero()
        past += bool(rows.size) and (cols.min() < min(vx) - 1.5 or cols.max() > max(vx) + 0.5)
    assert past  # the crafted set does hold slivers the vertex box would cut


@pytest.mark.parametrize("width, height", FRAMES + [(2, 97), (64, 64), (119, 88)])
def test_random_shapes(width, height):
    config = GenConfig(width=width, height=height, size_range=(0.01, 1.0))
    rng = np.random.default_rng(width * 1000 + height)
    for _ in range(300):
        state = rng.bit_generator.state
        kind, box, mask = _sample_shape(rng, config)
        rng.bit_generator.state = state
        _, want = ref_sample_shape(rng, config)
        assert np.array_equal(mask, want[box]) and want.sum() == mask.sum()


# ---------------------------------------------------------------------------
# one scene-building core for from_layers and generate

BUILT = [
    GenConfig(seed=3),
    GenConfig(seed=0, width=256, height=256, object_count_range=(8, 12), size_range=(0.15, 0.4)),
    GenConfig(seed=4, width=97, height=41, size_range=(0.01, 1.0), object_count_range=(1, 9),
              max_levels=2),
    GenConfig(seed=1, width=640, height=480),
]


@pytest.mark.parametrize("config", BUILT, ids=lambda c: f"{c.width}x{c.height}")
def test_from_layers_rebuilds_a_generated_scene_from_its_masks(config):
    scene = generate(config)
    # the instances are listed front to back, the latest placed first
    layers = [(record, amodal_mask_of(scene, record.id)) for record in scene.instances]
    rebuilt = LayerStackScene.from_layers(scene.width, scene.height, layers)
    assert rebuilt == scene
    assert rebuilt._boxes == scene._boxes


def test_from_layers_errors_keep_their_messages():
    ones, zeros = BinaryMask(np.ones((2, 3), dtype=bool)), BinaryMask.zeros(3, 2)
    with pytest.raises(ValueError, match=r"^duplicate instance id 4$"):
        LayerStackScene.from_layers(3, 2, [(InstanceRecord(4), ones), (InstanceRecord(4), zeros)])
    with pytest.raises(DimensionMismatchError,
                       match=r"^mask for instance 5 is 2x3, scene is 3x2$"):
        LayerStackScene.from_layers(3, 2, [(InstanceRecord(4), ones),
                                           (InstanceRecord(5), BinaryMask.zeros(2, 3))])
    with pytest.raises(ValueError,
                       match=rf"^instance id {2**31} does not fit the int32 stacks$"):
        LayerStackScene.from_layers(3, 2, [(InstanceRecord(2**31), ones)])
    scene = LayerStackScene.from_layers(3, 2, [(InstanceRecord(2**31), zeros),
                                               (InstanceRecord(1), ones)])
    assert scene._boxes == {2**31: None, 1: (0, 2, 0, 3)}
