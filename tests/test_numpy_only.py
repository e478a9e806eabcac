"""The library runs on numpy alone.

The vote-region labeller and perturb's disk morphology are plain numpy, so
they are checked here against scipy.ndimage, which stays a test-only
oracle, and the labeller also against the breadth-first oracle of _util.
The morphology is checked for disks wider than the frame too, and its
memory is bounded by the frame for any radius; a disk that empties or
fills the frame is settled without the disk loop. A child process that
cannot import scipy then runs the whole CLI pipeline.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

import semdist
from _util import _largest_component_bfs
from semdist import BinaryMask, InstanceAnnotation, PerturbConfig, perturb
from semdist.codec import _largest_component
from test_golden import CLI_SEQUENCE

FOUR = ndimage.generate_binary_structure(2, 1)


def scipy_largest(mask):
    labels, count = ndimage.label(mask, structure=FOUR)
    return int(np.bincount(labels.ravel())[1:].max()) if count else 0


def disk(radius):
    span = np.arange(-radius, radius + 1)
    return span[:, None] ** 2 + span[None, :] ** 2 <= radius * radius


def masks(max_side):
    """2-D bool masks from 1x1 up to max_side on a side: raw bits, and unions
    of rectangles, which give the blobby regions that votes make."""
    shape = st.tuples(st.integers(1, max_side), st.integers(1, max_side))
    raw = shape.flatmap(lambda s: arrays(np.bool_, s))

    @st.composite
    def rectangles(draw):
        height, width = draw(shape)
        mask = np.zeros((height, width), dtype=bool)
        for _ in range(draw(st.integers(0, 6))):
            y0, y1 = sorted(draw(st.integers(0, height)) for _ in range(2))
            x0, x1 = sorted(draw(st.integers(0, width)) for _ in range(2))
            mask[y0:y1, x0:x1] = draw(st.booleans())
        return mask

    return raw | rectangles()


def serpentine(height, width):
    """Every other row set, joined at alternate ends into one snake."""
    mask = np.zeros((height, width), dtype=bool)
    mask[::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


def checkerboard(height, width):
    return (np.add.outer(np.arange(height), np.arange(width)) % 2).astype(bool)


SHAPED = {
    "empty": np.zeros((5, 7), dtype=bool),
    "1x1": np.ones((1, 1), dtype=bool),
    "1xN": np.array([[1, 1, 0, 1, 1, 1, 0, 0, 1]], dtype=bool),
    "Nx1": np.array([[1, 1, 0, 1, 1, 1, 0, 0, 1]], dtype=bool).T,
    "all-true": np.ones((9, 13), dtype=bool),
    "checkerboard": checkerboard(8, 11),
    "serpentine": serpentine(31, 17),
    "serpentine-wide": serpentine(5, 200),
    "comb": np.vstack([np.tile([True, False], (12, 8)), np.ones((1, 16), dtype=bool)]),
    "ring": disk(9) & ~np.pad(disk(5), 4),
}


@pytest.mark.parametrize("name", sorted(SHAPED))
def test_largest_component_on_shaped_masks(name):
    mask = SHAPED[name]
    assert _largest_component(mask) == scipy_largest(mask) == _largest_component_bfs(mask)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(masks(24))
def test_largest_component_matches_scipy_and_bfs(mask):
    assert _largest_component(mask) == scipy_largest(mask) == _largest_component_bfs(mask)


def test_largest_component_of_a_large_noise_mask_matches_scipy():
    mask = np.random.default_rng(0).uniform(size=(256, 256)) < 0.55
    assert _largest_component(mask) == scipy_largest(mask)


def perturbed(mask, **radii):
    """The amodal bits perturb leaves of one annotation, None when it drops it."""
    ann = InstanceAnnotation.from_masks(1, BinaryMask(mask), BinaryMask(mask))
    out = perturb([ann], PerturbConfig(**radii))
    return out[0].amodal.bits if out else None


def expected(mask):
    return mask if mask.any() else None


def assert_same(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got, want)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(masks(20).filter(np.any), st.integers(1, 6), st.integers(0, 6))
def test_perturb_morphology_matches_scipy(mask, radius, dilate):
    eroded = ndimage.binary_erosion(mask, structure=disk(radius))
    dilated = ndimage.binary_dilation(mask, structure=disk(radius))
    both = ndimage.binary_dilation(eroded, structure=disk(dilate)) if dilate else eroded
    assert_same(perturbed(mask, erode_radius=radius), expected(eroded))
    assert_same(perturbed(mask, dilate_radius=radius), expected(dilated))
    assert_same(perturbed(mask, erode_radius=radius, dilate_radius=dilate), expected(both))


# all-true masks touch every border, and the smaller ones are narrower than the disk
BORDER = {f"ones-{h}x{w}": np.ones((h, w), dtype=bool)
          for h, w in [(1, 1), (1, 9), (9, 1), (3, 4), (13, 13)]}
BORDER.update({"serpentine-3x4": serpentine(3, 4), "serpentine-30x17": serpentine(30, 17)})


@pytest.mark.parametrize("radius", range(1, 7))
@pytest.mark.parametrize("name", sorted(BORDER))
def test_perturb_morphology_at_the_border_and_past_narrow_masks(radius, name):
    mask = BORDER[name]
    assert_same(perturbed(mask, erode_radius=radius),
                expected(ndimage.binary_erosion(mask, structure=disk(radius))))
    assert_same(perturbed(mask, dilate_radius=radius),
                expected(ndimage.binary_dilation(mask, structure=disk(radius))))


def with_radius_past_the_frame(mask):
    """(mask, radius) with radius from 1 up to 1.5 times the longer side."""
    return st.tuples(st.just(mask), st.integers(1, (3 * max(mask.shape) + 1) // 2))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(masks(12).filter(np.any).flatmap(with_radius_past_the_frame))
def test_perturb_morphology_matches_scipy_for_disks_past_the_frame(case):
    mask, radius = case
    assert_same(perturbed(mask, erode_radius=radius),
                expected(ndimage.binary_erosion(mask, structure=disk(radius))))
    assert_same(perturbed(mask, dilate_radius=radius),
                expected(ndimage.binary_dilation(mask, structure=disk(radius))))


@pytest.mark.parametrize("name", sorted(BORDER))
def test_perturb_morphology_at_the_frame_side(name):
    mask = BORDER[name]
    for side in mask.shape:
        for radius in {side - 1, side, side + 1, (3 * side + 1) // 2} - {0}:
            assert_same(perturbed(mask, erode_radius=radius),
                        expected(ndimage.binary_erosion(mask, structure=disk(radius))))
            assert_same(perturbed(mask, dilate_radius=radius),
                        expected(ndimage.binary_dilation(mask, structure=disk(radius))))


@pytest.mark.parametrize("radii, want", [({"erode_radius": 10**6}, "empty"),
                                         ({"dilate_radius": 10**6}, "full")])
def test_perturb_memory_is_bounded_by_the_frame_for_any_radius(radii, want):
    mask = np.zeros((64, 64), dtype=bool)
    mask[10:40, 20:50] = True
    tracemalloc.start()
    try:
        got = perturbed(mask, **radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the frame is 4 KiB; a copy padded by the radius would take terabytes
    assert peak < 256 * 1024
    assert_same(got, None if want == "empty" else np.ones_like(mask))


@pytest.mark.parametrize("radius", [2000, 10**6])
@pytest.mark.parametrize("erode", [True, False], ids=["erode", "dilate"])
def test_perturb_settles_disks_past_the_frame_without_the_disk_loop(erode, radius):
    # a 640x480 annotation, the COCOA and D2SA image size: an erosion past
    # the shorter side is empty and a dilation past the diagonal is full
    mask = np.zeros((480, 640), dtype=bool)
    mask[100:300, 200:500] = True
    radii = {"erode_radius" if erode else "dilate_radius": radius}
    tracemalloc.start()
    try:
        got = perturbed(mask, **radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the disk loop pads the frame to 9 times its size; the answer and the
    # annotation perturb builds from it take a few frames
    assert peak < 8 * mask.size
    assert_same(got, None if erode else np.ones_like(mask))


NO_SCIPY = """
import importlib.abc
import sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is not importable here")


sys.meta_path.insert(0, NoScipy())
import semdist
import semdist.cli

for command in sys.argv[1:]:
    code = semdist.cli.main(command.split())
    if code != 0:
        sys.exit(f"{command!r} exited with {code}")
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("the finder let scipy in")
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
if loaded:
    sys.exit(f"scipy modules loaded: {loaded}")
"""


def test_cli_pipeline_runs_where_scipy_cannot_be_imported(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(semdist.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY, *CLI_SEQUENCE], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "pred" / "scene_0000.json").stat().st_size > 0
    assert (tmp_path / "renders" / "scene_0001.ppm").stat().st_size > 0
