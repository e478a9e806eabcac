"""The gt side of the order counts comes from the maps of encode_scene as
crops, with no full frames. A hypothesis sweep holds the
counts equal to the full-frame reference in test_pair_window, which encodes
the whole gt scene, on crowded generated scenes up to 256x256 with exact,
perturbed and partial predictions, and with thresholds just below the
float32 gt confidence."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from semdist import GenConfig, PerturbConfig, encode_scene, generate, perturb_semdist
from semdist.metrics import _order_counts
from test_pair_window import ref_order_counts

F = np.float32

_SCENES = [
    dict(width=64, height=64, object_count_range=(8, 12)),
    dict(width=97, height=61, object_count_range=(8, 12), size_range=(0.15, 0.4)),
    dict(width=256, height=256, object_count_range=(8, 12), size_range=(0.15, 0.4)),
]
GT_CONFIDENCES = (0.95, 0.7, 0.55)


def _just_below(gt_confidence):
    """Thresholds just below the float32 image of the gt confidence, in
    float32 and in float64 steps."""
    stored = F(gt_confidence)
    return float(np.nextafter(stored, F(0))), float(np.nextafter(float(stored), 0.0))


@st.composite
def _cases(draw):
    shape = draw(st.sampled_from(_SCENES))
    scene = generate(GenConfig(seed=draw(st.integers(0, 2**16)), **shape))
    gt_confidence = draw(st.sampled_from(GT_CONFIDENCES))
    c = draw(st.sampled_from((0.25, 0.5) + _just_below(gt_confidence)))
    maps = list(encode_scene(scene, draw(st.sampled_from((gt_confidence, 0.6)))).items())
    config = PerturbConfig(level_flip_prob=draw(st.sampled_from((0.3, 1.0))),
                           seed=draw(st.integers(0, 2**16)))
    perturbed = perturb_semdist(maps, config)
    kept = draw(st.lists(st.booleans(), min_size=len(maps), max_size=len(maps)))
    partial = [entry for entry, keep in zip(perturbed, kept) if keep]
    return scene, [maps, perturbed, partial], c, gt_confidence


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_cases())
def test_order_counts_match_full_frame_reference(case):
    scene, predictions, c, gt_confidence = case
    for pred in predictions:
        got = _order_counts(scene, pred, c, gt_confidence)
        assert got == ref_order_counts(scene, pred, c, gt_confidence)
