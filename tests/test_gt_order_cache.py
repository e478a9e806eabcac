"""A scene keeps its gt depth order for the last (c, gt_confidence) it was
scored at. Scoring it again must give what a scene scored for the first
time gives, at that key and at any other, and the kept order must never
change what the scene is: its equality, pickling and copies."""

import copy
import pickle
from itertools import count

import numpy as np
import pytest

from semdist import (
    ConfidencePrecisionError,
    GenConfig,
    LayerStackScene,
    OrderVerdict,
    PerturbConfig,
    encode_scene,
    evaluate,
    generate,
    order_accuracy,
    perturb_semdist,
    scene_annotations,
)
from semdist.codec import _gt_order

from _util import race

# at this c the float32 product of two gt confidences of 0.95 no longer
# clears c * c, so pairs whose masks meet turn disjoint
C_TOO_HIGH = 0.94999999


def _scene():
    return generate(GenConfig(seed=3, width=48, height=48, object_count_range=(6, 8),
                              size_range=(0.2, 0.5)))


def _fresh(scene):
    """The scene rebuilt from its parts: equal, and nothing kept."""
    return LayerStackScene(scene.width, scene.height, scene.instances, scene.stacks)


def _pred(scene):
    maps = sorted(encode_scene(scene).items())
    return perturb_semdist(maps, PerturbConfig(level_flip_prob=0.5, seed=1))


def test_scene_starts_with_nothing_kept():
    scene = _scene()
    assert scene._gt_orders is None
    assert _fresh(scene)._gt_orders is None


def test_repeated_order_accuracy_equals_the_first():
    scene = _scene()
    pred = _pred(scene)
    first = order_accuracy(scene, pred)
    kept = scene._gt_orders
    assert kept is not None and kept[0] == (0.5, 0.95)
    for _ in range(3):
        assert order_accuracy(scene, pred) == first
        assert scene._gt_orders is kept
    assert order_accuracy(_fresh(scene), pred) == first


def test_repeated_evaluate_equals_the_first():
    scene = _scene()
    gt = scene_annotations(scene)
    items = [(scene, _pred(scene))]
    first = evaluate([gt], [gt], order_items=items)
    assert first.order_accuracy is not None
    for _ in range(3):
        assert evaluate([gt], [gt], order_items=items) == first
    assert evaluate([gt], [gt], order_items=[(_fresh(scene), items[0][1])]) == first


def test_float32_and_float_c_of_one_value_share_the_order():
    scene = _scene()
    c = np.float32(0.3)
    order = _gt_order(scene, c, 0.95)
    assert _gt_order(scene, float(c), 0.95) is order
    assert _gt_order(scene, c, np.float64(0.95)) is order
    assert order == _gt_order(_fresh(scene), float(c), 0.95)


def test_another_key_gives_its_own_order():
    scene = _scene()
    at_half = _gt_order(scene, 0.5, 0.95)
    too_high = _gt_order(scene, C_TOO_HIGH, 0.95)
    assert too_high == _gt_order(_fresh(scene), C_TOO_HIGH, 0.95)
    assert too_high != at_half
    assert any(verdict is OrderVerdict.DISJOINT for _, _, verdict in too_high)
    assert _gt_order(scene, 0.5, 0.95) == at_half
    assert _gt_order(scene, 0.5, 0.9) == _gt_order(_fresh(scene), 0.5, 0.9)
    assert scene._gt_orders[0] == (0.5, 0.9)


def test_a_walk_that_raises_keeps_nothing_and_raises_again():
    scene = _scene()
    assert scene.max_depth() > 1
    pred = _pred(scene)
    first = order_accuracy(scene, pred)
    kept = scene._gt_orders
    # 1 - 1e-9 rounds to 1.0 in float32, so level 1 would lose its confidence
    for _ in range(2):
        with pytest.raises(ConfidencePrecisionError):
            order_accuracy(scene, pred, 5e-10, gt_confidence=1e-9)
        assert scene._gt_orders is kept
    assert order_accuracy(scene, pred) == first


def test_equality_pickle_and_copies_are_unaffected():
    scene = _scene()
    pred = _pred(scene)
    plain = _fresh(scene)
    first = order_accuracy(scene, pred)
    assert scene == plain and plain == scene
    for twin in (pickle.loads(pickle.dumps(scene)), copy.deepcopy(scene), copy.copy(scene)):
        assert twin == scene and twin == plain
        assert order_accuracy(twin, pred) == first
        assert _gt_order(twin, C_TOO_HIGH, 0.95) == _gt_order(_fresh(scene), C_TOO_HIGH, 0.95)
    assert _gt_order(scene, 0.5, 0.95) == _gt_order(plain, 0.5, 0.95)
    assert pickle.loads(pickle.dumps(plain)) == scene


def test_a_sweep_over_many_thresholds_keeps_one_order():
    scene = _scene()
    names = set(vars(scene))
    for c in np.linspace(0.05, 0.9, 200):
        order = _gt_order(scene, c, 0.95)
        key, kept = scene._gt_orders
        assert key == (float(c), 0.95) and kept is order
        assert set(vars(scene)) == names


def test_threads_scoring_one_scene_at_two_keys_agree():
    scene = _scene()
    keys = [(0.5, 0.95), (C_TOO_HIGH, 0.95)]
    want = [_gt_order(_fresh(scene), *key) for key in keys]
    for _ in range(5):
        racing = _fresh(scene)
        tickets = count()  # next() on a count is atomic, so the threads alternate keys

        def read():
            k = next(tickets) % 2
            return k, [_gt_order(racing, *keys[k]) for _ in range(4)]

        seen = race(read)
        assert {k for k, _ in seen} == {0, 1}
        for k, orders in seen:
            assert all(order == want[k] for order in orders)
        key, kept = racing._gt_orders
        assert kept == want[keys.index(key)]
