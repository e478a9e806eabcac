"""The three benchmark workloads: inputs from a seed, one op, its output check.

Each workload has a pool of `pool` ops whose outputs make up its digest and
fingerprint. `build-64` never repeats an input: op i always builds a new
scene. `eval-64` and `order-256` cycle over their pool, as a corpus scored
again would; a repeated op must reproduce the digest of its first run.

`op` runs inside the timed span and calls semdist only through the `Layers`
it is given. `check` runs outside it, calls semdist directly, raises
`CheckError` on a wrong output and returns the op's digest and counts.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations
from pathlib import Path

import numpy as np

from semdist import (
    GenConfig,
    NoOverlappingPairsError,
    OrderVerdict,
    PerturbConfig,
    decode_levels,
    generate,
    read_annotations,
    read_scene,
    read_semdist,
    visibility_levels,
)

from spans import Layers

PLAIN = Layers()


class CheckError(Exception):
    """An op returned an output that fails its check."""


def scene_seed(seed: int, index: int) -> int:
    return seed * 1_000_000 + index


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _in_unit(name: str, value) -> None:
    if value is not None and not (0.0 <= value <= 1.0):
        raise CheckError(f"{name} = {value} lies outside [0, 1]")


def build_scene(L: Layers, seed: int, out: Path, stem: str):
    """The ground-truth build recipe shared by build-64 and the eval-64 corpus."""
    scene = L.generate(GenConfig(seed=seed))
    maps = [(i, L.encode_semdist(scene, i)) for i in scene.ids()]
    gt = L.scene_annotations(scene)
    pred = L.perturb(
        gt,
        PerturbConfig(erode_radius=1, drop_occluded_prob=0.2, score_noise=0.1, seed=seed),
    )
    pred_maps = L.perturb_semdist(maps, PerturbConfig(level_flip_prob=0.3, seed=seed))
    files = [out / f"{stem}.scene.json", out / f"{stem}.pred.json"]
    L.write_scene(scene, files[0])
    L.write_annotations(scene.width, scene.height, pred, files[1])
    for i, m in pred_maps:
        files.append(out / f"{stem}.{i:04d}.sdm")
        L.write_semdist(m, files[-1])
    return scene, maps, pred, pred_maps, files


class Build64:
    """One op builds one 64x64 ground-truth scene and writes its three files."""

    name = "build-64"
    items_per_op = 1
    pool = 128
    scene_size = "64x64"

    def setup(self, work: Path, seed: int):
        work.mkdir()
        return {"dir": work, "seed": seed}

    def key(self, i: int) -> int:
        return i

    def op(self, L: Layers, state, i: int):
        return build_scene(L, scene_seed(state["seed"], i), state["dir"], "op")

    def check(self, state, i: int, outcome):
        scene, maps, pred, pred_maps, files = outcome
        try:
            if read_scene(files[0]) != scene:
                raise CheckError("scene read back differs from the scene written")
            if read_annotations(files[1]) != (scene.width, scene.height, pred):
                raise CheckError("annotations read back differ from those written")
            for (i, m), path in zip(pred_maps, files[2:]):
                if read_semdist(path) != m:
                    raise CheckError(f"map {i} read back differs from the map written")
            for i, m in maps:
                if not np.array_equal(decode_levels(m), visibility_levels(scene, i)):
                    raise CheckError(f"decoded levels of instance {i} differ from the scene")
            blobs = [p.read_bytes() for p in files]
        finally:
            for p in files:
                p.unlink(missing_ok=True)
        n = len(maps)
        counts = {
            "instances": n,
            "pairs": n * (n - 1) // 2,
            "perturb_inputs": n,
            "perturb_kept": len(pred),
            "bytes_written": sum(len(b) for b in blobs),
        }
        return _sha(*blobs), counts


class Eval64:
    """One op scores one shard of 4 images from a corpus written in setup."""

    name = "eval-64"
    items_per_op = 4
    pool = 32  # shards, so the corpus holds 128 images
    scene_size = "64x64"

    def setup(self, work: Path, seed: int):
        work.mkdir()
        for j in range(self.pool * self.items_per_op):
            build_scene(PLAIN, scene_seed(seed, j), work, f"{j:04d}")
        return {"dir": work}

    def key(self, i: int) -> int:
        return i % self.pool

    def op(self, L: Layers, state, i: int):
        first = self.key(i) * self.items_per_op
        names, gt_images, pred_images, order_items, paths = [], [], [], [], []
        for j in range(first, first + self.items_per_op):
            stem = f"{j:04d}"
            paths += [state["dir"] / f"{stem}.scene.json", state["dir"] / f"{stem}.pred.json"]
            scene = L.read_scene(paths[-2])
            gt = L.scene_annotations(scene)
            _, _, pred = L.read_annotations(paths[-1])
            maps = {}
            for ann in pred:
                paths.append(state["dir"] / f"{stem}.{ann.id:04d}.sdm")
                maps[ann.id] = L.read_semdist(paths[-1])
            order_items.append((scene, L.assign_maps_to_gt(gt, pred, maps)))
            names.append(stem)
            gt_images.append(gt)
            pred_images.append(pred)
        report = L.evaluate(gt_images, pred_images, image_names=names, order_items=order_items)
        return L.report_to_dict(report), gt_images, pred_images, paths

    def check(self, state, i: int, outcome):
        doc, gt_images, pred_images, paths = outcome
        for key in ("ap", "ar10", "ar100", "ar_none", "ar_partial", "ar_heavy", "order_accuracy"):
            _in_unit(key, doc[key])
        counts_seen = [(d["gt_count"], d["pred_count"]) for d in doc["per_image"]]
        expected = [(len(g), len(p)) for g, p in zip(gt_images, pred_images)]
        if counts_seen != expected:
            raise CheckError(f"per-image counts {counts_seen} differ from the inputs {expected}")
        gt_total = sum(len(g) for g in gt_images)
        counts = {
            "instances": gt_total,
            "perturb_inputs": gt_total,
            "perturb_kept": sum(len(p) for p in pred_images),
            "bytes_read": sum(p.stat().st_size for p in paths),
        }
        return _sha(json.dumps(doc, sort_keys=True).encode()), counts


class Order256:
    """One op orders every instance pair of one crowded 256x256 scene."""

    name = "order-256"
    items_per_op = 1
    pool = 64
    scene_size = "256x256"

    def setup(self, work: Path, seed: int):
        scenes = [
            generate(
                GenConfig(
                    seed=scene_seed(seed, j),
                    width=256,
                    height=256,
                    object_count_range=(8, 12),
                    size_range=(0.15, 0.4),
                )
            )
            for j in range(self.pool)
        ]
        return {"scenes": scenes, "seed": seed}

    def key(self, i: int) -> int:
        return i % self.pool

    def op(self, L: Layers, state, i: int):
        j = self.key(i)
        scene = state["scenes"][j]
        maps = [(k, L.encode_semdist(scene, k)) for k in scene.ids()]
        pred = L.perturb_semdist(
            maps, PerturbConfig(level_flip_prob=0.3, seed=scene_seed(state["seed"], j))
        )
        regions = [L.order_regions(a, b) for (_, a), (_, b) in combinations(pred, 2)]
        levels = [L.decode_levels(m) for _, m in pred]
        modal = [L.decode_modal(m) for _, m in pred]
        try:
            accuracy = L.order_accuracy(scene, pred)
        except NoOverlappingPairsError:
            accuracy = None  # a scene without an ordered gt pair is a defined outcome
        return regions, levels, modal, accuracy

    def check(self, state, i: int, outcome):
        regions, levels, modal, accuracy = outcome
        _in_unit("order_accuracy", accuracy)
        for r in regions:
            if (r.verdict is OrderVerdict.DISJOINT) != (r.overlap_area == 0):
                raise CheckError(f"verdict {r.verdict.value} with overlap area {r.overlap_area}")
            if max(r.largest_front_region, r.largest_behind_region) > r.overlap_area:
                raise CheckError("a vote region is larger than the overlap")
        for lv, md in zip(levels, modal):
            if lv.min() < -1 or md.min() < 0.0 or md.max() >= 1.0:
                raise CheckError("decoded levels or modal confidences out of range")
        n = len(levels)
        counts = {
            "instances": n,
            "pairs": len(regions),
            "overlapping_pairs": sum(r.verdict is not OrderVerdict.DISJOINT for r in regions),
            "no_ordered_pair": int(accuracy is None),
        }
        text = json.dumps(
            [[r.verdict.value, r.overlap_area, r.largest_front_region, r.largest_behind_region]
             for r in regions] + [accuracy]
        )
        return _sha(text.encode(), *(a.tobytes() for a in levels + modal)), counts


WORKLOADS = {w.name: w for w in (Build64(), Eval64(), Order256())}
