"""Golden SHA-256 digests of the library's outputs on fixed inputs.

Each digest covers one output over one group of inputs, so a failing case
names both. The groups are seeded generated scenes at 64x64, at the crowded
256x256 settings of the `order-256` benchmark workload and at 96x40, two
groups that pin generate alone (at 640x480, the COCOA and D2SA image size,
and on a 97x41 frame whose shapes run past its edges), plus two groups of
small random inputs: invalid stacks for validate_scene, and
tiny masks whose IoUs and scores tie often, for match and evaluate. The
cli group runs the command sequence of the CI workflow in-process, in a
temporary working directory with relative paths, and digests each command's
exit code and stdout, and every file the sequence writes.

An output change that is meant must be followed by a rewrite of the table:

    PYTHONPATH=src python tests/test_golden.py --rewrite

and CHANGES.md must name each digest that changed and say why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from semdist import (
    BinaryMask,
    GenConfig,
    GenerationError,
    InstanceAnnotation,
    InstanceRecord,
    LayerStackScene,
    PerturbConfig,
    assign_maps_to_gt,
    decode_amodal,
    decode_levels,
    decode_modal,
    encode_scene,
    evaluate,
    generate,
    match,
    order_regions,
    perturb,
    perturb_semdist,
    report_to_dict,
    scene_annotations,
    scene_to_dict,
    semdist_to_bytes,
    validate_scene,
    write_annotations,
    write_scene,
)
from semdist.cli import main

_CROWDED = dict(width=256, height=256, object_count_range=(8, 12), size_range=(0.15, 0.4))
SCENE_GROUPS = {
    "64x64": [GenConfig(seed=seed) for seed in (0, 1, 2)],
    "256x256": [GenConfig(seed=seed, **_CROWDED) for seed in (0, 1)],
    "96x40": [GenConfig(seed=seed, width=96, height=40) for seed in (0, 1, 2)],
}
# generate alone: each scene's sparse document and instance boxes, or the error
GENERATE_GROUPS = {
    "640x480": [GenConfig(seed=seed, width=640, height=480) for seed in (0, 1, 2)],
    "97x41": [GenConfig(seed=seed, width=97, height=41, size_range=(0.01, 1.0),
                        object_count_range=(1, 9), max_levels=2) for seed in range(8)],
}
SCENE_OUTPUTS = (
    "stacks",
    "scene_text",
    "sdm",
    "perturb",
    "perturb_semdist",
    "decode_levels",
    "decode_modal",
    "decode_amodal",
    "order_regions",
    "evaluate",
)

_MAP_A, _MAP_B = "maps/scene_0000_0001.sdm", "maps/scene_0000_0002.sdm"
CLI_SEQUENCE = (
    "generate --count 2 --out scenes",
    "encode --scene scenes/scene_0000.json --out maps",
    f"decode --map {_MAP_A} --mode levels --out levels.pgm",
    f"decode --map {_MAP_A} --mode modal --out modal.pgm",
    f"decode --map {_MAP_A} --mode amodal --out amodal.pgm",
    f"order --map-a {_MAP_A} --map-b {_MAP_B}",
    "perturb --gt scenes/scene_0000.json --erode 1 --out pred/scene_0000.json",
    "eval --gt scenes/scene_0000.json --pred pred/scene_0000.json --report out/report.json",
    "eval --gt scenes --pred scenes",
    "render --scene scenes/scene_0001.json --out renders/scene_0001.ppm",
)

# BEGIN GOLDEN
GOLDEN = {
    "64x64/stacks": "5714adc83fcb51957335decfa368568eaa045e9ae8c1773116915e9b7983d89f",
    "64x64/scene_text": "2c2025c382ccc0b3440d675df2e490faec40e4be2b4bceebf9d0410e3a815abf",
    "64x64/sdm": "261c2b082e893ee358783ab8d5548065e38d0c82b3b9f7f8bb91cb75746dd4b2",
    "64x64/perturb": "97b3274c223f9596658ad85226c8f6ac7405c78aa5f9641b8aa79479102e8ee3",
    "64x64/perturb_semdist": "b9e471e198528dfec29565dcb0118ae804655babdb0047882d528da581880030",
    "64x64/decode_levels": "8821c20ba615756b59c21b5453b3b8cb590eee196e110f1f42525cde7c9908b6",
    "64x64/decode_modal": "cf70e39999500a4536c75b1cb6baa642c845c7b0dd6a7e7daabd2cfa5dc18f34",
    "64x64/decode_amodal": "113f537f61b767fe61b8c5a498b53efa3b1e64ab9867a2eb176b0e55dfcfd321",
    "64x64/order_regions": "3ab27038fbf7c6517660d487ba5630c45b215c3426c1e241d07a4c4e4769b3ee",
    "64x64/evaluate": "f8ea204208b7e5738649f27ab5d88d2c355bccd1422708df590e21983819810e",
    "256x256/stacks": "c46cc500721e511c08784c0ecbd3ae30c6d218ee7ed70bffc163ff7f16e43cd0",
    "256x256/scene_text": "02599a79f9ab4b3d175572f669dbe445824c86c63eebfb166f9256ca223f81db",
    "256x256/sdm": "8473f508d7e0f22a226ecace5b124d4f3771321d805e721127ba9d65d7af76da",
    "256x256/perturb": "47226c7a2f787cebe2d1e249b86e06273583dce5fd6a95d40b91eb8f75f24c18",
    "256x256/perturb_semdist": "743254cf7be3f3a424af488fb46429d1c924a09da8ec22f4b65afaefd6c72644",
    "256x256/decode_levels": "848c42e8a2b86e2dd8634913328dc6cdcaff118b25ea6a753a0d569b5e2d9f9b",
    "256x256/decode_modal": "48f11af13b4ef894f08c7314b005e91c6a2f55201210837a9fbaccc9125121a3",
    "256x256/decode_amodal": "9acdc44242cc07c608d1c0068c6b96e2ec2cfdaa519db209df2761e9fd6e60c6",
    "256x256/order_regions": "68d8c61ba1f72861d8cc098ccd9189d2c47ab5e63f844d0fbbcce77049440f29",
    "256x256/evaluate": "f1ab75e646a07ec230e543808b1488f734235476d93f6a910e9df05c6eb41362",
    "96x40/stacks": "b00910bb120ec6fafaf1156e2e5340fa884eb7ac1a67cfb240926c64fa36cc37",
    "96x40/scene_text": "967f10b2db26043504d60296de6bdf8bafad216cb8ceeb066721e87ef545e4a1",
    "96x40/sdm": "24e1a93914f83ec71d0c9cfca4b7388ac61d6f4b229a08e610c42f6f2a5f2fb7",
    "96x40/perturb": "c06a82490cb3f77993cb4569250d0c0ab0136b9013d7e2371638af990f0f25b0",
    "96x40/perturb_semdist": "62e7e26c092b314948634e17f6c4590fd9882e14ad361d1eeebfaf5bb7a542a7",
    "96x40/decode_levels": "44b6f0e20d09ed7c66a07ef91efadb04c15e3a3f787828d69cc66ae2fdcd9dce",
    "96x40/decode_modal": "d7cd2a5e227f946755b979987a822e623eeb4029bb9e5fe9985d471d9ef0ef9b",
    "96x40/decode_amodal": "42365b36ed522e732b16ad48497ac986711ab50d4a76f7b49002296aa98fa48a",
    "96x40/order_regions": "2dd27983ee8a23ce6c932d2bae2e276328797f704583dad37ac431949a573407",
    "96x40/evaluate": "21e4d28bee871c258494b240de1fdc112445b6260648386354413a4efff582fa",
    "generate/640x480": "81eb55ce2c782e0b74becd4854cff1219b1bf74b5c770d345f873422b35eb548",
    "generate/97x41": "870bc32fec5929fa346e7284f15a6637c044b17575c5bc1626ece6483816b26c",
    "random/validate_scene": "6af91a586ab4f7b1d87e3934e63be38bb07f7181279958e20584450f298a063f",
    "tiny/match_evaluate": "a38fe1d4403532475a6d295658cc3dcdcebc3420f340ee40dd5460852427b08e",
    "cli/commands": "c60fe4d2bfca11217b0fccac8406498cf36ba5c346b7ea7f3c90b20a031a79ba",
    "cli/files": "be1687333a5fe6df0e621f21625ae3b94abf6c1261e017eb70298eda53e98a4c",
}
# END GOLDEN


class _Digest:
    """SHA-256 over length-prefixed parts; arrays add their dtype and shape."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, part) -> None:
        if isinstance(part, np.ndarray):
            self.add(f"{part.dtype.str} {part.shape}")
            part = np.ascontiguousarray(part).tobytes()
        if isinstance(part, str):
            part = part.encode("utf-8")
        self._hash.update(len(part).to_bytes(8, "little"))
        self._hash.update(part)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _scene_case(config: GenConfig, work: Path) -> dict[str, list]:
    """The parts of every scene output for one generated scene."""
    parts: dict[str, list] = {name: [] for name in SCENE_OUTPUTS}
    scene = generate(config)
    parts["stacks"].append(scene.stacks)
    for form in ("sparse", "dense"):
        write_scene(scene, work / "scene.json", stacks=form)
        parts["scene_text"].append((work / "scene.json").read_bytes())
    maps = list(encode_scene(scene).items())
    parts["sdm"] += [semdist_to_bytes(m) for _, m in maps]
    gt = scene_annotations(scene)
    pred = perturb(
        gt,
        PerturbConfig(erode_radius=1, drop_occluded_prob=0.2, score_noise=0.1, seed=config.seed),
    )
    grown = perturb(gt, PerturbConfig(dilate_radius=2, score_noise=0.3, seed=config.seed + 7))
    for annotations in (pred, grown):
        write_annotations(scene.width, scene.height, annotations, work / "pred.json")
        parts["perturb"].append((work / "pred.json").read_bytes())
    pred_maps = perturb_semdist(maps, PerturbConfig(level_flip_prob=0.3, seed=config.seed))
    parts["perturb_semdist"] += [semdist_to_bytes(m) for _, m in pred_maps]
    for _, m in pred_maps:
        for c in (0.5, 0.96):
            parts["decode_levels"].append(decode_levels(m, c))
        parts["decode_modal"].append(decode_modal(m))
        parts["decode_amodal"].append(decode_amodal(m))
    for (id_a, a), (id_b, b) in combinations(pred_maps, 2):
        r = order_regions(a, b)
        parts["order_regions"].append(
            f"{id_a} {id_b} {r.verdict.value} {r.overlap_area} "
            f"{r.largest_front_region} {r.largest_behind_region}"
        )
    order_maps = assign_maps_to_gt(gt, pred, dict(pred_maps))
    report = evaluate([gt], [pred], image_names=[f"seed{config.seed}"],
                      order_items=[(scene, order_maps)])
    parts["evaluate"].append(json.dumps(report_to_dict(report), sort_keys=True))
    return parts


def _invalid_scenes(count: int, seed: int) -> list[LayerStackScene]:
    """Small scenes with random stacks, most of them invalid: ids from -2 to
    6 with gaps and repeats, and an instance list with missing and repeated ids."""
    rng = np.random.Generator(np.random.PCG64(seed))
    scenes = []
    for _ in range(count):
        depth, height, width = (int(v) for v in rng.integers(1, [5, 6, 6], endpoint=True))
        stacks = rng.integers(-2, 7, size=(depth, height, width))
        stacks[rng.uniform(size=stacks.shape) < 0.4] = 0
        ids = rng.integers(1, 7, size=int(rng.integers(0, 6)))
        records = tuple(InstanceRecord(int(i)) for i in ids)
        scenes.append(LayerStackScene(width, height, records, stacks))
    return scenes


def _tiny_images(count: int, seed: int):
    """(gt, pred) annotation lists on tiny frames, with random masks and
    scores from a few values, so IoU and score ties are common."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def annotations(n: int, scored: bool, categories):
        out = []
        for k in range(n):
            amodal = rng.uniform(size=(3, 4)) < 0.5
            amodal[int(rng.integers(3)), int(rng.integers(4))] = True
            visible = amodal & (rng.uniform(size=amodal.shape) < 0.7)
            score = float(rng.integers(1, 5)) / 4 if scored else 1.0
            category = categories[int(rng.integers(len(categories)))]
            out.append(InstanceAnnotation.from_masks(
                k + 1, BinaryMask(amodal), BinaryMask(visible), score, category))
        return out

    return [
        (annotations(int(rng.integers(1, 6)), False, ("a", "b", None)),
         annotations(int(rng.integers(0, 7)), True, ("a", "b", None)))
        for _ in range(count)
    ]


@lru_cache(maxsize=None)
def _group_parts(group: str) -> dict[str, list]:
    with tempfile.TemporaryDirectory() as tmp:
        cases = [_scene_case(config, Path(tmp)) for config in SCENE_GROUPS[group]]
    return {name: [p for case in cases for p in case[name]] for name in SCENE_OUTPUTS}


def _generate_parts(group: str) -> list:
    parts = []
    for config in GENERATE_GROUPS[group]:
        try:
            scene = generate(config)
        except GenerationError as error:
            parts.append(f"GenerationError: {error}")
            continue
        parts.append(json.dumps(scene_to_dict(scene), sort_keys=True))
        parts.append(repr(sorted(scene._boxes.items())))
    return parts


def _validate_parts() -> list:
    return [
        repr([(v.kind, v.message, v.pixel, v.instance_id) for v in validate_scene(scene)])
        for scene in _invalid_scenes(600, seed=16)
    ]


def _match_parts() -> list:
    parts = []
    images = _tiny_images(60, seed=17)
    for gt, pred in images:
        for threshold in (0.1, 0.25, 1 / 3, 0.5, 2 / 3, 1.0):
            for class_aware in (False, True):
                result = match(gt, pred, threshold, class_aware=class_aware)
                parts.append(repr((result.pairs, result.unmatched_gt, result.unmatched_pred)))
    for class_aware in (False, True):
        report = evaluate([gt for gt, _ in images], [pred for _, pred in images],
                          k_small=2, k_large=4, class_aware=class_aware)
        parts.append(json.dumps(report_to_dict(report), sort_keys=True))
    return parts


@lru_cache(maxsize=None)
def _cli_parts() -> dict[str, list]:
    """Each command with its exit code and stdout, and each written file
    after its path relative to the working directory, in path order."""
    commands = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for command in CLI_SEQUENCE:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = main(command.split())
                commands += [command, str(code), stdout.getvalue()]
            files = []
            for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
                files += [path.as_posix(), path.read_bytes()]
        finally:
            os.chdir(home)
    return {"commands": commands, "files": files}


def _digest(parts: list) -> str:
    digest = _Digest()
    for part in parts:
        digest.add(part)
    return digest.hexdigest()


def _cases() -> list[str]:
    keys = [f"{group}/{name}" for group in SCENE_GROUPS for name in SCENE_OUTPUTS]
    keys += [f"generate/{group}" for group in GENERATE_GROUPS]
    return keys + ["random/validate_scene", "tiny/match_evaluate", "cli/commands", "cli/files"]


def _compute(key: str) -> str:
    group, name = key.split("/")
    if key == "random/validate_scene":
        return _digest(_validate_parts())
    if key == "tiny/match_evaluate":
        return _digest(_match_parts())
    if group == "cli":
        return _digest(_cli_parts()[name])
    if group == "generate":
        return _digest(_generate_parts(name))
    return _digest(_group_parts(group)[name])


@pytest.mark.parametrize("key", _cases())
def test_golden_digest(key):
    assert _compute(key) == GOLDEN.get(key), (
        f"{key} changed; if the change is meant, rewrite the table as the "
        "module docstring says and name the digest in CHANGES.md"
    )


def test_table_lists_every_case():
    assert sorted(GOLDEN) == sorted(_cases())


def _rewrite() -> None:
    path = Path(__file__)
    rows = "".join(f'    "{key}": "{_compute(key)}",\n' for key in _cases())
    text = path.read_text(encoding="utf-8")
    table = f"# BEGIN GOLDEN\nGOLDEN = {{\n{rows}}}\n# END GOLDEN\n"
    text = re.sub(r"# BEGIN GOLDEN\n.*?# END GOLDEN\n", lambda _: table, text, flags=re.S)
    path.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --rewrite")
    _rewrite()
