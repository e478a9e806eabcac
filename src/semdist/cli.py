"""Command line front end.

Subcommands:
  generate   write synthetic occlusion scenes plus a manifest
  encode     turn one scene into per-instance .sdm map files
  decode     turn one .sdm map into a PGM (modal, amodal, or level view)
  order      report the pairwise depth-order verdict of two .sdm maps
  perturb    degrade ground truth into noisy annotation JSON
  eval       score predictions against ground truth, optional JSON report
  render     rasterize a scene to a PPM color image

Exit codes: 0 on success, 1 on data errors (bad files, impossible requests),
2 on usage errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .codec import (
    DEFAULT_CONFIDENCE,
    DEFAULT_THRESHOLD,
    _check_threshold,
    decode_amodal,
    decode_levels,
    decode_modal,
    encode_scene,
    order_regions,
)
from .compositor import GenConfig, PerturbConfig, generate, perturb, render, scene_annotations
from .io import (
    SchemaError,
    _dump_json,
    _parse_json,
    _read_text,
    _scene_from_text,
    annotations_from_dict,
    read_scene,
    read_semdist,
    scene_from_dict,
    write_annotations,
    write_pgm,
    write_ppm,
    write_scene,
    write_semdist,
)
from .metrics import assign_maps_to_gt, evaluate, report_to_dict
from .types import LEVEL_ABSENT, SemDistError

__all__ = ["main", "run"]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _object_range(text: str) -> tuple[int, int]:
    matched = re.fullmatch(r"([0-9]+)\.\.([0-9]+)", text)
    if matched is None:
        raise argparse.ArgumentTypeError(f'expected "MIN..MAX", got {text!r}')
    lo, hi = int(matched.group(1)), int(matched.group(2))
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"expected 1 <= MIN <= MAX, got {text!r}")
    return lo, hi


def _unit_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not (0.0 <= value <= 1.0):
        raise argparse.ArgumentTypeError(f"expected a value in [0, 1], got {value}")
    return value


def _output_path(out: str) -> Path:
    """The path of an output file, its parent directory created."""
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_generate(args: argparse.Namespace) -> int:
    # every config is checked before the output directory exists
    configs = [GenConfig(seed=args.seed + index, width=args.width, height=args.height,
                         object_count_range=args.objects, max_levels=args.max_levels)
               for index in range(args.count)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for index, config in enumerate(configs):
        name = f"scene_{index:04d}.json"
        write_scene(generate(config), out / name)
        names.append(name)
    manifest = {
        "count": args.count,
        "seed": args.seed,
        "width": args.width,
        "height": args.height,
        "objects": list(args.objects),
        "max_levels": args.max_levels,
        "files": names,
    }
    (out / "manifest.json").write_text(_dump_json(manifest), encoding="utf-8")
    print(f"wrote {args.count} scenes to {out}")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    scene_path = Path(args.scene)
    scene = read_scene(scene_path)
    maps = encode_scene(scene, args.confidence)  # raises before the output directory exists
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for instance_id, semdist in maps.items():
        write_semdist(semdist, out / f"{scene_path.stem}_{instance_id:04d}.sdm")
    print(f"wrote {len(scene.instances)} maps to {out}")
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    semdist = read_semdist(args.map)
    _check_threshold(args.threshold)
    if args.mode in ("modal", "amodal"):
        decode = decode_modal if args.mode == "modal" else decode_amodal
        image = np.where(decode(semdist) >= args.threshold, 255, 0).astype(np.uint8)
    else:  # levels: 0 marks absence, level k maps to k + 1
        levels = decode_levels(semdist, args.threshold)
        image = np.where(levels == LEVEL_ABSENT, 0, np.minimum(levels + 1, 255)).astype(
            np.uint8
        )
    write_pgm(image, _output_path(args.out))
    print(f"wrote {args.mode} view to {args.out}")
    return 0


def _cmd_order(args: argparse.Namespace) -> int:
    map_a = read_semdist(args.map_a)
    map_b = read_semdist(args.map_b)
    regions = order_regions(map_a, map_b, args.c)
    print(f"verdict: {regions.verdict.value}")
    print(f"overlap_area: {regions.overlap_area}")
    print(f"largest_front_region: {regions.largest_front_region}")
    print(f"largest_behind_region: {regions.largest_behind_region}")
    return 0


def _read_gt_document(path: Path):
    """Scene or annotation JSON -> (width, height, annotations, scene or None)."""
    text = _read_text(path)
    scene = _scene_from_text(text)
    if scene is not None:
        return scene.width, scene.height, scene_annotations(scene), scene
    doc = _parse_json(text)
    if isinstance(doc, dict) and "stacks" in doc:
        scene = scene_from_dict(doc)
        return scene.width, scene.height, scene_annotations(scene), scene
    if isinstance(doc, dict) and "annotations" in doc:
        width, height, annotations = annotations_from_dict(doc)
        return width, height, annotations, None
    raise SchemaError("$", "expected a scene or annotation document")


def _read_named_document(path: Path, named: bool):
    """_read_gt_document, whose data error names the file when named is true."""
    try:
        return _read_gt_document(path)
    except (SemDistError, OSError, ValueError) as exc:
        if not named:
            raise
        raise SemDistError(f"{path}: {exc}") from exc


def _cmd_perturb(args: argparse.Namespace) -> int:
    width, height, annotations, _ = _read_gt_document(Path(args.gt))
    config = PerturbConfig(
        erode_radius=args.erode,
        dilate_radius=args.dilate,
        drop_occluded_prob=args.drop_occluded,
        score_noise=args.score_noise,
        seed=args.seed,
    )
    degraded = perturb(annotations, config)
    write_annotations(width, height, degraded, _output_path(args.out))
    print(f"wrote {len(degraded)} annotations to {args.out}")
    return 0


def _pair_inputs(gt: Path, pred: Path) -> list[tuple[str, Path, Path]]:
    if gt.is_dir() != pred.is_dir():
        raise SemDistError("gt and pred must both be files or both be directories")
    if not gt.is_dir():
        return [(gt.stem, gt, pred)]
    pairs = []
    for gt_file in sorted(gt.glob("*.json")):
        if gt_file.name == "manifest.json":
            continue
        pred_file = pred / gt_file.name
        if not pred_file.is_file():
            raise SemDistError(f"missing prediction file for {gt_file.name}")
        pairs.append((gt_file.stem, gt_file, pred_file))
    if not pairs:
        raise SemDistError(f"no scene or annotation JSON files under {gt}")
    return pairs


def _cmd_eval(args: argparse.Namespace) -> int:
    pairs = _pair_inputs(Path(args.gt), Path(args.pred))
    named = Path(args.gt).is_dir()  # over directories, a data error names its file
    names = []
    gt_images = []
    pred_images = []
    order_items = []
    for name, gt_file, pred_file in pairs:
        _, _, gt_anns, gt_scene = _read_named_document(gt_file, named)
        _, _, pred_anns, pred_scene = _read_named_document(pred_file, named)
        names.append(name)
        gt_images.append(gt_anns)
        pred_images.append(pred_anns)
        if gt_scene is not None and pred_scene is not None:
            pred_maps = encode_scene(pred_scene, args.confidence)
            order_items.append(
                (gt_scene, assign_maps_to_gt(gt_anns, pred_anns, pred_maps))
            )
    report = evaluate(
        gt_images,
        pred_images,
        image_names=names,
        order_items=order_items or None,
        c=args.c,
        gt_confidence=args.confidence,
        k_small=args.k10,
        k_large=args.k100,
    )
    doc = report_to_dict(report)
    for key, value in doc.items():
        if not isinstance(value, (list, dict)):  # the metrics; per_image and meta are not printed
            print(f"{key}: {'none' if value is None else f'{value:.4f}'}")
    if args.report is not None:
        _output_path(args.report).write_text(_dump_json(doc), encoding="utf-8")
        print(f"wrote report to {args.report}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    scene = read_scene(args.scene)
    write_ppm(render(scene), _output_path(args.out))
    print(f"wrote render to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semdist",
        description="Synthesize, encode, and score amodal occlusion scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write synthetic scenes and a manifest")
    p.add_argument("--seed", type=int, default=0, help="seed of the first scene")
    p.add_argument("--count", type=_positive_int, default=1, help="number of scenes")
    p.add_argument("--width", type=_positive_int, default=64)
    p.add_argument("--height", type=_positive_int, default=64)
    p.add_argument(
        "--objects", type=_object_range, default=(3, 6), metavar="MIN..MAX",
        help="inclusive object count range (default 3..6)",
    )
    p.add_argument("--max-levels", type=_positive_int, default=8)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("encode", help="scene JSON to per-instance .sdm maps")
    p.add_argument("--scene", required=True)
    p.add_argument("--confidence", type=float, default=DEFAULT_CONFIDENCE)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=_cmd_encode)

    p = sub.add_parser("decode", help=".sdm map to a PGM view")
    p.add_argument("--map", required=True)
    p.add_argument("--mode", choices=("modal", "amodal", "levels"), default="modal")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--out", required=True, help="output .pgm file")
    p.set_defaults(handler=_cmd_decode)

    p = sub.add_parser("order", help="depth-order verdict of two .sdm maps")
    p.add_argument("--map-a", required=True)
    p.add_argument("--map-b", required=True)
    p.add_argument("--c", type=float, default=DEFAULT_THRESHOLD, help="overlap threshold")
    p.set_defaults(handler=_cmd_order)

    p = sub.add_parser("perturb", help="degrade ground truth into noisy annotations")
    p.add_argument("--gt", required=True, help="scene or annotation JSON")
    p.add_argument("--erode", type=int, default=0, help="erosion radius in pixels")
    p.add_argument("--dilate", type=int, default=0, help="dilation radius in pixels")
    p.add_argument("--drop-occluded", type=_unit_float, default=0.0,
                   help="probability of dropping each occluded instance")
    p.add_argument("--score-noise", type=float, default=0.0,
                   help="standard deviation of additive score noise")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output annotation JSON")
    p.set_defaults(handler=_cmd_perturb)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--gt", required=True, help="file or directory")
    p.add_argument("--pred", required=True, help="file or directory")
    p.add_argument("--c", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--confidence", type=float, default=DEFAULT_CONFIDENCE)
    p.add_argument("--k10", type=_positive_int, default=10,
                   help="per-image budget of the small AR metric")
    p.add_argument("--k100", type=_positive_int, default=100,
                   help="per-image budget of the large AR metric")
    p.add_argument("--report", default=None, help="optional JSON report path")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("render", help="scene JSON to a PPM image")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True, help="output .ppm file")
    p.set_defaults(handler=_cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except (SemDistError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
