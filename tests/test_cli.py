import json

import numpy as np
import pytest

from semdist import (
    GenConfig,
    LayerStackScene,
    decode_levels,
    encode_semdist,
    generate,
    read_annotations,
    read_pgm,
    read_ppm,
    read_scene,
    read_semdist,
    render,
    semdist_to_bytes,
    visible_mask_of,
    write_annotations,
    write_scene,
)
from semdist.cli import main

from conftest import build_s0


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.json"
    write_scene(build_s0(), path)
    return path


def test_generate_writes_scenes_and_manifest(tmp_path):
    out = tmp_path / "scenes"
    assert main(["generate", "--seed", "3", "--count", "4", "--out", str(out)]) == 0
    files = sorted(p.name for p in out.glob("scene_*.json"))
    assert files == [f"scene_{i:04d}.json" for i in range(4)]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["count"] == 4 and manifest["seed"] == 3
    assert manifest["files"] == files
    for name in files:
        scene = read_scene(out / name)
        assert 3 <= len(scene.instances) <= 6


def test_generate_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["generate", "--seed", "9", "--count", "2", "--out", str(out)]) == 0
    for name in ("scene_0000.json", "scene_0001.json", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_objects_flag(tmp_path):
    out = tmp_path / "scenes"
    code = main(
        ["generate", "--seed", "1", "--count", "2", "--objects", "2..2", "--out", str(out)]
    )
    assert code == 0
    for i in range(2):
        assert len(read_scene(out / f"scene_{i:04d}.json").instances) == 2


def test_encode_writes_one_map_per_instance(tmp_path, scene_file):
    out = tmp_path / "maps"
    assert main(["encode", "--scene", str(scene_file), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.glob("*.sdm"))
    assert names == ["scene_0001.sdm", "scene_0002.sdm"]
    semdist = read_semdist(out / "scene_0002.sdm")
    assert np.all(semdist.values[2] == np.float32(0.95))


def test_encode_file_bytes_match_encode_semdist(tmp_path):
    scene = generate(GenConfig(seed=11, object_count_range=(5, 6)))
    scene_path = tmp_path / "crowd.json"
    write_scene(scene, scene_path)
    out = tmp_path / "maps"
    assert main(["encode", "--scene", str(scene_path), "--confidence", "0.8", "--out", str(out)]) == 0
    assert len(list(out.glob("*.sdm"))) == len(scene.instances) >= 5
    for instance_id in scene.ids():
        written = (out / f"crowd_{instance_id:04d}.sdm").read_bytes()
        assert written == semdist_to_bytes(encode_semdist(scene, instance_id, 0.8))


def test_encode_bad_confidence_exits_one_without_instances(tmp_path, capsys):
    scene_path = tmp_path / "empty.json"
    write_scene(LayerStackScene(3, 2, (), np.zeros((0, 2, 3), dtype=np.int32)), scene_path)
    out = tmp_path / "maps"
    assert main(["encode", "--scene", str(scene_path), "--confidence", "1.5", "--out", str(out)]) == 1
    assert "confidence" in capsys.readouterr().err


def test_encode_confidence_lost_at_depth_exits_one_and_writes_nothing(tmp_path, scene_file, capsys):
    # instance 2 of s0 sits at level 1 in row 1, where 1e-8 - 1 rounds to -1.0
    out = tmp_path / "maps"
    assert main(["encode", "--scene", str(scene_file), "--confidence", "1e-8", "--out", str(out)]) == 1
    assert "at level 1 does not survive float32 rounding at pixel (0, 1)" in capsys.readouterr().err
    assert not list(out.glob("*.sdm"))


def test_decode_modes(tmp_path, scene_file):
    maps = tmp_path / "maps"
    main(["encode", "--scene", str(scene_file), "--out", str(maps)])
    map_b = maps / "scene_0002.sdm"

    modal_out = tmp_path / "modal.pgm"
    assert main(["decode", "--map", str(map_b), "--mode", "modal", "--out", str(modal_out)]) == 0
    modal = read_pgm(modal_out)
    scene = build_s0()
    assert np.array_equal(modal == 255, visible_mask_of(scene, 2).bits)

    amodal_out = tmp_path / "amodal.pgm"
    assert main(["decode", "--map", str(map_b), "--mode", "amodal", "--out", str(amodal_out)]) == 0
    amodal = read_pgm(amodal_out)
    assert (amodal == 255).sum() == 6

    levels_out = tmp_path / "levels.pgm"
    assert main(["decode", "--map", str(map_b), "--mode", "levels", "--out", str(levels_out)]) == 0
    levels_img = read_pgm(levels_out)
    # levels are shifted by one so 0 can mean absent
    expected = decode_levels(read_semdist(map_b)) + 1
    expected[expected == 0] = 0
    assert np.array_equal(levels_img.astype(np.int32), np.maximum(expected, 0))


def test_order_prints_verdict(tmp_path, scene_file, capsys):
    maps = tmp_path / "maps"
    main(["encode", "--scene", str(scene_file), "--out", str(maps)])
    capsys.readouterr()  # discard the encode status line
    code = main(
        [
            "order",
            "--map-a", str(maps / "scene_0001.sdm"),
            "--map-b", str(maps / "scene_0002.sdm"),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "verdict: A_in_front"
    assert lines[1] == "overlap_area: 3"


def test_perturb_scene_to_annotations(tmp_path, scene_file):
    out = tmp_path / "pred.json"
    code = main(
        ["perturb", "--gt", str(scene_file), "--erode", "1", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    width, height, annotations = read_annotations(out)
    assert (width, height) == (3, 3)
    for ann in annotations:
        assert ann.amodal.area() > 0


def test_perturb_accepts_annotation_documents(tmp_path, scene_file):
    first = tmp_path / "first.json"
    main(["perturb", "--gt", str(scene_file), "--out", str(first)])
    second = tmp_path / "second.json"
    assert main(["perturb", "--gt", str(first), "--out", str(second)]) == 0
    assert read_annotations(second) == read_annotations(first)


def test_render_writes_ppm(tmp_path, scene_file):
    out = tmp_path / "scene.ppm"
    assert main(["render", "--scene", str(scene_file), "--out", str(out)]) == 0
    assert np.array_equal(read_ppm(out), render(build_s0()))


def test_eval_gt_vs_gt_pair_of_directories(tmp_path, capsys):
    gt = tmp_path / "gt"
    assert main(["generate", "--seed", "4", "--count", "3", "--out", str(gt)]) == 0
    report_path = tmp_path / "report.json"
    code = main(
        ["eval", "--gt", str(gt), "--pred", str(gt), "--report", str(report_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ap: 1.0000" in out
    assert "order_accuracy: 1.0000" in out
    report = json.loads(report_path.read_text())
    assert report["ap"] == 1.0
    assert report["ar10"] == 1.0
    assert report["order_accuracy"] == 1.0
    assert len(report["per_image"]) == 3


def test_eval_prints_the_seven_metrics_in_report_order(tmp_path, capsys):
    gt = tmp_path / "gt"
    pred = tmp_path / "pred"
    assert main(["generate", "--seed", "4", "--count", "2", "--out", str(gt)]) == 0
    pred.mkdir()
    for scene in sorted(gt.glob("scene_*.json")):
        assert main(["perturb", "--gt", str(scene), "--erode", "1", "--score-noise", "0.2",
                     "--out", str(pred / scene.name)]) == 0
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    assert main(["eval", "--gt", str(gt), "--pred", str(pred),
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    keys = ["ap", "ar10", "ar100", "ar_none", "ar_partial", "ar_heavy", "order_accuracy"]
    # annotation predictions carry no scene, so there is no depth order to score
    assert report["order_accuracy"] is None
    expected = [
        f"{key}: {'none' if report[key] is None else format(report[key], '.4f')}"
        for key in keys
    ]
    lines = capsys.readouterr().out.splitlines()
    assert lines == expected + [f"wrote report to {report_path}"]


def test_eval_bad_order_threshold_exits_one(tmp_path, capsys):
    gt = tmp_path / "gt"
    assert main(["generate", "--seed", "4", "--count", "2", "--out", str(gt)]) == 0
    capsys.readouterr()
    assert main(["eval", "--gt", str(gt), "--pred", str(gt), "--c", "0.96"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "threshold c must satisfy 0 < c < gt confidence" in captured.err


def test_eval_single_files_with_annotations(tmp_path, scene_file):
    from semdist import scene_annotations

    pred_path = tmp_path / "pred.json"
    write_annotations(3, 3, scene_annotations(build_s0()), pred_path)
    assert main(["eval", "--gt", str(scene_file), "--pred", str(pred_path)]) == 0


def test_eval_k_budget_flags(tmp_path, capsys):
    gt = tmp_path / "gt"
    main(["generate", "--seed", "4", "--count", "2", "--out", str(gt)])
    code = main(["eval", "--gt", str(gt), "--pred", str(gt), "--k10", "1", "--k100", "2"])
    assert code == 0
    out = capsys.readouterr().out
    # a budget of one prediction per image cannot recall every instance
    ar10 = float(out.split("ar10: ")[1].split()[0])
    assert ar10 < 1.0


def test_eval_mixed_file_and_directory_fails(tmp_path, scene_file, capsys):
    gt_dir = tmp_path / "gt"
    main(["generate", "--seed", "4", "--count", "1", "--out", str(gt_dir)])
    assert main(["eval", "--gt", str(gt_dir), "--pred", str(scene_file)]) == 1


def test_eval_missing_prediction_file_fails(tmp_path, capsys):
    gt = tmp_path / "gt"
    pred = tmp_path / "pred"
    main(["generate", "--seed", "4", "--count", "2", "--out", str(gt)])
    main(["generate", "--seed", "4", "--count", "1", "--out", str(pred)])
    assert main(["eval", "--gt", str(gt), "--pred", str(pred)]) == 1


def test_missing_input_file_exits_one(tmp_path, capsys):
    assert main(["decode", "--map", str(tmp_path / "nope.sdm"), "--out", str(tmp_path / "x.pgm")]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_scene_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"width": 2}', encoding="utf-8")
    assert main(["encode", "--scene", str(bad), "--out", str(tmp_path / "maps")]) == 1
    assert "$.height" in capsys.readouterr().err


def test_deeply_nested_scene_exits_one(tmp_path, capsys):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert main(["encode", "--scene", str(bad), "--out", str(tmp_path / "maps")]) == 1
    assert capsys.readouterr().err.startswith("error: $: ")


def test_usage_errors_exit_two(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["generate", "--objects", "5..2", "--out", "x"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "generate" in capsys.readouterr().out


def test_console_entry_point_exists():
    from semdist.cli import run

    assert callable(run)
