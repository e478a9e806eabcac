import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semdist
from semdist import (
    BinaryMask,
    GenConfig,
    InstanceRecord,
    LayerStackScene,
    PerturbConfig,
    decode_levels,
    encode_semdist,
    generate,
    perturb,
    read_annotations,
    read_pgm,
    read_ppm,
    read_scene,
    read_semdist,
    render,
    scene_annotations,
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
    assert not out.exists()


def test_generate_bad_config_exits_one_without_its_directory(tmp_path, capsys):
    out = tmp_path / "scenes"
    assert main(["generate", "--count", "2", "--width", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not out.exists()


def test_generate_negative_seed_exits_one_without_its_directory(tmp_path, capsys):
    out = tmp_path / "scenes"
    assert main(["generate", "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not out.exists()


def test_generate_takes_a_seed_past_64_bits(tmp_path):
    out = tmp_path / "scenes"
    assert main(["generate", "--seed", str(2**64), "--out", str(out)]) == 0
    assert read_scene(out / "scene_0000.json") == generate(GenConfig(seed=2**64))


def test_perturb_negative_seed_exits_one(tmp_path, scene_file, capsys):
    out = tmp_path / "pred.json"
    assert main(["perturb", "--gt", str(scene_file), "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["9223372036854775808", "1099511627776"])
@pytest.mark.parametrize("command", ["render", "eval"])
def test_stacks_no_array_can_hold_exit_one(tmp_path, capsys, command, key):
    path = tmp_path / "huge.json"
    doc = {"width": 2**32, "height": 2**32, "instances": [{"id": 1}], "stacks": {key: [1]}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "huge.ppm"
    args = {
        "render": ["render", "--scene", str(path), "--out", str(out)],
        "eval": ["eval", "--gt", str(path), "--pred", str(path)],
    }[command]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: $: cannot hold 1x4294967296x4294967296 stacks: "
        "the stacks are larger than the maximum possible array size\n"
    )
    assert not out.exists()


def test_encode_confidence_lost_at_depth_exits_one_and_writes_nothing(tmp_path, scene_file, capsys):
    # instance 2 of s0 sits at level 1 in row 1, where 1e-8 - 1 rounds to -1.0
    out = tmp_path / "maps"
    assert main(["encode", "--scene", str(scene_file), "--confidence", "1e-8", "--out", str(out)]) == 1
    assert "at level 1 does not survive float32 rounding at pixel (0, 1)" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("threshold", ["0", "-1", "1.5", "nan"])
@pytest.mark.parametrize("mode", ["modal", "amodal", "levels"])
def test_decode_threshold_outside_unit_interval_exits_one(
    tmp_path, scene_file, capsys, mode, threshold
):
    maps = tmp_path / "maps"
    main(["encode", "--scene", str(scene_file), "--out", str(maps)])
    capsys.readouterr()
    out = tmp_path / "view.pgm"
    args = ["decode", "--map", str(maps / "scene_0002.sdm"), "--mode", mode]
    assert main(args + ["--threshold", threshold, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "confidence threshold must lie strictly inside (0, 1)" in captured.err
    assert not out.exists()


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


def test_perturb_nan_score_noise_exits_one(tmp_path, scene_file, capsys):
    out = tmp_path / "pred.json"
    code = main(["perturb", "--gt", str(scene_file), "--score-noise", "nan", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: score_noise must be non-negative, got nan\n"
    assert not out.exists()


def test_dense_scene_file_reads_as_its_sparse_twin(tmp_path, capsys):
    scene = generate(GenConfig(seed=6))
    outputs = []
    for form in ("sparse", "dense"):
        path = tmp_path / f"{form}.json"
        write_scene(scene, path, stacks=form)
        pred = tmp_path / f"{form}_pred.json"
        capsys.readouterr()
        assert main(["perturb", "--gt", str(path), "--erode", "1", "--seed", "3",
                     "--out", str(pred)]) == 0
        assert main(["eval", "--gt", str(path), "--pred", str(path)]) == 0
        assert main(["eval", "--gt", str(path), "--pred", str(pred)]) == 0
        outputs.append((pred.read_bytes(), capsys.readouterr().out.replace(str(pred), "PRED")))
    assert outputs[0] == outputs[1]
    assert "order_accuracy: 1.0000" in outputs[0][1]


@pytest.mark.parametrize("command", ["perturb", "eval"])
def test_json_that_is_neither_scene_nor_annotations_exits_one(tmp_path, capsys, command):
    path = tmp_path / "other.json"
    path.write_text('{"images": []}', encoding="utf-8")
    args = {
        "perturb": ["perturb", "--gt", str(path), "--out", str(tmp_path / "pred.json")],
        "eval": ["eval", "--gt", str(path), "--pred", str(path)],
    }[command]
    assert main(args) == 1
    assert capsys.readouterr().err == "error: $: expected a scene or annotation document\n"
    assert not (tmp_path / "pred.json").exists()


def test_eval_empty_directory_exits_one(tmp_path, capsys):
    gt, pred = tmp_path / "gt", tmp_path / "pred"
    gt.mkdir()
    pred.mkdir()
    assert main(["eval", "--gt", str(gt), "--pred", str(pred)]) == 1
    assert capsys.readouterr().err == f"error: no scene or annotation JSON files under {gt}\n"


def test_perturb_drop_occluded_checked_at_parse_time(tmp_path, scene_file, capsys):
    out = tmp_path / "pred.json"
    assert main(["perturb", "--gt", str(scene_file), "--drop-occluded", "1.5",
                 "--out", str(out)]) == 2
    assert "expected a value in [0, 1], got 1.5" in capsys.readouterr().err
    assert not out.exists()


def test_perturb_drop_occluded_writes_what_perturb_gives(tmp_path, capsys):
    scene = generate(GenConfig(seed=0))
    gt, out, want = tmp_path / "gt.json", tmp_path / "pred.json", tmp_path / "want.json"
    write_scene(scene, gt)
    assert main(["perturb", "--gt", str(gt), "--drop-occluded", "0.5", "--score-noise", "0.1",
                 "--out", str(out)]) == 0
    config = PerturbConfig(drop_occluded_prob=0.5, score_noise=0.1)
    kept = perturb(scene_annotations(scene), config)
    assert 0 < len(kept) < len(scene.instances)  # the draw drops some instance, not all
    write_annotations(scene.width, scene.height, kept, want)
    assert out.read_bytes() == want.read_bytes()
    assert capsys.readouterr().out == f"wrote {len(kept)} annotations to {out}\n"


def test_every_command_takes_a_scene_with_an_instance_no_pixel_holds(tmp_path, capsys):
    mask = BinaryMask(np.array([[1, 1, 0], [0, 1, 1]], dtype=bool))
    scene = LayerStackScene.from_layers(
        3, 2, [(InstanceRecord(1), mask), (InstanceRecord(2), BinaryMask.zeros(3, 2))]
    )
    path, pred = tmp_path / "s.json", tmp_path / "pred.json"
    write_scene(scene, path)
    assert main(["eval", "--gt", str(path), "--pred", str(path)]) == 0
    assert capsys.readouterr().out.startswith("ap: 1.0000\n")
    assert main(["perturb", "--gt", str(path), "--out", str(pred)]) == 0
    assert [ann.id for ann in read_annotations(pred)[2]] == [1]
    assert main(["encode", "--scene", str(path), "--out", str(tmp_path / "maps")]) == 0
    assert not read_semdist(tmp_path / "maps" / "s_0002.sdm").values.any()
    assert main(["render", "--scene", str(path), "--out", str(tmp_path / "s.ppm")]) == 0


@pytest.mark.parametrize("flag, value", [("--erode", "-1"), ("--dilate", "-2"),
                                         ("--score-noise", "-0.5")])
def test_perturb_negative_config_exits_one(tmp_path, scene_file, capsys, flag, value):
    out = tmp_path / "pred.json"
    assert main(["perturb", "--gt", str(scene_file), flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_render_writes_ppm(tmp_path, scene_file):
    out = tmp_path / "scene.ppm"
    assert main(["render", "--scene", str(scene_file), "--out", str(out)]) == 0
    assert np.array_equal(read_ppm(out), render(build_s0()))


@pytest.mark.parametrize("command", ["perturb", "decode", "render", "eval"])
def test_output_file_in_a_new_directory(tmp_path, scene_file, capsys, command):
    maps = tmp_path / "maps"
    main(["encode", "--scene", str(scene_file), "--out", str(maps)])
    written = []
    for out in (tmp_path / "flat.out", tmp_path / "new" / "nested" / "file.out"):
        args = {
            "perturb": ["perturb", "--gt", str(scene_file), "--out", str(out)],
            "decode": ["decode", "--map", str(maps / "scene_0002.sdm"), "--out", str(out)],
            "render": ["render", "--scene", str(scene_file), "--out", str(out)],
            "eval": ["eval", "--gt", str(scene_file), "--pred", str(scene_file), "--report", str(out)],
        }[command]
        capsys.readouterr()
        assert main(args) == 0
        assert capsys.readouterr().out.endswith(f" to {out}\n")
        written.append(out.read_bytes())
    assert written[0] == written[1]


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


def test_eval_score_past_float_range_exits_one(tmp_path, capsys):
    doc = {"width": 1, "height": 1, "annotations": [
        {"id": 1, "score": 10**400, "occlusion_rate": 0.0, "amodal": [0, 1], "visible": [0, 1]}]}
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["eval", "--gt", str(path), "--pred", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: $.annotations[0].score: ")


def test_eval_mask_past_intp_exits_one(tmp_path):
    # counts that wrap in int64 once crashed the interpreter, so run in a child process
    counts = [2**62] * 4
    doc = {"width": 2**32, "height": 2**32, "annotations": [
        {"id": 1, "score": 1.0, "occlusion_rate": 0.0, "amodal": counts, "visible": counts}]}
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    script = "import sys; from semdist.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(semdist.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, "eval", "--gt", str(path), "--pred", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1
    assert done.stderr.startswith("error: $.annotations[0].amodal: ")


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


@pytest.mark.parametrize("command, flag, value, message", [
    ("generate", "--count", "0", "expected a positive integer, got 0"),
    ("generate", "--count", "x", "expected an integer, got 'x'"),
    ("generate", "--objects", "3-6", "expected \"MIN..MAX\", got '3-6'"),
    ("generate", "--objects", "\u0663..\u0666", "expected \"MIN..MAX\", got '\u0663..\u0666'"),
    ("perturb", "--drop-occluded", "x", "expected a number, got 'x'"),
])
def test_bad_argument_values_exit_two(tmp_path, capsys, command, flag, value, message):
    out = tmp_path / "out"
    given = ["--gt", str(tmp_path / "gt.json")] if command == "perturb" else []
    assert main([command, *given, flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(f"{flag}: {message}\n")
    assert not out.exists()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "generate" in capsys.readouterr().out


def test_console_entry_point_exists():
    from semdist.cli import run

    assert callable(run)
