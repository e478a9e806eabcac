"""Smoke test of the benchmark itself: every workload, untraced and traced.

    python3 -m pytest -q bench/test_smoke.py

Each run is short (--seconds 0: one pass over the workload's pool, at least
100 ops), runs on the default seed, so the pinned digests are checked too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    *_, info, result = proc.stdout.strip().splitlines()
    return json.loads(info)["info"], json.loads(result)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_untraced_and_traced(workload, tmp_path):
    spans_file = tmp_path / "spans.jsonl"
    plain_info, plain = bench(workload, 0)
    traced_info, traced = bench(workload, 1, "--spans", str(spans_file))

    for info, result, names in (
        (plain_info, plain, SPEC["end_to_end"]),
        (traced_info, traced, SPEC["per_layer"]),
    ):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and info["fail_frac"] == 0.0
        assert result["attempted"] >= 100
        assert set(result["metrics"]) == {m["name"] for m in names}
        for m in names:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    assert plain_info["digest"] == traced_info["digest"] == plain_info["digest_pinned"]
    assert plain_info["fingerprint"] == traced_info["fingerprint"]
    spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    called = {s["name"] for s in spans}
    for name in called:
        assert traced["metrics"][f"{name}.calls"]["value"] > 0
    assert all(s["start"] <= s["end"] for s in spans)


def test_bare_directory_fails_without_result(tmp_path):
    """Without the library sources the benchmark exits non-zero and prints no result."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in SPEC["paths"]:
        dest = tmp_path / path
        dest.mkdir(parents=True)
        for f in (ROOT / path).glob("*"):
            if f.is_file():
                (dest / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
