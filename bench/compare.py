"""Repeat benchmark runs and compare two commits by the bounds in BENCHMARK.json.

    python3 bench/compare.py run --workload eval-64 --seeds 10 --out base.jsonl
    python3 bench/compare.py summary base.jsonl
    python3 bench/compare.py pairs --base ../parent --change . --workload eval-64 \
        --seeds 10 --out cmp
    python3 bench/compare.py diff cmp/base.jsonl cmp/change.jsonl

`run` calls bench/run.py of a checkout once per seed and appends one JSON
line per run. `pairs` runs a parent and a change checkout on the same seeds,
alternating which side goes first, then prints `diff`. A comparison whose
sides disagree on a digest or fingerprint of the same workload and seed is
void: the two commits did different work.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark process in `root`; its info and result lines."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} failed:\n{proc.stderr}")
    *_, info, result = proc.stdout.strip().splitlines()
    return {"info": json.loads(info)["info"], "result": json.loads(result)}


def run_seeds(root: Path, workload: str, seeds: int, seconds: int, trace: int, out: Path):
    with out.open("a", encoding="utf-8") as fh:
        for seed in range(seeds):
            record = run_once(root, workload, seed, seconds, trace)
            fh.write(json.dumps(record) + "\n")
            fh.flush()


def load(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def by_workload(records: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for rec in records:
        out.setdefault(rec["info"]["workload"], []).append(rec)
    return out


def summary(records: list[dict]) -> None:
    """Median, quartiles and spread (q3 - q1) / median of each metric."""
    for workload, recs in sorted(by_workload(records).items()):
        failed = sum(r["result"]["failed"] for r in recs)
        attempted = sum(r["result"]["attempted"] for r in recs)
        correct = all(r["result"]["correct"] for r in recs)
        print(f"{workload}: {len(recs)} runs, correct={correct}, failed {failed}/{attempted} ops")
        for name in recs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in recs]
            unit = recs[0]["result"]["metrics"][name]["unit"]
            if len(values) < 2:
                print(f"  {name:34s} {values[0]:12.5g} {unit}")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = BOUNDS.get(name, {}).get("bound")
            note = "" if bound is None else f"  bound {bound:.2f} ({spread / bound:.2f} of it)"
            print(f"  {name:34s} median {med:12.5g} {unit:8s} q1 {q1:12.5g} q3 {q3:12.5g}"
                  f"  spread {spread:7.2%}{note}")


def diff(base: list[dict], change: list[dict]) -> None:
    """Per workload and end-to-end metric: medians, pair wins and a verdict."""
    base_w, change_w = by_workload(base), by_workload(change)
    for workload in sorted(set(base_w) & set(change_w)):
        b_seed = {r["info"]["env"]["seed"]: r for r in base_w[workload]}
        c_seed = {r["info"]["env"]["seed"]: r for r in change_w[workload]}
        seeds = sorted(set(b_seed) & set(c_seed))
        void = [s for s in seeds
                if (b_seed[s]["info"]["digest"], b_seed[s]["info"]["fingerprint"])
                != (c_seed[s]["info"]["digest"], c_seed[s]["info"]["fingerprint"])]
        print(f"{workload}: {len(seeds)} paired seeds")
        if void:
            print(f"  VOID: digest or fingerprint differs on seeds {void}")
            continue
        for name, spec in BOUNDS.items():
            b = [b_seed[s]["result"]["metrics"][name]["value"] for s in seeds]
            c = [c_seed[s]["result"]["metrics"][name]["value"] for s in seeds]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            bq1, bmed, bq3 = statistics.quantiles(b, n=4)
            cmed = statistics.median(c)
            worse_by = sign * (cmed - bmed) / bmed
            wins = sum(sign * (cv - bv) < 0 for bv, cv in zip(b, c))
            spread = (bq3 - bq1) / bmed
            all_better = max(sign * v for v in c) < min(sign * v for v in b)
            if worse_by > spec["bound"]:
                verdict = "REGRESSED"
            elif spread > spec["bound"] and not all_better:
                verdict = "unresolved (spread wider than bound)"
            elif wins >= 0.9 * len(seeds) and -worse_by * bmed > bq3 - bq1:
                verdict = "improved"
            else:
                verdict = "no change beyond bound"
            print(f"  {name:14s} base {bmed:10.5g} change {cmed:10.5g} {spec['unit']:4s}"
                  f" worse by {worse_by:+7.2%} (bound {spec['bound']:.2f}),"
                  f" change wins {wins}/{len(seeds)}, base spread {spread:6.2%}: {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run one checkout on seeds 0..N-1")
    p.add_argument("--root", default=".", help="checkout to run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="JSON lines file to append to")
    p = sub.add_parser("pairs", help="run parent and change alternately, then diff")
    p.add_argument("--base", required=True, help="parent checkout")
    p.add_argument("--change", required=True, help="change checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--out", required=True, help="directory for base.jsonl and change.jsonl")
    p = sub.add_parser("summary", help="medians and spreads of result files")
    p.add_argument("files", nargs="+")
    p = sub.add_parser("diff", help="compare a base and a change result file")
    p.add_argument("base")
    p.add_argument("change")
    args = parser.parse_args(argv)

    if args.command == "run":
        run_seeds(Path(args.root), args.workload, args.seeds, args.seconds, args.trace,
                  Path(args.out))
    elif args.command == "pairs":
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        sides = [("base", Path(args.base)), ("change", Path(args.change))]
        files = {name: (out / f"{name}.jsonl").open("a", encoding="utf-8") for name, _ in sides}
        try:
            for seed in range(args.seeds):
                for name, root in sides if seed % 2 == 0 else sides[::-1]:
                    record = run_once(root, args.workload, seed, args.seconds, 0)
                    files[name].write(json.dumps(record) + "\n")
                    files[name].flush()
        finally:
            for fh in files.values():
                fh.close()
        diff(load(out / "base.jsonl"), load(out / "change.jsonl"))
    elif args.command == "summary":
        summary([rec for path in args.files for rec in load(path)])
    else:
        diff(load(args.base), load(args.change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
