"""Run one semdist benchmark workload and print its metrics.

    python3 bench/run.py --workload build-64 --seed 0 --seconds 10 --trace 0

One process runs one workload as a closed loop with one client: the next op
starts when the previous one has finished, and no thread is started. Inputs
come from --seed; the library sees only the generated inputs. Every op's
output is checked outside its timed span. The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The line
before it holds the digest, the fingerprint and the environment.
"""

import time

_START = time.perf_counter()  # setup_s counts the imports below

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one client, one thread: no BLAS pool either

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import semdist
except ImportError as exc:
    sys.exit(f"error: cannot import semdist from {ROOT / 'src'}: {exc}")
if Path(semdist.__file__).resolve().parent != ROOT / "src" / "semdist":
    sys.exit(f"error: imported semdist from {semdist.__file__}, not from {ROOT / 'src'}")

import numpy
import scipy
from spans import Layers, Tracer
from workloads import PLAIN, WORKLOADS, CheckError

IMPORT_S = time.perf_counter() - _START

MIN_OPS = 100  # so that at least 10 latency samples lie beyond p90
SETUP_REPS = 3  # setup_s is the import time plus the median of these
WARMUP_OPS = 2
DEFAULT_SEED = 0
# Workload digests at DEFAULT_SEED; a change that alters any output fails the run.
PINNED_DIGESTS = {
    "build-64": "440ca72db5d87c3c",
    "eval-64": "38566fe74e0056ef",
    "order-256": "f6d0860134093672",
}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def set_up(workload, work: Path, seed: int):
    """Build the inputs SETUP_REPS times; return the last state and the median time."""
    times = []
    previous = None
    for rep in range(SETUP_REPS):
        state = None  # free the previous inputs before building the next ones
        start = time.perf_counter()
        state = workload.setup(work / f"setup-{rep}", seed)
        for i in range(WARMUP_OPS):
            workload.check(state, i, workload.op(PLAIN, state, i))
        times.append(time.perf_counter() - start)
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        previous = work / f"setup-{rep}"
    return state, statistics.median(times)


def run_op(workload, layers, state, i: int, seen: dict):
    """One timed op and its untimed check: (seconds, digest, counts, error)."""
    start = time.perf_counter()
    try:
        outcome = workload.op(layers, state, i)
    except Exception as exc:  # a raising op is a failed op; the loop goes on
        return time.perf_counter() - start, None, {}, f"op {i}: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    try:
        digest, counts = workload.check(state, i, outcome)
        if seen.setdefault(workload.key(i), digest) != digest:
            raise CheckError("output differs from an earlier run of the same input")
    except Exception as exc:  # a wrong output is a failed op as well
        return seconds, None, {}, f"op {i} check: {type(exc).__name__}: {exc}"
    return seconds, digest, counts, None


def measure(workload, state, seconds: float, tracer):
    """Run ops until `seconds` have passed and the pool and MIN_OPS are done.

    With a tracer, ops alternate between traced and untraced so both see the
    same inputs: op i is traced when i + i // pool is odd.
    """
    traced_layers = Layers(tracer) if tracer else None
    ops = []  # (seconds, traced)
    failures = []
    seen: dict = {}
    pool_digests = []
    fingerprint = Counter()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < max(workload.pool, MIN_OPS) or time.perf_counter() < deadline:
        traced = tracer is not None and (i + i // workload.pool) % 2 == 1
        if traced:
            tracer.op_id = i
        took, digest, counts, error = run_op(
            workload, traced_layers if traced else PLAIN, state, i, seen
        )
        ops.append((took, traced))
        if error:
            failures.append(error)
        if i < workload.pool:
            pool_digests.append(digest or "failed")
            fingerprint.update(counts)
        i += 1
    return ops, failures, pool_digests, fingerprint


def fingerprint_ratios(fp: Counter) -> dict:
    out = dict(sorted(fp.items()))
    out["kept_frac"] = fp["perturb_kept"] / fp["perturb_inputs"] if fp["perturb_inputs"] else 0.0
    out["overlap_frac"] = fp["overlapping_pairs"] / fp["pairs"] if fp["pairs"] else 0.0
    return out


def end_to_end(workload, ops, setup_s: float) -> dict:
    times = [t for t, _ in ops]
    return {
        "items_per_s": (workload.items_per_op * len(times) / sum(times), "1/s"),
        "op_ms.p50": (1e3 * statistics.median(times), "ms"),
        "op_ms.p90": (1e3 * statistics.quantiles(times, n=10)[-1], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(workload, ops, tracer: Tracer, fp: dict) -> dict:
    traced = [t for t, on in ops if on]
    plain = [t for t, on in ops if not on]
    n, op_time = len(traced), sum(traced)
    out = {}
    busy_total = 0.0
    for name, (calls, busy) in tracer.totals().items():
        busy_total += busy
        out[f"{name}.calls"] = (calls / n, "calls/op")
        out[f"{name}.busy_s"] = (busy / n, "s/op")
        out[f"{name}.share"] = (busy / op_time, "fraction")
    pool = workload.pool
    out["io.bytes_written"] = (fp.get("bytes_written", 0) / pool, "B/op")
    out["io.bytes_read"] = (fp.get("bytes_read", 0) / pool, "B/op")
    out["compositor.generate.instances"] = (fp.get("instances", 0) / pool, "inst/op")
    out["compositor.perturb.kept_frac"] = (fp["kept_frac"], "fraction")
    out["codec.order_regions.overlap_frac"] = (fp["overlap_frac"], "fraction")
    out["unattributed.share"] = (1.0 - busy_total / op_time, "fraction")
    # 1 - traced items/s over untraced items/s; items per op are the same on both sides
    out["trace.overhead_frac"] = (1.0 - (sum(plain) / len(plain)) / (op_time / n), "fraction")
    return out


def environment(workload, args, ops) -> dict:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "semdist": semdist.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scene_size": workload.scene_size,
        "items_per_op": workload.items_per_op,
        "pool_ops": workload.pool,
        "ops": len(ops),
        "traced_ops": sum(on for _, on in ops),
        "setup_reps": SETUP_REPS,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="timed run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="with --trace 1, write spans here as JSON lines")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        state, setup_reps_s = set_up(workload, work, args.seed)
        setup_s = IMPORT_S + setup_reps_s
        ops, failures, pool_digests, fp = measure(workload, state, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    digest = hashlib.sha256("\n".join(pool_digests).encode()).hexdigest()[:16]
    pinned = PINNED_DIGESTS[workload.name] if args.seed == DEFAULT_SEED else None
    fp = fingerprint_ratios(fp)
    if tracer:
        metrics = per_layer(workload, ops, tracer, fp)
        if args.spans:
            tracer.write(args.spans)
    else:
        metrics = end_to_end(workload, ops, setup_s)
    fail_frac = len(failures) / len(ops)
    correct = not failures and pinned in (None, digest)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    print(f"{'fail_frac':40s} {fail_frac:14.6f} fraction ({len(failures)}/{len(ops)} ops)")
    print(f"{'digest':40s} {digest}" + ("" if pinned is None else f" (pinned {pinned})"))
    for failure in failures[:5]:
        print(f"failed: {failure}")
    info = {
        "workload": workload.name,
        "digest": digest,
        "digest_pinned": pinned,
        "fail_frac": fail_frac,
        "fingerprint": fp,
        "env": environment(workload, args, ops),
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(ops),
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
