#!/usr/bin/env python3
"""Runs the end-to-end CDC benchmark on one workload.

    python3 cdcbench/run.py --workload opdelta_trickle --seed 1 \
        --seconds 10 --trace 0

Builds cdcbench/ (which compiles the library sources under src/) into
$CARGO_TARGET_DIR/cdcbench (default .bench_build/cdcbench), runs one
measured run in a scratch directory under .bench_work/, and prints two
lines: a JSON object with the run's metadata, parameters, exact input
counts and digests, then, as the last line, the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 its per_layer metrics, and the traced run's spans are written to
.bench_out/. Exits non-zero, without a result line, when the build or the
run fails or a metric named in BENCHMARK.json is missing; exits 1 after
printing a result whose correctness gate failed.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "cdcbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"cdcbench: {message}", file=sys.stderr, flush=True)
    sys.exit(2)


def build_dir():
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not root.is_absolute():
        root = ROOT / root
    return root / "cdcbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the opdelta sources (src/) are missing from this checkout")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "cdcbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build failed: {err}")
        if done.returncode != 0:
            fail("build failed")
    return out / "cdcbench"


def cmake_build_type():
    for line in (build_dir() / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return ""


def source_digest():
    """sha256 over the sources the benchmark binary is built from."""
    digest = hashlib.sha256()
    for top in ("src", "cdcbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small tables and rates, for the self-tests")
    parser.add_argument("--corrupt-warehouse", action="store_true",
                        help="delete one warehouse row before the gate")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    binary = build()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    spans = None
    if args.trace:
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_warehouse:
        cmd.append("--corrupt-warehouse")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0 or not done.stdout.strip():
        fail(f"run failed with exit code {done.returncode}")
    raw = json.loads(done.stdout.strip().splitlines()[-1])

    metrics = {}
    for metric in wanted:
        got = raw["metrics"].get(metric["name"])
        if got is None:
            fail(f"metric {metric['name']} was not emitted")
        if got["unit"] != metric["unit"]:
            fail(f"metric {metric['name']} has unit {got['unit']}, "
                 f"BENCHMARK.json says {metric['unit']}")
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}

    detail = {
        "host": {"nproc": len(os.sched_getaffinity(0)),
                 "cpu_count": os.cpu_count(),
                 "machine": os.uname().machine},
        "build_type": cmake_build_type(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seconds": args.seconds,
        "tiny": args.tiny,
        "spans_file": str(spans.relative_to(ROOT)) if spans else None,
    }
    detail.update({k: v for k, v in raw.items() if k != "metrics"})
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if raw["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
