#!/usr/bin/env python3
"""Runs cdcbench/run.py over several seeds and reports each metric's spread.

    python3 cdcbench/spread.py --workloads opdelta_trickle --seeds 1-5
    python3 cdcbench/spread.py --seeds 1-10 --out cdcbench/BASELINE.json

For every end-to-end metric of every workload it prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
With --trace it runs the traced mode instead and reports the per-layer
metrics. --out writes the summaries, with each run's metadata, as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "cdcbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values):
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    report = {"seconds": args.seconds, "trace": int(args.trace),
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, int(args.trace))
                for seed in parse_seeds(args.seeds)]
        summary = {}
        print(f"== {workload} ({len(runs)} runs)")
        for metric in metrics:
            name = metric["name"]
            s = summarize([r[1]["metrics"][name]["value"] for r in runs])
            summary[name] = s
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {name:34s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {spread} (bound {metric.get('bound', '-')})")
        report["workloads"][workload] = {
            "metrics": summary,
            "runs": [dict(r[0], result=r[1]) for r in runs]}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
