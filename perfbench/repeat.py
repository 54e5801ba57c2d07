"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --label NAME [--runs 10] [--first-seed 0] [--trace 0|1]

Runs perfbench/run.py once per workload and seed, one run at a time, each
for BENCHMARK.json's run_seconds, and writes
perfbench/results/BENCH_<NAME>.json: the environment, and for every
workload and metric the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median, plus each run's result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS, run_seconds

HERE = Path(__file__).resolve().parent


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    seconds = run_seconds()
    doc = {"label": args.label, "seconds": seconds, "trace": args.trace,
           "environment": None, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            doc["environment"] = json.loads(lines[-2])["environment"]
            result = json.loads(lines[-1])
            runs.append({"seed": seed, **result})
            print(workload, seed, json.dumps(result), flush=True)
        names = runs[0]["metrics"]
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "metrics": {name: {"unit": runs[0]["metrics"][name]["unit"],
                               **summarise([r["metrics"][name]["value"] for r in runs])}
                        for name in names},
            "runs": runs,
        }
        for name, m in doc["workloads"][workload]["metrics"].items():
            print(f"{workload:13s} {name:28s} median {m['median']:.6g} {m['unit']:8s} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.4f}", flush=True)
    out = HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
