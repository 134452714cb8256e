#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workloads paper_measure design_sweep serve_churn \
        --seeds 1-10

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
in BENCHMARK.json. A run that fails or reports correct=false is an error.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    ok = True
    for workload in args.workloads:
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: run failed (code {proc.returncode})")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload} ({len(parse_seeds(args.seeds))} seeds)")
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            mark = "" if bound is None else f"  bound {bound:.2f}" + (
                "  OVER" if spread > bound else "")
            print(f"  {name:34s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {spread:6.3f}{mark}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
