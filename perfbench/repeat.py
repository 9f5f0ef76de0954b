"""Run the benchmark on several seeds and summarize each metric's spread.

    python3 perfbench/repeat.py --workloads screen certify cli --seeds 1-10 \\
        --seconds 30 [--trace 0] [--out FILE]

For every workload and metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median,
next to the bound in BENCHMARK.json.  ``--out`` writes the raw values and
the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=["screen", "certify", "cli"])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    raw, summary = {}, {}
    for wl in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{wl} seed {seed}: exit {proc.returncode}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **line})
            print(f"{wl} seed={seed} correct={line['correct']} failed={line['failed']}/"
                  f"{line['attempted']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()
                      if k in bounds or args.trace), flush=True)
        raw[wl] = runs
        summary[wl] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            summary[wl][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                 "unit": runs[0]["metrics"][name]["unit"]}
            if name in bounds:
                print(f"  {wl:8s} {name:14s} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g}"
                      f" spread={spread:.4f} bound={bounds[name]}"
                      + ("" if name == "setup_s" or spread <= bounds[name] else "  OVER BOUND"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": seconds, "trace": args.trace, "summary": summary,
                       "runs": raw}, fh, indent=1)


if __name__ == "__main__":
    main()
