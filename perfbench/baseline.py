"""Record a baseline: environment, ten-run medians, and the timer cross-check.

    python3 perfbench/baseline.py --runs untraced.json [traced.json ...] \\
        --out perfbench/baseline.json

``--runs`` takes files written by ``repeat.py --out``.  The cross-check
times three analyses in-process, as the ROADMAP table did, and compares them
with that table; a ratio beyond 2x in either direction means a timer or a
workload is wrong, and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import blochmap as bm  # noqa: E402
from probe import environment  # noqa: E402

# ROADMAP re-anchor table (2 cores, numpy 2.4)
ROADMAP_S = {
    "support_certificate_10k_samples": 9.6,
    "lambda_set_family": 0.139,
    "sharpening_exponent_identity": 0.088,
}


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def crosscheck():
    family = bm.counterexample_family(1.0)
    identity = bm.HarmonicMapping(bm.AnalyticSeries([0.0, 1.0]), bm.AnalyticSeries([0.0]))
    measured = {
        "support_certificate_10k_samples": timed(
            lambda: bm.support_certificate(family, 10000, 30), 1),
        "lambda_set_family": timed(lambda: bm.lambda_set(family), 5),
        "sharpening_exponent_identity": timed(
            lambda: bm.sharpening_exponent(identity, 0.0, 0.9), 5),
    }
    return {k: {"measured_s": v, "roadmap_s": ROADMAP_S[k], "ratio": v / ROADMAP_S[k]}
            for k, v in measured.items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", nargs="*", default=[])
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args()
    check = crosscheck()
    for k, v in check.items():
        print(f"{k:34s} measured {v['measured_s']:.4f} s, ROADMAP {v['roadmap_s']} s, "
              f"ratio {v['ratio']:.2f}")
    runs = {}
    for path in args.runs:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        key = "traced" if data["trace"] else "untraced"
        for wl, summary in data["summary"].items():
            runs.setdefault(key, {})[wl] = {
                "seeds": [r["seed"] for r in data["runs"][wl]],
                "seconds": data["seconds"],
                "metrics": summary,
            }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(ROOT), "crosscheck": check, "runs": runs},
                  fh, indent=1)
        fh.write("\n")
    bad = [k for k, v in check.items() if not 0.5 <= v["ratio"] <= 2.0]
    if bad:
        print(f"cross-check off by more than 2x: {', '.join(bad)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
