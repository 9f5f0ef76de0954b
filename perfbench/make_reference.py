"""Write perfbench/reference.json: task records of the current program.

    python3 perfbench/make_reference.py [--seeds 0-10]

For every workload it stores the warm-up task's record and the records of
the first ``worker.REFERENCE_TASKS`` tasks of each listed seed.  Every
benchmark run compares its warm-up task, and its first tasks when its seed
is listed, against these records within the accuracies the records report
(``sample_max_other`` exactly).  Regenerate only when a change is meant to
alter the program's outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import worker  # noqa: E402
import workloads  # noqa: E402
from repeat import parse_seeds  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0-10")
    args = ap.parse_args()
    out = {}
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=outdir) as tmp:
        for name, kind in workloads.WORKLOADS.items():
            warm = kind(worker.REFERENCE_SEED, os.path.join(tmp, name, "warm"))
            rec, _, _, bad = worker.execute(warm, warm.make(0))
            if bad:
                raise SystemExit(f"{name} warm-up fails its checks: {bad}")
            out[name] = {"warmup": rec}
            for seed in parse_seeds(args.seeds):
                w = kind(seed, os.path.join(tmp, name, str(seed)))
                recs = []
                for i in range(worker.REFERENCE_TASKS):
                    rec, _, _, bad = worker.execute(w, w.make(i))
                    if bad:
                        raise SystemExit(f"{name} seed {seed} task {i} fails: {bad}")
                    recs.append(rec)
                out[name][str(seed)] = recs
            print(f"{name}: warm-up and {len(out[name]) - 1} seeds", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
