"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

For every workload it checks that an untraced run prints each end-to-end
metric of BENCHMARK.json with its unit and no failure, that a traced run
prints each per-layer metric with its unit and reports the per-module
numbers the benchmark promises, and that a run with a deliberately
corrupted task output is counted as failed, which shows the gate can fail.
Last, it checks that the command refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "3"

# per-module numbers the traced run must report for every workload, beyond
# calls/self_s/total_s of each wrapped function that ran
REQUIRED_LAYER = (
    "series.polyval_batch.calls", "series.polyval_batch.points", "series.polyval_batch.terms",
    "series.polyval_batch.bytes_computed",
    "optimize.compass_maximize.calls", "optimize.compass_maximize.starts",
    "optimize.compass_maximize.iterations", "optimize.compass_maximize.evaluations",
    "optimize.compass_maximize.capped", "optimize.compass_maximize.objective_s",
    "optimize.compass_maximize.self_s", "optimize.evals_per_start", "optimize.capped_ratio",
    "optimize.maximize_on_disk.self_s", "mapping.estimate_bloch_constant.total_s",
    "mapping.beta_per_task", "mapping.lambda_set.self_s", "mapping.lambda_set.points",
    "mapping.lambda_set.curve_like", "extremal.membership.total_s",
    "trace.overhead_ratio",
)
# numbers that exist only where the workload reaches the function
REQUIRED_BY_WORKLOAD = {
    "screen": ("mapping.f_eval.calls", "mapping.f_eval.self_s", "disk.precompose.total_s",
               "mapping.metric_beta_estimate.total_s", "extremal.extreme_necessity.total_s"),
    "certify": ("support.support_certificate.samples", "support.support_certificate.self_s"),
    "cli": ("cli.main.calls", "cli.main.self_s", "cli.main.output_bytes",
            "extremal.verify_sharpening.points", "extremal.sharpening_exponent.total_s",
            "support.bonk_constants.total_s", "support.verify_bonk_constants.total_s",
            "support.decompose_support_point.total_s", "mapping.sup_modulus.total_s",
            "support.perturbation_falsifier.attempts"),
}


def run(cwd, workload, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", SECONDS, *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int)
    return line


def check_metrics(line, spec):
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == want, (sorted(set(got) ^ set(want)), got)
    for name, m in line["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for wl in (w["name"] for w in bench["workloads"]):
        line = result_line(run(ROOT, wl, "--trace", "0"))
        check_metrics(line, bench["end_to_end"])
        assert line["correct"] and line["failed"] == 0, line
        assert line["metrics"]["ok_ratio"]["value"] == 1.0

        line = result_line(run(ROOT, wl, "--trace", "1"))
        check_metrics(line, bench["per_layer"])
        assert line["correct"] and line["failed"] == 0, line
        with open(os.path.join(ROOT, ".perfbench_out", f"{wl}-seed3-trace1.json"),
                  encoding="utf-8") as fh:
            full = json.load(fh)
        layer = full["per_layer"]
        missing = [n for n in REQUIRED_LAYER + REQUIRED_BY_WORKLOAD[wl] if n not in layer]
        assert not missing, (wl, missing)
        for fn, st in full["worker"]["functions"].items():
            assert {"calls", "self_s", "total_s"} <= set(st), fn
        assert full["worker"]["digest"] == full["worker"]["digest_untraced"]

        line = result_line(run(ROOT, wl, "--trace", "0", "--corrupt-first"))
        assert not line["correct"] and line["failed"] >= 1, line
        assert line["metrics"]["ok_ratio"]["value"] < 1.0, line
        print(f"{wl}: metrics, per-layer numbers and the failure gate OK", flush=True)

    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=outdir) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(bench["command"] + ["--workload", "screen", "--seed", "1",
                                                  "--seconds", SECONDS, "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("bare directory: refused without a result OK")


if __name__ == "__main__":
    main()
