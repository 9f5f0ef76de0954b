"""blochmap benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload {screen,certify,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Set-up is measured in ``SETUP_RUNS`` fresh worker processes plus the timed
worker and reported as the median.  With ``--trace 0`` the timed worker runs
the closed loop untraced and the last stdout line carries the end-to-end
metrics; with ``--trace 1`` it runs the traced comparison (see worker.py) and
the last line carries the per-layer metrics.  Every line before it is a
human-readable report; the full result, environment stamp included, is
written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTDIR = os.path.join(ROOT, ".perfbench_out")
SETUP_RUNS = 6
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "work_per_s": "work/s", "task_p50_ms": "ms", "task_p90_ms": "ms",
    "cpu_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}

# per-layer metrics carried on the result line: counts everywhere, and times
# only for functions every workload reaches, so none of them reads a constant 0
LAYER_STATS = {
    "series.polyval_batch": ("calls", "points", "terms", "bytes_computed", "self_s"),
    "optimize.compass_maximize": ("calls", "starts", "iterations", "evaluations", "capped",
                                  "self_s"),
    "optimize.maximize_on_disk": ("calls", "self_s", "total_s"),
    "mapping.estimate_bloch_constant": ("calls", "self_s", "total_s"),
    "mapping.lambda_set": ("calls", "self_s", "total_s", "points", "curve_like"),
    "mapping.sup_modulus": ("calls",),
    "mapping.metric_beta_estimate": ("calls",),
    "mapping.f_eval": ("calls",),
    "disk.precompose": ("calls",),
    "extremal.membership": ("calls", "total_s"),
    "extremal.extreme_necessity": ("calls",),
    "extremal.sharpening_exponent": ("calls",),
    "extremal.verify_sharpening": ("calls", "points"),
    "support.support_certificate": ("calls", "samples"),
    "support.bonk_constants": ("calls",),
    "support.verify_bonk_constants": ("calls",),
    "support.decompose_support_point": ("calls",),
    "cli.main": ("calls", "output_bytes"),
}
PROBE_CASES = ("deg8_cache", "deg60_cache", "deg8_large", "deg60_large")


def unit_of(stat):
    if stat.endswith("_s"):
        return "s"
    if "bytes" in stat:
        return "bytes"
    return "count"


def layer_table(res):
    """Every per-layer number the traced run produced, ``{name: (value, unit)}``."""
    fns = res["functions"]
    out = {}
    for fname, st in fns.items():
        for stat, value in st.items():
            out[f"{fname}.{stat}"] = (value, unit_of(stat))

    def get(name, stat):
        return fns.get(name, {}).get(stat, 0)

    compass = "optimize.compass_maximize"
    out[f"{compass}.objective_s"] = (get(f"{compass}.objective", "total_s"), "s")
    calls = get(compass, "calls")
    out["optimize.evals_per_start"] = (
        get(compass, "evaluations") / max(get(compass, "starts"), 1), "ratio")
    out["optimize.capped_ratio"] = (get(compass, "capped") / max(calls, 1), "ratio")
    out["mapping.beta_per_task"] = (
        get("mapping.estimate_bloch_constant", "calls") / max(res["tasks"], 1), "ratio")
    out["support.perturbation_falsifier.attempts"] = (
        res["edges"].get("support.perturbation_falsifier -> optimize.maximize_on_disk", 0),
        "count")
    out["trace.overhead_ratio"] = (res["traced_wall_s"] / res["untraced_wall_s"] - 1.0, "ratio")
    out["trace.tasks"] = (res["tasks"], "count")
    for case in PROBE_CASES:
        out[f"probe.polyval_batch.{case}.points_per_s"] = (
            res["probe"][case]["points_per_s"], "1/s")
    return out


def per_layer_names():
    names = [f"{fn}.{stat}" for fn, stats in LAYER_STATS.items() for stat in stats]
    names += ["optimize.compass_maximize.objective_s", "optimize.evals_per_start",
              "optimize.capped_ratio", "mapping.beta_per_task",
              "support.perturbation_falsifier.attempts", "trace.overhead_ratio",
              "trace.tasks"]
    names += [f"probe.polyval_batch.{case}.points_per_s" for case in PROBE_CASES]
    return names


def run_worker(args, extra, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--outdir", OUTDIR, *extra]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = os.path.join(ROOT, "src", "blochmap", "__init__.py")
    if os.path.realpath(res["blochmap_file"]) != os.path.realpath(expected):
        raise RuntimeError(f"worker imported blochmap from {res['blochmap_file']}")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("screen", "certify", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-first", action="store_true",
                    help="self-test only: falsify the first task's output")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "blochmap", "__init__.py")):
        print(f"no blochmap sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUTDIR, exist_ok=True)
    t0 = time.monotonic()

    def left():
        return DEADLINE_S - (time.monotonic() - t0)

    setups, raw_setups = [], []
    for _ in range(SETUP_RUNS):
        res = run_worker(args, ["--setup-only"], left())
        setups.append(res["setup_s"])
        raw_setups.append(res["raw_setup_s"])
        if res["failures"]:
            print("set-up failures: " + " | ".join(res["failures"]), file=sys.stderr)
    extra = ["--corrupt-first"] if args.corrupt_first else []
    res = run_worker(args, extra, left())
    setups.append(res["setup_s"])
    raw_setups.append(res["raw_setup_s"])
    setup_s = statistics.median(setups)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from probe import environment  # noqa: E402  (imports blochmap from the checkout)

    env = environment(ROOT)
    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and not res["failures"]
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": env, "setup_runs_s": setups,
            "raw_setup_runs_s": raw_setups,
            "fail_ratio": failed / attempted, "worker": res}
    if args.trace:
        table = layer_table(res)
        full["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in sorted(table.items())}
        # a function a workload never reaches reads 0 calls
        metrics = {}
        for name in per_layer_names():
            value, unit = table.get(name, (0, unit_of(name)))
            metrics[name] = {"value": value, "unit": unit}
    else:
        cpu_s = res["task_cpu_s"]
        metrics = {
            "setup_s": setup_s,
            "work_per_s": res["work"] / res["task_wall_s"],
            "task_p50_ms": res["task_p50_ms"],
            "task_p90_ms": res["task_p90_ms"],
            "cpu_s": cpu_s,
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    full["metrics"] = metrics
    path = os.path.join(OUTDIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)

    report(args, env, res, full)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def report(args, env, res, full):
    print(f"blochmap benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("set-up runs (s, scaled / raw): " + ", ".join(
        f"{s:.4f}/{r:.4f}" for s, r in zip(full["setup_runs_s"], full["raw_setup_runs_s"])))
    print(f"tasks={res['tasks']} attempted={res['attempted']} failed={res['failed']} "
          f"fail_ratio={full['fail_ratio']:.4g} digest={res['digest'][:16]}")
    if not args.trace:
        print(f"task_p90_ms from {res['tasks']} tasks, "
              f"{res['tasks_beyond_p90']} beyond it")
        cal = res["calibration_ms"]
        print(f"calibration kernel ms min/median/max {cal['min']:.3f}/{cal['median']:.3f}/"
              f"{cal['max']:.3f}; raw (unscaled) task wall {res['raw_task_wall_s']:.3f} s, "
              f"p50 {res['raw_task_p50_ms']:.3f} ms, p90 {res['raw_task_p90_ms']:.3f} ms")
    for msg in res["failures"][:20]:
        print(f"FAILED {msg}")
    if args.trace:
        print(f"traced/untraced task wall: {res['traced_wall_s']:.3f} / "
              f"{res['untraced_wall_s']:.3f} s; spans kept {res['spans_kept']}, "
              f"dropped {res['spans_dropped']} ({res['spans_path']})")
        for name, m in full["per_layer"].items():
            print(f"  {name:58s} {m['value']:>16.6g} {m['unit']}")
        pr = res["probe"]
        llc = pr["llc_bytes"]
        for case in PROBE_CASES:
            c = pr[case]
            bw = c.get("bandwidth_bytes_per_s")
            print(f"  probe {case}: {c['points']} points ({c['array_bytes']} B, LLC {llc} B) "
                  f"{c['points_per_s']:.4g} points/s, {c['computed_bytes_per_s']:.4g} computed B/s, "
                  f"{c['terms_per_byte']:.4g} terms/B, bandwidth "
                  + (f"{bw:.4g} B/s" if bw else "not reported (array < 4x LLC)"))
    else:
        for name, m in full["metrics"].items():
            print(f"  {name:14s} {m['value']:>14.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
