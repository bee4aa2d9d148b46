"""Benchmark for cvwitness: closed-loop workloads, one client each.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is taken from
``src`` (nothing needs to be installed). Each workload runs in fresh
interpreters with BLAS threads pinned to 1. With ``--trace 0`` the last
line is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run. The lines before it repeat
the figures by name and unit. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("cli-cold", "library-mix", "gaussian-batch", "fock-sweep", "photon-traces")
# --workload all: the four workloads, one per area; library-mix runs the
# last three together
ALL = ("cli-cold", "gaussian-batch", "fock-sweep", "photon-traces")
SETUP_SAMPLES = 5        # fresh interpreters whose set-up time is timed
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(args, workload, mode, env, workdir, spans):
    out = os.path.join(workdir, f"{mode}-result.json")
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--launched", repr(launched), "--workdir", workdir, "--out", out,
           "--spans", spans]
    proc = subprocess.Popen(cmd, env=env, cwd=workdir)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"{workload}: worker did not finish within {CHILD_TIMEOUT_S:.0f} s")
    if code != 0:
        raise SystemExit(f"{workload}: worker exited with code {code}")
    with open(out) as fh:
        return json.load(fh)


def run_workload(args, workload, root, env):
    base = os.path.join(root, ".perfbench_run")
    workdir = os.path.join(base, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    spans = os.path.join(base, f"spans-{workload}-seed{args.seed}.json")
    try:
        setups = [run_worker(args, workload, "setup", env, workdir, spans)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        res = run_worker(args, workload, "run", env, workdir, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])
    res["setup_s"] = statistics.median(setups)
    return res


def summarize(args, workload, res):
    correct = res["check_failed"] == 0
    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"  passes {res['passes']:.3g}  attempted {res['attempted']}  failed {res['failed']}"
          f"  {' '.join(res['failure_kinds'])}")
    print(f"  checks {res['checks']}  failed checks {res['check_failed']}")
    for what in res["check_failures"]:
        print(f"    CHECK FAILED: {what}")
    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": res["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ops_per_s": {"value": res["ops_per_s"], "unit": "1/s"},
        }
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    for name, value, unit in res["report"]:
        if name not in metrics:
            print(f"  {name} {value:.6g} {unit}")
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cvwitness", "__init__.py")):
        print("error: run from the root of a cvwitness checkout (src/cvwitness not found)",
              file=sys.stderr)
        return 2
    env = child_env(root)
    names = ALL if args.workload == "all" else (args.workload,)
    results = {w: summarize(args, w, run_workload(args, w, root, env)) for w in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
