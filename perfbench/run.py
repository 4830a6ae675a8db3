"""uavmec benchmark launcher.

    python3 perfbench/run.py --workload trend_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ./src, with no
build step.  Each workload runs in a fresh worker process with the BLAS and
OpenMP thread counts pinned; set-up is timed in several more fresh processes.
Prints a readable summary, then one JSON line: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  Exits 2,
printing no result, when the package sources are missing.
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
# The names in workloads.WORKLOADS; the launcher itself does not import the
# package, so it can refuse a directory without one.
WORKLOADS = ("trend_sweep", "geometry_sweep", "random_scenarios")
# Fresh processes that only set up; set-up time is their median.
SETUP_PROBES = 7
# Seconds of reference-kernel timing around each set-up probe.
SETUP_KERNEL_S = 0.03
# BLAS/OpenMP threads per worker; the solver's matrices are at most 64x64,
# where one thread is fastest and steadiest.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# A worker finishes within this many seconds past its timed window.
WORKER_GRACE_S = 120.0


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    threads = str(min(THREADS, os.cpu_count() or 1))
    for name in THREAD_VARS:
        env[name] = threads
    return env


def start_worker(args, extra, env, out_dir):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--out-dir", out_dir] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    first = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    return proc, first.strip() == "ready", setup_s


def finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    return out if proc.returncode == 0 else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "uavmec", "__init__.py")):
        print("perfbench: src/uavmec not found; run from the repository root", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    env = worker_env(root)

    import speed

    # Start-up is interpreter work: imports and unmarshalling.
    ref = speed.Reference("python")
    wall_setup, samples = [], [ref.sample(SETUP_KERNEL_S)]
    for _ in range(SETUP_PROBES):
        proc, ready, seconds = start_worker(args, ["--setup-only"], env, out_dir)
        if finish(proc, WORKER_GRACE_S) is None or not ready:
            print("perfbench: set-up failed", file=sys.stderr)
            return 1
        wall_setup.append(seconds)
        samples.append(ref.sample(SETUP_KERNEL_S))
    setup = [ref.scale(t, samples[i], samples[i + 1]) for i, t in enumerate(wall_setup)]
    proc, ready, _ = start_worker(
        args, ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, out_dir)
    out = finish(proc, args.seconds + WORKER_GRACE_S)
    if out is None or not ready:
        print("perfbench: workload run failed", file=sys.stderr)
        return 1
    run = json.loads(out.strip().splitlines()[-1])

    attempted, failed = run["attempted"], run["failed"]
    if args.trace:
        metrics = run["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_s_p50": {"value": run["op_s_p50"], "unit": "s"},
            "ops_per_s": {"value": run["ops_per_s"], "unit": "1/s"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"threads={env[THREAD_VARS[0]]} ({', '.join(THREAD_VARS)}) nproc={os.cpu_count()}")
    print(f"  operations: {attempted} attempted, {failed} failed ({run['wrong']} wrong), "
          f"fail_frac {failed / attempted:.4f}, window {run['window_s']:.2f} s, "
          f"op_s_p50 over n={attempted}")
    print(f"  wall seconds, unscaled: setup_s {statistics.median(wall_setup):.4f}, "
          f"op_s_p50 {run['wall_op_s_p50']:.4f}, ops_per_s {run['wall_ops_per_s']:.4f}")
    print("  scaled to the reference host speed (perfbench/speed.py):")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    if args.trace:
        print(f"  spans: {run['trace_path']}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "threads": {name: env[name] for name in THREAD_VARS}, "nproc": os.cpu_count(),
              "setup_s": setup, "wall_setup_s": wall_setup, "setup_kernel_s": samples,
              "run": run}
    with open(os.path.join(out_dir, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": run["wrong"] == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
