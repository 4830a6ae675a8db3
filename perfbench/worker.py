"""One workload in one fresh process; started by run.py, not by hand.

Prints `ready` once the package is imported and the workload's configs are
validated, then runs one untimed warm-up operation and the timed window, and
prints one JSON line with the measurements.  With --setup-only it exits right
after `ready`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time


# Share of each operation's time spent timing the reference kernel after it.
KERNEL_SHARE = 0.03


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import speed
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.out_dir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    capture = workloads.SolveCapture()
    capture.install()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    def run_op(op_id, index, traced):
        inputs = workload.inputs(index)
        if traced:
            tracer.install(op_id)
        t0 = time.perf_counter()
        error = None
        try:
            workload.run(inputs)
        except Exception as exc:
            error = exc
        finally:
            seconds = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        solves = capture.take()
        # A solve that raised declined to answer: the operation failed.  A
        # returned answer that fails a check is wrong: the run is not correct.
        reasons = workloads.raised(solves)
        if error is not None and not reasons:
            reasons.append(f"raised {type(error).__name__}: {error}")
        status = "failed" if reasons else "ok"
        if not reasons:
            reasons = workload.check(inputs, solves)
            status = "wrong" if reasons else "ok"
        for reason in reasons:
            print(f"{status.upper()} {args.workload} op {op_id} {workload.describe(inputs)}: "
                  f"{reason}", file=sys.stderr, flush=True)
        return seconds, status

    warm_s, _ = run_op(-1, 0, False)  # warm-up: lazy imports and first-call costs

    # Closed loop.  The workload's reference kernel is timed after every
    # operation, for a small share of its time, so each operation is scaled
    # by the host speed measured just before and just after it.  A traced run times each
    # input twice in a row, plain and traced, so the tracing overhead
    # compares like with like.
    ref = speed.Reference(workload.speed_kernel)
    samples = [ref.sample(KERNEL_SHARE * warm_s)]
    wall_s, status, traced = [], [], []
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < args.seconds or not wall_s:
        for trace_this in (False, True) if tracer is not None else (False,):
            seconds, outcome = run_op(len(wall_s), index, trace_this)
            samples.append(ref.sample(KERNEL_SHARE * seconds))
            wall_s.append(seconds)
            status.append(outcome)
            traced.append(trace_this)
        index += 1
    window = time.perf_counter() - start

    op_s = [ref.scale(t, samples[i], samples[i + 1]) for i, t in enumerate(wall_s)]
    ok = status.count("ok")
    result = {
        "attempted": len(op_s),
        "failed": len(op_s) - ok,
        "wrong": status.count("wrong"),
        "op_s": op_s,
        "wall_op_s": wall_s,
        "kernel_s": samples,
        "window_s": window,
        "op_s_p50": statistics.median(op_s),
        "ops_per_s": ok / sum(op_s),
        "wall_op_s_p50": statistics.median(wall_s),
        "wall_ops_per_s": ok / window,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(
            {i: (wall_s[i], op_s[i]) for i in range(len(op_s)) if traced[i]},
            sum(t for t, tr in zip(op_s, traced) if not tr),
        )
        trace_path = os.path.join(args.out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        result["trace_path"] = trace_path
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
