"""Span tracing from outside the package.

The traced run wraps the package's public functions at every module attribute
the workloads reach them through, so no file of the package changes.  Each
call records a span (name, operation id, parent span, start, end, counters)
in memory; spans are written out once, when the run ends.  A span's self time
is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import defaultdict

from uavmec import channel, geometry, instance, lp, optimizer, protocol, runner, scenario

_MODULES = {
    "runner": runner, "scenario": scenario, "instance": instance,
    "optimizer": optimizer, "geometry": geometry, "channel": channel,
    "lp": lp, "protocol": protocol,
}

# (module whose attribute the call goes through, attribute name, span name).
# The span name is the defining module and function, so a function reached
# through several modules is one layer.
PATCHES = (
    ("runner", "run_sweep", "runner.run_sweep"),
    ("runner", "solve_scenario", "runner.solve_scenario"),
    ("runner", "emit_results", "runner.emit_results"),
    ("runner", "validate", "scenario.validate"),
    ("runner", "build_instance", "scenario.build_instance"),
    ("runner", "baseline_allocation", "protocol.baseline_allocation"),
    ("runner", "check_feasible", "protocol.check_feasible"),
    ("runner", "wtec", "protocol.wtec"),
    ("runner", "tccd", "protocol.tccd"),
    ("scenario", "roll_out", "instance.roll_out"),
    ("scenario", "build_gain_tables", "instance.build_gain_tables"),
    ("instance", "advance", "geometry.advance"),
    ("instance", "build_channel", "channel.build_channel"),
    ("optimizer", "algorithm1", "optimizer.algorithm1"),
    ("optimizer", "ellipsoid_solve", "optimizer.ellipsoid_solve"),
    ("optimizer", "warm_start", "optimizer.warm_start"),
    ("optimizer", "dual_point_eval", "optimizer.dual_point_eval"),
    ("optimizer", "blended_completion", "optimizer.blended_completion"),
    ("optimizer", "complete_primal", "optimizer.complete_primal"),
    ("optimizer", "finish_from_duals", "optimizer.finish_from_duals"),
    ("optimizer", "solve_p2", "optimizer.solve_p2"),
    ("optimizer", "solve_lp", "lp.solve_lp"),
    ("optimizer", "check_feasible", "protocol.check_feasible"),
    ("optimizer", "wtec", "protocol.wtec"),
)

# Per-layer metrics: the layer (span name) and the fields reported for it,
# each per traced operation.  calls, s (inclusive seconds) and self_s come
# from the spans; any other field is a counter that _observe reads.
LAYERS = (
    ("optimizer.algorithm1", ("calls", "s", "self_s")),
    ("optimizer.ellipsoid_solve", ("calls", "s", "self_s")),
    ("optimizer.warm_start", ("calls", "s", "self_s")),
    ("optimizer.dual_point_eval", ("calls", "s", "self_s")),
    ("optimizer.blended_completion", ("calls", "s", "self_s")),
    ("optimizer.complete_primal", ("calls", "s", "self_s")),
    ("optimizer.finish_from_duals", ("calls", "s", "self_s")),
    ("optimizer.solve_p2", ("calls", "s", "self_s")),
    ("lp.solve_lp", ("calls", "s", "not_ok")),
    ("channel.build_channel", ("calls", "s", "matrix_bytes")),
    ("geometry.advance", ("calls", "s")),
    ("instance.roll_out", ("s",)),
    ("instance.build_gain_tables", ("s",)),
    ("scenario.validate", ("s",)),
    ("scenario.build_instance", ("s",)),
    ("protocol.baseline_allocation", ("calls", "s")),
    ("protocol.check_feasible", ("calls", "s")),
    ("protocol.wtec", ("calls", "s")),
    ("protocol.tccd", ("calls", "s")),
    ("runner.solve_scenario", ("calls", "s", "self_s")),
    ("runner.run_sweep", ("calls", "s", "self_s")),
    ("runner.emit_results", ("calls", "s", "self_s", "bytes")),
)
UNITS = {"calls": "calls/op", "s": "s/op", "self_s": "s/op", "not_ok": "calls/op",
         "matrix_bytes": "computed_B/op", "bytes": "B/op"}
# Metrics derived across layers, with their units.
DERIVED = (
    ("optimizer.iterations", "iter/op"),
    ("optimizer.warm_start_certified_frac", "frac"),
    ("trace.untraced_s", "s/op"),
    ("trace.optimizer_frac", "frac"),
    ("trace.build_frac", "frac"),
    ("trace.ops", "count"),
    ("trace.overhead_frac", "frac"),
)


def _eps_of(fn, args, kwargs) -> float:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return float(bound.arguments["eps"])


def _observe(name, fn, args, kwargs, result, exc) -> dict | None:
    """Counters read from a call's arguments and outcome."""
    if name == "lp.solve_lp" and exc is None:
        return {"not_ok": 0 if result.ok else 1}
    if name == "channel.build_channel" and exc is None:
        # computed from the shape, not measured: Lr x Lt complex128 entries
        return {"matrix_bytes": result.n_rx * result.n_tx * 16}
    if name == "runner.emit_results" and exc is None:
        return {"bytes": os.path.getsize(args[2] if len(args) > 2 else kwargs["path"])}
    if name == "optimizer.ellipsoid_solve":
        state = result if exc is None else getattr(exc, "report", None)
        if state is None:
            return {"solves": 1, "iterations": 0, "warm_start_certified": 0}
        return {
            "solves": 1,
            "iterations": state.iterations,
            "warm_start_certified": int(state.log[0]["gap"] < _eps_of(fn, args, kwargs)),
        }
    return None


class Tracer:
    """In-memory spans of the calls made while installed."""

    def __init__(self):
        # span: [name, op, parent index or -1, start, end, counters or None]
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        self.op = -1

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span[4] = time.perf_counter()
                stack.pop()
                span[5] = _observe(name, fn, args, kwargs, result, exc)

        return traced

    def install(self, op: int) -> None:
        """Wrap every patched attribute; spans recorded now belong to `op`."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.op = op
        for mod_name, attr, name in PATCHES:
            mod = _MODULES[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        """Restore every attribute the last install replaced."""
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, op, parent, t0, t1, counters) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "op": op, "parent": parent,
                                     "start": t0, "end": t1, "counters": counters}) + "\n")

    def layer_metrics(self, ops: dict, plain_s: float) -> dict:
        """Per-layer metrics per traced operation, in scaled seconds.

        `ops` maps each traced operation id to its (wall, scaled) seconds,
        scaled to the reference host speed as in speed.py; `plain_s` is the
        scaled time of the same inputs run untraced, the base of the tracing
        overhead.  The part of the traced time no root span covers is
        reported as untraced.
        """
        n_ops = max(len(ops), 1)
        traced_s = sum(scaled for _, scaled in ops.values())
        factor = {op: scaled / wall for op, (wall, scaled) in ops.items()}
        dur = [(t1 - t0) * factor[op] for _, op, _, t0, t1, _ in self.spans]
        child_s = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[2] >= 0:
                child_s[span[2]] += dur[i]
        totals = defaultdict(float)
        root_s = 0.0
        for i, (name, _, parent, _, _, extra) in enumerate(self.spans):
            totals[f"{name}.calls"] += 1
            totals[f"{name}.s"] += dur[i]
            totals[f"{name}.self_s"] += dur[i] - child_s[i]
            if parent < 0:
                root_s += dur[i]
            for key, value in (extra or {}).items():
                totals[f"{name}.{key}"] += value

        out = {}
        for layer, fields in LAYERS:
            for field in fields:
                out[f"{layer}.{field}"] = {"value": totals[f"{layer}.{field}"] / n_ops,
                                           "unit": UNITS[field]}
        solves = totals["optimizer.ellipsoid_solve.solves"]
        share = lambda layer: totals[f"{layer}.s"] / traced_s if traced_s > 0 else 0.0
        derived = {
            "optimizer.iterations": totals["optimizer.ellipsoid_solve.iterations"] / n_ops,
            "optimizer.warm_start_certified_frac":
                totals["optimizer.ellipsoid_solve.warm_start_certified"] / solves if solves else 0.0,
            "trace.untraced_s": (traced_s - root_s) / n_ops,
            "trace.optimizer_frac": share("optimizer.algorithm1"),
            "trace.build_frac": share("scenario.build_instance"),
            "trace.ops": float(len(ops)),
            "trace.overhead_frac": traced_s / plain_s - 1.0,
        }
        for name, unit in DERIVED:
            out[name] = {"value": derived[name], "unit": unit}
        return out
