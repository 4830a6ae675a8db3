"""The benchmark's workloads: inputs made from the seed, one timed operation,
and the correctness check of each operation's output.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned.
"""

from __future__ import annotations

import csv
import dataclasses
import inspect
import json
import math
import os

import numpy as np

from uavmec import optimizer, protocol, runner, scenario

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# The paper's trend axis: task size per vehicle and slot.  It spans the
# local-only, UAV and relay regimes; the baseline is infeasible from 5e5 up.
TREND_VALUES = tuple(float(v) for v in range(100_000, 900_001, 100_000))
# Geometry axes: every point changes the channel matrices.
GEOMETRY_POINTS = tuple(("antennas", float(v)) for v in (9, 16, 25, 36, 49, 64)) + tuple(
    ("uav_altitude", float(v)) for v in (20, 30, 40, 50, 60)
)
# Random scenarios: the ranges drawn from.  Task sizes span the trend axis;
# the elevations span the stock ones.
VEHICLE_COUNTS = (1, 2, 3, 4)
UAV_ANTENNAS = (9, 16, 36)
BLOCK = len(VEHICLE_COUNTS) * len(UAV_ANTENNAS)
SLOT = 0.2  # seconds; the horizon is 2 to 10 slots
SCALAR_RANGES = {
    "weight_uav": (0.05, 1.0),
    "uav_altitude": (10.0, 60.0),
    "power_max_offload": (0.3, 3.2),
    "power_max_relay": (0.3, 3.2),
}
PER_VEHICLE_RANGES = {
    "weight_vehicle": (0.5, 2.0),
    "task_bits": (1e5, 9e5),
    "output_ratio": (0.05, 1.5),
    "vehicle_elevations": (math.pi / 6, 2 * math.pi / 5),
}
# Blocks drawn per seed; a run that solves them all starts over.
RANDOM_BLOCKS = 6
# The convergence bound of the acceptance suite.
RANDOM_MAX_ITERATIONS = 30


def point_key(axis: str, value: float) -> str:
    return f"{axis}={value:g}"


class SolveCapture:
    """Keeps what each `optimizer.algorithm1` call returned or raised.

    The instance is kept without its channel matrices and network states,
    which the feasibility check does not read, so holding it does not raise
    the operation's peak memory.
    """

    def __init__(self):
        self.records: list = []

    def install(self) -> None:
        fn = optimizer.algorithm1
        sig = inspect.signature(fn)
        records = self.records

        def algorithm1(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            inst = bound.arguments["inst"]
            light = dataclasses.replace(inst, channel_sets=[], states=[])
            try:
                report = fn(*args, **kwargs)
            except Exception as exc:
                records.append((light, bound.arguments["eps"], None, exc))
                raise
            records.append((light, bound.arguments["eps"], report, None))
            return report

        optimizer.algorithm1 = algorithm1

    def take(self) -> list:
        out = list(self.records)
        self.records.clear()
        return out


def raised(records) -> list:
    """The solves of one operation that raised instead of returning."""
    return [f"raised {type(exc).__name__}: {exc}" for *_, exc in records if exc is not None]


def check_solves(records) -> list:
    """Failure reasons of the optimized solves that returned a report."""
    reasons = []
    for inst, eps, report, exc in records:
        if exc is not None:
            continue
        if not report.gap <= eps:
            reasons.append(f"certified gap {report.gap:.3e} above epsilon {eps:g}")
        verdict = protocol.check_feasible(report.allocation, inst)
        if not verdict.feasible:
            reasons.append("allocation fails check_feasible: " + ", ".join(verdict.violations[:3]))
    return reasons


def read_csv_rows(path) -> list:
    """Data rows of an emitted CSV, as the strings written."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.reader(lines))[1:]


def solve_point(cfg, point, include_baseline: bool, path) -> None:
    """One sweep point, emitted to CSV at `path`."""
    axis, value = point
    result = runner.run_sweep(cfg, axis, [value], include_baseline=include_baseline)
    runner.emit_results(result, "csv", path)


def compare_rows(rows, ref_rows, columns, eps) -> list:
    """Baseline rows must equal the reference to the 9 printed digits;
    optimized rows must match the reference wtec_J within `eps` relative."""
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows emitted, reference has {len(ref_rows)}"]
    reasons = []
    mode_col, wtec_col = columns.index("mode"), columns.index("wtec_J")
    for row, ref in zip(rows, ref_rows):
        if row[mode_col] != ref[mode_col]:
            reasons.append(f"mode {row[mode_col]} where the reference has {ref[mode_col]}")
        elif row[mode_col] == "baseline":
            if row != ref:
                bad = [c for c, a, b in zip(columns, row, ref) if a != b]
                reasons.append("baseline row differs from the reference in " + ", ".join(bad))
        else:
            got, want = float(row[wtec_col]), float(ref[wtec_col])
            if not abs(got - want) <= eps * abs(want):
                reasons.append(f"wtec_J {got!r} differs from the reference {want!r}")
    return reasons


class SweepWorkload:
    """One sweep point per operation, emitted to CSV and checked against the
    reference rows recorded at the benchmark's first commit."""

    name = ""
    speed_kernel = ""  # the speed.KERNELS kind its time goes to
    overrides: dict = {}  # stock config fields this workload changes
    points: tuple = ()  # (axis, value) per operation
    include_baseline = False

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_path = os.path.join(out_dir, f"{self.name}.csv")
        with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
            ref = json.load(fh)
        self.columns = ref["columns"]
        self.reference = ref[self.name]
        self.cfg = scenario.validate(scenario.ScenarioConfig(**self.overrides))

    def inputs(self, index: int):
        # a fresh seeded order for every pass over the points
        n = len(self.points)
        order = np.random.default_rng([self.seed, index // n]).permutation(n)
        return self.points[order[index % n]]

    def run(self, point) -> None:
        solve_point(self.cfg, point, self.include_baseline, self.out_path)

    def check(self, point, solves) -> list:
        reasons = check_solves(solves)
        ref_rows = self.reference[point_key(*point)]
        reasons += compare_rows(read_csv_rows(self.out_path), ref_rows, self.columns, self.cfg.epsilon)
        return reasons

    def describe(self, point) -> str:
        return point_key(*point)


class TrendSweep(SweepWorkload):
    name = "trend_sweep"
    speed_kernel = "python"  # the solver's bisection loops
    points = tuple(("task_bits", v) for v in TREND_VALUES)
    include_baseline = True


class GeometrySweep(SweepWorkload):
    name = "geometry_sweep"
    speed_kernel = "svd"  # channel matrices and their SVDs
    overrides = {"mode": "baseline"}
    points = GEOMETRY_POINTS


def _ini_value(value) -> str:
    if isinstance(value, np.ndarray):
        return ", ".join(repr(float(v)) for v in value)
    return repr(value.item() if isinstance(value, np.generic) else value)


def _strata(rng: np.random.Generator, lo: float, hi: float) -> np.ndarray:
    """BLOCK values of [lo, hi), one in each of BLOCK equal strata, shuffled."""
    return lo + (hi - lo) * (rng.permutation(BLOCK) + rng.uniform(size=BLOCK)) / BLOCK


def draw_block(rng: np.random.Generator) -> list:
    """BLOCK random scenarios that `validate` accepts, as config-file text.

    The block crosses every vehicle count with every UAV array size once and
    draws every other value by Latin hypercube sampling, so each block covers
    each range evenly and runs of different seeds solve comparable mixes.
    """
    cells = [(k, a) for k in VEHICLE_COUNTS for a in UAV_ANTENNAS]
    cell = rng.permutation(BLOCK)
    n_slots = np.floor(_strata(rng, 2, 11)).astype(int)
    scalars = {name: _strata(rng, lo, hi) for name, (lo, hi) in SCALAR_RANGES.items()}
    per_vehicle = {name: np.stack([_strata(rng, lo, hi) for _ in range(max(VEHICLE_COUNTS))], axis=1)
                   for name, (lo, hi) in PER_VEHICLE_RANGES.items()}
    per_vehicle["task_bits"] = np.round(per_vehicle["task_bits"], -3)
    texts = []
    for i in range(BLOCK):
        k, antennas = cells[cell[i]]
        pv = {name: values[i, :k] for name, values in per_vehicle.items()}
        sections = {
            "network": {"vehicles": k, "weight_vehicle": pv["weight_vehicle"],
                        "weight_uav": scalars["weight_uav"][i]},
            "task": {"horizon": n_slots[i] * SLOT, "slot": SLOT, "task_bits": pv["task_bits"],
                     "output_ratio": pv["output_ratio"]},
            "geometry": {"uav_altitude": scalars["uav_altitude"][i],
                         "vehicle_elevations": pv["vehicle_elevations"]},
            "radio": {"antennas_uav": antennas,
                      "power_max_offload": scalars["power_max_offload"][i],
                      "power_max_relay": scalars["power_max_relay"][i]},
            "solver": {"max_iterations": RANDOM_MAX_ITERATIONS},
        }
        lines = []
        for section, entries in sections.items():
            lines.append(f"[{section}]")
            lines += [f"{key} = {_ini_value(v)}" for key, v in entries.items()]
        texts.append("\n".join(lines) + "\n")
    return texts


class RandomScenarios:
    """One seeded random scenario solve per operation.

    The package receives only the configs parsed from the generated text;
    draws that fail are kept, so failures are measured, not avoided.
    """

    name = "random_scenarios"
    speed_kernel = "python"  # the solver's bisection loops

    def __init__(self, seed: int, out_dir: str):
        self.out_dir = out_dir
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.texts = [text for _ in range(RANDOM_BLOCKS) for text in draw_block(rng)]
        self.configs = [scenario.load_scenario(text) for text in self.texts]
        self.written: set = set()

    def inputs(self, index: int) -> int:
        """The draw to solve; its config file is written on first use, so
        a failure can be reproduced with `uavmec solve --config`."""
        draw = index % len(self.texts)
        if draw not in self.written:
            with open(self.describe(draw), "w", encoding="utf-8") as fh:
                fh.write(self.texts[draw])
            self.written.add(draw)
        return draw

    def run(self, draw: int) -> None:
        runner.solve_scenario(self.configs[draw])

    def check(self, draw, solves) -> list:
        reasons = check_solves(solves)
        if not solves:
            reasons.append("no optimizer solve recorded")
        return reasons

    def describe(self, draw) -> str:
        return os.path.join(self.out_dir, f"random_scenarios-seed{self.seed}-draw{draw}.ini")


WORKLOADS = {cls.name: cls for cls in (TrendSweep, GeometrySweep, RandomScenarios)}
