"""Scenario engine: single solves, parameter sweeps and result emission.

Reported energy adds the UAV propulsion term (weighted by the UAV weight) on
top of the optimization objective unless the scenario disables it; the
propulsion term does not depend on the decision variables, so the optimum is
unchanged either way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import optimizer
from .energy import flight_energy
from .protocol import (
    baseline_allocation,
    check_feasible,
    energy_breakdown,
    tccd,
    time_breakdown,
    wtec,
)
from .scenario import (_FIELD_SECTION, PER_VEHICLE_KEYS, ScenarioConfig, ValidationError, build_instance,
                       echo_config, flight_model, validate)

COLUMNS = (
    "sweep_value",
    "mode",
    "wtec_J",
    "tccd_s",
    "feasible",
    "iterations",
    "e_local_J",
    "e_offload_J",
    "e_relay_J",
    "e_uav_compute_J",
    "e_down_uav_J",
    "e_down_rsu_J",
    "e_flight_J",
    "t_offload_s",
    "t_relay_s",
    "t_uav_compute_s",
    "t_down_uav_s",
    "t_down_rsu_s",
    "t_local_compute_s",
)

# Sweep axes that fan out to several config fields.
_AXIS_ALIASES = {
    "antennas": ("antennas_vehicle", "antennas_uav", "antennas_rsu"),
}


@dataclass
class SweepResult:
    """Rows of one parameter sweep, ordered by sweep value."""

    axis: str
    values: list
    rows: list = field(default_factory=list)
    config: ScenarioConfig | None = None


def solve_scenario(cfg: ScenarioConfig, sweep_value: float = 0.0, inst=None) -> dict:
    """Run one scenario in its configured mode and return a result row; `inst`
    is the scenario's built instance, built here when not given or, for a
    baseline row, when it took no rates at the caps.  A baseline row reads only
    those rates; an optimized row's WTEC is its report's."""
    if inst is None or cfg.mode == "baseline" and inst.cap_rates is None:
        inst = build_instance(cfg)
    if cfg.mode == "baseline":
        inst = replace(inst, gains=None)
        alloc = baseline_allocation(inst)
        iterations, feasible, energy = 0, check_feasible(alloc, inst).feasible, wtec(alloc, inst)
    else:
        report = optimizer.algorithm1(inst, eps=cfg.epsilon, max_iterations=cfg.max_iterations)
        alloc, iterations, feasible, energy = report.allocation, report.iterations, report.feasible, report.wtec
    v = inst.states[0].uav.velocity  # the velocity the roll-out flew, constant over the horizon
    e_flight = flight_energy(flight_model(cfg), v[:2], v[2:], cfg.slot) * cfg.n_slots
    return {
        "sweep_value": float(sweep_value),
        "mode": cfg.mode,
        "wtec_J": energy + (cfg.weight_uav * e_flight if cfg.include_propulsion else 0.0),
        "tccd_s": tccd(alloc, inst, include_local=cfg.tccd_include_local),
        "feasible": bool(feasible),
        "iterations": int(iterations),
        **energy_breakdown(alloc, inst),
        "e_flight_J": e_flight,
        **time_breakdown(alloc, inst),
    }


def set_axis(cfg: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    """A validated copy of `cfg` with one sweep axis set to `value`; the input
    is unchanged, and an axis that names no config field or a value that is
    not a number is refused.

    A per-vehicle list is set to the value for every vehicle.  A new vehicle
    count cycles each per-vehicle list to that many values; a count that
    `validate` refuses leaves the lists as they are, for `validate` to name.
    """
    names = _AXIS_ALIASES.get(axis, (axis,))
    if not set(names) <= {f.name for f in fields(cfg)}:
        raise ValidationError([f"unknown sweep axis {axis!r}"])
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ValidationError([f"{_FIELD_SECTION[name]}.{name}: {value!r} is not a number" for name in names]) from None
    changes = {}
    for name in names:
        current = getattr(cfg, name)
        changes[name] = np.full_like(current, value) if isinstance(current, np.ndarray) else value
    if axis == "vehicles" and value >= 1 and value.is_integer():
        changes.update({name: np.resize(getattr(cfg, name), int(value)) for name in PER_VEHICLE_KEYS})
    return validate(replace(cfg, **changes))


def run_sweep(cfg: ScenarioConfig, axis: str, values, include_baseline: bool = False) -> SweepResult:
    """Solve the scenario at each axis value; solver failures at a point are
    recorded as infeasible rows instead of aborting the sweep.  Every point's
    config is derived first, so a refused value stops the sweep before it
    solves any point.  Each point's instance is built once, with the cap rates
    of its baseline row, which shares it."""
    points = [(set_axis(cfg, axis, value), float(value)) for value in values]
    result = SweepResult(axis=axis, values=[value for _, value in points], config=cfg)
    for point_cfg, value in sorted(points, key=lambda point: point[1]):
        inst = build_instance(point_cfg, include_baseline)
        try:
            row = solve_scenario(point_cfg, value, inst)
        except (optimizer.InfeasibleAllocation, optimizer.IterationCapExceeded) as exc:
            row = {c: float("nan") for c in COLUMNS}
            row.update(
                sweep_value=value,
                mode=point_cfg.mode,
                feasible=False,
                iterations=getattr(getattr(exc, "report", None), "iterations", 0) or 0,
            )
        result.rows.append(row)
        if include_baseline and point_cfg.mode != "baseline":
            result.rows.append(solve_scenario(replace(point_cfg, mode="baseline"), value, inst))
    return result


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def format_results(result: SweepResult, fmt: str) -> str:
    """Render a sweep as CSV or JSON text with the resolved config echoed in.

    Floats carry 9 significant digits; JSON numbers are quantized the same
    way so a reload compares equal to the file.
    """
    if fmt == "csv":
        lines = []
        if result.config is not None:
            for cfg_line in echo_config(result.config).strip().splitlines():
                lines.append(f"# {cfg_line}" if cfg_line else "#")
        lines.append(",".join(COLUMNS))
        for row in result.rows:
            lines.append(",".join(_fmt(row.get(c, float("nan"))) for c in COLUMNS))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        def q(v):
            if isinstance(v, bool) or not isinstance(v, float):
                return v
            return float(f"{v:.9g}")

        payload = {
            "config": result.config.as_dict() if result.config else None,
            "axis": result.axis,
            "values": [q(v) for v in result.values],
            "columns": list(COLUMNS),
            "rows": [{c: q(row.get(c, float("nan"))) for c in COLUMNS} for row in result.rows],
        }
        return json.dumps(payload, indent=1, allow_nan=True) + "\n"
    raise ValueError(f"unknown output format {fmt!r}")


def emit_results(result: SweepResult, fmt: str, path) -> None:
    """Write `format_results` text to `path`."""
    text = format_results(result, fmt)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
