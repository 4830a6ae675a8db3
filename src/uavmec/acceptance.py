"""Acceptance harness: every criterion as a callable check with its
threshold pinned, runnable from the CLI (`uavmec verify`) and from the test
suite."""

from __future__ import annotations

import copy
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import optimizer, runner
from .oracle import GridSpec, convexity_probe, grid_search_primal, kkt_residuals
from .optimizer import algorithm1, phase1_closed_form, power_opt
from .scenario import ScenarioConfig, build_instance, validate


@dataclass
class CriterionResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: measured {self.measured:.6g} vs threshold {self.threshold:.6g}  {self.detail}"


def _single_vehicle(cfg: ScenarioConfig, **overrides) -> ScenarioConfig:
    out = copy.deepcopy(cfg)
    out.vehicles = 1
    out.weight_vehicle = np.array([float(cfg.weight_vehicle[0])])
    out.task_bits = np.array([float(cfg.task_bits[0])])
    out.min_bits = np.array([float(cfg.min_bits[0])])
    out.output_ratio = np.array([float(cfg.output_ratio[0])])
    out.vehicle_elevations = np.array([float(cfg.vehicle_elevations[0])])
    for key, value in overrides.items():
        setattr(out, key, value)
    return validate(out)


def criterion_convexity(cfg: ScenarioConfig, samples: int = 1000) -> CriterionResult:
    """Sampled midpoint convexity of the objective at the stock settings."""
    inst = build_instance(cfg)
    worst = convexity_probe(inst, samples=samples, seed=cfg.seed)
    return CriterionResult(
        name="convexity",
        passed=worst <= 0.0,
        measured=worst,
        threshold=0.0,
        detail=f"worst midpoint violation over {samples} random feasible pairs",
    )


def criterion_closed_form_consistency(cfg: ScenarioConfig, trials: int = 100) -> CriterionResult:
    """The solver's vectorized power root vs the rank-1 closed form, plus the
    exact linear lower/upper-bound power relation."""
    rng = np.random.default_rng(cfg.seed + 1)
    bandwidth, noise = cfg.bandwidth, cfg.noise_density
    pmax = cfg.power_max_offload
    worst = 0.0
    for _ in range(trials):
        n_tx = int(rng.integers(1, 65))
        n_rx = int(rng.integers(1, 65))
        beta = 10.0 ** rng.uniform(-9, -6)
        phi = beta * n_tx * n_rx
        weight = 10.0 ** rng.uniform(-1, 0.5)
        # price drawn so the stationary power is interior most of the time
        g_scalar = phi / (bandwidth * noise * n_tx)
        p_target = 10.0 ** rng.uniform(-4, np.log10(pmax * 0.9))
        price = weight * np.log(2.0) * (1.0 + p_target * g_scalar) / (bandwidth * g_scalar)
        numeric = float(power_opt(np.array([g_scalar]), weight, price, bandwidth, pmax))
        closed, raw_lower = phase1_closed_form(
            phi, n_tx, n_rx, "lower", weight, price, bandwidth, noise, pmax
        )
        if closed > 0:
            worst = max(worst, abs(numeric - closed) / max(closed, 1e-300))
        # exact linear relation between the unclamped bound powers
        p_up, raw_upper = phase1_closed_form(
            phi, n_tx, n_rx, "upper", weight, price, bandwidth, noise, pmax
        )
        lmin = min(n_tx, n_rx)
        if abs(raw_upper - lmin * raw_lower) > 1e-12 * max(abs(raw_upper), 1e-300):
            worst = max(worst, 1.0)
        if closed > p_up * (1 + 1e-12):
            worst = max(worst, 1.0)
    return CriterionResult(
        name="closed_form_consistency",
        passed=worst <= 1e-6,
        measured=worst,
        threshold=1e-6,
        detail=f"max relative power mismatch over {trials} rank-1 draws",
    )


def criterion_oracle_equivalence(cfg: ScenarioConfig) -> CriterionResult:
    """Desk-scale brute force vs the dual pipeline, plus weak duality."""
    small = _single_vehicle(cfg, horizon=cfg.slot)
    inst = build_instance(small)
    report = algorithm1(inst, eps=small.epsilon, max_iterations=small.max_iterations)
    grid_value, _ = grid_search_primal(inst, GridSpec())
    rel = abs(grid_value - report.wtec) / max(abs(report.wtec), 1e-300)
    weak_ok = grid_value >= report.dual_value - 1e-9 * max(abs(grid_value), 1.0)
    return CriterionResult(
        name="oracle_equivalence",
        passed=(rel <= 0.02) and weak_ok,
        measured=rel,
        threshold=0.02,
        detail=f"grid {grid_value:.6e} vs solver {report.wtec:.6e}; weak duality {'ok' if weak_ok else 'VIOLATED'}",
    )


def criterion_kkt(cfg: ScenarioConfig, report=None, inst=None) -> CriterionResult:
    """Stationarity, feasibility and complementary slackness at the optimum."""
    if report is None or inst is None:
        report, inst = runner.solve_report(cfg)
    kkt = kkt_residuals(inst, report.allocation, report.duals)
    passed = (
        kkt["stationarity"] <= 1e-3
        and kkt["complementary_slackness"] <= 1e-4
        and kkt["primal_feasible"]
        and kkt["dual_feasible"]
    )
    return CriterionResult(
        name="kkt_at_optimum",
        passed=passed,
        measured=max(kkt["stationarity"], kkt["complementary_slackness"]),
        threshold=1e-3,
        detail=(
            f"stationarity {kkt['stationarity']:.3e} (<=1e-3), "
            f"comp.slack {kkt['complementary_slackness']:.3e} (<=1e-4), "
            f"primal {'ok' if kkt['primal_feasible'] else 'violated'}, "
            f"dual {'ok' if kkt['dual_feasible'] else 'violated'}"
        ),
    )


def criterion_strong_duality(cfg: ScenarioConfig, report=None, inst=None) -> CriterionResult:
    if report is None or inst is None:
        report, inst = runner.solve_report(cfg)
    return CriterionResult(
        name="strong_duality",
        passed=report.gap <= 1e-3,
        measured=report.gap,
        threshold=1e-3,
        detail=f"primal {report.wtec:.6e}, dual {report.dual_value:.6e}",
    )


def criterion_convergence(cfg: ScenarioConfig) -> CriterionResult:
    """Dual gap under epsilon within 30 iterations across task sizes and
    array sizes."""
    worst_iters = 0
    all_ok = True
    details = []
    for bits in (2e5, 5e5, 8e5):
        for antennas in (16, 36, 64):
            point = runner.set_axis(runner.set_axis(cfg, "task_bits", bits), "antennas", antennas)
            inst = build_instance(point)
            try:
                state = optimizer.ellipsoid_solve(inst, eps=point.epsilon,
                                                  max_iterations=point.max_iterations)
                ok = state.converged and state.iterations <= 30
                worst_iters = max(worst_iters, state.iterations)
            except optimizer.IterationCapExceeded as exc:
                ok = False
                worst_iters = max(worst_iters, exc.report.iterations)
            all_ok &= ok
            details.append(f"b={bits:.0e},L={antennas}:{'ok' if ok else 'FAIL'}")
    return CriterionResult(
        name="convergence",
        passed=all_ok,
        measured=float(worst_iters),
        threshold=30.0,
        detail="; ".join(details),
    )


def criterion_trends(cfg: ScenarioConfig) -> CriterionResult:
    """Figure-trend reproduction on the stock scenario.

    (a) exact-carry (non-optimized) total delay strictly decreasing in the
        antenna count; the optimized schedule pads its sub-slot exactly full,
        so its occupied time is flat by construction and carries no trend.
    (b) optimized never above baseline energy at matched sweep points.
    (c) energy non-decreasing in the UAV altitude.
    (d) fixed-wing energy increasing in the horizon, the UAV speed (in the
        super-economical speed regime) and the UAV weight factor.
    """
    problems = []

    sweep_l = runner.run_sweep(runner.set_axis(cfg, "task_bits", 5e5), "antennas",
                               [16, 36, 64], include_baseline=True)
    base_tccd = [r["tccd_s"] for r in sweep_l.rows if r["mode"] == "baseline"]
    if not all(earlier > later for earlier, later in zip(base_tccd, base_tccd[1:])):
        problems.append(f"(a) baseline TCCD not strictly decreasing in antennas: {base_tccd}")

    sweep_b = runner.run_sweep(cfg, "task_bits", [2e5, 5e5, 8e5], include_baseline=True)
    by_value = {}
    for row in sweep_b.rows:
        by_value.setdefault(row["sweep_value"], {})[row["mode"]] = row["wtec_J"]
    for value, modes in by_value.items():
        if "baseline" in modes and cfg.mode in modes:
            if modes[cfg.mode] > modes["baseline"] * (1 + 1e-6):
                problems.append(f"(b) optimized above baseline at {value}: {modes}")

    single = _single_vehicle(cfg)
    single.task_bits = np.array([6e5])
    single.min_bits = np.array([6e5])
    sweep_h = runner.run_sweep(validate(single), "uav_altitude", [10.0, 20.0, 40.0],
                               include_baseline=True)
    for mode in (cfg.mode, "baseline"):
        ws = [r["wtec_J"] for r in sweep_h.rows if r["mode"] == mode]
        if not all(b >= a * (1 - 1e-9) for a, b in zip(ws, ws[1:])):
            problems.append(f"(c) {mode} energy decreasing in altitude: {ws}")

    fixed = copy.deepcopy(cfg)
    fixed.uav_model = "fixed_wing"
    fixed.uav_climb = 0.0
    fixed.uav_speed = 30.0
    fixed.task_bits = np.full(cfg.vehicles, 6e5)
    fixed.min_bits = np.full(cfg.vehicles, 6e5)
    fixed = validate(fixed)
    for axis, values in (("horizon", [4.0, 8.0, 12.0]),
                         ("uav_speed", [30.0, 37.0, 44.0]),
                         ("weight_uav", [0.05, 0.1, 0.2])):
        sweep = runner.run_sweep(fixed, axis, values)
        ws = [r["wtec_J"] for r in sweep.rows]
        if not all(b > a for a, b in zip(ws, ws[1:])):
            problems.append(f"(d) energy not increasing in {axis}: {ws}")

    return CriterionResult(
        name="trend_reproduction",
        passed=not problems,
        measured=float(len(problems)),
        threshold=0.0,
        detail="; ".join(problems) if problems else "all four trend families hold",
    )


def criterion_derived_constants(cfg: ScenarioConfig) -> CriterionResult:
    """Hand-derivable constants from the stock parameter set."""
    inst = build_instance(runner.set_axis(cfg, "horizon", cfg.slot))
    problems = []
    cap = inst.bits_local_cap
    if abs(cap - 2e5) > 1e-12 * 2e5:
        problems.append(f"local per-slot cap {cap} != 2e5")
    from .energy import FlightPowerModel, compute_energy, flight_energy

    rotary = FlightPowerModel(kind="rotary_wing")
    hover = flight_energy(rotary, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], cfg.slot)
    if abs(hover - 33.7) > 0.01 * 33.7:
        problems.append(f"rotary hover slot energy {hover} not within 1% of 33.7 J")
    e_cap = compute_energy(2e5, inst.vehicle_compute, cfg.slot)
    if abs(e_cap - 0.2) > 1e-6 * 0.2:
        problems.append(f"local compute energy at cap {e_cap} != 0.2 J")
    measured = max(
        abs(cap - 2e5) / 2e5, abs(hover - 33.7) / 33.7, abs(e_cap - 0.2) / 0.2
    )
    return CriterionResult(
        name="derived_constants",
        passed=not problems,
        measured=measured,
        threshold=0.01,
        detail="; ".join(problems) if problems else
        f"cap 2e5 bits, hover {hover:.3f} J, cap energy {e_cap:.6f} J",
    )


def criterion_determinism(cfg: ScenarioConfig) -> CriterionResult:
    """Byte-identical CSV output across two runs of the same config."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"run{i}.csv") for i in (0, 1)]
        for path in paths:
            sweep = runner.run_sweep(cfg, "antennas", [cfg.antennas_uav],
                                     include_baseline=True)
            runner.emit_results(sweep, "csv", path)
        blobs = [open(p, "rb").read() for p in paths]
    same = blobs[0] == blobs[1]
    return CriterionResult(
        name="determinism",
        passed=same,
        measured=0.0 if same else 1.0,
        threshold=0.0,
        detail="two runs produced byte-identical CSV" if same else "outputs differ",
    )


def verify(cfg: ScenarioConfig | None = None, printer=print) -> list:
    """Run every acceptance criterion, printing one pass/fail line each."""
    cfg = cfg or validate(ScenarioConfig())
    report, inst = runner.solve_report(cfg)
    results = [
        criterion_convexity(cfg),
        criterion_closed_form_consistency(cfg),
        criterion_oracle_equivalence(cfg),
        criterion_kkt(cfg, report, inst),
        criterion_strong_duality(cfg, report, inst),
        criterion_convergence(cfg),
        criterion_trends(cfg),
        criterion_derived_constants(cfg),
        criterion_determinism(cfg),
    ]
    for res in results:
        printer(res.line())
    return results
