import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import make_synthetic_instance
from uavmec import instance, oracle
from uavmec import optimizer as opt
from uavmec.oracle import (
    NoFeasiblePoint,
    constraint_residuals,
    convexity_probe,
    grid_search_primal,
    kkt_residuals,
    sample_feasible,
    wtec_batch,
)
from uavmec.protocol import Allocation, block_energy, check_feasible, wtec
from uavmec.scenario import MODES, ScenarioConfig, build_instance, validate


def test_grid_search_zero_requirement_finds_zero():
    inst = make_synthetic_instance(min_bits=0.0)
    value, alloc = grid_search_primal(inst)
    assert value <= 1e-12
    assert check_feasible(alloc, inst).feasible


def test_grid_search_rejects_multi_block_instances():
    inst = make_synthetic_instance(n_vehicles=2, n_slots=1)
    with pytest.raises(ValueError):
        grid_search_primal(inst)


def test_grid_search_no_feasible_point_matches_solver_infeasibility():
    inst = make_synthetic_instance(gain=10.0, min_bits=5e6)
    with pytest.raises(NoFeasiblePoint):
        grid_search_primal(inst)
    with pytest.raises(opt.InfeasibleAllocation):
        opt.algorithm1(inst)


def test_grid_search_brackets_solver_result():
    inst = make_synthetic_instance(min_bits=4e5)
    report = opt.algorithm1(inst)
    value, alloc = grid_search_primal(inst)
    assert check_feasible(alloc, inst).feasible
    # the grid minimum can only sit above the true optimum
    assert value >= report.dual_value * (1 - 1e-9)
    assert abs(value - report.wtec) / report.wtec <= 0.05


def test_sampled_points_are_feasible(table1_inst):
    batch, ok = sample_feasible(table1_inst, 5, np.random.default_rng(9))
    assert ok.all()
    bits = (batch.bits_local, batch.bits_uav, batch.bits_rsu)
    assert batch.powers.shape == batch.times.shape == (4, 5) + table1_inst.min_bits.shape
    values = wtec_batch(table1_inst, bits, batch.powers, batch.times)
    for i in range(5):
        alloc = Allocation(*(b[i] for b in bits), batch.powers[:, i], batch.times[:, i])
        assert check_feasible(alloc, table1_inst).feasible
        # the probe's default objective is protocol's WTEC, sample by sample
        assert values[i] == pytest.approx(wtec(alloc, table1_inst), rel=1e-12)


def test_oracle_imports_nothing_from_the_solver():
    names = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
    parts = {part for name in names for part in name.split(".")}
    assert not parts & {"optimizer", "lp"}


def test_convexity_probe_non_positive_for_objective():
    inst = make_synthetic_instance(n_vehicles=2, n_slots=2, min_bits=4e5)
    worst = convexity_probe(inst, samples=200, seed=1)
    assert worst <= 0.0


def test_convexity_probe_flags_concave_negative_control():
    inst = make_synthetic_instance(min_bits=4e5)
    concave = lambda *batch: -wtec_batch(*batch)
    worst = convexity_probe(inst, samples=60, seed=2, objective=concave)
    assert worst > 0.0


def test_kkt_residuals_zero_instance():
    inst = make_synthetic_instance(min_bits=0.0)
    alloc = Allocation.zeros(1, 1)
    duals = np.zeros((1, 1, 6))
    kkt = kkt_residuals(inst, alloc, duals)
    assert kkt["stationarity"] <= 1e-12
    assert kkt["complementary_slackness"] == 0.0
    assert kkt["primal_feasible"] and kkt["dual_feasible"]


def test_kkt_detects_perturbed_multiplier():
    inst = make_synthetic_instance(n_vehicles=1, n_slots=2, min_bits=4e5)
    report = opt.algorithm1(inst)
    clean = kkt_residuals(inst, report.allocation, report.duals)
    bumped = report.duals.copy()
    bumped[..., 0] *= 1.1
    dirty = kkt_residuals(inst, report.allocation, bumped)
    assert dirty["stationarity"] > 10 * max(clean["stationarity"], 1e-12)


def test_constraint_residuals_signs():
    inst = make_synthetic_instance(min_bits=1e5)
    alloc = Allocation.zeros(1, 1)
    res = constraint_residuals(inst, alloc)
    assert res[0, 0, 0] == 1e5  # unmet minimum bits
    assert res[0, 0, 1] == -inst.subslot  # empty budget
    assert np.allclose(res[0, 0, 2:], 0.0)


def _slsqp_optimum(inst, k, n):
    """Independent nonlinear-programming solution of block (k, n) in the
    convex (bits, radiated energy, time) coordinates: vehicle k's weight,
    output ratio and gain rows, and the UAV CPU energy's K^2 sub-slot factor."""
    from scipy.optimize import minimize

    uc, vc = inst.uav_compute, inst.vehicle_compute
    xi = float(inst.output_ratio[k])
    w_k = float(inst.weights_vehicle[k])
    w_u = inst.weight_uav
    k2 = float(inst.min_bits.shape[0]) ** 2
    b_min = float(inst.min_bits[k, n])
    sub, tau = inst.subslot, inst.slot_len
    pmax = inst.power_max
    b_s, e_s, t_s = max(b_min, 1e5), float(pmax.max()) * sub, sub

    def rate(ph, p):
        return float(instance.rate(inst.gains[ph][k, n], inst.bandwidth, p))

    def unpack(z):
        bits = z[:3] * b_s
        energy = z[3:7] * e_s
        times = z[7:] * t_s
        return bits, energy, times

    def objective(z):
        (bl, bu, _), energy, _ = unpack(z)
        return (
            w_k * (vc.capacitance * vc.cycles_per_bit**3 * bl**3 / tau**2 + energy[0])
            + w_u * (energy[1] + k2 * uc.capacitance * uc.cycles_per_bit**3 * bu**3 / tau**2
                     + energy[2] + energy[3])
        )

    def constraints(z):
        (bl, bu, br), energy, times = unpack(z)
        loads = (bu + br, br, xi * bu, xi * br)
        out = [bl + bu + br - b_min,
               sub - times.sum() - uc.cycles_per_bit * bu / uc.cpu_freq]
        for ph in range(4):
            cap = times[ph] * rate(ph, energy[ph] / times[ph]) if times[ph] > 1e-12 else 0.0
            out.append(cap - loads[ph])
            out.append(pmax[ph] * times[ph] - energy[ph])
        return np.array(out)

    caps = opt._at_caps(inst)
    assert caps.feasible[k, n]
    z0 = np.zeros(11)
    z0[:3] = np.array([bits[k, n] for bits in opt.feasible_split(inst, caps.rates)[1]]) / b_s
    z0[7:] = 0.2
    for ph in range(4):
        p = pmax[ph] * 0.5
        z0[3 + ph] = max(p * z0[7 + ph] * t_s, 1e-9) / e_s
    bounds = (
        [(0, inst.bits_local_cap / b_s), (0, inst.bits_uav_cap / b_s), (0, 3 * b_min / b_s + 1)]
        + [(0, pmax[ph] * sub / e_s) for ph in range(4)]
        + [(1e-9, 1.0)] * 4
    )
    res = minimize(objective, z0, bounds=bounds,
                   constraints={"type": "ineq", "fun": constraints},
                   method="SLSQP", options={"maxiter": 600, "ftol": 1e-16})
    return res.fun


@pytest.mark.parametrize("kw", [
    dict(gain=5000.0, min_bits=5e5),
    dict(gain=[5000.0, 2.0, 5000.0, 5000.0], min_bits=3.5e5),    # UAV-compute regime
    dict(gain=[5000.0, 1e-12, 5000.0, 5000.0], min_bits=3.0e5),  # no ground route
    dict(gain=60.0, min_bits=3.2e5),                              # high powers
    dict(gain=[1e5, 5.0, 5.0, 5.0], min_bits=2.5e5),              # asymmetric links
    # three vehicles, each with its own weight, output ratio, bits and gains
    dict(n_vehicles=3, weight_vehicle=[1.0, 2.5, 0.6], output_ratio=[0.8, 1.4, 0.3],
         min_bits=[3e5, 2e5, 3.5e5],
         gain=[[5000.0, 300.0, 2e4], [5000.0, 2.0, 800.0], [5000.0, 60.0, 3000.0], [5000.0, 60.0, 3000.0]]),
])
def test_solver_not_beaten_by_nlp_oracle(kw):
    inst = make_synthetic_instance(**kw)
    report = opt.algorithm1(inst)
    a = report.allocation
    energy = block_energy(inst, a.bits_local, a.bits_uav, a.powers, a.times)
    for k, n in np.ndindex(inst.min_bits.shape):
        reference = _slsqp_optimum(inst, k, n)
        # the dual pipeline may never sit above an independent solution
        assert energy[k, n] <= reference * (1 + 5e-4) + 1e-12
        assert abs(energy[k, n] - reference) <= 0.02 * max(reference, 1e-12)


@st.composite
def _valid_scenarios(draw):
    """A scenario `validate` accepts, and one of its blocks: 1-4 vehicles,
    2-5 slots, per-vehicle weights, task bits and output ratios up to 1.5,
    the four power caps, 9, 16 or 36 antennas per array, and every optimized
    mode (the exact spectrum and both bounds)."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(2, 5))

    def per_vehicle(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k)))

    antennas = draw(st.sampled_from((9, 16, 36)))
    caps = {f"power_max_{phase}": draw(st.floats(0.3, 3.2)) for phase in ("offload", "relay", "down_uav", "down_rsu")}
    cfg = validate(ScenarioConfig(
        vehicles=k, horizon=n * 0.2, slot=0.2, weight_vehicle=per_vehicle(0.5, 2.0),
        weight_uav=draw(st.floats(0.05, 1.0)), task_bits=per_vehicle(1e5, 9e5),
        output_ratio=per_vehicle(0.05, 1.5), uav_altitude=draw(st.floats(10.0, 60.0)),
        antennas_vehicle=antennas, antennas_uav=antennas, antennas_rsu=antennas,
        mode=draw(st.sampled_from([m for m in MODES if m != "baseline"])), **caps))
    return cfg, (draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1)))


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(_valid_scenarios())
def test_valid_scenarios_certify_or_name_a_rejected_block(drawn):
    cfg, (k, n) = drawn
    inst = build_instance(cfg)
    feasible = opt._at_caps(inst).feasible
    warm_starts, warm_start = [], opt.warm_start
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(opt, "warm_start", lambda *args: warm_starts.append(1) or warm_start(*args))
        try:
            report = opt.algorithm1(inst, eps=cfg.epsilon, max_iterations=cfg.max_iterations)
        except opt.InfeasibleAllocation as err:
            # the first block in row-major order that no split carries at
            # full power, named before any multiplier moved
            named = tuple(map(int, re.search(r"vehicle (\d+), slot (\d+)$", str(err)).groups()))
            assert named == tuple(np.argwhere(~feasible)[0]) and not warm_starts
            event("a rejected block raised")
            return
    assert feasible.all() and report.converged and abs(report.gap) <= cfg.epsilon
    assert report.dual_value <= report.wtec * (1 + opt.WEAK_DUALITY_RTOL)
    a = report.allocation
    energy = block_energy(inst, a.bits_local, a.bits_uav, a.powers, a.times)[k, n]
    assert energy <= _slsqp_optimum(inst, k, n) * (1 + 5e-4) + 1e-12
    event(f"certified at iteration {report.iterations}")
