"""The closed-form recovery step against the recovery LP (P2) solved by HiGHS.

Each block's LP is built here from the problem statement, independently of
`solve_p2`: variables b_R and the four transmit times, cost sum w * p * t,
rows for the minimum bits, the four link capacities and the sub-slot budget,
and 0 <= t <= sub-slot.
"""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import make_synthetic_instance
from uavmec.optimizer import InfeasibleAllocation, ellipsoid_solve, solve_p2
from uavmec.scenario import ScenarioConfig, build_instance, validate

# linprog's status for a proven infeasible problem
LP_INFEASIBLE = 2


def p2_linprog(inst, k, n, bits_local, bits_uav, powers):
    """linprog result of block (k, n)'s recovery LP in the scaled variables
    (b_R / b_scale, t / sub), returned with b_scale and sub."""
    sub = inst.subslot
    b_scale = max(float(inst.min_bits.max()), 1.0)
    xi = inst.output_ratio[k]
    bl, bu = bits_local[k, n], bits_uav[k, n]
    r = [float(c) * sub / b_scale for c in inst.rate(powers)[:, k, n]]
    w = [inst.weights_vehicle[k]] + [inst.weight_uav] * 3
    cost = np.array([0.0] + [w[ph] * powers[ph, k, n] for ph in range(4)])
    a_ub = np.array([
        [-1.0, 0.0, 0.0, 0.0, 0.0],  # b_local + b_uav + b_R >= min bits
        [1.0, -r[0], 0.0, 0.0, 0.0],  # uplink carries b_uav + b_R
        [1.0, 0.0, -r[1], 0.0, 0.0],  # relay carries b_R
        [0.0, 0.0, 0.0, -r[2], 0.0],  # UAV-result download carries xi * b_uav
        [xi, 0.0, 0.0, 0.0, -r[3]],  # ground-result download carries xi * b_R
        [0.0, 1.0, 1.0, 1.0, 1.0],  # sub-slot budget after UAV compute
    ])
    t_cu = inst.uav_compute.cycles_per_bit * bu / inst.uav_compute.cpu_freq
    b_ub = np.array([(bl + bu - inst.min_bits[k, n]) / b_scale, -bu / b_scale, 0.0,
                     -xi * bu / b_scale, 0.0, (sub - t_cu) / sub])
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] + [(0, 1)] * 4,
                  method="highs")
    return res, b_scale, sub


def energy_of(inst, times, powers):
    """Per-block weighted radiated energy sum w * p * t."""
    w = [inst.weights_vehicle[:, None]] + [inst.weight_uav] * 3
    return sum(w[ph] * powers[ph] * times[ph] for ph in range(4))


def assert_matches_linprog(inst, bits_local, bits_uav, powers):
    bits_rsu, times = solve_p2(inst, bits_local, bits_uav, powers)
    energy = energy_of(inst, times, powers)
    for k, n in np.ndindex(inst.min_bits.shape):
        res, b_scale, sub = p2_linprog(inst, k, n, bits_local, bits_uav, powers)
        assert res.status == 0, res.message
        assert np.isclose(bits_rsu[k, n], res.x[0] * b_scale, rtol=1e-9, atol=1e-9 * b_scale)
        assert np.isclose(energy[k, n], res.fun * sub, rtol=1e-9,
                          atol=1e-9 * max(float(energy.max()), 1e-300))


@pytest.mark.parametrize("task_bits", (1e5, 5e5, 9e5))
def test_solve_p2_matches_linprog_on_stock_completions(task_bits):
    inst = build_instance(validate(ScenarioConfig(task_bits=task_bits)))
    (bits_local, bits_uav, _), powers = ellipsoid_solve(inst).completion
    assert_matches_linprog(inst, bits_local, bits_uav, powers)


def random_blocks(seed, k=3, n=8):
    """Seeded blocks with random gains, demands, splits and powers.  About a
    tenth of the phases run at zero power, and some blocks need no ground
    unit or UAV bits, so some phases carry nothing and some blocks cannot
    carry their bits."""
    rng = np.random.default_rng(seed)
    inst = make_synthetic_instance(n_vehicles=k, n_slots=n)
    inst = dataclasses.replace(
        inst,
        min_bits=np.where(rng.uniform(size=(k, n)) < 0.15, 0.0, rng.uniform(0.0, 1e6, (k, n))),
        gains=10.0 ** rng.uniform(1.0, 4.0, (4, k, n, 1)),
    )
    bits_local = np.where(rng.uniform(size=(k, n)) < 0.25, inst.min_bits,
                          rng.uniform(0.0, inst.bits_local_cap, (k, n)))
    bits_uav = np.where(rng.uniform(size=(k, n)) < 0.3, 0.0,
                        rng.uniform(0.0, inst.bits_uav_cap, (k, n)))
    powers = inst.power_max[:, None, None] * 10.0 ** rng.uniform(-2.0, 0.0, (4, k, n))
    powers = np.where(rng.uniform(size=(4, k, n)) < 0.1, 0.0, powers)
    return inst, bits_local, bits_uav, powers


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_solve_p2_matches_linprog_on_random_blocks(seed):
    inst, bits_local, bits_uav, powers = random_blocks(seed)
    shape = inst.min_bits.shape
    infeasible = np.zeros(shape, bool)
    for k, n in np.ndindex(shape):
        # the other blocks carry nothing, so only block (k, n) can fail
        one = np.zeros(shape, bool)
        one[k, n] = True
        try:
            solve_p2(inst, np.where(one, bits_local, inst.min_bits),
                     np.where(one, bits_uav, 0.0), powers)
        except InfeasibleAllocation as exc:
            infeasible[k, n] = True
            assert str(exc).endswith(f"vehicle {k}, slot {n}")
        res, _, _ = p2_linprog(inst, k, n, bits_local, bits_uav, powers)
        assert (res.status == LP_INFEASIBLE) == infeasible[k, n], res.message
    # the draws exercise both outcomes
    assert infeasible.any() and not infeasible.all()
    # every block at once raises for the first infeasible block in (k, n) order
    k, n = np.argwhere(infeasible)[0]
    with pytest.raises(InfeasibleAllocation, match=f"vehicle {k}, slot {n}$"):
        solve_p2(inst, bits_local, bits_uav, powers)
    # the feasible blocks, solved together, match the LP block by block
    assert_matches_linprog(inst, np.where(infeasible, inst.min_bits, bits_local),
                           np.where(infeasible, 0.0, bits_uav), powers)
