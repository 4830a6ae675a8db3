import numpy as np
import pytest

from conftest import make_synthetic_instance
from uavmec import optimizer as opt
from uavmec.instance import rate_derivative
from uavmec.optimizer import (
    SIGN_RTOL,
    InfeasibleAllocation,
    bits_local_opt,
    bits_uav_opt,
    dual_point_eval,
    ellipsoid_solve,
    phase1_closed_form,
    power_opt,
    solve_p2,
    warm_start,
)
from uavmec.protocol import check_feasible, wtec

TAU, K = 0.2, 3
KAPPA, CYC = 1e-27, 1e3
F_VEH, F_UAV = 1e9, 3e9


# ---------------------------------------------------------------- closed forms

def local_subproblem(price, weight, bits):
    return weight * KAPPA * CYC**3 * bits**3 / TAU**2 - price * bits


def test_bits_local_zero_price():
    assert bits_local_opt(0.0, 1.0, KAPPA, CYC, TAU, F_VEH) == 0.0


def test_bits_local_clamps_at_cpu_cap():
    assert np.isclose(bits_local_opt(1.0, 1.0, KAPPA, CYC, TAU, F_VEH), 2e5)


def test_bits_local_known_stationary_point():
    assert np.isclose(bits_local_opt(7.5e-7, 1.0, KAPPA, CYC, TAU, F_VEH), 1e5, rtol=1e-12)


def test_bits_local_matches_grid_search():
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 2e5, 20001)
    for _ in range(100):
        price = 10.0 ** rng.uniform(-9, -5)
        weight = 10.0 ** rng.uniform(-1, 0.5)
        best = grid[np.argmin(local_subproblem(price, weight, grid))]
        closed = bits_local_opt(price, weight, KAPPA, CYC, TAU, F_VEH)
        assert abs(closed - best) <= grid[1] - grid[0]


def uav_subproblem(chi1, chi2, chi3, chi5, xi, w_u, bits):
    coef = chi2 * CYC / F_UAV + chi3 + chi5 * xi - chi1
    return w_u * KAPPA * CYC**3 * K**2 * bits**3 / TAU**2 + coef * bits


def test_bits_uav_zero_when_net_gain_negative():
    assert bits_uav_opt(0.0, 1.0, 0.0, 0.0, 0.8, 0.1, KAPPA, CYC, TAU, K, F_UAV) == 0.0
    assert bits_uav_opt(0.0, 0.0, 0.0, 0.0, 0.8, 0.1, KAPPA, CYC, TAU, K, F_UAV) == 0.0


def test_bits_uav_clamps_at_subslot_cpu_cap():
    cap = F_UAV * TAU / (K * CYC)
    assert np.isclose(cap, 2e5)
    got = bits_uav_opt(1.0, 0.0, 0.0, 0.0, 0.8, 0.1, KAPPA, CYC, TAU, K, F_UAV)
    assert np.isclose(got, cap)


def test_bits_uav_matches_grid_search():
    rng = np.random.default_rng(4)
    grid = np.linspace(0.0, 2e5, 20001)
    for _ in range(100):
        chi1 = 10.0 ** rng.uniform(-8, -5)
        chi2 = 10.0 ** rng.uniform(-6, -2)
        chi3 = chi1 * rng.uniform(0.0, 1.0)
        chi5 = chi1 * rng.uniform(0.0, 0.5)
        xi, w_u = 0.8, 0.1
        best = grid[np.argmin(uav_subproblem(chi1, chi2, chi3, chi5, xi, w_u, grid))]
        closed = bits_uav_opt(chi1, chi2, chi3, chi5, xi, w_u, KAPPA, CYC, TAU, K, F_UAV)
        assert abs(closed - best) <= grid[1] - grid[0]


def test_remark1_monotonicity_in_weights():
    price = 5e-7
    heavier = [bits_local_opt(price, w, KAPPA, CYC, TAU, F_VEH) for w in (0.5, 1.0, 2.0)]
    assert heavier[0] >= heavier[1] >= heavier[2]
    uav = [
        bits_uav_opt(1e-6, 1e-5, 1e-8, 1e-8, 0.8, w, KAPPA, CYC, TAU, K, F_UAV)
        for w in (0.05, 0.1, 0.2)
    ]
    assert uav[0] >= uav[1] >= uav[2]
    ratio = [
        bits_uav_opt(1e-6, 1e-5, 1e-8, 1e-7, xi, 0.1, KAPPA, CYC, TAU, K, F_UAV)
        for xi in (0.4, 0.8, 1.6)
    ]
    assert ratio[0] >= ratio[1] >= ratio[2]


def _ground_bits(inst, chi):
    """Ground-unit bits chosen by the dual evaluation, read off the
    minimum-bits residual."""
    _, g = dual_point_eval(inst, chi)
    bl, bu = opt._split(inst, chi[..., 0], chi[..., 1], chi[..., 2], chi[..., 4])
    return (inst.min_bits - bl - bu - g[..., 0])[0, 0]


def test_bits_rsu_rule_cases():
    # margin = chi_uplink + chi_relay + xi * chi_down_rsu - chi_min_bits
    inst = make_synthetic_instance(min_bits=5e5)
    positive = np.array([[[1e-7, 1.0, 1e-7, 1e-7, 0.0, 1e-7]]])
    assert _ground_bits(inst, positive) == 0.0
    # zero margin: indeterminate, the ground unit takes the shortfall
    balanced = positive.copy()
    balanced[..., 0] = 2.8e-7
    shortfall = 5e5 - bits_local_opt(2.8e-7, 1.0, KAPPA, CYC, TAU, F_VEH)
    assert np.isclose(_ground_bits(inst, balanced), shortfall)
    # the rule's tolerance is relative to the prices, not absolute
    within = positive.copy()
    within[..., 0] = 2.8e-7 * (1.0 + 0.1 * SIGN_RTOL)
    assert _ground_bits(inst, within) > 0.0
    beyond = positive.copy()
    beyond[..., 0] = 2.8e-7 * (1.0 - 10.0 * SIGN_RTOL)
    assert _ground_bits(inst, beyond) == 0.0


# ---------------------------------------------------------------- power roots

def test_power_opt_zero_price_gives_zero_power():
    assert power_opt(np.array([5000.0]), 1.0, 0.0, 5e6, 3.162) == 0.0


def test_power_opt_huge_price_clamps_at_cap():
    assert power_opt(np.array([5000.0]), 1.0, 1.0, 5e6, 3.162) == 3.162


def test_power_opt_is_elementwise_over_blocks():
    rng = np.random.default_rng(8)
    gains = 10.0 ** rng.uniform(1, 4, (2, 3, 5))
    weight = np.array([[0.5], [2.0]])  # per vehicle, broadcast over slots
    price = 10.0 ** rng.uniform(-8, -6, (2, 3))
    got = power_opt(gains, weight, price, 5e6, 3.162)
    assert got.shape == (2, 3)
    for k in range(2):
        for n in range(3):
            one = power_opt(gains[k, n], weight[k, 0], price[k, n], 5e6, 3.162)
            assert got[k, n] == one


def test_power_opt_matches_rank_one_closed_form():
    rng = np.random.default_rng(5)
    bandwidth, noise, pmax = 5e6, 1e-16, 3.162
    for _ in range(100):
        n_tx, n_rx = rng.integers(1, 40, 2)
        phi = 10.0 ** rng.uniform(-6, -3)
        weight = 10.0 ** rng.uniform(-1, 0.3)
        gain = phi / (bandwidth * noise * n_tx)
        target = 10.0 ** rng.uniform(-3, 0.3)
        price = weight * np.log(2.0) * (1 + target * gain) / (bandwidth * gain)
        numeric = power_opt(np.array([gain]), weight, price, bandwidth, pmax)
        closed, _ = phase1_closed_form(phi, int(n_tx), int(n_rx), "lower", weight,
                                       price, bandwidth, noise, pmax)
        if 0 < closed < pmax:
            assert abs(numeric - closed) <= 1e-6 * closed


def test_power_opt_defining_function_monotone():
    gains = np.array([4000.0, 900.0, 10.0])
    bandwidth = 5e6
    price, weight = 2e-7, 1.0
    ps = np.linspace(0, 3.0, 50)
    lhs = weight - price * rate_derivative(gains, bandwidth, ps)
    assert (np.diff(lhs) > 0).all()


def _uplink_time(inst, chi):
    """Uplink time chosen by the dual evaluation, read off the sub-slot
    budget residual: at these prices every other phase takes zero time."""
    _, g = dual_point_eval(inst, chi)
    return g[0, 0, 1] + inst.subslot


def test_slot_time_rule_three_cases():
    # sign of s = w * p + chi_subslot - chi_uplink * r(p) at the stationary p
    inst = make_synthetic_instance(min_bits=5e5)
    chi = np.array([[[0.0, 0.0, 1e-6, 0.0, 0.0, 0.0]]])
    assert np.isclose(_uplink_time(inst, chi), inst.subslot)  # s < 0: full
    chi[..., 1] = 100.0
    assert _uplink_time(inst, chi) == 0.0  # s > 0: zero
    # s = 0: the interval case takes the exact-carry time of the ground-unit
    # bits, which the zero boundedness margin sets to the shortfall
    price = np.array([[2e-7]])
    p = power_opt(inst.gains[0], 1.0, price, inst.bandwidth, inst.power_max[0])
    rate = inst.rate(0, p)[0, 0]
    chi = np.array([[[2e-7, 2e-7 * rate - p[0, 0], 2e-7, 0.0, 0.0, 0.0]]])
    carry = (5e5 - bits_local_opt(2e-7, 1.0, KAPPA, CYC, TAU, F_VEH)) / rate
    assert 0.0 < carry < inst.subslot
    assert np.isclose(_uplink_time(inst, chi), carry, rtol=1e-9)


def test_phase1_closed_form_cases():
    bandwidth, noise, pmax = 5e6, 1e-16, 3.162
    p, raw = phase1_closed_form(1e-4, 36, 36, "lower", 1.0, 0.0, bandwidth, noise, pmax)
    assert p == 0.0
    # single-stream upper equals lower
    p_lo, _ = phase1_closed_form(1e-4, 1, 16, "lower", 1.0, 3e-7, bandwidth, noise, pmax)
    p_up, _ = phase1_closed_form(1e-4, 1, 16, "upper", 1.0, 3e-7, bandwidth, noise, pmax)
    assert np.isclose(p_lo, p_up, rtol=1e-12)
    # unclamped linear relation with min(L) = 4
    _, raw_lo = phase1_closed_form(1e-4, 4, 25, "lower", 1.0, 3e-7, bandwidth, noise, pmax)
    _, raw_up = phase1_closed_form(1e-4, 4, 25, "upper", 1.0, 3e-7, bandwidth, noise, pmax)
    assert np.isclose(raw_up, 4 * raw_lo, rtol=1e-12)


def test_remark2_bound_power_ordering():
    rng = np.random.default_rng(6)
    bandwidth, noise, pmax = 5e6, 1e-16, 3.162
    for _ in range(200):
        phi = 10.0 ** rng.uniform(-7, -3)
        price = 10.0 ** rng.uniform(-8, -5)
        n_tx, n_rx = rng.integers(1, 64, 2)
        p_lo, raw_lo = phase1_closed_form(phi, int(n_tx), int(n_rx), "lower", 1.0,
                                          price, bandwidth, noise, pmax)
        p_up, raw_up = phase1_closed_form(phi, int(n_tx), int(n_rx), "upper", 1.0,
                                          price, bandwidth, noise, pmax)
        if raw_lo >= 0:
            assert raw_lo <= raw_up + 1e-18
        assert p_lo <= p_up * (1 + 1e-12) + 1e-18


# ----------------------------------------------------------- dual machinery

def test_dual_subgradients_track_constructed_residuals():
    inst = make_synthetic_instance(min_bits=5e5)
    chi = np.zeros((1, 1, 6))
    value, g = dual_point_eval(inst, chi)
    # zero multipliers: the boundedness margin is exactly zero, so the inner
    # minimizer routes the whole shortfall to the ground unit with zero times;
    # the capacity residuals then expose the violated rate constraints
    assert np.isclose(value[0, 0], 0.0)
    assert np.allclose(
        g[0, 0], [0.0, -inst.subslot, 5e5, 5e5, 0.0, 0.8 * 5e5]
    )
    # away from the boundedness boundary the ground-unit bits stay at zero
    chi_strict = np.zeros((1, 1, 6))
    chi_strict[..., 2] = 1e-6  # uplink price alone keeps the margin positive
    _, g_strict = dual_point_eval(inst, chi_strict)
    assert np.isclose(g_strict[0, 0, 0], 5e5)
    # large rate prices: every phase runs at full power for the full
    # sub-slot, so the budget is over-filled by three sub-slots
    chi_full = np.array([[[0.0, 0.0, 1.0, 1.0, 1.0, 1.0]]])
    value, g_full = dual_point_eval(inst, chi_full)
    sub = inst.subslot
    r = [inst.rate(ph, np.full((1, 1), inst.power_max[ph]))[0, 0] for ph in range(4)]
    assert np.allclose(g_full[0, 0], [5e5, 3 * sub, -sub * r[0], -sub * r[1],
                                      -sub * r[2], -sub * r[3]], rtol=1e-12)
    s = [inst.power_max[ph] * (1.0 if ph == 0 else inst.weight_uav) - r[ph] for ph in range(4)]
    assert np.isclose(value[0, 0], sub * sum(s), rtol=1e-12)


def test_dual_value_never_exceeds_feasible_energy():
    inst = make_synthetic_instance(min_bits=4e5)
    _, _, infeasible = warm_start(inst)
    assert not infeasible.any()
    state = ellipsoid_solve(inst, eps=1e-4, max_iterations=50)
    # weak duality against a hand-built feasible allocation
    from uavmec.protocol import Allocation

    alloc = Allocation.zeros(1, 1)
    alloc.bits_local[:] = 2e5
    alloc.bits_rsu[:] = 2e5
    alloc.power_offload[:] = 1.0
    alloc.power_relay[:] = 1.0
    alloc.power_down_rsu[:] = 1.0
    r0 = float(inst.rate(0, alloc.power_offload)[0, 0])
    alloc.time_offload[:] = 2e5 / r0 * 1.0001
    alloc.time_relay[:] = 2e5 / float(inst.rate(1, alloc.power_relay)[0, 0]) * 1.0001
    alloc.time_down_rsu[:] = 0.8 * 2e5 / float(inst.rate(3, alloc.power_down_rsu)[0, 0]) * 1.0001
    assert check_feasible(alloc, inst).feasible
    assert state.dual_value <= wtec(alloc, inst) * (1 + 1e-9)


def test_ellipsoid_trivial_instance_settles_at_zero():
    inst = make_synthetic_instance(min_bits=0.0)
    state = ellipsoid_solve(inst, eps=1e-4, max_iterations=50)
    assert state.converged
    assert abs(state.dual_value) <= 1e-12
    assert np.allclose(state.multipliers, 0.0)


def test_ellipsoid_dual_best_is_non_decreasing():
    inst = make_synthetic_instance(n_vehicles=2, n_slots=2, min_bits=5e5)
    with pytest.raises(opt.IterationCapExceeded) as err:
        ellipsoid_solve(inst, eps=0.0, max_iterations=25)
    duals = [entry["dual"] for entry in err.value.report.log]
    assert len(duals) == 26
    assert all(b >= a - 1e-12 for a, b in zip(duals, duals[1:]))


def test_ellipsoid_multipliers_satisfy_dual_feasibility():
    inst = make_synthetic_instance(n_vehicles=2, n_slots=3, min_bits=5e5)
    state = ellipsoid_solve(inst, eps=1e-4, max_iterations=60)
    chi = state.multipliers
    assert (chi >= -1e-15).all()
    xi = inst.output_ratio[:, None]
    margin = chi[..., 2] + chi[..., 3] + xi * chi[..., 5] - chi[..., 0]
    scale = chi[..., 2] + chi[..., 3] + xi * chi[..., 5] + chi[..., 0] + 1e-300
    assert (margin >= -1e-6 * scale).all()


def test_iteration_cap_carries_best_state():
    inst = make_synthetic_instance(min_bits=5e5)
    with pytest.raises(opt.IterationCapExceeded) as err:
        ellipsoid_solve(inst, eps=0.0, max_iterations=3)
    assert err.value.report.iterations == 3
    assert err.value.report.dual_value > 0


# --------------------------------------------------------------- recovery LP

def test_solve_p2_skips_ground_unit_when_covered():
    inst = make_synthetic_instance(min_bits=3e5)
    bits_local = np.full((1, 1), 2e5)
    bits_uav = np.full((1, 1), 1e5)
    powers = np.full((4, 1, 1), 0.5)
    bits_rsu, times = solve_p2(inst, bits_local, bits_uav, powers)
    assert np.isclose(bits_rsu[0, 0], 0.0, atol=1e-6)
    r0 = float(inst.rate(0, powers[0])[0, 0])
    assert np.isclose(times[0, 0, 0], 1e5 / r0, rtol=1e-6)
    assert np.isclose(times[1, 0, 0], 0.0, atol=1e-9)


def test_solve_p2_times_vanish_with_huge_rates():
    inst = make_synthetic_instance(gain=1e12, min_bits=3e5)
    bits_local = np.zeros((1, 1))
    bits_uav = np.zeros((1, 1))
    powers = np.full((4, 1, 1), 1.0)
    bits_rsu, times = solve_p2(inst, bits_local, bits_uav, powers)
    assert np.isclose(bits_rsu[0, 0], 3e5, rtol=1e-9)
    assert times.max() < 5e-3
    # objective collapses toward the compute-only energy (zero here)
    energy = float((powers * times).sum())
    assert energy < 1e-2


def test_solve_p2_infeasible_at_zero_power():
    inst = make_synthetic_instance(min_bits=3e5)
    with pytest.raises(InfeasibleAllocation):
        solve_p2(inst, np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((4, 1, 1)))


# ------------------------------------------------------------- full pipeline

def test_algorithm1_zero_bits_zero_energy():
    inst = make_synthetic_instance(n_vehicles=2, n_slots=2, min_bits=0.0)
    report = opt.algorithm1(inst)
    assert report.wtec == 0.0
    assert report.feasible


def test_algorithm1_feasible_and_certified():
    inst = make_synthetic_instance(n_vehicles=2, n_slots=3, min_bits=5e5)
    report = opt.algorithm1(inst)
    assert report.feasible and not report.violations
    assert report.gap <= 1e-4
    assert len(report.wtec_trajectory) == report.iterations
    total = report.allocation.bits_local + report.allocation.bits_uav + report.allocation.bits_rsu
    assert (total >= inst.min_bits * (1 - 1e-9)).all()


def test_algorithm1_beats_baseline(table1_cfg, table1_inst, table1_report):
    from uavmec.protocol import baseline_allocation

    base = baseline_allocation(table1_inst)
    assert table1_report.wtec <= wtec(base, table1_inst) * (1 + 1e-6)


def test_algorithm1_infeasible_demand_raises():
    inst = make_synthetic_instance(gain=10.0, min_bits=5e6)
    with pytest.raises(InfeasibleAllocation):
        opt.algorithm1(inst)


def test_dead_relay_routes_through_uav_compute():
    # unusable UAV-to-ground link: the optimum covers the bits locally and on
    # the UAV server, leaving the ground unit empty
    inst = make_synthetic_instance(gain=[5000.0, 1e-12, 5000.0, 5000.0], min_bits=3e5)
    report = opt.algorithm1(inst)
    a = report.allocation
    assert report.feasible and report.gap <= 1e-4
    assert a.bits_rsu[0, 0] == 0.0
    assert np.isclose(a.bits_local[0, 0] + a.bits_uav[0, 0], 3e5, rtol=1e-9)
    assert a.time_relay[0, 0] <= 1e-12  # simplex vertex noise only


def test_dead_downloads_make_offloading_impossible():
    # with both download links dead and bits above the local cap nothing fits
    inst = make_synthetic_instance(gain=[5000.0, 5000.0, 1e-12, 1e-12], min_bits=3e5)
    with pytest.raises(InfeasibleAllocation):
        opt.algorithm1(inst)


def test_feasible_split_oracle():
    from uavmec.optimizer import feasible_split

    ok, (bl, bu, br) = feasible_split(make_synthetic_instance(min_bits=5e5))
    assert ok.all()
    assert np.isclose(bl[0, 0] + bu[0, 0] + br[0, 0], 5e5)
    ok, _ = feasible_split(make_synthetic_instance(gain=10.0, min_bits=5e6))
    assert not ok.any()
