import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import load_perfbench, make_synthetic_instance
from uavmec import optimizer as opt
from uavmec import instance
from uavmec.instance import rate, spectral_sum
from uavmec.optimizer import (
    SIGN_RTOL,
    InfeasibleAllocation,
    WeakDualityViolated,
    dual_point_eval,
    ellipsoid_solve,
    phase1_closed_form,
    power_opt,
    solve_p2,
    warm_start,
)
from uavmec.protocol import block_energy, carry_time, check_feasible, phase_loads, wtec
from uavmec.scenario import ScenarioConfig, build_instance, load_scenario, validate

TAU, K = 0.2, 3
KAPPA, CYC = 1e-27, 1e3
F_UAV = 3e9


def rate_derivative(gains, bandwidth: float, power) -> np.ndarray:
    """d rate / d power: B/ln2 * sum_l g_l / (1 + p * g_l), the per-link sum
    a `spectral_sum` (einsum, no BLAS).  The reference for the solver's r',
    which it reads from phi's sums."""
    snr = 1.0 + np.asarray(power, dtype=float)[..., None] * gains
    return bandwidth / np.log(2.0) * spectral_sum(np.divide(gains, snr, out=snr))


# ---------------------------------------------------------------- closed forms

def _split_at(inst, chi1, chi_subslot=0.0, chi_uplink=0.0, chi_down_uav=0.0):
    """Closed-form (local, UAV) bits of every block at scalar prices."""
    terms = opt._split_terms(inst, chi_subslot, chi_uplink, chi_down_uav)
    return opt._split(terms, np.full(inst.min_bits.shape, chi1))


def _local_bits(chi1, weight=1.0):
    inst = dataclasses.replace(make_synthetic_instance(), weights_vehicle=np.array([weight]))
    return _split_at(inst, chi1)[0][0, 0]


def local_subproblem(price, weight, bits):
    return weight * KAPPA * CYC**3 * bits**3 / TAU**2 - price * bits


def test_bits_local_zero_price():
    assert _local_bits(0.0) == 0.0


def test_bits_local_clamps_at_cpu_cap():
    assert np.isclose(_local_bits(1.0), 2e5)


def test_bits_local_known_stationary_point():
    assert np.isclose(_local_bits(7.5e-7), 1e5, rtol=1e-12)


def test_bits_local_matches_grid_search():
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 2e5, 20001)
    for _ in range(100):
        price = 10.0 ** rng.uniform(-9, -5)
        weight = 10.0 ** rng.uniform(-1, 0.5)
        best = grid[np.argmin(local_subproblem(price, weight, grid))]
        closed = _local_bits(price, weight)
        assert abs(closed - best) <= grid[1] - grid[0]


def _uav_bits(chi1, chi2, chi3, chi5, xi=0.8, w_u=0.1):
    # K vehicles share the UAV server: its bits carry the K^2 energy factor
    inst = make_synthetic_instance(n_vehicles=K, weight_uav=w_u, output_ratio=xi)
    return _split_at(inst, chi1, chi2, chi3, chi5)[1][0, 0]


def uav_subproblem(chi1, chi2, chi3, chi5, xi, w_u, bits):
    coef = chi2 * CYC / F_UAV + chi3 + chi5 * xi - chi1
    return w_u * KAPPA * CYC**3 * K**2 * bits**3 / TAU**2 + coef * bits


def test_bits_uav_zero_when_net_gain_negative():
    assert _uav_bits(0.0, 1.0, 0.0, 0.0) == 0.0
    assert _uav_bits(0.0, 0.0, 0.0, 0.0) == 0.0


def test_bits_uav_clamps_at_subslot_cpu_cap():
    cap = F_UAV * TAU / (K * CYC)
    assert np.isclose(cap, 2e5)
    assert np.isclose(_uav_bits(1.0, 0.0, 0.0, 0.0), cap)


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
        closed = _uav_bits(chi1, chi2, chi3, chi5, xi, w_u)
        assert abs(closed - best) <= grid[1] - grid[0]


def test_remark1_monotonicity_in_weights():
    price = 5e-7
    heavier = [_local_bits(price, w) for w in (0.5, 1.0, 2.0)]
    assert heavier[0] >= heavier[1] >= heavier[2]
    uav = [_uav_bits(1e-6, 1e-5, 1e-8, 1e-8, 0.8, w) for w in (0.05, 0.1, 0.2)]
    assert uav[0] >= uav[1] >= uav[2]
    ratio = [_uav_bits(1e-6, 1e-5, 1e-8, 1e-7, xi, 0.1) for xi in (0.4, 0.8, 1.6)]
    assert ratio[0] >= ratio[1] >= ratio[2]


def _ground_bits(inst, chi):
    """Ground-unit bits chosen by the dual evaluation, read off the
    minimum-bits residual."""
    _, g = dual_point_eval(inst, chi)
    bl, bu, _ = _split_bits(inst, chi)
    return (inst.min_bits - bl - bu - g[..., 0])[0, 0]


def test_bits_rsu_rule_cases():
    # margin = chi_uplink + chi_relay + xi * chi_down_rsu - chi_min_bits
    inst = make_synthetic_instance(min_bits=5e5)
    positive = np.array([[[1e-7, 1.0, 1e-7, 1e-7, 0.0, 1e-7]]])
    assert _ground_bits(inst, positive) == 0.0
    # zero margin: indeterminate, the ground unit takes the shortfall
    balanced = positive.copy()
    balanced[..., 0] = 2.8e-7
    shortfall = 5e5 - _local_bits(2.8e-7)
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
        closed, _ = phase1_closed_form(phi, int(n_tx), int(n_rx), "rank1", weight,
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


def _bisected_rate_power(gains, weight, price, bandwidth, pmax):
    """Reference root of price * r'(p) = weight: 200 halvings of [0, p_max],
    with power_opt's clamps."""
    shape = np.broadcast_shapes(gains.shape[:-1], np.shape(weight), np.shape(price))
    lo, hi = np.zeros(shape), np.full(shape, pmax)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = price * rate_derivative(gains, bandwidth, mid) > weight
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    p = np.where(price * rate_derivative(gains, bandwidth, np.zeros(shape)) <= weight,
                 0.0, 0.5 * (lo + hi))
    return np.where(price * rate_derivative(gains, bandwidth, np.full(shape, pmax)) >= weight,
                    pmax, p)


def _power_opt_matches(gains, weight, price, bandwidth, pmax):
    got = power_opt(gains, weight, price, bandwidth, pmax)
    ref = _bisected_rate_power(gains, weight, price, bandwidth, pmax)
    assert (np.abs(got - ref) <= 1e-12 * pmax).all()
    return (got > 0.0) & (got < pmax)


def test_power_opt_matches_fine_bisection_on_a_spread_spectrum():
    # prices from half the zero-power clamp to twice the full-power clamp
    inst = _root_instance("spread")
    gains, pmax, bw = inst.gains[0], inst.power_max[0], inst.bandwidth
    w = 0.8
    at_zero = w / rate_derivative(gains, bw, np.zeros((1, 1)))
    at_max = w / rate_derivative(gains, bw, np.full((1, 1), pmax))
    price = np.geomspace(0.5 * at_zero, 2.0 * at_max, 300)
    interior = _power_opt_matches(gains, w, price, bw, pmax)
    assert interior.mean() > 0.8


def test_power_opt_matches_fine_bisection_on_random_gains():
    rng = np.random.default_rng(3)
    bw, pmax = 5e6, 3.162
    gains = 10.0 ** rng.uniform(-2, 4, (40, 25, 6))  # six modes a block
    weight = 10.0 ** rng.uniform(-1, 0.3, (40, 1))
    target = rng.uniform(-0.2, 1.2, (40, 25)) * pmax  # clamped below 0 and above pmax
    price = weight / rate_derivative(gains, bw, np.clip(target, 0.0, pmax))
    interior = _power_opt_matches(gains, weight, price, bw, pmax)
    assert 0.5 < interior.mean() < 1.0


def test_power_opt_root_slope_matches_a_central_difference(monkeypatch):
    # the slope power_opt hands its root, price * r''(p) / weight
    needs, root = [], opt._log_root
    monkeypatch.setattr(opt, "_log_root", lambda need, budget, hi: needs.append(need) or root(need, budget, hi))
    rng = np.random.default_rng(4)
    gains = 10.0 ** rng.uniform(-2, 4, (40, 6))
    weight, price = 10.0 ** rng.uniform(-1, 0.3, 40), 10.0 ** rng.uniform(-9, -6, 40)
    power_opt(gains, weight, price, 5e6, 3.162)
    (need,) = needs
    h = 1e-6
    for p in 3.162 * np.geomspace(1e-6, 1.0, 7):
        p = np.full(40, p)
        slope = need(p)[1]
        ref = (need(p * np.exp(h))[0] - need(p * np.exp(-h))[0]) / (2.0 * h * p)
        assert (slope < 0.0).all()
        assert (np.abs(slope - ref) <= 1e-5 * np.abs(ref)).all()


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
    r0 = rate(inst.gains[0], inst.bandwidth, p)[0, 0]
    chi = np.array([[[2e-7, 2e-7 * r0 - p[0, 0], 2e-7, 0.0, 0.0, 0.0]]])
    carry = (5e5 - _local_bits(2e-7)) / r0
    assert 0.0 < carry < inst.subslot
    assert np.isclose(_uplink_time(inst, chi), carry, rtol=1e-9)


def test_phase1_closed_form_cases():
    bandwidth, noise, pmax = 5e6, 1e-16, 3.162
    p, raw = phase1_closed_form(1e-4, 36, 36, "rank1", 1.0, 0.0, bandwidth, noise, pmax)
    assert p == 0.0
    # single-stream upper equals lower
    p_lo, _ = phase1_closed_form(1e-4, 1, 16, "rank1", 1.0, 3e-7, bandwidth, noise, pmax)
    p_up, _ = phase1_closed_form(1e-4, 1, 16, "fullrank", 1.0, 3e-7, bandwidth, noise, pmax)
    assert np.isclose(p_lo, p_up, rtol=1e-12)
    # unclamped linear relation with min(L) = 4
    _, raw_lo = phase1_closed_form(1e-4, 4, 25, "rank1", 1.0, 3e-7, bandwidth, noise, pmax)
    _, raw_up = phase1_closed_form(1e-4, 4, 25, "fullrank", 1.0, 3e-7, bandwidth, noise, pmax)
    assert np.isclose(raw_up, 4 * raw_lo, rtol=1e-12)


def test_remark2_bound_power_ordering():
    rng = np.random.default_rng(6)
    bandwidth, noise, pmax = 5e6, 1e-16, 3.162
    for _ in range(200):
        phi = 10.0 ** rng.uniform(-7, -3)
        price = 10.0 ** rng.uniform(-8, -5)
        n_tx, n_rx = rng.integers(1, 64, 2)
        p_lo, raw_lo = phase1_closed_form(phi, int(n_tx), int(n_rx), "rank1", 1.0,
                                          price, bandwidth, noise, pmax)
        p_up, raw_up = phase1_closed_form(phi, int(n_tx), int(n_rx), "fullrank", 1.0,
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
    r = inst.rate(np.reshape(inst.power_max, (4, 1, 1)))[:, 0, 0]
    assert np.allclose(g_full[0, 0], [5e5, 3 * sub, -sub * r[0], -sub * r[1],
                                      -sub * r[2], -sub * r[3]], rtol=1e-12)
    s = [inst.power_max[ph] * (1.0 if ph == 0 else inst.weight_uav) - r[ph] for ph in range(4)]
    assert np.isclose(value[0, 0], sub * sum(s), rtol=1e-12)


def test_dual_value_never_exceeds_feasible_energy():
    inst = make_synthetic_instance(min_bits=4e5)
    assert opt._at_caps(inst).feasible.all()
    state = ellipsoid_solve(inst, eps=1e-4, max_iterations=50)
    # weak duality against a hand-built feasible allocation
    from uavmec.protocol import Allocation

    alloc = Allocation.zeros(1, 1)
    alloc.bits_local[:] = 2e5
    alloc.bits_rsu[:] = 2e5
    alloc.powers[[0, 1, 3]] = 1.0  # offload, relay, ground-result download
    r = inst.rate(alloc.powers)[:, 0, 0]
    alloc.times[0] = 2e5 / r[0] * 1.0001
    alloc.times[1] = 2e5 / r[1] * 1.0001
    alloc.times[3] = 0.8 * 2e5 / r[3] * 1.0001
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


def _inflated_warm_start(monkeypatch, block, rel):
    """Warm start whose dual value at `block` is raised by `rel` of the total."""
    seed = opt.warm_start

    def inflated(inst, caps):
        chi, value, powers = seed(inst, caps)
        value = value.copy()
        value[block] += rel * value.sum()
        return chi, value, powers

    monkeypatch.setattr(opt, "warm_start", inflated)


def _scaled_warm_start(monkeypatch, f):
    """Warm start whose multipliers are scaled by f, with their own dual
    value and no powers, so the first completion solves its own roots."""
    seed = opt.warm_start

    def scaled(inst, caps):
        chi = f * seed(inst, caps)[0]
        return chi, opt.dual_point_eval(inst, chi)[0], None

    monkeypatch.setattr(opt, "warm_start", scaled)


@pytest.mark.parametrize("f", [0.5, 1.1])
def test_perturbed_warm_start_certifies_after_an_improvement(f, monkeypatch):
    # a warm start off the optimum leaves the ellipsoid to close the gap: the
    # certificate comes from a completion at improved multipliers, and the
    # recovered schedule matches the unperturbed solve's to the tolerance
    inst = make_synthetic_instance(n_vehicles=2, n_slots=2)
    eps = 1e-4
    base = opt.algorithm1(inst, eps)
    _scaled_warm_start(monkeypatch, f)
    calls, states, finish = {}, [], opt.finish_from_duals
    _count_calls(monkeypatch, calls, "blended_completion")
    monkeypatch.setattr(opt, "finish_from_duals", lambda inst, state: states.append(state) or finish(inst, state))
    report = opt.algorithm1(inst, eps, max_iterations=400)
    (state,) = states
    assert state.converged and state.iterations > 0
    # only an improvement certifies past iteration 0, so the gap that
    # certified was set after one
    assert state.log[0]["gap"] >= eps and calls["blended_completion"] > 1
    assert state.log[-1]["gap"] == state.gap < eps
    assert report.feasible and abs(report.wtec - base.wtec) <= 2 * eps * base.wtec


def test_signed_gap_is_kept_below_zero(monkeypatch):
    # a dual bound 1e-13 above the primal is within the tolerance: the gap
    # stays negative instead of being clipped to 0
    inst = make_synthetic_instance(n_vehicles=2, n_slots=3, min_bits=5e5)
    _inflated_warm_start(monkeypatch, (1, 2), 1e-13)
    state = ellipsoid_solve(inst)
    assert state.converged and -2e-13 < state.gap < 0.0
    assert state.log[0]["gap"] == state.gap


def test_signed_gap_reaches_the_solve_report(monkeypatch):
    # the report keeps the sign too: its gap is (wtec - dual) / wtec
    inst = make_synthetic_instance(n_vehicles=2, n_slots=3, min_bits=5e5)
    _inflated_warm_start(monkeypatch, (1, 2), 1e-13)
    report = opt.algorithm1(inst)
    assert report.feasible and -2e-13 < report.gap < 0.0


def test_weak_duality_violation_names_the_worst_block(monkeypatch):
    inst = make_synthetic_instance(n_vehicles=2, n_slots=3, min_bits=5e5)
    _inflated_warm_start(monkeypatch, (1, 2), 1e-9)
    with pytest.raises(WeakDualityViolated, match="vehicle 1, slot 2"):
        ellipsoid_solve(inst)


def _root_instance(spectrum):
    if spectrum == "rank1_stock":
        return build_instance(validate(ScenarioConfig(mode="rank1_bound")))
    # one dominant singular value and 35 small ones on every phase
    g = np.concatenate([[5000.0], np.geomspace(50.0, 1e-3, 35)])
    return dataclasses.replace(make_synthetic_instance(), gains=np.tile(g, (4, 1, 1, 1)))


def _over_prices(f, mu, *grids):
    """f at each (K, N) time price of the grid `mu` (T, K, N), one call per
    price with the matching rows of any further (T, ...) `grids`; each of
    f's results is stacked on a leading grid axis, (T, ...)."""
    return tuple(np.stack(a) for a in zip(*(f(*row) for row in zip(mu, *grids))))


def _root_alone(inst, ph, mu, start=None):
    """Power root of phase `ph` alone (a phase axis of 1) at the time price,
    from phi and phi' at its own cap: (power, dp/dmu)."""
    gains, w, pmax = inst.gains[ph][None], opt._phase_weights(inst)[ph][None], inst.power_max[ph:ph + 1]
    at_cap = opt._phi(gains, w, np.full(w.shape, pmax[0]))
    p, dp = opt._power_from_time_price(gains, w, pmax, at_cap, mu, None if start is None else start[None])[:2]
    return p[0], dp[0]


def _bisected_power(inst, ph, w, mu):
    """Reference root of phi(p) = mu: 200 halvings of [0, p_max], same clamps."""
    pmax = inst.power_max[ph]
    lo, hi = np.zeros_like(mu), np.full_like(mu, pmax)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = opt._phi(inst.gains[ph], w, mid)[0] < mu
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    p = np.where(mu <= 0.0, 0.0, 0.5 * (lo + hi))
    return np.where(opt._phi(inst.gains[ph], w, np.full_like(mu, pmax))[0] <= mu, pmax, p)


@pytest.mark.parametrize("spectrum", ["rank1_stock", "spread"])
def test_power_from_time_price_inverts_phi(spectrum):
    inst = _root_instance(spectrum)
    wv = opt._phase_weights(inst)
    mu_hi = opt._at_caps(inst).ceiling
    # the grid runs along a leading axis: mu[0] = 0, then mu_hi*2**-80 .. 2*mu_hi
    t = np.concatenate([[0.0], np.geomspace(2.0**-80, 2.0, 325)])
    mu = mu_hi * t[:, None, None]
    for ph in range(4):
        pmax, w = inst.power_max[ph], wv[ph]
        p = _over_prices(lambda m: _root_alone(inst, ph, m), mu)[0]
        assert ((p >= 0.0) & (p <= pmax)).all()
        assert (p[0] == 0.0).all()
        phi_max = opt._phi(inst.gains[ph], w, np.full(mu.shape, pmax))[0]
        assert (p[phi_max <= mu] == pmax).all()
        # the log1p terms keep the low bits of p*g_l, so what is left is the
        # cancellation of r/r' against p: phi is resolved to about
        # 8e-16*w*(r/r' + p) = 8e-16*(phi + 2*w*p)
        phi = opt._phi(inst.gains[ph], w, p)[0]
        floor = 8e-16 * (phi + 2.0 * w * p)
        interior = (p > 0.0) & (p < pmax)
        resid = np.abs(phi - mu)
        assert (resid[interior] <= (1e-10 * mu + floor)[interior]).all()
        # the root matches a fine bisection over the whole grid and rises
        # with the price from mu_hi*2**-60 up
        ref = _bisected_power(inst, ph, w, mu)
        assert (np.abs(p - ref) <= 1e-12 * pmax).all()
        assert (np.diff(p[t >= 2.0**-60], axis=0) >= 0.0).all()
        # phi is resolved to 1e-10*mu over at least the top 40 octaves
        resolved = floor <= 1e-10 * mu
        assert resolved[t >= 2.0**-40].all()


@pytest.mark.parametrize("spectrum", ["rank1_stock", "spread"])
def test_power_from_time_price_evaluates_phi_a_few_times(spectrum, monkeypatch):
    # a plain Newton step on phi from p_max took 61 evaluations (its cap) at
    # mu_hi*2**-60 and mu_hi*2**-80, and 40-47 at mu_hi*2**-40
    inst = _root_instance(spectrum)
    mu_hi = opt._at_caps(inst).ceiling
    calls = []
    phi = opt._phi
    monkeypatch.setattr(opt, "_phi", lambda *args: calls.append(1) or phi(*args))
    t = np.geomspace(2.0**-60, 2.0, 245)
    for ph in range(4):
        for mu in mu_hi * t[:, None, None]:
            calls.clear()
            _root_alone(inst, ph, mu)
            assert len(calls) <= 8
        calls.clear()
        _root_alone(inst, ph, mu_hi * 2.0**-80)
        assert len(calls) <= 25


@pytest.mark.parametrize("caps", [(0.5, 3.0), (3.0, 0.5)])
def test_download_phases_share_one_power_root(caps):
    # unequal download caps: one root at the larger cap, clamped at each
    cfg = ScenarioConfig(power_max_down_uav=caps[0], power_max_down_rsu=caps[1])
    inst = build_instance(validate(cfg))
    facts = opt._at_caps(inst)
    wv = opt._phase_weights(inst)
    mu_hi = facts.ceiling
    # the solver's time prices lie above mu_hi*2**-20, where both Newton runs
    # converge to the same root
    mu = mu_hi * np.concatenate([[0.0], np.geomspace(2.0**-20, 2.0, 200)])[:, None, None]
    powers = _over_prices(lambda m: opt._phase_powers(inst, facts, m), mu)[0]
    for ph in range(4):
        alone = _over_prices(lambda m: _root_alone(inst, ph, m), mu)[0]
        assert (np.abs(powers[:, ph] - alone) <= 1e-14 * alone).all()
        pmax = inst.power_max[ph]
        assert (alone == pmax).any() and ((alone > 0.0) & (alone < pmax)).any()
    # lower down each stops inside phi's rounding floor, and both still
    # match a fine bisection
    low = mu_hi * np.geomspace(2.0**-80, 2.0**-20, 40)[:, None, None]
    powers = _over_prices(lambda m: opt._phase_powers(inst, facts, m), low)[0]
    for ph, p in enumerate(np.moveaxis(powers, 1, 0)):
        ref = _bisected_power(inst, ph, wv[ph], low)
        assert (np.abs(p - ref) <= 1e-12 * inst.power_max[ph]).all()


def _stacked_cases(stock_points):
    """(instance, time prices, start prices), each price grid (T, K, N), on
    which the stacked power root is checked, the start prices None for roots
    from p_max: the spectrum fixtures over a grid from -mu_hi to 4*mu_hi, so
    mu <= 0 and mu above phi(p_max) too; the stock rank-1 slots with dead
    (zero-gain) relay rows; a 1 mW relay cap that clamps from the first step
    while the other roots iterate; and stock points started from the powers
    at the warm start's time price, where the roots stop after different
    steps."""
    t = np.concatenate([[-1.0, 0.0], np.geomspace(2.0**-80, 4.0, 120)])[:, None, None]
    cases = []
    for spectrum in ("rank1_stock", "spread"):
        inst = _root_instance(spectrum)
        mu = opt._at_caps(inst).ceiling * t
        cases += [(inst, mu, None), (inst, mu, 1.25 * mu)]
    inst = _root_instance("rank1_stock")
    gains = inst.gains.copy()
    gains[opt.PHASE_RELAY, :, ::7] = 0.0
    dead = dataclasses.replace(inst, gains=gains)
    cases.append((dead, opt._at_caps(dead).ceiling * t[2::5], None))
    weak = weak_relay_instance(WEAK_RELAY_GAINS[0])
    cases.append((weak, opt._at_caps(weak).ceiling * np.geomspace(1e-3, 0.5, 30)[:, None, None], None))
    for task_bits in (1e5, 5e5):
        inst = stock_points[task_bits]
        mu = warm_start(inst, opt._at_caps(inst))[0][..., opt.D_SUBSLOT]
        cases.append((inst, np.stack([f * mu for f in (0.1, 0.5, 2.0)]), np.stack([mu] * 3)))
    return cases


def _stacked_roots(inst, mu, start_mu):
    """Cap facts, the starts and the stacked power root's results at each
    price of the grid `mu`, from p_max or from the root at the matching price
    of `start_mu`: the starts (None from p_max) and each result (T, 3, K, N)."""
    caps = opt._at_caps(inst)
    args = (caps.root_gains, caps.root_weights, caps.root_caps, caps.phi)
    if start_mu is None:
        return caps, None, _over_prices(lambda m: opt._power_from_time_price(*args, m), mu)
    start = _over_prices(lambda m: opt._power_from_time_price(*args, m), start_mu)[0]
    return caps, start, _over_prices(lambda m, s: opt._power_from_time_price(*args, m, s), mu, start)


def test_stacked_power_root_matches_each_phase_alone(stock_points):
    # one Newton loop over the three roots gives the bits of three loops of
    # their own, from p_max and from a start, also where a root stops first
    clamped = []
    for inst, mu, start_mu in _stacked_cases(stock_points):
        caps, start, (p, dp, *_) = _stacked_roots(inst, mu, start_mu)
        for row, ph in enumerate(caps.roots):
            starts = [] if start is None else [start[:, row]]
            alone = _over_prices(lambda m, *s: _root_alone(inst, ph, m, *s), mu, *starts)
            assert np.array_equal(p[:, row], alone[0]) and np.array_equal(dp[:, row], alone[1])
        clamped.append(p == np.reshape(caps.root_caps, (3, 1, 1)))
    # the weak relay clamps everywhere while the uplink root iterates
    assert clamped[5][:, 1].all() and not clamped[5][:, 0].any()


def test_power_root_returns_the_iterate_it_evaluated(stock_points):
    # dp/dmu and the sums come from the last phi call, so they belong to the
    # returned power bit for bit: a root whose last Newton step is at most
    # 1e-14 stops on the iterate it evaluated instead of taking that step
    for inst, mu, start_mu in _stacked_cases(stock_points):
        caps, _, (p, dp, *sums) = _stacked_roots(inst, mu, start_mu)
        phi, slope, *at_p = opt._phi(caps.root_gains, caps.root_weights, p)
        interior = (p > 0.0) & (p < np.reshape(caps.root_caps, (3, 1, 1)))
        assert interior.any()
        assert np.array_equal(dp[interior], 1.0 / slope[interior])
        assert all(np.array_equal(a[interior], b[interior]) for a, b in zip(sums, at_p))


def _rate_cases():
    """(name, instance) pairs on which `_phase_powers`' rates are checked."""
    stock = build_instance(validate(ScenarioConfig()))
    gains = stock.gains.copy()
    gains[opt.PHASE_RELAY, :, ::7] = 0.0
    return [("stock", stock),
            ("unequal download caps", build_instance(validate(ScenarioConfig(power_max_down_uav=0.5,
                                                                             power_max_down_rsu=3.0)))),
            ("dead relay rows", dataclasses.replace(stock, gains=gains)),
            ("dead links", make_synthetic_instance(n_slots=2, gain=0.0))]


@pytest.mark.parametrize("name, inst", _rate_cases())
def test_phase_powers_rates_match_the_rate_at_their_powers(name, inst):
    # an interior power's rate and r' are B/ln2 times the root's sums, a
    # capped one's come from the cap facts and a zero one's rate is 0: all
    # within 4*L ulp of `rate` and `rate_derivative` at the returned powers.
    # `rate` takes log1p too, so the two agree down to the smallest powers:
    # the grid spans mu <= 0, prices from mu_hi*2**-80 up and prices where
    # every power clamps
    caps = opt._at_caps(inst)
    t = np.concatenate([[-1.0, 0.0], np.geomspace(2.0**-80, 4.0, 120)])[:, None, None]
    mu = np.where(caps.ceiling > 0.0, caps.ceiling, 1e-3) * t
    powers, rates, _, r_prime = _over_prices(lambda m: opt._phase_powers(inst, caps, m), mu)
    for ph in range(4):
        ulp = 4 * inst.gains[ph].shape[-1]
        p = powers[:, ph]
        for got, want in ((rates[:, ph], rate(inst.gains[ph], inst.bandwidth, p)),
                          (r_prime[:, ph], rate_derivative(inst.gains[ph], inst.bandwidth, p))):
            assert (np.abs(got - want) <= ulp * np.spacing(np.abs(want))).all()
    # a zero power carries exactly nothing; a dead root clamps at its cap at
    # mu = 0, so only the live fixtures have zero powers at every mu <= 0
    assert (rates[powers == 0.0] == 0.0).all()
    pmax = np.reshape(inst.power_max, (4, 1, 1))
    interior, capped = (powers > 0.0) & (powers < pmax), powers == pmax
    if name in ("stock", "unequal download caps"):
        assert (powers[t[:, 0, 0] <= 0.0] == 0.0).all()
    if name == "unequal download caps":
        # the smaller download cap clamps where the shared root is interior
        assert (capped[:, opt.PHASE_DOWN_UAV] & interior[:, opt.PHASE_DOWN_RSU]).any()
    elif name != "dead links":
        assert interior.any() and capped.any()


def test_power_root_from_p_max_evaluates_no_phi_there(monkeypatch):
    # a root that starts at p_max reads phi and phi' there from the cap pass:
    # one phi call fewer than a root given p_max as its start, the same bits,
    # and none at all where every power clamps at once
    inst = weak_relay_instance(WEAK_RELAY_GAINS[0])
    caps = opt._at_caps(inst)
    calls = []
    phi = opt._phi
    monkeypatch.setattr(opt, "_phi", lambda *args: calls.append(1) or phi(*args))
    args = (caps.root_gains, caps.root_weights, caps.root_caps, caps.phi)
    at_max = np.broadcast_to(caps.root_caps[:, None, None], caps.phi[0].shape)
    for t in (0.01, 0.1, 0.5):
        calls.clear()
        started = opt._power_from_time_price(*args, caps.ceiling * t, at_max)
        n_started = len(calls)
        calls.clear()
        read = opt._power_from_time_price(*args, caps.ceiling * t)
        assert len(calls) == n_started - 1 > 0
        assert all(np.array_equal(a, b) for a, b in zip(started, read))
    calls.clear()
    p = opt._phase_powers(inst, caps, 2.0 * caps.ceiling)[0]
    assert not calls and (p == inst.power_max[:, None, None]).all()


# Rank-1 gains of stock slots 24, 30 and 39 with a 1 mW relay cap: the relay
# is too weak to carry the bits past the CPU caps at the ground-route price.
WEAK_RELAY_GAINS = (
    [334.8, 237.9, 334.8, 334.8],
    [230.8, 161.1, 230.8, 230.8],
    [146.3, 100.4, 146.3, 146.3],
)
STOCK_CAP = 10 ** 3.5 / 1000.0


def weak_relay_instance(gain):
    caps = [STOCK_CAP, 1e-3, STOCK_CAP, STOCK_CAP]
    return make_synthetic_instance(gain=gain, power_max=caps, min_bits=2e5)


@pytest.mark.parametrize("gain", WEAK_RELAY_GAINS)
def test_weak_relay_block_certifies_at_warm_start(gain):
    inst = weak_relay_instance(gain)
    state = ellipsoid_solve(inst, eps=1e-4, max_iterations=5)
    assert state.converged
    assert state.log[0]["gap"] <= 1e-4
    report = opt.algorithm1(inst)
    assert report.feasible and not report.violations


def test_warm_start_need_falls_with_time_price():
    inst = weak_relay_instance(WEAK_RELAY_GAINS[1])
    caps = opt._at_caps(inst)
    ceiling = float(caps.ceiling[0, 0])
    need = [float(opt._candidate(inst, caps, np.full((1, 1), mu))[1][0, 0])
            for mu in np.geomspace(ceiling * 1e-8, ceiling, 400)]
    assert all(b <= a for a, b in zip(need, need[1:]))


# ----------------------------------------------------------- time-price root

ROOT_TASK_BITS = (1e5, 3e5, 5e5, 7e5, 9e5)


@pytest.fixture(scope="module")
def stock_points():
    return {tb: build_instance(validate(ScenarioConfig(task_bits=tb))) for tb in ROOT_TASK_BITS}


def _bisected_time_price(need, budget, mu_hi):
    """Reference root: 200 halvings of [0, mu_hi], keeping need <= budget."""
    lo, hi = np.zeros_like(mu_hi), mu_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        over = need(mid)[0] > budget
        lo, hi = np.where(over, mid, lo), np.where(over, hi, mid)
    return hi


def _count_calls(monkeypatch, calls, *names):
    """Count calls of the named optimizer functions into `calls`."""
    for name in names:
        inner = getattr(opt, name)

        def wrapper(*args, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(*args)

        calls[name] = 0
        monkeypatch.setattr(opt, name, wrapper)


def _times_at_price(inst, bits, mu):
    """Reference carry times (4, K, N) and block energy of `bits` at the time
    price, each phase's power inverted on its own from p_max."""
    bl, bu, br = bits
    loads = phase_loads(inst, bu, br)
    powers = np.stack([np.where(loads[ph] > 0.0, _root_alone(inst, ph, mu)[0], 0.0) for ph in range(4)])
    times = carry_time(loads, inst.rate(powers))
    return times, block_energy(inst, bl, bu, powers, times)


def _warm_start_need(inst):
    """The warm start's sub-slot need at the time price and its slope."""
    caps = opt._at_caps(inst)
    return lambda mu: opt._candidate(inst, caps, mu)[1:3]


def _carry_need(inst, bits):
    """Sum of the four carry times of `bits` at the time price with its slope
    in the price, and the sub-slot left after UAV compute: what
    `complete_primal` balances."""
    bl, bu, br = bits
    xi = inst.output_ratio[:, None]
    loads = [bu + br, br, xi * bu, xi * br]
    uc = inst.uav_compute

    def need(mu):
        roots = [_root_alone(inst, ph, mu) for ph in range(4)]
        rates = inst.rate(np.stack([p for p, _ in roots]))
        with np.errstate(divide="ignore", invalid="ignore"):  # inf on a dead link
            slope = sum(np.where(loads[ph] > 0.0,
                                 -loads[ph] * rate_derivative(inst.gains[ph], inst.bandwidth, p) * dp / rates[ph]**2, 0.0)
                        for ph, (p, dp) in enumerate(roots))
        return sum(carry_time(loads[ph], rates[ph]) for ph in range(4)), slope

    return need, inst.subslot - uc.cycles_per_bit * bu / uc.cpu_freq


def _candidate_over(inst, caps, mu):
    """`_candidate`'s results at each price of the grid `mu` (T, K, N)."""
    return _over_prices(lambda m: opt._candidate(inst, caps, m), mu)


def _split_bits(inst, chi):
    terms = opt._split_terms(inst, chi[..., opt.D_SUBSLOT], chi[..., opt.D_UPLINK],
                             chi[..., opt.D_DOWN_UAV])
    bl, bu = opt._split(terms, chi[..., opt.D_MIN_BITS])
    return bl, bu, np.maximum(inst.min_bits - bl - bu, 0.0)


@pytest.mark.parametrize("task_bits", ROOT_TASK_BITS)
def test_warm_start_time_price_matches_fine_bisection(stock_points, task_bits):
    inst = stock_points[task_bits]
    caps = opt._at_caps(inst)
    mu = warm_start(inst, caps)[0][..., 1]
    ref = _bisected_time_price(_warm_start_need(inst), inst.subslot, caps.ceiling)
    assert (ref > 0.0).all()
    assert (np.abs(mu - ref) <= 1e-9 * ref).all()
    assert (opt._candidate(inst, caps, mu)[1] <= inst.subslot * (1.0 + 1e-12)).all()


@pytest.mark.parametrize("task_bits", ROOT_TASK_BITS)
def test_complete_primal_time_price_matches_fine_bisection(stock_points, task_bits, monkeypatch):
    inst = stock_points[task_bits]
    caps = opt._at_caps(inst)
    bits = _split_bits(inst, warm_start(inst, caps)[0])
    root, roots = opt._log_root, []

    def recording(need, budget, mu_hi):
        out = root(need, budget, mu_hi)
        roots.append(out)
        return out

    monkeypatch.setattr(opt, "_log_root", recording)
    # a zero candidate price carries nothing, so every loaded block takes the root
    powers, times, _, infeasible = opt.complete_primal(inst, caps, bits, np.zeros(inst.min_bits.shape))
    need, budget = _carry_need(inst, bits)
    ref = _bisected_time_price(need, budget, caps.ceiling)
    (mu,) = roots
    assert not infeasible.any()
    assert (np.abs(mu - ref) <= 1e-9 * ref).all()
    assert (times.sum(axis=0) <= budget * (1.0 + 1e-12)).all()
    assert np.array_equal(times.sum(axis=0), need(mu)[0])


@pytest.mark.parametrize("task_bits", ROOT_TASK_BITS)
def test_completion_at_the_warm_start_reuses_its_time_price(stock_points, task_bits, monkeypatch):
    inst = stock_points[task_bits]
    caps = opt._at_caps(inst)
    chi, _, kept = warm_start(inst, caps)
    bits = _split_bits(inst, chi)
    mu = chi[..., opt.D_SUBSLOT]
    calls = {}
    _count_calls(monkeypatch, calls, "_power_from_time_price", "_log_root")
    # handed the warm start's powers and rates, it solves no power root and
    # no time-price root
    completed = opt.complete_primal(inst, caps, bits, mu, kept)
    assert calls == {"_power_from_time_price": 0, "_log_root": 0}
    # without them, one stacked root from p_max solves the same powers up to
    # where each root stopped (the warm start's started on its tangent):
    # 1.03e-14, 8.9e-15 and 5.7e-15 relative at most over the 9 trend points
    got = opt.complete_primal(inst, caps, bits, mu)
    assert all((np.abs(a - b) <= 1e-13 * b).all() for a, b in zip(got[:3], completed[:3]))
    assert np.array_equal(got[3], completed[3])
    assert calls == {"_power_from_time_price": 1, "_log_root": 0}
    _, times, energy, infeasible = completed
    need, budget = _carry_need(inst, bits)
    mu = _bisected_time_price(need, budget, caps.ceiling)
    ref_times, ref_energy = _times_at_price(inst, bits, mu)
    assert not infeasible.any()
    assert (np.abs(times - ref_times) <= 1e-12 * ref_times).all()
    assert (np.abs(energy - ref_energy) <= 1e-12 * ref_energy).all()


def test_time_price_root_edges():
    # one block each: no load, a fitting load, a load no price can fit
    inst = make_synthetic_instance(n_slots=3)
    inst.min_bits[:] = [[0.0, 5e5, 1e9]]
    caps = opt._at_caps(inst)
    mu_hi = caps.ceiling
    need = _warm_start_need(inst)
    mu = opt._log_root(need, inst.subslot, mu_hi)
    assert mu[0, 0] == mu_hi[0, 0] * 2.0**-80
    assert mu_hi[0, 1] * 2.0**-80 < mu[0, 1] < mu_hi[0, 1]
    assert need(mu)[0][0, 1] <= inst.subslot
    assert mu[0, 2] == mu_hi[0, 2] and need(mu_hi)[0][0, 2] > inst.subslot
    # the same answers through the completion: no load carries nothing, and
    # only the overloaded block is infeasible
    bits = (np.zeros((1, 3)), np.zeros((1, 3)), inst.min_bits.copy())
    powers, times, energy, infeasible = opt.complete_primal(inst, caps, bits, np.zeros((1, 3)))
    assert (powers[:, 0, 0] == 0.0).all() and (times[:, 0, 0] == 0.0).all()
    assert infeasible.tolist() == [[False, False, True]]


def test_time_price_root_bounds_its_steps_down_until_the_low_end_closes():
    # need = budget * (root/x)**3, whose slope at hi reads 30x too shallow,
    # as at the ceiling where every power is clamped: a full Newton step from
    # hi lands 30 halvings below a root 1 halving down.  Until an evaluation
    # lands below the root, each one lies at most 16 halvings below the last,
    # and a root 70 halvings down is still reached inside the 100 steps
    budget, hi = 2.0, np.ones(2)
    root, xs = hi * 2.0 ** -np.array([1.0, 70.0]), []

    def need(x):
        value = budget * (root / x) ** 3
        return value, -value / x * np.where(x >= hi, 0.1, 3.0)

    x = opt._log_root(lambda x: xs.append(x) or need(x), budget, hi)
    assert len(xs) <= 100  # a stopping rule ended the search
    closed = np.zeros(2, dtype=bool)
    for before, after in zip(xs, xs[1:]):
        closed |= need(before)[0] > budget
        assert (closed | (after >= before * 2.0**-16 * (1.0 - 1e-12))).all()
    assert closed.all()
    assert (need(x)[0] <= budget).all()
    assert (np.abs(np.log(x / root)) <= 1e-13).all()


def test_time_price_root_dead_links_give_zero():
    inst = make_synthetic_instance(gain=0.0)
    caps = opt._at_caps(inst)
    mu_hi = caps.ceiling
    assert (mu_hi == 0.0).all()
    bits = (np.zeros((1, 1)), np.zeros((1, 1)), inst.min_bits.copy())
    need, budget = _carry_need(inst, bits)
    mu = opt._log_root(need, budget, mu_hi)
    assert (mu == 0.0).all() and np.isinf(need(mu)[0]).all()
    assert opt.complete_primal(inst, caps, bits, np.zeros((1, 1)))[3].all()


def test_time_price_searches_evaluate_need_at_most_7_times(stock_points, monkeypatch):
    # 6 measured at task_bits 1e5 and 3e5 and 7 at 5e5-9e5, with the root's
    # steps bounded to 16 halvings down while its low end is open (7 at
    # 3e5 without the bound): the kept price's dual point and powers are its
    # last root evaluation's.  7-8 when one more call solved the kept price
    # from p_max; 13-14 with an Illinois root over [ceiling * 2**-80, ceiling]
    calls = {}
    _count_calls(monkeypatch, calls, "_candidate", "_power_from_time_price")
    for inst in stock_points.values():
        caps = opt._at_caps(inst)
        calls.update(_candidate=0, _power_from_time_price=0)
        chi, _, kept = warm_start(inst, caps)
        assert calls["_candidate"] <= 7
        # at the warm start's time price the completion reads the warm
        # start's powers and rates and inverts none
        calls["_power_from_time_price"] = 0
        opt.complete_primal(inst, caps, _split_bits(inst, chi), chi[..., opt.D_SUBSLOT], kept)
        assert calls["_power_from_time_price"] == 0


@pytest.mark.parametrize("task_bits", [1e5, 5e5, 9e5])
def test_stock_solve_makes_no_rate_pass(stock_points, task_bits, monkeypatch):
    # every rate and r' the solver picks comes from phi's sums: the cap pass,
    # the power roots, and the warm start's kept price, whose rates its dual
    # value and its completion read.  4 `ProblemInstance.rate` calls when
    # the warm start's dual value took its rates again
    calls = []
    monkeypatch.setattr(instance, "rate", lambda *args, _inner=instance.rate: calls.append("rate") or _inner(*args))
    assert ellipsoid_solve(stock_points[task_bits]).iterations == 0
    assert calls == []


@pytest.mark.parametrize("case", ["stock", "unequal download caps", "dead links"])
def test_cap_pass_rates_and_slopes_are_rate_and_rate_derivative(case):
    # the cap pass reads the four rates and r' at the caps, and r' at 0, from
    # one phi call: bit for bit `rate` and `rate_derivative` there.  On a dead
    # link r' is exactly 0 (phi floors its sum of q only where it divides)
    if case == "dead links":
        inst = make_synthetic_instance(gain=0.0)
    else:
        caps = (0.5, 3.0) if case == "unequal download caps" else (STOCK_CAP, STOCK_CAP)
        inst = build_instance(validate(ScenarioConfig(power_max_down_uav=caps[0], power_max_down_rsu=caps[1])))
    facts = opt._at_caps(inst)
    for ph in range(4):
        gains, at_cap = inst.gains[ph], np.full(inst.min_bits.shape, inst.power_max[ph])
        assert np.array_equal(facts.rates[ph], rate(gains, inst.bandwidth, at_cap))
        assert np.array_equal(facts.slopes[0, ph], rate_derivative(gains, inst.bandwidth, np.zeros(at_cap.shape)))
        assert np.array_equal(facts.slopes[1, ph], rate_derivative(gains, inst.bandwidth, at_cap))
    if case == "dead links":
        assert (facts.slopes == 0.0).all() and (facts.rates == 0.0).all()


def test_warm_start_power_roots_confirm_an_unchanged_price_in_one_phi_call(stock_points, monkeypatch):
    # evaluated again at the price it last took, the warm start's need starts
    # each power root on that evaluation's powers (a zero tangent step): one
    # phi call confirms them, and the need and its slope keep their bits.
    # Also after the doubling, where the second root holds the other blocks
    # at price 0
    root, phi, calls, roots = opt._log_root, opt._phi, [], []

    def again(need, budget, hi):
        mu = root(need, budget, hi)
        first = need(mu)
        calls.clear()
        # (the slope is nan on the blocks held at price 0)
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(need(mu), first)) and len(calls) == 1
        roots.append(mu)
        return mu

    monkeypatch.setattr(opt, "_log_root", again)
    monkeypatch.setattr(opt, "_phi", lambda *args: calls.append(1) or phi(*args))
    for inst in [*stock_points.values(), build_instance(load_scenario(UNCERTIFIED_4_VEHICLES))]:
        warm_start(inst, opt._at_caps(inst))
    assert len(roots) == len(stock_points) + 2


def test_stock_solve_evaluates_phi_in_at_most_24_calls_on_72_phase_rows(stock_points, monkeypatch):
    # 22 stacked calls on 67 phase rows measured, with and without the time
    # price root's bound on its steps down: the cap pass on the four phases
    # and 21 calls on the three power roots (66 rows when the cap pass took
    # the three roots alone).  32 on 96 when the kept price was
    # solved again from p_max and each root started on the previous powers,
    # not on their tangent; one root per phase took 119 single-phase calls, 120
    # when the completion solved the warm start's powers again and the roots
    # from p_max evaluated phi there; 215 with an Illinois time-price root,
    # 1,188 with a plain Newton step on a log(1 + p*g_l) phi and one root per
    # download phase
    rows = []
    phi = opt._phi
    monkeypatch.setattr(opt, "_phi", lambda gains, *args: rows.append(len(gains)) or phi(gains, *args))
    cfg = validate(ScenarioConfig(task_bits=5e5))
    state = ellipsoid_solve(stock_points[5e5], eps=cfg.epsilon, max_iterations=cfg.max_iterations)
    assert state.converged
    assert rows[0] == 4 and set(rows[1:]) == {3}
    assert len(rows) <= 24 and sum(rows) <= 72


def test_stock_trend_evaluates_phi_in_at_most_182_calls(monkeypatch):
    # the 9 stock task_bits points: 17 stacked calls at 1e5-3e5, 21 at 4e5
    # and 22 at 5e5-9e5, and 60 `_candidate` calls, 6 or 7 a point, measured
    # with the time price root's steps bounded to 16 halvings down while its
    # low end is open.  221 calls (22-32 a point) and 62 candidates without
    # the bound, whose first step from the ceiling, where every power is
    # clamped, fell 25 e-folds below the root at 5e5
    calls = {}
    _count_calls(monkeypatch, calls, "_candidate", "_phi")
    for task_bits in range(100_000, 900_001, 100_000):
        cfg = validate(ScenarioConfig(task_bits=float(task_bits)))
        state = ellipsoid_solve(build_instance(cfg), eps=cfg.epsilon, max_iterations=cfg.max_iterations)
        assert state.converged and state.iterations == 0
    assert calls["_phi"] <= 182 and calls["_candidate"] <= 60


def test_stock_warm_start_one_percent_short_certifies_within_the_cap(stock_points, monkeypatch):
    # multipliers 1 % short of the warm start's leave the ellipsoid to close
    # the gap: its cuts evaluate `power_opt`'s roots, and each completion the
    # carry root, both `_log_root`s.  199 iterations measured, with and
    # without that root's bound on its steps down; the stock cap is 200
    cfg = validate(ScenarioConfig(task_bits=5e5))
    _scaled_warm_start(monkeypatch, 0.99)
    state = ellipsoid_solve(stock_points[5e5], eps=cfg.epsilon, max_iterations=cfg.max_iterations)
    assert state.converged and 0 < state.iterations <= cfg.max_iterations


def _bisected_min_bits_price(inst, mu):
    """Reference minimum-bits price: the lowest price in [0, route] whose
    closed-form split carries the minimum bits, by 300 halvings (0 where the
    split carries them at price 0), or the ground-route price where even that
    price falls short.  Also returns the route price and the split's terms."""
    chi = _candidate_over(inst, opt._at_caps(inst), mu)[0]
    route = chi[..., opt.D_UPLINK] + chi[..., opt.D_RELAY] + inst.output_ratio[:, None] * chi[..., opt.D_DOWN_RSU]
    terms = opt._split_terms(inst, mu, chi[..., opt.D_UPLINK], chi[..., opt.D_DOWN_UAV])

    def short(chi1):
        return sum(opt._split(terms, chi1)) < inst.min_bits

    lo, hi = np.zeros_like(route), route
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        below = short(mid)
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    ref = np.where(short(route), route, np.where(short(np.zeros_like(route)), hi, 0.0))
    return ref, route, terms


# One synthetic slot per piece of the closed-form minimum-bits price (K = 1:
# CPU caps of 2e5 local and 6e5 UAV bits): no bits, local bits alone, both
# interior, bits exactly at the local cap, the UAV capped first, the local
# cap first, both caps exactly, and more than both caps carry.  A weak relay
# lets the UAV route undercut the ground route, and a light UAV weight lets
# it reach its cap before the local one.
PIECE_BITS = (0.0, 5e4, 2e5, 3e5, 7e5, 8e5, 1e6)


def _piece_instance():
    inst = make_synthetic_instance(n_slots=len(PIECE_BITS), gain=[5000.0, 1e-2, 5000.0, 5000.0],
                                   weight_uav=0.01)
    inst.min_bits[:] = PIECE_BITS
    return inst


def _price_pieces(inst, chi1, route, terms):
    """Blocks of each piece of the closed-form minimum-bits price."""
    a, cap_l, b, c0, cap_u = terms
    m = inst.min_bits
    below = (m > 0.0) & (chi1 < route)
    local_capped = chi1 >= (cap_l / a) ** 2
    uav_on, uav_capped = chi1 > c0, chi1 >= c0 + (cap_u / b) ** 2
    return {
        "no bits": m == 0.0,
        "local only": below & ~uav_on & ~local_capped,
        "both interior": below & uav_on & ~local_capped & ~uav_capped,
        "bits at the local cap": below & (m == cap_l),
        "UAV capped": below & uav_capped & ~local_capped,
        "local capped": below & local_capped & uav_on & ~uav_capped,
        "both capped": below & local_capped & uav_capped,
        "route price": m > cap_l + cap_u,
    }


@pytest.mark.parametrize("task_bits", [*ROOT_TASK_BITS, "pieces"])
def test_min_bits_price_matches_fine_bisection(stock_points, task_bits):
    if task_bits == "pieces":
        # past the power-cap ceiling too, where a raised warm start looks
        inst = _piece_instance()
        grid = np.geomspace(1e-8, 1e3, 45)
    else:
        inst = stock_points[task_bits]
        # the grid runs along a leading axis, from ceiling * 1e-8 to the ceiling
        grid = np.geomspace(1e-8, 1.0, 40)
    caps = opt._at_caps(inst)
    mu = caps.ceiling * grid[:, None, None]
    chi1 = _candidate_over(inst, caps, mu)[0][..., opt.D_MIN_BITS]
    ref, route, terms = _bisected_min_bits_price(inst, mu)
    assert (np.abs(chi1 - ref) <= 1e-12 * ref).all()
    # under the route price the split at chi1 carries the minimum bits
    carried = sum(opt._split(terms, chi1)) >= inst.min_bits
    assert carried[chi1 < route].all()
    if task_bits == 1e5:
        # below the CPU caps the split meets the bits under the route price
        # on most blocks near the ceiling
        assert (chi1 < route).mean(axis=(1, 2)).max() >= 0.5
    if task_bits == "pieces":
        pieces = _price_pieces(inst, chi1, route, terms)
        assert [name for name, blocks in pieces.items() if not blocks.any()] == []


def _min_bits_price_by_select(terms, min_bits, d_c0):
    """Reference: `_min_bits_price` with broadcast knees and `np.select` over
    the pieces, in the precedence the solver's nested `np.where` keeps."""
    a, cap_l, b, c0, cap_u = terms
    m = min_bits
    knees = np.stack(np.broadcast_arrays(c0, (cap_l / a) ** 2, c0 + (cap_u / b) ** 2))
    at_c0, at_local_cap, at_uav_cap = sum(opt._split(terms, knees))
    local_capped, uav_capped = m >= at_local_cap, m >= at_uav_cap
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = (m * m + b * b * c0) / (a * m + b * np.sqrt(np.maximum(m * m + (b * b - a * a) * c0, 0.0)))
        pieces = [m > cap_l + cap_u, m <= at_c0, local_capped & uav_capped, local_capped, uav_capped]
        price = np.select(pieces, [np.inf, (m / a) ** 2, knees[1:].max(axis=0), c0 + ((m - cap_l) / b) ** 2,
                                   ((m - cap_u) / a) ** 2], s * s)
        slope = np.select(pieces, [0.0, 0.0, np.where(knees[2] >= knees[1], d_c0, 0.0), d_c0, 0.0],
                          d_c0 * b * b * s / (a * (m - a * s) + b * b * s))
    short = (sum(opt._split(terms, price)) < m) & np.isfinite(price)
    while short.any():
        price = np.where(short, np.nextafter(price, np.inf), price)
        short &= sum(opt._split(terms, price)) < m
    return price, slope


def test_min_bits_price_is_bitwise_the_select_form(monkeypatch):
    # every block of the piece slots, those with bits exactly at a CPU cap
    # included, from 1e-8 to 1e3 times the power-cap ceiling, and the stock
    # trend points at their warm starts and over the price grid below the
    # ceiling
    seen = []
    price_at = opt._min_bits_price
    monkeypatch.setattr(opt, "_min_bits_price", lambda *args: seen.append(args) or price_at(*args))
    inst = _piece_instance()
    caps = opt._at_caps(inst)
    _candidate_over(inst, caps, caps.ceiling * np.geomspace(1e-8, 1e3, 45)[:, None, None])
    for task_bits in np.linspace(1e5, 9e5, 9):
        inst = build_instance(validate(ScenarioConfig(task_bits=task_bits)))
        caps = opt._at_caps(inst)
        warm_start(inst, caps)
        _candidate_over(inst, caps, caps.ceiling * np.geomspace(1e-8, 1.0, 40)[:, None, None])
    assert len(seen) >= 9 * 8
    for args in seen:
        for got, want in zip(price_at(*args), _min_bits_price_by_select(*args)):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _log_difference(f, mu, h=1e-6):
    """d f/dmu by a central difference in log(mu)."""
    return (f(mu * np.exp(h)) - f(mu * np.exp(-h))) / (2.0 * h * mu)


@pytest.mark.parametrize("task_bits", np.linspace(1e5, 9e5, 9))
def test_need_slope_matches_a_central_difference(task_bits):
    # at the warm start's time price, and an e-fold to either side
    inst = build_instance(validate(ScenarioConfig(task_bits=task_bits)))
    caps = opt._at_caps(inst)
    mu = warm_start(inst, caps)[0][..., opt.D_SUBSLOT] * np.exp([-1.0, 0.0, 1.0])[:, None, None]
    slope = _candidate_over(inst, caps, mu)[2]
    ref = _log_difference(lambda m: _candidate_over(inst, caps, m)[1], mu)
    assert (ref[1] < 0.0).all()
    assert (np.abs(slope - ref) <= 1e-5 * np.abs(ref)).all()


def test_need_slope_matches_a_central_difference_on_every_piece():
    # every piece of the minimum-bits price, up to 1e3 times the power-cap
    # ceiling; the grid misses the kinks at 0.01 and 1 times the ceiling, where
    # the download and then the uplink powers reach their caps
    inst = _piece_instance()
    caps = opt._at_caps(inst)
    ceiling = caps.ceiling
    mu = ceiling * np.geomspace(1.1e-8, 1.1e3, 45)[:, None, None]
    chi, need, slope = _candidate_over(inst, caps, mu)[:3]
    ref = _log_difference(lambda m: _candidate_over(inst, caps, m)[1], mu)
    # where the need is flat the difference reads its rounding, about
    # 1e-14*need/h per unit of log(mu)
    assert (np.abs(slope - ref) <= 1e-5 * np.abs(ref) + 1e-7 * need / mu).all()
    route = chi[..., opt.D_UPLINK] + chi[..., opt.D_RELAY] + inst.output_ratio[:, None] * chi[..., opt.D_DOWN_RSU]
    terms = opt._split_terms(inst, mu, chi[..., opt.D_UPLINK], chi[..., opt.D_DOWN_UAV])
    pieces = _price_pieces(inst, chi[..., opt.D_MIN_BITS], route, terms)
    assert [name for name, blocks in pieces.items() if not blocks.any()] == []


def test_need_slope_matches_a_central_difference_past_the_ceiling():
    # the raised time prices of the 4-vehicle reproducer: every power sits at
    # its cap, and the split alone moves the need
    inst = build_instance(load_scenario(UNCERTIFIED_4_VEHICLES))
    caps = opt._at_caps(inst)
    mu = warm_start(inst, caps)[0][..., opt.D_SUBSLOT]
    raised = mu > caps.ceiling
    slope, powers = opt._candidate(inst, caps, mu)[2:4]
    ref = _log_difference(lambda m: opt._candidate(inst, caps, m)[1], mu)
    assert raised[:2].all()
    assert all((p[raised] == pmax).all() for p, pmax in zip(powers, inst.power_max))
    assert (slope[raised] < 0.0).all()
    assert (np.abs(slope - ref) <= 1e-5 * np.abs(ref)).all()


@pytest.mark.parametrize("task_bits", ROOT_TASK_BITS)
def test_rate_prices_rise_at_one_over_the_rate(stock_points, task_bits):
    # the envelope theorem on phi: d(chi_ph)/dmu = 1/r_ph, for interior and
    # clamped powers alike
    inst = stock_points[task_bits]
    caps = opt._at_caps(inst)
    mu = caps.ceiling * np.geomspace(0.01, 2.0, 12)[:, None, None]
    powers = _candidate_over(inst, caps, mu)[3]
    rates = rate(inst.gains, inst.bandwidth, powers)  # (T, 4, K, N)
    for ph in range(4):
        d_chi = _log_difference(lambda m: _candidate_over(inst, caps, m)[0][..., opt._PHASE_RATE_DUAL[ph]], mu)
        assert (np.abs(rates[:, ph] * d_chi - 1.0) <= 1e-6).all()


def test_warm_start_splits_at_most_250_times(stock_points, monkeypatch):
    calls = []
    split = opt._split

    def counted(*args):
        calls.append(1)
        return split(*args)

    monkeypatch.setattr(opt, "_split", counted)
    for inst in [*stock_points.values(), build_instance(validate(ScenarioConfig()))]:
        caps = opt._at_caps(inst)
        calls.clear()
        warm_start(inst, caps)
        assert len(calls) <= 250


# A 4-vehicle scenario that certifies only once the warm start's time price
# rises past the power-cap ceiling: at the ceiling the closed-form split of
# vehicles 0 and 1 cannot be completed in any slot.
UNCERTIFIED_4_VEHICLES = """
[network]
vehicles = 4
weight_vehicle = 1.5, 1.7, 0.71, 0.59
weight_uav = 0.65
[task]
horizon = 0.8 s
task_bits = 744000, 871000, 220000, 486000
output_ratio = 1.35, 0.66, 0.9, 0.086
[geometry]
uav_altitude = 41.3 m
vehicle_elevations = 0.973, 1.219, 1.127, 1.186
[radio]
antennas_uav = 9
power_max_offload = 0.674 W
power_max_relay = 2.32 W
"""


def test_raised_time_price_certifies_at_the_warm_start():
    cfg = load_scenario(UNCERTIFIED_4_VEHICLES)
    inst = build_instance(cfg)
    report = opt.algorithm1(inst, eps=cfg.epsilon, max_iterations=cfg.max_iterations)
    assert report.iterations == 0
    assert report.feasible and abs(report.gap) <= cfg.epsilon
    mu = report.duals[..., opt.D_SUBSLOT]
    raised = mu > opt._at_caps(inst).ceiling
    assert raised[:2].all() and not raised[2:].any()


RANDOM_DRAWS = Path(__file__).parent / "data" / "random_draws.json"


def _random_draws():
    """Solve the 48 draws of the benchmark's random scenarios at seeds 1-4:
    yields each draw's (seed, index), instance, cap facts and its report or
    the InfeasibleAllocation it raised."""
    workloads = load_perfbench("workloads")
    for seed in range(1, 5):
        for index, text in enumerate(workloads.draw_block(np.random.default_rng(seed))):
            cfg = load_scenario(text)
            inst = build_instance(cfg)
            try:
                outcome = opt.algorithm1(inst, eps=cfg.epsilon, max_iterations=cfg.max_iterations)
            except InfeasibleAllocation as err:
                outcome = err
            yield (seed, index), inst, outcome


def _draw_record(draw, outcome):
    """The JSON record of one draw's outcome, wtec at full precision."""
    if isinstance(outcome, InfeasibleAllocation):
        block = [int(i) for i in re.search(r"vehicle (\d+), slot (\d+)", str(outcome)).groups()]
        return {"draw": list(draw), "outcome": "infeasible", "block": block, "message": str(outcome)}
    return {"draw": list(draw), "outcome": "certified", "iterations": outcome.iterations, "wtec": outcome.wtec}


def test_random_draws_certify_or_name_an_infeasible_block():
    # the 48 draws of the benchmark's random scenarios at seeds 1-4: four
    # need a time price above the power-cap ceiling, and the draws (1, 1),
    # (2, 3), (3, 8) and (4, 5) hold blocks no split carries at full power.
    # Each keeps the outcome recorded in tests/data/random_draws.json: the
    # same named block, or a certificate at iteration 0 whose wtec moved by
    # at most 1e-12 relative (rounding only)
    recorded = {tuple(r["draw"]): r for r in json.loads(RANDOM_DRAWS.read_text())}
    assert len(recorded) == 48
    infeasible = 0
    for draw, inst, outcome in _random_draws():
        want = recorded[draw]
        if isinstance(outcome, InfeasibleAllocation):
            assert want == _draw_record(draw, outcome)
            assert not opt._at_caps(inst).feasible[tuple(want["block"])]
            infeasible += 1
        else:
            assert outcome.converged and outcome.feasible
            assert want["outcome"] == "certified" and outcome.iterations == want["iterations"] == 0
            assert abs(outcome.wtec - want["wtec"]) <= 1e-12 * want["wtec"]
    assert infeasible == 4


@pytest.mark.parametrize("case", ["stock", "unequal download caps", "no doubling"])
def test_cap_facts_are_settled_once_per_solve(case, monkeypatch):
    # the cap pass and the feasibility split run once per solve, also when
    # no completion fits, and phi is evaluated at the smaller download cap,
    # whose power root is shared, only in the cap pass: its one phi call
    # takes the four phases at their caps, every later call the three roots'
    # stacked tables
    if case == "no doubling":
        inst = build_instance(load_scenario(UNCERTIFIED_4_VEHICLES))
        monkeypatch.setattr(opt, "_TIME_PRICE_DOUBLINGS", 0)
    else:
        caps = (0.5, 3.0) if case == "unequal download caps" else (STOCK_CAP, STOCK_CAP)
        inst = build_instance(validate(ScenarioConfig(power_max_down_uav=caps[0], power_max_down_rsu=caps[1])))
    pmax = inst.power_max
    shared = opt.PHASE_DOWN_RSU if pmax[opt.PHASE_DOWN_UAV] >= pmax[opt.PHASE_DOWN_RSU] else opt.PHASE_DOWN_UAV
    caps = opt._at_caps(inst)
    assert shared not in caps.roots and np.array_equal(caps.root_caps, pmax[caps.roots])
    calls = {}
    _count_calls(monkeypatch, calls, "_at_caps", "feasible_split", "blended_completion", "complete_primal")
    tables, phi = [], opt._phi
    monkeypatch.setattr(opt, "_phi", lambda gains, w, p: tables.append((gains, p)) or phi(gains, w, p))
    if case == "no doubling":
        # the warm start stops at the power-cap ceiling, where the closed-form
        # split of some blocks does not fit: each completion runs once, and a
        # block it cannot complete keeps the capped run's gap at inf
        with pytest.raises(opt.IterationCapExceeded) as err:
            ellipsoid_solve(inst, eps=1e-4, max_iterations=3)
        assert calls["complete_primal"] == calls["blended_completion"] > 0
        assert err.value.report.iterations == 3 and err.value.report.gap == np.inf
    else:
        assert ellipsoid_solve(inst).converged
    assert calls["_at_caps"] == calls["feasible_split"] == 1
    (gains, p), *roots = tables
    assert len(gains) == 4 and np.array_equal(p, np.broadcast_to(pmax[:, None, None], p.shape))
    assert roots and all(np.array_equal(g, caps.root_gains) for g, _ in roots)


def test_rejected_block_raises_before_the_warm_start(monkeypatch):
    # blocks (1, 1) and (1, 2) need more than any split carries at full
    # power: the solve names the first in row-major order, and no multiplier
    # moves
    inst = make_synthetic_instance(n_vehicles=2, n_slots=3, min_bits=5e5)
    inst.min_bits[1, 1:] = 5e7
    assert opt._at_caps(inst).feasible.tolist() == [[True] * 3, [True, False, False]]
    calls = {}
    _count_calls(monkeypatch, calls, "warm_start")
    with pytest.raises(InfeasibleAllocation, match="within the sub-slot for vehicle 1, slot 1$"):
        ellipsoid_solve(inst)
    assert calls["warm_start"] == 0


def test_dual_value_is_minus_inf_outside_the_domain(stock_points):
    # a minimum-bits price above the ground-route price leaves the
    # ground-unit term of the Lagrangian unbounded below: the dual is -inf
    inst = stock_points[5e5]
    caps = opt._at_caps(inst)
    chi = warm_start(inst, caps)[0]
    assert np.isfinite(dual_point_eval(inst, chi)[0]).all()
    xi = inst.output_ratio[:, None]
    route = chi[..., opt.D_UPLINK] + chi[..., opt.D_RELAY] + xi * chi[..., opt.D_DOWN_RSU]
    assert (route > 0.0).any()
    outside = chi.copy()
    outside[..., opt.D_MIN_BITS] = 2.0 * route
    value, _ = dual_point_eval(inst, outside)
    assert (value[route > 0.0] == -np.inf).all()


@pytest.mark.parametrize("text", ["", "[radio]\nantennas_vehicle = 16\nantennas_uav = 36\nantennas_rsu = 64\n"],
                         ids=["stock", "16/36/64"])
def test_dual_point_eval_matches_a_power_root_and_rate_per_phase(text):
    # one power_opt and one rate call over the four stacked phases give the
    # bits of one call per phase on its own spectrum, at zero, interior and
    # capped powers, also where the uplink's 16 values are padded with zero
    # gains to the relay's 36
    inst = build_instance(load_scenario(text))
    up, relay = (inst.channel_sets[i].spectrum.shape[-1] for i in (0, -1))
    own = [inst.gains[ph][..., :length] for ph, length in enumerate((up, relay, up, up))]
    wv, rng = opt._phase_weights(inst), np.random.default_rng(3)
    chi0 = warm_start(inst, opt._at_caps(inst))[0]
    for _ in range(6):
        chi = chi0 * np.exp(rng.normal(0.0, 2.0, chi0.shape))
        chir = np.moveaxis(chi[..., opt._PHASE_RATE_DUAL], -1, 0)
        p = np.stack([power_opt(own[ph], wv[ph], chir[ph], inst.bandwidth, inst.power_max[ph]) for ph in range(4)])
        rates = np.stack([rate(own[ph], inst.bandwidth, p[ph]) for ph in range(4)])
        want = dual_point_eval(inst, chi, (p, rates))
        assert all(np.array_equal(a, b) for a, b in zip(dual_point_eval(inst, chi), want))
        pmax = np.reshape(inst.power_max, (4, 1, 1))
        assert (p == 0.0).any() and ((p > 0.0) & (p < pmax)).any() and (p == pmax).any()
    assert (up, relay) == ((36, 36) if text == "" else (16, 36))


# --------------------------------------------------------------- recovery LP

def test_solve_p2_skips_ground_unit_when_covered():
    inst = make_synthetic_instance(min_bits=3e5)
    bits_local = np.full((1, 1), 2e5)
    bits_uav = np.full((1, 1), 1e5)
    powers = np.full((4, 1, 1), 0.5)
    bits_rsu, times = solve_p2(inst, bits_local, bits_uav, powers)
    assert np.isclose(bits_rsu[0, 0], 0.0, atol=1e-6)
    r0 = float(inst.rate(powers)[0, 0, 0])
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
    assert abs(report.gap) <= 1e-4
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
    assert report.feasible and abs(report.gap) <= 1e-4
    assert a.bits_rsu[0, 0] == 0.0
    assert np.isclose(a.bits_local[0, 0] + a.bits_uav[0, 0], 3e5, rtol=1e-9)
    assert a.times[1, 0, 0] <= 1e-12  # simplex vertex noise only


def test_dead_downloads_make_offloading_impossible():
    # with both download links dead and bits above the local cap nothing fits
    inst = make_synthetic_instance(gain=[5000.0, 5000.0, 1e-12, 1e-12], min_bits=3e5)
    with pytest.raises(InfeasibleAllocation):
        opt.algorithm1(inst)


def test_feasible_split_oracle():
    inst = make_synthetic_instance(min_bits=5e5)
    caps = opt._at_caps(inst)
    ok, (bl, bu, br) = opt.feasible_split(inst, caps.rates)
    assert ok.all() and np.array_equal(ok, caps.feasible)
    assert np.isclose(bl[0, 0] + bu[0, 0] + br[0, 0], 5e5)
    assert not opt._at_caps(make_synthetic_instance(gain=10.0, min_bits=5e6)).feasible.any()


@pytest.mark.parametrize("down_uav_rate", [0.0, 1e-300])
def test_dead_uav_result_link_leaves_the_ground_route(down_uav_rate):
    # the UAV route carries no bits, so its dead download adds no time to the
    # greedy split's need (no 0 * inf): the block stays feasible, with the
    # split of one whose UAV download is merely weak
    inst = make_synthetic_instance(min_bits=5e5)
    rates = opt._at_caps(inst).rates
    dead, weak = rates.copy(), rates.copy()
    dead[opt.PHASE_DOWN_UAV], weak[opt.PHASE_DOWN_UAV] = down_uav_rate, 1e-9
    (ok, bits), (weak_ok, weak_bits) = opt.feasible_split(inst, dead), opt.feasible_split(inst, weak)
    assert ok.all() and weak_ok.all()
    assert bits[1].max() == 0.0 and bits[2].min() > 0.0
    assert all(np.array_equal(b, w) for b, w in zip(bits, weak_bits))


def test_unequal_download_tables_are_refused():
    # both download phases send over the vehicle-UAV link in reverse, so the
    # solver's one download root takes one table for the two of them
    inst = make_synthetic_instance(n_slots=2, gain=[5000.0, 5000.0, 0.0, 5000.0])
    with pytest.raises(ValueError, match="both download phases must share one gain table"):
        opt.algorithm1(inst)

