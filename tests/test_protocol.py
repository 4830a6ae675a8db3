import numpy as np

from conftest import make_synthetic_instance
from uavmec.protocol import (
    Allocation,
    baseline_allocation,
    block_energy,
    carry_time,
    check_feasible,
    energy_breakdown,
    tccd,
    time_breakdown,
    wtec,
)


def test_uav_compute_phase_duration():
    inst = make_synthetic_instance(min_bits=0.0)
    alloc = Allocation.zeros(1, 1)
    assert all(t == 0.0 for t in time_breakdown(alloc, inst).values())
    alloc.bits_uav[0, 0] = 1e5
    times = time_breakdown(alloc, inst)
    assert np.isclose(times["t_uav_compute_s"], 1e5 * 1e3 / 3e9)  # 33.3 ms
    assert times["t_local_compute_s"] == 0.0


def test_local_compute_spans_full_slot_at_cap():
    inst = make_synthetic_instance(min_bits=0.0)
    alloc = Allocation.zeros(1, 1)
    alloc.bits_local[0, 0] = inst.bits_local_cap
    times = time_breakdown(alloc, inst)
    assert np.isclose(times["t_local_compute_s"], 0.2)
    assert times["t_uav_compute_s"] == 0.0


def test_zero_allocation_feasible_when_no_bits_required():
    inst = make_synthetic_instance(n_vehicles=2, n_slots=3, min_bits=0.0)
    alloc = Allocation.zeros(2, 3)
    verdict = check_feasible(alloc, inst)
    assert verdict.feasible and not verdict.violations


def test_uplink_capacity_violation_is_reported():
    inst = make_synthetic_instance(min_bits=0.0)
    alloc = Allocation.zeros(1, 1)
    alloc.bits_uav[0, 0] = 1e5
    alloc.powers[0, 0, 0] = 0.01
    alloc.times[0, 0, 0] = 1e-4  # far too short to carry the bits
    verdict = check_feasible(alloc, inst)
    assert not verdict.feasible
    assert any(v.startswith("uplink_capacity") for v in verdict.violations)


def test_min_bits_violation_is_reported():
    inst = make_synthetic_instance(min_bits=1e5)
    verdict = check_feasible(Allocation.zeros(1, 1), inst)
    assert any(v.startswith("min_bits") for v in verdict.violations)


def test_power_cap_violation_is_reported():
    inst = make_synthetic_instance(min_bits=0.0)
    alloc = Allocation.zeros(1, 1)
    alloc.powers[1, 0, 0] = inst.power_max[1] * 2
    verdict = check_feasible(alloc, inst)
    assert any(v.startswith("power_cap_relay") for v in verdict.violations)


def test_tccd_zero_allocation():
    inst = make_synthetic_instance(min_bits=0.0)
    assert tccd(Allocation.zeros(1, 1), inst) == 0.0


def test_tccd_sums_five_phases():
    inst = make_synthetic_instance(min_bits=0.0)
    alloc = Allocation.zeros(1, 1)
    alloc.times[:, 0, 0] = [1e-3, 2e-3, 4e-3, 5e-3]  # offload, relay, both downloads
    alloc.bits_uav[0, 0] = 3e-3 * 3e9 / 1e3  # 3 ms of UAV compute
    assert np.isclose(tccd(alloc, inst), 15e-3)
    # local compute joins only via the flag
    alloc.bits_local[0, 0] = 1e5
    assert np.isclose(tccd(alloc, inst), 15e-3)
    assert np.isclose(tccd(alloc, inst, include_local=True), 15e-3 + 0.1)


def test_wtec_zero_allocation():
    inst = make_synthetic_instance(n_vehicles=2, n_slots=4, min_bits=0.0)
    assert wtec(Allocation.zeros(2, 4), inst) == 0.0


def test_wtec_local_only_over_horizon():
    # one vehicle computing its 0.2 Mbit cap locally every slot for 40 slots
    inst = make_synthetic_instance(n_vehicles=1, n_slots=40, min_bits=2e5)
    alloc = Allocation.zeros(1, 40)
    alloc.bits_local[:] = 2e5
    assert np.isclose(wtec(alloc, inst), 8.0, rtol=1e-9)


def test_wtec_linear_in_vehicle_weights():
    inst = make_synthetic_instance(n_vehicles=2, n_slots=2, min_bits=1e5)
    alloc = Allocation.zeros(2, 2)
    alloc.bits_local[:] = 1e5
    alloc.powers[0] = 0.5
    alloc.times[0] = 1e-3
    base = wtec(alloc, inst)
    inst.weights_vehicle = inst.weights_vehicle * 2.0
    assert np.isclose(wtec(alloc, inst), 2.0 * base, rtol=1e-12)


def test_wtec_invariant_under_vehicle_permutation():
    inst = make_synthetic_instance(n_vehicles=3, n_slots=2, min_bits=2e5)
    rng = np.random.default_rng(0)
    alloc = Allocation.zeros(3, 2)
    alloc.powers = rng.uniform(0.0, 1e-3, (4, 3, 2))
    alloc.times = rng.uniform(0.0, 1e-3, (4, 3, 2))
    alloc.bits_local = rng.uniform(0, 1e5, (3, 2))
    alloc.bits_uav = rng.uniform(0, 1e5, (3, 2))
    alloc.bits_rsu = rng.uniform(0, 1e5, (3, 2))
    perm = [2, 0, 1]
    swapped = Allocation(**{k: np.array(v[..., perm, :]) for k, v in vars(alloc).items()})
    assert np.isclose(wtec(alloc, inst), wtec(swapped, inst), rtol=1e-12)


def test_baseline_allocation_structure():
    inst = make_synthetic_instance(n_vehicles=3, n_slots=2, min_bits=5e5)
    alloc = baseline_allocation(inst)
    total = alloc.bits_local + alloc.bits_uav + alloc.bits_rsu
    assert np.allclose(total, inst.min_bits)
    assert np.allclose(alloc.bits_local, np.minimum(5e5 / 3, inst.bits_local_cap))
    assert (alloc.powers[0] == inst.power_max[0]).all()
    # durations exactly carry the bits
    carried = alloc.times[0] * inst.rate(0, alloc.powers[0])
    assert np.allclose(carried, alloc.bits_uav + alloc.bits_rsu, rtol=1e-9)


def test_carry_time_zero_load_is_zero_even_at_zero_rate():
    assert carry_time(0.0, 0.0) == 0.0
    assert carry_time(0.0, 5e6) == 0.0


def test_carry_time_load_at_zero_rate_is_inf():
    assert carry_time(1e5, 0.0) == np.inf


def test_carry_time_is_load_over_rate():
    load = np.array([[1e5, 3e5], [0.0, 2e5]])
    rate = np.array([[5e6, 1e7], [0.0, 4e6]])
    assert np.array_equal(carry_time(load, rate), [[1e5 / 5e6, 3e5 / 1e7], [0.0, 2e5 / 4e6]])
    # doubling every rate halves every transmission time
    assert np.array_equal(carry_time(load, 2.0 * rate), carry_time(load, rate) / 2.0)


def _carry_time_nan_to_num(load, rate):
    """Reference: the carry time through a NaN rate and `np.nan_to_num` (with
    overflow silenced too, which the solver's form silences)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.where(load > 0, load / np.where(rate > 0, rate, np.nan), 0.0)
    return np.nan_to_num(t, nan=np.inf, posinf=np.inf)


def test_carry_time_is_bitwise_the_nan_to_num_form():
    # finite loads: no load at a zero rate, a load at a zero or negative
    # rate, a quotient that overflows, no load at an inf rate, and a load at
    # an inf rate or a tiny one
    loads = np.array([0.0, -0.0, 1e5, 1e5, 1e5, 1e308, 0.0, 1e5, 1e-300, 3e5, -2.0, 0.0])
    rates = np.array([0.0, 0.0, 0.0, -1.0, -np.inf, 1e-300, np.inf, np.inf, 1e-300, 7e6, 5.0, -3.0])
    cases = [(loads, rates), (loads[:, None], rates[None, :]), (np.stack([loads] * 4), rates)]
    cases += [(float(a), float(b)) for a, b in zip(loads, rates)]
    cases += [(1.0, rates), (loads, 1.0)]
    rng = np.random.default_rng(5)
    cases.append((rng.uniform(-1.0, 1.0, (4, 3, 40)) * 1e6, rng.uniform(-0.1, 1.0, (4, 3, 40)) * 1e8))
    for load, rate in cases:
        got, want = carry_time(load, rate), _carry_time_nan_to_num(load, rate)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


def test_wtec_is_sum_of_block_energy_and_weighted_breakdown():
    inst = make_synthetic_instance(n_vehicles=3, n_slots=4, min_bits=2e5)
    inst.weights_vehicle = np.full(3, 1.7)
    rng = np.random.default_rng(3)
    alloc = Allocation.zeros(3, 4)
    alloc.powers = rng.uniform(0.0, 1e-3, (4, 3, 4))
    alloc.times = rng.uniform(0.0, 1e-3, (4, 3, 4))
    alloc.bits_local = rng.uniform(0, 2e5, (3, 4))
    alloc.bits_uav = rng.uniform(0, 2e5, (3, 4))
    total = wtec(alloc, inst)
    assert total == block_energy(
        inst, alloc.bits_local, alloc.bits_uav, alloc.powers, alloc.times
    ).sum()
    e = energy_breakdown(alloc, inst)
    weighted = 1.7 * (e["e_local_J"] + e["e_offload_J"]) + inst.weight_uav * (
        e["e_relay_J"] + e["e_uav_compute_J"] + e["e_down_uav_J"] + e["e_down_rsu_J"]
    )
    assert np.isclose(total, weighted, rtol=1e-12, atol=0.0)
