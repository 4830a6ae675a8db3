"""Five-phase sub-slot schedule, feasibility and the two metrics.

Per timeslot each vehicle owns an equal share tau/K of the slot and runs up
to five phases inside it: uplink offload, relay to the ground unit, UAV
compute, download of UAV results, download of ground-unit results.  Local
computing runs in parallel and may span the whole slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import compute_energy, compute_time
from .instance import PHASE_DOWN_RSU, PHASE_DOWN_UAV, PHASE_OFFLOAD, PHASE_RELAY

# Relative tolerance of every check in `check_feasible`.
CHECK_RTOL = 1e-9


@dataclass
class Allocation:
    """Decision variables for all (vehicle, slot) pairs.

    The bit routes have shape (K, N); `powers` and `times` are the stacked
    (4, K, N) per-phase arrays in `instance.PHASE_*` order.  Phase-3 and
    local compute times are derived from the bit counts, not stored.
    """

    bits_local: np.ndarray
    bits_uav: np.ndarray
    bits_rsu: np.ndarray
    powers: np.ndarray
    times: np.ndarray

    @classmethod
    def zeros(cls, n_vehicles: int, n_slots: int) -> "Allocation":
        z = lambda *lead: np.zeros(lead + (n_vehicles, n_slots))
        return cls(z(), z(), z(), z(4), z(4))

    def copy(self) -> "Allocation":
        return Allocation(**{k: np.array(v) for k, v in self.__dict__.items()})


def phase_loads(inst, bits_uav, bits_rsu) -> np.ndarray:
    """Bits each transmit phase carries, stacked (4, ...) in phase order:
    uplink, relay, UAV-result download, ground-result download."""
    xi = inst.output_ratio[:, None]
    return np.stack([bits_uav + bits_rsu, bits_rsu, xi * bits_uav, xi * bits_rsu])


def carry_time(load, rate):
    """Time to carry `load` bits at `rate`: 0 without load, inf when bits
    meet a zero (or negative) rate, load / rate otherwise (inf where it
    overflows).  np.divide, not `/`, so Python floats divide by 0 too."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(load > 0, np.where(rate > 0, np.divide(load, rate), np.inf), 0.0)


@dataclass
class Verdict:
    """Outcome of a feasibility check with every violated constraint listed."""

    feasible: bool
    violations: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.feasible


def check_feasible(alloc: Allocation, inst) -> Verdict:
    """Verify every constraint of the allocation against a problem instance.

    Checks the minimum-bits requirement, sign constraints, per-phase time
    ranges, the sub-slot budget, the four link-capacity constraints at the
    allocation's own powers, and the transmit power caps.  Returns all
    violations rather than stopping at the first.
    """
    v: list[str] = []
    sub = inst.subslot
    bits_scale = max(1.0, float(np.max(inst.min_bits)))

    def report(mask, label):
        for k, n in zip(*np.nonzero(mask)):
            v.append(f"{label}[k={k},n={n}]")

    total = alloc.bits_local + alloc.bits_uav + alloc.bits_rsu
    report(total < inst.min_bits - CHECK_RTOL * bits_scale, "min_bits")
    for name in ("bits_local", "bits_uav", "bits_rsu"):
        report(getattr(alloc, name) < -CHECK_RTOL * bits_scale, f"sign_{name}")

    t_uav = compute_time(alloc.bits_uav, inst.uav_compute)
    t_local = compute_time(alloc.bits_local, inst.vehicle_compute)
    times = alloc.times
    report(np.any(times < -CHECK_RTOL * sub, axis=0), "time_negative")
    report(np.any(times > sub * (1 + CHECK_RTOL), axis=0), "time_over_subslot")
    report(t_uav > sub * (1 + CHECK_RTOL), "uav_compute_over_subslot")
    report(t_local > inst.slot_len * (1 + CHECK_RTOL), "local_compute_over_slot")

    budget = times.sum(axis=0) + t_uav
    report(budget > sub * (1 + CHECK_RTOL), "subslot_budget")

    cap_labels = ("uplink_capacity", "relay_capacity", "down_uav_capacity", "down_rsu_capacity")
    carried = phase_loads(inst, alloc.bits_uav, alloc.bits_rsu)
    powers = alloc.powers
    for ph in range(4):
        capacity = times[ph] * inst.rate(ph, powers[ph])
        report(carried[ph] > capacity + CHECK_RTOL * bits_scale, cap_labels[ph])
        report(powers[ph] < -CHECK_RTOL, f"power_negative_{cap_labels[ph]}")
        report(powers[ph] > inst.power_max[ph] * (1 + CHECK_RTOL), f"power_cap_{cap_labels[ph]}")

    return Verdict(feasible=not v, violations=v)


def baseline_allocation(inst) -> Allocation:
    """Uninformed reference scheme: equal three-way bit split clipped to the
    compute caps (remainder to the ground unit), every transmission at its
    maximum power, phase durations sized to exactly carry the bits.

    The result is not necessarily feasible; callers check the verdict.
    """
    alloc = Allocation.zeros(*inst.min_bits.shape)
    third = inst.min_bits / 3.0
    alloc.bits_local = np.minimum(third, inst.bits_local_cap)
    alloc.bits_uav = np.minimum(third, inst.bits_uav_cap)
    alloc.bits_rsu = inst.min_bits - alloc.bits_local - alloc.bits_uav
    carried = phase_loads(inst, alloc.bits_uav, alloc.bits_rsu)
    pmax = np.broadcast_to(inst.power_max[:, None, None], carried.shape)
    alloc.powers = np.where(carried > 0, pmax, 0.0)
    alloc.times = carry_time(carried, np.stack([inst.rate(ph, pmax[ph]) for ph in range(4)]))
    return alloc


def tccd(alloc: Allocation, inst, include_local: bool = False) -> float:
    """Total computation and communication delay over all vehicles and slots.

    Sums the occupied five-phase durations; local compute runs in parallel
    and is excluded unless requested.
    """
    t_uav = compute_time(alloc.bits_uav, inst.uav_compute)
    total = float(alloc.times.sum() + t_uav.sum())
    if include_local:
        total += float(compute_time(alloc.bits_local, inst.vehicle_compute).sum())
    return total


def block_energy(inst, bits_local, bits_uav, powers, times) -> np.ndarray:
    """Weighted energy of every (vehicle, slot) block, shape (K, N).

    Vehicle side: local CPU energy plus phase-1 radiated energy, weighted per
    vehicle.  UAV side: relay and download radiated energy plus its CPU
    energy (with the K^2 sub-slot factor), weighted by the UAV weight.
    `powers` and `times` are the stacked (4, K, N) per-phase arrays.
    """
    tau = inst.slot_len
    e_local = compute_energy(bits_local, inst.vehicle_compute, tau)
    e_uav_cpu = compute_energy(bits_uav, inst.uav_compute, tau, inst.n_vehicles)
    vehicle_side = inst.weights_vehicle[:, None] * (e_local + powers[0] * times[0])
    uav_side = inst.weight_uav * (
        powers[1] * times[1] + e_uav_cpu + powers[2] * times[2] + powers[3] * times[3]
    )
    return vehicle_side + uav_side


def wtec(alloc: Allocation, inst) -> float:
    """Weighted total energy consumed by the vehicles and the UAV server.

    The sum of `block_energy`; propulsion energy is reported separately by
    the runner.
    """
    return float(block_energy(inst, alloc.bits_local, alloc.bits_uav, alloc.powers, alloc.times).sum())


def energy_breakdown(alloc: Allocation, inst) -> dict:
    """Unweighted per-phase energy totals in joules."""
    tau = inst.slot_len
    e_local = compute_energy(alloc.bits_local, inst.vehicle_compute, tau)
    e_uav_cpu = compute_energy(alloc.bits_uav, inst.uav_compute, tau, inst.n_vehicles)
    radiated = alloc.powers * alloc.times
    return {
        "e_local_J": float(e_local.sum()),
        "e_offload_J": float(radiated[PHASE_OFFLOAD].sum()),
        "e_relay_J": float(radiated[PHASE_RELAY].sum()),
        "e_uav_compute_J": float(e_uav_cpu.sum()),
        "e_down_uav_J": float(radiated[PHASE_DOWN_UAV].sum()),
        "e_down_rsu_J": float(radiated[PHASE_DOWN_RSU].sum()),
    }


def time_breakdown(alloc: Allocation, inst) -> dict:
    """Per-phase occupied-time totals in seconds."""
    t_uav = compute_time(alloc.bits_uav, inst.uav_compute)
    t_local = compute_time(alloc.bits_local, inst.vehicle_compute)
    times = alloc.times
    return {
        "t_offload_s": float(times[PHASE_OFFLOAD].sum()),
        "t_relay_s": float(times[PHASE_RELAY].sum()),
        "t_uav_compute_s": float(t_uav.sum()),
        "t_down_uav_s": float(times[PHASE_DOWN_UAV].sum()),
        "t_down_rsu_s": float(times[PHASE_DOWN_RSU].sum()),
        "t_local_compute_s": float(t_local.sum()),
    }
