"""Task model, five-phase sub-slot schedule, feasibility and the two metrics.

Per timeslot each vehicle owns an equal share tau/K of the slot and runs up
to five phases inside it: uplink offload, relay to the ground unit, UAV
compute, download of UAV results, download of ground-unit results.  Local
computing runs in parallel and may span the whole slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import ComputeModel, compute_energy


class ZeroRateWithBits(Exception):
    """Bits were assigned to a phase whose link rate is zero."""


@dataclass(frozen=True)
class Task:
    """Per-vehicle computation task parameters."""

    cycles_per_bit: float
    bits_per_slot: float
    min_bits: float
    output_ratio: float
    deadline: float

    def __post_init__(self):
        for name in ("cycles_per_bit", "bits_per_slot", "min_bits", "output_ratio", "deadline"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class BitSplit:
    """How one slot's task bits are divided between the three compute sites."""

    local: float
    uav: float
    rsu: float

    def __post_init__(self):
        if min(self.local, self.uav, self.rsu) < 0:
            raise ValueError("bit counts must be non-negative")

    @property
    def total(self) -> float:
        return self.local + self.uav + self.rsu


@dataclass(frozen=True)
class PhaseSchedule:
    """Durations of the five sub-slot phases plus the parallel local compute."""

    offload: float
    relay: float
    uav_compute: float
    down_uav: float
    down_rsu: float
    local_compute: float

    @property
    def occupied(self) -> float:
        return self.offload + self.relay + self.uav_compute + self.down_uav + self.down_rsu


@dataclass
class Allocation:
    """Decision variables for all (vehicle, slot) pairs.

    All arrays have shape (K, N).  Phase-3 and local compute times are derived
    from the bit counts, not stored.
    """

    bits_local: np.ndarray
    bits_uav: np.ndarray
    bits_rsu: np.ndarray
    power_offload: np.ndarray
    power_relay: np.ndarray
    power_down_uav: np.ndarray
    power_down_rsu: np.ndarray
    time_offload: np.ndarray
    time_relay: np.ndarray
    time_down_uav: np.ndarray
    time_down_rsu: np.ndarray

    @classmethod
    def zeros(cls, n_vehicles: int, n_slots: int) -> "Allocation":
        z = lambda: np.zeros((n_vehicles, n_slots))
        return cls(z(), z(), z(), z(), z(), z(), z(), z(), z(), z(), z())

    def copy(self) -> "Allocation":
        return Allocation(**{k: np.array(v) for k, v in self.__dict__.items()})

    def powers(self) -> np.ndarray:
        """Stacked per-phase powers, shape (4, K, N)."""
        return np.stack(
            [self.power_offload, self.power_relay, self.power_down_uav, self.power_down_rsu]
        )

    def times(self) -> np.ndarray:
        """Stacked per-phase transmit times, shape (4, K, N)."""
        return np.stack(
            [self.time_offload, self.time_relay, self.time_down_uav, self.time_down_rsu]
        )


def carry_time(load, rate):
    """Time to carry `load` bits at `rate`: 0 without load, inf when bits
    meet a zero rate, load / rate otherwise."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(load > 0, load / np.where(rate > 0, rate, np.nan), 0.0)
    return np.nan_to_num(t, nan=np.inf, posinf=np.inf)


@dataclass
class Verdict:
    """Outcome of a feasibility check with every violated constraint listed."""

    feasible: bool
    violations: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.feasible


def phase_durations(
    split: BitSplit,
    rate_uplink: float,
    rate_relay: float,
    rate_down: float,
    output_ratio: float,
    vehicle: ComputeModel,
    uav: ComputeModel,
) -> PhaseSchedule:
    """Exact-carry durations of the five phases for one (vehicle, slot) pair.

    Ground-unit compute time and its return link to the UAV are negligible
    and carry no phase.
    """

    def carry(bits, rate, label):
        if bits <= 0:
            return 0.0
        if rate <= 0:
            raise ZeroRateWithBits(f"{label}: {bits} bits with zero rate")
        return bits / rate

    return PhaseSchedule(
        offload=carry(split.uav + split.rsu, rate_uplink, "offload"),
        relay=carry(split.rsu, rate_relay, "relay"),
        uav_compute=uav.cycles_per_bit * split.uav / uav.cpu_freq,
        down_uav=carry(output_ratio * split.uav, rate_down, "down_uav"),
        down_rsu=carry(output_ratio * split.rsu, rate_down, "down_rsu"),
        local_compute=vehicle.cycles_per_bit * split.local / vehicle.cpu_freq,
    )


def check_feasible(alloc: Allocation, inst, rtol: float = 1e-9) -> Verdict:
    """Verify every constraint of the allocation against a problem instance.

    Checks the minimum-bits requirement, sign constraints, per-phase time
    ranges, the sub-slot budget, the four link-capacity constraints at the
    allocation's own powers, and the transmit power caps.  Returns all
    violations rather than stopping at the first.
    """
    v: list[str] = []
    sub = inst.slot_len / inst.n_vehicles
    bits_scale = max(1.0, float(np.max(inst.min_bits)))

    def report(mask, label):
        for k, n in zip(*np.nonzero(mask)):
            v.append(f"{label}[k={k},n={n}]")

    total = alloc.bits_local + alloc.bits_uav + alloc.bits_rsu
    report(total < inst.min_bits - rtol * bits_scale, "min_bits")
    for name in ("bits_local", "bits_uav", "bits_rsu"):
        report(getattr(alloc, name) < -rtol * bits_scale, f"sign_{name}")

    t_uav = inst.uav_compute.cycles_per_bit * alloc.bits_uav / inst.uav_compute.cpu_freq
    t_local = inst.vehicle_compute.cycles_per_bit * alloc.bits_local / inst.vehicle_compute.cpu_freq
    times = alloc.times()
    report(np.any(times < -rtol * sub, axis=0), "time_negative")
    report(np.any(times > sub * (1 + rtol), axis=0), "time_over_subslot")
    report(t_uav > sub * (1 + rtol), "uav_compute_over_subslot")
    report(t_local > inst.slot_len * (1 + rtol), "local_compute_over_slot")

    budget = times.sum(axis=0) + t_uav
    report(budget > sub * (1 + rtol), "subslot_budget")

    cap_labels = ("uplink_capacity", "relay_capacity", "down_uav_capacity", "down_rsu_capacity")
    carried = np.stack(
        [
            alloc.bits_uav + alloc.bits_rsu,
            alloc.bits_rsu,
            inst.output_ratio[:, None] * alloc.bits_uav,
            inst.output_ratio[:, None] * alloc.bits_rsu,
        ]
    )
    powers = alloc.powers()
    for ph in range(4):
        capacity = times[ph] * inst.rate(ph, powers[ph])
        report(carried[ph] > capacity + rtol * bits_scale, cap_labels[ph])
        report(powers[ph] < -rtol, f"power_negative_{cap_labels[ph]}")
        report(powers[ph] > inst.power_max[ph] * (1 + rtol), f"power_cap_{cap_labels[ph]}")

    return Verdict(feasible=not v, violations=v)


def baseline_allocation(inst) -> Allocation:
    """Uninformed reference scheme: equal three-way bit split clipped to the
    compute caps (remainder to the ground unit), every transmission at its
    maximum power, phase durations sized to exactly carry the bits.

    The result is not necessarily feasible; callers check the verdict.
    """
    k, n = inst.min_bits.shape
    alloc = Allocation.zeros(k, n)
    third = inst.min_bits / 3.0
    alloc.bits_local = np.minimum(third, inst.bits_local_cap)
    alloc.bits_uav = np.minimum(third, inst.bits_uav_cap)
    alloc.bits_rsu = inst.min_bits - alloc.bits_local - alloc.bits_uav
    xi = inst.output_ratio[:, None]
    carried = [
        alloc.bits_uav + alloc.bits_rsu,
        alloc.bits_rsu,
        xi * alloc.bits_uav,
        xi * alloc.bits_rsu,
    ]
    p_names = ("power_offload", "power_relay", "power_down_uav", "power_down_rsu")
    t_names = ("time_offload", "time_relay", "time_down_uav", "time_down_rsu")
    for ph in range(4):
        pmax = np.full((k, n), inst.power_max[ph])
        setattr(alloc, p_names[ph], np.where(carried[ph] > 0, pmax, 0.0))
        setattr(alloc, t_names[ph], carry_time(carried[ph], inst.rate(ph, pmax)))
    return alloc


def tccd(alloc: Allocation, inst, include_local: bool = False) -> float:
    """Total computation and communication delay over all vehicles and slots.

    Sums the occupied five-phase durations; local compute runs in parallel
    and is excluded unless requested.
    """
    t_uav = inst.uav_compute.cycles_per_bit * alloc.bits_uav / inst.uav_compute.cpu_freq
    total = float(alloc.times().sum() + t_uav.sum())
    if include_local:
        total += float(
            (inst.vehicle_compute.cycles_per_bit * alloc.bits_local / inst.vehicle_compute.cpu_freq).sum()
        )
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
    return float(
        block_energy(inst, alloc.bits_local, alloc.bits_uav, alloc.powers(), alloc.times()).sum()
    )


def energy_breakdown(alloc: Allocation, inst) -> dict:
    """Unweighted per-phase energy totals in joules."""
    tau = inst.slot_len
    e_local = compute_energy(alloc.bits_local, inst.vehicle_compute, tau)
    e_uav_cpu = compute_energy(alloc.bits_uav, inst.uav_compute, tau, inst.n_vehicles)
    return {
        "e_local_J": float(e_local.sum()),
        "e_offload_J": float((alloc.power_offload * alloc.time_offload).sum()),
        "e_relay_J": float((alloc.power_relay * alloc.time_relay).sum()),
        "e_uav_compute_J": float(e_uav_cpu.sum()),
        "e_down_uav_J": float((alloc.power_down_uav * alloc.time_down_uav).sum()),
        "e_down_rsu_J": float((alloc.power_down_rsu * alloc.time_down_rsu).sum()),
    }


def time_breakdown(alloc: Allocation, inst) -> dict:
    """Per-phase occupied-time totals in seconds."""
    t_uav = inst.uav_compute.cycles_per_bit * alloc.bits_uav / inst.uav_compute.cpu_freq
    t_local = inst.vehicle_compute.cycles_per_bit * alloc.bits_local / inst.vehicle_compute.cpu_freq
    return {
        "t_offload_s": float(alloc.time_offload.sum()),
        "t_relay_s": float(alloc.time_relay.sum()),
        "t_uav_compute_s": float(t_uav.sum()),
        "t_down_uav_s": float(alloc.time_down_uav.sum()),
        "t_down_rsu_s": float(alloc.time_down_rsu.sum()),
        "t_local_compute_s": float(t_local.sum()),
    }
