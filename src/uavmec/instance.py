"""Assembled per-run problem data: geometry rolled out over the horizon,
per-slot channels, and the per-phase SNR-per-watt tables the solver and the
feasibility checks consume."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet, LinkChannel, RadioConfig, build_channel
from .energy import ComputeModel, FlightPowerModel
from .geometry import NetworkState, advance

# Phase indices used throughout the solver: uplink offload, UAV-to-ground
# relay, UAV-result download, ground-result download.
PHASE_OFFLOAD, PHASE_RELAY, PHASE_DOWN_UAV, PHASE_DOWN_RSU = range(4)


def rate(gains, bandwidth: float, power) -> np.ndarray:
    """B * sum_l log2(1 + p * g_l) for gains of shape (..., L) and powers of
    the leading shape."""
    p = np.asarray(power, dtype=float)
    return bandwidth * np.log2(1.0 + p[..., None] * gains).sum(axis=-1)


def rate_derivative(gains, bandwidth: float, power) -> np.ndarray:
    """d rate / d power: B/ln2 * sum_l g_l / (1 + p * g_l)."""
    p = np.asarray(power, dtype=float)
    return bandwidth / np.log(2.0) * (gains / (1.0 + p[..., None] * gains)).sum(axis=-1)


@dataclass
class ProblemInstance:
    """Everything one optimization run needs, in SI units.

    `gains[phase]` has shape (K, N, L) and holds squared singular values
    scaled by 1/(B * N0 * L_tx), so that the rate of phase `ph` at power p is
    B * sum_l log2(1 + p * gains[ph]).
    """

    n_vehicles: int
    n_slots: int
    slot_len: float
    weights_vehicle: np.ndarray  # (K,)
    weight_uav: float
    vehicle_compute: ComputeModel
    uav_compute: ComputeModel
    output_ratio: np.ndarray  # (K,)
    min_bits: np.ndarray  # (K, N)
    bandwidth: float
    power_max: np.ndarray  # (4,) cap per phase
    gains: list  # 4 arrays of shape (K, N, L_phase)
    flight: FlightPowerModel | None = None
    uav_velocity: np.ndarray | None = None  # (3,) constant over the horizon
    channel_sets: list = field(default_factory=list)  # one ChannelSet per slot
    states: list = field(default_factory=list)  # NetworkState per slot

    @property
    def subslot(self) -> float:
        return self.slot_len / self.n_vehicles

    @property
    def bits_local_cap(self) -> float:
        return self.slot_len * self.vehicle_compute.cpu_freq / self.vehicle_compute.cycles_per_bit

    @property
    def bits_uav_cap(self) -> float:
        return self.subslot * self.uav_compute.cpu_freq / self.uav_compute.cycles_per_bit

    def rate(self, phase: int, power: np.ndarray) -> np.ndarray:
        """Achievable rate (bits/s) of `phase` at per-(k, n) powers."""
        return rate(self.gains[phase], self.bandwidth, power)

    def rate_derivative(self, phase: int, power: np.ndarray) -> np.ndarray:
        """d rate / d power at per-(k, n) powers."""
        return rate_derivative(self.gains[phase], self.bandwidth, power)

    def flight_energy_total(self) -> float:
        """Propulsion energy over the whole horizon (0 without a UAV model)."""
        if self.flight is None or self.uav_velocity is None:
            return 0.0
        from .energy import flight_energy

        v = self.uav_velocity
        per_slot = flight_energy(self.flight, v[:2], v[2:], self.slot_len)
        return per_slot * self.n_slots


def _phase_gain(ch: LinkChannel, radio: RadioConfig, bound: str) -> np.ndarray:
    """Squared singular values over noise for one link, after bound shaping.

    bound "exact" keeps the spectrum; "rank1" collapses it to a single value
    carrying the whole trace power (the rate lower bound); "fullrank" spreads
    the trace power evenly over min(L_tx, L_rx) values (the upper bound).
    """
    lmin = min(ch.n_tx, ch.n_rx)
    lam2 = ch.singular_values[:lmin] ** 2
    if bound == "rank1":
        lam2 = np.array([ch.trace_power])
    elif bound == "fullrank":
        lam2 = np.full(lmin, ch.trace_power / lmin)
    elif bound != "exact":
        raise ValueError(f"unknown channel bound {bound!r}")
    return lam2 / (radio.bandwidth * radio.noise_density * ch.n_tx)


def roll_out(state0: NetworkState, radio: RadioConfig) -> tuple[list, list]:
    """Advance the geometry over the horizon and build per-slot channels."""
    states = [state0]
    for _ in range(state0.n_slots - 1):
        states.append(advance(states[-1]))
    sets = []
    for st in states:
        v2u = tuple(
            build_channel(veh, st.uav, radio, st.slot, st.slot_len) for veh in st.vehicles
        )
        u2v = tuple(
            build_channel(st.uav, veh, radio, st.slot, st.slot_len) for veh in st.vehicles
        )
        u2r = build_channel(st.uav, st.rsu, radio, st.slot, st.slot_len)
        sets.append(ChannelSet(v2u=v2u, u2r=u2r, u2v=u2v))
    return states, sets


def build_gain_tables(
    channel_sets: list, radio: RadioConfig, n_vehicles: int, bound: str = "exact"
) -> list:
    """Stack per-slot channels into the four (K, N, L) gain arrays.

    Both download phases use the UAV-to-vehicle link, so they share one table.
    """

    def table(link):
        ch0 = link(channel_sets[0], 0)
        width = 1 if bound == "rank1" else min(ch0.n_tx, ch0.n_rx)
        out = np.zeros((n_vehicles, len(channel_sets), width))
        for n, cs in enumerate(channel_sets):
            for k in range(n_vehicles):
                ch = link(cs, k)
                g = _phase_gain(ch, radio, bound)
                out[k, n, : g.size] = g
        return out

    down = table(lambda cs, k: cs.u2v[k])
    return [table(lambda cs, k: cs.v2u[k]), table(lambda cs, k: cs.u2r), down, down]
