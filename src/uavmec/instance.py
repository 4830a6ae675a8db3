"""Assembled per-run problem data: each link's spectra over the horizon and
the phase-stacked SNR-per-watt table the solver and the feasibility checks
consume."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import LinkChannel, RadioConfig, build_channel
from .energy import ComputeModel
# Nothing here calls `advance`; the benchmark's tracer wraps `instance.advance`,
# so the name stays until the benchmark drops that layer (ROADMAP item 2).
from .geometry import NetworkState, advance

# Phase indices used throughout the solver: uplink offload, UAV-to-ground
# relay, UAV-result download, ground-result download.
PHASE_OFFLOAD, PHASE_RELAY, PHASE_DOWN_UAV, PHASE_DOWN_RSU = range(4)


def spectral_sum(a, b=None) -> np.ndarray:
    """Sum over the trailing singular-value axis of `a`, or of a*b, in one
    einsum pass: about half the time of `.sum(axis=-1)` on the solver's
    tables, and einsum calls no BLAS, so no sum depends on BLAS threads."""
    return np.einsum("...l->...", a) if b is None else np.einsum("...l,...l->...", a, b)


def rate(gains, bandwidth: float, power) -> np.ndarray:
    """B * sum_l log2(1 + p * g_l), taken as B/ln2 * sum_l log1p(p * g_l) as
    the solver's phi sums are, for gains of shape (..., L) and powers of the
    leading shape; the per-link sum is a `spectral_sum` (einsum, no BLAS)."""
    snr = np.asarray(power, dtype=float)[..., None] * gains
    return bandwidth / np.log(2.0) * spectral_sum(np.log1p(snr))


@dataclass
class ProblemInstance:
    """Everything one optimization run needs, in SI units.

    `gains` (4, K, N, L), phase first, holds squared singular values over
    B * N0 * L_tx, so that phase `ph` has rate B * sum_l log2(1 + p *
    gains[ph]) at power p; a spectrum shorter than L ends in zero gains, which
    add exactly 0 to every sum.  Both download phases send over the
    vehicle-UAV link in reverse at the UAV's weight, so they share one table:
    the solver finds one stationary power for the two of them.
    """

    slot_len: float
    weights_vehicle: np.ndarray  # (K,)
    weight_uav: float
    vehicle_compute: ComputeModel
    uav_compute: ComputeModel
    output_ratio: np.ndarray  # (K,)
    min_bits: np.ndarray  # (K, N)
    bandwidth: float
    power_max: np.ndarray  # (4,) cap per phase
    gains: np.ndarray  # (4, K, N, L)
    channel_sets: list = field(default_factory=list)  # K+1 LinkChannels: K uplinks, relay
    states: list = field(default_factory=list)  # the slot-0 NetworkState

    @property
    def subslot(self) -> float:
        """Each vehicle's equal share of the slot, slot_len / K."""
        return self.slot_len / self.min_bits.shape[0]

    @property
    def bits_local_cap(self) -> float:
        return self.slot_len * self.vehicle_compute.cpu_freq / self.vehicle_compute.cycles_per_bit

    @property
    def bits_uav_cap(self) -> float:
        return self.subslot * self.uav_compute.cpu_freq / self.uav_compute.cycles_per_bit

    def rate(self, powers: np.ndarray) -> np.ndarray:
        """Achievable rate (bits/s) of each phase at stacked (4, K, N) powers."""
        return rate(self.gains, self.bandwidth, powers)


def _spectrum(ch: LinkChannel, bound: str) -> np.ndarray:
    """A view of one link's squared singular values, (N, L), bound-shaped.

    bound "exact" keeps the spectrum; "rank1" collapses it to a single value
    carrying the whole trace power (the rate lower bound); "fullrank" spreads
    the trace power evenly over min(L_tx, L_rx) values (the upper bound).
    """
    if bound == "rank1":
        return ch.trace_power[:, None]
    if bound == "fullrank":
        return np.broadcast_to((ch.trace_power / ch.spectrum.shape[-1])[:, None], ch.spectrum.shape)
    if bound != "exact":
        raise ValueError(f"unknown channel bound {bound!r}")
    return ch.spectrum


# The last roll-out: (key, links).  A sweep moves one axis, so the links
# either repeat at every point or change at every point; one entry is all
# that can hit.
_last_roll_out = None


def roll_out(state0: NetworkState, radio: RadioConfig) -> list:
    """Build each link over the horizon from the slot-0 state at once: the K
    vehicle-to-UAV links, then the UAV-to-ground-unit relay.

    No UAV-to-vehicle link is built: swapping a link's ends reverses every
    element-to-element distance and the relative velocity, so its matrix is
    the transpose of the vehicle-to-UAV one and has the same spectrum.

    A call whose arguments repeat the last call's (every node's position,
    velocity and array, the horizon and the radio) shares its read-only
    links instead of building them again.
    """
    global _last_roll_out
    nodes = (*state0.vehicles, state0.uav, state0.rsu)
    key = (tuple((n.position.tobytes(), n.velocity.tobytes(), n.array) for n in nodes),
           state0.slot, state0.slot_len, state0.n_slots, radio)
    if _last_roll_out is None or _last_roll_out[0] != key:
        _last_roll_out = None  # free the stale links before this build's temporaries
        horizon = (state0.slot, state0.slot_len, state0.n_slots)
        links = [build_channel(veh, state0.uav, radio, *horizon) for veh in state0.vehicles]
        links.append(build_channel(state0.uav, state0.rsu, radio, *horizon))
        _last_roll_out = (key, links)
    return list(_last_roll_out[1])


def build_gain_tables(links: list, radio: RadioConfig, bound: str = "exact") -> np.ndarray:
    """The (4, K, N, L) gain table: each link's shaped spectrum over B * N0 *
    L_tx, written into one zeroed array as wide as the longest spectrum.  Both
    download rows are the uplink's with the UAV's transmit array, whose size
    divides each gain: they send over the vehicle-UAV link in reverse."""
    *v2u, u2r = links
    *up, relay = spectra = [_spectrum(ch, bound) for ch in links]
    gains = np.zeros((4, len(up), relay.shape[0], max(lam2.shape[-1] for lam2 in spectra)))
    noise = radio.bandwidth * radio.noise_density
    for k, (ch, lam2) in enumerate(zip(v2u, up)):
        np.divide(lam2, noise * ch.n_tx, out=gains[PHASE_OFFLOAD, k, :, :lam2.shape[-1]])
    np.divide(relay, noise * u2r.n_tx, out=gains[PHASE_RELAY, ..., :relay.shape[-1]])
    np.multiply(gains[PHASE_OFFLOAD], v2u[0].n_tx / v2u[0].n_rx, out=gains[PHASE_DOWN_UAV])
    gains[PHASE_DOWN_RSU] = gains[PHASE_DOWN_UAV]
    return gains
