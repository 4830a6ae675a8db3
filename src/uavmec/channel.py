"""Line-of-sight massive-MIMO channel matrices and achievable rates.

Each link is a complex matrix whose entries all share the magnitude
sqrt(path_loss); the per-entry phase combines a Doppler term and the
element-to-element path phase.  Rates follow from the singular values of the
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import NodeState, element_offsets


class ZeroDistance(Exception):
    """Raised when a link would be evaluated at zero center distance."""


DOPPLER_PHASE_MODES = ("literal", "accumulated")


@dataclass(frozen=True)
class RadioConfig:
    """Carrier, bandwidth and noise parameters shared by all links.

    `reference_gain` is the linear channel gain at 1 m; `noise_density` is the
    per-Hz noise power in W/Hz.  `doppler_phase_mode` selects how the Doppler
    frequency enters the per-entry phase: "literal" adds 2*pi*f directly,
    "accumulated" adds 2*pi*f times the elapsed time slot*slot_len.
    """

    wavelength: float
    path_loss_exponent: float
    reference_gain: float
    bandwidth: float
    noise_density: float
    doppler_phase_mode: str = "literal"

    def __post_init__(self):
        if min(self.wavelength, self.reference_gain, self.bandwidth, self.noise_density) <= 0:
            raise ValueError("radio parameters must be positive")
        if self.path_loss_exponent < 1:
            raise ValueError("path-loss exponent must be >= 1")
        if self.doppler_phase_mode not in DOPPLER_PHASE_MODES:
            raise ValueError(f"unknown doppler_phase_mode {self.doppler_phase_mode!r}")


@dataclass(frozen=True)
class LinkChannel:
    """One link's matrix, its path loss and its singular-value spectrum."""

    matrix: np.ndarray
    path_loss: float
    singular_values: np.ndarray
    n_tx: int
    n_rx: int
    trace_power: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "trace_power", float(np.sum(self.singular_values**2)))


@dataclass(frozen=True)
class ChannelSet:
    """The link channels of one timeslot.

    `v2u` holds one vehicle-to-UAV channel per vehicle; the UAV-to-ground-unit
    link is vehicle independent.  No UAV-to-vehicle channel is built: swapping
    a link's ends reverses every element-to-element distance and the relative
    velocity, so its matrix is the transpose of the `v2u` one and has the same
    singular values.
    """

    v2u: tuple[LinkChannel, ...]
    u2r: LinkChannel


def path_loss(center_distance, cfg: RadioConfig) -> float:
    """Distance power law: reference_gain * ||d||**(-alpha).

    A single scalar per link and slot; the element offsets are negligible
    against the center distance.
    """
    d = np.linalg.norm(np.asarray(center_distance, dtype=float))
    if d == 0.0:
        raise ZeroDistance("link endpoints coincide")
    return cfg.reference_gain * d ** (-cfg.path_loss_exponent)


def build_channel(
    tx: NodeState,
    rx: NodeState,
    cfg: RadioConfig,
    slot: int = 0,
    slot_len: float | None = None,
) -> LinkChannel:
    """Construct the LoS matrix between two nodes for one timeslot.

    Entry (p, m) couples receive element p with transmit element m:
    sqrt(beta) * exp(j * theta) with theta the Doppler term plus the path
    phase 2*pi*||d_pm||/wavelength.  Only relative node motion enters the
    Doppler frequency, so a static ground unit contributes nothing.
    """
    d_centers = rx.position - tx.position
    beta = path_loss(d_centers, cfg)

    tx_off = element_offsets(tx.array)  # (Lt, 3)
    rx_off = element_offsets(rx.array)  # (Lr, 3)
    # d[p, m] = (rx_center + rx_off[p]) - (tx_center + tx_off[m])
    d = d_centers[None, None, :] + rx_off[:, None, :] - tx_off[None, :, :]
    norms = np.linalg.norm(d, axis=2)

    rel_v = tx.velocity - rx.velocity
    doppler = (d @ rel_v) / (cfg.wavelength * norms)
    path_phase = 2.0 * np.pi * norms / cfg.wavelength
    if cfg.doppler_phase_mode == "literal":
        theta = 2.0 * np.pi * doppler + path_phase
    else:
        if slot_len is None:
            raise ValueError("accumulated Doppler phase needs slot_len")
        theta = 2.0 * np.pi * doppler * (slot * slot_len) + path_phase

    matrix = np.sqrt(beta) * np.exp(1j * theta)
    svals = np.linalg.svd(matrix, compute_uv=False)
    return LinkChannel(
        matrix=matrix,
        path_loss=beta,
        singular_values=np.sort(svals)[::-1],
        n_tx=tx.array.size,
        n_rx=rx.array.size,
    )


def achievable_rate(power: float, ch: LinkChannel, cfg: RadioConfig, n_tx: int) -> float:
    """Sum-rate over the singular values at the given transmit power (bits/s)."""
    if power < 0:
        raise ValueError("power must be non-negative")
    if power == 0.0:
        return 0.0
    lam2 = ch.singular_values[: min(n_tx, ch.n_rx)] ** 2
    snr = power * lam2 / (cfg.bandwidth * cfg.noise_density * n_tx)
    return cfg.bandwidth * float(np.sum(np.log2(1.0 + snr)))


def rate_bound(
    power: float, ch: LinkChannel, cfg: RadioConfig, n_tx: int, which: str
) -> float:
    """Rank-1 lower / full-rank upper bound on the achievable rate.

    lower: B * log2(1 + p*Phi/(B*N0*Lt))
    upper: B * Lmin * log2(1 + p*Phi/(B*N0*Lt*Lmin))
    where Phi is the channel's total singular power.
    """
    if power < 0:
        raise ValueError("power must be non-negative")
    if power == 0.0:
        return 0.0
    phi = ch.trace_power
    noise = cfg.bandwidth * cfg.noise_density * n_tx
    if which == "lower":
        return cfg.bandwidth * float(np.log2(1.0 + power * phi / noise))
    if which == "upper":
        lmin = min(n_tx, ch.n_rx)
        return cfg.bandwidth * lmin * float(np.log2(1.0 + power * phi / (noise * lmin)))
    raise ValueError(f"unknown bound {which!r}")
