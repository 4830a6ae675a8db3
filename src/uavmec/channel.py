"""Line-of-sight massive-MIMO channel matrices and their spectra.

Each link is a complex matrix per slot whose entries all share the magnitude
sqrt(path_loss); the per-entry phase combines a Doppler term and the
element-to-element path phase.  Rates follow from the singular values of the
matrix, which `instance` turns into per-phase gain tables.  A link is built
over a run of slots at once: one stacked matrix computation and one batched
SVD, of which only the spectra are kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import NodeState, element_offsets, trajectory


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
    """One link over a run of slots: per slot its path loss and its squared
    singular values, largest first.  The matrices are not kept;
    `los_matrix` rebuilds them."""

    path_loss: np.ndarray  # (N,)
    spectrum: np.ndarray  # (N, min(n_tx, n_rx))
    n_tx: int
    n_rx: int

    @property
    def trace_power(self) -> np.ndarray:
        """Total singular power per slot, (N,)."""
        return np.sum(self.spectrum, axis=-1)


def path_loss(center_distance, cfg: RadioConfig) -> float:
    """Distance power law: reference_gain * ||d||**(-alpha).

    A single scalar per link and slot; the element offsets are negligible
    against the center distance.
    """
    d = np.linalg.norm(np.asarray(center_distance, dtype=float))
    if d == 0.0:
        raise ZeroDistance("link endpoints coincide")
    return cfg.reference_gain * d ** (-cfg.path_loss_exponent)


def los_matrix(
    tx: NodeState,
    rx: NodeState,
    cfg: RadioConfig,
    slot: int = 0,
    slot_len: float | None = None,
    n_slots: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Path losses (n_slots,) and LoS matrices (n_slots, L_rx, L_tx) of the
    link from `tx` to `rx` over `n_slots` slots from `slot`, both nodes moving
    on from their given positions as `advance` moves them.

    Entry (p, m) couples receive element p with transmit element m:
    sqrt(beta) * exp(j * theta) with theta the Doppler term plus the path
    phase 2*pi*||d_pm||/wavelength.  Only relative node motion enters the
    Doppler frequency, so a static ground unit contributes nothing.

    The in-place steps below are, entry by entry, the same operations in the
    same order as theta = 2*pi*(d.v)/(wavelength*||d||) * [elapsed] +
    2*pi*||d||/wavelength, so a slot's matrix is bit for bit the same however
    many slots are built with it.
    """
    if cfg.doppler_phase_mode == "accumulated" and slot_len is None:
        raise ValueError("accumulated Doppler phase needs slot_len")
    d_centers = trajectory(rx, n_slots, slot_len) - trajectory(tx, n_slots, slot_len)
    beta = np.array([path_loss(dc, cfg) for dc in d_centers])

    tx_off = element_offsets(tx.array)  # (Lt, 3)
    rx_off = element_offsets(rx.array)  # (Lr, 3)
    # d[n, p, m] = (rx_center + rx_off[p]) - (tx_center + tx_off[m]) at slot n
    d = (d_centers[:, None, None, :] + rx_off[None, :, None, :]) - tx_off[None, None, :, :]
    theta = d @ (tx.velocity - rx.velocity)
    # the Euclidean norm over the last axis, squaring d in place: d is the
    # largest temporary, three floats per entry
    norms = np.add.reduce(np.square(d, out=d), axis=-1)
    del d
    np.sqrt(norms, out=norms)
    theta /= cfg.wavelength * norms
    theta *= 2.0 * np.pi  # the Doppler term
    if cfg.doppler_phase_mode == "accumulated":
        theta *= (slot + np.arange(n_slots))[:, None, None] * slot_len
    norms *= 2.0 * np.pi
    norms /= cfg.wavelength
    theta += norms  # plus the path phase
    del norms
    matrix = 1j * theta
    del theta
    np.exp(matrix, out=matrix)
    matrix *= np.sqrt(beta)[:, None, None]
    return beta, matrix


def build_channel(
    tx: NodeState,
    rx: NodeState,
    cfg: RadioConfig,
    slot: int = 0,
    slot_len: float | None = None,
    n_slots: int = 1,
) -> LinkChannel:
    """The spectra of `los_matrix`'s matrices, from one batched SVD.  Both
    arrays are read-only, since repeated roll-outs share the link."""
    beta, matrix = los_matrix(tx, rx, cfg, slot, slot_len, n_slots)
    spectrum = np.linalg.svd(matrix, compute_uv=False)
    np.square(spectrum, out=spectrum)
    beta.flags.writeable = spectrum.flags.writeable = False
    return LinkChannel(
        path_loss=beta,
        spectrum=spectrum,
        n_tx=tx.array.size,
        n_rx=rx.array.size,
    )
