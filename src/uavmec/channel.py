"""Line-of-sight massive-MIMO channel matrices and their spectra.

Each link is a complex matrix per slot whose entries all share the magnitude
sqrt(path_loss); the per-entry phase combines a Doppler term and the
element-to-element path phase.  Rates follow from the singular values, which
`instance` turns into per-phase gain tables.  A link is built over a run of
slots at once, from per-slot and per-element dot products with no
element-displacement tensor, and one batched SVD, of which only the spectra
are kept.
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


def path_loss(center_distance, cfg: RadioConfig):
    """Distance power law reference_gain * ||d||**(-alpha) per row of (..., 3)
    center offsets d; the element offsets are negligible against ||d||."""
    d = np.linalg.norm(np.asarray(center_distance, dtype=float), axis=-1)
    if np.any(d == 0.0):
        raise ZeroDistance("link endpoints coincide")
    return cfg.reference_gain * d ** (-cfg.path_loss_exponent)


def _dot3(x, y) -> np.ndarray:
    """x . y over a last axis of length 3, summed term by term: alike in any batch."""
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


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

    Entry (p, m) at slot n is sqrt(beta) * exp(j * theta), theta =
    2*pi/wavelength * ((d.v)/||d|| * [elapsed] + ||d||) for d = c_n + a_p - b_m
    (center offset, receive and transmit element offsets) and the relative
    velocity v, so a static ground unit adds no Doppler.

    The (n_slots, L_rx, L_tx, 3) tensor d is never formed: d.v and
    ||d||**2 - ||c_n||**2 = 2*(c_n.a_p - c_n.b_m) + ||a_p - b_m||**2 come from
    per-slot and per-element dot products, ||d|| - ||c_n|| is the latter
    over ||d|| + ||c_n||, and the common phase of ||c_n|| is reduced to one
    wavelength exactly, which keeps a long link accurate.  At most three
    float64 layers of n_slots*L_rx*L_tx are held, and every step is
    elementwise, so a slot's matrix is bit for bit the same however many
    slots are built with it.
    """
    if cfg.doppler_phase_mode == "accumulated" and slot_len is None:
        raise ValueError("accumulated Doppler phase needs slot_len")
    c = trajectory(rx, n_slots, slot_len) - trajectory(tx, n_slots, slot_len)
    beta = path_loss(c, cfg)
    a, b = element_offsets(rx.array), element_offsets(tx.array)
    v = tx.velocity - rx.velocity
    c2 = _dot3(c, c)
    c_norm = np.sqrt(c2)
    theta = np.subtract((_dot3(c, v)[:, None] + _dot3(a, v))[:, :, None], _dot3(b, v))  # d.v
    two_c = 2.0 * c[:, None]  # exact, and so is 2*(c.a) = (2c).a
    excess = np.subtract(_dot3(two_c, a)[:, :, None], _dot3(two_c, b)[:, None, :])
    excess += np.square(a[:, None] - b).sum(axis=-1)  # ||d||**2 - ||c||**2
    dist = excess + c2[:, None, None]
    np.sqrt(dist, out=dist)
    theta /= dist
    if cfg.doppler_phase_mode == "accumulated":
        theta *= (slot + np.arange(n_slots))[:, None, None] * slot_len
    dist += c_norm[:, None, None]
    excess /= dist  # ||d|| - ||c||
    theta += excess
    del excess, dist
    k = 2.0 * np.pi / cfg.wavelength
    theta *= k
    theta += (k * np.fmod(c_norm, cfg.wavelength))[:, None, None]
    matrix = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=matrix.real)
    np.sin(theta, out=matrix.imag)
    del theta  # before the scaling's casting buffer
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
    return LinkChannel(beta, spectrum, n_tx=tx.array.size, n_rx=rx.array.size)
