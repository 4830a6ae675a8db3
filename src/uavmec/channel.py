"""Line-of-sight massive-MIMO channel matrices and their spectra.

Each link is a complex matrix per slot whose entries all share the magnitude
sqrt(path_loss); the per-entry phase combines a Doppler term and the
element-to-element path phase.  Rates follow from the singular values, which
`instance` turns into one gain table.  A link's phases run once per slot and
distinct element displacement, on one lattice for alike arrays, and gather into
whole-slot chunks of matrices under a byte budget, each put through a batched SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import ArraySpec, NodeState, element_offsets, trajectory


class ZeroDistance(Exception):
    """Raised when a link would be evaluated at zero center distance."""


DOPPLER_PHASE_MODES = ("literal", "accumulated")

# Complex matrix bytes per `build_channel` chunk: small, so the allocator reuses
# a chunk's freed layers.  A chunk never splits a slot; at L = 256 to 1024 a lattice slot
# peaks at 24-25 B per element pair under tracemalloc (matrix and index) and grows RSS by
# ~41 B with the SVD's copy; `validate` caps 48 B (unlike arrays, no scenario's: 64 B).
CHUNK_BYTES, SLOT_PAIR_BYTES, SLOT_BYTES_MAX = 256 * 1024, 48, 256 * 2**20


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


def _displacements(rx: ArraySpec, tx: ArraySpec) -> tuple[np.ndarray, np.ndarray]:
    """Distinct element displacements a_p - b_m (V, 3) and the (L_rx, L_tx) index
    of each pair's row.  On arrays alike in spacing and angles a_p - b_m depends
    only on the row and column index differences: the V = (R_rx+R_tx-1)(C_rx+C_tx-1)
    rows are one such array's element offsets.  Other pairs list all L_rx*L_tx
    rows in pair order, and their index is None."""
    if replace(rx, rows=tx.rows, cols=tx.cols) != tx:
        return (element_offsets(rx)[:, None] - element_offsets(tx)).reshape(-1, 3), None
    p, p_col, m, m_col = np.ogrid[:rx.rows, :rx.cols, :tx.rows, :tx.cols]
    lattice = replace(tx, rows=rx.rows + tx.rows - 1, cols=rx.cols + tx.cols - 1)
    index = (p - m + tx.rows - 1) * lattice.cols + p_col - m_col + tx.cols - 1
    return element_offsets(lattice), index.reshape(rx.size, tx.size)


def _los_chunks(tx, rx, cfg, slot, slot_len, n_slots, chunk):
    """Path losses (n_slots,) and an iterator over (slots, matrices) of `los_matrix`,
    `chunk` whole slots at a time; all but a chunk's own layers is prepared once."""
    if cfg.doppler_phase_mode == "accumulated" and slot_len is None:
        raise ValueError("accumulated Doppler phase needs slot_len")
    c = trajectory(rx, n_slots, slot_len) - trajectory(tx, n_slots, slot_len)
    beta = path_loss(c, cfg)
    (delta, index), v = _displacements(rx.array, tx.array), tx.velocity - rx.velocity
    c2, cv, delta_v, delta2 = _dot3(c, c), _dot3(c, v), _dot3(delta, v), _dot3(delta, delta)
    c_norm, two_c = np.sqrt(c2), 2.0 * c[:, None]  # 2c is exact, and so is 2*(c.delta) = (2c).delta
    k = 2.0 * np.pi / cfg.wavelength
    common, amplitude = k * np.fmod(c_norm, cfg.wavelength), np.sqrt(beta)
    elapsed = (slot + np.arange(n_slots)) * slot_len if cfg.doppler_phase_mode == "accumulated" else None

    def chunks():
        for s in (slice(start, start + chunk) for start in range(0, n_slots, chunk)):
            theta = cv[s, None] + delta_v  # d.v
            excess = _dot3(two_c[s], delta) + delta2  # ||d||**2 - ||c||**2
            dist = excess + c2[s, None]
            np.sqrt(dist, out=dist)
            theta /= dist
            if elapsed is not None:
                theta *= elapsed[s, None]
            dist += c_norm[s, None]
            excess /= dist  # ||d|| - ||c||
            theta += excess
            del excess, dist
            theta *= k
            theta += common[s, None]
            matrix = np.empty(theta.shape, dtype=complex)  # one phasor per displacement
            np.cos(theta, out=matrix.real)
            np.sin(theta, out=matrix.imag)
            del theta  # before the scaling's casting buffer
            matrix *= amplitude[s, None]
            if index is not None:  # the phasors go before the SVD's copy
                matrix = matrix.take(index, axis=1)
            yield s, matrix.reshape(len(matrix), rx.array.size, tx.array.size)

    return beta, chunks()


def los_matrix(tx: NodeState, rx: NodeState, cfg: RadioConfig, slot: int = 0,
               slot_len: float | None = None, n_slots: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Path losses (n_slots,) and LoS matrices (n_slots, L_rx, L_tx) of the
    link from `tx` to `rx` over `n_slots` slots from `slot`, both nodes moving
    on from their given positions as `advance` moves them.

    Entry (p, m) at slot n is sqrt(beta) * exp(j * theta), theta =
    2*pi/wavelength * ((d.v)/||d|| * [elapsed] + ||d||) for d = c_n + a_p - b_m
    (center offset, receive and transmit element offsets) and the relative
    velocity v, so a static ground unit adds no Doppler.

    The phase runs once per slot and distinct displacement delta = a_p - b_m
    (alike arrays have (R_rx+R_tx-1)(C_rx+C_tx-1), and one index gathers each
    slot's matrix; other arrays hold every pair's delta): d.v = c_n.v + delta.v, ||d||**2 - ||c_n||**2 = 2*c_n.delta +
    ||delta||**2, ||d|| - ||c_n|| is the latter over ||d|| + ||c_n||, and the
    common phase of ||c_n|| is reduced to one wavelength exactly, which keeps a
    long link accurate.  The stack is one chunk; each step is elementwise, so a
    slot's matrix is the same bit for bit in any chunk.
    """
    beta, chunks = _los_chunks(tx, rx, cfg, slot, slot_len, n_slots, n_slots)
    return beta, next(chunks)[1]


def build_channel(tx: NodeState, rx: NodeState, cfg: RadioConfig, slot: int = 0,
                  slot_len: float | None = None, n_slots: int = 1) -> LinkChannel:
    """The spectra of `los_matrix`'s matrices, from one batched SVD per chunk of
    whole slots, about `CHUNK_BYTES` of complex matrix each, so a build's peak
    memory does not grow with the horizon.  Roll-outs share the link, so both
    arrays are read-only."""
    n_tx, n_rx = tx.array.size, rx.array.size
    beta, chunks = _los_chunks(tx, rx, cfg, slot, slot_len, n_slots, max(1, CHUNK_BYTES // (16 * n_tx * n_rx)))
    spectrum = np.empty((n_slots, min(n_tx, n_rx)))
    for slots, matrix in chunks:
        spectrum[slots] = np.linalg.svd(matrix, compute_uv=False)
    np.square(spectrum, out=spectrum)
    beta.flags.writeable = spectrum.flags.writeable = False
    return LinkChannel(beta, spectrum, n_tx=n_tx, n_rx=n_rx)
