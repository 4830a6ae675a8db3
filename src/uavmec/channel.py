"""Line-of-sight massive-MIMO channel matrices, their spectra and their
log-determinants.

Each link is a complex matrix per slot whose entries all share the magnitude
sqrt(path_loss); the per-entry phase combines a Doppler term and the
element-to-element path phase.  A solver's rates follow from the singular
values, which `instance` turns into one gain table; a rate at one fixed power
needs only ln det(I + c H^H H) (Telatar 1999), which takes one Gram product and
one LU factorization and no SVD.  A link's phases run once per slot and
distinct element displacement, on one lattice for alike arrays, and gather into
whole-slot chunks of matrices under a byte budget, each put through a batched
SVD, a Gram product and `slogdet`, or both.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import ArraySpec, NodeState, element_offsets, trajectory


class ZeroDistance(Exception):
    """Raised when a link would be evaluated at zero center distance."""


DOPPLER_PHASE_MODES = ("literal", "accumulated")

# Complex matrix bytes per `build_channel` chunk: small, so the allocator reuses
# a chunk's freed layers.  A chunk never splits a slot.  At L = 256 to 1024 a lattice
# slot peaks under tracemalloc at 24-25 B per element pair for the SVD (matrix and
# index) and at 40-47 B for the log-determinants (matrix, index, Gram and one block
# of conjugated columns), and either grows RSS by 43-47 B at L >= 576 with LAPACK's
# copies; `validate` caps 48 B.  Arrays unlike in spacing or angles, which no
# scenario builds, hold every pair's displacement: 64 B traced for the SVD, 72-78 B
# with the Gram, and 81-83 B of RSS either way.
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
    """One link over a run of slots: per slot its path loss, its squared
    singular values, largest first (None in a build that took no spectra), and
    ln det(I + c * H^H H) for each coefficient c the build took.  The matrices
    are not kept; `los_matrix` rebuilds them."""

    path_loss: np.ndarray  # (N,)
    spectrum: np.ndarray | None  # (N, min(n_tx, n_rx))
    n_tx: int
    n_rx: int
    log_dets: dict = field(default_factory=dict)  # coefficient -> (N,)

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


def _los_slots(tx, rx, cfg, slot, slot_len, n_slots):
    """Path losses (n_slots,) and a function from a slice of the slots to their
    `los_matrix` matrices; all but a chunk's own layers is prepared once, and
    the function keeps no reference to a matrix it returned."""
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

    def matrices(s):
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
        if index is not None:
            matrix = matrix.take(index, axis=1)
        return matrix.reshape(len(matrix), rx.array.size, tx.array.size)

    return beta, matrices


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
    beta, matrices = _los_slots(tx, rx, cfg, slot, slot_len, n_slots)
    return beta, matrices(slice(None))


def _gram(matrix) -> np.ndarray:
    """The Gram matrices M^H M of a stack of matrices on their smaller side: M is
    the matrix or its transpose, whose Gram is the conjugate of H H^H and has its
    determinant.  The conjugated columns go in blocks of at most `CHUNK_BYTES`,
    so the product holds no whole conjugate copy."""
    m = matrix if matrix.shape[-1] <= matrix.shape[-2] else matrix.swapaxes(-1, -2)
    n_slots, rows, size = m.shape
    gram = np.empty((n_slots, size, size), dtype=complex)
    step = max(1, CHUNK_BYTES // (16 * n_slots * rows))
    for i in range(0, size, step):
        np.matmul(m[..., i:i + step].conj().swapaxes(-1, -2), m, out=gram[:, i:i + step])
    return gram


def _log_dets(gram, coefficients) -> list:
    """ln det(I + c*G) of each Gram matrix G for each positive coefficient c in
    turn, from one LU factorization (`slogdet`) each.  `gram` is scaled in place
    from one coefficient to the next and its diagonal restored after each, so no
    copy is made beside the factorization's own."""
    diagonal = gram.reshape(len(gram), -1)[:, ::gram.shape[-1] + 1]
    scale, out = 1.0, []
    for c in coefficients:
        gram *= c / scale
        scale, kept = c, diagonal.copy()
        diagonal += 1.0
        out.append(np.linalg.slogdet(gram)[1])
        diagonal[...] = kept
    return out


def build_channel(tx: NodeState, rx: NodeState, cfg: RadioConfig, slot: int = 0,
                  slot_len: float | None = None, n_slots: int = 1, coefficients=(),
                  spectrum: bool = True) -> LinkChannel:
    """A link's path losses and, from `los_matrix`'s matrices H, each slot's
    spectrum when `spectrum` is set and ln det(I + c * H^H H) for each distinct
    non-negative coefficient c in `coefficients`.

    The matrices come in chunks of whole slots, about `CHUNK_BYTES` of complex
    matrix each, so a build's peak memory does not grow with the horizon.  A
    chunk goes through one batched SVD for the spectra, and through one Gram
    product and one `slogdet` per positive coefficient for the log-determinants
    (det(I + c H^H H) = det(I + c H H^H), so the Gram is taken on the smaller
    side); the matrix is freed before the log-determinants.  Roll-outs share the
    link, so its arrays are read-only."""
    n_tx, n_rx = tx.array.size, rx.array.size
    beta, matrices = _los_slots(tx, rx, cfg, slot, slot_len, n_slots)
    chunk = max(1, CHUNK_BYTES // (16 * n_tx * n_rx))
    spectra = np.empty((n_slots, min(n_tx, n_rx))) if spectrum else None
    log_dets = {c: np.zeros(n_slots) for c in coefficients}
    positive = [c for c in log_dets if c > 0]
    for start in range(0, n_slots, chunk):
        slots = slice(start, start + chunk)
        matrix = matrices(slots)
        if spectra is not None:
            spectra[slots] = np.linalg.svd(matrix, compute_uv=False)
        if positive:
            gram = _gram(matrix)
            del matrix  # before the log-determinants' copies
            for c, values in zip(positive, _log_dets(gram, positive)):
                log_dets[c][slots] = values
            del gram  # before the next chunk's matrix
    if spectra is not None:
        np.square(spectra, out=spectra)
        spectra.flags.writeable = False
    for values in (beta, *log_dets.values()):
        values.flags.writeable = False
    return LinkChannel(beta, spectra, n_tx=n_tx, n_rx=n_rx, log_dets=log_dets)
