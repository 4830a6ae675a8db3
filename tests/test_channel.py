import tracemalloc

import numpy as np
import pytest

from uavmec.channel import (
    CHUNK_BYTES,
    DOPPLER_PHASE_MODES,
    SLOT_PAIR_BYTES,
    RadioConfig,
    ZeroDistance,
    _displacements,
    build_channel,
    los_matrix,
    path_loss,
)
from uavmec.geometry import ArraySpec, NodeState, element_offsets, make_velocity, trajectory
from uavmec.instance import build_gain_tables, rate, spectral_sum


def radio(**kw):
    base = dict(wavelength=0.15, path_loss_exponent=2.0, reference_gain=1e-5,
                bandwidth=5e6, noise_density=1e-16)
    base.update(kw)
    return RadioConfig(**base)


def node(pos, vel, rows=1, cols=1, **angles):
    return NodeState(np.asarray(pos, float), np.asarray(vel, float),
                     ArraySpec(rows, cols, 0.075, **angles))


def link_rate(power, link, cfg, bound="exact"):
    """Rate of `link` per slot at `power` (bits/s), from its gain table with
    the link as an uplink: the exact spectrum, the "rank1" lower bound or the
    "fullrank" upper bound."""
    gains = build_gain_tables([link, link], cfg, bound)[0][0]
    return rate(gains, cfg.bandwidth, np.full(gains.shape[0], power))


def test_path_loss_reference_distance():
    assert np.isclose(path_loss([1, 0, 0], radio()), 1e-5)


def test_path_loss_at_ten_meters():
    assert np.isclose(path_loss([10, 0, 0], radio()), 1e-7)


def test_path_loss_inverse_square():
    cfg = radio()
    assert np.isclose(path_loss([2, 0, 0], cfg), path_loss([1, 0, 0], cfg) / 4)


def test_path_loss_zero_distance_raises():
    with pytest.raises(ZeroDistance):
        path_loss([0, 0, 0], radio())


def test_path_loss_gives_one_loss_per_row():
    cfg = radio()
    rows = np.array([[1.0, 0, 0], [0, 10, 0], [3, 4, 12], [-7.5, 0.2, 31]])
    assert np.array_equal(path_loss(rows, cfg), [path_loss(row, cfg) for row in rows])
    assert path_loss(rows[None], cfg).shape == (1, 4)
    with pytest.raises(ZeroDistance):
        path_loss(np.vstack([rows, np.zeros(3)]), cfg)


def test_scalar_channel_magnitude_and_singular_value():
    cfg = radio()
    tx = node([0, 0, 0], make_velocity(16.67, np.pi / 3))
    rx = node([0, 0, 20], [0, 0, 0])
    link = build_channel(tx, rx, cfg)
    beta = path_loss([0, 0, 20], cfg)
    assert np.allclose(np.abs(los_matrix(tx, rx, cfg)[1]), np.sqrt(beta))
    assert np.isclose(link.spectrum[0, 0], beta)


def test_frobenius_power_identity():
    cfg = radio()
    rng = np.random.default_rng(5)
    for _ in range(10):
        rows_t, cols_t = rng.integers(1, 7, 2)
        rows_r, cols_r = rng.integers(1, 7, 2)
        tx = node(rng.normal(size=3) * 5, make_velocity(10, 0.5), rows_t, cols_t,
                  slant=0.3, downtilt=0.2, bearing=1.0)
        rx = node(rng.normal(size=3) * 5 + [0, 0, 30], [0, 0, 0], rows_r, cols_r,
                  slant=0.3, downtilt=0.2, bearing=1.0)
        link = build_channel(tx, rx, cfg)
        fro2 = np.linalg.norm(los_matrix(tx, rx, cfg)[1][0], "fro") ** 2
        expected = link.path_loss[0] * tx.array.size * rx.array.size
        assert abs(fro2 - expected) <= 1e-9 * expected
        assert abs(link.trace_power[0] - fro2) <= 1e-9 * fro2


def test_table_size_array_trace_power():
    cfg = radio()
    angles = dict(slant=np.pi / 3, downtilt=np.pi / 4, bearing=np.pi / 3)
    tx = node([10 / np.tan(np.pi / 3), 0, 0], make_velocity(16.67, np.pi / 3), 6, 6, **angles)
    rx = node([0, 0, 10.0], make_velocity(10, np.pi / 3, np.pi / 9), 6, 6, **angles)
    link = build_channel(tx, rx, cfg)
    assert link.spectrum[0, 0] > 0
    assert np.isclose(link.trace_power[0], link.path_loss[0] * 1296, rtol=1e-9)


def test_spectral_sum_matches_a_plain_sum():
    # random spectra over 1e-30..1e4 with zero-padded columns, as the (L,)
    # spectrum of one link, a (K, N, L) gain table and a phase-leading (P, 1,
    # K, N, L) table lined up with a time price of shape (M, K, N); every term
    # is >= 0, so the two sums agree to 4*L ulp of the sum
    rng = np.random.default_rng(11)
    width = 36
    table = 10.0 ** rng.uniform(-30.0, 4.0, (3, 4, 40, width))
    table[..., 30:] = 0.0
    table[1, :, ::3, 9:] = 0.0
    lead = table[:, None]
    price_axis = rng.uniform(0.5, 2.0, (3, 5, 4, 40))[..., None]
    for a in (table[0, 0, 0], table[0], lead, price_axis * lead, table[..., ::2]):
        tol = 4 * a.shape[-1] * np.finfo(float).eps
        for got, want in ((spectral_sum(a), a.sum(axis=-1)), (spectral_sum(a, a), (a * a).sum(axis=-1))):
            assert got.shape == want.shape
            assert (np.abs(got - want) <= tol * want).all()


def test_rate_zero_power():
    cfg = radio()
    tx = node([0, 0, 0], [0, 0, 0])
    rx = node([0, 0, 20], [0, 0, 0])
    link = build_channel(tx, rx, cfg)
    assert link_rate(0.0, link, cfg)[0] == 0.0
    assert link_rate(0.0, link, cfg, "rank1")[0] == 0.0
    assert link_rate(0.0, link, cfg, "fullrank")[0] == 0.0


def test_scalar_link_rate_value():
    # 20 m scalar link at 35 dBm: snr = p*beta/(B*N0), rate = B*log2(1+snr)
    cfg = radio()
    tx = node([0, 0, 0], [0, 0, 0])
    rx = node([0, 0, 20], [0, 0, 0])
    link = build_channel(tx, rx, cfg)
    p = 10 ** 3.5 / 1000.0
    snr = p * 2.5e-8 / (5e6 * 1e-16 * 1)
    expected = 5e6 * np.log2(1 + snr)
    got = link_rate(p, link, cfg)[0]
    assert np.isclose(got, expected, rtol=1e-9)
    assert np.isclose(got, 3.66e7, rtol=0.01)


def test_rank_one_rate_equals_lower_bound():
    cfg = radio()
    tx = node([0, 0, 0], [0, 0, 0])
    rx = node([0, 0, 20], [0, 0, 0], rows=3, cols=2)
    link = build_channel(tx, rx, cfg)  # single tx antenna: exactly rank 1
    for p in (0.01, 0.5, 3.0):
        assert np.isclose(
            link_rate(p, link, cfg), link_rate(p, link, cfg, "rank1"),
            rtol=1e-12,
        )


def test_bounds_coincide_for_single_stream():
    cfg = radio()
    tx = node([0, 0, 0], [0, 0, 0], rows=4, cols=4)
    rx = node([0, 0, 20], [0, 0, 0], rows=1, cols=1)
    link = build_channel(tx, rx, cfg)
    assert np.isclose(
        link_rate(1.0, link, cfg, "rank1"), link_rate(1.0, link, cfg, "fullrank")
    )


def test_rate_between_bounds_over_random_geometries():
    cfg = radio()
    rng = np.random.default_rng(7)
    for _ in range(100):
        rows_t, cols_t = rng.integers(1, 5, 2)
        rows_r, cols_r = rng.integers(1, 5, 2)
        tx = node(rng.normal(size=3) * 10, make_velocity(rng.uniform(0, 20), rng.uniform(0, 6)),
                  rows_t, cols_t, slant=rng.uniform(-1, 1), bearing=rng.uniform(0, 6))
        rx = node(rng.normal(size=3) * 10 + [0, 0, 40], [0, 0, 0], rows_r, cols_r,
                  slant=rng.uniform(-1, 1), bearing=rng.uniform(0, 6))
        link = build_channel(tx, rx, cfg)
        p = rng.uniform(0.01, 3.0)
        r = link_rate(p, link, cfg)[0]
        lo = link_rate(p, link, cfg, "rank1")[0]
        hi = link_rate(p, link, cfg, "fullrank")[0]
        assert lo <= r * (1 + 1e-12) and r <= hi * (1 + 1e-12)
        sv = np.sqrt(link.spectrum[0])
        rank_one = sv.size == 1 or sv[1] <= 1e-9 * sv[0]
        if rank_one:
            assert np.isclose(r, lo, rtol=1e-9)
        else:
            assert r > lo * (1 + 1e-12)


def test_trace_power_matches_trace_form():
    cfg = radio()
    tx = node([4, 2, 0], make_velocity(12, 0.4), 3, 4, slant=0.3, bearing=0.9)
    rx = node([0, 0, 35], [0, 0, 0], 4, 2, slant=0.3, bearing=0.9)
    link = build_channel(tx, rx, cfg)
    matrix = los_matrix(tx, rx, cfg)[1][0]
    trace = np.trace(matrix @ matrix.conj().T).real
    assert abs(link.trace_power[0] - trace) <= 1e-9 * trace
    sv = np.linalg.svd(matrix, compute_uv=False)
    assert abs(link.trace_power[0] - np.sum(sv**2)) <= 1e-9 * trace


def test_singular_values_invariant_under_global_phase():
    cfg = radio()
    tx = node([3, 1, 0], make_velocity(10, 0.3), 3, 3, slant=0.2)
    rx = node([0, 0, 25], [0, 0, 0], 3, 3, slant=0.2)
    link = build_channel(tx, rx, cfg)
    rotated = los_matrix(tx, rx, cfg)[1][0] * np.exp(1j * 1.234)
    sv = np.linalg.svd(rotated, compute_uv=False)
    assert np.allclose(np.sort(sv)[::-1], np.sqrt(link.spectrum[0]), rtol=1e-12)


def test_rate_increasing_and_concave_in_power():
    cfg = radio()
    tx = node([5, 0, 0], [0, 0, 0], 2, 3)
    rx = node([0, 0, 30], [0, 0, 0], 3, 2)
    link = build_channel(tx, rx, cfg)
    p = np.linspace(0.01, 3.0, 40)
    r = np.array([link_rate(x, link, cfg)[0] for x in p])
    first = np.diff(r)
    second = np.diff(first)
    assert (first > 0).all()
    assert (second < 1e-6 * r.max()).all()


def test_accumulated_doppler_mode():
    cfg = radio(doppler_phase_mode="accumulated")
    tx = node([5, 0, 0], make_velocity(16, 0.5), 2, 2)
    rx = node([0, 0, 30], [0, 0, 0], 2, 2)
    with pytest.raises(ValueError):
        build_channel(tx, rx, cfg, slot=3)
    link = build_channel(tx, rx, cfg, slot=3, slot_len=0.2)
    lit = build_channel(tx, rx, radio(), slot=3)
    # both modes share the path loss and total singular power
    assert np.isclose(link.trace_power[0], lit.trace_power[0], rtol=1e-9)
    assert not np.allclose(los_matrix(tx, rx, cfg, slot=3, slot_len=0.2)[1],
                           los_matrix(tx, rx, radio(), slot=3)[1])


def _displacement_matrices(tx, rx, cfg, slot, slot_len, n_slots):
    """The LoS matrices from the element displacement tensor
    d[n, p, m] = c_n + a_p - b_m, written out directly and evaluated in
    extended precision (np.longdouble, where the platform has one), so the
    float64 rounding of a long link's path phase, about 4e4 rad at 1 km,
    stays out of the comparison."""
    xp = np.longdouble
    c = (trajectory(rx, n_slots, slot_len) - trajectory(tx, n_slots, slot_len)).astype(xp)
    a, b = element_offsets(rx.array).astype(xp), element_offsets(tx.array).astype(xp)
    d = c[:, None, None, :] + a[None, :, None, :] - b[None, None, :, :]
    dist = np.sqrt(np.sum(d * d, axis=-1))
    freq = np.sum(d * (tx.velocity - rx.velocity).astype(xp), axis=-1) / (xp(cfg.wavelength) * dist)
    if cfg.doppler_phase_mode == "accumulated":
        freq *= ((slot + np.arange(n_slots)) * xp(slot_len))[:, None, None]
    theta = 2 * xp(np.pi) * (freq + dist / xp(cfg.wavelength))
    beta = cfg.reference_gain * np.sum(c * c, axis=-1) ** (-xp(cfg.path_loss_exponent) / 2)
    return (np.sqrt(beta)[:, None, None] * (np.cos(theta) + 1j * np.sin(theta))).astype(complex)


UAV_POS, UAV_VEL = [0, 0, 20.0], make_velocity(10, np.pi / 3, np.pi / 9)
VEH_POS, VEH_VEL = [20 / np.tan(np.pi / 3), 0, 0], make_velocity(16.67, np.pi / 3)
TILT = dict(slant=np.pi / 3, downtilt=np.pi / 4, bearing=np.pi / 3)
# (tx, rx, doppler mode) per link
DISPLACEMENT_LINKS = {
    "stock-literal": (node(VEH_POS, VEH_VEL, 6, 6), node(UAV_POS, UAV_VEL, 6, 6), "literal"),
    "stock-accumulated": (node(VEH_POS, VEH_VEL, 6, 6), node(UAV_POS, UAV_VEL, 6, 6), "accumulated"),
    "16-to-64": (node(VEH_POS, VEH_VEL, 4, 4), node(UAV_POS, UAV_VEL, 8, 8), "accumulated"),
    "64-to-36": (node(UAV_POS, UAV_VEL, 8, 8), node([-25, 5, 0], [0, 0, 0], 6, 6), "literal"),
    "rotated": (node(VEH_POS, VEH_VEL, 6, 6, **TILT), node(UAV_POS, UAV_VEL, 4, 4, slant=-0.4, bearing=2.0),
                "accumulated"),
    "1.2-km": (node([1200, 300, 0], make_velocity(30, 2.0), 6, 6),
               node([0, 0, 60], make_velocity(20, 0.1, 0.05), 6, 6), "accumulated"),
    # center distance 0.61 m against an aperture of 0.525 m per side
    "aperture-distance": (node([0, 0, 0], make_velocity(1, 0), 8, 8), node([0.1, 0, 0.6], [0, 0, 0], 8, 8),
                          "literal"),
    # an odd-by-even lattice of 6 x 6 displacements
    "3x5-to-4x2": (node(VEH_POS, VEH_VEL, 3, 5, **TILT), node(UAV_POS, UAV_VEL, 4, 2, **TILT), "accumulated"),
    # no shared lattice: every element pair has its own displacement
    "spacing-differs": (node(VEH_POS, VEH_VEL, 4, 4),
                        NodeState(np.asarray(UAV_POS), UAV_VEL, ArraySpec(3, 3, 0.05)), "literal"),
}


def test_alike_arrays_displace_on_one_lattice():
    # mixed parity and a shared tilt: rx 2 x 3 against tx 5 x 4 take
    # (2+5-1)(3+4-1) = 36 distinct displacements for their 6 * 20 pairs
    rx, tx = ArraySpec(2, 3, 0.075, **TILT), ArraySpec(5, 4, 0.075, **TILT)
    delta, index = _displacements(rx, tx)
    pairs = element_offsets(rx)[:, None] - element_offsets(tx)
    assert delta.shape == (36, 3) and index.shape == (6, 20)
    assert np.array_equal(np.unique(index), np.arange(36))
    assert np.abs(delta[index] - pairs).max() <= 1e-15
    # swapped, the roles of the two arrays' index differences swap too
    delta, index = _displacements(tx, rx)
    assert delta.shape == (36, 3) and np.abs(delta[index] + pairs.transpose(1, 0, 2)).max() <= 1e-15


@pytest.mark.parametrize("tx", [ArraySpec(5, 4, 0.05, **TILT), ArraySpec(5, 4, 0.075, slant=np.pi / 3),
                                ArraySpec(5, 4, 0.075, **dict(TILT, bearing=1.0))])
def test_arrays_unlike_in_spacing_or_angles_list_every_pair(tx):
    rx = ArraySpec(2, 3, 0.075, **TILT)
    delta, index = _displacements(rx, tx)
    assert delta.shape == (6 * 20, 3) and index is None
    assert np.array_equal(delta.reshape(6, 20, 3), element_offsets(rx)[:, None] - element_offsets(tx))


@pytest.mark.parametrize("link", DISPLACEMENT_LINKS)
def test_los_matrix_matches_the_displacement_formula(link):
    tx, rx, mode = DISPLACEMENT_LINKS[link]
    cfg = radio(doppler_phase_mode=mode)
    horizon = (3, 0.2, 5)  # slots 3 to 7
    beta, matrix = los_matrix(tx, rx, cfg, *horizon)
    want = _displacement_matrices(tx, rx, cfg, *horizon)
    assert matrix.shape == want.shape == (5, rx.array.size, tx.array.size)
    assert np.all(np.abs(matrix - want).max(axis=(1, 2)) <= 1e-11 * np.sqrt(beta))
    s = np.linalg.svd(want, compute_uv=False)
    built = np.sqrt(build_channel(tx, rx, cfg, *horizon).spectrum)
    assert np.all(np.abs(built - s).max(axis=1) <= 1e-13 * s[:, 0])


@pytest.mark.parametrize("link", DISPLACEMENT_LINKS)
def test_log_determinants_match_the_spectral_sums(link, monkeypatch):
    # ln det(I + c H^H H) = sum_l log1p(c * sigma_l**2) at each coefficient,
    # from a Gram on the smaller side (16-to-64, 64-to-36), off the lattice
    # (spacing-differs) and with the Gram scaled from one coefficient to the
    # next; a repeated coefficient is taken once
    tx, rx, mode = DISPLACEMENT_LINKS[link]
    cfg = radio(doppler_phase_mode=mode)
    c = 1.0 / (cfg.bandwidth * cfg.noise_density * tx.array.size)  # 1 W over the transmit array
    coefficients = (c, 0.0, c / 3, c)
    calls, slogdet = [], np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda a: calls.append(len(a)) or slogdet(a))
    built = build_channel(tx, rx, cfg, 3, 0.2, 5, coefficients, spectrum=False)
    assert sum(calls) == 2 * 5  # each slot once per distinct positive coefficient
    spectrum = build_channel(tx, rx, cfg, 3, 0.2, 5).spectrum
    assert built.spectrum is None and list(built.log_dets) == [c, 0.0, c / 3]
    assert np.array_equal(built.log_dets[0.0], np.zeros(5))
    for coefficient in (c, c / 3):
        want = np.log1p(coefficient * spectrum).sum(axis=-1)
        assert np.all(np.abs(built.log_dets[coefficient] - want) <= 1e-12 * want)


@pytest.mark.parametrize("mode", DOPPLER_PHASE_MODES)
def test_chunked_build_equals_the_per_slot_build(mode):
    # 8x8 arrays build several slots per chunk, and 41 slots are no whole
    # number of chunks; from slot 3 the accumulated Doppler phase's elapsed
    # slot must carry across chunks
    tx, rx = node(VEH_POS, VEH_VEL, 8, 8), node(UAV_POS, UAV_VEL, 8, 8)
    cfg, (slot, slot_len, n_slots) = radio(doppler_phase_mode=mode), (3, 0.2, 41)
    chunk = CHUNK_BYTES // (16 * 64 * 64)
    assert chunk > 1 and n_slots % chunk != 0

    def at(moving, n):
        return NodeState(trajectory(moving, n_slots, slot_len)[n], moving.velocity, moving.array)

    per_slot = np.array([los_matrix(at(tx, n), at(rx, n), cfg, slot + n, slot_len)[1][0] for n in range(n_slots)])
    spectrum = np.array([np.linalg.svd(matrix, compute_uv=False) for matrix in per_slot]) ** 2
    assert np.array_equal(build_channel(tx, rx, cfg, slot, slot_len, n_slots).spectrum, spectrum)
    assert np.array_equal(los_matrix(tx, rx, cfg, slot, slot_len, n_slots)[1], per_slot)


def test_build_peak_memory_stays_near_the_complex_matrix():
    # L = 64 on every array: over the stock 40-slot horizon the complex
    # matrices are two float64 layers of N * L_rx * L_tx, and a build holds
    # at most 3.5 such layers; built in chunks of whole slots, its peak
    # hardly grows with the horizon
    tx, rx = node(VEH_POS, VEH_VEL, 8, 8), node(UAV_POS, UAV_VEL, 8, 8)
    layer = 8 * 40 * 64 * 64
    peaks = {}
    for n_slots in (40, 160):
        tracemalloc.start()
        try:
            build_channel(tx, rx, radio(), 0, 0.2, n_slots)
            peaks[n_slots] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) <= 3.5 * layer
    assert peaks[160] <= 1.2 * peaks[40]


@pytest.mark.parametrize("spectrum", [False, True])
def test_log_determinant_slot_stays_within_the_pair_budget(spectrum):
    # one slot of 24 x 24 arrays on one lattice, three cap coefficients: the
    # matrix, its index, the Gram and one block of conjugated columns stay
    # within `validate`'s bytes per element pair (tracemalloc does not see
    # LAPACK's own copies)
    tx, rx = node(VEH_POS, VEH_VEL, 24, 24), node(UAV_POS, UAV_VEL, 24, 24)
    tracemalloc.start()
    try:
        build_channel(tx, rx, radio(), 0, 0.2, 1, (1e7, 3e6, 0.0), spectrum)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SLOT_PAIR_BYTES * 24 ** 4
