"""Independent verification machinery: brute-force grid search, sampled
convexity probing, and KKT residuals at a solver output.

Every check evaluates the model that `protocol` and `energy` define (block
energy, phase loads, compute time) and reuses nothing of the dual solver:
the grid search evaluates the objective directly over a product grid, and
the KKT check differentiates the Lagrangian by finite differences.
"""

from __future__ import annotations

import numpy as np

from .energy import compute_time
from .instance import rate
from .protocol import Allocation, block_energy, carry_time, check_feasible, phase_loads, wtec

# Grid steps of the brute-force search over [0, cap]: the UAV and local bits
# axes and the four transmit-time axes.  Ground-unit bits take their minimal
# feasible value and each transmit power the minimal value that carries its
# phase's bits in the allotted time; both reductions are exact for the
# minimum, so only these six axes are gridded.  Then the powers per rate table
# and the relative tolerances of a bisected power and of the boundedness margin.
BIT_STEPS, TIME_STEPS, RATE_POINTS, POWER_RTOL, MARGIN_RTOL = 14, 12, 4000, 1e-13, 1e-9


class NoFeasiblePoint(Exception):
    """The grid contains no point satisfying every constraint."""


def _rate_table(inst, phase: int):
    """Monotone (rate, power) table for inverting the rate curve."""
    pmax = inst.power_max[phase]
    p = np.concatenate([[0.0], np.geomspace(pmax * 1e-9, pmax, RATE_POINTS)])
    return rate(inst.gains[phase], inst.bandwidth, p.reshape(-1, 1, 1))[:, 0, 0], p


def _exact_min_power(inst, phase: int, load: float, time: float):
    """Bisected minimal power carrying `load` bits in `time` seconds."""
    if load <= 0:
        return 0.0
    if time <= 0:
        return np.inf
    target = load / time
    shape, gains = inst.min_bits.shape, inst.gains[phase]
    pmax = inst.power_max[phase]
    if float(rate(gains, inst.bandwidth, np.full(shape, pmax))[0, 0]) < target:
        return np.inf
    lo, hi = 0.0, pmax
    while hi - lo > POWER_RTOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if float(rate(gains, inst.bandwidth, np.full(shape, mid))[0, 0]) < target:
            lo = mid
        else:
            hi = mid
    return hi


def grid_search_primal(inst):
    """Exhaustive minimum of the weighted energy over a product grid.

    Only single-vehicle, single-slot instances are supported (the grid is
    combinatorial).  Returns (best WTEC, best Allocation); raises
    NoFeasiblePoint when nothing on the grid is feasible.
    """
    if inst.min_bits.shape != (1, 1):
        raise ValueError("grid search is a desk-scale oracle: need K=1, N=1")

    sub = inst.subslot
    b_min = float(inst.min_bits[0, 0])
    tables = [_rate_table(inst, ph) for ph in range(4)]

    def min_power_interp(ph, loads, times):
        """Approximate minimal power per grid point via the rate table."""
        rates_tab, p_tab = tables[ph]
        target = np.where(times > 0, loads / np.where(times > 0, times, 1.0), np.inf)
        p = np.interp(target, rates_tab, p_tab, right=np.inf)
        return np.where(loads <= 0, 0.0, np.where(times <= 0, np.inf, p))

    times = np.stack(np.meshgrid(*[np.linspace(0.0, sub, TIME_STEPS)] * 4, indexing="ij"))
    t_sum = times.sum(axis=0)
    p_cap = inst.power_max.reshape(4, 1, 1, 1, 1) * (1 + 1e-9)

    best = []  # (screening value, bits (3, 1, 1), loads (4, 1, 1), times (4,))
    for bl in np.linspace(0.0, inst.bits_local_cap, BIT_STEPS):
        for bu in np.linspace(0.0, inst.bits_uav_cap, BIT_STEPS):
            bits = np.array([bl, bu, max(b_min - bl - bu, 0.0)]).reshape(3, 1, 1)
            t_cu = compute_time(bits[1], inst.uav_compute)
            if t_cu > sub * (1 + 1e-12):
                continue
            ok = t_sum <= (sub - t_cu) * (1 + 1e-12)
            if not ok.any():
                continue
            loads = phase_loads(inst, bits[1], bits[2])
            powers = np.stack([min_power_interp(ph, loads[ph], times[ph]) for ph in range(4)])
            feasible = ok & (powers <= p_cap).all(axis=0)
            if not feasible.any():
                continue
            energy = block_energy(inst, bits[0], bits[1],
                                  np.where(np.isfinite(powers), powers, 0.0), times)
            i = np.argmin(np.where(feasible, energy, np.inf))
            best.append((energy.flat[i], bits, loads, times.reshape(4, -1)[:, i]))

    if not best:
        raise NoFeasiblePoint("no grid point satisfies the constraints")

    # Re-evaluate the shortlisted candidates with exact power inversion.
    best.sort(key=lambda item: item[0])
    champion = None
    for _, bits, loads, times in best[: max(8, len(best) // 10)]:
        powers = np.array([_exact_min_power(inst, ph, loads[ph].item(), times[ph])
                           for ph in range(4)])
        if not np.isfinite(powers).all():
            continue
        alloc = Allocation(*bits, powers.reshape(4, 1, 1),
                           np.where(loads > 0, times.reshape(4, 1, 1), 0.0))
        if not check_feasible(alloc, inst):
            continue
        value = wtec(alloc, inst)
        if champion is None or value < champion[0]:
            champion = (value, alloc)
    if champion is None:
        raise NoFeasiblePoint("no shortlisted grid point survives the exact check")
    return champion


# ---------------------------------------------------------------------------
# feasible sampling and the convexity probe
# ---------------------------------------------------------------------------

def sample_feasible(inst, count: int, rng: np.random.Generator):
    """`count` random allocations as one batch Allocation, and a (count,) mask
    of the samples that are feasible.  The batch's bits have shape
    (count, K, N) and its powers and times (4, count, K, N), phase first as
    `block_energy` reads them.

    Bits are drawn within the compute caps with the ground unit covering any
    shortfall; every phase first gets its minimum carry time at the drawn
    power, then the remaining sub-slot budget is split randomly.  Feasible by
    construction except for instances too loaded to fit at maximum power;
    the times of the infeasible samples are zero.
    """
    shape = (count,) + inst.min_bits.shape
    sub = inst.subslot

    # UAV bits capped at half the sub-slot's worth of compute so the four
    # transmit phases keep room.  Powers are drawn first (log-uniform up to
    # the cap); times then take the exact carry time plus a random share of
    # the leftover budget, which keeps every sample feasible.  Blocks whose
    # drawn powers are too weak for the budget are redrawn element-wise (the
    # blocks are independent).
    bu_hi = 0.5 * inst.bits_uav_cap
    bl = rng.uniform(0.0, inst.bits_local_cap, shape)
    bu = rng.uniform(0.0, bu_hi, shape)
    br = np.zeros(shape)
    powers = np.zeros((4,) + shape)
    rates = np.zeros((4,) + shape)
    ok = np.zeros(shape, dtype=bool)
    for round_no in range(40):
        redo = ~ok
        if not redo.any():
            break
        shortfall = np.maximum(inst.min_bits[None] - bl - bu, 0.0)
        br_new = shortfall + rng.uniform(0.0, 0.1, shape) * np.maximum(inst.min_bits[None], 1.0)
        br = np.where(redo, br_new, br)
        # the low-power end of the draw range rises for stragglers so heavy
        # blocks find carrying powers in a handful of rounds
        floor = min(-2.0 + 0.5 * round_no, -0.3)
        for ph in range(4):
            p_new = inst.power_max[ph] * 10.0 ** rng.uniform(floor, 0.0, shape)
            powers[ph] = np.where(redo, p_new, powers[ph])
        rates = np.where(redo, rate(inst.gains[:, None], inst.bandwidth, powers), rates)  # (4, 1, K, N, L) gains
        ok = sum(carry_time(phase_loads(inst, bu, br), rates)) <= (sub - compute_time(bu, inst.uav_compute)) * 0.999
        keep = ok | ~redo
        bl = np.where(keep, bl, rng.uniform(0.0, inst.bits_local_cap, shape))
        bu = np.where(keep, bu, rng.uniform(0.0, bu_hi, shape))

    t_min = carry_time(phase_loads(inst, bu, br), rates)
    leftover = np.maximum(sub - compute_time(bu, inst.uav_compute) - t_min.sum(axis=0), 0.0)
    frac = rng.uniform(0.05, 1.0, (4,) + shape)
    frac /= frac.sum(axis=0)
    times = t_min * (1 + 1e-9) + frac * leftover * rng.uniform(0.5, 0.95, shape)
    good = ok.all(axis=(1, 2))
    times[:, ~good] = 0.0
    return Allocation(bl, bu, br, powers, times), good


def wtec_batch(inst, bits, powers, times) -> np.ndarray:
    """`protocol.wtec` per sample of (count, K, N)-shaped bits and
    (4, count, K, N)-shaped powers and times."""
    return block_energy(inst, bits[0], bits[1], powers, times).sum(axis=(-2, -1))


def convexity_probe(inst, samples: int = 1000, seed: int = 0, objective=wtec_batch):
    """Midpoint-convexity violation of a batch objective
    `(inst, bits, powers, times) -> (count,)` over random feasible pairs,
    measured in the convex (bits, radiated energy, time) parameterization.

    Returns the worst violation of f(mid) <= (f(a)+f(b))/2 + 1e-9*|f|, which
    is non-positive for a convex objective.
    """
    rng = np.random.default_rng(seed)
    a, a_ok = sample_feasible(inst, samples, rng)
    b, b_ok = sample_feasible(inst, samples, rng)
    keep = a_ok & b_ok
    if not keep.any():
        raise NoFeasiblePoint("could not sample a feasible pair")
    ends = [((x.bits_local, x.bits_uav, x.bits_rsu), x.powers, x.times) for x in (a, b)]
    (bits_a, powers_a, times_a), (bits_b, powers_b, times_b) = ends
    bits_m = tuple(0.5 * (x + y) for x, y in zip(bits_a, bits_b))
    energy_m = 0.5 * (powers_a * times_a + powers_b * times_b)
    times_m = 0.5 * (times_a + times_b)
    with np.errstate(divide="ignore", invalid="ignore"):
        powers_m = np.where(times_m > 0, energy_m / np.where(times_m > 0, times_m, 1.0), 0.0)
    fa, fb = (objective(inst, *end) for end in ends)
    fm = objective(inst, bits_m, powers_m, times_m)
    scale = np.maximum.reduce([np.abs(fa), np.abs(fb), np.abs(fm)])
    violation = fm - 0.5 * (fa + fb) - 1e-9 * scale
    return float(violation[keep].max())


# ---------------------------------------------------------------------------
# KKT residuals
# ---------------------------------------------------------------------------

def constraint_residuals(inst, alloc: Allocation) -> np.ndarray:
    """Signed residuals (<= 0 when satisfied) of the six dualized constraint
    families, shape (K, N, 6)."""
    times, powers = alloc.times, alloc.powers
    loads = phase_loads(inst, alloc.bits_uav, alloc.bits_rsu)
    t_cu = compute_time(alloc.bits_uav, inst.uav_compute)
    return np.stack(
        [
            inst.min_bits - alloc.bits_local - alloc.bits_uav - alloc.bits_rsu,
            times.sum(axis=0) + t_cu - inst.subslot,
            *(loads - times * inst.rate(powers)),
        ],
        axis=-1,
    )


def _lagrangian_blocks(inst, alloc: Allocation, duals: np.ndarray) -> np.ndarray:
    """Per-(k, n) Lagrangian value: weighted energy plus priced residuals."""
    blocks = block_energy(inst, alloc.bits_local, alloc.bits_uav, alloc.powers, alloc.times)
    return blocks + (duals * constraint_residuals(inst, alloc)).sum(axis=-1)


def kkt_residuals(inst, alloc: Allocation, duals: np.ndarray) -> dict:
    """Four-block KKT summary at a solver output.

    Stationarity uses finite differences of the Lagrangian with steps
    relative to each coordinate's own magnitude, central wherever the
    coordinate is at least one step above zero and one-sided into the domain
    below that; the reported residual is the first-order Lagrangian change
    under a relative perturbation of the coordinate, divided by the
    objective (bound coordinates contribute their projected descent
    direction instead).
    """
    obj_scale = max(abs(wtec(alloc, inst)), 1e-12)
    # (field, index into it, upper bound): the three bit routes, then each
    # phase's power and time
    coords = [("bits_local", (), inst.bits_local_cap), ("bits_uav", (), inst.bits_uav_cap),
              ("bits_rsu", (), np.inf)]
    coords += [(name, (ph,), hi) for name, caps in (("powers", inst.power_max),
                                                     ("times", [inst.subslot] * 4))
               for ph, hi in enumerate(caps)]
    stationarity = 0.0
    for name, index, hi in coords:
        x = getattr(alloc, name)[index]
        coord_scale = hi if np.isfinite(hi) else max(float(np.max(np.abs(x))), 1.0)
        h = np.maximum(1e-6 * np.abs(x), 1e-10 * coord_scale)
        lower = np.maximum(x - h, 0.0)
        up, dn = alloc.copy(), alloc.copy()
        getattr(up, name)[index] = x + h
        getattr(dn, name)[index] = lower
        grad = (_lagrangian_blocks(inst, up, duals) - _lagrangian_blocks(inst, dn, duals)) / (x + h - lower)
        at_lo = x <= 1e-9 * coord_scale
        at_hi = np.isfinite(hi) & (x >= hi * (1 - 1e-9))
        interior_res = np.where(~at_lo & ~at_hi, np.abs(grad) * np.abs(x), 0.0)
        lo_res = np.where(at_lo, np.maximum(-grad, 0.0) * coord_scale, 0.0)
        hi_res = np.where(at_hi, np.maximum(grad, 0.0) * coord_scale, 0.0)
        worst = float(np.max(interior_res + lo_res + hi_res))
        stationarity = max(stationarity, worst / obj_scale)

    residuals = constraint_residuals(inst, alloc)
    comp_slack = float(np.max(np.abs(duals * residuals))) / obj_scale
    primal = check_feasible(alloc, inst)
    xi = inst.output_ratio[:, None]
    margin = (duals[..., 2] + duals[..., 3] + xi * duals[..., 5] - duals[..., 0])
    margin_scale = (duals[..., 2] + duals[..., 3] + xi * duals[..., 5] + duals[..., 0] + 1e-300)
    dual_ok = bool((duals >= -1e-15).all() and (margin >= -MARGIN_RTOL * margin_scale).all())
    return {
        "stationarity": stationarity,
        "complementary_slackness": comp_slack,
        "primal_feasible": primal.feasible,
        "primal_violations": primal.violations,
        "dual_feasible": dual_ok,
    }
