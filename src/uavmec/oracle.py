"""Independent verification machinery: brute-force grid search, sampled
convexity probing, and KKT residuals at a solver output.

Nothing here reuses the dual solver's logic; the grid search evaluates the
objective directly over a product grid, and the KKT check differentiates the
Lagrangian by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol import Allocation, check_feasible, wtec


class NoFeasiblePoint(Exception):
    """The grid contains no point satisfying every constraint."""


@dataclass
class GridSpec:
    """Ranges and step counts for the brute-force search axes.

    Each axis is (low, high, steps).  Ground-unit bits take their minimal
    feasible value and each transmit power the minimal value that carries its
    phase's bits in the allotted time; both reductions are exact for the
    minimum, so only these six axes are gridded.
    """

    bits_local: tuple = (0.0, None, 14)
    bits_uav: tuple = (0.0, None, 14)
    time_offload: tuple = (0.0, None, 12)
    time_relay: tuple = (0.0, None, 12)
    time_down_uav: tuple = (0.0, None, 12)
    time_down_rsu: tuple = (0.0, None, 12)

    def axis(self, name: str, default_high: float) -> np.ndarray:
        lo, hi, steps = getattr(self, name)
        if steps < 2:
            raise ValueError(f"{name}: need at least 2 grid steps")
        hi = default_high if hi is None else hi
        return np.linspace(lo, hi, int(steps))


def _rate_table(inst, phase: int, n_points: int = 4000):
    """Monotone (rate, power) table for inverting the rate curve."""
    pmax = inst.power_max[phase]
    p = np.concatenate([[0.0], np.geomspace(pmax * 1e-9, pmax, n_points)])
    shape = inst.min_bits.shape
    rates = np.array([float(inst.rate(phase, np.full(shape, pi))[0, 0]) for pi in p])
    return rates, p


def _exact_min_power(inst, phase: int, load: float, time: float, tol: float = 1e-13):
    """Bisected minimal power carrying `load` bits in `time` seconds."""
    if load <= 0:
        return 0.0
    if time <= 0:
        return np.inf
    target = load / time
    shape = inst.min_bits.shape
    pmax = inst.power_max[phase]
    if float(inst.rate(phase, np.full(shape, pmax))[0, 0]) < target:
        return np.inf
    lo, hi = 0.0, pmax
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if float(inst.rate(phase, np.full(shape, mid))[0, 0]) < target:
            lo = mid
        else:
            hi = mid
    return hi


def grid_search_primal(inst, grid: GridSpec | None = None):
    """Exhaustive minimum of the weighted energy over a product grid.

    Only single-vehicle, single-slot instances are supported (the grid is
    combinatorial).  Returns (best WTEC, best Allocation); raises
    NoFeasiblePoint when nothing on the grid is feasible.
    """
    if inst.n_vehicles != 1 or inst.n_slots != 1:
        raise ValueError("grid search is a desk-scale oracle: need K=1, N=1")
    grid = grid or GridSpec()

    sub = inst.subslot
    uc, vc = inst.uav_compute, inst.vehicle_compute
    xi = float(inst.output_ratio[0])
    w_k = float(inst.weights_vehicle[0])
    w_u = inst.weight_uav
    b_min = float(inst.min_bits[0, 0])
    tau = inst.slot_len

    bl_axis = grid.axis("bits_local", inst.bits_local_cap)
    bu_axis = grid.axis("bits_uav", inst.bits_uav_cap)
    t_axes = [grid.axis(n, sub) for n in
              ("time_offload", "time_relay", "time_down_uav", "time_down_rsu")]

    tables = [_rate_table(inst, ph) for ph in range(4)]

    def min_power_interp(ph, loads, times):
        """Approximate minimal power per grid point via the rate table."""
        rates_tab, p_tab = tables[ph]
        target = np.where(times > 0, loads / np.where(times > 0, times, 1.0), np.inf)
        p = np.interp(target, rates_tab, p_tab, right=np.inf)
        return np.where(loads <= 0, 0.0, np.where(times <= 0, np.inf, p))

    t1, t2, t4, t5 = np.meshgrid(*t_axes, indexing="ij")
    t_sum = t1 + t2 + t4 + t5

    best = []  # (value, bl, bu, br, times)
    for bl in bl_axis:
        for bu in bu_axis:
            br = max(b_min - bl - bu, 0.0)
            t_cu = uc.cycles_per_bit * bu / uc.cpu_freq
            if t_cu > sub * (1 + 1e-12):
                continue
            loads = (bu + br, br, xi * bu, xi * br)
            ok = t_sum <= (sub - t_cu) * (1 + 1e-12)
            if not ok.any():
                continue
            energy = np.zeros_like(t1)
            feasible = ok.copy()
            for ph, (load, t) in enumerate(zip(loads, (t1, t2, t4, t5))):
                p = min_power_interp(ph, np.full_like(t, load), t)
                feasible &= p <= inst.power_max[ph] * (1 + 1e-9)
                w_ph = w_k if ph == 0 else w_u
                energy += w_ph * np.where(np.isfinite(p), p, 0.0) * t
            if not feasible.any():
                continue
            energy = np.where(feasible, energy, np.inf)
            idx = np.unravel_index(np.argmin(energy), energy.shape)
            if not np.isfinite(energy[idx]):
                continue
            e_cpu = (w_k * vc.capacitance * vc.cycles_per_bit**3 * bl**3 / tau**2
                     + w_u * uc.capacitance * uc.cycles_per_bit**3 * inst.n_vehicles**2 * bu**3 / tau**2)
            best.append((energy[idx] + e_cpu, bl, bu, br,
                         (t1[idx], t2[idx], t4[idx], t5[idx])))

    if not best:
        raise NoFeasiblePoint("no grid point satisfies the constraints")

    # Re-evaluate the shortlisted candidates with exact power inversion.
    best.sort(key=lambda item: item[0])
    champion = None
    for _, bl, bu, br, times in best[: max(8, len(best) // 10)]:
        alloc = Allocation.zeros(1, 1)
        alloc.bits_local[0, 0] = bl
        alloc.bits_uav[0, 0] = bu
        alloc.bits_rsu[0, 0] = br
        loads = (bu + br, br, xi * bu, xi * br)
        p_names = ("power_offload", "power_relay", "power_down_uav", "power_down_rsu")
        t_names = ("time_offload", "time_relay", "time_down_uav", "time_down_rsu")
        feasible = True
        for ph in range(4):
            p = _exact_min_power(inst, ph, loads[ph], times[ph])
            if not np.isfinite(p):
                feasible = False
                break
            getattr(alloc, p_names[ph])[0, 0] = p
            getattr(alloc, t_names[ph])[0, 0] = times[ph] if loads[ph] > 0 else 0.0
        if not feasible or not check_feasible(alloc, inst):
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

def sample_feasible(inst, rng: np.random.Generator) -> Allocation:
    """Draw one feasible allocation, uniform-ish over the interesting region."""
    batch = _sample_batch(inst, 1, rng)
    if not batch["ok"][0]:
        raise NoFeasiblePoint("could not sample a feasible allocation")
    alloc = Allocation.zeros(*inst.min_bits.shape)
    alloc.bits_local, alloc.bits_uav, alloc.bits_rsu = (x[0] for x in batch["bits"])
    (alloc.power_offload, alloc.power_relay,
     alloc.power_down_uav, alloc.power_down_rsu) = (p[0] for p in batch["powers"])
    (alloc.time_offload, alloc.time_relay,
     alloc.time_down_uav, alloc.time_down_rsu) = (t[0] for t in batch["times"])
    if not check_feasible(alloc, inst):
        raise NoFeasiblePoint("sampled point failed the feasibility check")
    return alloc


def _interpolate(a: Allocation, b: Allocation, lam: float) -> Allocation:
    """Convex combination in the (bits, radiated energy, time) coordinates,
    where the feasible set is convex."""
    out = Allocation.zeros(*a.bits_local.shape)
    for name in ("bits_local", "bits_uav", "bits_rsu"):
        setattr(out, name, (1 - lam) * getattr(a, name) + lam * getattr(b, name))
    pairs = (
        ("power_offload", "time_offload"),
        ("power_relay", "time_relay"),
        ("power_down_uav", "time_down_uav"),
        ("power_down_rsu", "time_down_rsu"),
    )
    for p_name, t_name in pairs:
        ea = getattr(a, p_name) * getattr(a, t_name)
        eb = getattr(b, p_name) * getattr(b, t_name)
        e = (1 - lam) * ea + lam * eb
        t = (1 - lam) * getattr(a, t_name) + lam * getattr(b, t_name)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(t > 0, e / np.where(t > 0, t, 1.0), 0.0)
        setattr(out, p_name, p)
        setattr(out, t_name, t)
    return out


def _sample_batch(inst, count: int, rng: np.random.Generator) -> dict:
    """Feasible allocations as (count, K, N) arrays.

    Bits are drawn within the compute caps with the ground unit covering any
    shortfall; every phase first gets its minimum carry time at maximum
    power, then the remaining sub-slot budget is split randomly; powers are
    drawn between the minimal carrying power and the cap.  Feasible by
    construction except for instances too loaded to fit at maximum power.
    """
    k, n = inst.min_bits.shape
    uc = inst.uav_compute
    xi = inst.output_ratio[None, :, None]
    sub = inst.subslot
    shape = (count, k, n)

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
        t_cu = uc.cycles_per_bit * bu / uc.cpu_freq
        loads = np.stack([bu + br, br, xi * bu, xi * br])
        need = np.zeros(shape)
        # the low-power end of the draw range rises for stragglers so heavy
        # blocks find carrying powers in a handful of rounds
        floor = min(-2.0 + 0.5 * round_no, -0.3)
        for ph in range(4):
            p_new = inst.power_max[ph] * 10.0 ** rng.uniform(floor, 0.0, shape)
            powers[ph] = np.where(redo, p_new, powers[ph])
            rates[ph] = np.where(redo, inst.rate(ph, powers[ph]), rates[ph])
            need += np.where(loads[ph] > 0, loads[ph] / rates[ph], 0.0)
        ok = need <= (sub - t_cu) * 0.999
        keep = ok | ~redo
        bl = np.where(keep, bl, rng.uniform(0.0, inst.bits_local_cap, shape))
        bu = np.where(keep, bu, rng.uniform(0.0, bu_hi, shape))

    t_cu = uc.cycles_per_bit * bu / uc.cpu_freq
    loads = np.stack([bu + br, br, xi * bu, xi * br])
    with np.errstate(divide="ignore", invalid="ignore"):
        t_min = np.where(loads > 0, loads / np.where(rates > 0, rates, np.nan), 0.0)
    t_min = np.nan_to_num(t_min, nan=0.0)
    leftover = np.maximum(sub - t_cu - t_min.sum(axis=0), 0.0)
    frac = rng.uniform(0.05, 1.0, (4,) + shape)
    frac /= frac.sum(axis=0)
    times = t_min * (1 + 1e-9) + frac * leftover * rng.uniform(0.5, 0.95, shape)
    good = ok.all(axis=(1, 2))
    times[:, ~good] = 0.0
    return {"bits": (bl, bu, br), "times": times, "powers": powers, "ok": good}


def _wtec_batch(inst, bits, powers, times) -> np.ndarray:
    """Objective value per sample for (count, K, N)-shaped batch arrays."""
    bl, bu, _ = bits
    vc, uc = inst.vehicle_compute, inst.uav_compute
    tau = inst.slot_len
    w_col = inst.weights_vehicle[None, :, None]
    e_local = vc.capacitance * vc.cycles_per_bit**3 * bl**3 / tau**2
    e_uav = uc.capacitance * uc.cycles_per_bit**3 * inst.n_vehicles**2 * bu**3 / tau**2
    per_block = w_col * (e_local + powers[0] * times[0]) + inst.weight_uav * (
        powers[1] * times[1] + e_uav + powers[2] * times[2] + powers[3] * times[3]
    )
    return per_block.sum(axis=(1, 2))


def convexity_probe(inst, samples: int = 1000, seed: int = 0, objective=None):
    """Midpoint-convexity violation of the objective over random feasible
    pairs, measured in the convex (bits, energy, time) parameterization.

    Returns the worst violation of f(mid) <= (f(a)+f(b))/2 + 1e-9*|f|, which
    is non-positive for a convex objective.  A custom objective (given an
    Allocation, returning a float) can be probed as a negative control; that
    path samples pair by pair.
    """
    rng = np.random.default_rng(seed)
    if objective is not None:
        worst = -np.inf
        for _ in range(samples):
            a = sample_feasible(inst, rng)
            b = sample_feasible(inst, rng)
            mid = _interpolate(a, b, 0.5)
            fa, fb, fm = objective(a), objective(b), objective(mid)
            worst = max(worst, fm - 0.5 * (fa + fb) - 1e-9 * max(abs(fa), abs(fb), abs(fm)))
        return worst

    a = _sample_batch(inst, samples, rng)
    b = _sample_batch(inst, samples, rng)
    keep = a["ok"] & b["ok"]
    bits_m = tuple(0.5 * (x + y) for x, y in zip(a["bits"], b["bits"]))
    energy_m = 0.5 * (a["powers"] * a["times"] + b["powers"] * b["times"])
    times_m = 0.5 * (a["times"] + b["times"])
    with np.errstate(divide="ignore", invalid="ignore"):
        powers_m = np.where(times_m > 0, energy_m / np.where(times_m > 0, times_m, 1.0), 0.0)
    fa = _wtec_batch(inst, a["bits"], a["powers"], a["times"])
    fb = _wtec_batch(inst, b["bits"], b["powers"], b["times"])
    fm = _wtec_batch(inst, bits_m, powers_m, times_m)
    scale = np.maximum.reduce([np.abs(fa), np.abs(fb), np.abs(fm)])
    violation = fm - 0.5 * (fa + fb) - 1e-9 * scale
    return float(violation[keep].max())


# ---------------------------------------------------------------------------
# KKT residuals
# ---------------------------------------------------------------------------

_COORDS = (
    "bits_local", "bits_uav", "bits_rsu",
    "power_offload", "power_relay", "power_down_uav", "power_down_rsu",
    "time_offload", "time_relay", "time_down_uav", "time_down_rsu",
)


def constraint_residuals(inst, alloc: Allocation) -> np.ndarray:
    """Signed residuals (<= 0 when satisfied) of the six dualized constraint
    families, shape (K, N, 6)."""
    uc = inst.uav_compute
    xi = inst.output_ratio[:, None]
    sub = inst.subslot
    t_cu = uc.cycles_per_bit * alloc.bits_uav / uc.cpu_freq
    times = alloc.times()
    powers = alloc.powers()
    rates = np.stack([inst.rate(ph, powers[ph]) for ph in range(4)])
    return np.stack(
        [
            inst.min_bits - alloc.bits_local - alloc.bits_uav - alloc.bits_rsu,
            times.sum(axis=0) + t_cu - sub,
            alloc.bits_uav + alloc.bits_rsu - times[0] * rates[0],
            alloc.bits_rsu - times[1] * rates[1],
            xi * alloc.bits_uav - times[2] * rates[2],
            xi * alloc.bits_rsu - times[3] * rates[3],
        ],
        axis=-1,
    )


def _lagrangian_blocks(inst, alloc: Allocation, duals: np.ndarray) -> np.ndarray:
    """Per-(k, n) Lagrangian value: weighted energy plus priced residuals."""
    vc, uc = inst.vehicle_compute, inst.uav_compute
    tau = inst.slot_len
    w_col = inst.weights_vehicle[:, None]
    e_local = vc.capacitance * vc.cycles_per_bit**3 * alloc.bits_local**3 / tau**2
    e_uav = uc.capacitance * uc.cycles_per_bit**3 * inst.n_vehicles**2 * alloc.bits_uav**3 / tau**2
    blocks = w_col * (e_local + alloc.power_offload * alloc.time_offload) + inst.weight_uav * (
        alloc.power_relay * alloc.time_relay
        + e_uav
        + alloc.power_down_uav * alloc.time_down_uav
        + alloc.power_down_rsu * alloc.time_down_rsu
    )
    return blocks + (duals * constraint_residuals(inst, alloc)).sum(axis=-1)


def kkt_residuals(inst, alloc: Allocation, duals: np.ndarray,
                  boundedness_margin_tol: float = 1e-9) -> dict:
    """Four-block KKT summary at a solver output.

    Stationarity uses central finite differences of the Lagrangian with
    steps relative to each coordinate's own magnitude; the reported residual
    is the first-order Lagrangian change under a relative perturbation of the
    coordinate, divided by the objective (bound coordinates contribute their
    projected descent direction instead).
    """
    obj_scale = max(abs(wtec(alloc, inst)), 1e-12)
    sub = inst.subslot
    bounds_hi = {
        "bits_local": inst.bits_local_cap,
        "bits_uav": inst.bits_uav_cap,
        "bits_rsu": np.inf,
        "power_offload": inst.power_max[0],
        "power_relay": inst.power_max[1],
        "power_down_uav": inst.power_max[2],
        "power_down_rsu": inst.power_max[3],
        "time_offload": sub,
        "time_relay": sub,
        "time_down_uav": sub,
        "time_down_rsu": sub,
    }
    stationarity = 0.0
    for name in _COORDS:
        x = getattr(alloc, name)
        hi = bounds_hi[name]
        coord_scale = hi if np.isfinite(hi) else max(float(np.max(np.abs(x))), 1.0)
        h = np.maximum(1e-6 * np.abs(x), 1e-10 * coord_scale)
        up, dn = alloc.copy(), alloc.copy()
        setattr(up, name, x + h)
        setattr(dn, name, x - h)
        grad = (_lagrangian_blocks(inst, up, duals) - _lagrangian_blocks(inst, dn, duals)) / (2 * h)
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
    dual_ok = bool((duals >= -1e-15).all() and (margin >= -boundedness_margin_tol * margin_scale).all())
    return {
        "stationarity": stationarity,
        "complementary_slackness": comp_slack,
        "primal_feasible": primal.feasible,
        "primal_violations": primal.violations,
        "dual_feasible": dual_ok,
    }
