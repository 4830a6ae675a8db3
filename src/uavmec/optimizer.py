"""Lagrangian-dual solver: closed-form bit splits, bisected power roots,
time-sign rules, ellipsoid dual ascent and the LP recovery step.

The dual problem separates into one 6-multiplier block per (vehicle, slot).
Each block is warm-started from a one-dimensional reduction (all stationarity
conditions collapse onto the sub-slot time price) and then refined by a
deep-cut ellipsoid; convergence is certified by the weak-duality gap between
the completed feasible schedule and the best dual value.

Multiplier order inside every length-6 vector: the prices of the
minimum-bits constraint, the sub-slot time budget, and the four link
capacity constraints (uplink, relay, UAV-result download, ground-result
download).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .instance import ProblemInstance, rate_derivative
from .lp import solve_lp
from .energy import compute_energy
from .protocol import Allocation, block_energy, carry_time, check_feasible, wtec

# Index constants for the six dual families.
D_MIN_BITS, D_SUBSLOT, D_UPLINK, D_RELAY, D_DOWN_UAV, D_DOWN_RSU = range(6)

_PHASE_RATE_DUAL = (D_UPLINK, D_RELAY, D_DOWN_UAV, D_DOWN_RSU)

# Relative tolerance of the sign rules (ground-unit bits, transmit times).
SIGN_RTOL = 1e-6

# Initial ellipsoid radius in warm-start-scaled coordinates, and the number
# of ellipsoid iterations run even when the warm start already certifies.
_ELLIPSOID_RADIUS = 4.0
_MIN_ITERATIONS = 1


class IterationCapExceeded(Exception):
    """Ellipsoid loop hit its iteration cap; carries the best report so far."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InfeasibleAllocation(Exception):
    """The minimum bits cannot be carried at the fixed powers."""


@dataclass
class DualState:
    """Best multipliers, the completion that certified them, and the
    iteration log."""

    multipliers: np.ndarray  # (K, N, 6) best point per block
    dual_value: float
    gap: float
    iterations: int
    converged: bool
    feasible: np.ndarray  # (K, N) per-block primal feasibility
    completion: tuple  # (bits, powers) of the completion that set the gap
    log: list = field(default_factory=list)


@dataclass
class SolveReport:
    """Outcome of one full optimization run."""

    allocation: Allocation
    wtec: float  # objective value (no propulsion)
    dual_value: float
    gap: float
    iterations: int
    converged: bool
    wtec_trajectory: list
    duals: np.ndarray  # (K, N, 6)
    feasible: bool
    violations: list


# ---------------------------------------------------------------------------
# closed forms and roots, elementwise over blocks
# ---------------------------------------------------------------------------

def _bisect(below, lo, hi, steps: int):
    """Halve every bracket [lo, hi] `steps` times, keeping the upper half
    where below(mid) holds and the lower half elsewhere."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        take = below(mid)
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    return lo, hi


def bits_local_opt(price_min_bits, weight, capacitance, cycles_per_bit, slot_len, cpu_freq):
    """Optimal local-compute bits for the given minimum-bits price.

    Stationary point of the local subproblem, clamped to the per-slot CPU
    cap slot_len * cpu_freq / cycles_per_bit.
    """
    price = np.maximum(np.asarray(price_min_bits, dtype=float), 0.0)
    raw = slot_len * np.sqrt(price / (3.0 * weight * capacitance * cycles_per_bit**3))
    return np.clip(raw, 0.0, slot_len * cpu_freq / cycles_per_bit)


def bits_uav_opt(
    price_min_bits,
    price_subslot,
    price_uplink,
    price_down_uav,
    output_ratio,
    weight_uav,
    capacitance,
    cycles_per_bit,
    slot_len,
    n_vehicles,
    cpu_freq,
):
    """Optimal UAV-compute bits; zero when the net price gain is negative."""
    gain = cpu_freq * (
        np.asarray(price_min_bits, dtype=float)
        - price_uplink
        - price_down_uav * output_ratio
    ) - np.asarray(price_subslot, dtype=float) * cycles_per_bit
    sub = slot_len / n_vehicles
    cap = cpu_freq * sub / cycles_per_bit
    raw = (slot_len / n_vehicles) * np.sqrt(
        np.maximum(gain, 0.0) / (3.0 * weight_uav * capacitance * cycles_per_bit**3 * cpu_freq)
    )
    return np.where(gain > 0.0, np.clip(raw, 0.0, cap), 0.0)


def power_opt(gains, weight, price_rate, bandwidth, power_max) -> np.ndarray:
    """Root of the power stationarity condition on [0, power_max], clamped.

    `gains` has shape (..., L); `weight` and `price_rate` broadcast against
    its leading shape.  The defining function weight - price_rate *
    d(rate)/d(power) is strictly increasing in power; endpoints clamp when no
    interior root exists.
    """
    shape = np.broadcast_shapes(gains.shape[:-1], np.shape(weight), np.shape(price_rate))
    at_zero = price_rate * rate_derivative(gains, bandwidth, np.zeros(shape))
    at_max = price_rate * rate_derivative(gains, bandwidth, np.full(shape, power_max))
    lo, hi = _bisect(lambda p: price_rate * rate_derivative(gains, bandwidth, p) > weight,
                     np.zeros(shape), np.full(shape, power_max), 70)
    p = 0.5 * (lo + hi)
    p = np.where(at_zero <= weight, 0.0, p)
    return np.where(at_max >= weight, power_max, p)


def phase1_closed_form(trace_power, n_tx, n_rx, bound, weight, price_rate,
                       bandwidth, noise_density, power_max):
    """Closed-form phase-1 power under the rank-1 / full-rank rate bounds.

    Returns (power, power_unclamped).  The full-rank ("upper") power is
    exactly min(n_tx, n_rx) times the rank-1 ("lower") one before clamping.
    """
    noise = bandwidth * noise_density * n_tx
    p_lb_raw = bandwidth * (price_rate / (weight * np.log(2.0)) - noise / (bandwidth * trace_power))
    if bound == "lower":
        raw = p_lb_raw
    elif bound == "upper":
        raw = min(n_tx, n_rx) * p_lb_raw
    else:
        raise ValueError(f"unknown bound {bound!r}")
    return float(np.clip(raw, 0.0, power_max)), float(raw)


# ---------------------------------------------------------------------------
# vectorized block machinery (arrays over all (k, n) blocks)
# ---------------------------------------------------------------------------

def _phase_weights(inst: ProblemInstance) -> list:
    """Objective weight multiplying each phase's radiated energy, (K, N)."""
    k_w = np.broadcast_to(inst.weights_vehicle[:, None], inst.min_bits.shape)
    u_w = np.full(inst.min_bits.shape, inst.weight_uav)
    return [k_w, u_w, u_w, u_w]


def _phi(inst, ph, w, p) -> np.ndarray:
    """Time price at which power p is stationary: w*(r/r' - p), increasing in p."""
    return w * (inst.rate(ph, p) / np.maximum(inst.rate_derivative(ph, p), 1e-300) - p)


def _power_from_time_price(inst, ph, w, mu) -> np.ndarray:
    """Invert w*(r/r' - p) = mu elementwise on [0, p_max] (clamped above)."""
    pmax = inst.power_max[ph]
    phi_max = _phi(inst, ph, w, np.full(mu.shape, pmax))
    lo, hi = _bisect(lambda p: _phi(inst, ph, w, p) < mu,
                     np.zeros_like(mu), np.full_like(mu, pmax), 60)
    p = 0.5 * (lo + hi)
    p = np.where(mu <= 0.0, 0.0, p)
    return np.where(phi_max <= mu, pmax, p)


def _split(inst, chi1, chi_subslot, chi_uplink, chi_down_uav):
    """Closed-form local and UAV bits at the given prices, per block."""
    vc, uc = inst.vehicle_compute, inst.uav_compute
    bl = bits_local_opt(chi1, inst.weights_vehicle[:, None], vc.capacitance,
                        vc.cycles_per_bit, inst.slot_len, vc.cpu_freq)
    bu = bits_uav_opt(chi1, chi_subslot, chi_uplink, chi_down_uav, inst.output_ratio[:, None],
                      inst.weight_uav, uc.capacitance, uc.cycles_per_bit, inst.slot_len,
                      inst.n_vehicles, uc.cpu_freq)
    return bl, bu


def _phase_prices(inst, mu):
    """Per-phase rate prices and rates at the time price.

    An interior power prices its rate at w / r'(p); a power clamped at its
    cap takes the price that balances the time sign, (w * p_max + mu) / r.
    """
    wv = _phase_weights(inst)
    chis, rates = [], []
    for ph in range(4):
        p = _power_from_time_price(inst, ph, wv[ph], mu)
        pmax = inst.power_max[ph]
        clamped = p >= pmax * (1.0 - 1e-12)
        chi = np.where(
            clamped,
            (wv[ph] * pmax + mu) / np.maximum(inst.rate(ph, np.full(mu.shape, pmax)), 1e-300),
            wv[ph] / np.maximum(inst.rate_derivative(ph, p), 1e-300),
        )
        chis.append(chi)
        rates.append(inst.rate(ph, p))
    return chis, rates


def _candidate(inst, mu):
    """Dual point and primal quantities implied by the sub-slot time price.

    At the block optimum, power stationarity plus the time-sign balance make
    every rate price a function of the time price alone; the minimum-bits
    price then follows from the boundedness equality, and the bit split from
    the closed forms.  Returns the (K, N, 6) dual point and the (K, N)
    sub-slot time its split needs.
    """
    uc = inst.uav_compute
    xi = inst.output_ratio[:, None]
    chis, rates = _phase_prices(inst, mu)

    chi1 = chis[0] + chis[1] + xi * chis[3]
    bl, bu = _split(inst, chi1, mu, chis[0], chis[2])
    br = np.maximum(inst.min_bits - bl - bu, 0.0)

    loads = [bu + br, br, xi * bu, xi * br]
    times = [carry_time(loads[ph], rates[ph]) for ph in range(4)]
    need = times[0] + times[1] + times[2] + times[3] + uc.cycles_per_bit * bu / uc.cpu_freq

    chi = np.stack([chi1, mu, chis[0], chis[1], chis[2], chis[3]], axis=-1)
    return chi, need


def _time_price_ceiling(inst) -> np.ndarray:
    """Price above which every phase's stationary power clamps at its cap."""
    wv = _phase_weights(inst)
    out = np.zeros(inst.min_bits.shape)
    for ph in range(4):
        pfull = np.full(inst.min_bits.shape, inst.power_max[ph])
        out = np.maximum(out, _phi(inst, ph, wv[ph], pfull))
    return out


def _candidate_no_relay(inst, mu):
    """Dual point for the regime where local and UAV compute cover the bits.

    The boundedness constraint is slack here, so the minimum-bits price comes
    from the local/UAV split fixed point (bits(price) summing to the
    requirement) instead of the route-price equality; only the uplink, UAV
    compute and UAV-result download occupy the budget.  Returns (chi, need)
    as `_candidate` does.
    """
    vc, uc = inst.vehicle_compute, inst.uav_compute
    xi = inst.output_ratio[:, None]
    tau = inst.slot_len
    w_col = inst.weights_vehicle[:, None]
    chis, rates = _phase_prices(inst, mu)
    support = chis[0] + chis[1] + xi * chis[3]

    zeta_cap = 3.0 * inst.weight_uav * uc.capacitance * uc.cycles_per_bit * uc.cpu_freq**3
    hi = np.maximum(
        3.0 * w_col * vc.capacitance * vc.cycles_per_bit**3 * inst.bits_local_cap**2 / tau**2,
        (zeta_cap + mu * uc.cycles_per_bit) / uc.cpu_freq + chis[0] + xi * chis[2],
    ) * 1.01 + 1e-30

    def short(chi1):
        bl, bu = _split(inst, chi1, mu, chis[0], chis[2])
        return bl + bu < inst.min_bits

    _, hi = _bisect(short, np.zeros_like(mu), hi, 70)
    chi1 = np.minimum(hi, support)  # keep the dual point bounded
    bl, bu = _split(inst, chi1, mu, chis[0], chis[2])

    need = (carry_time(bu, rates[0]) + carry_time(xi * bu, rates[2])
            + uc.cycles_per_bit * bu / uc.cpu_freq)
    chi = np.stack([chi1, mu, chis[0], chis[1], chis[2], chis[3]], axis=-1)
    return chi, need


def feasible_split(inst):
    """Greedy minimal-budget bit split at maximum power, per block.

    Assigns free local compute first, then the cheaper of the UAV and
    ground-unit routes by per-bit budget cost; exact for the linear cost.
    Returns (feasible mask, (local, uav, rsu) bits).
    """
    uc = inst.uav_compute
    xi = inst.output_ratio[:, None]
    shape = inst.min_bits.shape
    r = [inst.rate(ph, np.full(shape, inst.power_max[ph])) for ph in range(4)]
    with np.errstate(divide="ignore"):
        inv = [np.where(x > 0, 1.0 / np.where(x > 0, x, 1.0), np.inf) for x in r]
    cost_uav = inv[0] + uc.cycles_per_bit / uc.cpu_freq + xi * inv[2]
    cost_rsu = inv[0] + inv[1] + xi * inv[3]

    bl = np.minimum(inst.min_bits, inst.bits_local_cap)
    rem = inst.min_bits - bl
    uav_first = cost_uav <= cost_rsu
    bu = np.where(uav_first, np.minimum(rem, inst.bits_uav_cap), 0.0)
    br = rem - bu
    # if the ground route is unusable, push the residual through the UAV cap
    br_dead = ~np.isfinite(cost_rsu) & (br > 0)
    bu = np.where(br_dead, np.minimum(rem, inst.bits_uav_cap), bu)
    br = np.where(br_dead, rem - bu, br)
    need = bu * np.where(np.isfinite(cost_uav), cost_uav, np.inf) + br * np.where(
        np.isfinite(cost_rsu), cost_rsu, np.inf
    )
    need = np.where(rem <= 0, 0.0, need)
    feasible = need <= inst.subslot * (1.0 + 1e-12)
    return feasible, (bl, bu, br)


def warm_start(inst: ProblemInstance):
    """Best dual seed per block from the one-dimensional reductions.

    Bisects the sub-slot budget residual (monotone decreasing in the time
    price) once for the ground-unit-routing regime and once for the
    local-plus-UAV regime, and keeps whichever point (or zero) scores the
    higher dual value.  Returns (multipliers, infeasible mask); infeasible
    blocks cannot carry their minimum bits under any split at maximum power.
    """
    mu_hi = _time_price_ceiling(inst)
    infeasible, _ = feasible_split(inst)
    infeasible = ~infeasible

    candidates = []
    for builder in (_candidate, _candidate_no_relay):
        _, hi = _bisect(lambda mu: builder(inst, mu)[1] > inst.subslot,
                        np.zeros_like(mu_hi), mu_hi, 80)
        chi, _ = builder(inst, hi)
        zero_load = inst.min_bits <= 0.0
        candidates.append(np.where(zero_load[..., None], 0.0, chi))
    candidates.append(np.zeros_like(candidates[0]))

    best_chi = candidates[0]
    best_value, _ = dual_point_eval(inst, best_chi)
    for chi in candidates[1:]:
        value, _ = dual_point_eval(inst, chi)
        better = value > best_value
        best_chi = np.where(better[..., None], chi, best_chi)
        best_value = np.where(better, value, best_value)
    return best_chi, best_value, infeasible


def dual_point_eval(inst: ProblemInstance, chi: np.ndarray):
    """Dual value and subgradient at a feasible multiplier point, per block.

    Inner minimizers follow the closed forms and sign rules; indeterminate
    ground-unit bits and transmit times take their recovery-problem values so
    the subgradient vanishes at the optimum.  Returns (values (K, N),
    subgradients (K, N, 6)).
    """
    vc, uc = inst.vehicle_compute, inst.uav_compute
    xi = inst.output_ratio[:, None]
    tau, sub = inst.slot_len, inst.subslot
    w_col = inst.weights_vehicle[:, None]
    wv = _phase_weights(inst)

    chi1 = chi[..., D_MIN_BITS]
    chi2 = chi[..., D_SUBSLOT]
    bl, bu = _split(inst, chi1, chi2, chi[..., D_UPLINK], chi[..., D_DOWN_UAV])
    l1 = w_col * compute_energy(bl, vc, tau) - chi1 * bl
    coef_u = chi2 * uc.cycles_per_bit / uc.cpu_freq + chi[..., D_UPLINK] + xi * chi[..., D_DOWN_UAV] - chi1
    l2 = inst.weight_uav * compute_energy(bu, uc, tau, inst.n_vehicles) + coef_u * bu

    margin = chi[..., D_UPLINK] + chi[..., D_RELAY] + xi * chi[..., D_DOWN_RSU] - chi1
    margin_scale = chi[..., D_UPLINK] + chi[..., D_RELAY] + xi * chi[..., D_DOWN_RSU] + chi1 + 1e-300
    indeterminate = margin <= SIGN_RTOL * margin_scale
    br = np.where(indeterminate, np.maximum(inst.min_bits - bl - bu, 0.0), 0.0)

    value = l1 + l2 + chi1 * inst.min_bits - chi2 * sub

    loads = [bu + br, br, xi * bu, xi * br]
    times, rates = [], []
    for ph in range(4):
        chir = chi[..., _PHASE_RATE_DUAL[ph]]
        p = power_opt(inst.gains[ph], wv[ph], chir, inst.bandwidth, inst.power_max[ph])
        r = inst.rate(ph, p)
        s = wv[ph] * p + chi2 - chir * r
        s_scale = wv[ph] * p + chi2 + chir * r + 1e-300
        full = s < -SIGN_RTOL * s_scale
        interval = np.abs(s) <= SIGN_RTOL * s_scale
        with np.errstate(divide="ignore", invalid="ignore"):
            carry = np.where(r > 0.0, loads[ph] / r, 0.0)
        t = np.where(full, sub, np.where(interval, np.minimum(carry, sub), 0.0))
        value = value + np.where(full, sub * s, 0.0)
        times.append(t)
        rates.append(r)

    t_cu = uc.cycles_per_bit * bu / uc.cpu_freq
    g = np.stack(
        [
            inst.min_bits - bl - bu - br,
            times[0] + times[1] + t_cu + times[2] + times[3] - sub,
            bu + br - times[0] * rates[0],
            br - times[1] * rates[1],
            xi * bu - times[2] * rates[2],
            xi * br - times[3] * rates[3],
        ],
        axis=-1,
    )
    return value, g


def complete_primal(inst: ProblemInstance, bits):
    """Energy-minimal feasible schedule carrying the given bit split.

    Powers and times come from bisecting the sub-slot budget residual at
    fixed bits (the same time-price machinery as the warm start).  Returns
    (powers (4,K,N), times (4,K,N), per-block weighted energy, infeasible
    mask).
    """
    bl, bu, br = bits
    uc = inst.uav_compute
    xi = inst.output_ratio[:, None]
    wv = _phase_weights(inst)
    loads = [bu + br, br, xi * bu, xi * br]
    budget = inst.subslot - uc.cycles_per_bit * bu / uc.cpu_freq

    def times_at(mu):
        powers = [_power_from_time_price(inst, ph, wv[ph], mu) for ph in range(4)]
        times = [carry_time(loads[ph], inst.rate(ph, powers[ph])) for ph in range(4)]
        return times, powers

    mu_hi = _time_price_ceiling(inst)
    need_top = sum(times_at(mu_hi)[0])
    infeasible = (need_top > budget * (1.0 + 1e-12)) | (budget < -1e-15)
    _, hi = _bisect(lambda mu: sum(times_at(mu)[0]) > budget, np.zeros_like(mu_hi), mu_hi, 80)
    times, powers = times_at(hi)

    times = np.stack(times)
    times = np.where(np.isfinite(times), times, 0.0)
    powers = np.stack([np.where(loads[ph] > 0.0, powers[ph], 0.0) for ph in range(4)])
    energy = block_energy(inst, bl, bu, powers, times)
    return powers, times, energy, infeasible


def blended_completion(inst: ProblemInstance, chi: np.ndarray, hard_mask):
    """Completable bit split and its energy-minimal schedule at multipliers.

    Starts from the closed-form split (ground unit takes the shortfall); any
    feasible block whose split cannot fit the budget falls back to the greedy
    minimal-time split.  Returns (bits, (powers, times), energy, inf_mask).
    """
    bl, bu = _split(inst, chi[..., D_MIN_BITS], chi[..., D_SUBSLOT],
                    chi[..., D_UPLINK], chi[..., D_DOWN_UAV])
    br = np.maximum(inst.min_bits - bl - bu, 0.0)
    bits = [bl, bu, br]
    powers, times, energy, inf_mask = complete_primal(inst, tuple(bits))
    retry = inf_mask & ~hard_mask
    if retry.any():
        _, greedy = feasible_split(inst)
        g_bits = tuple(np.where(retry, g, b) for g, b in zip(greedy, bits))
        p2, t2, e2, inf2 = complete_primal(inst, g_bits)
        sel = retry & ~inf2
        bits = [np.where(sel, g, b) for g, b in zip(g_bits, bits)]
        powers = np.where(sel[None], p2, powers)
        times = np.where(sel[None], t2, times)
        energy = np.where(sel, e2, energy)
        inf_mask = inf_mask & ~sel
    return tuple(bits), (powers, times), energy, inf_mask


# ---------------------------------------------------------------------------
# ellipsoid dual ascent
# ---------------------------------------------------------------------------

def _apply_cut(center, shape, a, depth, mask):
    """Masked deep-cut ellipsoid update for half-spaces a.(x - c) <= -depth."""
    n = center.shape[-1]
    pa = np.einsum("...ij,...j->...i", shape, a)
    sq = np.sqrt(np.maximum(np.einsum("...i,...i->...", a, pa), 1e-300))
    alpha = depth / sq
    ok = mask & (alpha < 1.0)
    alpha = np.clip(alpha, -1.0 / n + 1e-12, 1.0 - 1e-12)
    tau_c = (1.0 + n * alpha) / (n + 1.0)
    sigma = 2.0 * (1.0 + n * alpha) / ((n + 1.0) * (1.0 + alpha))
    delta = n * n * (1.0 - alpha**2) / (n * n - 1.0)
    gt = pa / sq[..., None]
    new_center = center - tau_c[..., None] * gt
    outer = np.einsum("...i,...j->...ij", gt, gt)
    new_shape = delta[..., None, None] * (shape - sigma[..., None, None] * outer)
    sel = ok[..., None]
    center = np.where(sel, new_center, center)
    shape = np.where(sel[..., None], new_shape, shape)
    return center, shape, ok


def _restore_feasibility(center, shape, xi, scale):
    """Constraint cuts until every center satisfies chi >= 0 and boundedness."""
    k, n, d = center.shape
    a3 = np.zeros((k, n, d))
    a3[..., D_MIN_BITS] = 1.0
    a3[..., D_UPLINK] = -1.0
    a3[..., D_RELAY] = -1.0
    a3[..., D_DOWN_RSU] = -xi
    a3 = a3 * scale
    a3 /= np.linalg.norm(a3, axis=-1, keepdims=True)
    for _ in range(60):
        neg = center < -1e-15
        any_neg = neg.any(axis=-1)
        bound_viol = np.einsum("...i,...i->...", a3, center) > 1e-15
        bound_viol &= ~any_neg
        if not (any_neg.any() or bound_viol.any()):
            break
        a = np.zeros_like(center)
        worst = np.argmin(center, axis=-1)
        rows = np.arange(k)[:, None], np.arange(n)[None, :]
        a[rows[0], rows[1], worst] = -1.0
        a = np.where(any_neg[..., None], a, a3)
        depth = np.einsum("...i,...i->...", a, center)
        center, shape, _ = _apply_cut(center, shape, a, depth, any_neg | bound_viol)
    return center, shape


def ellipsoid_solve(
    inst: ProblemInstance,
    eps: float = 1e-4,
    max_iterations: int = 200,
) -> DualState:
    """Maximize the separable dual by per-block deep-cut ellipsoids.

    Blocks are warm-started from the time-price reduction; every iteration
    restores multiplier feasibility with constraint cuts, evaluates the inner
    closed forms at the centers, applies an objective cut, and re-certifies
    the weak-duality gap between the completed schedule and the best dual
    value.  Raises IterationCapExceeded (carrying the state) past the cap.
    """
    k, n = inst.min_bits.shape
    d = 6
    best_chi, best_value, hard_infeasible = warm_start(inst)
    xi = inst.output_ratio[:, None]

    scale = np.maximum(np.abs(best_chi), np.max(np.abs(best_chi), axis=-1, keepdims=True) * 1e-9)
    scale = np.maximum(scale, 1e-30)  # floor keeps norms of scaled cuts above underflow
    center = best_chi / scale
    shape = np.broadcast_to(np.eye(d) * _ELLIPSOID_RADIUS**2 * d, (k, n, d, d)).copy()

    def certify(chi):
        bits, (powers, _), energy, inf_mask = blended_completion(inst, chi, hard_infeasible)
        primal_ok = ~(inf_mask | hard_infeasible)
        total_primal = float(np.where(primal_ok, energy, 0.0).sum())
        total_dual = float(np.where(primal_ok, best_value, 0.0).sum())
        # weak duality guarantees a non-negative gap; clip float noise
        gap = max((total_primal - total_dual) / max(abs(total_primal), 1e-300), 0.0)
        if (inf_mask & ~hard_infeasible).any():
            # a feasible block with no completable split yet keeps the run
            # uncertified until the multipliers move
            gap = np.inf
        return gap, total_primal, total_dual, primal_ok, (bits, powers)

    log = []
    gap, primal, dual_total, primal_ok, completion = certify(best_chi)
    log.append({"iteration": 0, "dual": dual_total, "wtec": primal, "gap": gap})
    converged = gap < eps
    it = 0
    while (not converged or it < _MIN_ITERATIONS) and it < max_iterations:
        it += 1
        center, shape = _restore_feasibility(center, shape, xi, scale)
        chi = np.maximum(center, 0.0) * scale
        value, g = dual_point_eval(inst, chi)
        improved = value > best_value
        best_chi = np.where(improved[..., None], chi, best_chi)
        best_value = np.where(improved, value, best_value)
        g_scaled = g * scale
        depth = best_value - value  # >= 0: deep objective cut
        center, shape, _ = _apply_cut(center, shape, -g_scaled, depth, np.ones((k, n), bool))
        shape = 0.5 * (shape + np.swapaxes(shape, -1, -2))
        if improved.any():
            # the completion moves only when a block's best point moved
            gap, primal, dual_total, primal_ok, completion = certify(best_chi)
        log.append({"iteration": it, "dual": dual_total, "wtec": primal, "gap": gap})
        converged = gap < eps

    state = DualState(
        multipliers=best_chi,
        dual_value=float(dual_total),
        gap=float(gap),
        iterations=it,
        converged=bool(converged),
        feasible=primal_ok,
        completion=completion,
        log=log,
    )
    if not converged:
        raise IterationCapExceeded(
            f"gap {gap:.3e} after {it} iterations (eps {eps})", report=state
        )
    return state


# ---------------------------------------------------------------------------
# recovery LP and the full pipeline
# ---------------------------------------------------------------------------

def solve_p2(inst: ProblemInstance, bits_local, bits_uav, powers):
    """Per-block LP recovering ground-unit bits and the four transmit times.

    Minimizes the weighted radiated energy at the fixed powers subject to the
    capacity, budget and minimum-bits constraints.  Raises
    InfeasibleAllocation when a block cannot carry its minimum bits at those
    powers.
    """
    k_n, n_n = inst.min_bits.shape
    uc = inst.uav_compute
    sub = inst.subslot
    xi = inst.output_ratio
    rates = np.stack([inst.rate(ph, powers[ph]) for ph in range(4)])

    bits_rsu = np.zeros_like(bits_local)
    times = np.zeros((4, k_n, n_n))
    b_scale = max(float(np.max(inst.min_bits)), 1.0)

    for k in range(k_n):
        for n in range(n_n):
            need = max(inst.min_bits[k, n] - bits_local[k, n] - bits_uav[k, n], 0.0)
            t_cu = uc.cycles_per_bit * bits_uav[k, n] / uc.cpu_freq
            budget = sub - t_cu
            r = rates[:, k, n]
            if inst.min_bits[k, n] <= 0.0 and bits_uav[k, n] <= 0.0:
                continue
            # variables scaled: x = [b_R/b_scale, t1/sub, t2/sub, t4/sub, t5/sub]
            w_k = inst.weights_vehicle[k]
            c = np.array([
                0.0,
                w_k * powers[0, k, n] * sub,
                inst.weight_uav * powers[1, k, n] * sub,
                inst.weight_uav * powers[2, k, n] * sub,
                inst.weight_uav * powers[3, k, n] * sub,
            ])
            rows, rhs = [], []
            rows.append([-1.0, 0, 0, 0, 0]); rhs.append(-need / b_scale)
            rows.append([b_scale, -r[0] * sub, 0, 0, 0]); rhs.append(-bits_uav[k, n])
            rows.append([b_scale, 0, -r[1] * sub, 0, 0]); rhs.append(0.0)
            rows.append([0, 0, 0, -r[2] * sub, 0]); rhs.append(-xi[k] * bits_uav[k, n])
            rows.append([xi[k] * b_scale, 0, 0, 0, -r[3] * sub]); rhs.append(0.0)
            rows.append([0, sub, sub, sub, sub]); rhs.append(budget)
            for j in range(4):
                e = [0.0] * 5
                e[1 + j] = sub
                rows.append(e); rhs.append(sub)
            res = solve_lp(c, np.array(rows), np.array(rhs))
            if not res.ok:
                raise InfeasibleAllocation(
                    f"minimum bits unachievable at fixed powers for vehicle {k}, slot {n}"
                )
            bits_rsu[k, n] = res.x[0] * b_scale
            times[:, k, n] = res.x[1:] * sub
    return bits_rsu, times


def _assemble(inst, bits, powers, times) -> Allocation:
    bl, bu, br = bits
    return Allocation(
        bits_local=np.array(bl),
        bits_uav=np.array(bu),
        bits_rsu=np.array(br),
        power_offload=np.array(powers[0]),
        power_relay=np.array(powers[1]),
        power_down_uav=np.array(powers[2]),
        power_down_rsu=np.array(powers[3]),
        time_offload=np.array(times[0]),
        time_relay=np.array(times[1]),
        time_down_uav=np.array(times[2]),
        time_down_rsu=np.array(times[3]),
    )


def algorithm1(
    inst: ProblemInstance,
    eps: float = 1e-4,
    max_iterations: int = 200,
) -> SolveReport:
    """Full dual pipeline: ellipsoid ascent, final closed forms, recovery LP.

    The report carries the per-iteration objective trajectory and the final
    duality gap.  IterationCapExceeded propagates with the best-so-far state
    attached.
    """
    state = ellipsoid_solve(inst, eps, max_iterations)
    return finish_from_duals(inst, state)


def finish_from_duals(inst: ProblemInstance, state: DualState) -> SolveReport:
    """Recover the primal allocation from a converged (or best-so-far) dual.

    Reuses the completion that certified the state's gap; its bit split and
    powers fix the recovery LP.
    """
    bits, powers = state.completion
    if not state.feasible.all():
        k, n = np.argwhere(~state.feasible)[0]
        raise InfeasibleAllocation(
            f"minimum bits unachievable within the sub-slot for vehicle {k}, slot {n}"
        )
    bl, bu, _ = bits
    bits_rsu, times = solve_p2(inst, bl, bu, powers)
    alloc = _assemble(inst, (bl, bu, bits_rsu), powers, times)
    verdict = check_feasible(alloc, inst)
    value = wtec(alloc, inst)
    # one trajectory entry per ellipsoid iteration (the warm-start point is
    # iteration 0 in the state log)
    trajectory = [entry["wtec"] for entry in state.log[1:]]
    gap = abs(value - state.dual_value) / max(abs(value), 1e-300)
    return SolveReport(
        allocation=alloc,
        wtec=value,
        dual_value=state.dual_value,
        gap=gap,
        iterations=state.iterations,
        converged=state.converged,
        wtec_trajectory=trajectory,
        duals=state.multipliers,
        feasible=verdict.feasible,
        violations=verdict.violations,
    )
