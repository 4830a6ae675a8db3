"""Lagrangian-dual solver: closed-form bit splits, two monotone roots,
time-sign rules, ellipsoid dual ascent and the closed-form recovery of the
schedule.

The dual problem separates into one 6-multiplier block per (vehicle, slot).
Each block's facts at the power caps are settled once per solve, and a block
that no split carries at full power raises before the dual stage.  Each
block is warm-started from a one-dimensional reduction (all stationarity
conditions collapse onto the sub-slot time price) and then refined by a
deep-cut ellipsoid; convergence is certified by the signed weak-duality gap
between the best dual value and one completion of the closed-form split at
the best multipliers (inf while a block's split does not fit), and a gap
below -WEAK_DUALITY_RTOL raises.  The completion takes the multipliers' time
price as its candidate, and at the warm start its powers and rates too, and
solves the time-price root only for the blocks that price does not fill.
The power at a time price inverts phi(p) = w*(r/r' - p) by a safeguarded
Newton iteration on log(phi) against log(p), with phi's ln(1 + p*g) terms
taken by log1p; the uplink, relay and download roots (both download phases
share one table) step in one loop over a leading phase axis, from p_max or,
inside the warm start's time-price root, from the tangent at the previous
iterate's powers.  A time price is (K, N), one value per block.  Every rate
and r' of the warm start and the completions is B/ln2 times a sum of phi's,
from the cap pass's one call or a power root's last call, and the warm start
hands its kept price's powers and rates on.  The minimum-bits price is
closed form; the time prices and `power_opt`'s powers come from one
safeguarded Newton root on analytic slopes, `_log_root`, whose steps move at
most 16 halvings down until a step lands below the root.

Multiplier order inside every length-6 vector: the prices of the
minimum-bits constraint, the sub-slot time budget, and the four link
capacity constraints (uplink, relay, UAV-result download, ground-result
download).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .instance import (PHASE_DOWN_RSU, PHASE_DOWN_UAV, PHASE_OFFLOAD, PHASE_RELAY,
                       ProblemInstance, spectral_sum)
# no solver path calls it: perfbench/tracing.py wraps this name, its only reader
from .lp import solve_lp
from .energy import compute_energy, compute_time
from .protocol import (CHECK_RTOL, Allocation, block_energy, carry_time, check_feasible,
                       phase_loads, wtec)

# Index constants for the six dual families.
D_MIN_BITS, D_SUBSLOT, D_UPLINK, D_RELAY, D_DOWN_UAV, D_DOWN_RSU = range(6)

_PHASE_RATE_DUAL = (D_UPLINK, D_RELAY, D_DOWN_UAV, D_DOWN_RSU)

# Relative tolerance of the sign rules (ground-unit bits, transmit times).
SIGN_RTOL = 1e-6

# Most doublings of the warm start's time-price bracket top past the ceiling.
_TIME_PRICE_DOUBLINGS = 40

# Initial ellipsoid radius in warm-start-scaled coordinates.
_ELLIPSOID_RADIUS = 4.0

# Relative tolerance of the weak-duality check on the signed gap.  Rounding
# alone leaves at most -1.7e-15 on a block and -4.5e-16 in total over the
# stock task_bits trend and 48 random scenarios.
WEAK_DUALITY_RTOL = 1e-12


class IterationCapExceeded(Exception):
    """Ellipsoid loop hit its iteration cap; carries the best report so far."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InfeasibleAllocation(Exception):
    """The minimum bits cannot be carried at the fixed powers."""


class WeakDualityViolated(Exception):
    """The best dual value exceeds the completed primal energy by more than
    `WEAK_DUALITY_RTOL`: a bound is wrong, since weak duality forbids it."""


@dataclass
class DualState:
    """Best multipliers, the completion that certified them, and the
    iteration log."""

    multipliers: np.ndarray  # (K, N, 6) best point per block
    dual_value: float
    gap: float  # signed (primal - dual) / primal, never clipped
    iterations: int
    converged: bool
    completion: tuple  # (bits, powers) of the completion that set the gap
    log: list = field(default_factory=list)


@dataclass
class SolveReport:
    """Outcome of one full optimization run."""

    allocation: Allocation
    wtec: float  # objective value (no propulsion)
    dual_value: float
    gap: float  # signed (wtec - dual_value) / wtec
    iterations: int
    converged: bool
    wtec_trajectory: list
    duals: np.ndarray  # (K, N, 6)
    feasible: bool
    violations: list


# ---------------------------------------------------------------------------
# closed forms and roots, elementwise over blocks
# ---------------------------------------------------------------------------

def _log_root(need, budget, hi):
    """Point x in (0, hi] at which need(x) meets the budget, per block.

    need(x) returns the need, which falls as x rises, and its slope d need/dx.
    Safeguarded Newton steps run in t = log(x) on g = log(need/budget), which
    is nearly linear in t for the solver's prices and powers; below a tenth
    of the budget g steepens, so there the step is at least Newton's step on
    the need itself.  Each step aims 4e-14 (above the spacing of floats near
    |t| < 128) above the root, so the iterates settle on its feasible side.
    The first evaluation is at hi; the bottom hi * 2**-80 stays an open end
    until a step lands below the root, and the ends move by the sign of
    need - budget.  While the low end is open a step moves at most 16
    halvings down: the slope at hi can leave out how the need's inputs
    respond (every power clamped at the ceiling), and a full step from there
    would land tens of e-folds below the root.  A step that is not finite or
    leaves the bracket takes the log-midpoint, or moves those 16 halvings
    down (to the bottom at most) while the low end is open.  A block stops at
    a feasible point that is the bottom or whose step is at most 1e-14 down
    (there the need fills the budget to its rounding), or when its bracket is
    narrower than 1e-13; at most 100 steps run.

    Returns the feasible end of the bracket (need(x) <= budget): hi where even
    need(hi) exceeds the budget, hi * 2**-80 where the whole bracket fits, and
    0 where hi = 0.
    """
    bottom, x, down = hi * 2.0**-80, hi, 16.0 * np.log(2.0)
    with np.errstate(divide="ignore"):
        t_lo = t_bottom = np.log(bottom)
        t = t_hi = np.log(hi)
    closed = np.zeros(hi.shape, dtype=bool)  # the low end was evaluated
    value, slope = need(x)
    done = (value > budget) | (hi <= 0.0)
    for _ in range(100):
        over = value > budget
        live_over, live_fits = ~done & over, ~done & ~over
        t_lo, closed = np.where(live_over, t, t_lo), closed | live_over
        t_hi, hi = np.where(live_fits, t, t_hi), np.where(live_fits, x, hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = -np.log(value / budget) * value / (x * slope)
            step = 4e-14 + np.where(value < 0.1 * budget,
                                    np.minimum(step, (budget - value) / (x * slope)), step)
            done |= live_fits & (((step >= -1e-14) & (step <= 4e-14)) | (t <= t_bottom))
            done |= t_hi - t_lo <= 1e-13
        if done.all():
            break
        t_new = t + np.where(closed, step, np.maximum(step, -down))
        t = np.where(done, t, np.where((t_new > t_lo) & (t_new < t_hi), t_new,
                                       np.where(closed, 0.5 * (t_lo + t_hi),
                                                np.maximum(t - down, t_bottom))))
        x = np.where(done, hi, np.where(t <= t_bottom, bottom, np.exp(t)))
        value, slope = need(x)
    return hi


def power_opt(gains, weight, price_rate, bandwidth, power_max) -> np.ndarray:
    """Root of the power stationarity condition on [0, power_max], clamped.

    `gains` has shape (..., L), such as the (4, K, N, L) phase-stacked
    tables; `weight`, `price_rate` and `power_max` broadcast against its
    leading shape.  The defining function weight - price_rate *
    d(rate)/d(power) is strictly increasing in power, so the root is the
    `_log_root` of price_rate * r'(p) / weight against 1, whose slope comes
    from r''(p) = -B/ln2 * sum_l g_l^2/(1 + p*g_l)^2; endpoints clamp when no
    interior root exists.
    """
    shape = np.broadcast_shapes(gains.shape[:-1], np.shape(weight), np.shape(price_rate))
    scale = price_rate * bandwidth / (np.log(2.0) * weight)

    def need(p):
        q = gains / (1.0 + p[..., None] * gains)
        return scale * spectral_sum(q), -scale * spectral_sum(q, q)

    # _log_root returns power_max exactly where price * r' > weight even there
    p = _log_root(need, 1.0, np.full(shape, power_max))
    return np.where(need(np.zeros(shape))[0] <= 1.0, 0.0, p)


def phase1_closed_form(trace_power, n_tx, n_rx, bound, weight, price_rate,
                       bandwidth, noise_density, power_max):
    """Closed-form phase-1 power under the rank-1 / full-rank rate bounds.

    Returns (power, power_unclamped).  The "fullrank" power is exactly
    min(n_tx, n_rx) times the "rank1" one before clamping.
    """
    noise = bandwidth * noise_density * n_tx
    p_lb_raw = bandwidth * (price_rate / (weight * np.log(2.0)) - noise / (bandwidth * trace_power))
    if bound == "rank1":
        raw = p_lb_raw
    elif bound == "fullrank":
        raw = min(n_tx, n_rx) * p_lb_raw
    else:
        raise ValueError(f"unknown bound {bound!r}")
    return float(np.clip(raw, 0.0, power_max)), float(raw)


# ---------------------------------------------------------------------------
# vectorized block machinery (arrays over all (k, n) blocks)
# ---------------------------------------------------------------------------

def _phase_weights(inst: ProblemInstance) -> np.ndarray:
    """Objective weight multiplying each phase's radiated energy, (4, K, N)."""
    k_w = np.broadcast_to(inst.weights_vehicle[:, None], inst.min_bits.shape)
    return np.stack([k_w] + [np.full(inst.min_bits.shape, inst.weight_uav)] * 3)


def _phi(gains, w, p):
    """Time price at which power p is stationary, w*(r/r' - p), its slope
    w*(r/r')*sum_l q_l^2/sum_l q_l >= 0 with q_l = g_l/(1 + p*g_l), and the
    sums sum_l log1p(p*g_l) and sum_l q_l, r and r' over B/ln2 (0 on a dead
    link: a zero gain adds 0, and only the divisions floor sum_l q_l).  The
    roots' phase axis leads `gains` (..., L), `w` and `p`.

    r/r' is sum_l log1p(p*g_l) / sum_l q_l (the bandwidth and ln 2 cancel).
    log1p keeps the low bits of p*g_l that log(1 + p*g_l) rounds away, so phi
    is resolved to about 8e-16*w*(r/r' + p) down to the smallest powers.  The
    three per-link sums are `spectral_sum`s, one einsum pass each (no BLAS).
    """
    x = p[..., None] * gains
    q = 1.0 + x
    np.divide(gains, q, out=q)  # in place: a fresh (..., L) array costs more than the pass
    floor = np.maximum(sum_q := spectral_sum(q), 1e-300)
    ratio = (sum_log := spectral_sum(np.log1p(x, out=x))) / floor
    return w * (ratio - p), w * ratio * spectral_sum(q, q) / floor, sum_log, sum_q


def _power_from_time_price(gains, w, pmax, at_cap, mu, start=None):
    """Invert w*(r/r' - p) = mu elementwise on [0, p_max] (clamped above) for
    the power roots stacked on a leading axis, `gains` (P, K, N, L), `w` (P,
    K, N), `pmax` (P,) and `at_cap`, `_phi` at p_max, each (P, K, N), at a
    time price `mu` (K, N); returns the powers, their slopes dp/dmu and the
    last `_phi` call's two sums, each (P, K, N): 1/phi'(p) and the sums at p
    inside (0, p_max), a 0 slope and stale sums where p clamps.

    mu <= 0 gives 0 and phi(p_max) <= mu gives p_max.  Elsewhere a
    safeguarded Newton iteration on log(phi) against log(p), where phi is
    nearly a straight line (phi ~ p**2 at low power), steps
    p <- p * exp(-log(phi/mu) * phi/(p*phi')).  It starts at `start`, the
    warm start's prediction (p_max where that is not positive), or at p_max,
    where it reads `_phi` from `at_cap`, which also decides the clamp.  It
    keeps a bracket [lo, hi] from the sign of phi(p) - mu; a step that is not
    finite or leaves the bracket halves the bracket instead.  A block stops
    when |phi(p) - mu| is within phi's rounding floor 8e-16*w*(r/r' + p) or
    its Newton step is at most 5e-15 in log(p), on the iterate it evaluated,
    so a start on the root confirms in one call.  At most 60 iterations run,
    one stacked `_phi` call each; a stopped block's power does not move, so
    each root returns the bits of a loop of its own.  It is not a `_log_root`:
    phi cancels r/r' against p, so near that root's bracket bottom p_max *
    2**-80 it reads rounding noise that steers the completion off its
    optimum; Newton starts at p_max or near the root.
    """
    pmax = pmax[:, None, None]
    p = np.broadcast_to(pmax, w.shape) if start is None else np.where(start > 0.0, start, pmax)
    values = at_cap if start is None else _phi(gains, w, p)
    at_max = at_cap[0] <= mu
    done = (mu <= 0.0) | at_max
    lo, hi = np.zeros(w.shape), np.full(w.shape, pmax)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(60):
            phi, slope = values[:2]
            f = phi - mu
            lo = np.where(f < 0.0, p, lo)
            hi = np.where(f > 0.0, p, hi)
            # phi's rounding floor, with w*(r/r' + p) = phi + 2*w*p
            done |= np.abs(f) <= 8e-16 * (phi + 2.0 * w * p)
            step = np.log(phi / mu) * phi / (p * slope)  # Newton step down in log(p)
            newton = p * np.exp(-step)
            # a step that small has converged, also where it rounds onto a
            # bracket end and so leaves the bracket
            done |= np.abs(step) <= 5e-15
            p = np.where(done, p, np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi)))
            if done.all():
                break
            values = _phi(gains, w, p)
    interior = (mu > 0.0) & ~at_max
    with np.errstate(divide="ignore"):  # phi' = 0 only on a dead link, which clamps
        dp = np.where(interior, 1.0 / values[1], 0.0)
    return np.where(interior, p, np.where(at_max, pmax, 0.0)), dp, *values[2:]


def _phase_powers(inst, caps, mu, start=None):
    """Stationary power of each phase at the (K, N) time price, the rate,
    dp/dmu and r', each (4, K, N), by one stacked `_power_from_time_price` on
    `caps`' three roots from p_max or the warm start's `start`.  The download
    root serves both download phases, clamped at each cap, over their one
    table.  Rate and r' are B/ln2 times the root's sums inside (0, p_max),
    `caps`' at the cap, 0 and B/ln2*sum_l g_l at 0."""
    roots = _power_from_time_price(caps.root_gains, caps.root_weights, caps.root_caps, caps.phi, mu,
                                   None if start is None else start[caps.roots])
    p, dp, sum_log, sum_q = (a[[0, 1, 2, 2]] for a in roots)
    scale, cap = inst.bandwidth / np.log(2.0), inst.power_max[:, None, None]
    powers, dpowers = np.minimum(p, cap), np.where(p < cap, dp, 0.0)
    rates = np.where(powers >= cap, caps.rates, np.where(powers > 0.0, scale * sum_log, 0.0))
    r_prime = np.where(powers >= cap, caps.slopes[1], np.where(powers > 0.0, scale * sum_q, caps.slopes[0]))
    return powers, rates, dpowers, r_prime


def _split_terms(inst, chi_subslot, chi_uplink, chi_down_uav):
    """Terms (A, cap_L, B, c0, cap_U) of the closed-form split at the given
    prices, per block: local bits minimize w*kappa*c^3*b^3/tau^2 - chi1*b and
    UAV bits w_u*kappa_u*c_u^3*K^2*b^3/tau^2 + (c0 - chi1)*b within their CPU
    caps, so b_local = min(A*sqrt(chi1), cap_L) and b_uav = min(B*sqrt((chi1 -
    c0)+), cap_U), with c0 the UAV route's price per bit."""
    vc, uc = inst.vehicle_compute, inst.uav_compute
    a = inst.slot_len / np.sqrt(3.0 * inst.weights_vehicle[:, None] * vc.capacitance * vc.cycles_per_bit**3)
    b = inst.subslot / np.sqrt(3.0 * inst.weight_uav * uc.capacitance * uc.cycles_per_bit**3)
    c0 = chi_subslot * uc.cycles_per_bit / uc.cpu_freq + chi_uplink + inst.output_ratio[:, None] * chi_down_uav
    return a, inst.bits_local_cap, b, c0, inst.bits_uav_cap


def _split(terms, chi1):
    """Closed-form local and UAV bits at the minimum-bits price, per block."""
    a, cap_l, b, c0, cap_u = terms
    return (np.minimum(a * np.sqrt(np.maximum(chi1, 0.0)), cap_l),
            np.minimum(b * np.sqrt(np.maximum(chi1 - c0, 0.0)), cap_u))


def _min_bits_price(terms, min_bits, d_c0):
    """Lowest price at which `_split` carries min_bits m, per block (inf where
    both CPU caps fall short), and its slope in mu given d_c0 = dc0/dmu.  The
    split's total rises continuously with the price; its values at the
    breakpoints (cap_L/A)^2, c0 and c0 + (cap_U/B)^2 pick the piece that
    holds the root: (m/A)^2 with no UAV bits, c0 + ((m - cap_L)/B)^2 past the
    local cap, ((m - cap_U)/A)^2 past the UAV cap, the later cap past both,
    else the square of the cancellation-free root of A*s + B*sqrt(s^2 - c0)
    = m, whose slope s_U*d_c0/(s_L + s_U) keeps b_L + b_U = m (s_L, s_U: the
    splits' slopes in the price).  Where rounding leaves that split short of
    m, the price steps up float by float to the first one that carries m."""
    a, cap_l, b, c0, cap_u = terms
    m = min_bits
    local_knee, uav_knee = (cap_l / a) ** 2, c0 + (cap_u / b) ** 2
    at_c0, at_local_cap, at_uav_cap = (sum(_split(terms, knee)) for knee in (c0, local_knee, uav_knee))
    local_capped, uav_capped = m >= at_local_cap, m >= at_uav_cap
    over, low = m > cap_l + cap_u, m <= at_c0  # the route price; no UAV bits
    # every piece is evaluated on every block: 0/0 or overflow only off its piece
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = (m * m + b * b * c0) / (a * m + b * np.sqrt(np.maximum(m * m + (b * b - a * a) * c0, 0.0)))
        price = np.where(over, np.inf, np.where(low, (m / a) ** 2, np.where(
            local_capped, np.where(uav_capped, np.maximum(local_knee, uav_knee), c0 + ((m - cap_l) / b) ** 2),
            np.where(uav_capped, ((m - cap_u) / a) ** 2, s * s))))
        # on the interior piece s_U/(s_L + s_U) = B^2*b_L/(A^2*b_U + B^2*b_L) with b_L = A*s
        slope = np.where(over | low, 0.0, np.where(
            local_capped, np.where(~uav_capped | (uav_knee >= local_knee), d_c0, 0.0),
            np.where(uav_capped, 0.0, d_c0 * b * b * s / (a * (m - a * s) + b * b * s))))
    # the float total rises with the price and reaches cap_L + cap_U >= m
    short = (sum(_split(terms, price)) < m) & np.isfinite(price)
    while short.any():
        price = np.where(short, np.nextafter(price, np.inf), price)
        short &= sum(_split(terms, price)) < m
    return price, slope


def _carry_slope(loads, dloads, rates, drates):
    """d/dmu of the carry times sum_ph load/rate from the stacked (4, ...)
    loads' and rates' slopes; a phase with no load and no load slope adds 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return sum(np.where((loads > 0.0) | (dloads != 0.0), (dloads - loads * drates / rates) / rates, 0.0))


def _candidate(inst, caps, mu, start=None):
    """Dual point and primal quantities implied by the sub-slot time price.

    At the block optimum, power stationarity plus the time-sign balance make
    every rate price a function of the time price alone: w / r'(p) at an
    interior power, (w * p_max + mu) / r at one clamped at its cap.  The
    minimum-bits price is the lower of `_min_bits_price`, the closed-form
    price at which the local and UAV bits sum to the requirement, and the
    ground-route price, which also stands when both CPU caps fall short; the
    ground unit carries the shortfall.  The need's slope is analytic:
    dp/dmu = 1/phi'(p) gives dr/dmu, the envelope theorem d(chi_ph)/dmu =
    1/r_ph (clamped powers too), and the minimum-bits price's slope on its
    piece the bits'.  `caps` is the solve's `CapFacts`; `start` and the
    rates are `_phase_powers`'.  Returns the (K, N, 6) dual point, the (K, N)
    sub-slot time its split needs, that need's slope d need/dmu, and the (4,
    K, N) phase powers, their slopes dp/dmu and their rates.
    """
    powers, rates, dpowers, r_prime = _phase_powers(inst, caps, mu, start)
    xi, uc, wv, pmax = inst.output_ratio[:, None], inst.uav_compute, caps.weights, inst.power_max[:, None, None]
    chis = np.where(powers >= pmax * (1.0 - 1e-12), (wv * pmax + mu) / np.maximum(caps.rates, 1e-300),
                    wv / np.maximum(r_prime, 1e-300))
    drates = r_prime * dpowers
    inv = 1.0 / np.maximum(rates, 1e-300)  # d(chi_ph)/dmu
    route, d_route = chis[0] + chis[1] + xi * chis[3], inv[0] + inv[1] + xi * inv[3]
    terms = _split_terms(inst, mu, chis[0], chis[2])
    _, cap_l, _, c0, cap_u = terms
    d_c0 = uc.cycles_per_bit / uc.cpu_freq + inv[0] + xi * inv[2]
    price, d_price = _min_bits_price(terms, inst.min_bits, d_c0)
    chi1, d_chi1 = np.minimum(price, route), np.where(price < route, d_price, d_route)
    bl, bu = _split(terms, chi1)
    br = np.maximum(inst.min_bits - bl - bu, 0.0)
    loads = phase_loads(inst, bu, br)
    times = carry_time(loads, rates)
    need = times[0] + times[1] + times[2] + times[3] + compute_time(bu, uc)
    # a split off its interior has slope 0; slopes overflow only beside a
    # dead link, where the need is inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dbl = np.where((bl < cap_l) & (chi1 > 0.0), bl / (2.0 * chi1) * d_chi1, 0.0)
        dbu = np.where((bu < cap_u) & (chi1 > c0), bu / (2.0 * (chi1 - c0)) * (d_chi1 - d_c0), 0.0)
        dbr = np.where(br > 0.0, -dbl - dbu, 0.0)
        slope = _carry_slope(loads, phase_loads(inst, dbu, dbr), rates, drates) + compute_time(dbu, uc)

    chi = np.stack([chi1, mu, *chis], axis=-1)
    return chi, need, slope, powers, dpowers, rates


@dataclass(frozen=True)
class CapFacts:
    """Each block's facts at the power caps, settled once per solve, stacked
    on a leading phase axis: the four phases, then the three power roots."""

    weights: np.ndarray  # (4, K, N) each phase's objective weight
    rates: np.ndarray  # (4, K, N) each phase's rate at its cap
    slopes: np.ndarray  # (2, 4, K, N) each phase's r' at power 0 and at its cap
    roots: list  # the phases whose tables, weights and caps the power roots take:
    # the uplink, the relay and the download phase with the larger cap
    root_gains: np.ndarray  # (3, K, N, L)
    root_weights: np.ndarray  # (3, K, N)
    root_caps: np.ndarray  # (3,)
    phi: tuple  # the cap call's `_phi` values on the root rows, each (3, K, N)
    ceiling: np.ndarray  # (K, N) time price above which every power clamps
    feasible: np.ndarray  # (K, N) `feasible_split`'s mask


def _at_caps(inst) -> CapFacts:
    """The cap facts of every block from one `_phi` call over the four phases
    of `inst.gains` at their caps: rates and r' are B/ln2 times its sums (r'
    at 0 is B/ln2*sum_l g_l), its root rows are phi at the power roots' caps
    (the price from which a power clamps) and set the ceiling, and
    `feasible_split` runs at those rates.  Both download phases share one
    root at the larger cap.  Raises ValueError when the two download tables
    differ: both send over the vehicle-UAV link in reverse (`ProblemInstance`)."""
    pmax, gains = inst.power_max, inst.gains
    if not np.array_equal(gains[PHASE_DOWN_UAV], gains[PHASE_DOWN_RSU]):
        raise ValueError("both download phases must share one gain table (the vehicle-UAV link in reverse)")
    weights, scale = _phase_weights(inst), inst.bandwidth / np.log(2.0)
    phi = _phi(gains, weights, np.broadcast_to(pmax[:, None, None], weights.shape))
    rates, slopes = scale * phi[2], np.stack([scale * spectral_sum(gains), scale * phi[3]])
    roots = [PHASE_OFFLOAD, PHASE_RELAY,
             PHASE_DOWN_UAV if pmax[PHASE_DOWN_UAV] >= pmax[PHASE_DOWN_RSU] else PHASE_DOWN_RSU]
    root_phi = tuple(a[roots] for a in phi)
    ceiling = np.maximum(root_phi[0].max(axis=0), 0.0)
    return CapFacts(weights, rates, slopes, roots, gains[roots], weights[roots], pmax[roots], root_phi,
                    ceiling, feasible_split(inst, rates)[0])


def feasible_split(inst, rates):
    """Greedy minimal-budget bit split at maximum power, per block, from the
    rates at the power caps.

    Assigns free local compute first, then the cheaper of the UAV and
    ground-unit routes by per-bit budget cost; exact for the linear cost.
    Returns (feasible mask, (local, uav, rsu) bits).
    """
    uc, xi = inst.uav_compute, inst.output_ratio[:, None]
    inv = carry_time(1.0, rates)  # time per bit, inf on a dead link
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
    # a route without bits adds 0, also over a dead link (cost inf)
    need = carry_time(bu, 1.0 / cost_uav) + carry_time(br, 1.0 / cost_rsu)
    feasible = need <= inst.subslot * (1.0 + 1e-12)
    return feasible, (bl, bu, br)


def warm_start(inst: ProblemInstance, caps: CapFacts):
    """Dual seed per block from the one-dimensional time-price reduction.

    Finds the time price at which `_candidate`'s sub-slot need, which falls
    as the price rises, meets the sub-slot, by `_log_root`'s Newton steps on
    the analytic need' that `_candidate` returns, and zeroes the blocks
    without load.  At the ceiling every power is clamped, so need' there
    leaves out the powers' response; the root's first step moves at most 16
    halvings down, so the power roots restart near their own roots.  Past
    the ceiling the powers stay capped but the rate prices rise and the
    split tends to `feasible_split`'s, so the need keeps falling: every
    block carries its bits under that split (the solve checks
    `caps.feasible` first), so where one needs more than the sub-slot at the
    ceiling, the bracket top doubles until the need fits.  Each power
    root starts on the tangent at the last evaluation, p*exp(dlog(mu) *
    mu*(dp/dmu)/p) capped at p_max (an Euler predictor), or at p_max past a
    clamped or zero power, so an unchanged price costs one `_phi` call.  The
    kept price takes its last evaluation's dual point, powers and rates; one
    more `_candidate` runs only where a block was last evaluated elsewhere
    (after the doubling).  Returns (multipliers, dual values, (powers,
    rates)) at the kept price, zeroed on the blocks without load.
    """
    pmax, last = inst.power_max[:, None, None], None  # (mu, chi, powers, dp/dmu, rates) last evaluated

    def need(mu):
        nonlocal last
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # nan, so p_max, after a zero power
            start = last and np.minimum(last[2] * (mu / last[0]) ** (last[0] * last[3] / last[2]), pmax)
        chi, value, slope, powers, dpowers, rates = _candidate(inst, caps, mu, start)
        last = mu, chi, powers, dpowers, rates
        return value, slope

    mu = _log_root(need, inst.subslot, caps.ceiling)
    # the root stops at its top where the need there exceeds the sub-slot
    top, over = caps.ceiling, mu >= caps.ceiling
    for _ in range(_TIME_PRICE_DOUBLINGS):
        if not over.any():
            break
        top = np.where(over, 2.0 * top, top)
        over &= need(top)[0] > inst.subslot
    raised = top > caps.ceiling
    if raised.any():  # a zero bracket top leaves the other blocks out of the root
        mu = np.where(raised, _log_root(need, inst.subslot, np.where(raised, top, 0.0)), mu)
    if (last[0] != mu).any():  # a block last evaluated at another price
        need(mu)
    _, chi, powers, _, rates = last
    idle = inst.min_bits <= 0.0
    chi, kept = np.where(idle[..., None], 0.0, chi), tuple(np.where(idle, 0.0, a) for a in (powers, rates))
    value, _ = dual_point_eval(inst, chi, kept)
    return chi, value, kept


def dual_point_eval(inst: ProblemInstance, chi: np.ndarray, powers=None):
    """Dual value and subgradient at a multiplier point, per block.

    Inner minimizers follow the closed forms and sign rules; indeterminate
    ground-unit bits and transmit times take their recovery-problem values so
    the subgradient vanishes at the optimum.  The phase powers and rates are
    one `power_opt` call's over the four phases at the rate prices and one
    `ProblemInstance.rate` call's there, or `powers`, a (powers, rates) pair,
    when given: the warm start's, from which its rate prices came.  A block
    whose minimum-bits price exceeds its ground-route price lies outside the
    dual domain: its ground-unit term is unbounded below, so its value is
    -inf.  Returns (values (K, N), subgradients (K, N, 6)).
    """
    vc, uc, xi = inst.vehicle_compute, inst.uav_compute, inst.output_ratio[:, None]
    tau, sub, w_col, wv = inst.slot_len, inst.subslot, inst.weights_vehicle[:, None], _phase_weights(inst)

    chi1, chi2 = chi[..., D_MIN_BITS], chi[..., D_SUBSLOT]
    terms = _split_terms(inst, chi2, chi[..., D_UPLINK], chi[..., D_DOWN_UAV])
    bl, bu = _split(terms, chi1)
    l1 = w_col * compute_energy(bl, vc, tau) - chi1 * bl
    l2 = inst.weight_uav * compute_energy(bu, uc, tau, inst.n_vehicles) + (terms[3] - chi1) * bu

    route = chi[..., D_UPLINK] + chi[..., D_RELAY] + xi * chi[..., D_DOWN_RSU]
    margin, margin_scale = route - chi1, route + chi1 + 1e-300
    indeterminate = margin <= SIGN_RTOL * margin_scale
    br = np.where(indeterminate, np.maximum(inst.min_bits - bl - bu, 0.0), 0.0)

    value = l1 + l2 + chi1 * inst.min_bits - chi2 * sub

    loads, chir = phase_loads(inst, bu, br), np.moveaxis(chi[..., _PHASE_RATE_DUAL], -1, 0)  # (4, K, N)
    if powers is None:
        p = power_opt(inst.gains, wv, chir, inst.bandwidth, inst.power_max[:, None, None])
        powers = p, inst.rate(p)
    powers, rates = powers
    s = wv * powers + chi2 - chir * rates
    s_scale = wv * powers + chi2 + chir * rates + 1e-300
    full = s < -SIGN_RTOL * s_scale
    interval = np.abs(s) <= SIGN_RTOL * s_scale
    with np.errstate(divide="ignore", invalid="ignore"):
        carry = np.where(rates > 0.0, loads / rates, 0.0)
    times = np.where(full, sub, np.where(interval, np.minimum(carry, sub), 0.0))
    # the full phases' terms join the value phase by phase
    value = np.where(margin < -SIGN_RTOL * margin_scale, -np.inf, sum(np.where(full, sub * s, 0.0), value))
    g = np.stack([inst.min_bits - bl - bu - br,
                  times[0] + times[1] + compute_time(bu, uc) + times[2] + times[3] - sub,
                  *(loads - times * rates)], axis=-1)
    return value, g


def complete_primal(inst: ProblemInstance, caps: CapFacts, bits, mu, powers=None):
    """Energy-minimal feasible schedule carrying the given bit split.

    Powers and times follow from the time price at which the carry times of
    the fixed bits fill the sub-slot left after UAV compute.  `mu` is a
    (K, N) candidate price, such as the multipliers' own, with `powers`, its
    (powers, rates) pair, when known (the warm start's), else
    `_phase_powers`': a block keeps it when its carry times there fit that
    budget and fill it to within 1e-12 relative, or when it carries no load.
    Only the blocks that fail this take the price from the time-price root
    (the warm start's, up to `caps.ceiling`), with `_phase_powers`' powers
    and rates there, and the root runs only when some block fails.  Returns
    (powers (4,K,N), times (4,K,N), per-block weighted energy, infeasible
    mask).
    """
    bl, bu, br = bits
    loads = phase_loads(inst, bu, br)
    budget = inst.subslot - compute_time(bu, inst.uav_compute)

    def carry(mu):  # sum of the carry times and its slope in mu, bits fixed
        _, rates, dpowers, r_prime = _phase_powers(inst, caps, mu)
        return sum(carry_time(loads, rates)), _carry_slope(loads, 0.0, rates, r_prime * dpowers)

    powers, rates = _phase_powers(inst, caps, mu)[:2] if powers is None else powers
    times = carry_time(loads, rates)
    retry = ~((np.abs(sum(times) - budget) <= 1e-12 * budget) | (loads[0] <= 0.0))
    if retry.any():
        # a zero bracket top leaves the kept blocks out of the root
        p_root, r_root = _phase_powers(inst, caps, _log_root(carry, budget, np.where(retry, caps.ceiling, 0.0)))[:2]
        times = np.where(retry, carry_time(loads, r_root), times)
        powers = np.where(retry, p_root, powers)
    # the root is mu_hi wherever even that price is short
    infeasible = (sum(times) > budget * (1.0 + 1e-12)) | (budget < -1e-15)
    times = np.where(np.isfinite(times), times, 0.0)
    powers = np.where(loads > 0.0, powers, 0.0)
    energy = block_energy(inst, bl, bu, powers, times)
    return powers, times, energy, infeasible


def blended_completion(inst: ProblemInstance, chi: np.ndarray, caps: CapFacts, powers=None):
    """The closed-form bit split at multipliers (the ground unit takes the
    shortfall) and its energy-minimal schedule, by one `complete_primal`; a
    block whose split cannot fit the budget stays in `inf_mask`.  The
    completion takes the multipliers' time price as its candidate, with
    `powers`, a (powers, rates) pair, when given: at the warm start, whose
    pair it is, the split fills the budget at that price, so neither a
    time-price root nor a power root runs.  Returns (bits, (powers, times),
    energy, inf_mask)."""
    mu = chi[..., D_SUBSLOT]
    bl, bu = _split(_split_terms(inst, mu, chi[..., D_UPLINK], chi[..., D_DOWN_UAV]), chi[..., D_MIN_BITS])
    bits = bl, bu, np.maximum(inst.min_bits - bl - bu, 0.0)
    powers, times, energy, inf_mask = complete_primal(inst, caps, bits, mu, powers)
    return bits, (powers, times), energy, inf_mask


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


def ellipsoid_solve(inst: ProblemInstance, eps: float = 1e-4, max_iterations: int = 200) -> DualState:
    """Maximize the separable dual by per-block deep-cut ellipsoids.

    Raises InfeasibleAllocation, naming the first block in row-major order,
    when `feasible_split` finds a block that no split carries at full power.
    Blocks are warm-started from the time-price reduction; every iteration
    restores multiplier feasibility with constraint cuts, evaluates the inner
    closed forms at the centers, applies an objective cut, and re-certifies
    the weak-duality gap between the completed schedule and the best dual
    value.  Raises IterationCapExceeded (carrying the state) past the cap,
    and WeakDualityViolated, naming the block with the most negative gap,
    when the signed gap falls below -WEAK_DUALITY_RTOL.
    """
    caps = _at_caps(inst)
    if not caps.feasible.all():
        k, n = np.argwhere(~caps.feasible)[0]
        raise InfeasibleAllocation(f"minimum bits unachievable within the sub-slot for vehicle {k}, slot {n}")
    (k, n), d = inst.min_bits.shape, 6
    best_chi, best_value, warm_powers = warm_start(inst, caps)
    xi = inst.output_ratio[:, None]

    scale = np.maximum(np.abs(best_chi), np.max(np.abs(best_chi), axis=-1, keepdims=True) * 1e-9)
    scale = np.maximum(scale, 1e-30)  # floor keeps norms of scaled cuts above underflow
    center = best_chi / scale
    shape = np.broadcast_to(np.eye(d) * _ELLIPSOID_RADIUS**2 * d, (k, n, d, d)).copy()

    def certify(chi, powers=None):
        bits, (powers, _), energy, inf_mask = blended_completion(inst, chi, caps, powers)
        total_primal = float(np.where(inf_mask, 0.0, energy).sum())
        total_dual = float(np.where(inf_mask, 0.0, best_value).sum())
        gap = (total_primal - total_dual) / max(abs(total_primal), 1e-300)
        if gap < -WEAK_DUALITY_RTOL:
            block_gap = np.where(inf_mask, np.inf, energy - best_value)
            worst = np.unravel_index(np.argmin(block_gap), block_gap.shape)
            raise WeakDualityViolated(
                f"dual value exceeds the completed primal by {-gap:.3e} relative; "
                f"worst block vehicle {worst[0]}, slot {worst[1]} ({block_gap[worst]:.3e} J)")
        if inf_mask.any():
            # a block with no completable split yet keeps the run
            # uncertified until the multipliers move
            gap = np.inf
        return gap, total_primal, total_dual, (bits, powers)

    log = []
    gap, primal, dual_total, completion = certify(best_chi, warm_powers)
    log.append({"iteration": 0, "dual": dual_total, "wtec": primal, "gap": gap})
    converged = gap < eps
    it = 0
    while not converged and it < max_iterations:
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
            gap, primal, dual_total, completion = certify(best_chi)
        log.append({"iteration": it, "dual": dual_total, "wtec": primal, "gap": gap})
        converged = gap < eps

    state = DualState(multipliers=best_chi, dual_value=float(dual_total), gap=float(gap), iterations=it,
                      converged=bool(converged), completion=completion, log=log)
    if not converged:
        raise IterationCapExceeded(
            f"gap {gap:.3e} after {it} iterations (eps {eps})", report=state
        )
    return state


# ---------------------------------------------------------------------------
# schedule recovery and the full pipeline
# ---------------------------------------------------------------------------

def solve_p2(inst: ProblemInstance, bits_local, bits_uav, powers):
    """Ground-unit bits and the four transmit times of the recovery problem.

    At fixed powers and a fixed local/UAV split the recovery LP (P2) minimizes
    the weighted radiated energy sum w * p * t subject to the minimum bits,
    the four link capacities, the sub-slot budget and the time ranges.  Its
    optimum is closed form, for all blocks at once: b_R costs nothing and
    every capacity and budget row only tightens as b_R grows, so b_R =
    max(min_bits - b_local - b_uav, 0); each time costs w * p >= 0 and its
    capacity row bounds it below by load / rate, so it is the carry time.
    Raises InfeasibleAllocation for the first block where a load meets a
    zero rate or the times plus the UAV compute time exceed the sub-slot by
    more than `check_feasible`'s tolerance.
    """
    bits_rsu = np.maximum(inst.min_bits - bits_local - bits_uav, 0.0)
    loads = phase_loads(inst, bits_uav, bits_rsu)
    times = carry_time(loads, inst.rate(powers))
    used = times.sum(axis=0) + compute_time(bits_uav, inst.uav_compute)
    over = used > inst.subslot * (1 + CHECK_RTOL)
    if over.any():
        k, n = np.argwhere(over)[0]
        raise InfeasibleAllocation(
            f"minimum bits unachievable at fixed powers for vehicle {k}, slot {n}"
        )
    return bits_rsu, times


def algorithm1(inst: ProblemInstance, eps: float = 1e-4, max_iterations: int = 200) -> SolveReport:
    """Full dual pipeline: ellipsoid ascent, then the closed-form recovery.

    The report carries the per-iteration objective trajectory and the final
    duality gap.  IterationCapExceeded propagates with the best-so-far state
    attached.
    """
    state = ellipsoid_solve(inst, eps, max_iterations)
    return finish_from_duals(inst, state)


def finish_from_duals(inst: ProblemInstance, state: DualState) -> SolveReport:
    """Recover the primal allocation from a converged (or best-so-far) dual.

    Reuses the completion that certified the state's gap; its bit split and
    powers fix the recovery problem, which `solve_p2` solves in closed form.
    A converged state completed every block; on a best-so-far one, `solve_p2`
    names the first block its completion could not fit.
    """
    (bl, bu, _), powers = state.completion
    bits_rsu, times = solve_p2(inst, bl, bu, powers)
    alloc = Allocation(*(np.array(a) for a in (bl, bu, bits_rsu, powers, times)))
    verdict = check_feasible(alloc, inst)
    value = wtec(alloc, inst)
    # one trajectory entry per ellipsoid iteration (the warm-start point is
    # iteration 0 in the state log)
    trajectory = [entry["wtec"] for entry in state.log[1:]]
    gap = (value - state.dual_value) / max(abs(value), 1e-300)
    return SolveReport(allocation=alloc, wtec=value, dual_value=state.dual_value, gap=gap,
                       iterations=state.iterations, converged=state.converged, wtec_trajectory=trajectory,
                       duals=state.multipliers, feasible=verdict.feasible, violations=verdict.violations)
