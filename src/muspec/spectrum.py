"""Dichotomy spectra relative to a growth rate.

The estimator works on ratio statistics: over a window [-N, N] it enumerates
time pairs n < k whose rate log-quotient L = log(mu(k)/mu(n)) is at least a
fixed fraction of the largest quotient attainable in the window, and records

    lambda_upper(N) = max over pairs of log||Phi(k, n)|| / L
    lambda_lower(N) = min over pairs of log||Phi(k, n)|| / L

The multiplicative constant in a dichotomy bound contributes O(1/L) to each
ratio, so the cutoff washes it out.  Stabilization across an increasing
window schedule yields the two extremal exponents; monotone growth or escape
beyond a threshold flags divergence to +-infinity.  An unpinned schedule is
extended by doubling while a scalar or diagonal estimate has not converged.  A scalar spectrum is the
interval between the two exponents; diagonal systems merge per-component
intervals and carry projector ranks on the gaps; full matrices only get an
outer enclosure from singular-value statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import evolution, exprparse, rates
from .evolution import FULL, LinearSystem, WeightedSystem
from .params import DEFAULT, Params


INF = math.inf


class SpectrumError(ValueError):
    """Estimation could not run (empty pair set, bad structure, ...)."""


# ---------------------------------------------------------------------------
# Bohl estimates


@dataclass(frozen=True)
class BohlEstimate:
    """Extremal growth exponents of one component relative to a rate.

    resolution is a conservative error radius for the finite endpoints: twice
    the last window-to-window change (an estimate converging like 1/window
    still moves by its own remaining error on the final doubling, so a single
    step under-covers).
    """

    lower: float
    upper: float
    per_window: tuple
    diverged_lower: bool
    diverged_upper: bool
    stabilized_lower: bool
    stabilized_upper: bool
    pairs_used: int
    resolution: float

    @property
    def converged(self) -> bool:
        lower_ok = self.stabilized_lower or self.diverged_lower
        upper_ok = self.stabilized_upper or self.diverged_upper
        return lower_ok and upper_ok


def _sequence_verdict(values: list[float], tol: float, gamma_max: float):
    """Collapse a per-window sequence to (final, stabilized, diverged, delta).

    Stabilized when the last two values agree within tol.  Divergence is
    flagged when the last value escapes [-gamma_max, gamma_max], or when the
    last three steps move monotonically by at least tol each in the direction
    of the sign of the last value (an increasing positive tail means +inf, a
    decreasing negative tail means -inf; a decreasing positive tail is just a
    slowly converging estimate and is left unflagged).
    """
    last = values[-1]
    delta = abs(values[-1] - values[-2]) if len(values) >= 2 else 0.0
    if len(values) >= 2 and delta <= tol:
        return last, True, False, delta
    if abs(last) > gamma_max:
        return math.copysign(INF, last), False, True, 0.0
    diffs = [b - a for a, b in zip(values, values[1:])]
    if len(diffs) >= 3:
        tail = diffs[-3:]
        if all(d >= tol for d in tail) and last > 0:
            return INF, False, True, 0.0
        if all(d <= -tol for d in tail) and last < 0:
            return -INF, False, True, 0.0
    return last, False, False, delta


def _finish_estimate(per_window, pairs_used, params: Params) -> BohlEstimate:
    lows = [w[1] for w in per_window]
    highs = [w[2] for w in per_window]
    lo, lo_stab, lo_div, lo_delta = _sequence_verdict(lows, params.tol_stab, params.gamma_max)
    hi, hi_stab, hi_div, hi_delta = _sequence_verdict(highs, params.tol_stab, params.gamma_max)
    if lo > hi:
        # the per-window order lower <= upper survives any mix of flags
        # except lower -> +inf with a finite upper; promote the upper too
        hi, hi_stab, hi_div = lo, lo_stab, lo_div
    return BohlEstimate(
        lower=lo, upper=hi,
        per_window=tuple(per_window),
        diverged_lower=lo_div, diverged_upper=hi_div,
        stabilized_lower=lo_stab, stabilized_upper=hi_stab,
        pairs_used=pairs_used,
        resolution=2.0 * max(lo_delta, hi_delta),
    )


def _window_slice(times: np.ndarray, window: int) -> slice:
    center = (len(times) - 1) // 2
    return slice(center - window, center + window + 1)


_PAIR_BLOCK = 1 << 14  # pair candidates held at once by pair_ratio_blocks


def pair_ratio_blocks(r: np.ndarray, heads: np.ndarray, tails: np.ndarray,
                      threshold: float):
    """Ratios (heads[k, j] + tails[k, i]) / (r[j] - r[i]) of K series
    (``heads`` and ``tails`` of shape (K, len(r))) over the admissible pairs
    i < j, those with r[j] - r[i] >= threshold and > 0, one block of rows at
    a time, so memory stays O(_PAIR_BLOCK) rather than O(K * len(r)^2).
    Every series on one rate grid shares the block's log-quotients and mask.

    ``r`` is a finite log-rate grid, non-decreasing up to the small drops
    ``rates.log_rate_grid`` lets through, so the admissible partners of a
    row lie in a suffix of the later columns.  A block starting at row i0
    scans only the columns from j0 on, the first j > i0 with
    top[j] - low[i0] >= threshold, where top is the running maximum of r
    and low its suffix minimum.  For every row i >= i0, r[i] >= low[i0]
    and r[j] <= top[j]; float subtraction is monotone, so the computed
    r[j] - r[i] is at most the computed top[j] - low[i0], and every skipped
    column fails the threshold for every row of the block.  low[i0] never
    decreases, so neither does j0, and the scan stops at the first block
    with no column left.

    Yields (i0, j0, mask, q) for each block with admissible pairs: q has
    shape (K, rows, len(r) - j0) and holds the ratio of every pair
    (i0 + a, j0 + b) of the block's rectangle, and mask[a, b] marks the
    admissible ones.  The entries off the mask are not ratios of admissible
    pairs (their log-quotient may be zero or negative), so a caller
    overwrites them before reducing, instead of copying the admissible
    ratios out: with -inf before a max and +inf before a min.  A fill
    beats no admissible entry and every admissible entry (NaN included)
    matches or beats it, so the max or min of the filled rectangle equals
    the admissible ratios' extreme; only the sign of a zero extreme, or of
    a NaN, depends on the order numpy reduces in.  Row-major order over the
    blocks' masks is the order of ``np.triu_indices``.  A row block reaches
    a column j <= i only if it holds rows from j0 on, so only such a block
    tests j > i.
    """
    n = len(r)
    threshold = max(threshold, math.ulp(0.0))  # L >= the least positive double is L > 0
    top = np.maximum.accumulate(r)
    low = np.minimum.accumulate(r[::-1])[::-1]
    i0 = 0
    while i0 < n - 1:
        j0 = i0 + 1 + int(np.searchsorted(top[i0 + 1:] - low[i0], threshold))
        if j0 >= n:
            break
        stop = min(i0 + max(1, _PAIR_BLOCK // (len(heads) * (n - j0))), n - 1)
        L = r[None, j0:] - r[i0:stop, None]
        mask = L >= threshold
        if stop > j0:  # only rows from j0 on meet columns j <= i
            mask &= np.arange(j0, n)[None, :] > np.arange(i0, stop)[:, None]
        if mask.any():
            # off the mask L may be zero or negative; those entries are discarded
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                q = heads[:, None, j0:] + tails[:, i0:stop, None]
                q /= L
            yield i0, j0, mask, q
        i0 = stop


def _pair_ratio_stats(r: np.ndarray, heads: np.ndarray, tails: np.ndarray, cutoff: float):
    """(min ratios, max ratios, admissible pair count) of ``pair_ratio_blocks``
    at the cutoff fraction of the window's log-quotient: one min and one max
    per series of the (K, len(r)) stacks ``heads`` and ``tails``, and the
    count they share.  min and max are exact, and a zero extreme is +0.0
    (which zero numpy returns when both are admissible depends on its order
    of reduction), so the result does not depend on the blocking."""
    l_max = r[-1] - r[0]
    if l_max <= 0:
        raise SpectrumError("growth rate is flat on the window; no admissible pairs")
    lo = np.full(len(heads), INF)
    hi = np.full(len(heads), -INF)
    count = 0
    for _, _, mask, q in pair_ratio_blocks(r, heads, tails, cutoff * l_max):
        outside = ~mask
        np.copyto(q, -INF, where=outside)
        hi = np.maximum(hi, q.max(axis=(1, 2)))
        np.copyto(q, INF, where=outside)
        lo = np.minimum(lo, q.min(axis=(1, 2)))
        count += int(np.count_nonzero(mask))
    if not count:
        raise SpectrumError("no admissible pairs after the log-quotient cutoff")
    return lo + 0.0, hi + 0.0, count  # -0.0 + 0.0 is +0.0; every other value stays


def bohl_exponents(system, rate: rates.GrowthRate, params: Params = DEFAULT,
                   component: int | None = None) -> BohlEstimate:
    """Extremal exponents for a scalar system or one diagonal component."""
    base = system.base if isinstance(system, WeightedSystem) else system
    _check_pairing(base, rate)
    if base.structure == FULL:
        raise SpectrumError("Bohl exponents need scalar or diagonal structure")
    if component is None:
        if base.components != 1:
            raise SpectrumError("pick a component of the diagonal system")
        component = 0
    return _component_estimates(system, rate, params, [component])[0]


def _check_pairing(system: LinearSystem, rate: rates.GrowthRate):
    if system.time_domain != rate.time_domain:
        raise SpectrumError(
            f"system is {system.time_domain}-time but the rate is {rate.time_domain}-time")


# ---------------------------------------------------------------------------
# Spectrum assembly


@dataclass(frozen=True)
class SpectralInterval:
    """Closed spectral interval over the extended reals; [-inf,-inf] and
    [+inf,+inf] encode the degenerate one-point sets at infinity."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise SpectrumError(f"interval endpoints out of order: {self.lo} > {self.hi}")


@dataclass(frozen=True)
class SpectralGap:
    lo: float
    hi: float
    rank: int | None
    pattern: tuple | None


@dataclass(frozen=True)
class SpectrumReport:
    rate_descriptor: dict
    system_descriptor: dict
    intervals: tuple
    gaps: tuple
    mode: str
    converged: bool
    windows: tuple
    component_estimates: tuple
    resolution: float
    params: Params

    def to_dict(self) -> dict:
        traces = []
        for comp, est in enumerate(self.component_estimates):
            for n, lo, hi in est.per_window:
                traces.append({
                    "window": n,
                    "component": comp,
                    "lambda_lower": _ext(lo),
                    "lambda_upper": _ext(hi),
                })
        gaps = []
        for g in self.gaps:
            entry = {"lo": _ext(g.lo), "hi": _ext(g.hi), "rank": g.rank}
            if g.pattern is not None:
                entry["pattern"] = list(g.pattern)
            gaps.append(entry)
        return {
            "intervals": [{"lo": _ext(iv.lo), "hi": _ext(iv.hi)} for iv in self.intervals],
            "gaps": gaps,
            "mode": self.mode,
            "converged": self.converged,
            "windows": [float(w) for w in self.windows],
            "resolution": self.resolution,
            "traces": traces,
            "rate": self.rate_descriptor,
            "system": self.system_descriptor,
            "params": {
                "tol_stab": self.params.tol_stab,
                "cutoff_fraction": self.params.cutoff_fraction,
                "gamma_max": self.params.gamma_max,
                "delta_merge": self.params.merge_tolerance,
            },
        }


def _ext(x: float):
    if x == INF:
        return "+inf"
    if x == -INF:
        return "-inf"
    return float(x)


def _merge_intervals(raw: list[SpectralInterval], merge_tol: float) -> list[SpectralInterval]:
    merged: list[list[float]] = []
    for iv in sorted(raw, key=lambda iv: (iv.lo, iv.hi)):
        if merged:
            prev = merged[-1]
            gap = 0.0 if iv.lo <= prev[1] else iv.lo - prev[1]
            if gap < merge_tol:
                prev[1] = max(prev[1], iv.hi)
                continue
        merged.append([iv.lo, iv.hi])
    return [SpectralInterval(lo, hi) for lo, hi in merged]


def _gap_representative(lo: float, hi: float) -> float:
    if lo == -INF and hi == INF:
        return 0.0
    if lo == -INF:
        return hi - 1.0
    if hi == INF:
        return lo + 1.0
    return 0.5 * (lo + hi)


def _build_gaps(merged: list[SpectralInterval], component_intervals: list[SpectralInterval],
                with_ranks: bool) -> list[SpectralGap]:
    bounds: list[tuple[float, float]] = []
    if merged[0].lo > -INF:
        bounds.append((-INF, merged[0].lo))
    for left, right in zip(merged, merged[1:]):
        bounds.append((left.hi, right.lo))
    if merged[-1].hi < INF:
        bounds.append((merged[-1].hi, INF))
    gaps = []
    for lo, hi in bounds:
        if not with_ranks:
            gaps.append(SpectralGap(lo, hi, None, None))
            continue
        gamma = _gap_representative(lo, hi)
        pattern = tuple(1 if iv.hi < gamma else 0 for iv in component_intervals)
        gaps.append(SpectralGap(lo, hi, sum(pattern), pattern))
    return gaps


def compute_spectrum(system, rate: rates.GrowthRate, params: Params = DEFAULT) -> SpectrumReport:
    """Assemble the dichotomy spectrum report for a system under a rate.

    Scalar and diagonal systems get exact-structure spectra: per-component
    Bohl intervals, merged when closer than the merge tolerance, with
    projector ranks attached to the gaps (a gap's rank counts the components
    whose interval lies entirely to its left, which is the dimension of the
    decaying subspace for weights inside the gap).  Full systems get an
    outer enclosure from singular-value statistics, with no projector claims,
    always on the schedule as given.  ``windows`` lists the windows used;
    for exact-structure reports that includes any extension of an unpinned
    schedule (see ``_component_estimates``).
    """
    base = system.base if isinstance(system, WeightedSystem) else system
    _check_pairing(base, rate)
    if base.structure == FULL:
        estimates = [_enclosure_estimate(system, rate, params)]
        mode = "enclosure"
    else:
        estimates = _component_estimates(system, rate, params, range(base.components))
        mode = "exact"
    component_intervals = [SpectralInterval(est.lower, est.upper) for est in estimates]
    merged = _merge_intervals(component_intervals, params.merge_tolerance)
    gaps = _build_gaps(merged, component_intervals, with_ranks=(mode == "exact"))
    resolution = max(est.resolution for est in estimates)
    return SpectrumReport(
        rate_descriptor=rates.rate_to_descriptor(rate),
        system_descriptor=evolution.system_to_descriptor(base),
        intervals=tuple(merged),
        gaps=tuple(gaps),
        mode=mode,
        converged=all(est.converged for est in estimates),
        windows=tuple(w for w, _, _ in max((est.per_window for est in estimates), key=len)),
        component_estimates=tuple(estimates),
        resolution=resolution,
        params=params,
    )


def _component_estimates(system, rate, params: Params, components) -> list[BohlEstimate]:
    """Bohl estimates of the given components over the window schedule.

    Unless the schedule is pinned, an estimate that has not converged takes
    further doubled windows (``Params.extension_windows``) until it
    converges or the cap is reached; a converged component takes no more
    windows, so each estimate depends on its own component only.  The
    extension stops early at the first window on which the system or rate
    cannot be evaluated (a tabulated system's range ends, a coefficient
    leaves its domain): the estimate then keeps the windows it has.
    """
    base = system.base if isinstance(system, WeightedSystem) else system
    windows = params.windows(base.time_domain)
    per_window = {comp: [] for comp in components}
    estimates = {}

    def scan(grid, comps, n):
        """One pair scan of the window for all of comps at once."""
        times, logs, r_full = grid
        sl = _window_slice(times, n)
        s = logs[comps, sl]
        lo, hi, pairs_used = _pair_ratio_stats(r_full[sl], s, -s, params.cutoff_fraction)
        for comp, comp_lo, comp_hi in zip(comps, lo.tolist(), hi.tolist()):
            per_window[comp].append((float(n), comp_lo, comp_hi))
            estimates[comp] = _finish_estimate(per_window[comp], pairs_used, params)

    grid = _log_grid(system, rate, max(windows))
    for n in windows:
        scan(grid, components, n)
    for n in params.extension_windows(base.time_domain):
        pending = [comp for comp in components if not estimates[comp].converged]
        if not pending:
            break
        try:
            grid = _log_grid(system, rate, n)
        except (evolution.EvolutionError, exprparse.ExprError, rates.RateError):
            break
        scan(grid, pending, n)
    return [estimates[comp] for comp in components]


def _log_grid(system, rate, window: int):
    times, logs = evolution.component_log_grid(system, window)
    # the rate grid is sampled at the same integer times, and checked
    return times, logs, rates.log_rate_grid(rate, window)


def _enclosure_estimate(system, rate, params: Params) -> BohlEstimate:
    """Outer singular-value bounds over admissible pairs.

    Pair values are bounded submultiplicatively through time zero:

        log smax Phi(k, n) <= log smax Phi(k, 0) + log smax Phi(0, n)
        log smin Phi(k, n) >= -log smax Phi(0, k) - log smax Phi(n, 0)

    Only dominant singular values of factor-wise accumulated products enter,
    which stay accurate where a direct pair product would have lost its
    contracting directions to rounding; the inequalities make the resulting
    interval an enclosure of the exact spectrum by construction.
    """
    base = system.base if isinstance(system, WeightedSystem) else system
    windows = params.windows(base.time_domain)
    times, fwd, bwd = evolution.scaled_grids(system, max(windows))
    r_full = rates.log_rate_grid(rate, max(windows))
    log_fwd = evolution.log_sigma_max(fwd)
    log_bwd = evolution.log_sigma_max(bwd)
    per_window = []
    pairs_used = 0
    for n in windows:
        sl = _window_slice(times, n)
        # the upper bound is the max of series 0, the lower the min of series 1
        lows, highs, pairs_used = _pair_ratio_stats(
            r_full[sl], np.stack([log_fwd[sl], -log_bwd[sl]]),
            np.stack([log_bwd[sl], -log_fwd[sl]]), params.cutoff_fraction)
        per_window.append((float(n), float(lows[1]), float(highs[0])))
    return _finish_estimate(per_window, pairs_used, params)


# ---------------------------------------------------------------------------
# Dichotomy and bounded-growth verdicts


@dataclass(frozen=True)
class DichotomyVerdict:
    """holds is True/False when the report resolves the question, None when
    zero sits within the estimator's resolution of an interval endpoint."""

    holds: bool | None
    rank: int | None
    report: SpectrumReport


@dataclass(frozen=True)
class GrowthVerdict:
    status: str  # "holds" | "fails" | "inconclusive"
    bound: float | None
    report: SpectrumReport


def has_mu_dichotomy(system, rate: rates.GrowthRate,
                     params: Params = DEFAULT,
                     report: SpectrumReport | None = None) -> DichotomyVerdict:
    """Whether the unweighted system admits a dichotomy under the rate, i.e.
    whether zero lies in a spectral gap; returns that gap's projector rank."""
    rep = report if report is not None else compute_spectrum(system, rate, params)
    g = rep.resolution
    inside_deep = any(iv.lo + g <= 0.0 <= iv.hi - g for iv in rep.intervals)
    possible = any(iv.lo - g <= 0.0 <= iv.hi + g for iv in rep.intervals)
    if inside_deep:
        return DichotomyVerdict(False, None, rep)
    if possible:
        return DichotomyVerdict(None, None, rep)
    for gap in rep.gaps:
        if gap.lo < 0.0 < gap.hi:
            return DichotomyVerdict(True, gap.rank, rep)
    return DichotomyVerdict(None, None, rep)


def has_mu_growth(system, rate: rates.GrowthRate,
                  params: Params = DEFAULT,
                  report: SpectrumReport | None = None) -> GrowthVerdict:
    """Two-sided norm bound by a power of the rate quotient: holds when every
    extremal exponent is finite and stabilized, fails on divergence."""
    rep = report if report is not None else compute_spectrum(system, rate, params)
    ests = rep.component_estimates
    if any(e.diverged_lower or e.diverged_upper for e in ests):
        return GrowthVerdict("fails", None, rep)
    if all(e.stabilized_lower and e.stabilized_upper for e in ests):
        bound = max(max(abs(e.lower), abs(e.upper)) for e in ests) + params.tol_stab
        return GrowthVerdict("holds", bound, rep)
    return GrowthVerdict("inconclusive", None, rep)
