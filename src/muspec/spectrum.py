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
extended by doubling while an estimate has not converged.  A scalar spectrum
is the interval between the two exponents; diagonal systems merge
per-component intervals and carry projector ranks on the gaps; full matrices
only get an outer enclosure from singular-value statistics.

A component whose log-propagator grid is exactly c times the log-rate grid,
with c in {0, 1, -1}, needs no ratio: the system generated by mu raised to
the power c, x(k+1) = (mu(k+1)/mu(k))^c x(k), has that grid, bit for bit
in the catalog (identity under any rate, disc_q under q, frak_a under c).
Negation is exact and commutes with rounding, so with the magnitudes
guarded against overflow every admissible ratio is exactly c in IEEE
arithmetic (see ``_unit_slopes``).  A scan whose series all qualify
returns c without forming a pair; every scan counts its admissible pairs
from per-row suffix starts (``_suffix_starts``), computed once per rate
grid slice and cutoff and shared (``_shared_starts``).

Every catalog rate is odd, log mu(-t) = -log mu(t), and so are the
log-propagator grids of many discrete systems, bit for bit (the diagonal
exp(s * |2k + 1|) among them), and the Gauss-Lobatto grids of continuous
systems whose coefficients are even (see ``evolution._system_log_grid``):
then the pair (n-1-j, n-1-i) has the ratio of (i, j), and a scan whose
inputs are mirrored (``_mirrored``) forms only the half triangle i + j <=
n - 1 (see ``pair_ratio_blocks``).  In fresh-process captures of every
scan:

* scalar_disc_wide: 12 of the 16 spectrum scans take the closed form; the
  other 4 (the seeded diagonal, K = 3, 401 to 3201 samples) are mirrored,
  and so are all 12 ratio-necessity scans of its chain;
* harness: 44 of the 149 spectrum scans take the closed form; the other
  105 are all mirrored, and so are all 32 ratio-necessity scans;
* scalar_cont_wide: all 16 spectrum scans are mirrored (2|t|, 1/(1+|t|),
  3t^2 and a diagonal of multiples of |t| are even);
* full_matrix: no scan takes either (Magnus grids are neither exact
  multiples nor bitwise mirrored).
"""

from __future__ import annotations

import contextvars
import math
import numbers
from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from . import evolution, exprparse, rates
from ._record import record
from .evolution import FULL, LinearSystem, WeightedSystem
from .params import DEFAULT, Params


INF = math.inf


class SpectrumError(ValueError):
    """Estimation could not run (empty pair set, bad structure, ...)."""


# ---------------------------------------------------------------------------
# Bohl estimates


@record(frozen=True)
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


def admission_threshold(threshold: float) -> float:
    """The least log-quotient L the pair scans admit, for pairs with
    L >= threshold and L > 0: L >= the least positive double is L > 0."""
    return max(threshold, math.ulp(0.0))


def pair_ratio_blocks(r: np.ndarray, heads: np.ndarray, tails: np.ndarray,
                      threshold: float, cut: int | None = None,
                      rows: np.ndarray | None = None) -> tuple[np.ndarray, Iterator]:
    """(starts, blocks) of the ratios (heads[k, j] + tails[k, i]) /
    (r[j] - r[i]) of K series (``heads`` and ``tails`` of shape (K,
    len(r))) over the admissible pairs i < j, those with r[j] - r[i] >=
    threshold and > 0, one block of rows at a time, so memory stays
    O(_PAIR_BLOCK) rather than O(K * len(r)^2).  Every series on one rate
    grid shares the block's log-quotients.

    ``r`` is a non-decreasing log-rate grid (``rates.log_rate_grid``), so
    the admissible partners of each row are a suffix of the columns, from
    its start on.  ``starts`` are those of every row (``_suffix_starts``),
    read-only, from which a caller counts the admissible pairs, len(r) -
    start summed over the rows, and ``blocks`` is a generator that forms no
    block until it is iterated.  The starts are a function of r's values
    and the threshold alone, so they are computed once per grid and shared
    (``_shared_starts``): every spectrum window of a rate's grid slice at
    one cutoff reads the same starts, whatever the system, and so does a
    relation scan of every row.  The starts are non-decreasing, so a block
    starting at row i0 scans the columns from j0 = starts[i0] on, and the
    scan stops at the first row with no partner.

    A block's log-quotients, and then the numerators of its K series, are
    matrix products of rank-2 factors, [x_i, 1] @ [1, y_j]^T = x_i * 1 +
    1 * y_j (x = -r and y = r for the log-quotients, x = tails[k] and
    y = heads[k] for series k), which numpy forms several times faster
    than the broadcast sums.  Both products are exact and their sum is
    rounded once, so every cell is bitwise the broadcast r[j] - r[i] or
    heads[k, j] + tails[k, i], up to the sign of a zero: a product sum
    that starts from +0.0 gives +0.0 where both operands are -0.0.  No
    caller reads that sign.  A zero log-quotient is never admissible; the
    extremes of ``_pair_ratio_stats`` are returned plus 0.0, which makes
    every zero +0.0; and the relation scan forms its returned ratio itself
    (``relations._ratio_argmax``) and compares the block's ratios only
    with ``==`` and ``>``, to which the zeros are equal.  The two products
    allocate the arrays the broadcasts did; one product for both, of twice
    the size, raised peak memory.

    ``blocks`` yields (i0, j0, L, q) for each block: L has shape (rows,
    len(r) - j0) and q shape (K, rows, len(r) - j0), over the pairs
    (i0 + a, j0 + b) of the block's rectangle, whose first cell (i0, j0) is
    admissible.  The
    log-quotients off the admissible set, those below the threshold, are
    set to NaN in L before the division, so q holds the ratio of every
    admissible pair and NaN on every other cell: ``np.fmax`` and
    ``np.fmin``, which skip NaN, reduce a block to the extremes of its
    admissible ratios, and only the sign of a zero extreme depends on the
    order numpy reduces in.  An admissible ratio is itself NaN only where
    a numerator is, or both operands are infinite, which needs a value
    of r, heads or tails that is not finite or exceeds DBL_MAX / 2 in
    magnitude; the NaNs of q where L is not NaN are exactly those ratios.
    Row-major order over the blocks' admissible cells is the order of
    ``np.triu_indices``.

    ``cut`` limits the scan to the pairs with i + j < cut, and None scans
    them all.  A caller passes cut = n = len(r), the half triangle i + j <=
    n - 1, only for mirrored inputs (``_mirrored``): r[::-1] == -r and
    heads[:, ::-1] == tails, as values.  Then every statistic the callers
    read is bitwise that of the full scan.  The reflection (i, j) -> (n - 1
    - j, n - 1 - i) maps the pairs i < j onto themselves.  The twin's
    log-quotient r[n-1-i] - r[n-1-j] is -r[i] + r[j], and its numerator
    heads[k, n-1-i] + tails[k, n-1-j] is tails[k, i] + heads[k, j]:
    negation is exact, and values that compare equal differ at most in the
    sign of a zero, so the twin rounds the same two operands and its L and
    numerator are the pair's floats up to the sign of a zero, which no
    caller reads.  Admission reads L alone, so a pair and its twin are
    admissible together.  A pair with i + j > n - 1 has its twin in the
    half, in the earlier row n - 1 - j < i: the half forms every value of
    the full scan, and the first maximum in row-major order lies in it.  A
    block starting at row i0 spans the columns from starts[i0] up to n -
    i0, the end of that row's half; its later rows may hold cells past the
    cut, each the twin of a cell in an earlier row of the same rectangle,
    which leave every extreme and the first maximum as they are.  The scan
    stops at the first row with starts[i0] >= n - i0, as the starts do not
    decrease.  ``starts`` are those of every row, whatever the cut.

    ``rows``, increasing row indices, limits the scan to those rows, and
    None scans every row.  Each block's rows are then consecutive rows of
    ``rows``, starting at the run's first row or where the block before it
    stopped, and ``starts`` are those of ``rows`` alone, computed for them
    (``_suffix_starts``) rather than read from the shared cache: a scan of
    a few rows costs a few searches, not the starts of the whole grid.
    """
    threshold = admission_threshold(threshold)
    if rows is None:
        starts = _shared_starts(np.ascontiguousarray(r, dtype=float).tobytes(), threshold)
        runs, row_starts = [(0, len(r))], starts
    else:
        starts = _suffix_starts(r, threshold, rows)
        runs = _runs(rows)
        row_starts = np.full(len(r), len(r))
        row_starts[rows] = starts
    return starts, _ratio_blocks(r, heads, tails, threshold, row_starts,
                                 2 * len(r) if cut is None else cut, runs)


def _runs(rows: np.ndarray) -> list[tuple[int, int]]:
    """The runs of consecutive entries of increasing ``rows``, as (first
    row, row past the last)."""
    ends = np.flatnonzero(rows[1:] - rows[:-1] != 1)  # runs end at rows[ends] and rows[-1]
    firsts = rows[:1].tolist() + rows[ends + 1].tolist()
    lasts = rows[ends].tolist() + rows[-1:].tolist()
    return [(first, last + 1) for first, last in zip(firsts, lasts)]


@lru_cache(maxsize=128)
def _shared_starts(grid: bytes, threshold: float) -> np.ndarray:
    """``_suffix_starts`` of the grid whose float64 bytes are ``grid``,
    read-only: one computation per grid and threshold in a process.  The
    key is the grid's values, so a rate's slice at one window and cutoff is
    one entry whichever spectrum, or relation scan of every row, reads it,
    and a grid built any other way gets the starts of its own values.  In one
    ``theorems.run_all()``, 149 spectrum scans read 45 distinct grids."""
    starts = _suffix_starts(np.frombuffer(grid), threshold)
    starts.flags.writeable = False
    return starts


def _ratio_blocks(r: np.ndarray, heads: np.ndarray, tails: np.ndarray, threshold: float,
                  starts: np.ndarray, cut: int, runs: list) -> Iterator:
    """The blocks of ``pair_ratio_blocks``, from its rows' suffix starts, over
    the pairs with i + j < cut (at least 2 * len(r) for every pair) of the
    runs of rows ``runs``, (first row, row past the last) in order."""
    n = len(r)
    # rows x, 1, y of layer 0 form the log-quotients, those of layer 1 + k
    # the numerators of series k: rows 0-1, transposed, are the row factors
    # [x_i, 1] and rows 1-2 the column factors [1, y_j]
    factors = np.empty((len(heads) + 1, 3, n))
    factors[0, 0], factors[1:, 0] = -r, tails
    factors[:, 1] = 1.0
    factors[0, 2], factors[1:, 2] = r, heads
    row_factors, col_factors = factors[:, :2].transpose(0, 2, 1), factors[:, 1:]
    # the ratios are formed in a context of the scan's own, whose error
    # state ignores overflow and invalid values: set once per scan, and
    # never the caller's between two blocks (numpy's error state is a
    # context variable from numpy 2.0 on)
    quiet = contextvars.copy_context()
    quiet.run(np.seterr, invalid="ignore", over="ignore")
    for i0, last in runs:
        last = min(last, n - 1)
        while i0 < last:
            j0, end = int(starts[i0]), min(n, cut - i0)
            if j0 >= end:  # no later row has a partner either
                return
            stop = min(i0 + max(1, _PAIR_BLOCK // (len(heads) * (end - j0))), last)
            L = row_factors[0, i0:stop] @ col_factors[0, :, j0:end]
            np.copyto(L, np.nan, where=L < threshold)
            yield i0, j0, L, quiet.run(_ratios, row_factors[1:, i0:stop],
                                       col_factors[1:, :, j0:end], L)
            i0 = stop


def _ratios(row_factors: np.ndarray, col_factors: np.ndarray, L: np.ndarray) -> np.ndarray:
    """A block's numerators over its log-quotients."""
    q = row_factors @ col_factors
    q /= L
    return q


def _pair_ratio_stats(r: np.ndarray, heads: np.ndarray, tails: np.ndarray, cutoff: float,
                      facts: tuple | None = None):
    """(min ratios, max ratios, admissible pair count) of ``pair_ratio_blocks``
    at the cutoff fraction of the window's log-quotient: one min and one max
    per series of the (K, len(r)) stacks ``heads`` and ``tails``, and the
    count they share, len(r) - start summed over the rows' suffix starts.
    The starts depend on the rate grid's slice and the cutoff only, so
    they are computed once per slice and shared by every system scanned on
    it (``_shared_starts``).
    min and max are exact, and a zero extreme is +0.0 (which zero numpy
    returns when both are admissible depends on its order of reduction,
    and the rank-2 products may give +0.0 for -0.0), so the result does
    not depend on the blocking.  A series with a NaN admissible ratio gets
    NaN for both.

    ``facts`` is ``_scan_facts`` of a grid that r, heads and tails are a
    central window slice of (``_window_slice``), or None for the slice's
    own.  When every series is 0, 1 or -1 times the rate (see
    ``_unit_slopes``), every admissible ratio is that multiple exactly, so
    no block is formed: the extremes are the multiples.  A grid's facts
    hold for each such slice: a slice of c * r is c * r, and where a
    series is c * r on the slice only, every ratio the scan forms there is
    c, by ``_unit_slopes``' own proof, so the scan returns what the closed
    form would; a central slice of a mirrored grid is mirrored
    (``_mirrored``).  Otherwise each block reduces with fmax and fmin,
    which skip the NaNs off the admissible set, and, where the values are
    not bounded, also marks the series with a NaN ratio where its
    log-quotient is not NaN.  A mirrored grid scans the half triangle only
    (see ``pair_ratio_blocks``): a pair outside it has a twin inside of
    the same ratio, NaN or not, up to the sign of a zero, which the + 0.0
    drops."""
    l_max = r[-1] - r[0]
    if l_max <= 0:
        raise SpectrumError("growth rate is flat on the window; no admissible pairs")
    slopes, bounded, mirrored = facts if facts is not None else _scan_facts(r, heads, tails)
    starts, blocks = pair_ratio_blocks(r, heads, tails, cutoff * l_max,
                                       len(r) if mirrored else None)
    count = int((len(r) - starts).sum())
    if not count:
        raise SpectrumError("no admissible pairs after the log-quotient cutoff")
    if slopes is not None:
        return slopes + 0.0, slopes + 0.0, count
    lo = np.full(len(heads), INF)
    hi = np.full(len(heads), -INF)
    for _, _, L, q in blocks:
        # a block's first cell is admissible, so a NaN block extreme is a NaN
        # ratio; maximum and minimum keep a NaN, once there, to the end
        hi = np.maximum(hi, np.fmax.reduce(q, axis=(1, 2)))
        lo = np.minimum(lo, np.fmin.reduce(q, axis=(1, 2)))
        if not bounded:
            nan = (np.isnan(q) & ~np.isnan(L)).any(axis=(1, 2))
            lo[nan] = hi[nan] = np.nan
    return lo + 0.0, hi + 0.0, count  # -0.0 + 0.0 is +0.0; every other value stays


def _scan_facts(r: np.ndarray, heads: np.ndarray, tails: np.ndarray) -> tuple:
    """(``_unit_slopes``, bounded, ``_mirrored``) of a grid, for
    ``_pair_ratio_stats``: bounded when r, heads and tails are finite and
    at most DBL_MAX / 2 in magnitude.  Then no admissible ratio is NaN: no
    log-quotient r[j] - r[i] overflows, so an admissible one is finite and
    positive, every numerator is finite, and a finite number over a finite
    positive one is a number (+-inf where it overflows)."""
    bounded = all(np.abs(x).max() <= rates.MAX_LOG_RATE for x in (r, heads, tails))  # NaN fails
    return _unit_slopes(r, heads, tails), bounded, _mirrored(r, heads, tails)


def _mirrored(r: np.ndarray, heads: np.ndarray, tails: np.ndarray) -> bool:
    """Whether the pair scan may stop at the half triangle (see
    ``pair_ratio_blocks``): r[::-1] == -r and heads[:, ::-1] == tails, as
    values, so a NaN anywhere fails, on a grid of odd length.  An odd
    length keeps the fact for every central window slice
    (``_window_slice``), so it is taken once per grid, like the slopes:
    the slice about the middle sample of a mirrored grid is mirrored.  The
    series are compared first: every catalog rate is odd, so where a grid
    is not mirrored it is its series that are not (a coefficient of no
    known parity, an odd one, or a full system's Magnus grid)."""
    return (len(r) % 2 == 1 and np.array_equal(heads[:, ::-1], tails)
            and np.array_equal(r[::-1], -r))


def _unit_slopes(r: np.ndarray, heads: np.ndarray, tails: np.ndarray) -> np.ndarray | None:
    """The slopes c_k in {0, 1, -1} with heads[k] == c_k * r and tails[k] ==
    -heads[k] (as values: zeros of either sign are equal) for every series
    k, with max |r| <= DBL_MAX / 2 unless every c_k is 0; None as soon as
    one series fails.  c_k is read from r[0] or r[-1], whichever is larger
    in magnitude, so most series that fail are rejected in O(1); where
    that entry is 0, r is 0 everywhere (a flat grid, whose facts
    ``_estimates`` takes before any window's flat check) and the quotient
    is no slope.

    For such a series every admissible ratio is exactly c_k in IEEE
    arithmetic.  Negation is exact and commutes with rounding, so the
    numerator the scan forms for a pair, heads[k, j] + tails[k, i] =
    fl(c * r[j] - c * r[i]), is c * fl(r[j] - r[i]) = c * L, where L is
    the log-quotient it compares and divides by.  With max |r| <= DBL_MAX
    / 2 no difference overflows, so an admissible L is finite and positive
    and the ratio c * L / L is c.  For c = 0 every numerator is a zero and
    every ratio a zero, of either sign, whatever the magnitudes (a zero
    over +inf is a zero); the caller's + 0.0 makes the extremes +0.0, as
    the scan's own reduction does.  The sign of a zero head or tail never
    matters: the numerator of an admissible pair with c != 0 is c * L, not
    zero.  A NaN or an infinity in r or in a series fails the comparison.
    """
    p = 0 if abs(r[0]) > abs(r[-1]) else -1
    # +-inf and NaN, of a flat or non-finite r or series, are not 0 or +-1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        slopes = heads[:, p] / r[p]
    for k, c in enumerate(slopes.tolist()):
        if c not in (0.0, 1.0, -1.0):  # NaN is in no tuple of numbers
            return None
        if not (np.array_equal(heads[k], c * r) and np.array_equal(tails[k], -heads[k])):
            return None
    if slopes.any() and not np.abs(r).max() <= rates.MAX_LOG_RATE:
        return None
    return slopes


def _suffix_starts(r: np.ndarray, threshold: float,
                   rows: np.ndarray | None = None) -> np.ndarray:
    """For each row i (of ``rows``, or every row), the first column j > i
    with fl(r[j] - r[i]) >= threshold, or len(r) if there is none, for a
    non-decreasing ``r``: the start of the row's admissible suffix, for a
    threshold from ``admission_threshold``.  No column j <= i is
    admissible, as float subtraction is monotone: the computed r[j] - r[i]
    is at most 0.

    The test is monotone in j (r is, and float subtraction is), so a guess
    is right when the test holds at it and fails at the column before.  One
    searchsorted for r[i] + threshold guesses every start, one pass over the
    guesses checks them, however long r's plateaus, and the rows that fail
    the check (their rounded key misses the start, or lands at or before
    the row) are bisected together over their later columns.  Misses are
    rare: the job lists of the four benchmark workloads miss 3 of 37,181
    rows, all in the harness (2 of its 77 start computations).  On the
    catalog grids at windows 200..1600 the guess is 2-6x faster than
    bisecting every row, and bisecting every row made the scalar_disc_wide
    and harness benchmark workloads about 9% slower end to end."""
    # column len(r), past the last, holds +inf, which every row admits; so
    # does column -1, where a guess of column 0 looks for the column before
    env = np.concatenate((r, [INF]))
    row_r = r if rows is None else r[rows]
    with np.errstate(over="ignore"):  # past DBL_MAX a sum is +-inf; the starts are checked
        keys = row_r + threshold
    start = env.searchsorted(keys)
    passes = env[start] - row_r >= threshold
    bad = (~passes | (env[start - 1] - row_r >= threshold)).nonzero()[0]
    if bad.size:
        lo, hi = (bad if rows is None else rows[bad]) + 1, np.full(bad.size, len(r))
        missed_r = row_r[bad]
        for _ in range(len(r).bit_length()):
            mid = (lo + hi) // 2
            ok = env[mid] - missed_r >= threshold
            live = lo < hi
            lo, hi = np.where(live & ~ok, mid + 1, lo), np.where(live & ok, mid, hi)
        start[bad] = lo
    return start


def bohl_exponents(system, rate: rates.GrowthRate, params: Params = DEFAULT,
                   component: int | None = None) -> BohlEstimate:
    """Extremal exponents for a scalar system or one diagonal component."""
    base = _base(system, rate)
    if base.structure == FULL:
        raise SpectrumError("Bohl exponents need scalar or diagonal structure")
    if component is None:
        if base.components != 1:
            raise SpectrumError("pick a component of the diagonal system")
        component = 0
    count = base.components
    if not isinstance(component, numbers.Integral) or isinstance(component, bool) \
            or not 0 <= component < count:
        raise SpectrumError(f"component {component!r} is not in 0..{count - 1}")
    return _estimates(system, rate, params, [int(component)])[0]


def _base(system, rate: rates.GrowthRate) -> LinearSystem:
    """The unweighted system of ``system``, checked to share the rate's
    time domain."""
    base = system.base if isinstance(system, WeightedSystem) else system
    if base.time_domain != rate.time_domain:
        raise SpectrumError(
            f"system is {base.time_domain}-time but the rate is {rate.time_domain}-time")
    return base


# ---------------------------------------------------------------------------
# Spectrum assembly


@record(frozen=True)
class SpectralInterval:
    """Closed spectral interval over the extended reals; [-inf,-inf] and
    [+inf,+inf] encode the degenerate one-point sets at infinity."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise SpectrumError(f"interval endpoints out of order: {self.lo} > {self.hi}")


@record(frozen=True)
class SpectralGap:
    lo: float
    hi: float
    rank: int | None
    pattern: tuple | None


@record(frozen=True)
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
    outer enclosure from singular-value statistics, with no projector claims.
    ``windows`` lists the windows used, including any extension of an
    unpinned schedule (see ``_estimates``).
    """
    base = _base(system, rate)
    mode = "enclosure" if base.structure == FULL else "exact"
    estimates = _estimates(system, rate, params,
                           [0] if mode == "enclosure" else range(base.components))
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


def _estimates(system, rate, params: Params, components) -> list[BohlEstimate]:
    """Bohl estimates of the given components over the window schedule; a
    full system has one, its enclosure.

    Unless the schedule is pinned, an estimate that has not converged takes
    further doubled windows
    (``Params.extension_windows``) until it converges or the cap is
    reached; a converged component takes no more windows, so each estimate
    depends on its own component only.  The extension stops early at the
    first window on which the system or rate cannot be evaluated (a
    tabulated system's range ends, a coefficient leaves its domain): the
    estimate then keeps the windows it has.

    Each grid's closed-form slopes, bound check and mirror check
    (``_scan_facts``) are taken once and shared by the scans of all its
    windows, which gives every window bitwise the result of scanning its
    slice alone (see ``_pair_ratio_stats``).  An estimate is finished once after the
    schedule and once after each extension window it takes.
    """
    base = _base(system, rate)
    enclosure = base.structure == FULL
    windows = params.windows(base.time_domain)
    per_window = {comp: [] for comp in components}
    estimates = {}

    def scan(grid, comps, scanned):
        """One pair scan per window of ``scanned`` for all of comps at once,
        then their estimates."""
        times, r, heads, tails = grid
        rows = slice(None) if enclosure else comps
        heads, tails = heads[rows], tails[rows]
        facts = _scan_facts(r, heads, tails)
        for n in scanned:
            sl = _window_slice(times, n)
            lo, hi, pairs = _pair_ratio_stats(r[sl], heads[:, sl], tails[:, sl],
                                              params.cutoff_fraction, facts)
            lo, hi = lo.tolist(), hi.tolist()
            # an enclosure's upper bound is the max of series 0, its lower the min of series 1
            bounds = [(lo[1], hi[0])] if enclosure else zip(lo, hi)
            for comp, (comp_lo, comp_hi) in zip(comps, bounds):
                per_window[comp].append((float(n), comp_lo, comp_hi))
        for comp in comps:  # pairs is the last window's count
            estimates[comp] = _finish_estimate(per_window[comp], pairs, params)

    scan(_grid(system, rate, max(windows)), components, windows)
    for n in params.extension_windows(base.time_domain):
        pending = [comp for comp in components if not estimates[comp].converged]
        if not pending:
            break
        try:
            grid = _grid(system, rate, n)
        except (evolution.EvolutionError, exprparse.ExprError, rates.RateError):
            break
        scan(grid, pending, [n])
    return [estimates[comp] for comp in components]


def _grid(system, rate, window: int):
    """(times, r, heads, tails) on [-window, window]: the sample times, the
    log-rate grid, and the series whose pair ratios
    (heads[:, j] + tails[:, i]) / (r[j] - r[i]) the scan bounds.

    Scalar and diagonal systems give the component log-propagators and their
    negatives, so a ratio is log |Phi(k, n)| / L.  A full system gives the
    enclosure's two series, bounded submultiplicatively through time zero:

        log smax Phi(k, n) <= log smax Phi(k, 0) + log smax Phi(0, n)
        log smin Phi(k, n) >= -log smax Phi(0, k) - log smax Phi(n, 0)

    Only dominant singular values of factor-wise accumulated products enter,
    which stay accurate where a direct pair product would have lost its
    contracting directions to rounding; the inequalities make the resulting
    interval an enclosure of the exact spectrum by construction.  They are
    the logs of ``scaled_grids`` as returned: its units have 2-norm 1.
    """
    if _base(system, rate).structure == FULL:
        times, (_, log_fwd), (_, log_bwd) = evolution.scaled_grids(system, window)
        heads, tails = np.stack([log_fwd, -log_bwd]), np.stack([log_bwd, -log_fwd])
    else:
        times, logs = evolution.component_log_grid(system, window)
        heads, tails = logs, -logs
    # the rate grid is sampled at the same integer times, and checked
    return times, rates.log_rate_grid(rate, window), heads, tails


# ---------------------------------------------------------------------------
# Dichotomy and bounded-growth verdicts


@record(frozen=True)
class DichotomyVerdict:
    """holds is True/False when the report resolves the question, None when
    the report has not converged or zero sits within the estimator's
    resolution of an interval endpoint."""

    holds: bool | None
    rank: int | None
    report: SpectrumReport


@record(frozen=True)
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
    if not rep.converged:
        return DichotomyVerdict(None, None, rep)
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
