"""Numeric deciders for the growth-rate comparison relations.

Every check but one reduces to suprema of a separable functional over
ordered time pairs: for a grid function u, sup over s <= t of u(t) - u(s) is
the largest rise of u, computable with one running-minimum scan.  The one is
the almost-checks' ratio necessity, a pair-ratio maximum: the largest
L_omega / L_mu over pairs of long mu-distance, which does not separate
(``_ratio_argmax``, by row scan or tile branch and bound).  A verdict is
"holds" when the per-window suprema stabilize across the schedule (the
last two agree; the final supremum is the certificate constant), "fails"
when they grow monotonically window over window (the argmax pairs are the
witness), and "inconclusive" otherwise.  Since a "holds" reads only the
last two windows, the bounded almost-check scans those first and stops
there when they agree (``_bounded_outcome``).

Quantifier structure is respected on finite grids:

* faster: for every exponent ratio eps in a fixed grid, the supremum of
  L_omega - eps * L_mu must be bounded (only the ratio of the two negative
  exponents matters).  Each window scans the whole eps grid in one pass,
  one running minimum over a row per eps.
* weakly faster: the single functional log mu - log omega must have bounded
  drawdown.
* almost faster / almost slower: the inequality couples two exponents; the
  outer one ranges over a fixed grid and the inner one is searched over a
  geometric grid, in the order the relation prescribes.

Verdicts are certified on the tested exponent grids.

Every check reads each window's log-rate grids from ``_window_grids``:
slices of one grid per rate and schedule, at the schedule's largest window.
In discrete time that is the grid the spectrum reads.  The ratio row scan
reads its admissible-pair starts from the pair primitive's shared cache
(``spectrum.pair_ratio_blocks``), computed once per grid slice and cutoff
for the spectra and every rate pair alike.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import exprparse, rates, spectrum
from ._record import field, record
from .params import DEFAULT, DISCRETE, SAMPLES_PER_UNIT, Params
from .spectrum import _mirrored, _window_slice, admission_threshold, pair_ratio_blocks


EPS_GRID = (1.0, 0.5, 0.25, 0.1, 0.05)
OUTER_EXPONENTS = (-0.05, -0.25, -1.0, -4.0)
INNER_LARGE = tuple(-(2.0 ** i) for i in range(-4, 13))
INNER_SMALL = tuple(-(2.0 ** i) for i in range(-12, 5))
PREFILTER_SLOPES = tuple(2.0 ** i for i in range(-12, 13))

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


class RelationError(ValueError):
    pass


@record
class RelationVerdict:
    relation: str
    direction: str
    outcome: str
    certificate: dict | None = None
    witness: list | None = None
    diagnostics: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "relation": self.relation,
            "direction": self.direction,
            "outcome": self.outcome,
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.witness is not None:
            out["witness"] = self.witness
        if self.diagnostics:
            out["diagnostics"] = self.diagnostics
        if self.grid:
            out["grid"] = self.grid
        return out


# ---------------------------------------------------------------------------
# Scan primitives


def _check_domains(mu, omega):
    if mu.time_domain != omega.time_domain:
        raise RelationError("rates must share a time domain")


def _window_grids(mu, omega, params: Params):
    """(ts, r_mu, r_om) for each window of the schedule in order: the sample
    times and the two log-rate grids, ``SAMPLES_PER_UNIT`` samples a unit in
    continuous time.

    Window n's grids are the central slice of the largest window W's, taken
    as the spectrum takes its windows (``spectrum._window_slice``); in
    discrete time the grid at W is the spectrum's own cache entry.  A valid
    grid at W makes every smaller window valid; where the grid at W is
    invalid, the windows are walked one grid at a time, mu before omega, so
    the error names the first window that fails.  The grids at W are raised
    to their running maximum from -W on, so a sample at most ``rates._TOL``
    below an earlier one reads the raise of the grid at W."""
    windows = params.windows(mu.time_domain)
    top, pu = max(windows), (1 if mu.time_domain == DISCRETE else SAMPLES_PER_UNIT)
    try:
        r_mu, r_om = rates.log_rate_grid(mu, top, pu), rates.log_rate_grid(omega, top, pu)
    except (rates.RateError, exprparse.ExprError):
        for n in windows:  # the first window that fails raises
            for rate in (mu, omega):
                rates.log_rate_grid(rate, n, pu)
        raise
    ts = rates.sample_times(mu.time_domain, top, pu)
    cuts = [_window_slice(ts, pu * n) for n in windows]
    return [(ts[cut], r_mu[cut], r_om[cut]) for cut in cuts]


def _window_sups(grids, scan) -> list[tuple[list, list]]:
    """``scan(r_mu, r_om) -> [(value, i, j), ...]``, one triple for each
    functional it scans, on the log-rate grids of each window of ``grids``
    (``_window_grids``, or some of its windows, in order): for each
    functional, the per-window suprema and the attaining pairs as {"n":
    t_i, "k": t_j, "value": value} records."""
    rows = None
    for ts, r_mu, r_om in grids:
        found = scan(r_mu, r_om)
        rows = rows or [([], []) for _ in found]
        for (sups, pairs), (value, i, j) in zip(rows, found):
            sups.append(value)
            pairs.append({"n": float(ts[i]), "k": float(ts[j]), "value": value})
    return rows


def _verdict(relation: str, direction: str, outcome: str, diagnostics: dict,
             grid: dict, certificate: dict | None = None,
             witness: list | None = None) -> RelationVerdict:
    """The verdict for ``outcome``: the certificate goes with "holds" and
    the witness with "fails"."""
    return RelationVerdict(relation, direction, outcome,
                           certificate=certificate if outcome == HOLDS else None,
                           witness=witness if outcome == FAILS else None,
                           diagnostics=diagnostics, grid=grid)


def _max_rise(u: np.ndarray) -> tuple[float, int, int]:
    """max over i <= j of u[j] - u[i], with the attaining indices."""
    rises = u - np.minimum.accumulate(u)
    j = int(rises.argmax())
    return float(rises[j]), int(u[: j + 1].argmin()), j


def _max_rises(u: np.ndarray) -> list[tuple[float, int, int]]:
    """``_max_rise`` of each row of a 2-D u, from one running minimum
    along the rows: the same elementwise operations and the same first
    indices of argmax and argmin as each row's own ``_max_rise``, so the
    results are bitwise its."""
    rises = u - np.minimum.accumulate(u, axis=1)
    ends = rises.argmax(axis=1).tolist()
    return [(float(rise[j]), int(row[: j + 1].argmin()), j)
            for row, rise, j in zip(u, rises, ends)]


def _max_fall(u: np.ndarray) -> tuple[float, int, int]:
    """max over i <= j of u[i] - u[j] (the drawdown), with indices."""
    return _max_rise(-u)


def _sequence_outcome(sups: list[float], tol: float) -> str:
    if len(sups) >= 2 and abs(sups[-1] - sups[-2]) <= tol:
        return HOLDS
    diffs = [b - a for a, b in zip(sups, sups[1:])]
    if len(diffs) >= 3 and all(d >= tol for d in diffs[-3:]):
        return FAILS
    # growth that switches on late in the schedule still fails when the
    # increments accelerate (genuine divergence at least doubles the
    # increment as the window doubles; slow convergence does not)
    if (len(diffs) >= 2 and diffs[-1] >= max(5.0 * tol, 1.5 * diffs[-2])
            and diffs[-2] >= 0.0):
        return FAILS
    return INCONCLUSIVE


# ---------------------------------------------------------------------------
# faster (dominating comparison)


def check_faster(mu, omega, params: Params = DEFAULT,
                 formulation: str = "forward") -> RelationVerdict:
    """Decide whether mu is faster than omega.

    In log form the defining inequality reads
    |alpha~| L_omega(k, n) - |alpha| L_mu(k, n) <= log M for all k >= n, so
    only eps = |alpha| / |alpha~| matters; the check runs the eps grid and
    requires every supremum to stabilize.  The "backward" formulation scans
    the dual inequality over pairs k <= n with positive exponents, which must
    agree with the forward one.  Each window scans the whole eps grid at
    once, one row per eps (``_max_rises``).
    """
    _check_domains(mu, omega)
    if formulation not in ("forward", "backward"):
        raise RelationError(f"unknown formulation {formulation!r}")
    column = np.array(EPS_GRID)[:, None]

    def scan(r_mu, r_om):
        if formulation == "forward":
            return _max_rises(r_om - column * r_mu)
        return _max_rises(-(column * r_mu - r_om))  # the _max_fall of each row

    envelope = {}
    diagnostics = {}
    fail_witness = None
    rows = _window_sups(_window_grids(mu, omega, params), scan)
    for eps, (sups, pairs) in zip(EPS_GRID, rows):
        outcome = _sequence_outcome(sups, params.tol_stab)
        diagnostics[f"eps={eps:g}"] = [float(s) for s in sups]
        if outcome == HOLDS:
            envelope[f"{eps:g}"] = float(sups[-1])
        elif outcome == FAILS and fail_witness is None:
            fail_witness = pairs
    outcome = (FAILS if fail_witness is not None
               else HOLDS if len(envelope) == len(EPS_GRID) else INCONCLUSIVE)
    grid = {"epsilon": list(EPS_GRID),
            "windows": [float(w) for w in params.windows(mu.time_domain)]}
    return _verdict("faster", "mu_over_omega", outcome, diagnostics, grid,
                    certificate={"sup_envelope": envelope}, witness=fail_witness)


# ---------------------------------------------------------------------------
# weakly faster (same exponent on both sides)


def check_weakly_faster(mu, omega, params: Params = DEFAULT) -> RelationVerdict:
    """Decide whether mu is weakly faster than omega: the drawdown of
    h = log mu - log omega must be bounded; the certificate is
    log M = final maximal drawdown (equivalently m = exp(-log M) bounds the
    quotient ratio from below)."""
    _check_domains(mu, omega)
    (sups, pairs), = _window_sups(_window_grids(mu, omega, params),
                                  lambda r_mu, r_om: [_max_fall(r_mu - r_om)])
    return _verdict("weakly_faster", "mu_over_omega",
                    _sequence_outcome(sups, params.tol_stab),
                    {"drawdown": [float(s) for s in sups]},
                    {"windows": [float(w) for w in params.windows(mu.time_domain)]},
                    certificate={"log_M": float(sups[-1])}, witness=pairs)


# ---------------------------------------------------------------------------
# almost faster / almost slower


def _bounded_outcome(mu, omega, coef_mu: float, coef_omega: float,
                     params: Params) -> tuple[str, float, list]:
    """(outcome, last supremum, attaining pairs) for sup over k >= n of
    coef_omega*L_omega - coef_mu*L_mu, window by window.

    "holds" is decided by the last two suprema alone (``_sequence_outcome``
    tests it before any other rule), and no caller reads more of a "holds"
    than its last supremum, so the last two windows are scanned first and a
    "holds" returns from them, with the pairs of those two windows only.
    Otherwise the other windows are scanned too, and the outcome and pairs
    are those of every window.  Each window's scan is the same either way.

    The coefficients reach 4096 and the log-rate grids DBL_MAX / 2, so where
    a product coef * L could pass DBL_MAX / 4, both coefficients are scaled
    by the power of two that takes the larger below 1/2, and the rise is
    scaled back by a Python float product: exact, or +inf past DBL_MAX."""
    def scan(r_mu, r_om):
        # non-decreasing grids hold their largest magnitudes at their ends
        top = max(abs(coef_omega) * max(-float(r_om[0]), float(r_om[-1])),
                  abs(coef_mu) * max(-float(r_mu[0]), float(r_mu[-1])))
        scale = (1.0 if top <= rates.MAX_LOG_RATE / 2
                 else 2.0 ** (math.frexp(max(abs(coef_mu), abs(coef_omega)))[1] + 1))
        value, i, j = _max_rise(coef_omega / scale * r_om - coef_mu / scale * r_mu)
        return [(value * scale, i, j)]

    grids = list(_window_grids(mu, omega, params))
    (sups, pairs), = _window_sups(grids[-2:], scan)
    if _sequence_outcome(sups, params.tol_stab) != HOLDS and len(grids) > 2:
        (head, head_pairs), = _window_sups(grids[:-2], scan)
        sups, pairs = head + sups, head_pairs + pairs
    return _sequence_outcome(sups, params.tol_stab), float(sups[-1]), pairs


@lru_cache(maxsize=256)
def _ratio_necessity(mu, omega, params: Params) -> tuple[str, tuple, tuple]:
    """Necessary condition for both almost-comparisons of (mu, omega): the
    quotient L_omega / L_mu must stay bounded over pairs whose mu-distance is
    a fixed fraction of the window maximum.  (Either relation with the outer
    exponent at -1 produces an affine bound L_omega <= c L_mu + C, hence a
    bounded ratio on long pairs.)  An accelerating ratio supremum therefore
    refutes the relation outright; a supremum that stops increasing
    certifies the condition.  Sequences are not monotone because the cutoff
    tightens with the window, so a decreasing tail counts as bounded.

    Both almost-comparisons of (mu, omega) ask for it, so it is computed
    once per ordered pair: the per-window suprema, and the argmax pairs as
    tuples of (key, value) items, immutable so that no two verdicts share a
    witness.  Whether the scans may stop at the half triangle
    (``spectrum._mirrored``) is decided once, on the schedule's largest
    grids: every window's grids are central slices of those.
    """
    grids = list(_window_grids(mu, omega, params))
    _, r_mu, r_om = max(grids, key=lambda grid: len(grid[0]))
    mirrored = _mirrored(r_mu, r_om[None], -r_om[None])

    def scan(r_mu, r_om):
        l_max = r_mu[-1] - r_mu[0]
        if l_max <= 0:
            raise RelationError("mu is flat on the window; no admissible pairs")
        return [_ratio_argmax(r_mu, r_om, params.cutoff_fraction * l_max, mirrored)]

    (sups, argmax_pairs), = _window_sups(grids, scan)
    pairs = tuple(tuple(p.items()) for p in argmax_pairs)
    if _sequence_outcome(sups, params.tol_stab) == FAILS:
        return FAILS, tuple(sups), pairs
    bounded = len(sups) >= 2 and sups[-1] - sups[-2] <= params.tol_stab
    return HOLDS if bounded else INCONCLUSIVE, tuple(sups), pairs


# The ratio-necessity scan bounds the pairs of a row tile of _PAIR_TILE
# samples with a column tile of as many.  Coarse tiles, runs of fine tiles
# with at most _COARSE_SIDE of them across the grid, choose the scan.
# spectrum._PAIR_BLOCK caps the tile pairs bounded, and the pair cells
# scanned, at once.  The row scan runs where pruning cannot pay: on
# triangles of at most _ROW_SCAN_PAIRS pairs (grids of up to 1024 samples,
# whose row scan takes well under a millisecond), and where the coarse tile
# pairs that can hold the maximum are at least _ROW_SCAN_SHARE of those
# that can hold admissible pairs (a constant ratio prunes none).
_PAIR_TILE = 16
_COARSE_SIDE = 64
_ROW_SCAN_PAIRS = 1 << 19
_ROW_SCAN_SHARE = 0.5


def _ratio_argmax(r_mu: np.ndarray, r_om: np.ndarray, threshold: float,
                  mirrored: bool | None = None) -> tuple[float, int, int]:
    """Largest (r_om[j] - r_om[i]) / (r_mu[j] - r_mu[i]) over the pairs
    i < j whose mu-distance reaches the threshold, with its pair: the first
    maximum in row-major pair order, as ``np.argmax`` over all pairs at
    once would pick.  Both grids are log-rate grids, finite and at most
    DBL_MAX / 2 in magnitude, so every admissible mu-distance is finite and
    positive, and no ratio is a NaN (one may overflow to +-inf).
    ``_tile_argmax`` scans only the tiles of the pair triangle that can
    hold the maximum; where that cannot pay, ``_row_argmax`` scans every
    admissible pair.  Either returns the pair alone, since equal ratios
    compare equal whatever the sign of a zero, and the value is the
    pair's plain ratio, formed here once.

    Where both grids are odd under time reversal, r[::-1] == -r
    (``spectrum._mirrored`` of r_mu with the series r_om; None decides it
    from the grids), either scan stops at the half triangle i + j <= n -
    1, the pairs with i + j below the cut n: each pair past it has its twin
    (n - 1 - j, n - 1 - i) of the same ratio in an earlier row, so the
    first maximum lies in the half (see ``spectrum.pair_ratio_blocks``).
    Otherwise the cut, 2n, passes every pair."""
    threshold = admission_threshold(threshold)
    n = len(r_mu)
    if mirrored is None:
        mirrored = _mirrored(r_mu, r_om[None], -r_om[None])
    cut = n if mirrored else 2 * n
    found = (_tile_argmax(r_mu, r_om, threshold, cut) if n * (n - 1) // 2 > _ROW_SCAN_PAIRS
             else None)
    i, j = found if found is not None else _row_argmax(r_mu, r_om, threshold, cut)
    with np.errstate(over="ignore"):
        return float((r_om[j] - r_om[i]) / (r_mu[j] - r_mu[i])), i, j


def _row_argmax(r_mu: np.ndarray, r_om: np.ndarray, threshold: float,
                cut: int) -> tuple[int, int]:
    """The pair of ``_ratio_argmax`` over every admissible pair with i + j
    < cut, one row block of ``pair_ratio_blocks`` at a time.  A block's
    ratios are NaN off the admissible set, and none on it is NaN (the grids
    are bounded log-rate grids), so ``np.fmax`` gives the block's maximum,
    and the first cell equal to it is the first maximum in pair order: the
    row-major order of the rectangle keeps the pairs in order, and NaN
    equals nothing."""
    best = None
    _, blocks = pair_ratio_blocks(r_mu, r_om[None], -r_om[None], threshold, cut)
    for i0, j0, _, q in blocks:
        ratios = q[0]
        top = np.fmax.reduce(ratios, axis=None)
        if best is None or top > best[0]:
            a, b = divmod(int(np.argmax(ratios == top)), ratios.shape[1])
            best = (top, i0 + a, j0 + b)
    if best is None:
        raise RelationError("no admissible pairs after the log-quotient cutoff")
    return best[1:]


def _tile_argmax(r_mu: np.ndarray, r_om: np.ndarray, threshold: float,
                 cut: int) -> tuple[int, int] | None:
    """The pair of ``_ratio_argmax`` by branch and bound over the tiles of
    the pair triangle (Land and Doig), or None where the coarse tiles show
    that pruning cannot pay.  A tile pair (I, J) of tiles ``width``
    samples wide is kept only if its least i + j, (I + J) * width, is
    below the cut: on the half triangle of a mirrored grid, (I + J) *
    width <= n - 1.  A kept tile pair's cells past the cut are twins of
    cells in earlier rows, whose tile pairs pass the cut.

    The floor is the largest ratio of the real admissible pairs seen so
    far: one sample pair per tile pair (the first row of the row tile and
    the last column of the column tile), then the pairs scanned.  It never
    exceeds the maximum, and no ratio in a tile pair exceeds its bound
    (``_tile_bounds``), so a tile pair whose bound is below the floor holds
    no pair at or above the maximum and is skipped.  The coarse tile pairs
    that survive are cut into fine ones, and the fine ones that survive are
    scanned pair by pair, best bound first, in batches, each against the
    floor the batches before it raised.  Of equal maxima the least (i, j)
    wins, whichever tile is scanned first, as in the row scan."""
    n, width = len(r_mu), _PAIR_TILE
    fine = -(-n // width)
    group = -(-fine // _COARSE_SIDE)  # fine tiles a coarse tile side
    stats = _tile_extremes((r_mu, r_mu, r_om, r_om), width)
    coarse = _tile_extremes(stats, group) if group > 1 else stats
    span = np.arange(len(coarse[0]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rows, cols = _live_tiles(coarse, span, span, threshold, group * width, cut)
        bound, floor = _tile_bounds(coarse, r_mu, r_om, rows, cols, group * width,
                                    threshold, -np.inf)
        keep = bound >= floor
        if np.count_nonzero(keep) >= _ROW_SCAN_SHARE * len(keep):
            return None
        rows, cols, bound = rows[keep], cols[keep], bound[keep]
        if group > 1:
            rows, cols, bound, floor = _fine_tiles(stats, r_mu, r_om, rows, cols, group,
                                                   threshold, floor, cut)
        # grids padded to whole fine tiles: a NaN log-rate admits no pair
        pad = fine * width - n
        mu = np.concatenate([r_mu, np.full(pad, np.nan)])
        om = np.concatenate([r_om, np.zeros(pad)])
        order = np.argsort(-bound)
        rows, cols, bound = rows[order], cols[order], bound[order]
        best = None
        step = max(1, spectrum._PAIR_BLOCK // width ** 2)
        for s in range(0, len(rows), step):
            keep = bound[s:s + step] >= floor
            found = _cells_max(mu, om, rows[s:s + step][keep], cols[s:s + step][keep],
                               threshold)
            if found is not None and (best is None or _beats(found, best)):
                best = found
                floor = np.fmax(floor, best[0])
        if best is None:
            raise RelationError("no admissible pairs after the log-quotient cutoff")
        return best[1:]


def _fine_tiles(stats, r_mu, r_om, rows, cols, group: int, threshold: float, floor: float,
                cut: int):
    """The fine tile pairs within the coarse tile pairs (rows[k], cols[k])
    that survive their bounds and the cut: their row and column tiles and
    bounds, and the floor their samples raise."""
    sub = np.arange(group)
    # the last coarse tiles may hold fewer fine tiles: the extremes are padded
    # with empty tiles up to whole coarse tiles, and no pair of those is live
    pad = -len(stats[0]) % group
    stats = tuple(np.concatenate([extreme, np.full(pad, empty)])
                  for extreme, empty in zip(stats, (np.inf, -np.inf, np.inf, -np.inf)))
    kept = []
    step = max(1, spectrum._PAIR_BLOCK // group ** 2)
    for s in range(0, len(rows), step):
        fine_rows = rows[s:s + step, None] * group + sub
        fine_cols = cols[s:s + step, None] * group + sub
        k, a, b = _live_tiles(stats, fine_rows, fine_cols, threshold, _PAIR_TILE, cut)
        fine_rows, fine_cols = fine_rows[k, a], fine_cols[k, b]
        bound, floor = _tile_bounds(stats, r_mu, r_om, fine_rows, fine_cols, _PAIR_TILE,
                                    threshold, floor)
        kept.append((fine_rows, fine_cols, bound))
    rows, cols, bound = (np.concatenate(part) for part in zip(*kept))
    keep = bound >= floor
    return rows[keep], cols[keep], bound[keep], floor


def _tile_extremes(stats, width: int) -> tuple:
    """Over each run of ``width`` consecutive entries (the last run may be
    shorter) of mu minima, mu maxima, omega minima and omega maxima, the
    same four extremes."""
    starts = np.arange(0, len(stats[0]), width)
    lo, hi, om_lo, om_hi = stats
    return (np.minimum.reduceat(lo, starts), np.maximum.reduceat(hi, starts),
            np.minimum.reduceat(om_lo, starts), np.maximum.reduceat(om_hi, starts))


def _live_tiles(stats, rows: np.ndarray, cols: np.ndarray, threshold: float, width: int,
                cut: int):
    """Which tile pairs (rows[..., :, None], cols[..., None, :]) of tiles
    ``width`` samples wide with extremes ``stats`` can hold an admissible
    pair with i + j < cut, as the indices ``np.nonzero`` gives: max r_mu
    over the column tile minus min r_mu over the row tile reaches the
    threshold, and the tile pair's least i + j is below the cut.  r_mu is
    non-decreasing, so no column tile before the row tile is live."""
    rows, cols = rows[..., :, None], cols[..., None, :]
    lo, hi = stats[:2]
    return np.nonzero((hi[cols] - lo[rows] >= threshold) & ((rows + cols) * width < cut))


def _tile_bounds(stats, r_mu, r_om, rows, cols, width: int, threshold: float, floor: float):
    """An upper bound on every ratio the scan forms in each tile pair
    (rows[k], cols[k]) of tiles ``width`` samples wide with extremes
    ``stats``, and the floor raised by the tile pairs' sample pairs.

    For a pair (i, j) of row tile I and column tile J, the computed
    r_mu[j] - r_mu[i] lies between fl(min r_mu[J] - max r_mu[I]) and
    fl(max r_mu[J] - min r_mu[I]), and r_om[j] - r_om[i] is at most
    N = fl(max r_om[J] - min r_om[I]), because IEEE rounding is monotone;
    an admissible pair also has r_mu[j] - r_mu[i] >= threshold.  Division
    by a positive number is monotone too, so every admissible ratio is at
    most N divided by the larger of the threshold and the least
    mu-difference when N >= 0, and at most N divided by the largest
    mu-difference when N < 0.  The sample pairs that reach the threshold
    are real admissible pairs: r_mu is non-decreasing, so a positive
    mu-difference puts the column after the row."""
    lo, hi, om_lo, om_hi = stats
    num = om_hi[cols] - om_lo[rows]
    bound = num / np.where(num >= 0, np.maximum(lo[cols] - hi[rows], threshold),
                           hi[cols] - lo[rows])
    first, last = rows * width, np.minimum(cols * width + width - 1, len(r_mu) - 1)
    gap = r_mu[last] - r_mu[first]
    samples = ((r_om[last] - r_om[first]) / gap)[gap >= threshold]
    return bound, np.fmax.reduce(samples, initial=floor)


def _cells_max(mu: np.ndarray, om: np.ndarray, rows: np.ndarray, cols: np.ndarray,
               threshold: float):
    """(value, i, j) of the first maximum, in row-major pair order, of the
    admissible pairs of the fine tile pairs (rows[k], cols[k]) on the
    padded grids ``mu`` and ``om``; None if they hold no admissible pair.
    Each ratio is (om[j] - om[i]) / (mu[j] - mu[i]), bitwise what
    ``pair_ratio_blocks`` forms up to the sign of a zero, and NaN off the
    admissible set, as there: the mu-differences below the threshold are
    set to NaN before the division.  mu is non-decreasing, so no cell with
    j <= i is admissible."""
    width = _PAIR_TILE
    if not len(rows):
        return None
    cell = np.arange(width)
    i = (rows[:, None] * width + cell)[:, :, None]
    j = (cols[:, None] * width + cell)[:, None, :]
    gap = mu[j] - mu[i]
    np.copyto(gap, np.nan, where=gap < threshold)
    ratios = om[j] - om[i]
    np.divide(ratios, gap, out=ratios)
    top = np.fmax.reduce(ratios, axis=None)
    pos = np.flatnonzero(ratios == top)  # NaN equals nothing
    if not len(pos):
        return None
    tile, cell = np.divmod(pos, width * width)
    i, j = rows[tile] * width + cell // width, cols[tile] * width + cell % width
    first = int(np.lexsort((j, i))[0])
    return top, int(i[first]), int(j[first])


def _beats(found, best) -> bool:
    """Whether (value, i, j) ``found`` comes before ``best`` in the scan's
    order: the larger value, and of equal values the least (i, j)."""
    (value, *pair), (top, *at) = found, best
    return value > top or (value == top and pair < at)


@lru_cache(maxsize=256)
def _affine_prefilter(mu, omega, params: Params) -> str:
    """Conjectured reformulation used only as a pre-filter: does some slope c
    give L_omega <= c * L_mu + C on all pairs?  Both almost-comparisons of
    (mu, omega) ask for it, so it runs once per ordered pair.

    The answer is "holds" if any slope holds, else "inconclusive" if any
    slope is inconclusive, else "fails": no slope's outcome depends on
    another's, so the order of the search does not change it.  The search
    runs from the largest slope down, because a bound that holds at some c
    usually holds at every larger one, and stops at the first that holds."""
    saw_inconclusive = False
    for c in reversed(PREFILTER_SLOPES):
        outcome, _, _ = _bounded_outcome(mu, omega, c, 1.0, params)
        if outcome == HOLDS:
            return HOLDS
        if outcome == INCONCLUSIVE:
            saw_inconclusive = True
    return INCONCLUSIVE if saw_inconclusive else FAILS


def check_almost(mu, omega, direction: str, params: Params = DEFAULT) -> RelationVerdict:
    """Quantifier-faithful grid check of the almost-comparisons.

    direction "faster" decides mu almost-faster-than omega: for every outer
    exponent alpha~ < 0 on omega, some inner exponent alpha on mu must bound
    the supremum.  direction "slower" decides omega almost-slower-than mu:
    the outer exponent sits on mu and the inner one is searched on omega.
    Both run the same inequality; only the order of choice differs.

    A certificate found on finite windows is accepted only when the
    necessary ratio condition is also certified (otherwise an oversized
    inner exponent could push the defect beyond the window); an accelerating
    ratio refutes the relation outright.  The affine pre-filter is
    cross-checked; a decisive disagreement is reported as inconclusive.
    """
    _check_domains(mu, omega)
    if direction not in ("faster", "slower"):
        raise RelationError("direction must be 'faster' or 'slower'")
    relation = "almost_faster" if direction == "faster" else "almost_slower"
    direction_label = "mu_over_omega" if direction == "faster" else "omega_under_mu"
    inner_grid = INNER_LARGE if direction == "faster" else INNER_SMALL
    grid = {"outer": list(OUTER_EXPONENTS), "inner": list(inner_grid)}
    necessity, ratio_sups, ratio_pairs = _ratio_necessity(mu, omega, params)
    diagnostics = {"ratio_sups": [float(s) for s in ratio_sups]}
    if necessity == FAILS:
        diagnostics["refuted_by"] = "unbounded log-quotient ratio"
        return _verdict(relation, direction_label, FAILS, diagnostics, grid,
                        witness=[dict(p) for p in ratio_pairs])
    chosen = {}
    overall = HOLDS
    witness = None
    for outer in OUTER_EXPONENTS:
        key = f"outer={outer:g}"
        inconclusive = False
        for inner in inner_grid:
            if direction == "faster":
                coef_mu, coef_omega = -inner, -outer
            else:
                coef_mu, coef_omega = -outer, -inner
            outcome, sup, pairs = _bounded_outcome(mu, omega, coef_mu, coef_omega, params)
            if outcome == HOLDS:
                chosen[key] = {"inner": inner, "sup": sup}
                diagnostics[key] = "bounded"
                break
            inconclusive = inconclusive or outcome == INCONCLUSIVE
        else:
            if not inconclusive:  # the witness is the last inner exponent's argmax pairs
                overall = FAILS
                witness = pairs
                diagnostics[key] = "unbounded for every inner exponent"
                break
            overall = INCONCLUSIVE
            diagnostics[key] = "not resolved on the inner grid"
    prefilter = _affine_prefilter(mu, omega, params)
    diagnostics["prefilter"] = prefilter
    outcome = (HOLDS if overall == HOLDS and necessity == HOLDS and prefilter != FAILS
               else FAILS if overall == FAILS and prefilter != HOLDS else INCONCLUSIVE)
    return _verdict(relation, direction_label, outcome, diagnostics, grid,
                    certificate={"witness_exponents": chosen}, witness=witness)


# ---------------------------------------------------------------------------
# Pair classification and the chain order


@record
class PairClassification:
    checks: dict
    weakly_equivalent: str
    equivalent: str
    below_ab: str
    below_ba: str
    symbolic: rates.RelationProfile | None
    conflicts: list

    def outcome(self, key: str) -> str:
        return self.checks[key].outcome

    def to_dict(self) -> dict:
        return {
            "checks": {k: v.to_dict() for k, v in self.checks.items()},
            "weakly_equivalent": self.weakly_equivalent,
            "equivalent": self.equivalent,
            "below_ab": self.below_ab,
            "below_ba": self.below_ba,
            "symbolic_conflicts": list(self.conflicts),
        }


def combine(outcomes) -> str:
    """"fails" if any outcome fails, "holds" if all hold, else
    "inconclusive"."""
    outcomes = list(outcomes)
    if any(o == FAILS for o in outcomes):
        return FAILS
    if all(o == HOLDS for o in outcomes):
        return HOLDS
    return INCONCLUSIVE


# The directed checks between a and b, by the name the symbolic profile
# gives each (almost_slower_ab means a almost-slower-than b).  The lambdas
# look the checks up at call time, so a patched module attribute is seen.
_DIRECTED = {
    "faster_ab": lambda a, b, params: check_faster(a, b, params),
    "faster_ba": lambda a, b, params: check_faster(b, a, params),
    "weakly_ab": lambda a, b, params: check_weakly_faster(a, b, params),
    "weakly_ba": lambda a, b, params: check_weakly_faster(b, a, params),
    "almost_faster_ab": lambda a, b, params: check_almost(a, b, "faster", params),
    "almost_faster_ba": lambda a, b, params: check_almost(b, a, "faster", params),
    "almost_slower_ab": lambda a, b, params: check_almost(b, a, "slower", params),
    "almost_slower_ba": lambda a, b, params: check_almost(a, b, "slower", params),
}
WEAKLY_CHECKS = ("weakly_ab", "weakly_ba")
ALMOST_CHECKS = ("almost_faster_ab", "almost_faster_ba",
                 "almost_slower_ab", "almost_slower_ba")


def run_checks(a, b, keys, params: Params,
               symbolic: rates.RelationProfile | None) -> tuple[dict, list]:
    """Run the directed checks named by ``keys`` between a and b, and
    cross-check each against the closed-form profile ``symbolic`` (None
    skips it): an inconclusive verdict takes the symbolic answer, and a
    decisive one that disagrees becomes inconclusive.  Returns the verdicts
    by key and the keys that disagreed."""
    checks = {key: _DIRECTED[key](a, b, params) for key in keys}
    conflicts: list[str] = []
    if symbolic is not None:
        for key, verdict in checks.items():
            sym = getattr(symbolic, key)  # the profile names its fields as the checks
            if verdict.outcome == INCONCLUSIVE:
                verdict.outcome = HOLDS if sym else FAILS
                verdict.diagnostics["source"] = "symbolic"
            elif (verdict.outcome == HOLDS) != sym:
                conflicts.append(key)
                verdict.diagnostics["symbolic"] = sym
                verdict.diagnostics["numeric"] = verdict.outcome
                verdict.outcome = INCONCLUSIVE
    return checks, conflicts


def classify_pair(a, b, params: Params = DEFAULT,
                  use_symbolic: bool = True) -> PairClassification:
    """Run every directed comparison between a and b, cross-check against
    the closed-form table for power-exponential and polynomial rates, and
    derive the equivalences and the induced order.

    almost_faster_ab means a almost-faster-than b; almost_slower_ab means a
    almost-slower-than b (the dual quantifier order, not the converse
    relation).  below_ab is the order: a almost-slower-than b and b
    almost-faster-than a.
    """
    symbolic = rates.symbolic_compare(a, b) if use_symbolic else None
    checks, conflicts = run_checks(a, b, _DIRECTED, params, symbolic)
    weakly_eq = combine(checks[k].outcome for k in WEAKLY_CHECKS)
    equivalent = combine(checks[k].outcome for k in ALMOST_CHECKS)
    below_ab = combine((checks["almost_slower_ab"].outcome,
                        checks["almost_faster_ba"].outcome))
    below_ba = combine((checks["almost_slower_ba"].outcome,
                        checks["almost_faster_ab"].outcome))
    return PairClassification(checks, weakly_eq, equivalent, below_ab, below_ba,
                              symbolic, conflicts)


@record
class ChainLink:
    index: int
    outcome: str
    slower_verdict: RelationVerdict
    faster_verdict: RelationVerdict


@record
class ChainReport:
    outcome: str
    links: list
    first_failure: int | None

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "links": [
                {
                    "index": l.index,
                    "outcome": l.outcome,
                    "almost_slower": l.slower_verdict.to_dict(),
                    "almost_faster": l.faster_verdict.to_dict(),
                }
                for l in self.links
            ],
            "first_failure": self.first_failure,
        }


def chain_check(rate_list, params: Params = DEFAULT) -> ChainReport:
    """Verify that consecutive rates are ordered: each a precedes b exactly
    when a is almost slower than b and b is almost faster than a."""
    rate_list = list(rate_list)
    if len(rate_list) < 2:
        raise RelationError("a chain needs at least two rates")
    links = []
    first_failure = None
    for idx, (a, b) in enumerate(zip(rate_list, rate_list[1:])):
        slower = check_almost(b, a, "slower", params)   # a almost-slower-than b
        faster = check_almost(b, a, "faster", params)   # b almost-faster-than a
        outcome = combine((slower.outcome, faster.outcome))
        links.append(ChainLink(idx, outcome, slower, faster))
        if outcome == FAILS and first_failure is None:
            first_failure = idx
    overall = combine(l.outcome for l in links)
    return ChainReport(overall, links, first_failure)
