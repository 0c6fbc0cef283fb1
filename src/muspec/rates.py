"""Growth rates represented through their logarithm t -> log mu(t).

A growth rate is a non-decreasing positive function with mu(0) = 1,
mu(t) -> 0 as t -> -infinity and mu(t) -> +infinity as t -> +infinity.  All
arithmetic downstream happens on log mu: the cubic-exponential rate already
reaches e^729 at t = 9, far beyond double range.

Families:

* ``PowerExp(p, lam)``: log mu(t) = lam * sgn(t) * |t|^p.  Covers the
  exponential (p=1, lam=1), quadratic-exponential (p=2) and
  cubic-exponential (p=3) rates.
* ``Polynomial``: log mu(t) = sgn(t) * log(1+|t|) in continuous time and
  sgn(n) * log|n| (0 at n = 0) in discrete time.
* ``ExpressionRate``: log mu given by a parsed expression in one variable.
* ``Glued``: follows ``inner`` for |t| >= crossover and ``outer`` for
  |t| < crossover.  With inner = cubic-exponential, outer = polynomial and
  the crossover at the positive solution of t^3 = log(1+t), this is the
  standard example of a rate weakly equivalent to the cubic one.
"""

from __future__ import annotations

import math
from functools import lru_cache, wraps
from typing import Union

import numpy as np

from . import exprparse
from ._record import record
from .params import CONTINUOUS, DISCRETE


class RateError(ValueError):
    """Invalid growth-rate construction or evaluation."""


def _check_domain(domain: str):
    if domain not in (DISCRETE, CONTINUOUS):
        raise RateError(f"time_domain must be '{DISCRETE}' or '{CONTINUOUS}', got {domain!r}")


def _check_positive(value: float, what: str):
    if not (math.isfinite(value) and value > 0):
        raise RateError(f"{what} must be a positive finite number, got {value!r}")


@record(frozen=True)
class PowerExp:
    p: float
    lam: float = 1.0
    time_domain: str = DISCRETE

    def __post_init__(self):
        _check_domain(self.time_domain)
        _check_positive(self.p, "PowerExp.p")
        _check_positive(self.lam, "PowerExp.lam")


@record(frozen=True)
class Polynomial:
    time_domain: str = DISCRETE

    def __post_init__(self):
        _check_domain(self.time_domain)


@record(frozen=True)
class ExpressionRate:
    log_rate: str
    time_domain: str = DISCRETE

    def __post_init__(self):
        _check_domain(self.time_domain)
        _rate_ast(self.log_rate)  # surface syntax errors at construction


@record(frozen=True)
class Glued:
    inner: "GrowthRate"
    outer: "GrowthRate"
    crossover: float
    time_domain: str = CONTINUOUS

    def __post_init__(self):
        _check_domain(self.time_domain)
        _check_positive(self.crossover, "Glued.crossover")
        for part in (self.inner, self.outer):
            if part.time_domain != self.time_domain:
                raise RateError("glued rate components must share the time domain")


GrowthRate = Union[PowerExp, Polynomial, ExpressionRate, Glued]


@lru_cache(maxsize=256)
def _rate_ast(source: str) -> exprparse.Expr:
    return exprparse.parse(source)


def _require_time(rate: GrowthRate, ts) -> np.ndarray:
    """``ts`` as a float array.  A discrete rate takes integer times only
    (within 1e-9), rounded; the error names the first other time as given."""
    times = np.asarray(ts, dtype=float)
    if rate.time_domain == DISCRETE:
        rounded = np.round(times) + 0.0  # no -0.0
        off = np.abs(times - rounded) > 1e-9
        if off.any():
            raise RateError("discrete rate evaluated at non-integer time "
                            f"{ts[int(np.argmax(off))]!r}")
        return rounded
    return times


def log_rate(rate: GrowthRate, t: float) -> float:
    """log mu(t) at one time."""
    return float(log_rate_values(rate, [t])[0])


def log_rate_values(rate: GrowthRate, ts) -> np.ndarray:
    """log mu at every time of ``ts``: the one formula per family.  mu(0) = 1
    forces log 0 at t = 0; an overflow is an inf, for the callers' finite
    checks.  An expression rate is evaluated on the float array of the
    times."""
    ts = _require_time(rate, ts)
    if isinstance(rate, PowerExp):
        with np.errstate(over="ignore"):
            return rate.lam * np.sign(ts) * np.abs(ts) ** rate.p
    if isinstance(rate, Polynomial):
        if rate.time_domain == CONTINUOUS:
            return np.sign(ts) * np.log1p(np.abs(ts))
        out = np.zeros_like(ts)
        nz = ts != 0
        out[nz] = np.sign(ts[nz]) * np.log(np.abs(ts[nz]))
        return out
    if isinstance(rate, ExpressionRate):
        ast = _rate_ast(rate.log_rate)
        names = exprparse.variables_of(ast) or ("t",)
        return exprparse.evaluate_array([ast], dict.fromkeys(names, ts))[:, 0]
    if isinstance(rate, Glued):
        return _glued(rate, ts)
    raise TypeError(f"not a growth rate: {rate!r}")


def _glued(rate: Glued, ts: np.ndarray) -> np.ndarray:
    """log mu of the inner branch where |t| >= crossover and of the outer
    one elsewhere, each evaluated only where it is selected."""
    inner = np.abs(ts) >= rate.crossover
    out = np.empty_like(ts)
    for mask, branch in ((inner, rate.inner), (~inner, rate.outer)):
        if mask.any():
            out[mask] = log_rate_values(branch, ts[mask])
    return out


# ---------------------------------------------------------------------------
# Log-quotients


@record(frozen=True)
class LogQuotient:
    """log(mu(to)/mu(from)); non-negative whenever to >= from."""

    value: float
    t_from: float
    t_to: float


def log_quotient(rate: GrowthRate, k: float, n: float) -> LogQuotient:
    return LogQuotient(log_rate(rate, k) - log_rate(rate, n), t_from=n, t_to=k)


# ---------------------------------------------------------------------------
# Sampled grids (shared by the estimators; cached, returned read-only)


_TOL = 1e-12  # slack on log mu(0) = 0 and on non-decreasing samples
MAX_VALIDATION_SAMPLES = 10 ** 6  # samples of a sample_times or validate_rate grid: 8 MB an array
MAX_LOG_RATE = np.finfo(float).max / 2  # DBL_MAX / 2: no difference of two samples this size overflows


def _drops(vals: np.ndarray) -> tuple[np.ndarray, list]:
    """(top, drops): the running maximum of the log mu samples, and the
    samples more than _TOL below it, in order, as (peak, i) index pairs:
    sample i and the last sample before it at that maximum."""
    top = np.maximum.accumulate(vals)
    low = np.flatnonzero(vals < top - _TOL)
    at_top = np.flatnonzero(vals == top)  # holds 0, before every low sample
    return top, list(zip(at_top[np.searchsorted(at_top, low) - 1].tolist(), low.tolist()))


def _grid_cache(maxsize: int):
    """``lru_cache`` for a grid function ``f(x, window, samples_per_unit=1)``,
    x a time domain or a rate, with one entry per grid however a call spells
    it: the per-unit count goes to the cache positionally, and as 1 in
    discrete time, where it moves no sample time.  The decorated function
    keeps the cache's ``cache_info`` and ``cache_clear``."""
    def decorate(fn):
        cached = lru_cache(maxsize=maxsize)(fn)

        @wraps(fn)
        def grid(x, window, samples_per_unit=1):
            discrete = getattr(x, "time_domain", x) == DISCRETE
            return cached(x, window, 1 if discrete else samples_per_unit)

        grid.cache_info, grid.cache_clear = cached.cache_info, cached.cache_clear
        return grid
    return decorate


@_grid_cache(maxsize=128)
def sample_times(time_domain: str, window: int, samples_per_unit: int = 1) -> np.ndarray:
    """Read-only times j / per_unit, |j| <= window * per_unit (per_unit = 1 in
    discrete time).  A window that needs more than MAX_VALIDATION_SAMPLES
    samples is a RateError, raised before any array is built."""
    n = window * samples_per_unit
    if 2 * n + 1 > MAX_VALIDATION_SAMPLES:
        raise RateError(f"window {window} needs {2 * n + 1} samples, "
                        f"more than MAX_VALIDATION_SAMPLES ({MAX_VALIDATION_SAMPLES})")
    ts = np.arange(-n, n + 1, dtype=float) / samples_per_unit
    ts.flags.writeable = False
    return ts


@_grid_cache(maxsize=512)
def log_rate_grid(rate: GrowthRate, window: int, samples_per_unit: int = 1) -> np.ndarray:
    """log mu at ``sample_times``, the grid every estimator scans.  It must
    look like a growth rate there: finite and at most DBL_MAX / 2 in
    magnitude, so that no difference of two samples overflows, log mu(0) = 0
    and no sample more than _TOL below an earlier one; otherwise a RateError
    names the failed check and the first time at which it fails.  The grid
    returned is non-decreasing: a sample below the running maximum is
    raised to it, and every other sample keeps its bits.

    The sample times nest across windows, so the spectra and the relation
    checks take the grid at the schedule's largest window and read each
    window as its central slice: one cache entry per rate, schedule and
    sample density."""
    ts = sample_times(rate.time_domain, window, samples_per_unit)
    vals = log_rate_values(rate, ts)
    out_of_range = ~(np.abs(vals) <= MAX_LOG_RATE)  # NaN compares false
    if out_of_range.any():
        i = int(np.argmax(out_of_range))
        what = "not finite" if not math.isfinite(vals[i]) else "beyond DBL_MAX/2 in magnitude"
        raise RateError(f"rate: log mu is {what} at t={ts[i]:g} ({vals[i]})")
    origin = log_rate(rate, 0.0)
    if abs(origin) > _TOL:
        raise RateError(f"rate: log mu(0) is {origin:g}, not 0 (mu(0) must be 1)")
    top, drops = _drops(vals)
    if drops:
        peak, i = drops[0]
        raise RateError(f"rate: log mu decreases from t={ts[peak]:g} to t={ts[i]:g} "
                        "(a growth rate is non-decreasing)")
    vals = np.where(vals < top, top, vals)
    vals.flags.writeable = False
    return vals


# ---------------------------------------------------------------------------
# Validation


@record(frozen=True)
class RateValidation:
    violations: tuple
    origin_log: float
    origin_ok: bool
    attained: tuple
    points_checked: int

    @property
    def ok(self) -> bool:
        return self.origin_ok and not self.violations


def validate_rate(rate: GrowthRate, window: float,
                  samples_per_unit: int = 10) -> RateValidation:
    """Sample log mu on [-window, window] and report monotonicity violations,
    the value at the origin, and the attained range.  A violation is a
    sample more than _TOL below the running maximum, recorded as (time of
    the maximum, time of the sample, and their values).  Violations are
    data, not errors; a window that is not positive and finite, a
    ``samples_per_unit`` below 1 or not finite, or a window that needs more
    than MAX_VALIDATION_SAMPLES samples, is a RateError."""
    if not (window > 0 and math.isfinite(window)):  # NaN fails too
        raise RateError(f"validation window must be positive and finite, got {window}")
    if not (samples_per_unit >= 1 and math.isfinite(samples_per_unit)):
        raise RateError(f"samples_per_unit must be finite and at least 1, got {samples_per_unit}")
    discrete = rate.time_domain == DISCRETE
    span = 2.0 * (float(int(window)) if discrete else window * samples_per_unit)
    if not span + 1 <= MAX_VALIDATION_SAMPLES:  # span is +inf past double range
        raise RateError(f"validation window {window:g} needs {span + 1:.12g} samples, "
                        f"more than MAX_VALIDATION_SAMPLES ({MAX_VALIDATION_SAMPLES})")
    if discrete:
        ts = np.arange(-int(window), int(window) + 1, dtype=float)
    else:
        ts = np.linspace(-window, window, int(round(span)) + 1)
    vals = log_rate_values(rate, ts)
    bad = tuple((float(ts[p]), float(ts[i]), float(vals[p]), float(vals[i]))
                for p, i in _drops(vals)[1])
    origin = log_rate(rate, 0.0)
    return RateValidation(
        violations=bad,
        origin_log=origin,
        origin_ok=abs(origin) <= _TOL,
        attained=(float(vals[0]), float(vals[-1])),
        points_checked=len(ts),
    )


# ---------------------------------------------------------------------------
# Crossover search for glued rates


def find_crossover(inner: GrowthRate, outer: GrowthRate, hi: float = 10.0,
                   tol: float = 1e-10) -> float:
    """Positive solution of log inner(t) = log outer(t) located by bisection
    on (0, hi]."""
    _check_positive(hi, "find_crossover: hi")

    def f(ts):
        return log_rate_values(inner, ts) - log_rate_values(outer, ts)

    grid = np.linspace(hi / 1000.0, hi, 1000)
    values = f(grid)
    # the first grid point that is a root or starts a sign change
    stop = (values[:-1] == 0.0) | (values[:-1] * values[1:] < 0)
    if not stop.any():
        raise RateError("no crossover sign change found on (0, hi]")
    i = int(np.argmax(stop))
    if values[i] == 0.0:
        return float(grid[i])
    lo_t, hi_t, flo = grid[i], grid[i + 1], values[i]
    while hi_t - lo_t > tol:
        mid = 0.5 * (lo_t + hi_t)
        fm = f([mid])[0]
        if fm == 0.0:
            return float(mid)
        if flo * fm < 0:
            hi_t = mid
        else:
            lo_t, flo = mid, fm
    return float(0.5 * (lo_t + hi_t))


# ---------------------------------------------------------------------------
# Closed-form comparison profiles


@record(frozen=True)
class RelationProfile:
    """Directed comparison verdicts for an ordered rate pair (a, b).

    faster_ab        a is faster than b (quotients of a dominate for every
                     pair of negative exponents)
    weakly_ab        a is weakly faster than b (same exponent both sides)
    almost_faster_ab a is almost faster than b (exponent on a may depend on
                     the exponent chosen for b)
    almost_slower_ab a is almost slower than b (dual quantifier order)
    """

    faster_ab: bool
    faster_ba: bool
    weakly_ab: bool
    weakly_ba: bool
    almost_faster_ab: bool
    almost_faster_ba: bool
    almost_slower_ab: bool
    almost_slower_ba: bool

    @property
    def weakly_equivalent(self) -> bool:
        return self.weakly_ab and self.weakly_ba

    @property
    def equivalent(self) -> bool:
        return (self.almost_faster_ab and self.almost_faster_ba
                and self.almost_slower_ab and self.almost_slower_ba)

    @property
    def below_ab(self) -> bool:
        """a precedes b in the order induced by the almost-comparisons."""
        return self.almost_slower_ab and self.almost_faster_ba

    @property
    def below_ba(self) -> bool:
        return self.almost_slower_ba and self.almost_faster_ab


def _strictly_faster_profile() -> RelationProfile:
    # a dominates b: used for PowerExp with the larger exponent, and for any
    # PowerExp against the polynomial rate.
    return RelationProfile(
        faster_ab=True, faster_ba=False,
        weakly_ab=True, weakly_ba=False,
        almost_faster_ab=True, almost_faster_ba=False,
        almost_slower_ab=False, almost_slower_ba=True,
    )


def _mirror(p: RelationProfile) -> RelationProfile:
    return RelationProfile(
        faster_ab=p.faster_ba, faster_ba=p.faster_ab,
        weakly_ab=p.weakly_ba, weakly_ba=p.weakly_ab,
        almost_faster_ab=p.almost_faster_ba, almost_faster_ba=p.almost_faster_ab,
        almost_slower_ab=p.almost_slower_ba, almost_slower_ba=p.almost_slower_ab,
    )


def symbolic_compare(a: GrowthRate, b: GrowthRate) -> RelationProfile | None:
    """Closed-form comparison profile for PowerExp/Polynomial pairs.

    Returns None for expression or glued rates, which are handled by the
    numeric checkers.
    """
    if not isinstance(a, (PowerExp, Polynomial)) or not isinstance(b, (PowerExp, Polynomial)):
        return None
    if isinstance(a, Polynomial) and isinstance(b, Polynomial):
        return RelationProfile(
            faster_ab=False, faster_ba=False,
            weakly_ab=True, weakly_ba=True,
            almost_faster_ab=True, almost_faster_ba=True,
            almost_slower_ab=True, almost_slower_ba=True,
        )
    if isinstance(a, PowerExp) and isinstance(b, Polynomial):
        return _strictly_faster_profile()
    if isinstance(a, Polynomial) and isinstance(b, PowerExp):
        return _mirror(_strictly_faster_profile())
    assert isinstance(a, PowerExp) and isinstance(b, PowerExp)
    if a.p > b.p:
        return _strictly_faster_profile()
    if a.p < b.p:
        return _mirror(_strictly_faster_profile())
    return RelationProfile(
        faster_ab=False, faster_ba=False,
        weakly_ab=a.lam >= b.lam, weakly_ba=b.lam >= a.lam,
        almost_faster_ab=True, almost_faster_ba=True,
        almost_slower_ab=True, almost_slower_ba=True,
    )


# ---------------------------------------------------------------------------
# Descriptors


def rate_to_descriptor(rate: GrowthRate, top_level: bool = True) -> dict:
    if isinstance(rate, PowerExp):
        d = {"kind": "power_exp", "p": rate.p, "lambda": rate.lam}
    elif isinstance(rate, Polynomial):
        d = {"kind": "polynomial"}
    elif isinstance(rate, ExpressionRate):
        d = {"kind": "expression", "log_rate": rate.log_rate}
    elif isinstance(rate, Glued):
        d = {
            "kind": "glued",
            "inner": rate_to_descriptor(rate.inner, top_level=False),
            "outer": rate_to_descriptor(rate.outer, top_level=False),
            "crossover": rate.crossover,
        }
    else:
        raise RateError(f"not a growth rate: {rate!r}")
    if top_level:
        d["time_domain"] = rate.time_domain
    return d


def rate_from_descriptor(desc: dict, time_domain: str | None = None,
                         path: str = "rate") -> GrowthRate:
    """Build a rate from its JSON descriptor.  Validation failures name the
    offending field path."""
    if not isinstance(desc, dict):
        raise RateError(f"{path}: expected an object, got {type(desc).__name__}")
    domain = desc.get("time_domain", time_domain)
    if domain is None:
        raise RateError(f"{path}.time_domain: missing (and no default supplied)")
    _check_domain(domain)
    kind = desc.get("kind")
    if kind == "power_exp":
        p = _num_field(desc, "p", path)
        lam = _num_field(desc, "lambda", path, default=1.0)
        return PowerExp(p=p, lam=lam, time_domain=domain)
    if kind == "polynomial":
        return Polynomial(time_domain=domain)
    if kind == "expression":
        src = desc.get("log_rate")
        if not isinstance(src, str) or not src:
            raise RateError(f"{path}.log_rate: expected a non-empty expression string")
        try:
            return ExpressionRate(log_rate=src, time_domain=domain)
        except exprparse.ParseError as exc:
            raise RateError(f"{path}.log_rate: {exc}") from exc
    if kind == "glued":
        inner = rate_from_descriptor(desc.get("inner"), domain, path=f"{path}.inner")
        outer = rate_from_descriptor(desc.get("outer"), domain, path=f"{path}.outer")
        crossover = desc.get("crossover")
        if crossover is None:
            crossover = find_crossover(inner, outer)
        elif not is_finite_number(crossover) or not crossover > 0:
            raise RateError(f"{path}.crossover: expected a positive number")
        return Glued(inner=inner, outer=outer, crossover=float(crossover),
                     time_domain=domain)
    raise RateError(
        f"{path}.kind: expected one of power_exp, polynomial, expression, glued; "
        f"got {kind!r}")


def _num_field(desc: dict, name: str, path: str, default: float | None = None) -> float:
    """A positive finite number field (``p``, ``lambda``) of a descriptor."""
    val = desc.get(name, default)
    if not is_finite_number(val) or not val > 0:
        raise RateError(f"{path}.{name}: expected a positive finite number, got {val!r}")
    return float(val)


def is_finite_number(val) -> bool:
    """Whether a descriptor value is a number (not a bool) with a finite
    float value: NaN, the infinities and integers beyond double range are
    not."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an integer too large for a float
        return False
