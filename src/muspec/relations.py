"""Numeric deciders for the growth-rate comparison relations.

Every check reduces to suprema of a separable functional over ordered time
pairs: for a grid function u, sup over s <= t of u(t) - u(s) is the largest
rise of u, computable with one running-minimum scan.  A verdict is "holds"
when the per-window suprema stabilize across the schedule (the final
supremum is the certificate constant), "fails" when they grow monotonically
window over window (the argmax pairs are the witness), and "inconclusive"
otherwise.

Quantifier structure is respected on finite grids:

* faster: for every exponent ratio eps in a fixed grid, the supremum of
  L_omega - eps * L_mu must be bounded (only the ratio of the two negative
  exponents matters).
* weakly faster: the single functional log mu - log omega must have bounded
  drawdown.
* almost faster / almost slower: the inequality couples two exponents; the
  outer one ranges over a fixed grid and the inner one is searched over a
  geometric grid, in the order the relation prescribes.

Verdicts are certified on the tested exponent grids; certificates re-check
against the definitions by direct evaluation on the final window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import rates
from .params import DEFAULT, DISCRETE, SAMPLES_PER_UNIT, Params
from .spectrum import pair_ratio_blocks


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


@dataclass
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


def _grid(rate, window: int) -> tuple[np.ndarray, np.ndarray]:
    per_unit = 1 if rate.time_domain == DISCRETE else SAMPLES_PER_UNIT
    ts = rates.sample_times(rate.time_domain, window, per_unit)
    return ts, rates.log_rate_grid(rate, window, per_unit)


def _window_sups(mu, omega, params: Params, scan) -> tuple[list, list]:
    """``scan(r_mu, r_om) -> (value, i, j)`` on the log-rate grids of every
    window of the schedule: the per-window suprema, and the attaining pairs
    as {"n": t_i, "k": t_j, "value": value} records."""
    sups, pairs = [], []
    for n in params.windows(mu.time_domain):
        ts, r_mu = _grid(mu, n)
        _, r_om = _grid(omega, n)
        value, i, j = scan(r_mu, r_om)
        sups.append(value)
        pairs.append({"n": float(ts[i]), "k": float(ts[j]), "value": value})
    return sups, pairs


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
    run_min = np.minimum.accumulate(u)
    rises = u - run_min
    j = int(np.argmax(rises))
    i = int(np.argmin(u[: j + 1]))
    return float(rises[j]), i, j


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
    agree with the forward one.
    """
    _check_domains(mu, omega)
    if formulation not in ("forward", "backward"):
        raise RelationError(f"unknown formulation {formulation!r}")

    def scan(r_mu, r_om):  # at the eps of the loop below
        if formulation == "forward":
            return _max_rise(r_om - eps * r_mu)
        return _max_fall(eps * r_mu - r_om)

    envelope = {}
    diagnostics = {}
    fail_witness = None
    for eps in EPS_GRID:
        sups, pairs = _window_sups(mu, omega, params, scan)
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
    sups, pairs = _window_sups(mu, omega, params,
                               lambda r_mu, r_om: _max_fall(r_mu - r_om))
    return _verdict("weakly_faster", "mu_over_omega",
                    _sequence_outcome(sups, params.tol_stab),
                    {"drawdown": [float(s) for s in sups]},
                    {"windows": [float(w) for w in params.windows(mu.time_domain)]},
                    certificate={"log_M": float(sups[-1])}, witness=pairs)


# ---------------------------------------------------------------------------
# almost faster / almost slower


def _bounded_outcome(mu, omega, coef_mu: float, coef_omega: float,
                     params: Params) -> tuple[str, float, list]:
    """Outcome for sup over k >= n of coef_omega*L_omega - coef_mu*L_mu."""
    sups, pairs = _window_sups(
        mu, omega, params, lambda r_mu, r_om: _max_rise(coef_omega * r_om - coef_mu * r_mu))
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
    witness.
    """
    def scan(r_mu, r_om):
        l_max = r_mu[-1] - r_mu[0]
        if l_max <= 0:
            raise RelationError("mu is flat on the window; no admissible pairs")
        return _ratio_argmax(r_mu, r_om, params.cutoff_fraction * l_max)

    sups, argmax_pairs = _window_sups(mu, omega, params, scan)
    pairs = tuple(tuple(p.items()) for p in argmax_pairs)
    if _sequence_outcome(sups, params.tol_stab) == FAILS:
        return FAILS, tuple(sups), pairs
    bounded = len(sups) >= 2 and sups[-1] - sups[-2] <= params.tol_stab
    return HOLDS if bounded else INCONCLUSIVE, tuple(sups), pairs


def _ratio_argmax(r_mu: np.ndarray, r_om: np.ndarray, threshold: float) -> tuple[float, int, int]:
    """Largest (r_om[j] - r_om[i]) / (r_mu[j] - r_mu[i]) over the pairs
    i < j whose mu-distance reaches the threshold, with its pair: the first
    maximum in row-major pair order, and a NaN ratio beats every number, as
    ``np.argmax`` over all pairs at once would pick.  Within a block, the
    row-major order of the rectangle keeps the pairs in that order, so the
    first maximum of the rectangle with -inf off the mask is the first
    admissible one, unless every admissible ratio is -inf."""
    best = None
    for i0, j0, mask, q in pair_ratio_blocks(r_mu, r_om[None], -r_om[None], threshold):
        ratios = q[0]
        np.copyto(ratios, -np.inf, where=~mask)
        top = int(np.argmax(ratios))
        value = ratios.flat[top]
        if value == -np.inf:
            top = int(np.argmax(mask))
        if best is None or value > best[0] or (np.isnan(value) and not np.isnan(best[0])):
            best = (value, i0, j0, top, ratios.shape[1])
    if best is None:
        raise RelationError("no admissible pairs after the log-quotient cutoff")
    value, i0, j0, top, width = best
    a, b = divmod(top, width)
    return float(value), i0 + a, j0 + b


@lru_cache(maxsize=256)
def _affine_prefilter(mu, omega, params: Params) -> str:
    """Conjectured reformulation used only as a pre-filter: does some slope c
    give L_omega <= c * L_mu + C on all pairs?  Both almost-comparisons of
    (mu, omega) ask for it, so it runs once per ordered pair."""
    saw_inconclusive = False
    for c in PREFILTER_SLOPES:
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
        found = None
        all_failed = True
        best_attempt = None
        for inner in inner_grid:
            if direction == "faster":
                coef_mu, coef_omega = -inner, -outer
            else:
                coef_mu, coef_omega = -outer, -inner
            outcome, sup, pairs = _bounded_outcome(mu, omega, coef_mu, coef_omega, params)
            if outcome == HOLDS:
                found = (inner, sup)
                all_failed = False
                break
            if outcome == INCONCLUSIVE:
                all_failed = False
            best_attempt = pairs
        key = f"outer={outer:g}"
        if found is not None:
            chosen[key] = {"inner": found[0], "sup": found[1]}
            diagnostics[key] = "bounded"
        elif all_failed:
            overall = FAILS
            witness = best_attempt
            diagnostics[key] = "unbounded for every inner exponent"
            break
        else:
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


_DIRECTED_KEYS = (
    "faster_ab", "faster_ba",
    "weakly_ab", "weakly_ba",
    "almost_faster_ab", "almost_faster_ba",
    "almost_slower_ab", "almost_slower_ba",
)


@dataclass
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


def _combine(outcomes) -> str:
    outcomes = list(outcomes)
    if any(o == FAILS for o in outcomes):
        return FAILS
    if all(o == HOLDS for o in outcomes):
        return HOLDS
    return INCONCLUSIVE


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
    checks = {
        "faster_ab": check_faster(a, b, params),
        "faster_ba": check_faster(b, a, params),
        "weakly_ab": check_weakly_faster(a, b, params),
        "weakly_ba": check_weakly_faster(b, a, params),
        "almost_faster_ab": check_almost(a, b, "faster", params),
        "almost_faster_ba": check_almost(b, a, "faster", params),
        "almost_slower_ab": check_almost(b, a, "slower", params),
        "almost_slower_ba": check_almost(a, b, "slower", params),
    }
    symbolic = rates.symbolic_compare(a, b) if use_symbolic else None
    conflicts: list[str] = []
    if symbolic is not None:
        expected = {
            "faster_ab": symbolic.faster_ab,
            "faster_ba": symbolic.faster_ba,
            "weakly_ab": symbolic.weakly_ab,
            "weakly_ba": symbolic.weakly_ba,
            "almost_faster_ab": symbolic.almost_faster_ab,
            "almost_faster_ba": symbolic.almost_faster_ba,
            "almost_slower_ab": symbolic.almost_slower_ab,
            "almost_slower_ba": symbolic.almost_slower_ba,
        }
        for key, sym in expected.items():
            verdict = checks[key]
            if verdict.outcome == INCONCLUSIVE:
                verdict.outcome = HOLDS if sym else FAILS
                verdict.diagnostics["source"] = "symbolic"
            elif (verdict.outcome == HOLDS) != sym:
                conflicts.append(key)
                verdict.diagnostics["symbolic"] = sym
                verdict.diagnostics["numeric"] = verdict.outcome
                verdict.outcome = INCONCLUSIVE
    weakly_eq = _combine((checks["weakly_ab"].outcome, checks["weakly_ba"].outcome))
    equivalent = _combine(checks[k].outcome for k in (
        "almost_faster_ab", "almost_faster_ba", "almost_slower_ab", "almost_slower_ba"))
    below_ab = _combine((checks["almost_slower_ab"].outcome,
                         checks["almost_faster_ba"].outcome))
    below_ba = _combine((checks["almost_slower_ba"].outcome,
                         checks["almost_faster_ab"].outcome))
    return PairClassification(checks, weakly_eq, equivalent, below_ab, below_ba,
                              symbolic, conflicts)


@dataclass
class ChainLink:
    index: int
    outcome: str
    slower_verdict: RelationVerdict
    faster_verdict: RelationVerdict


@dataclass
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
        outcome = _combine((slower.outcome, faster.outcome))
        links.append(ChainLink(idx, outcome, slower, faster))
        if outcome == FAILS and first_failure is None:
            first_failure = idx
    overall = _combine(l.outcome for l in links)
    return ChainReport(overall, links, first_failure)
