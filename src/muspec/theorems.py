"""Executable verification of the spectral comparison theorems.

Each verifier checks its hypotheses numerically before touching the
conclusion: a hypothesis that fails or stays inconclusive yields a skipped
report, never an assumed one.  Conclusions compare spectral endpoints at the
shared stabilization tolerance widened by the estimator's own measured
resolution; a conclusion that misses the target while the underlying
estimate has not converged is reported as skipped ("conclusion-unresolved")
rather than as a failure, so a failure always means confident
counterevidence.

Every verifier takes an optional ``cache``, one dict per run: spectra and
relation verdicts are then computed once per function and arguments (the
system object, the rates and the ``Params``) and shared with the other
verifiers of the run; without it each call computes its own.
"""

from __future__ import annotations

import math

from . import catalog, evolution, rates, relations
from ._record import field, record
from .params import CONTINUOUS, DEFAULT, DISCRETE, Params
from .relations import FAILS, HOLDS, INCONCLUSIVE
from .spectrum import SpectrumReport, compute_spectrum, has_mu_dichotomy, has_mu_growth


INF = math.inf


@record(frozen=True, eq=False)
class Fixture:
    """A named system plus optional oracle data: a closed-form per-component
    log-propagator and the expected spectra for catalog rates."""

    name: str
    system: evolution.LinearSystem
    closed_form: object | None = None          # callable(component, to, frm) -> float
    expected: dict = field(default_factory=dict)  # rate name -> tuple of (lo, hi)


def _sgn(x: float) -> float:
    return 1.0 if x > 0 else (-1.0 if x < 0 else 0.0)


def catalog_fixtures() -> list[Fixture]:
    def signed_square_cf(_c, t, s):  # abs2t and disc_q
        return _sgn(t) * t * t - _sgn(s) * s * s

    def inv1pt_cf(_c, t, s):
        return _sgn(t) * math.log1p(abs(t)) - _sgn(s) * math.log1p(abs(s))

    def sq3t2_cf(_c, t, s):
        return t ** 3 - s ** 3

    def frak_a_cf(_c, k, n):
        return -(k ** 3 - n ** 3)

    def identity_cf(_c, k, n):
        return 0.0

    return [
        Fixture("abs2t", catalog.system("abs2t"), signed_square_cf,
                {"p": ((INF, INF),), "exp": ((INF, INF),),
                 "q": ((1.0, 1.0),), "c": ((0.0, 0.0),)}),
        Fixture("inv1pt", catalog.system("inv1pt"), inv1pt_cf,
                {"p": ((1.0, 1.0),), "q": ((0.0, 0.0),), "c": ((0.0, 0.0),)}),
        Fixture("sq3t2", catalog.system("sq3t2"), sq3t2_cf,
                {"p": ((INF, INF),), "exp": ((INF, INF),),
                 "q": ((INF, INF),), "c": ((1.0, 1.0),)}),
        Fixture("frak_a", catalog.system("frak_a"), frak_a_cf,
                {"p": ((-INF, -INF),), "exp": ((-INF, -INF),),
                 "q": ((-INF, -INF),), "c": ((-1.0, -1.0),)}),
        Fixture("disc_q", catalog.system("disc_q"), signed_square_cf,
                {"p": ((INF, INF),), "exp": ((INF, INF),),
                 "q": ((1.0, 1.0),), "c": ((0.0, 0.0),)}),
        Fixture("identity", catalog.system("identity"), identity_cf,
                {"p": ((0.0, 0.0),), "exp": ((0.0, 0.0),),
                 "q": ((0.0, 0.0),), "c": ((0.0, 0.0),)}),
    ]


def generate_quotient_system(nu: rates.GrowthRate, slopes, name: str | None = None) -> Fixture:
    """Diagonal fixture whose component propagators are rate quotients raised
    to the given slopes; the expected spectrum under nu is the set of slopes."""
    slopes = tuple(float(s) for s in slopes)
    system = evolution.quotient_system(nu, slopes)
    if name is None:
        kind = rates.rate_to_descriptor(nu, top_level=False)["kind"]
        name = f"quotient_{kind}_{'_'.join(f'{s:g}' for s in slopes)}"

    def closed_form(component, to, frm):
        return slopes[component] * (rates.log_rate(nu, to) - rates.log_rate(nu, frm))

    expected = {"nu": tuple((s, s) for s in sorted(set(slopes)))}
    return Fixture(name, system, closed_form, expected)


# ---------------------------------------------------------------------------
# Reports


@record
class TheoremReport:
    theorem: str
    fixture: str
    rates: dict
    hypotheses: list
    conclusion: dict | None
    status: str  # "pass" | "fail" | "skipped"
    reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "fixture": self.fixture,
            "rates": dict(self.rates),
            "status": self.status,
            "details": {
                "hypotheses": list(self.hypotheses),
                "conclusion": self.conclusion,
                "reason": self.reason,
            },
        }


def _hyp(name: str, status: str, detail: str = "") -> dict:
    return {"name": name, "status": status, "detail": detail}


def _assemble(theorem, fixture, rate_names, hypotheses, conclude) -> TheoremReport:
    bad = [h for h in hypotheses if h["status"] != HOLDS]
    if bad:
        return TheoremReport(theorem, fixture, rate_names, hypotheses, None,
                             "skipped", f"hypothesis-not-met: {bad[0]['name']}")
    ok, resolved, detail = conclude()
    conclusion = {"ok": ok, "resolved": resolved, "detail": detail}
    if ok:
        return TheoremReport(theorem, fixture, rate_names, hypotheses, conclusion, "pass")
    if resolved:
        return TheoremReport(theorem, fixture, rate_names, hypotheses, conclusion, "fail",
                             detail)
    return TheoremReport(theorem, fixture, rate_names, hypotheses, conclusion,
                         "skipped", "conclusion-unresolved: " + detail)


# ---------------------------------------------------------------------------
# Spectral comparisons with resolution-aware tolerances


def _fmt_spectrum(rep: SpectrumReport) -> str:
    return "+".join(f"[{iv.lo:g}, {iv.hi:g}]" for iv in rep.intervals)


def _point_check(rep: SpectrumReport, target: float, tol: float):
    tol_eff = tol + rep.resolution
    ok = (len(rep.intervals) == 1
          and math.isfinite(rep.intervals[0].lo)
          and abs(rep.intervals[0].lo - target) <= tol_eff
          and abs(rep.intervals[0].hi - target) <= tol_eff)
    detail = f"spectrum {_fmt_spectrum(rep)} vs point {target:g} (tolerance {tol_eff:.4g})"
    return ok, ok or rep.converged, detail


def _infinite_set_check(rep: SpectrumReport):
    degenerate = all(iv.lo == iv.hi and not math.isfinite(iv.lo) for iv in rep.intervals)
    detail = "spectrum " + _fmt_spectrum(rep)
    return degenerate, degenerate or rep.converged, detail


def _inclusion_check(rep: SpectrumReport, lo: float, hi: float, tol: float,
                     side: str | None = None):
    tol_eff = tol + rep.resolution
    ok = True
    for iv in rep.intervals:
        if side == "+" and iv.hi <= 0.0:
            continue
        if side == "-" and iv.lo >= 0.0:
            continue
        if side != "+" and iv.lo < lo - tol_eff:
            ok = False
        if side != "-" and iv.hi > hi + tol_eff:
            ok = False
    label = {"+": "positive part of ", "-": "negative part of ", None: ""}[side]
    detail = f"{label}spectrum {_fmt_spectrum(rep)} vs [{lo:g}, {hi:g}] (tolerance {tol_eff:.4g})"
    return ok, ok or rep.converged, detail


# ---------------------------------------------------------------------------
# Theorem verifiers


def verify_805(system, mu, omega, params: Params = DEFAULT, fixture: str = "?",
               cache: dict | None = None) -> TheoremReport:
    """Faster rate with a dichotomy: the spectrum under the slower rate must
    collapse to {+inf}, {-inf} or {+-inf}."""
    names = {"mu": _rate_label(mu), "omega": _rate_label(omega)}
    h1 = _memo(cache, relations.check_faster, mu, omega, params)
    dich = has_mu_dichotomy(system, mu, params,
                            report=_memo(cache, compute_spectrum, system, mu, params))
    hyps = [
        _hyp("mu_faster_than_omega", h1.outcome),
        _hyp("system_has_mu_dichotomy", {True: HOLDS, False: FAILS}.get(dich.holds, INCONCLUSIVE)),
    ]
    return _assemble("805", fixture, names, hyps,
                     lambda: _infinite_set_check(
                         _memo(cache, compute_spectrum, system, omega, params)))


def verify_806(system, omega, mu, params: Params = DEFAULT, fixture: str = "?",
               cache: dict | None = None) -> TheoremReport:
    """Bounded growth under omega plus a faster rate mu: the mu-spectrum must
    be the single point {0}."""
    names = {"omega": _rate_label(omega), "mu": _rate_label(mu)}
    growth = has_mu_growth(system, omega, params,
                           report=_memo(cache, compute_spectrum, system, omega, params))
    h2 = _memo(cache, relations.check_faster, mu, omega, params)
    hyps = [
        _hyp("system_has_omega_growth", growth.status),
        _hyp("mu_faster_than_omega", h2.outcome),
    ]
    return _assemble("806", fixture, names, hyps, lambda: _point_check(
        _memo(cache, compute_spectrum, system, mu, params), 0.0, params.tol_stab))


def verify_808_809(system, mu, omega, a: float | None = None, b: float | None = None,
                   variant: str = "808i", params: Params = DEFAULT, fixture: str = "?",
                   cache: dict | None = None) -> TheoremReport:
    """Spectral inclusion transport along the weak comparison.

    808i/808ii move an inclusion from the weakly-faster rate mu to omega on
    one side of the axis; 809i/809ii/809iii move inclusions around zero from
    omega to mu.  An infinite bound leaves nothing to prove and is skipped.
    """
    names = {"mu": _rate_label(mu), "omega": _rate_label(omega)}
    h1 = _memo(cache, relations.check_weakly_faster, mu, omega, params)
    hyps = [_hyp("mu_weakly_faster_than_omega", h1.outcome)]
    # each variant moves the inclusion [lo, hi] (on one side of the axis, or
    # all of it when side is None) from the spectrum under ``given`` to ``moved``
    # written as "not (x > 0)" so that a NaN bound fails too
    if variant in ("808i", "808ii"):
        if a is None or not a > 0:
            raise ValueError("808 needs a positive bound a")
        lo, hi = (-INF, -a) if variant == "808i" else (a, INF)
        given, moved, side, given_name = mu, omega, None, "mu"
    elif variant in ("809i", "809ii", "809iii"):
        if variant in ("809i", "809iii") and (b is None or not b >= 0):
            raise ValueError("809i/809iii need a bound b >= 0")
        if variant in ("809ii", "809iii") and (a is None or not a <= 0):
            raise ValueError("809ii/809iii need a bound a <= 0")
        lo, hi, side = {"809i": (0.0, b, "+"), "809ii": (a, 0.0, "-"),
                        "809iii": (a, b, None)}[variant]
        given, moved, given_name = omega, mu, "omega"
        if (side != "-" and hi == INF) or (side != "+" and lo == -INF):
            return TheoremReport(variant, fixture, names, hyps, None, "skipped",
                                 "infinite bound: nothing to prove")
    else:
        raise ValueError(f"unknown variant {variant!r}")

    def inclusion(rate_obj):
        rep = _memo(cache, compute_spectrum, system, rate_obj, params)
        return _inclusion_check(rep, lo, hi, params.tol_stab, side)

    ok, resolved, detail = inclusion(given)
    hyps.append(_hyp(f"{given_name}_spectrum_inclusion",
                     HOLDS if ok else (FAILS if resolved else INCONCLUSIVE), detail))
    return _assemble(variant, fixture, names, hyps, lambda: inclusion(moved))


def verify_811(system, chain, params: Params = DEFAULT, fixture: str = "?",
               rate_names=None, cache: dict | None = None) -> TheoremReport:
    """Along an ordered chain of rates, at most one admits simultaneously a
    confirmed dichotomy and confirmed bounded growth."""
    chain = list(chain)
    if rate_names is None:
        rate_names = [_rate_label(r) for r in chain]
    elif len(rate_names) != len(chain):
        raise ValueError(f"rate_names has {len(rate_names)} names for a chain of "
                         f"{len(chain)} rates")
    names = {"chain": ",".join(rate_names)}
    order = _memo(cache, relations.chain_check, tuple(chain), params)
    hyps = [_hyp("chain_is_ordered", order.outcome,
                 "" if order.first_failure is None else f"link {order.first_failure} fails")]

    def conclude():
        strong = []
        for label, r in zip(rate_names, chain):
            rep = _memo(cache, compute_spectrum, system, r, params)
            growth = has_mu_growth(system, r, params, report=rep)
            dich = has_mu_dichotomy(system, r, params, report=rep)
            if growth.status == HOLDS and dich.holds is True:
                strong.append(label)
        ok = len(strong) <= 1
        detail = "strong rate: " + (", ".join(strong) if strong else "none")
        return ok, True, detail

    return _assemble("811", fixture, names, hyps, conclude)


def _gap_semiaxis(gap, tol: float) -> str:
    if gap.lo >= -tol:
        return "positive"
    if gap.hi <= tol:
        return "negative"
    return "straddles"


def verify_908(system, mu, omega, params: Params = DEFAULT, fixture: str = "?",
               cache: dict | None = None) -> TheoremReport:
    """Equivalent rates classify spectra: weak equivalence forces equal
    spectra, plain equivalence forces the same gap structure (membership of
    +-inf, gap count, ordered correspondence, projector ranks, semiaxis)."""
    names = {"mu": _rate_label(mu), "omega": _rate_label(omega)}
    symbolic = rates.symbolic_compare(mu, omega)

    def equivalence(keys):  # the combined outcome of the named checks
        checks, _ = relations.run_checks(mu, omega, keys, params, symbolic)
        return relations.combine(v.outcome for v in checks.values())

    # the almost checks are run only when weak equivalence does not hold
    weakly_equivalent = equivalence(relations.WEAKLY_CHECKS)
    equivalent = None if weakly_equivalent == HOLDS else equivalence(relations.ALMOST_CHECKS)
    if weakly_equivalent == HOLDS:
        theorem, hypothesis, same = "908i", "rates_weakly_equivalent", _same_spectrum
    elif equivalent == HOLDS:
        theorem, hypothesis, same = "908ii", "rates_equivalent", _same_gaps
    else:
        both_fail = weakly_equivalent == FAILS and equivalent == FAILS
        hyps = [_hyp("rates_weakly_equivalent_or_equivalent",
                     FAILS if both_fail else INCONCLUSIVE)]
        return _assemble("908", fixture, names, hyps, lambda: (False, True, ""))

    def conclude():
        rep_mu = _memo(cache, compute_spectrum, system, mu, params)
        rep_om = _memo(cache, compute_spectrum, system, omega, params)
        ok, detail = same(rep_mu, rep_om,
                          params.tol_stab + rep_mu.resolution + rep_om.resolution)
        return ok, ok or (rep_mu.converged and rep_om.converged), detail

    return _assemble(theorem, fixture, names, [_hyp(hypothesis, HOLDS)], conclude)


def _same_spectrum(rep_mu: SpectrumReport, rep_om: SpectrumReport, tol: float):
    """(ok, detail): the two spectra have the same intervals, endpoint by
    endpoint within tol."""
    ok = len(rep_mu.intervals) == len(rep_om.intervals) and all(
        _ends_match(u.lo, v.lo, tol) and _ends_match(u.hi, v.hi, tol)
        for u, v in zip(rep_mu.intervals, rep_om.intervals))
    return ok, f"mu spectrum {_fmt_spectrum(rep_mu)} vs omega spectrum {_fmt_spectrum(rep_om)}"


def _same_gaps(rep_mu: SpectrumReport, rep_om: SpectrumReport, tol: float):
    """(ok, detail): the two spectra have the same gap structure."""
    def infinite_ends(rep):
        return (any(iv.hi == INF for iv in rep.intervals),
                any(iv.lo == -INF for iv in rep.intervals))

    problems = []
    if infinite_ends(rep_mu) != infinite_ends(rep_om):
        problems.append("infinite membership differs")
    if len(rep_mu.gaps) != len(rep_om.gaps):
        problems.append("gap counts differ")
    else:
        for i, (g, h) in enumerate(zip(rep_mu.gaps, rep_om.gaps)):
            if g.rank != h.rank:
                problems.append(f"gap {i} ranks differ ({g.rank} vs {h.rank})")
            if _gap_semiaxis(g, tol) != _gap_semiaxis(h, tol):
                problems.append(f"gap {i} semiaxes differ")
    if problems:
        return False, "; ".join(problems)
    return True, f"{len(rep_mu.gaps)} corresponding gaps, ranks {[g.rank for g in rep_mu.gaps]}"


def _ends_match(x: float, y: float, tol: float) -> bool:
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= tol


# ---------------------------------------------------------------------------
# Harness


def _rate_label(rate_obj) -> str:
    """The first catalog name of the rate in its time domain; otherwise a
    label built from its kind and parameters."""
    for name in catalog.RATE_NAMES:
        if catalog.rate(name, rate_obj.time_domain) == rate_obj:
            return name
    if isinstance(rate_obj, rates.PowerExp):
        return f"power_exp(p={rate_obj.p:g},lambda={rate_obj.lam:g})"
    if isinstance(rate_obj, rates.Glued):
        return f"glued(crossover={rate_obj.crossover:g})"
    return f"expression({rate_obj.log_rate})"


def _memo(cache: dict | None, fn, *args):
    """``fn(*args)``, remembered in the run's cache under ``(fn, *args)`` when
    there is one.  The arguments are the system object, rates, ``Params``
    and chains as tuples, so two calls share a value only when they would
    compute the same one.  A remembered value is shared between callers and
    must only be read."""
    if cache is None:
        return fn(*args)
    key = (fn, *args)
    if key not in cache:
        cache[key] = fn(*args)
    return cache[key]


def run_all(params: Params = DEFAULT) -> list[TheoremReport]:
    """The default verification grid over the catalog and generated fixtures.
    Spectra and the faster, weakly-faster and chain verdicts are computed
    once per function and arguments in one run-wide cache and shared between
    the rows that use them."""
    fixtures = {f.name: f for f in catalog_fixtures()}
    d = DISCRETE
    c = CONTINUOUS
    q_d, exp_d, p_d, c_d = (catalog.rate(n, d) for n in ("q", "exp", "p", "c"))
    q_c, exp_c, p_c, c_c = (catalog.rate(n, c) for n in ("q", "exp", "p", "c"))
    glued_c = catalog.rate("glued_c_p", c)
    pe12_d = rates.PowerExp(1.0, 2.0, d)
    pe13_d = rates.PowerExp(1.0, 3.0, d)

    quot_q_m2 = generate_quotient_system(q_d, [-2.0])
    quot_q_p2 = generate_quotient_system(q_d, [2.0])
    quot_exp_pm = generate_quotient_system(exp_d, [-1.0, 1.0])
    quot_exp_0 = generate_quotient_system(exp_d, [0.0])
    quot_exp_1 = generate_quotient_system(exp_d, [1.0])
    quot_c_1 = generate_quotient_system(c_c, [1.0])

    cache: dict = {}
    reports = []
    for fx, m, w in [
        ("abs2t", q_c, exp_c), ("abs2t", q_c, p_c),
        ("disc_q", q_d, exp_d), ("disc_q", q_d, p_d),
        ("frak_a", c_d, exp_d), ("frak_a", c_d, q_d), ("frak_a", c_d, p_d),
        ("sq3t2", c_c, q_c), ("sq3t2", c_c, exp_c), ("sq3t2", c_c, p_c),
        ("identity", q_d, exp_d),
    ]:
        reports.append(verify_805(fixtures[fx].system, m, w, params, fixture=fx, cache=cache))
    reports.append(verify_805(quot_exp_1.system, q_d, exp_d, params,
                              fixture=quot_exp_1.name, cache=cache))

    for fx, w, m in [
        ("abs2t", q_c, c_c),
        ("disc_q", q_d, c_d),
        ("inv1pt", p_c, q_c), ("inv1pt", p_c, c_c), ("inv1pt", p_c, exp_c),
        ("identity", exp_d, q_d),
        ("sq3t2", c_c, q_c),
    ]:
        reports.append(verify_806(fixtures[fx].system, w, m, params, fixture=fx, cache=cache))

    for fx, mu, omega, kwargs in [
        (quot_q_m2, q_d, exp_d, {"a": 1.0, "variant": "808i"}),
        (quot_q_p2, q_d, exp_d, {"a": 1.0, "variant": "808ii"}),
        (quot_exp_pm, pe12_d, exp_d, {"b": 1.0, "variant": "809i"}),
        (quot_exp_pm, pe12_d, exp_d, {"a": -1.0, "variant": "809ii"}),
        (quot_exp_pm, pe12_d, exp_d, {"a": -1.0, "b": 1.0, "variant": "809iii"}),
        (quot_exp_0, pe12_d, exp_d, {"b": 0.0, "variant": "809i"}),
        (quot_exp_pm, pe12_d, exp_d, {"b": INF, "variant": "809i"}),
    ]:
        reports.append(verify_808_809(fx.system, mu, omega, params=params,
                                      fixture=fx.name, cache=cache, **kwargs))

    disc_chain = [p_d, exp_d, q_d, c_d]
    cont_chain = [p_c, exp_c, q_c, c_c]
    chain_names = ["p", "exp", "q", "c"]
    for fx, chain in [("abs2t", cont_chain), ("inv1pt", cont_chain), ("sq3t2", cont_chain),
                      ("frak_a", disc_chain), ("disc_q", disc_chain), ("identity", disc_chain)]:
        reports.append(verify_811(fixtures[fx].system, chain, params, fixture=fx,
                                  rate_names=chain_names, cache=cache))

    for system, mu, omega, name in [
        (quot_c_1.system, c_c, glued_c, quot_c_1.name),
        (quot_exp_pm.system, exp_d, pe13_d, quot_exp_pm.name),
        (fixtures["abs2t"].system, q_c, q_c, "abs2t"),
    ]:
        reports.append(verify_908(system, mu, omega, params, fixture=name, cache=cache))
    return reports
