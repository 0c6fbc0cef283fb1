import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from muspec import catalog, rates, relations, spectrum, theorems
from muspec.cli import _sanitize
from muspec.params import CONTINUOUS, DISCRETE, SAMPLES_PER_UNIT, Params
from muspec.relations import FAILS, HOLDS, INCONCLUSIVE


P = catalog.rate("p", DISCRETE)
EXP = catalog.rate("exp", DISCRETE)
Q = catalog.rate("q", DISCRETE)
C = catalog.rate("c", DISCRETE)
CATALOG = {"p": P, "exp": EXP, "q": Q, "c": C}


def test_faster_matrix():
    for fast, slow in [(EXP, P), (Q, EXP), (C, Q)]:
        assert relations.check_faster(fast, slow).outcome == HOLDS
        reverse = relations.check_faster(slow, fast)
        assert reverse.outcome == FAILS
        assert reverse.witness, "a failing check carries witness pairs"
        values = [w["value"] for w in reverse.witness]
        assert values == sorted(values) and values[-1] > values[0]


def test_faster_certificate_is_checkable():
    verdict = relations.check_faster(Q, EXP)
    assert verdict.outcome == HOLDS
    envelope = verdict.certificate["sup_envelope"]
    # re-evaluate the defining supremum on the final window for one grid point
    eps = 0.25
    sup = max(
        (k - n) - eps * (abs(k) * k - abs(n) * n)
        for n in range(-400, 401) for k in (n, min(400, n + 13), 400)
    )
    assert sup <= envelope["0.25"] + 1e-9


def test_weak_comparison_power_pairs():
    for theta in (2.0, 3.0):
        mu = rates.PowerExp(1.0, theta, DISCRETE)
        forward = relations.check_weakly_faster(mu, EXP)
        assert forward.outcome == HOLDS
        assert forward.certificate["log_M"] == 0.0
        assert relations.check_weakly_faster(EXP, mu).outcome == FAILS
        assert relations.check_faster(mu, EXP).outcome == FAILS
        assert relations.check_faster(EXP, mu).outcome == FAILS
        cls = relations.classify_pair(mu, EXP)
        assert cls.weakly_equivalent == FAILS
        assert cls.equivalent == HOLDS


def test_weakly_faster_is_reflexive():
    verdict = relations.check_weakly_faster(Q, Q)
    assert verdict.outcome == HOLDS
    assert verdict.certificate["log_M"] == 0.0


def test_almost_comparisons():
    scaled = rates.PowerExp(1.0, 3.0, DISCRETE)
    assert relations.check_almost(scaled, EXP, "faster").outcome == HOLDS
    assert relations.check_almost(EXP, scaled, "faster").outcome == HOLDS
    assert relations.check_almost(scaled, EXP, "slower").outcome == HOLDS
    assert relations.check_almost(Q, EXP, "faster").outcome == HOLDS
    verdict = relations.check_almost(P, C, "faster")
    assert verdict.outcome == FAILS
    assert verdict.witness


def test_almost_comparisons_near_the_rate_bound():
    # log-rate grids up to 8e307, near DBL_MAX / 2, times coefficients up to
    # 4096: 4 L_omega - 8 L_mu is 0 exactly, which an overflowing product
    # (inf - inf) left unresolved, with numpy warnings
    mu = rates.PowerExp(1.0, 1e305, DISCRETE)
    omega = rates.PowerExp(1.0, 2e305, DISCRETE)
    for direction, inner in (("faster", -8.0), ("slower", -2.0 ** -12)):
        verdict = relations.check_almost(mu, omega, direction)
        assert verdict.outcome == HOLDS, verdict.diagnostics
        assert verdict.certificate["witness_exponents"]["outer=-4"] == {"inner": inner, "sup": 0.0}


def test_classification_of_glued_rate():
    glued = catalog.rate("glued_c_p", CONTINUOUS)
    c_cont = catalog.rate("c", CONTINUOUS)
    cls = relations.classify_pair(glued, c_cont)
    assert cls.weakly_equivalent == HOLDS
    assert cls.equivalent == HOLDS
    p_cont = catalog.rate("p", CONTINUOUS)
    cls = relations.classify_pair(p_cont, catalog.rate("exp", CONTINUOUS))
    assert cls.outcome("faster_ba") == HOLDS  # exp is faster than p
    assert cls.below_ab == HOLDS              # hence p sits below exp


def test_chain_order():
    report = relations.chain_check([P, EXP, Q, C])
    assert report.outcome == HOLDS
    assert report.first_failure is None
    report = relations.chain_check([C, Q])
    assert report.outcome == FAILS
    assert report.first_failure == 0
    degenerate = relations.chain_check([EXP, EXP])
    assert degenerate.outcome == HOLDS
    with pytest.raises(relations.RelationError):
        relations.chain_check([EXP])


def test_ratio_necessity_runs_once_per_ordered_pair(monkeypatch):
    scans = []
    argmax = relations._ratio_argmax
    monkeypatch.setattr(relations, "_ratio_argmax", lambda *a: scans.append(a) or argmax(*a))
    relations._ratio_necessity.cache_clear()
    relations.chain_check([P, EXP, Q, C])
    # both directions of each of the 3 links share one scan per window
    assert len(scans) == 3 * len(Params().windows(DISCRETE))
    # p -> exp fails the ratio condition in both directions; the two
    # verdicts carry equal witnesses but never the same objects
    faster = relations.check_almost(P, EXP, "faster")
    slower = relations.check_almost(P, EXP, "slower")
    assert faster.outcome == slower.outcome == FAILS
    assert faster.witness == slower.witness
    assert faster.witness is not slower.witness
    assert all(a is not b for a, b in zip(faster.witness, slower.witness))


def test_ratio_scan_forms_few_ratios_where_the_ratios_peak(monkeypatch):
    """The ratio-necessity scan forms the ratio of every rectangle cell of
    the row blocks of the rows its prune keeps.  On discrete exp over p at
    window 1600 they hold under 1% of the admissible pairs.  The constant
    ratio of exp and power_exp(1, 3) leaves nothing to prune; both grids
    are odd under time reversal, so its blocks hold exactly the admissible
    pairs of the half triangle i + j <= n - 1 (and cells of later rows past
    it): at most 55% of the admissible pairs' cells."""
    formed, half_formed = [], []
    blocks = relations.pair_ratio_blocks

    def counting_blocks(r, *args):
        starts, scan = blocks(r, *args)

        def counted(i0, j0, L, q):
            formed.append(q[0].size)
            i, j = np.nonzero(~np.isnan(L))
            half_formed.append(int((i0 + i + j0 + j <= len(r) - 1).sum()))
            return i0, j0, L, q

        return starts, (counted(*block) for block in scan)

    monkeypatch.setattr(relations, "pair_ratio_blocks", counting_blocks)

    def counts(mu, omega):
        """(cells formed, admissible pairs, admissible pairs of the half)."""
        r_mu, r_om = rates.log_rate_grid(mu, 1600), rates.log_rate_grid(omega, 1600)
        threshold = 0.5 * (r_mu[-1] - r_mu[0])
        starts = spectrum._suffix_starts(r_mu, spectrum.admission_threshold(threshold))
        n, rows = len(r_mu), np.arange(len(r_mu))
        half = int(np.maximum(n - rows - starts, 0).sum())
        assert spectrum._mirrored(r_mu, r_om[None], -r_om[None])
        formed.clear()
        half_formed.clear()
        relations._ratio_argmax(r_mu, r_om, threshold)
        return sum(formed), int((n - starts).sum()), half

    formed_cells, admissible, _ = counts(EXP, P)
    assert formed_cells <= 0.01 * admissible
    formed_cells, admissible, half = counts(EXP, rates.PowerExp(1.0, 3.0, DISCRETE))
    assert sum(half_formed) == half
    assert formed_cells <= 0.55 * admissible


def _live_rows(r_mu, threshold, cut):
    """The rows that hold an admissible pair with i + j < cut."""
    n = len(r_mu)
    starts = spectrum._suffix_starts(r_mu, spectrum.admission_threshold(threshold))
    return np.flatnonzero(starts < np.minimum(n, cut - np.arange(n)))


def test_ratio_prune_keeps_few_rows_of_monotone_ratios(monkeypatch):
    """Each of the 12 ratio-necessity scans of the discrete chain p, exp,
    q, c at windows 200 to 1600 keeps at most 3 rows, among them the row of
    its maximum; the constant ratio of exp and power_exp(1, 3) keeps every
    live row."""
    kept, prune = [], relations._kept_rows

    def recorded(*args):
        kept.append((args, prune(*args)))
        return kept[-1][1]

    monkeypatch.setattr(relations, "_kept_rows", recorded)
    relations._ratio_necessity.cache_clear()
    params = Params(schedule=(200, 400, 800, 1600))
    relations.chain_check([P, EXP, Q, C], params)
    assert len(kept) == 12
    for (r_mu, r_om, threshold, cut), rows in kept:
        assert rows is not None and 1 <= len(rows) <= 3
        assert relations._row_argmax(r_mu, r_om, threshold, cut)[0] in rows
    kept.clear()
    relations._ratio_necessity(EXP, rates.PowerExp(1.0, 3.0, DISCRETE), params)
    assert len(kept) == 4
    for (r_mu, r_om, threshold, cut), rows in kept:
        assert np.array_equal(rows, _live_rows(r_mu, threshold, cut))


@pytest.mark.parametrize("domain, window", [(DISCRETE, 800), (DISCRETE, 1600),
                                            (CONTINUOUS, 200), (CONTINUOUS, 400)])
def test_pruned_scan_finds_the_row_scan_pair_at_production_width(domain, window):
    """On grids of 1601 to 8001 samples, the scan of the rows the prune
    keeps gives the pair of the scan of every row, for every ordered pair
    of catalog rates and the constant ratio of exp and power_exp(1, 3)."""
    names = catalog.RATE_NAMES
    pairs = [(catalog.rate(mu, domain), catalog.rate(omega, domain))
             for mu, omega in itertools.permutations(names, 2)]
    pairs.append((catalog.rate("exp", domain), rates.PowerExp(1.0, 3.0, domain)))
    per_unit = 1 if domain == DISCRETE else SAMPLES_PER_UNIT
    for mu, omega in pairs:
        r_mu, r_om = (rates.log_rate_grid(rate, window, per_unit) for rate in (mu, omega))
        threshold = spectrum.admission_threshold(Params().cutoff_fraction * (r_mu[-1] - r_mu[0]))
        n = len(r_mu)
        cut = n if spectrum._mirrored(r_mu, r_om[None], -r_om[None]) else 2 * n
        rows = relations._kept_rows(r_mu, r_om, threshold, cut)
        assert rows is not None and set(rows) <= set(_live_rows(r_mu, threshold, cut))
        assert (relations._row_argmax(r_mu, r_om, threshold, cut, rows)
                == relations._row_argmax(r_mu, r_om, threshold, cut)), (mu, omega)


def test_affine_prefilter_runs_once_per_ordered_pair():
    relations._affine_prefilter.cache_clear()
    theorems.run_all()
    # the almost-checks of one run ask for it 16 times, on 8 distinct
    # ordered (mu, omega, params)
    info = relations._affine_prefilter.cache_info()
    assert (info.misses, info.hits + info.misses) == (8, 16)


_POWER_EXP = st.tuples(st.floats(0.25, 3.0), st.floats(0.25, 4.0))


@given(st.sampled_from([DISCRETE, CONTINUOUS]), _POWER_EXP, _POWER_EXP, st.booleans())
@settings(max_examples=64, deadline=None, derandomize=True)
def test_affine_prefilter_does_not_depend_on_the_slope_order(domain, a, b, short):
    """The top-down search with its early stop gives the answer of the rule
    applied to every slope: "holds" if any slope holds, else "inconclusive"
    if any slope is inconclusive, else "fails"."""
    params = Params(schedule=(10, 20, 40) if domain == DISCRETE else (2, 4, 8)) if short else Params()
    mu, omega = rates.PowerExp(*a, domain), rates.PowerExp(*b, domain)
    for x, y in ((mu, omega), (omega, mu)):
        outcomes = {relations._bounded_outcome(x, y, c, 1.0, params)[0]
                    for c in relations.PREFILTER_SLOPES}
        expected = (HOLDS if HOLDS in outcomes
                    else INCONCLUSIVE if INCONCLUSIVE in outcomes else FAILS)
        assert relations._affine_prefilter(x, y, params) == expected


_SCHEDULES = {DISCRETE: (10, 20, 40, 80, 160), CONTINUOUS: (2, 4, 8, 16)}


@given(st.sampled_from([DISCRETE, CONTINUOUS]), _POWER_EXP, _POWER_EXP,
       st.sampled_from(relations.OUTER_EXPONENTS), st.sampled_from(["faster", "slower"]),
       st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_bounded_outcome_reads_holds_from_the_last_two_windows(domain, a, b, outer, direction,
                                                               data):
    """The bounded almost-check scans the last two windows first: its
    outcome and supremum are those of scanning every window, a "holds"
    scans exactly those two windows, and any other outcome scans every
    window once, with the pairs of every window."""
    inner = data.draw(st.sampled_from(relations.INNER_LARGE if direction == "faster"
                                      else relations.INNER_SMALL))
    coef_mu, coef_omega = (-inner, -outer) if direction == "faster" else (-outer, -inner)
    windows = data.draw(st.lists(st.sampled_from(_SCHEDULES[domain]), min_size=1, max_size=4,
                                 unique=True))
    params = Params(schedule=tuple(sorted(windows)))
    mu, omega = rates.PowerExp(*a, domain), rates.PowerExp(*b, domain)
    sups, pairs = [], []
    for ts, r_mu, r_om in relations._window_grids(mu, omega, params):
        value, i, j = relations._max_rise(coef_omega * r_om - coef_mu * r_mu)
        sups.append(value)
        pairs.append({"n": float(ts[i]), "k": float(ts[j]), "value": value})
    want = relations._sequence_outcome(sups, params.tol_stab)
    scans = []
    max_rise = relations._max_rise
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relations, "_max_rise", lambda u: scans.append(len(u)) or max_rise(u))
        outcome, sup, got_pairs = relations._bounded_outcome(mu, omega, coef_mu, coef_omega,
                                                             params)
    assert outcome == want and repr(sup) == repr(sups[-1])
    if outcome == HOLDS:
        assert len(scans) == 2 and got_pairs == pairs[-2:]
    else:
        assert sorted(scans) == sorted(len(ts) for ts, _, _ in
                                       relations._window_grids(mu, omega, params))
        assert got_pairs == pairs


def test_forward_backward_formulations_agree():
    for a, b in itertools.permutations(CATALOG.values(), 2):
        fwd = relations.check_faster(a, b, formulation="forward")
        bwd = relations.check_faster(a, b, formulation="backward")
        assert fwd.outcome == bwd.outcome
        if fwd.outcome == HOLDS:
            for key, val in fwd.certificate["sup_envelope"].items():
                assert val == pytest.approx(bwd.certificate["sup_envelope"][key], abs=1e-9)


def _faster_rows(mu, omega, params, formulation):
    """The per-eps suprema and attaining pairs of check_faster with each eps
    scanned on its own, by ``_max_rise`` (forward) or ``_max_fall``
    (backward) on every window's grids."""
    rows = []
    for eps in relations.EPS_GRID:
        sups, pairs = [], []
        for ts, r_mu, r_om in relations._window_grids(mu, omega, params):
            if formulation == "forward":
                value, i, j = relations._max_rise(r_om - eps * r_mu)
            else:
                value, i, j = relations._max_fall(eps * r_mu - r_om)
            sups.append(value)
            pairs.append({"n": float(ts[i]), "k": float(ts[j]), "value": value})
        rows.append((sups, pairs))
    return rows


def _faster_rates(domain, top):
    """Growth rates, among them power rates whose log mu reaches up to 0.99
    DBL_MAX / 2 at time ``top``."""
    return st.one_of(
        st.sampled_from(catalog.RATE_NAMES).map(lambda name: catalog.rate(name, domain)),
        st.builds(lambda p, lam: rates.PowerExp(p, lam, domain),
                  st.floats(0.25, 3.0), st.floats(0.25, 4.0)),
        st.builds(lambda p, share: rates.PowerExp(p, share * rates.MAX_LOG_RATE / top ** p,
                                                  domain),
                  st.floats(0.5, 3.0), st.floats(0.25, 0.99)))


@given(st.sampled_from([(DISCRETE, (50, 100, 200, 400)), (DISCRETE, (3, 7, 30)),
                        (CONTINUOUS, (5, 10, 20, 40)), (CONTINUOUS, (2, 3, 8))]),
       st.sampled_from(["forward", "backward"]), st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_faster_scans_the_eps_grid_at_once(case, formulation, data):
    """check_faster reads each window's grids once for the whole eps grid,
    and its suprema and attaining pairs are bitwise those of every eps
    scanned on its own, also on grids near DBL_MAX / 2."""
    domain, schedule = case
    mu, omega = (data.draw(_faster_rates(domain, max(schedule))) for _ in range(2))
    params = Params(schedule=schedule)
    seen, reads = [], []
    window_sups, window_grids = relations._window_sups, relations._window_grids
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relations, "_window_sups", lambda *a: seen.append(window_sups(*a)) or seen[-1])
        patch.setattr(relations, "_window_grids", lambda *a: reads.append(a) or window_grids(*a))
        verdict = relations.check_faster(mu, omega, params, formulation)
    assert len(seen) == len(reads) == 1
    want = _faster_rows(mu, omega, params, formulation)
    assert repr(seen[0]) == repr(want)
    for eps, (sups, _) in zip(relations.EPS_GRID, want):
        assert repr(verdict.diagnostics[f"eps={eps:g}"]) == repr(sups)
    failing = [pairs for sups, pairs in want
               if relations._sequence_outcome(sups, params.tol_stab) == FAILS]
    assert verdict.witness == (failing[0] if failing else None)


_TIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, rates.MAX_LOG_RATE, -rates.MAX_LOG_RATE])


@given(st.integers(1, 6), st.integers(1, 30), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_stacked_rises_are_each_rows_own(k, n, data):
    """The rows of ``_max_rises`` are bitwise each row's ``_max_rise``, ties
    and signed zeros included: the first maximum and the first minimum."""
    u = np.array(data.draw(st.lists(st.lists(_TIES, min_size=n, max_size=n),
                                    min_size=k, max_size=k)))
    assert repr(relations._max_rises(u)) == repr([relations._max_rise(row) for row in u])


def _implication_grid():
    grid = [rates.PowerExp(p, lam, DISCRETE)
            for p in (1.0, 2.0, 3.0) for lam in (0.5, 1.0, 2.0)]
    grid.append(P)
    return grid


def test_faster_implies_weakly_implies_almost():
    grid = _implication_grid()
    for a, b in itertools.permutations(grid, 2):
        fast = relations.check_faster(a, b).outcome
        weak = relations.check_weakly_faster(a, b).outcome
        almost = relations.check_almost(a, b, "faster").outcome
        if fast == HOLDS:
            assert weak == HOLDS
        if weak == HOLDS:
            assert almost == HOLDS


def test_transport_of_faster_along_almost_slower():
    names = list(CATALOG.values())
    for omega, mu1, mu2 in itertools.permutations(names, 3):
        if relations.check_faster(mu1, omega).outcome != HOLDS:
            continue
        if relations.check_almost(mu2, mu1, "slower").outcome != HOLDS:
            continue
        assert relations.check_faster(mu2, omega).outcome == HOLDS


def test_equivalent_rates_have_identical_faster_families():
    pairs = [
        (EXP, rates.PowerExp(1.0, 3.0, DISCRETE)),
        (Q, rates.PowerExp(2.0, 0.5, DISCRETE)),
    ]
    for mu1, mu2 in pairs:
        assert relations.classify_pair(mu1, mu2).equivalent == HOLDS
        for omega in CATALOG.values():
            assert (relations.check_faster(omega, mu1).outcome
                    == relations.check_faster(omega, mu2).outcome)
            assert (relations.check_faster(mu1, omega).outcome
                    == relations.check_faster(mu2, omega).outcome)


def test_equivalences_are_equivalence_relations():
    family = [P, EXP, Q, C,
              rates.PowerExp(1.0, 3.0, DISCRETE),
              rates.PowerExp(2.0, 0.5, DISCRETE)]
    weak = {}
    equiv = {}
    for i, a in enumerate(family):
        for j, b in enumerate(family):
            cls = relations.classify_pair(a, b)
            weak[i, j] = cls.weakly_equivalent == HOLDS
            equiv[i, j] = cls.equivalent == HOLDS
    n = len(family)
    for rel in (weak, equiv):
        for i in range(n):
            assert rel[i, i]
            for j in range(n):
                assert rel[i, j] == rel[j, i]
                for k in range(n):
                    if rel[i, j] and rel[j, k]:
                        assert rel[i, k]


def test_numeric_agrees_with_symbolic_table():
    family = [rates.PowerExp(p, lam, DISCRETE)
              for p in (1.0, 2.0, 3.0) for lam in (0.5, 1.0, 2.0, 3.0)]
    family.append(P)
    for i, a in enumerate(family):
        for b in family[i:]:
            profile = rates.symbolic_compare(a, b)
            cls = relations.classify_pair(a, b, use_symbolic=False)
            observed = {
                "faster_ab": cls.outcome("faster_ab"),
                "faster_ba": cls.outcome("faster_ba"),
                "weakly_ab": cls.outcome("weakly_ab"),
                "weakly_ba": cls.outcome("weakly_ba"),
                "almost_faster_ab": cls.outcome("almost_faster_ab"),
                "almost_faster_ba": cls.outcome("almost_faster_ba"),
                "almost_slower_ab": cls.outcome("almost_slower_ab"),
                "almost_slower_ba": cls.outcome("almost_slower_ba"),
            }
            expected = {
                "faster_ab": profile.faster_ab,
                "faster_ba": profile.faster_ba,
                "weakly_ab": profile.weakly_ab,
                "weakly_ba": profile.weakly_ba,
                "almost_faster_ab": profile.almost_faster_ab,
                "almost_faster_ba": profile.almost_faster_ba,
                "almost_slower_ab": profile.almost_slower_ab,
                "almost_slower_ba": profile.almost_slower_ba,
            }
            for key, sym in expected.items():
                assert observed[key] == (HOLDS if sym else FAILS), (
                    f"{key} disagrees for {a} vs {b}")


def test_domain_mismatch_rejected():
    with pytest.raises(relations.RelationError):
        relations.check_faster(Q, catalog.rate("q", CONTINUOUS))


def test_verdict_serialization():
    verdict = relations.check_faster(EXP, Q)
    payload = verdict.to_dict()
    assert payload["relation"] == "faster"
    assert payload["direction"] == "mu_over_omega"
    assert payload["outcome"] == FAILS
    assert all({"n", "k", "value"} <= set(w) for w in payload["witness"])


# ---------------------------------------------------------------------------
# Relations read slices of the schedule's largest grid


def _per_window_grids(mu, omega, params):
    """The reference: every window's sample times and log-rate grids built
    on their own."""
    for n in params.windows(mu.time_domain):
        yield (rates.sample_times(mu.time_domain, n), rates.log_rate_grid(mu, n, 1),
               rates.log_rate_grid(omega, n, 1))


def _every_check(mu, omega, params):
    """The to_dict of every relation check of (mu, omega), or the message
    of the error a check raises, with the per-pair caches cleared first."""
    relations._ratio_necessity.cache_clear()
    relations._affine_prefilter.cache_clear()
    checks = [lambda: relations.check_faster(mu, omega, params, "forward"),
              lambda: relations.check_faster(mu, omega, params, "backward"),
              lambda: relations.check_weakly_faster(mu, omega, params),
              lambda: relations.check_almost(mu, omega, "faster", params),
              lambda: relations.check_almost(mu, omega, "slower", params),
              lambda: relations.chain_check([mu, omega], params)]
    out = []
    for check in checks:
        try:
            out.append(check().to_dict())
        except (rates.RateError, relations.RelationError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


_DISCRETE_RATE = st.one_of(
    st.builds(lambda p, lam: rates.PowerExp(p, lam, DISCRETE),
              st.floats(0.25, 3.0), st.floats(0.25, 4.0)),
    st.just(rates.Polynomial(DISCRETE)),
    st.sampled_from(catalog.RATE_NAMES).map(lambda name: catalog.rate(name, DISCRETE)))
_SCHEDULE = st.one_of(
    st.integers(2, 25).map(lambda n: (n, 2 * n, 4 * n, 8 * n)),
    st.sets(st.integers(1, 150), min_size=2, max_size=5).map(sorted).map(tuple),
    st.integers(1, 150).map(lambda n: (n,)))


@given(_DISCRETE_RATE, _DISCRETE_RATE, _SCHEDULE)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_discrete_checks_match_per_window_grids(mu, omega, schedule):
    params = Params(schedule=schedule)
    sliced = _every_check(mu, omega, params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relations, "_window_grids", _per_window_grids)
        assert sliced == _every_check(mu, omega, params)


def test_discrete_checks_raise_the_first_window_error():
    # mu decreases only before t = -70, outside the smaller window; omega
    # decreases from t = -50 on: the error is omega's on the smaller window
    mu = rates.ExpressionRate("k + 2*max(0, -k-70)", DISCRETE)
    omega = rates.ExpressionRate("k + 2*max(0, -k-30)", DISCRETE)
    with pytest.raises(rates.RateError, match="from t=-100 to t=-99"):
        rates.log_rate_grid(mu, 100)
    with pytest.raises(rates.RateError, match="from t=-50 to t=-49"):
        relations.check_weakly_faster(mu, omega, Params(schedule=(50, 100)))


def test_discrete_checks_read_the_schedule_grids_raise():
    # log mu falls by 4e-13 at t = -50, within the slack: the grid at 100
    # raises it to -50, the first sample of the grid at 50 keeps it
    dip = rates.ExpressionRate("max(k, -50) - 4e-13*max(0, 1 - abs(k + 50))", DISCRETE)
    params = Params(schedule=(50, 100))
    assert rates.log_rate_grid(dip, 50)[0] < -50.0 == rates.log_rate_grid(dip, 100)[50]
    verdict = relations.check_weakly_faster(EXP, dip, params)
    assert verdict.diagnostics["drawdown"] == [0.0, 0.0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relations, "_window_grids", _per_window_grids)
        drawdown = relations.check_weakly_faster(EXP, dip, params).diagnostics["drawdown"]
    assert 0.0 < drawdown[0] <= rates._TOL and drawdown[1] == 0.0


def test_chain_shares_the_spectrum_rate_grids():
    params = Params(schedule=(200, 400, 800, 1600))
    rates.log_rate_grid.cache_clear()
    identity = catalog.system("identity")
    for rate in (EXP, Q, C):
        spectrum.compute_spectrum(identity, rate, params)
    misses = rates.log_rate_grid.cache_info().misses
    relations.chain_check([P, EXP, Q, C], params)
    # the one grid no spectrum read: p's at 1600
    assert rates.log_rate_grid.cache_info().misses == misses + 1


def _linspace_grids(mu, omega, params):
    """The continuous reference: each window's grids on their own
    ``np.linspace(-n, n, 20n + 1)``, raised to their running maximum."""
    for n in params.windows(CONTINUOUS):
        ts = np.linspace(-n, n, 2 * n * SAMPLES_PER_UNIT + 1)
        yield ts, *(np.maximum.accumulate(rates.log_rate_values(r, ts)) for r in (mu, omega))


_CONTINUOUS_RATES = ([rates.PowerExp(p, 1.0, CONTINUOUS) for p in (0.5, 1, 1.5, 2, 2.3, 2.4, 3, 4)]
                     + [catalog.rate("p", CONTINUOUS),
                        rates.ExpressionRate("sgn(t)*log(1+abs(t))^2", CONTINUOUS)])


def test_continuous_checks_match_per_window_linspace_grids():
    # the lattice j / 10 and the slices' raise move full floats in their
    # last digits only: every report is equal at the CLI's 12 digits
    params = Params()
    for mu, omega in itertools.permutations(_CONTINUOUS_RATES, 2):
        sliced = _every_check(mu, omega, params)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(relations, "_window_grids", _linspace_grids)
            assert _sanitize(sliced) == _sanitize(_every_check(mu, omega, params))


def test_continuous_chain_builds_one_rate_grid_per_rate():
    rates.log_rate_grid.cache_clear()
    relations.chain_check([catalog.rate(name, CONTINUOUS) for name in ("p", "exp", "q", "c")])
    assert rates.log_rate_grid.cache_info().misses == 4


def test_continuous_checks_raise_the_first_window_error():
    # mu decreases only before t = -15, omega only after t = 15: both fail
    # first at window 20, where mu's error comes first; the grid at 40
    # names other times
    mu = rates.ExpressionRate("t + 2*max(0, -t-15)", CONTINUOUS)
    omega = rates.ExpressionRate("t - 2*max(0, t-15)", CONTINUOUS)
    rates.log_rate_grid(mu, 10, SAMPLES_PER_UNIT)
    with pytest.raises(rates.RateError, match="from t=-40 to t=-39.9 "):
        rates.log_rate_grid(mu, 40, SAMPLES_PER_UNIT)
    with pytest.raises(rates.RateError, match="from t=-20 to t=-19.9 "):
        relations.check_weakly_faster(mu, omega)
    with pytest.raises(rates.RateError, match="from t=15 to t=15.1 "):
        relations.check_weakly_faster(omega, mu)
