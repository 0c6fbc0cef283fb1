import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from muspec import catalog, evolution, rates, relations, spectrum
from muspec.params import CONTINUOUS, DISCRETE, Params


INF = math.inf

P = catalog.rate("p", DISCRETE)
EXP = catalog.rate("exp", DISCRETE)
Q = catalog.rate("q", DISCRETE)
C = catalog.rate("c", DISCRETE)
DISC_Q = catalog.system("disc_q")
FRAK_A = catalog.system("frak_a")
IDENTITY = catalog.system("identity")


def _intervals(report):
    return [(iv.lo, iv.hi) for iv in report.intervals]


def test_disc_q_under_its_own_rate():
    est = spectrum.bohl_exponents(DISC_Q, Q)
    assert est.lower == pytest.approx(1.0, abs=1e-12)
    assert est.upper == pytest.approx(1.0, abs=1e-12)
    assert est.converged and not est.diverged_upper
    assert est.pairs_used > 0
    assert len(est.per_window) == 4


def test_disc_q_under_exponential_diverges():
    est = spectrum.bohl_exponents(DISC_Q, EXP)
    assert est.diverged_upper and est.diverged_lower
    assert est.lower == INF and est.upper == INF
    rep = spectrum.compute_spectrum(DISC_Q, EXP)
    assert _intervals(rep) == [(INF, INF)]
    assert rep.gaps[0].rank == 0


def test_identity_spectrum_is_zero_under_every_rate():
    for rate in (P, EXP, Q, C):
        rep = spectrum.compute_spectrum(IDENTITY, rate)
        assert _intervals(rep) == [(0.0, 0.0)]
        assert rep.converged


def test_frak_a_spectra():
    rep_c = spectrum.compute_spectrum(FRAK_A, C)
    assert rep_c.intervals[0].lo == pytest.approx(-1.0, abs=1e-9)
    assert rep_c.intervals[0].hi == pytest.approx(-1.0, abs=1e-9)
    assert rep_c.converged
    rep_e = spectrum.compute_spectrum(FRAK_A, EXP)
    assert _intervals(rep_e) == [(-INF, -INF)]
    est = rep_e.component_estimates[0]
    assert est.diverged_upper and est.diverged_lower
    # the single gap carries the full-rank projector
    assert rep_e.gaps[0].rank == 1


@pytest.mark.parametrize("nu_name", ["p", "exp", "q", "c"])
@pytest.mark.parametrize("slope", [-2.0, -1.0, 1.0, 2.0])
def test_pure_quotient_fixtures(nu_name, slope):
    nu = catalog.rate(nu_name, DISCRETE)
    system = evolution.quotient_system(nu, [slope])
    rep = spectrum.compute_spectrum(system, nu)
    assert rep.intervals[0].lo == pytest.approx(slope, abs=0.02)
    assert rep.intervals[0].hi == pytest.approx(slope, abs=0.02)
    assert rep.converged


def test_diagonal_gap_structure():
    system = evolution.quotient_system(EXP, [1.0, 3.0])
    rep = spectrum.compute_spectrum(system, EXP)
    assert _intervals(rep) == [(1.0, 1.0), (3.0, 3.0)]
    gaps = [(g.lo, g.hi, g.rank) for g in rep.gaps]
    assert gaps == [(-INF, 1.0, 0), (1.0, 3.0, 1), (3.0, INF, 2)]
    assert rep.gaps[1].pattern == (1, 0)


def test_nearby_components_merge():
    system = evolution.quotient_system(EXP, [1.0, 1.1])
    rep = spectrum.compute_spectrum(system, EXP)
    assert len(rep.intervals) == 1
    assert rep.intervals[0].lo == pytest.approx(1.0, abs=1e-9)
    assert rep.intervals[0].hi == pytest.approx(1.1, abs=1e-9)
    assert [g.rank for g in rep.gaps] == [0, 2]


def test_mixed_finite_and_divergent_components():
    grow = evolution.diagonal_system(DISCRETE, ["exp(abs(2*k+1))", "exp(1)"])
    rep = spectrum.compute_spectrum(grow, EXP)
    assert _intervals(rep) == [(1.0, 1.0), (INF, INF)]
    assert [(g.lo, g.hi, g.rank) for g in rep.gaps] == [(-INF, 1.0, 0), (1.0, INF, 1)]
    decay = evolution.diagonal_system(DISCRETE, ["exp(-3*k^2-3*k-1)", "exp(1)"])
    rep = spectrum.compute_spectrum(decay, EXP)
    assert _intervals(rep) == [(-INF, -INF), (1.0, 1.0)]
    assert [(g.lo, g.hi, g.rank) for g in rep.gaps] == [(-INF, 1.0, 1), (1.0, INF, 2)]
    both = evolution.diagonal_system(DISCRETE, ["exp(-3*k^2-3*k-1)", "exp(abs(2*k+1))"])
    rep = spectrum.compute_spectrum(both, EXP)
    assert _intervals(rep) == [(-INF, -INF), (INF, INF)]
    assert [(g.lo, g.hi, g.rank) for g in rep.gaps] == [(-INF, INF, 1)]


@pytest.mark.parametrize("gamma0", [-1.5, 0.75])
def test_weighting_translates_the_spectrum(gamma0):
    system = evolution.quotient_system(EXP, [-1.0, 2.0])
    base = spectrum.compute_spectrum(system, EXP)
    shifted = spectrum.compute_spectrum(
        evolution.WeightedSystem(system, EXP, gamma0), EXP)
    for iv_base, iv_shift in zip(base.intervals, shifted.intervals):
        assert iv_shift.lo == pytest.approx(iv_base.lo - gamma0, abs=1e-9)
        assert iv_shift.hi == pytest.approx(iv_base.hi - gamma0, abs=1e-9)


def test_gap_ranks_increase_left_to_right():
    for slopes in [(-2.0, 0.5, 2.0), (-1.0, 1.0), (0.5, 1.0, 1.5, 2.5)]:
        system = evolution.quotient_system(EXP, slopes)
        rep = spectrum.compute_spectrum(system, EXP)
        ranks = [g.rank for g in rep.gaps]
        assert ranks == sorted(ranks)
        assert ranks[0] == 0 and ranks[-1] == len(slopes)


def test_dichotomy_verdicts():
    verdict = spectrum.has_mu_dichotomy(FRAK_A, C)
    assert verdict.holds is True and verdict.rank == 1
    assert spectrum.has_mu_dichotomy(IDENTITY, EXP).holds is False
    # spectrum {+inf}: every weight admits a dichotomy with the zero projector
    verdict = spectrum.has_mu_dichotomy(DISC_Q, EXP)
    assert verdict.holds is True and verdict.rank == 0
    verdict = spectrum.has_mu_dichotomy(DISC_Q, Q)
    assert verdict.holds is True and verdict.rank == 0


def test_growth_verdicts():
    assert spectrum.has_mu_growth(DISC_Q, Q).status == "holds"
    assert spectrum.has_mu_growth(DISC_Q, Q).bound == pytest.approx(1.02)
    assert spectrum.has_mu_growth(DISC_Q, EXP).status == "fails"
    assert spectrum.has_mu_growth(FRAK_A, EXP).status == "fails"
    assert spectrum.has_mu_growth(IDENTITY, P).status == "holds"


def test_continuous_catalog_spot_checks():
    abs2t = catalog.system("abs2t")
    q_c = catalog.rate("q", CONTINUOUS)
    rep = spectrum.compute_spectrum(abs2t, q_c)
    assert rep.intervals[0].lo == pytest.approx(1.0, abs=1e-9)
    assert rep.converged
    c_c = catalog.rate("c", CONTINUOUS)
    verdict = spectrum.has_mu_dichotomy(abs2t, c_c)
    assert verdict.holds is None  # zero is within the estimator resolution
    growth = spectrum.has_mu_growth(abs2t, q_c)
    assert growth.status == "holds" and growth.bound == pytest.approx(1.02, abs=1e-6)


def _disguised_diagonal():
    """A constant full table on -60..60: diag(e, 1/e) in a rotated basis."""
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    a = rot @ np.diag([math.e, math.exp(-1.0)]) @ rot.T
    return evolution.tabulated_system(-60, np.tile(a, (121, 1, 1)))


def test_enclosure_contains_disguised_diagonal():
    system = _disguised_diagonal()
    params = Params(schedule=(15, 25, 40, 55))
    rep = spectrum.compute_spectrum(system, EXP, params)
    assert rep.mode == "enclosure"
    assert all(g.rank is None for g in rep.gaps)
    exact = spectrum.compute_spectrum(
        evolution.quotient_system(EXP, [-1.0, 1.0]), EXP, params)
    lo_enc, hi_enc = rep.intervals[0].lo, rep.intervals[-1].hi
    assert lo_enc <= exact.intervals[0].lo + 1e-9
    assert hi_enc >= exact.intervals[-1].hi - 1e-9


def test_flat_rate_has_no_admissible_pairs():
    flat = rates.ExpressionRate("0*t", DISCRETE)
    with pytest.raises(spectrum.SpectrumError, match="flat"):
        spectrum.bohl_exponents(DISC_Q, flat)


def test_domain_mismatch_rejected():
    with pytest.raises(spectrum.SpectrumError, match="discrete"):
        spectrum.compute_spectrum(DISC_Q, catalog.rate("q", CONTINUOUS))


def test_report_serialization():
    rep = spectrum.compute_spectrum(FRAK_A, EXP)
    payload = rep.to_dict()
    assert payload["intervals"] == [{"lo": "-inf", "hi": "-inf"}]
    assert payload["mode"] == "exact"
    assert payload["converged"] is True
    assert payload["gaps"][0]["lo"] == "-inf" and payload["gaps"][0]["hi"] == "+inf"
    assert payload["windows"] == [50.0, 100.0, 200.0, 400.0]
    assert len(payload["traces"]) == 4
    assert {"window", "component", "lambda_lower", "lambda_upper"} <= set(payload["traces"][0])


def test_unpinned_schedule_extends_until_converged():
    # x' = x/(1+|t|) under exp: both statistics fall like log(T)/T and only
    # stabilize on the 320 -> 640 doubling
    inv1pt = catalog.system("inv1pt")
    exp_c = catalog.rate("exp", CONTINUOUS)
    rep = spectrum.compute_spectrum(inv1pt, exp_c)
    assert rep.converged
    assert rep.windows == (5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0)
    assert [t["window"] for t in rep.to_dict()["traces"]] == list(rep.windows)
    assert 0.0 < rep.intervals[0].lo <= rep.intervals[0].hi < 0.05
    # bohl_exponents follows the same rule
    assert spectrum.bohl_exponents(inv1pt, exp_c) == rep.component_estimates[0]
    # a pinned schedule is used as is
    pinned = spectrum.compute_spectrum(inv1pt, exp_c, Params(schedule=(5, 10, 20, 40)))
    assert not pinned.converged
    assert pinned.windows == (5.0, 10.0, 20.0, 40.0)


def test_extension_of_tabulated_system_stops_at_table_range():
    # log a_k = 1 for |k| >= 300, else 0: under exp the upper statistic is 0
    # up to window 200, then 101/400 at 400 (from -400 to 0) and 501/800 at
    # 800, so it never stabilizes; the extension may only use windows the
    # table covers
    def table(half):
        ks = np.arange(-half, half + 1)
        logs = np.where(np.abs(ks) >= 300, 1.0, 0.0)
        return evolution.tabulated_system(-half, np.exp(logs)[:, None, None],
                                          structure=evolution.SCALAR)
    rep = spectrum.compute_spectrum(table(500), EXP)
    assert not rep.converged
    assert rep.windows == (50.0, 100.0, 200.0, 400.0)
    assert rep.intervals[0].hi == pytest.approx(101 / 400)
    rep = spectrum.compute_spectrum(table(1000), EXP)
    assert not rep.converged
    assert rep.windows == (50.0, 100.0, 200.0, 400.0, 800.0)
    assert rep.intervals[0].hi == pytest.approx(501 / 800)


def test_series_on_one_rate_grid_share_a_pair_scan(monkeypatch):
    calls = []
    stats = spectrum._pair_ratio_stats
    monkeypatch.setattr(spectrum, "_pair_ratio_stats",
                        lambda *args: calls.append(args) or stats(*args))
    # a 3-component diagonal system: one scan per window for all components
    params = Params(schedule=(200, 400, 800, 1600))
    system = evolution.diagonal_system(
        DISCRETE, [f"exp(({s})*abs(2*k+1))" for s in (-1.25, 0.3, 1.5)])
    rep = spectrum.compute_spectrum(system, Q, params)
    assert len(calls) == 4
    # each estimate, pairs_used included, is the one its own scan gives
    for comp, est in enumerate(rep.component_estimates):
        assert est == spectrum.bohl_exponents(system, Q, params, component=comp)
    assert rep.component_estimates[0].pairs_used > 0
    # the enclosure scans its upper and its lower series together
    calls.clear()
    params = Params(schedule=(15, 25, 40, 55))
    full = _disguised_diagonal()
    est = spectrum.compute_spectrum(full, EXP, params).component_estimates[0]
    assert len(calls) == 4
    times, fwd, bwd = evolution.scaled_grids(full, 55)
    log_fwd, log_bwd = evolution.log_sigma_max(fwd), evolution.log_sigma_max(bwd)
    r_full = rates.log_rate_grid(EXP, 55)
    for window, lo, hi in est.per_window:
        sl = spectrum._window_slice(times, int(window))
        _, want_hi, pairs = stats(r_full[sl], log_fwd[sl][None], log_bwd[sl][None], 0.5)
        want_lo, _, _ = stats(r_full[sl], -log_bwd[sl][None], -log_fwd[sl][None], 0.5)
        assert _same(lo, want_lo[0]) and _same(hi, want_hi[0])
    assert est.pairs_used == pairs


# ---------------------------------------------------------------------------
# The admissible-pair primitive against a plain all-pairs scan


def _all_pairs(r, head, tail, threshold):
    """(i, j, ratio) of every admissible pair i < j, in np.triu_indices
    order, with the mask and the division of pair_ratio_blocks."""
    i, j = np.triu_indices(len(r), 1)
    L = r[j] - r[i]
    keep = (L >= threshold) & (L > 0)
    with np.errstate(invalid="ignore"):  # inf + -inf among the drawn values
        return i[keep], j[keep], (head[j] + tail[i])[keep] / L[keep]


def _same(x, y):
    """Bitwise equal floats; any NaN equals any NaN (its sign bit depends on
    the order numpy reduces in)."""
    return (math.isnan(x) and math.isnan(y)) or np.float64(x).tobytes() == np.float64(y).tobytes()


# log-rate grids: plateaus, steps that make pair distances tie with the
# threshold, and drops within the 1e-12 that log_rate_grid lets through;
# dyadic steps (2^-40 is 9.1e-13) keep most differences exact, so the ties
# are exact; head and tail values tie too, and hold NaN and +-inf
_D = 2.0 ** -40
_steps = st.sampled_from([0.0, 0.5, 1.0, 2.0, 0.3, 1.7, _D, -_D, -_D, -_D / 2])
_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -2.7, 4.2, math.nan, INF, -INF])
_cutoffs = st.one_of(st.sampled_from([0.25, 0.5, 0.75]), st.floats(1e-9, 0.05),
                     st.floats(0.95, 1.0 - 1e-9))


@st.composite
def _pair_inputs(draw):
    """(r, heads, tails, cutoff) with 1 to 3 head/tail series of shape
    (K, len(r)); the cutoff is near 0, near 1, or puts the threshold at the
    distance of a drawn pair, where ties decide."""
    n = draw(st.integers(2, 24))
    start = draw(st.sampled_from([0.0, -3.0, 0.1]))
    r = start + np.concatenate([[0.0], np.cumsum(draw(st.lists(_steps, min_size=n - 1,
                                                                 max_size=n - 1)))])
    k = draw(st.integers(1, 3))
    series = st.lists(st.lists(_values, min_size=n, max_size=n), min_size=k, max_size=k)
    heads, tails = np.array(draw(series)), np.array(draw(series))
    a, b = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    l_max = r[-1] - r[0]
    tie = (r[b] - r[a]) / l_max if l_max > 0 else 0.5
    return r, heads, tails, tie if draw(st.booleans()) else draw(_cutoffs)


def _zeros(n):
    return np.zeros((1, n)), np.zeros((1, n))


@given(_pair_inputs(), st.sampled_from([1, 3, 16, 64, 1 << 14]))
@settings(max_examples=300, deadline=None)
# a block of rows 0 and 1 must start at column 2, which row 1 admits (the
# scan would miss it starting from r[0] instead of the suffix minimum, or
# one column before searchsorted(r, r[0] + threshold))
@example((np.array([0.0, -_D, 1.0 - _D, 2.0 - _D]), *_zeros(4), 0.5), 1 << 14)
@example((np.array([0.0, -_D, 1.0 - _D, 1.0 - _D, 2.0 - _D]), *_zeros(5), 0.5), 1 << 14)
# one block whose rectangle (rows 0-3, columns 1-4) holds L = 0 (plateaus,
# the diagonal), L = -_D (pair 2, 3) and L = _D >= threshold on the pairs
# (3, 1) and (3, 2), which are not later pairs: with head[1] = 4.2 the
# ratio of (3, 1) is 4.6e12, far above the true maximum 4.2; every
# admissible ratio of the second series is negative, so an off-mask entry
# filled with 0 instead of -inf would win its maximum
@example((np.array([0.0, 1.0, 1.0, 1.0 - _D, 2.0]),
          np.array([[0.0, 4.2, 0.0, 0.0, 0.0], [-1.0] * 5]),
          np.array([[0.0] * 5, [-1.0] * 5]), 1e-13), 1 << 14)
# +0.0 and -0.0 tie for both extremes: one -0.0 ratio, pair (0, 4), in the
# first series, and only -0.0 ratios in the second; numpy's min and max of
# the 16 admissible ratios return either zero, by the order they reduce in,
# and the scan must still give +0.0
@example((np.array([0.0] * 4 + [0.5] * 4),
          np.array([[0.0] * 4 + [-0.0] + [0.0] * 3, [-0.0] * 8]),
          np.array([[-0.0] + [0.0] * 7, [-0.0] * 8]), 0.5), 64)
def test_pair_scan_matches_all_pairs(inputs, block):
    r, heads, tails, cutoff = inputs
    l_max = r[-1] - r[0]
    threshold = cutoff * l_max
    refs = [_all_pairs(r, head, tail, threshold) for head, tail in zip(heads, tails)]
    count = len(refs[0][2])
    with mock.patch.object(spectrum, "_PAIR_BLOCK", block):
        if l_max <= 0:
            with pytest.raises(spectrum.SpectrumError, match="flat"):
                spectrum._pair_ratio_stats(r, heads, tails, cutoff)
        elif not count:
            with pytest.raises(spectrum.SpectrumError, match="no admissible pairs"):
                spectrum._pair_ratio_stats(r, heads, tails, cutoff)
        else:
            lo, hi, stacked_count = spectrum._pair_ratio_stats(r, heads, tails, cutoff)
            assert stacked_count == count
            for k, (_, _, ratios) in enumerate(refs):
                # a zero extreme is +0.0, whichever zeros the ratios hold
                assert _same(lo[k], ratios.min() + 0.0) and _same(hi[k], ratios.max() + 0.0)
        # the ratio-necessity scan: head r_om, tail -r_om
        i, j, ratios = _all_pairs(r, heads[0], -heads[0], threshold)
        if not len(ratios):
            with pytest.raises(relations.RelationError, match="no admissible pairs"):
                relations._ratio_argmax(r, heads[0], threshold)
            return
        value, a, b = relations._ratio_argmax(r, heads[0], threshold)
    best = int(np.argmax(ratios))  # the first maximum; a NaN beats every number
    assert _same(value, ratios[best]) and (a, b) == (i[best], j[best])
    assert type(a) is int and type(b) is int
