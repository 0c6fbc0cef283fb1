import contextlib
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from muspec import catalog, evolution, rates, relations, spectrum, theorems
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


@st.composite
def _own_rate_quotients(draw):
    """A rate nu (PowerExp, the same power as an expression, or a PowerExp
    glued at 1 onto a linear rate) and 2-3 slopes more than ``delta_merge``
    apart."""
    domain = draw(st.sampled_from([DISCRETE, CONTINUOUS]))
    p, lam = draw(st.floats(0.3, 3.0)), draw(st.floats(0.5, 2.0))
    nu = draw(st.sampled_from([
        rates.PowerExp(p, lam, domain),
        rates.ExpressionRate(f"{lam!r}*sgn(t)*abs(t)^{p!r}", domain),
        rates.Glued(rates.PowerExp(p, lam, domain), rates.PowerExp(1.0, lam, domain),
                    crossover=1.0, time_domain=domain),
    ]))
    merge = Params().merge_tolerance
    slopes = draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=3)
                  .map(sorted)
                  .filter(lambda s: all(b - a > merge for a, b in zip(s, s[1:]))))
    return nu, slopes


@given(_own_rate_quotients())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_quotient_systems_under_their_own_rate_give_their_slopes(case):
    """Phi_ii(k, n) = (nu(k)/nu(n))^s_i, so under nu every pair ratio is s_i
    and the spectrum is the slopes, in both time domains."""
    nu, slopes = case
    params = Params()
    rep = spectrum.compute_spectrum(evolution.quotient_system(nu, slopes), nu, params)
    assert rep.converged
    assert len(rep.intervals) == len(slopes)
    for iv, slope in zip(rep.intervals, slopes):
        assert max(abs(iv.lo - slope), abs(iv.hi - slope)) <= rep.resolution + params.tol_stab


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


@pytest.mark.parametrize("p", [2.1, 2.3])
def test_unconverged_reports_decide_no_dichotomy(p):
    """abs2t under continuous PowerExp(p, 1) has the spectrum {0}, so no
    dichotomy; at p = 2.1 and 2.3 the report is still unconverged on the
    last window, with an interval wholly above 0, and gives no verdict."""
    abs2t = catalog.system("abs2t")
    verdict = spectrum.has_mu_dichotomy(abs2t, rates.PowerExp(p, 1.0, CONTINUOUS))
    assert not verdict.report.converged and verdict.report.intervals[0].lo > 0.1
    assert verdict.holds is None and verdict.rank is None


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


@pytest.mark.parametrize("component", [-1, -2, 2, 5, True, 1.0])
def test_bohl_exponents_name_a_component_out_of_range(component):
    system = evolution.quotient_system(Q, [-1.0, 1.0])
    params = Params(schedule=(20, 40))
    with pytest.raises(spectrum.SpectrumError,
                       match=f"component {component!r} is not in 0..1"):
        spectrum.bohl_exponents(system, Q, params, component=component)
    est = spectrum.bohl_exponents(system, Q, params, component=1)
    assert (est.lower, est.upper) == (1.0, 1.0)


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
    times, (_, log_fwd), (_, log_bwd) = evolution.scaled_grids(full, 55)
    r_full = rates.log_rate_grid(EXP, 55)
    for window, lo, hi in est.per_window:
        sl = spectrum._window_slice(times, int(window))
        _, want_hi, pairs = stats(r_full[sl], log_fwd[sl][None], log_bwd[sl][None], 0.5)
        want_lo, _, _ = stats(r_full[sl], -log_bwd[sl][None], -log_fwd[sl][None], 0.5)
        assert _same(lo, want_lo[0]) and _same(hi, want_hi[0])
    assert est.pairs_used == pairs


def _plain_pair_count(r, threshold):
    """The pairs i < j with r[j] - r[i] >= threshold > 0, counted row by row
    from the plain differences."""
    return sum(int(np.count_nonzero(r[i + 1:] - r[i] >= threshold)) for i in range(len(r)))


def test_exact_multiples_of_the_rate_form_no_pair_block(monkeypatch):
    """frak_a under c, disc_q under q and identity under exp have the
    log-propagators -r, r and 0 on the log-rate grid r: their scans form
    no block of pair_ratio_blocks and still count the admissible pairs.
    A diagonal system with other slopes forms the blocks."""
    params = Params(schedule=(200, 400, 800, 1600))
    blocks, calls = spectrum.pair_ratio_blocks, []

    def watched_blocks(*args):
        """The blocks, recording each scan as it forms its first one."""
        starts, scan = blocks(*args)

        def watched():
            for n, block in enumerate(scan):
                if not n:
                    calls.append(args)
                yield block
        return starts, watched()

    monkeypatch.setattr(spectrum, "pair_ratio_blocks", watched_blocks)
    for system, rate in ((FRAK_A, C), (DISC_Q, Q), (IDENTITY, EXP)):
        est = spectrum.compute_spectrum(system, rate, params).component_estimates[0]
        assert not calls
        _, r, heads, tails = spectrum._grid(system, rate, 1600)
        threshold = params.cutoff_fraction * (r[-1] - r[0])
        assert est.pairs_used == _plain_pair_count(r, threshold)
    system = evolution.diagonal_system(
        DISCRETE, [f"exp(({s})*abs(2*k+1))" for s in (-0.731, 0.402, 1.218)])
    spectrum.compute_spectrum(system, Q, params)
    assert len(calls) == 4


def test_grid_scan_matches_each_window_scanned_alone():
    """Component 0 steps by min(|2k+1|, 199), so its log-propagator is
    k^2, the log-rate grid of q, out to |k| = 100 and falls behind it
    beyond: on windows 50 and 100 alone it takes the closed form, on the
    grid of window 400 it does not.  The scans that share the grid's
    closed-form check give every window bitwise what scanning its slice
    alone gives, for each component."""
    params = Params(schedule=(50, 100, 200, 400))
    system = evolution.diagonal_system(
        DISCRETE, ["exp(min(abs(2*k+1), 199))", "exp(0.5*abs(2*k+1))"])
    rep = spectrum.compute_spectrum(system, Q, params)
    times, r, heads, tails = spectrum._grid(system, Q, 400)
    assert spectrum._unit_slopes(r, heads[:1], tails[:1]) is None
    for comp, est in enumerate(rep.component_estimates):
        for window, lo, hi in est.per_window:
            sl = spectrum._window_slice(times, int(window))
            if comp == 0 and window <= 100:
                assert spectrum._unit_slopes(r[sl], heads[:1, sl], tails[:1, sl]).tolist() == [1.0]
            want_lo, want_hi, _ = spectrum._pair_ratio_stats(
                r[sl], heads[comp:comp + 1, sl], tails[comp:comp + 1, sl], 0.5)
            assert _same(lo, want_lo[0]) and _same(hi, want_hi[0])
    assert [w[1:] for w in rep.component_estimates[0].per_window[:2]] == [(1.0, 1.0)] * 2
    assert all(w[1:] == (0.5, 0.5) for w in rep.component_estimates[1].per_window)


def test_wiggly_rate_grid_is_raised_to_its_running_maximum():
    """A rate that rises 1e-15 a step and alternates by 8e-13, dips that
    log_rate_grid lets through: its grid is non-decreasing, within 8e-13
    of the samples, and the closed form (identity, c = 0) counts its
    admissible pairs."""
    rate = rates.ExpressionRate("1e-15*k + 4e-13*(-1)^k", DISCRETE)
    _, r, heads, tails = spectrum._grid(IDENTITY, rate, 1600)
    samples = rates.log_rate_values(rate, rates.sample_times(DISCRETE, 1600))
    assert not np.array_equal(r, samples)
    assert (np.diff(r) >= 0).all() and np.abs(r - samples).max() <= 8e-13
    threshold = 0.5 * (r[-1] - r[0])
    lo, hi, count = spectrum._pair_ratio_stats(r, heads, tails, 0.5)
    assert lo.tolist() == hi.tolist() == [0.0]
    assert count == _plain_pair_count(r, threshold)


def test_closed_form_leaves_overflowing_differences_to_the_scan():
    """r and r[-1] - r[0] = DBL_MAX are finite, but r[1] - r[0] overflows,
    so the ratio of r over r at (0, 1) is +inf / +inf, a NaN, not 1: the
    closed form's guard (max |r| <= DBL_MAX / 2) sends the series to the
    scan."""
    r = np.array([-1.0, 1.0, 1.0 - 2.0 ** -52]) * 2.0 ** 1023
    with np.errstate(over="ignore", invalid="ignore"):  # the scan's own overflow
        lo, hi, count = spectrum._pair_ratio_stats(r, r[None], -r[None], 0.5)
    assert math.isnan(lo[0]) and math.isnan(hi[0]) and count == 2


@st.composite
def _power_of_two_multiples(draw):
    """(r, heads, tails, cutoff, closed): one or two series c * r with
    tails -heads, c = +-2^m for m from -6 to 6, on a grid of integer steps
    scaled by 2^e: at a normal scale (e from -20 to 20), with every step
    below DBL_MIN, or with max |r| in [2^1022, 2^1023), near DBL_MAX / 2.
    closed says whether the closed form must be taken: exactly when every
    |c| is 1, at every scale."""
    n = draw(st.integers(2, 24))
    steps = draw(st.lists(st.integers(0, 3), min_size=n - 1, max_size=n - 1).filter(any))
    grid = draw(st.sampled_from([0.0, -8.0, -80.0])) + np.concatenate([[0.0], np.cumsum(steps)])
    scale = draw(st.sampled_from(["normal", "subnormal", "huge"]))
    if scale == "normal":
        e = draw(st.integers(-20, 20))
    elif scale == "subnormal":
        e = draw(st.integers(-1074, -1030))
    else:
        e = 1022 - math.frexp(np.abs(grid).max())[1] + 1
    r = np.ldexp(grid, e)
    slopes = np.array([draw(st.sampled_from([1.0, -1.0])) * 2.0 ** draw(st.integers(-6, 6))
                       for _ in range(draw(st.integers(1, 2)))])
    with np.errstate(over="ignore"):  # 2^6 * r may overflow to +-inf
        heads = slopes[:, None] * r
    cutoff = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    return r, heads, -heads, cutoff, bool((np.abs(slopes) == 1.0).all())


# L = fl(r[1] - r[0]) and 0.5 * L are normal, but 0.5 * r[0] rounds: the
# numerator misses 0.5 * L by an ulp, and the ratio is 0.5 + 2^-53
_ROUNDED = np.array([2.0 ** -1074, 2.0 ** -1021 + 2.0 ** -1073])


@given(_power_of_two_multiples())
@settings(max_examples=300, deadline=None, derandomize=True)
@example((_ROUNDED, 0.5 * _ROUNDED[None], -0.5 * _ROUNDED[None], 0.5, False))
def test_power_of_two_multiples_take_the_closed_form_only_at_unit_slopes(case):
    """Series that are +-2^m times the rate give bitwise the all-pairs
    extremes, and form no pair block exactly where every |c| is 1: other
    powers of two take the scan, also where c * r would be exact."""
    r, heads, tails, cutoff, closed = case
    assert 2.0 ** 1022 <= np.abs(r).max() < 2.0 ** 1023 or np.abs(r).max() < 2.0 ** 30
    formed, blocks = [], spectrum.pair_ratio_blocks

    def watched(*args):
        starts, scan = blocks(*args)
        return starts, (formed.append(block) or block for block in scan)

    with mock.patch.object(spectrum, "pair_ratio_blocks", watched), \
            np.errstate(over="ignore", invalid="ignore"):  # the scan's own overflow
        lo, hi, count = spectrum._pair_ratio_stats(r, heads, tails, cutoff)
    assert bool(formed) != closed
    for k, (head, tail) in enumerate(zip(heads, tails)):
        _, _, ratios = _all_pairs(r, head, tail, cutoff * (r[-1] - r[0]))
        assert count == len(ratios)
        assert _same(lo[k], ratios.min() + 0.0) and _same(hi[k], ratios.max() + 0.0)


# ---------------------------------------------------------------------------
# The admissible-pair primitive against a plain all-pairs scan


def _all_pairs(r, head, tail, threshold):
    """(i, j, ratio) of every admissible pair i < j, in np.triu_indices
    order, with the mask and the division of pair_ratio_blocks."""
    i, j = np.triu_indices(len(r), 1)
    # inf + -inf among the drawn values, and differences and sums near overflow
    with np.errstate(invalid="ignore", over="ignore"):
        L = r[j] - r[i]
        keep = (L >= threshold) & (L > 0)
        return i[keep], j[keep], (head[j] + tail[i])[keep] / L[keep]


def _same(x, y):
    """Bitwise equal floats; any NaN equals any NaN (its sign bit depends on
    the order numpy reduces in)."""
    return (math.isnan(x) and math.isnan(y)) or np.float64(x).tobytes() == np.float64(y).tobytes()


# log-rate grids, non-decreasing as log_rate_grid returns them: plateaus,
# and steps that make pair distances tie with the threshold; dyadic steps
# (2^-40 is 9.1e-13) keep most differences exact, so the ties are exact;
# head and tail values tie too, and hold NaN and +-inf
_D = 2.0 ** -40
_steps = st.sampled_from([0.0, 0.5, 1.0, 2.0, 0.3, 1.7, _D])
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


# the multiples c * r of the closed form, and magnitudes of r: near
# overflow, the largest grids fail its guard at 2^1018 (max |r| > 2^1023)
_UNIT = [0.0, 1.0, -1.0]
_SCALES = [1.0, 2.0 ** 1018]


@st.composite
def _multiple_inputs(draw):
    """(r, heads, tails, cutoff) on the grids and cutoffs of ``_pair_inputs``
    scaled by one of ``_SCALES``, whose series are c * r with c in
    ``_UNIT`` and tails -heads, the input of the closed-form path; or a
    near miss that must take the scan: one entry an ulp off, a tail that
    is not -head, or c = 2, 0.5 or 3."""
    r, _, _, cutoff = draw(_pair_inputs())
    r = r * draw(st.sampled_from(_SCALES))
    slopes = np.array(draw(st.lists(st.sampled_from(_UNIT), min_size=1, max_size=3)))
    heads = slopes[:, None] * r
    k = draw(st.integers(0, len(slopes) - 1))
    miss = draw(st.sampled_from([None, None, "ulp", "tail", "slope"]))
    if miss == "ulp":
        i = draw(st.integers(0, len(r) - 1))
        heads[k, i] = np.nextafter(heads[k, i], draw(st.sampled_from([INF, -INF])))
    elif miss == "slope":
        with np.errstate(over="ignore"):  # 2 * r may overflow to +-inf
            heads[k] = draw(st.sampled_from([2.0, 0.5, 3.0])) * r
    tails = -heads
    if miss == "tail":
        tails[k] = -np.roll(heads[k], 1)
    return r, heads, tails, cutoff


def _tiles(tile):
    """The ratio-necessity scan as it dispatches (tile None), or its tile
    scan forced with tiles ``tile`` samples wide and at most 3 coarse tiles
    a side (so that coarse tiles hold several fine ones); a share above 1
    leaves the row scan only where no tile pair is live.  The tile pairs or
    cells held at once are ``spectrum._PAIR_BLOCK``'s, as in the pair scan."""
    if tile is None:
        return contextlib.nullcontext()
    return mock.patch.multiple(relations, _PAIR_TILE=tile, _COARSE_SIDE=3, _ROW_SCAN_PAIRS=0,
                               _ROW_SCAN_SHARE=2.0)


def _ramp(n, om, cutoff):
    """Inputs on r = 0, 1, ..., n - 1 whose ratio-necessity scan reads r_om
    = ``om``."""
    om = np.array(om, dtype=float)
    return np.arange(float(n)), om[None], np.zeros((1, n)), cutoff


@given(st.one_of(_pair_inputs(), _multiple_inputs()), st.sampled_from([1, 3, 16, 64, 1 << 14]),
       st.sampled_from([None, 1, 2, 3, 16]))
@settings(max_examples=800, deadline=None)
# +0.0 and -0.0 tie for both extremes: one -0.0 ratio, pair (0, 4), in the
# first series, and only -0.0 ratios in the second; numpy's min and max of
# the 16 admissible ratios return either zero, by the order they reduce in,
# and the scan must still give +0.0
@example((np.array([0.0] * 4 + [0.5] * 4),
          np.array([[0.0] * 4 + [-0.0] + [0.0] * 3, [-0.0] * 8]),
          np.array([[-0.0] + [0.0] * 7, [-0.0] * 8]), 0.5), 64, None)
# the tile scan: every admissible ratio is a zero, and the first, pair
# (0, 4), is -0.0 while numpy's max of the tile's ratios is +0.0
@example(_ramp(8, [0.0, 0.0, -0.0, -0.0, -0.0, 0.0, 0.0, 0.0], 0.5), 1 << 14, 2)
# numerator bounds in [0, 1): the tile of the maximum, pair (3, 7), is kept
# only when its bound divides by the least mu-difference, not the largest
@example((np.array([0.0, 0.0, 2.0, 3.0, 3.5, 4.5, 5.5, 6.0, 6.5, 7.5]),
          np.array([[0.01, 0.01, 0.01, 0.02, 0.04, 0.06, 0.07, 0.08, 0.06, 0.06]]),
          np.zeros((1, 10)), 0.25), 1 << 14, 3)
# the closed form: a rounded key r[i] + threshold puts the suffix start of
# row 0 one column early, at 1, where fl(-2.7 - -3.0) < 0.3
@example((np.array([-3.0, -2.7, -2.4]), np.array([[-3.0, -2.7, -2.4]]),
          np.array([[3.0, 2.7, 2.4]]), 0.5), 1 << 14, None)
# r with entry 1 an ulp up, and its negative: c reads 1 from entry 3, but
# the ratio of (1, 3) is 1 - 2^-53, not 1
@example((np.arange(4.0), np.array([[0.0, 1.0 + 2.0 ** -52, 2.0, 3.0]]),
          np.array([[0.0, -1.0 - 2.0 ** -52, -2.0, -3.0]]), 0.5), 1 << 14, None)
# heads r but a tail that is not -r: pair (0, 2) has the ratio 0.75, not 1
@example((np.arange(4.0), np.arange(4.0)[None], np.array([[-0.5, -1.0, -2.0, -3.0]]), 0.5),
         1 << 14, None)
def test_pair_scan_matches_all_pairs(inputs, block, tile):
    r, heads, tails, cutoff = inputs
    l_max = r[-1] - r[0]
    threshold = cutoff * l_max
    refs = [_all_pairs(r, head, tail, threshold) for head, tail in zip(heads, tails)]
    count = len(refs[0][2])
    blocks = spectrum.pair_ratio_blocks

    def checked_blocks(r, heads, tails, threshold, cut=None):
        """The blocks, each checked against the plain rectangle: it starts
        at its first row's suffix start, ends at the cut on i + j, which
        only a mirrored scan lowers below 2 * len(r) - 1, and its q is NaN
        exactly where the pair is inadmissible or its ratio is NaN."""
        starts, scan = blocks(r, heads, tails, threshold, cut)
        assert np.array_equal(
            starts, spectrum._suffix_starts(r, spectrum.admission_threshold(threshold)))
        cut = 2 * len(r) if cut is None else cut
        assert cut >= 2 * len(r) - 1 or cut == len(r) and spectrum._mirrored(r, heads, tails)
        return starts, checked(r, heads, tails, starts, scan, cut)

    def checked(r, heads, tails, starts, scan, cut):
        for i0, j0, L, q in scan:
            assert j0 == starts[i0]
            rows, cols = np.arange(i0, i0 + q.shape[1]), np.arange(j0, min(len(r), cut - i0))
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                plain = r[cols] - r[rows, None]
                ratios = (heads[:, None, cols] + tails[:, rows, None]) / plain
            admissible = (plain >= threshold) & (plain > 0)
            assert np.array_equal(np.isnan(q), np.isnan(np.where(admissible, ratios, np.nan)))
            yield i0, j0, L, q

    with mock.patch.object(spectrum, "_PAIR_BLOCK", block), _tiles(tile), \
            mock.patch.object(spectrum, "pair_ratio_blocks", checked_blocks), \
            mock.patch.object(relations, "pair_ratio_blocks", checked_blocks):
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
        # the ratio-necessity scan: head r_om, tail -r_om, with r_om finite and
        # at most DBL_MAX / 2 in magnitude, as a log-rate grid is
        r_om = np.clip(np.nan_to_num(heads[0]), -rates.MAX_LOG_RATE, rates.MAX_LOG_RATE)
        i, j, ratios = _all_pairs(r, r_om, -r_om, threshold)
        if not len(ratios):
            with pytest.raises(relations.RelationError, match="no admissible pairs"):
                relations._ratio_argmax(r, r_om, threshold)
            return
        value, a, b = relations._ratio_argmax(r, r_om, threshold)
    best = int(np.argmax(ratios))  # the first maximum
    assert _same(value, ratios[best]) and (a, b) == (i[best], j[best])
    assert type(a) is int and type(b) is int


def _numerator_scan(heads, tails, block):
    """The numerators heads[k, j] + tails[k, i] that pair_ratio_blocks forms
    for every row i and column j, shape (K, rows, cols): on r = 0 at the
    rows and 1 at the columns, every log-quotient of a row with a column is
    1.0, and x / 1.0 is x, bitwise."""
    (k, rows), cols = tails.shape, heads.shape[1]
    r = np.repeat([0.0, 1.0], [rows, cols])
    heads = np.concatenate([np.zeros((k, rows)), heads], axis=1)
    tails = np.concatenate([tails, np.zeros((k, cols))], axis=1)
    parts = []
    _, blocks = spectrum.pair_ratio_blocks(r, heads, tails, 0.5)
    with mock.patch.object(spectrum, "_PAIR_BLOCK", block):
        for i0, j0, _, q in blocks:
            assert (i0, j0) == (sum(p.shape[1] for p in parts), rows)
            parts.append(q[:, :rows - i0])  # later rows have L = 0
    return np.concatenate(parts, axis=1)


def _bits(x: float) -> float:
    return struct.unpack("<d", struct.pack("<Q", x))[0]


_MAX = np.finfo(float).max
_TINY = np.finfo(float).smallest_normal
# random bit patterns (NaN payloads, infinities and subnormals among them),
# signed zeros, the subnormal and overflow edges, and numbers that cancel
_doubles = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_bits),
    st.sampled_from([0.0, -0.0, INF, -INF, math.nan, 5e-324, -5e-324, _TINY, -_TINY,
                     _TINY / 3, -_TINY / 3, _MAX, -_MAX, _MAX / 2, 1.0, -1.0]),
    st.floats(),
)


@given(st.integers(1, 3), st.integers(1, 9), st.integers(1, 9), st.data(),
       st.sampled_from([1, 2, 7, 1 << 14]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_rank2_numerators_are_the_broadcast_sums(k, rows, cols, data, block):
    """The scan's rank-2 matrix products give bitwise the broadcast sums on
    any doubles, with one row or column per block or many, up to the sign
    of a zero, which no caller reads: compared after + 0.0, which makes
    every zero +0.0 and keeps every other value.  IEEE 754 fixes no NaN's
    payload or sign, so a NaN only has to be a NaN."""
    def draw(size):
        return np.array(data.draw(st.lists(st.lists(_doubles, min_size=size, max_size=size),
                                           min_size=k, max_size=k)))

    heads, tails = draw(cols), draw(rows)
    got = _numerator_scan(heads, tails, block)
    with np.errstate(invalid="ignore", over="ignore"):  # inf + -inf, and overflow
        want = heads[:, None, :] + tails[:, :, None]
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal((got[~nan] + 0.0).view(np.uint64), (want[~nan] + 0.0).view(np.uint64))


def test_block_scan_keeps_the_callers_error_state(monkeypatch):
    """The blocks form their ratios under an error state of the scan's
    own, set once per scan: the caller's state holds between two blocks
    and after the scan, and overflowing ratios leak no RuntimeWarning."""
    monkeypatch.setattr(spectrum, "_PAIR_BLOCK", 2)
    r = np.arange(6.0)
    heads = np.full((1, 6), np.finfo(float).max)
    with np.errstate(over="raise", invalid="raise", divide="warn", under="ignore"):
        caller = np.geterr()
        _, blocks = spectrum.pair_ratio_blocks(r, heads, heads, 0.5)
        seen = [np.geterr() for _, _, _, q in blocks if np.isinf(q).any()]
        assert len(seen) == 5 and all(state == caller for state in seen)
        assert np.geterr() == caller


def _bisected_starts(r, threshold):
    """The suffix starts by bisecting every row over all its later columns."""
    n = len(r)
    env = np.concatenate((r, [INF]))
    lo, hi = np.arange(1, n + 1), np.full(n, n)
    for _ in range(n.bit_length()):
        mid = (lo + hi) // 2
        ok = env[mid] - r >= threshold
        live = lo < hi
        lo, hi = np.where(live & ~ok, mid + 1, lo), np.where(live & ok, mid, hi)
    return lo


@st.composite
def _start_inputs(draw):
    """(r, threshold): a non-decreasing grid of plateaus up to 60 samples
    long, at magnitudes up to DBL_MAX / 2, and a threshold at a cutoff of
    its range, at a pair's distance (a tie), at the least positive double,
    or at -r[i] of a row, whose key r[i] + threshold is then near 0."""
    runs = draw(st.lists(st.tuples(st.sampled_from([0.1, 0.3, 1.0, 1.7, 2.0 ** -40, 1e-300]),
                                   st.integers(1, 60)), min_size=1, max_size=10))
    steps = np.concatenate([[step] + [0.0] * (length - 1) for step, length in runs])
    r = draw(st.sampled_from([0.0, -3.0, 0.1, -1e5])) + np.concatenate([[0.0], np.cumsum(steps)])
    scale = draw(st.sampled_from(["one", "large", "top"]))
    if scale != "one":  # positive scalings keep r non-decreasing
        r = r / np.abs(r).max() * (2.0 ** 1000 if scale == "large" else rates.MAX_LOG_RATE)
    a, b = sorted(draw(st.lists(st.integers(0, len(r) - 1), min_size=2, max_size=2,
                                unique=True)))
    threshold = draw(st.sampled_from([
        draw(st.sampled_from([0.25, 0.5, 0.75, 1e-9])) * (r[-1] - r[0]),
        r[b] - r[a], math.ulp(0.0), -r[a], np.nextafter(-r[a], INF), np.nextafter(-r[a], -INF)]))
    assume(threshold > 0)
    return r, spectrum.admission_threshold(float(threshold))


@given(_start_inputs())
@settings(max_examples=400, deadline=None, derandomize=True)
# the key of row 0 rounds to the plateau at -2.7, where fl(-2.7 - -3.0) <
# 0.3: the start is past the plateau, six columns after the guess
@example((np.array([-3.0] + [-2.7] * 6 + [2.3]), 0.3))
def test_suffix_starts_are_those_of_bisecting_every_row(inputs):
    """Rows whose guessed start misses search outward from the guess, and
    every start is bitwise the one bisecting every row over all its later
    columns finds."""
    r, threshold = inputs
    got, want = spectrum._suffix_starts(r, threshold), _bisected_starts(r, threshold)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _clear_scan_caches():
    """Clear every cache that a ``theorems.run_all()`` scans through."""
    spectrum._shared_starts.cache_clear()
    relations._ratio_necessity.cache_clear()
    relations._affine_prefilter.cache_clear()


def test_run_all_computes_the_starts_of_each_grid_slice_once(monkeypatch):
    """The suffix starts depend only on the rate grid's slice and the
    cutoff: one run_all() scans 57 distinct slices 181 times, spectrum
    windows and relation row scans together, and computes each slice's
    starts once."""
    computed, read = [], []
    suffix_starts, shared = spectrum._suffix_starts, spectrum._shared_starts
    _clear_scan_caches()
    monkeypatch.setattr(spectrum, "_suffix_starts",
                        lambda *a: computed.append(a) or suffix_starts(*a))
    monkeypatch.setattr(spectrum, "_shared_starts", lambda *a: read.append(a) or shared(*a))
    theorems.run_all()
    assert (len(read), len(set(read)), len(computed)) == (181, 57, 57)


def test_shared_starts_are_read_only_and_those_of_their_slice(monkeypatch):
    """Every scan of one run_all() reads read-only starts, bitwise those a
    fresh ``_suffix_starts`` gives its own grid slice, and one array for
    each slice and cutoff."""
    scans, blocks = [], spectrum.pair_ratio_blocks

    def recorded(r, heads, tails, threshold, cut):
        starts, scan = blocks(r, heads, tails, threshold, cut)
        scans.append((r.copy(), threshold, starts))
        return starts, scan

    monkeypatch.setattr(spectrum, "pair_ratio_blocks", recorded)
    monkeypatch.setattr(relations, "pair_ratio_blocks", recorded)
    _clear_scan_caches()
    theorems.run_all()
    assert len(scans) == 181
    shared = {}
    for r, threshold, starts in scans:
        assert not starts.flags.writeable
        fresh = spectrum._suffix_starts(r, spectrum.admission_threshold(threshold))
        assert starts.dtype == fresh.dtype and starts.tobytes() == fresh.tobytes()
        assert shared.setdefault((r.tobytes(), threshold), starts) is starts
    assert len(shared) == 57


def test_svd_calls_do_not_grow_with_the_window(monkeypatch):
    """An enclosure takes no SVD and one stacked Gram eigensolve per grid,
    however many Magnus steps and walk steps it has: the unit-step factors
    come scaled by powers of two, with no 2-norm of their own."""
    svd, eigvalsh = mock.Mock(wraps=np.linalg.svd), mock.Mock(wraps=np.linalg.eigvalsh)
    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)

    def count(system, rate, schedule):
        svd.reset_mock()
        eigvalsh.reset_mock()
        spectrum.compute_spectrum(system, rate, Params(schedule=schedule))
        return svd.call_count, eigvalsh.call_count

    cont = evolution.full_system(CONTINUOUS, [["2*abs(t)", "1"], ["0", "-1/(1+abs(t))"]])
    q = catalog.rate("q", CONTINUOUS)
    table = evolution.tabulated_system(
        -400, np.random.default_rng(5).uniform(-1.0, 1.0, (800, 2, 2)) + 2.0 * np.eye(2))
    assert count(cont, q, None) == count(cont, q, (5, 10, 20)) == (0, 1)
    assert count(table, EXP, (50, 100, 200, 400)) == count(table, EXP, (25, 50)) == (0, 1)


# ---------------------------------------------------------------------------
# The half-triangle scan of grids odd under time reversal


_HALF = rates.MAX_LOG_RATE
# series values: signed zeros, ties, the DBL_MAX / 2 edge, and the
# infinities and NaN of a series that is not bounded
_odd_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -2.7, 4.2, _HALF, -_HALF,
                               np.nextafter(_HALF, 0.0), INF, -INF, math.nan])


def _flip_zeros(x, flips):
    """x with the sign of each zero at a True of ``flips`` flipped: equal as
    values."""
    return np.where((x == 0.0) & flips, -x, x)


@st.composite
def _mirrored_inputs(draw):
    """(r, heads, tails, r_om, cutoff) with r[::-1] == -r, heads[:, ::-1] ==
    tails and r_om[::-1] == -r_om as values, on a grid of odd length: r
    non-decreasing, with plateaus (one through the middle sample, a zero of
    either sign, where a first step of 0 puts it), at unit scale or with
    max |r| = DBL_MAX / 2; each tail the reversed head with some zeros of
    the other sign; r_om finite and at most DBL_MAX / 2 in magnitude, as a
    log-rate grid is."""
    m = draw(st.integers(1, 20))
    half = np.cumsum(draw(st.lists(_steps, min_size=m, max_size=m)))
    if draw(st.booleans()) and half[-1] > 0:
        half = half / half[-1] * _HALF
    middle = draw(st.sampled_from([0.0, -0.0]))
    r = np.concatenate([-half[::-1], [middle], half])
    n = len(r)
    k = draw(st.integers(1, 3))
    heads = np.array(draw(st.lists(st.lists(_odd_values, min_size=n, max_size=n),
                                   min_size=k, max_size=k)))
    flips = np.array(draw(st.lists(st.booleans(), min_size=k * n, max_size=k * n))).reshape(k, n)
    tails = _flip_zeros(heads[:, ::-1], flips)
    om_half = np.array(draw(st.lists(_odd_values.filter(math.isfinite), min_size=m, max_size=m)))
    r_om = np.concatenate([-om_half[::-1], [draw(st.sampled_from([0.0, -0.0]))], om_half])
    l_max = r[-1] - r[0]
    a, b = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    tie = (r[b] - r[a]) / l_max if l_max > 0 else 0.5
    return r, heads, tails, r_om, tie if draw(st.booleans()) else draw(_cutoffs)


def _scanned(scan, *args):
    """What ``scan(*args)`` returns, or the type of the error it raises."""
    try:
        return scan(*args)
    except (spectrum.SpectrumError, relations.RelationError) as exc:
        return type(exc)


def _bitwise(x, y):
    """Equal results: the same error type, or bitwise equal arrays and
    equal counts and pairs."""
    if isinstance(x, type) or isinstance(y, type) or x is None or y is None:
        return x is y
    return all(a.tobytes() == b.tobytes() if isinstance(a, np.ndarray) else a == b
               for a, b in zip(x, y))


def _half_and_full(r, heads, tails, r_om, cutoff, block, tile):
    """The scans of the half triangle and of every pair: the extremes and
    count of ``_pair_ratio_stats`` (with facts that send every series to
    the scan), the pair of the row scan, that of the tile scan, forced with
    tiles ``tile`` samples wide, and the ratio and pair of
    ``_ratio_argmax``."""
    l_max = r[-1] - r[0]
    threshold = spectrum.admission_threshold(cutoff * l_max) if l_max > 0 else 1.0
    n = len(r)
    _, bounded, _ = spectrum._scan_facts(r, heads, tails)
    found = []
    with mock.patch.object(spectrum, "_PAIR_BLOCK", block), _tiles(tile), \
            np.errstate(over="ignore", invalid="ignore"):  # the scan's own overflow
        for mirrored, cut in ((True, n), (False, 2 * n)):
            found.append((
                _scanned(spectrum._pair_ratio_stats, r, heads, tails, cutoff,
                         (None, bounded, mirrored)),
                _scanned(relations._row_argmax, r, r_om, threshold, cut),
                _scanned(relations._tile_argmax, r, r_om, threshold, cut),
                _scanned(relations._ratio_argmax, r, r_om, threshold, mirrored)))
    return found


@given(_mirrored_inputs(), st.sampled_from([1, 3, 16, 1 << 14]), st.sampled_from([1, 2, 3]))
@settings(max_examples=500, deadline=None, derandomize=True)
def test_mirrored_scans_are_bitwise_the_full_scans(inputs, block, tile):
    """On grids odd under time reversal, the scans of the half triangle i +
    j <= n - 1 give bitwise the full scans' extremes (a zero's sign
    included), pair count, and row and tile argmax pairs; ``_mirrored``
    finds every such grid whose series hold no NaN, and the scans take the
    half exactly then."""
    r, heads, tails, r_om, cutoff = inputs
    assert spectrum._mirrored(r, heads, tails) == (not np.isnan(heads).any())
    assert spectrum._mirrored(r, r_om[None], -r_om[None])
    (stats, row, tiles, best), (full_stats, full_row, full_tiles, full_best) = _half_and_full(
        r, heads, tails, r_om, cutoff, block, tile)
    assert _bitwise(stats, full_stats)
    assert row == full_row and _bitwise(tiles, full_tiles) and _bitwise(best, full_best)
    if not isinstance(row, type) and tiles is not None:
        assert tiles == row


@given(_mirrored_inputs(), st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_a_sample_an_ulp_off_takes_the_full_scan(inputs, data):
    """Moving one sample of r (an end, which keeps it non-decreasing), of a
    head or of r_om by one ulp breaks the mirror: the spectrum scan and the
    ratio-necessity scan form every pair."""
    r, heads, tails, r_om, cutoff = inputs
    heads, r_om = heads[~np.isnan(heads).any(axis=1)], r_om.copy()
    assume(len(heads))
    tails = heads[:, ::-1].copy()
    where = data.draw(st.sampled_from(["first", "last", "head", "omega"]))
    if where == "first":
        r = np.concatenate([[np.nextafter(r[0], -INF)], r[1:]])
    elif where == "last":
        r = np.concatenate([r[:-1], [np.nextafter(r[-1], INF)]])
    elif where == "head":
        k, i = data.draw(st.integers(0, len(heads) - 1)), data.draw(st.integers(0, len(r) - 1))
        # an infinity moves by an ulp towards the finite numbers only
        toward = data.draw(st.sampled_from([INF, -INF]))
        heads[k, i] = np.nextafter(heads[k, i], -heads[k, i] if math.isinf(heads[k, i]) else toward)
    else:
        i = data.draw(st.integers(0, len(r) - 1))
        r_om[i] = np.nextafter(r_om[i], data.draw(st.sampled_from([INF, -INF])))
    cuts, blocks, row_argmax = [], spectrum.pair_ratio_blocks, relations._row_argmax

    def watched(r, heads, tails, threshold, cut=None):
        cuts.append(cut)
        return blocks(r, heads, tails, threshold, cut)

    def watched_rows(r_mu, r_om, threshold, cut):
        cuts.append(cut)
        return row_argmax(r_mu, r_om, threshold, cut)

    with mock.patch.object(spectrum, "pair_ratio_blocks", watched), \
            mock.patch.object(relations, "_row_argmax", watched_rows), \
            np.errstate(over="ignore", invalid="ignore"):  # the scan's own overflow
        if where in ("first", "last", "head"):
            assert not spectrum._scan_facts(r, heads, tails)[2]
            _scanned(spectrum._pair_ratio_stats, r, heads, tails, cutoff)
        if where != "head":
            assert not spectrum._mirrored(r, r_om[None], -r_om[None])
            l_max = r[-1] - r[0]
            _scanned(relations._ratio_argmax, r, r_om, cutoff * l_max if l_max > 0 else 1.0)
    assert all(cut is None or cut == 2 * len(r) for cut in cuts)


def test_mirrored_diagonal_forms_about_half_the_block_cells(monkeypatch):
    """The discrete diagonal exp(s * |2k + 1|) under q, the seeded diagonal
    of the scalar_disc_wide benchmark (here at slopes -1.2, 0.3, 1.5), is
    odd under time reversal: at window 1600 its scan forms at most 55% of
    the block cells of the full scan, with bitwise its extremes and
    count."""
    system = evolution.diagonal_system(
        DISCRETE, [f"exp(({s})*abs(2*k+1))" for s in (-1.2, 0.3, 1.5)])
    _, r, heads, tails = spectrum._grid(system, Q, 1600)
    slopes, bounded, mirrored = spectrum._scan_facts(r, heads, tails)
    assert slopes is None and bounded and mirrored
    formed, blocks = [], spectrum.pair_ratio_blocks

    def counting(*args):
        starts, scan = blocks(*args)
        return starts, (formed.append(block[3].size) or block for block in scan)

    monkeypatch.setattr(spectrum, "pair_ratio_blocks", counting)
    half = spectrum._pair_ratio_stats(r, heads, tails, 0.5)
    half_cells = sum(formed)
    formed.clear()
    full = spectrum._pair_ratio_stats(r, heads, tails, 0.5, (slopes, bounded, False))
    assert half_cells <= 0.55 * sum(formed)
    assert _bitwise(half, full)


_EVEN_CONTINUOUS = [
    (catalog.system("abs2t"), "q"), (catalog.system("inv1pt"), "exp"),
    (catalog.system("sq3t2"), "c"),
    (evolution.diagonal_system(CONTINUOUS, [f"2*({s})*abs(t)" for s in (-0.7, 0.4, 1.3)]), "q"),
]


@pytest.mark.parametrize("window", [40, 400])
@pytest.mark.parametrize("system, rate", _EVEN_CONTINUOUS)
def test_even_continuous_grids_are_mirrored(system, rate, window):
    """The continuous grids of even coefficients (the scalar_cont_wide
    systems) are odd bit for bit: the half scan is taken, and gives
    bitwise the full scan's extremes and count."""
    _, r, heads, tails = spectrum._grid(system, catalog.rate(rate, CONTINUOUS), window)
    slopes, bounded, mirrored = spectrum._scan_facts(r, heads, tails)
    assert slopes is None and bounded and mirrored
    half = spectrum._pair_ratio_stats(r, heads, tails, 0.5)
    full = spectrum._pair_ratio_stats(r, heads, tails, 0.5, (slopes, bounded, False))
    assert _bitwise(half, full)


def test_a_continuous_coefficient_of_no_parity_is_not_mirrored():
    system = evolution.scalar_system(CONTINUOUS, "2*abs(t)+0.1*t")
    _, r, heads, tails = spectrum._grid(system, catalog.rate("q", CONTINUOUS), 40)
    assert not spectrum._mirrored(r, heads, tails)
