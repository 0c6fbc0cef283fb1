import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from muspec import catalog, exprparse, rates
from muspec.params import CONTINUOUS, DISCRETE, SAMPLES_PER_UNIT, Params


Q = catalog.rate("q", DISCRETE)
C = catalog.rate("c", DISCRETE)
EXP = catalog.rate("exp", DISCRETE)
P = catalog.rate("p", DISCRETE)


def test_log_rate_values():
    assert rates.log_rate(Q, 0) == 0.0
    assert rates.log_rate(Q, 3) == 9.0
    assert rates.log_rate(C, -2) == -8.0
    assert rates.log_rate(EXP, 5) == 5.0
    assert rates.log_rate(P, -1) == 0.0
    assert rates.log_rate(P, 3) == pytest.approx(math.log(3.0))
    p_cont = catalog.rate("p", CONTINUOUS)
    assert rates.log_rate(p_cont, -4.0) == pytest.approx(-math.log(5.0))


def test_log_quotient():
    assert rates.log_rate(Q, 3) - rates.log_rate(Q, 1) == 8.0
    assert rates.log_rate(EXP, 5) - rates.log_rate(EXP, 2) == 3.0
    assert rates.log_rate(C, 7) - rates.log_rate(C, 7) == 0.0
    fwd = rates.log_rate(Q, 9) - rates.log_rate(Q, -4)
    bwd = rates.log_rate(Q, -4) - rates.log_rate(Q, 9)
    assert fwd == -bwd


def test_discrete_rate_rejects_fractional_time():
    with pytest.raises(rates.RateError):
        rates.log_rate(Q, 1.5)


def test_glued_branch_is_evaluated_only_where_it_is_selected():
    # the outer expression has a pole at t = 1, beyond the crossover
    glued = rates.Glued(inner=rates.PowerExp(3.0, 1.0, CONTINUOUS),
                        outer=rates.ExpressionRate("t/(1-t)", CONTINUOUS),
                        crossover=0.5, time_domain=CONTINUOUS)
    ts = np.arange(-30, 31) / 10.0
    with pytest.raises(exprparse.DomainError, match="at input 1.0"):
        rates.log_rate_values(glued.outer, ts)
    vals = rates.log_rate_values(glued, ts)
    for t, v in zip(ts.tolist(), vals.tolist()):
        assert v == rates.log_rate(glued.inner if abs(t) >= 0.5 else glued.outer, t)


@pytest.mark.parametrize("name", ["p", "exp", "q", "c"])
@pytest.mark.parametrize("domain", [DISCRETE, CONTINUOUS])
def test_catalog_rates_validate(name, domain):
    rate = catalog.rate(name, domain)
    report = rates.validate_rate(rate, 100 if domain == DISCRETE else 40)
    assert report.ok
    if name == "q" and domain == DISCRETE:
        assert report.attained == (-10000.0, 10000.0)


@pytest.mark.parametrize("domain", [DISCRETE, CONTINUOUS])
def test_catalog_grids_are_their_samples(domain):
    """Every catalog rate is non-decreasing on every grid the estimators
    and the relation checks scan, so log_rate_grid raises no sample: the
    grid is log_rate_values at the sample times, byte for byte."""
    params = Params()
    windows = params.windows(domain) + params.extension_windows(domain)
    for name in catalog.RATE_NAMES:
        rate = catalog.rate(name, domain)
        for window in windows:
            for per_unit in (1, SAMPLES_PER_UNIT):
                ts = rates.sample_times(domain, window, per_unit)
                want = rates.log_rate_values(rate, ts)
                assert rates.log_rate_grid(rate, window, per_unit).tobytes() == want.tobytes()


@pytest.mark.parametrize("domain, per_unit", [
    (DISCRETE, 1), (DISCRETE, SAMPLES_PER_UNIT), (CONTINUOUS, 1), (CONTINUOUS, SAMPLES_PER_UNIT)])
def test_sample_times_nest_across_windows(domain, per_unit):
    """Window n's times are the central slice of window 40's, bit for bit,
    and the integers among them are exact."""
    top = rates.sample_times(domain, 40, per_unit)
    step = 1 if domain == DISCRETE else per_unit
    for n in (0, 5, 39):
        sliced = top[step * (40 - n):step * (40 + n) + 1]
        assert sliced.tobytes() == rates.sample_times(domain, n, per_unit).tobytes()
    assert top[::step].tobytes() == np.arange(-40, 41, dtype=float).tobytes()


@pytest.mark.parametrize("domain", [DISCRETE, CONTINUOUS])
def test_grid_caches_hold_one_entry_per_grid(domain):
    """Every spelling of a grid is one cache miss: the per-unit count
    defaulted, positional or by keyword, and in discrete time any count."""
    rate = catalog.rate("q", domain)
    counts = (1, 3) if domain == DISCRETE else (1,)
    for fn, first in ((rates.sample_times, domain), (rates.log_rate_grid, rate)):
        fn.cache_clear()
        grids = [fn(first, 7), fn(first, 7, 1), fn(first, 7, samples_per_unit=1),
                 fn(first, window=7)] + [fn(first, 7, count) for count in counts]
        assert all(grid is grids[0] for grid in grids)
        info = fn.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, len(grids) - 1, 1)


def test_validate_expression_rate():
    same_as_q = rates.ExpressionRate("sgn(t)*abs(t)^2", CONTINUOUS)
    assert rates.validate_rate(same_as_q, 50).ok
    decreasing = rates.ExpressionRate("-t", CONTINUOUS)
    report = rates.validate_rate(decreasing, 10)
    assert not report.ok
    assert len(report.violations) == report.points_checked - 1
    # every step falls by 1e-13 on the negative half-line, less than the
    # slack, but the samples from k = -389 on lie more than 1e-12 below
    # the running maximum, the sample at k = -400
    slow = rates.ExpressionRate("max(k,0) - 1e-13*min(k,0)", DISCRETE)
    report = rates.validate_rate(slow, 400)
    assert not report.ok
    first = report.violations[0]
    assert first[:2] == (-400.0, -389.0) and first[2] - first[3] > 1e-12
    assert {v[0] for v in report.violations} == {-400.0}


@pytest.mark.parametrize("domain", [DISCRETE, CONTINUOUS])
@pytest.mark.parametrize("window", [math.nan, math.inf, -math.inf, 0.0])
def test_validate_rate_rejects_a_bad_window(domain, window):
    with pytest.raises(rates.RateError, match="validation window must be positive and finite"):
        rates.validate_rate(catalog.rate("q", domain), window)


class _NoArrays:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} reached before the window was rejected")


@pytest.mark.parametrize("domain, window, count", [
    (DISCRETE, 1e18, "2000000000000000001"), (DISCRETE, 1e9, "2000000001"),
    (CONTINUOUS, 1e18, "20000000000000000001"), (CONTINUOUS, 1e9, "20000000001")])
def test_validate_rate_rejects_a_window_too_large_to_sample(monkeypatch, domain, window, count):
    # the window is rejected before numpy is reached, so nothing is allocated
    monkeypatch.setattr(rates, "np", _NoArrays())
    with pytest.raises(rates.RateError) as err:
        rates.validate_rate(rates.PowerExp(1.0, 1.0, domain), window)
    assert str(err.value) == (f"window {math.ceil(window)} needs {count} samples, "
                              "more than MAX_VALIDATION_SAMPLES (1000000)")


@pytest.mark.parametrize("domain, window, per_unit, count", [
    (DISCRETE, 10 ** 18, 1, 2 * 10 ** 18 + 1), (DISCRETE, 500_000, 1, 1_000_001),
    (CONTINUOUS, 10 ** 8, SAMPLES_PER_UNIT, 2 * 10 ** 9 + 1),
    (CONTINUOUS, 50_000, SAMPLES_PER_UNIT, 1_000_001)])
def test_sample_times_rejects_a_window_too_large_to_sample(monkeypatch, domain, window,
                                                          per_unit, count):
    # every rate, system and full-system grid samples sample_times, which
    # names the window before numpy is reached
    monkeypatch.setattr(rates, "np", _NoArrays())
    message = (f"window {window} needs {count} samples, "
               "more than MAX_VALIDATION_SAMPLES (1000000)")
    with pytest.raises(rates.RateError) as err:
        rates.sample_times(domain, window, per_unit)
    assert str(err.value) == message
    with pytest.raises(rates.RateError) as err:
        rates.log_rate_grid(catalog.rate("q", domain), window, per_unit)
    assert str(err.value) == message


@pytest.mark.parametrize("count", [0, 0.5, -1, math.inf, math.nan, 4.0, True, "4"])
def test_validate_rate_rejects_a_sample_count_below_one(monkeypatch, count):
    # a count of 0 once sampled t = -5 alone, and -1 reached numpy's own error;
    # a count that is not an integer (4.0, True, "4") is refused as well
    monkeypatch.setattr(rates, "np", _NoArrays())
    with pytest.raises(rates.RateError) as err:
        rates.validate_rate(rates.PowerExp(1.0, 1.0, CONTINUOUS), 5, count)
    assert str(err.value) == f"samples_per_unit must be an integer of at least 1, got {count}"


@pytest.mark.parametrize("domain", [DISCRETE, CONTINUOUS])
def test_validate_rate_samples_the_lattice_out_to_the_rounded_up_window(domain):
    """validate_rate reads the sample times the estimators scan, and a
    fractional window rounds outward: 2.5 samples out to 3."""
    ts = rates.sample_times(domain, 3, 4)
    report = rates.validate_rate(rates.ExpressionRate("-t^3", domain), 2.5, 4)
    assert report.points_checked == len(ts) == (7 if domain == DISCRETE else 25)
    assert report.attained == (27.0, -27.0)
    assert [v[:2] for v in report.violations] == [(ts[0], t) for t in ts[1:].tolist()]


@given(st.integers(min_value=-100, max_value=100),
       st.integers(min_value=-100, max_value=100))
@settings(max_examples=200, deadline=None)
def test_quotient_sign_property(k, n):
    for rate in (P, EXP, Q, C):
        value = rates.log_rate(rate, max(k, n)) - rates.log_rate(rate, min(k, n))
        assert value >= 0.0


def test_glued_crossover_solves_equation():
    glued = catalog.rate("glued_c_p", CONTINUOUS)
    a = glued.crossover
    inner_log = rates.log_rate(glued.inner, a)
    outer_log = rates.log_rate(glued.outer, a)
    assert abs(inner_log - outer_log) < 1e-8
    # continuity across the crossover
    assert rates.log_rate(glued, a - 1e-9) == pytest.approx(rates.log_rate(glued, a + 1e-9), abs=1e-7)
    assert rates.validate_rate(glued, 5).ok


def test_find_crossover_needs_sign_change():
    # exp(t) > 1 + t for every t > 0, so these two never cross
    with pytest.raises(rates.RateError):
        rates.find_crossover(catalog.rate("exp", CONTINUOUS), catalog.rate("p", CONTINUOUS))


def test_symbolic_compare_power_pairs():
    prof = rates.symbolic_compare(Q, EXP)
    assert prof.faster_ab and not prof.faster_ba
    assert prof.weakly_ab and not prof.weakly_ba
    assert prof.below_ba and not prof.below_ab
    prof = rates.symbolic_compare(EXP, P)
    assert prof.faster_ab and not prof.faster_ba
    scaled = rates.PowerExp(1.0, 3.0, DISCRETE)
    prof = rates.symbolic_compare(scaled, EXP)
    assert prof.equivalent
    assert not prof.weakly_equivalent
    assert not prof.faster_ab and not prof.faster_ba
    assert prof.weakly_ab and not prof.weakly_ba
    same = rates.symbolic_compare(rates.PowerExp(2.0, 1.5, DISCRETE),
                                  rates.PowerExp(2.0, 1.5, DISCRETE))
    assert same.weakly_equivalent and same.equivalent


def test_symbolic_compare_declines_expression_rates():
    expr = rates.ExpressionRate("t", DISCRETE)
    assert rates.symbolic_compare(expr, EXP) is None
    assert rates.symbolic_compare(catalog.rate("glued_c_p", CONTINUOUS),
                                  catalog.rate("c", CONTINUOUS)) is None


def test_descriptor_round_trip():
    samples = [
        catalog.rate("p", DISCRETE),
        catalog.rate("exp", CONTINUOUS),
        rates.PowerExp(2.5, 0.75, DISCRETE),
        rates.ExpressionRate("sgn(t)*abs(t)^1.5", CONTINUOUS),
        catalog.rate("glued_c_p", CONTINUOUS),
    ]
    for rate in samples:
        desc = rates.rate_to_descriptor(rate)
        assert rates.rate_from_descriptor(desc) == rate


def test_descriptor_validation_paths():
    with pytest.raises(rates.RateError, match="rate.kind"):
        rates.rate_from_descriptor({"kind": "mystery", "time_domain": DISCRETE})
    with pytest.raises(rates.RateError, match="rate.p"):
        rates.rate_from_descriptor({"kind": "power_exp", "p": "two",
                                    "time_domain": DISCRETE})
    with pytest.raises(rates.RateError, match="rate.inner"):
        rates.rate_from_descriptor({"kind": "glued", "inner": 3, "outer": {},
                                    "time_domain": CONTINUOUS})
    with pytest.raises(rates.RateError, match="time_domain"):
        rates.rate_from_descriptor({"kind": "polynomial"})


def test_glued_descriptor_computes_missing_crossover():
    desc = {
        "kind": "glued",
        "inner": {"kind": "power_exp", "p": 3.0, "lambda": 1.0},
        "outer": {"kind": "polynomial"},
        "time_domain": CONTINUOUS,
    }
    glued = rates.rate_from_descriptor(desc)
    assert glued.crossover == pytest.approx(catalog.rate("glued_c_p", CONTINUOUS).crossover,
                                            abs=1e-9)


@pytest.mark.parametrize("crossover", [True, math.nan, 0.0, -1.0, "1", math.inf, 10 ** 400])
def test_glued_descriptor_rejects_a_bad_crossover(crossover):
    desc = {"kind": "glued", "inner": {"kind": "power_exp", "p": 3.0},
            "outer": {"kind": "polynomial"}, "crossover": crossover,
            "time_domain": CONTINUOUS}
    with pytest.raises(rates.RateError, match="rate.crossover: expected a positive number"):
        rates.rate_from_descriptor(desc)

def test_power_exp_rejects_bad_parameters():
    with pytest.raises(rates.RateError):
        rates.PowerExp(-1.0, 1.0, DISCRETE)
    with pytest.raises(rates.RateError):
        rates.PowerExp(2.0, 0.0, DISCRETE)
    with pytest.raises(rates.RateError):
        rates.Glued(catalog.rate("c", CONTINUOUS), catalog.rate("p", DISCRETE),
                    1.0, CONTINUOUS)


_C3 = catalog.rate("c", CONTINUOUS)
_P1 = catalog.rate("p", CONTINUOUS)


@pytest.mark.parametrize("build, field", [
    (lambda: rates.PowerExp(math.inf), "PowerExp.p"),
    (lambda: rates.PowerExp(math.nan), "PowerExp.p"),
    (lambda: rates.PowerExp(1.0, math.inf), "PowerExp.lam"),
    (lambda: rates.Glued(_C3, _P1, math.nan, CONTINUOUS), "Glued.crossover"),
    (lambda: rates.Glued(_C3, _P1, math.inf, CONTINUOUS), "Glued.crossover"),
    (lambda: rates.find_crossover(_C3, _P1, hi=-1.0), "find_crossover: hi"),
    (lambda: rates.find_crossover(_C3, _P1, hi=math.inf), "find_crossover: hi"),
    (lambda: rates.find_crossover(_C3, _P1, hi=math.nan), "find_crossover: hi"),
], ids=["p_inf", "p_nan", "lam_inf", "crossover_nan", "crossover_inf", "hi_negative",
        "hi_inf", "hi_nan"])
def test_rate_parameters_must_be_positive_and_finite(build, field):
    """What rate_from_descriptor rejects, the records reject too, by field
    and before any sampling (no numpy warning on the way)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(rates.RateError, match=f"^{field} must be a positive finite number"):
            build()
