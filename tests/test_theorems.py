import json
import math
import random

import pytest

from muspec import catalog, evolution, rates, relations, spectrum, theorems
from muspec.params import CONTINUOUS, DEFAULT, DISCRETE, Params


INF = math.inf


@pytest.fixture(scope="module")
def fixtures():
    return {f.name: f for f in theorems.catalog_fixtures()}


@pytest.fixture(scope="module")
def spectra_cache():
    return {}


def _rate_for(fixture, name):
    return catalog.rate(name, fixture.system.time_domain)


def _spectrum(cache, fixture, rate):
    return theorems._memo(cache, spectrum.compute_spectrum, fixture.system, rate, DEFAULT)


def test_closed_forms_match_propagation(fixtures):
    rng = random.Random(11)
    for fx in fixtures.values():
        domain = fx.system.time_domain
        for _ in range(6):
            k = rng.randint(-20, 20)
            n = rng.randint(-20, 20)
            got = evolution.propagate(fx.system, k, n).log_norm
            want = fx.closed_form(0, k, n)
            tol = 1e-12 * max(1.0, abs(want)) if domain == DISCRETE else 1e-6
            assert abs(got - want) <= tol, (fx.name, k, n)


def test_quotient_fixture_generation():
    q = catalog.rate("q", DISCRETE)
    fx = theorems.generate_quotient_system(q, [1.0])
    assert fx.system.structure == "scalar"
    assert fx.closed_form(0, 5, 2) == pytest.approx(21.0)
    rep = spectrum.compute_spectrum(fx.system, q)
    assert rep.intervals[0].lo == pytest.approx(1.0, abs=1e-12)
    exp = catalog.rate("exp", DISCRETE)
    flat = theorems.generate_quotient_system(exp, [0.0])
    rep = spectrum.compute_spectrum(flat.system, exp)
    assert rep.intervals[0].lo == 0.0 and rep.intervals[0].hi == 0.0
    c = catalog.rate("c", DISCRETE)
    like_frak_a = theorems.generate_quotient_system(c, [-1.0])
    for k, n in [(5, 2), (-3, 4)]:
        assert like_frak_a.closed_form(0, k, n) == pytest.approx(-(k ** 3 - n ** 3))


def test_verify_805_passes_on_catalog(fixtures, spectra_cache):
    rows = [
        ("abs2t", "q", "exp"),
        ("abs2t", "q", "p"),
        ("frak_a", "c", "exp"),
        ("frak_a", "c", "q"),
        ("sq3t2", "c", "q"),
        ("disc_q", "q", "exp"),
    ]
    for fx_name, mu_name, omega_name in rows:
        fx = fixtures[fx_name]
        report = theorems.verify_805(
            fx.system, _rate_for(fx, mu_name), _rate_for(fx, omega_name),
            fixture=fx_name, cache=spectra_cache)
        assert report.status == "pass", (fx_name, report.reason)


def test_verify_805_skips_without_dichotomy(fixtures, spectra_cache):
    fx = fixtures["identity"]
    report = theorems.verify_805(fx.system, _rate_for(fx, "q"),
                                 _rate_for(fx, "exp"), fixture="identity",
                                 cache=spectra_cache)
    assert report.status == "skipped"
    assert "system_has_mu_dichotomy" in report.reason
    exp = catalog.rate("exp", DISCRETE)
    drift = theorems.generate_quotient_system(exp, [1.0])
    report = theorems.verify_805(drift.system, catalog.rate("q", DISCRETE), exp,
                                 fixture=drift.name)
    assert report.status == "skipped"


def test_verify_806_rows(fixtures, spectra_cache):
    fx = fixtures["abs2t"]
    report = theorems.verify_806(fx.system, _rate_for(fx, "q"), _rate_for(fx, "c"),
                                 fixture="abs2t", cache=spectra_cache)
    assert report.status == "pass"
    fx = fixtures["inv1pt"]
    report = theorems.verify_806(fx.system, _rate_for(fx, "p"), _rate_for(fx, "q"),
                                 fixture="inv1pt", cache=spectra_cache)
    assert report.status == "pass"
    # a hypothesis that fails is reported as skipped, not assumed
    fx = fixtures["sq3t2"]
    report = theorems.verify_806(fx.system, _rate_for(fx, "c"), _rate_for(fx, "q"),
                                 fixture="sq3t2", cache=spectra_cache)
    assert report.status == "skipped"
    assert "mu_faster_than_omega" in report.reason


def test_verify_808_809_on_quotient_fixtures():
    q = catalog.rate("q", DISCRETE)
    exp = catalog.rate("exp", DISCRETE)
    pe12 = rates.PowerExp(1.0, 2.0, DISCRETE)
    down = theorems.generate_quotient_system(q, [-2.0])
    report = theorems.verify_808_809(down.system, q, exp, a=1.0, variant="808i",
                                     fixture=down.name)
    assert report.status == "pass"
    up = theorems.generate_quotient_system(q, [2.0])
    report = theorems.verify_808_809(up.system, q, exp, a=1.0, variant="808ii",
                                     fixture=up.name)
    assert report.status == "pass"
    pair = theorems.generate_quotient_system(exp, [-1.0, 1.0])
    for variant, kwargs in [
        ("809i", {"b": 1.0}),
        ("809ii", {"a": -1.0}),
        ("809iii", {"a": -1.0, "b": 1.0}),
    ]:
        report = theorems.verify_808_809(pair.system, pe12, exp, variant=variant,
                                         fixture=pair.name, **kwargs)
        assert report.status == "pass", (variant, report.reason)
    degenerate = theorems.generate_quotient_system(exp, [0.0])
    report = theorems.verify_808_809(degenerate.system, pe12, exp, b=0.0,
                                     variant="809i", fixture=degenerate.name)
    assert report.status == "pass"
    report = theorems.verify_808_809(pair.system, pe12, exp, b=INF,
                                     variant="809i", fixture=pair.name)
    assert report.status == "skipped"
    assert "nothing to prove" in report.reason


def test_verify_811_finds_the_strong_rate(fixtures, spectra_cache):
    expectations = {"abs2t": "q", "inv1pt": "p", "sq3t2": "c"}
    names = ["p", "exp", "q", "c"]
    for fx_name, strong in expectations.items():
        fx = fixtures[fx_name]
        chain = [catalog.rate(n, CONTINUOUS) for n in names]
        report = theorems.verify_811(fx.system, chain, fixture=fx_name,
                                     rate_names=names, cache=spectra_cache)
        assert report.status == "pass"
        assert report.conclusion["detail"] == f"strong rate: {strong}"


def test_verify_811_rejects_unordered_chain(fixtures):
    fx = fixtures["abs2t"]
    names = ["c", "q"]
    chain = [catalog.rate(n, CONTINUOUS) for n in names]
    report = theorems.verify_811(fx.system, chain, fixture="abs2t", rate_names=names)
    assert report.status == "skipped"
    assert "chain_is_ordered" in report.reason


def test_verify_811_rejects_rate_names_of_the_wrong_length(fixtures):
    chain = [catalog.rate(n, CONTINUOUS) for n in ("p", "exp", "q", "c")]
    with pytest.raises(ValueError, match="rate_names"):
        theorems.verify_811(fixtures["abs2t"].system, chain, rate_names=["p"])


def test_verify_908_runs_only_the_checks_it_reads(fixtures, monkeypatch):
    """The almost checks run only when weak equivalence does not hold, and
    no faster check runs."""
    calls = {"check_faster": 0, "check_almost": 0}
    for name, original in [(n, getattr(relations, n)) for n in calls]:
        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(relations, name, counted)
    q_c = catalog.rate("q", CONTINUOUS)
    report = theorems.verify_908(fixtures["abs2t"].system, q_c, q_c, fixture="abs2t")
    assert report.theorem == "908i"
    assert calls == {"check_faster": 0, "check_almost": 0}
    exp = catalog.rate("exp", DISCRETE)
    fx = theorems.generate_quotient_system(exp, [-1.0, 1.0])
    report = theorems.verify_908(fx.system, exp, rates.PowerExp(1.0, 3.0, DISCRETE),
                                 fixture=fx.name)
    assert report.theorem == "908ii"
    assert calls == {"check_faster": 0, "check_almost": 4}


def test_verify_908_weak_equivalence():
    c_cont = catalog.rate("c", CONTINUOUS)
    glued = catalog.rate("glued_c_p", CONTINUOUS)
    fx = theorems.generate_quotient_system(c_cont, [1.0])
    report = theorems.verify_908(fx.system, c_cont, glued, fixture=fx.name)
    assert report.theorem == "908i"
    assert report.status == "pass"


def test_verify_908_qualitative_equivalence():
    exp = catalog.rate("exp", DISCRETE)
    pe13 = rates.PowerExp(1.0, 3.0, DISCRETE)
    fx = theorems.generate_quotient_system(exp, [-1.0, 1.0])
    report = theorems.verify_908(fx.system, exp, pe13, fixture=fx.name)
    assert report.theorem == "908ii"
    assert report.status == "pass"
    assert "ranks [0, 1, 2]" in report.conclusion["detail"]
    # the spectra themselves differ by the scale factor three
    rep_exp = spectrum.compute_spectrum(fx.system, exp)
    rep_scaled = spectrum.compute_spectrum(fx.system, pe13)
    assert [iv.lo for iv in rep_exp.intervals] == [-1.0, 1.0]
    assert [round(iv.lo, 9) for iv in rep_scaled.intervals] == [
        pytest.approx(-1 / 3), pytest.approx(1 / 3)]


def test_verify_908_trivial_same_rate(fixtures):
    fx = fixtures["abs2t"]
    q_c = catalog.rate("q", CONTINUOUS)
    report = theorems.verify_908(fx.system, q_c, q_c, fixture="abs2t")
    assert report.theorem == "908i"
    assert report.status == "pass"


def test_dichotomy_excludes_slower_growth(fixtures, spectra_cache):
    """A confirmed dichotomy under mu forbids bounded growth under any
    strictly slower catalog rate."""
    names = ["p", "exp", "q", "c"]
    for fx in fixtures.values():
        domain = fx.system.time_domain
        for mu_name in names:
            mu = catalog.rate(mu_name, domain)
            dich = spectrum.has_mu_dichotomy(fx.system, mu,
                                             report=_spectrum(spectra_cache, fx, mu))
            if dich.holds is not True:
                continue
            for omega_name in names:
                if omega_name == mu_name:
                    continue
                omega = catalog.rate(omega_name, domain)
                if relations.check_faster(mu, omega).outcome != relations.HOLDS:
                    continue
                growth = spectrum.has_mu_growth(
                    fx.system, omega, report=_spectrum(spectra_cache, fx, omega))
                assert growth.status == "fails", (fx.name, mu_name, omega_name)


def test_growth_excludes_faster_dichotomy(fixtures, spectra_cache):
    """Confirmed bounded growth under omega forbids a confirmed dichotomy
    under any strictly faster catalog rate."""
    names = ["p", "exp", "q", "c"]
    for fx in fixtures.values():
        domain = fx.system.time_domain
        for omega_name in names:
            omega = catalog.rate(omega_name, domain)
            growth = spectrum.has_mu_growth(
                fx.system, omega, report=_spectrum(spectra_cache, fx, omega))
            if growth.status != "holds":
                continue
            for mu_name in names:
                if mu_name == omega_name:
                    continue
                mu = catalog.rate(mu_name, domain)
                if relations.check_faster(mu, omega).outcome != relations.HOLDS:
                    continue
                dich = spectrum.has_mu_dichotomy(
                    fx.system, mu, report=_spectrum(spectra_cache, fx, mu))
                assert dich.holds is not True, (fx.name, omega_name, mu_name)


def test_run_all_reports_no_failures():
    reports = theorems.run_all()
    statuses = [r.status for r in reports]
    assert "fail" not in statuses
    assert statuses.count("pass") >= 25
    payloads = [r.to_dict() for r in reports]
    for p in payloads:
        assert {"theorem", "fixture", "rates", "status", "details"} <= set(p)


def test_run_all_checks_each_faster_pair_once(monkeypatch):
    calls = {"compute_spectrum": 0, "check_faster": 0, "chain_check": 0,
             "check_weakly_faster": 0}
    for module, name in [(theorems, "compute_spectrum"), (relations, "check_faster"),
                         (relations, "chain_check"), (relations, "check_weakly_faster")]:
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    theorems.run_all()
    # the 19 rows of 805 and 806 ask about 12 distinct (mu, omega) pairs,
    # each checked once; the 908 rows ask for no faster check.  The 808/809
    # rows share their weakly-faster verdicts with each other and with the
    # faster checks, which also run it, and the 811 rows share the two chains.
    assert calls == {"compute_spectrum": 36, "check_faster": 12, "chain_check": 2,
                     "check_weakly_faster": 8}


def test_cache_keeps_systems_with_the_same_label_apart(fixtures):
    """Two systems verified under the default fixture label do not share
    spectra: the second call answers as an uncached one."""
    q, exp = catalog.rate("q", DISCRETE), catalog.rate("exp", DISCRETE)
    cache = {}
    first = theorems.verify_805(fixtures["disc_q"].system, q, exp, cache=cache)
    assert first.status == "pass"
    cached = theorems.verify_805(fixtures["identity"].system, q, exp, cache=cache)
    uncached = theorems.verify_805(fixtures["identity"].system, q, exp)
    assert uncached.status == "skipped"
    assert cached.to_dict() == uncached.to_dict()


def test_cache_keeps_params_apart(fixtures):
    """A short schedule's inconclusive verdicts are not reused at the
    default parameters."""
    q, exp = catalog.rate("q", DISCRETE), catalog.rate("exp", DISCRETE)
    system = fixtures["disc_q"].system
    cache = {}
    theorems.verify_805(system, q, exp, params=Params(schedule=(5, 10)),
                        fixture="disc_q", cache=cache)
    cached = theorems.verify_805(system, q, exp, fixture="disc_q", cache=cache)
    uncached = theorems.verify_805(system, q, exp, fixture="disc_q")
    assert uncached.status == "pass"
    assert cached.to_dict() == uncached.to_dict()


def test_rate_labels_come_from_the_catalog():
    for domain in (DISCRETE, CONTINUOUS):
        for name in catalog.RATE_NAMES:
            assert theorems._rate_label(catalog.rate(name, domain)) == name
    assert theorems._rate_label(rates.PowerExp(1.0, 2.0, DISCRETE)) == \
        "power_exp(p=1,lambda=2)"
    c, p = catalog.rate("c", CONTINUOUS), catalog.rate("p", CONTINUOUS)
    assert theorems._rate_label(rates.Glued(c, p, 2.0, CONTINUOUS)) == "glued(crossover=2)"
    assert theorems._rate_label(rates.ExpressionRate("k", DISCRETE)) == "expression(k)"


def test_run_all_is_deterministic():
    first = json.dumps([r.to_dict() for r in theorems.run_all()], sort_keys=True)
    second = json.dumps([r.to_dict() for r in theorems.run_all()], sort_keys=True)
    assert first == second
