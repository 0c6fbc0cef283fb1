import itertools

import pytest

from muspec import catalog, rates, relations, theorems
from muspec.params import CONTINUOUS, DISCRETE, Params
from muspec.relations import FAILS, HOLDS


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


def test_affine_prefilter_runs_once_per_ordered_pair():
    relations._affine_prefilter.cache_clear()
    theorems.run_all()
    # the almost-checks of one run ask for it 24 times, on 11 distinct
    # ordered (mu, omega, params)
    info = relations._affine_prefilter.cache_info()
    assert (info.misses, info.hits + info.misses) == (11, 24)


def test_forward_backward_formulations_agree():
    for a, b in itertools.permutations(CATALOG.values(), 2):
        fwd = relations.check_faster(a, b, formulation="forward")
        bwd = relations.check_faster(a, b, formulation="backward")
        assert fwd.outcome == bwd.outcome
        if fwd.outcome == HOLDS:
            for key, val in fwd.certificate["sup_envelope"].items():
                assert val == pytest.approx(bwd.certificate["sup_envelope"][key], abs=1e-9)


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
