import json
import math
import random
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from muspec import catalog, evolution, exprparse, rates, spectrum
from muspec.params import CONTINUOUS, DISCRETE, Params


def _sgn(x):
    return 1.0 if x > 0 else (-1.0 if x < 0 else 0.0)


DISC_Q = catalog.system("disc_q")
FRAK_A = catalog.system("frak_a")
ABS2T = catalog.system("abs2t")


def test_discrete_quadratic_products():
    assert evolution.propagate(DISC_Q, 2, 0).log_norm == pytest.approx(4.0, abs=1e-12)
    ident = evolution.propagate(DISC_Q, 5, 5)
    assert ident.log_norm == 0.0
    assert np.array_equal(ident.unit, np.eye(1))
    # backward products are inverse products
    assert evolution.propagate(DISC_Q, 0, 2).log_norm == pytest.approx(-4.0, abs=1e-12)


def test_disc_q_matches_quadratic_quotient():
    for k, n in [(3, -2), (-5, -1), (7, 0), (0, -6)]:
        got = evolution.propagate(DISC_Q, k, n).log_norm
        want = _sgn(k) * k * k - _sgn(n) * n * n
        assert got == pytest.approx(want, abs=1e-12)


def test_frak_a_closed_form_and_range():
    for k, n in [(4, 1), (-3, -7), (50, -50), (300, 0)]:
        got = evolution.propagate(FRAK_A, k, n).log_norm
        want = -(k ** 3 - n ** 3)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-9)


def test_continuous_scalar_quadrature():
    assert evolution.propagate(ABS2T, 3, 1).log_norm == pytest.approx(8.0, abs=1e-6)
    # windows straddling the kink at zero
    assert evolution.propagate(ABS2T, 3, -1).log_norm == pytest.approx(10.0, abs=1e-6)
    assert evolution.propagate(ABS2T, 2, -2).log_norm == pytest.approx(8.0, abs=1e-6)
    assert evolution.propagate(ABS2T, -2, 2).log_norm == pytest.approx(-8.0, abs=1e-6)
    inv = catalog.system("inv1pt")
    want = math.log1p(5.0) + math.log1p(2.0)
    assert evolution.propagate(inv, 5, -2).log_norm == pytest.approx(want, abs=1e-6)


def test_weighted_propagation():
    q = catalog.rate("q", DISCRETE)
    w = evolution.WeightedSystem(DISC_Q, q, gamma=1.0)
    assert evolution.weighted_propagate(w, 5, 2).log_norm == pytest.approx(0.0, abs=1e-12)
    exp = catalog.rate("exp", DISCRETE)
    drift = evolution.quotient_system(exp, [1.0])
    w2 = evolution.WeightedSystem(drift, exp, gamma=2.0)
    assert evolution.weighted_propagate(w2, 4, 1).log_norm == pytest.approx(-3.0, abs=1e-12)
    w0 = evolution.WeightedSystem(drift, exp, gamma=0.0)
    plain = evolution.propagate(drift, 9, -3)
    weighted = evolution.weighted_propagate(w0, 9, -3)
    assert weighted.log_norm == plain.log_norm
    assert np.array_equal(weighted.unit, plain.unit)


def test_weighted_recovers_plain_in_log_domain():
    q = catalog.rate("q", DISCRETE)
    w = evolution.WeightedSystem(DISC_Q, q, gamma=0.75)
    for k, n in [(6, -2), (-4, 3)]:
        shifted = evolution.weighted_propagate(w, k, n).log_norm
        quot = rates.log_quotient(q, k, n).value
        plain = evolution.propagate(DISC_Q, k, n).log_norm
        assert shifted + 0.75 * quot == pytest.approx(plain, abs=1e-12)


def test_cocycle_property_discrete():
    rng = random.Random(7)
    for system in (DISC_Q, FRAK_A):
        for _ in range(25):
            k, m, n = (rng.randint(-40, 40) for _ in range(3))
            left = evolution.propagate(system, k, m).compose(
                evolution.propagate(system, m, n))
            right = evolution.propagate(system, k, n)
            assert left.definitely_close(right, 1e-9)


def test_cocycle_property_continuous():
    left = evolution.propagate(ABS2T, 7.0, 2.0).compose(
        evolution.propagate(ABS2T, 2.0, -3.0))
    right = evolution.propagate(ABS2T, 7.0, -3.0)
    assert abs(left.log_norm - right.log_norm) <= 1e-6 * max(1.0, abs(right.log_norm))


def test_forward_backward_inverse():
    for system, k, n in [(DISC_Q, 6, -3), (FRAK_A, -5, 4)]:
        product = evolution.propagate(system, k, n).compose(
            evolution.propagate(system, n, k))
        assert product.definitely_close(evolution.ScaledMatrix.identity(1), 1e-9)


def test_operator_norm_bounds():
    ident = evolution.ScaledMatrix.identity(3)
    assert evolution.operator_norm_bounds(ident) == (0.0, 0.0)
    diag = evolution.ScaledMatrix.from_matrix(np.diag([math.exp(3), math.exp(-1)]))
    hi, lo = evolution.operator_norm_bounds(diag)
    assert hi == pytest.approx(3.0, abs=1e-12)
    assert lo == pytest.approx(-1.0, abs=1e-12)
    scalar = evolution.ScaledMatrix(np.array([[1.0]]), 8.0)
    assert evolution.operator_norm_bounds(scalar) == (8.0, 8.0)
    singular = evolution.ScaledMatrix.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert evolution.operator_norm_bounds(singular)[1] == -math.inf


def _rotation(theta: float, d: int = 2) -> np.ndarray:
    """A d x d rotation: Givens rotations by theta * (i + 1) in the planes
    (i, i + 1), composed; for d = 2 the rotation by theta."""
    r = np.eye(d)
    for i in range(d - 1):
        g = np.eye(d)
        c, s = math.cos(theta * (i + 1)), math.sin(theta * (i + 1))
        g[i:i + 2, i:i + 2] = [[c, -s], [s, c]]
        r = g @ r
    return r


def test_full_discrete_rotated_constant():
    rot = _rotation(0.6)
    a = rot @ np.diag([math.e, math.exp(-1.0)]) @ rot.T
    system = evolution.tabulated_system(-30, np.tile(a, (61, 1, 1)))
    phi = evolution.propagate(system, 20, 0)
    hi, lo = evolution.operator_norm_bounds(phi)
    assert hi == pytest.approx(20.0, abs=1e-9)
    back = evolution.propagate(system, 0, 20)
    hi_b, _ = evolution.operator_norm_bounds(back)
    assert hi_b == pytest.approx(20.0, abs=1e-9)


def test_full_continuous_rk4():
    rot = _rotation(0.3)
    gen = rot @ np.diag([0.5, -0.25]) @ rot.T
    entries = [[f"{gen[i, j]:.17g}" for j in range(2)] for i in range(2)]
    system = evolution.full_system(CONTINUOUS, entries)
    phi = evolution.propagate(system, 6.0, 2.0)
    hi, lo = evolution.operator_norm_bounds(phi)
    assert hi == pytest.approx(0.5 * 4.0, abs=1e-6)
    assert lo == pytest.approx(-0.25 * 4.0, abs=1e-6)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_magnus_matches_exact_propagators(seed):
    """Against closed forms, forward and backward, over spans of up to 3
    (30 steps): a constant generator R diag(l) R^T with |l_i| <= 60 has the
    propagator R diag(exp(l_i (t - s))) R^T; an upper-triangular generator
    with constant entries above a diagonal of polynomials p_i of degree up
    to 3 keeps the zeros below the diagonal, and Phi_ii = exp(int_s^t p_i)
    (Simpson's nodes integrate a cubic exactly, and commutators of
    triangular matrices vanish on the diagonal)."""
    rng = random.Random(seed)
    frm = rng.uniform(-3.0, 3.0)
    to = frm + rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0)
    lam = np.array([rng.uniform(-60.0, 60.0) for _ in range(2)])
    rot = _rotation(rng.uniform(0.0, math.pi))
    gen = rot @ np.diag(lam) @ rot.T
    phi = evolution.propagate(
        evolution.full_system(CONTINUOUS, [[repr(v) for v in row] for row in gen.tolist()]),
        to, frm)
    logs = lam * (to - frm)
    assert phi.log_norm == pytest.approx(logs.max(), rel=1e-12, abs=1e-12)
    assert np.abs(phi.unit - rot @ np.diag(np.exp(logs - logs.max())) @ rot.T).max() < 1e-12
    d = rng.choice([2, 3])
    rows = [["0"] * d for _ in range(d)]
    integrals = []
    for i in range(d):
        cs = [rng.uniform(-3.0, 3.0) for _ in range(rng.randint(1, 4))]
        rows[i][i] = "+".join(f"({c!r})" + "*t" * k for k, c in enumerate(cs))
        integrals.append(sum(c * (to ** (k + 1) - frm ** (k + 1)) / (k + 1)
                             for k, c in enumerate(cs)))
        for j in range(i + 1, d):
            rows[i][j] = repr(rng.uniform(-2.0, 2.0))
    phi = evolution.propagate(evolution.full_system(CONTINUOUS, rows), to, frm)
    assert not np.tril(phi.unit, -1).any()
    assert np.abs(np.diagonal(phi.unit) - np.exp(np.array(integrals) - phi.log_norm)).max() < 1e-10


def test_magnus_exponent_sums_stay_in_int64():
    """A step's exponential takes about log2(||Omega||_1) squarings, each
    doubling the lane's int64 exponent sum: diag(1000, -1000) over [0, 1]
    (8 squarings a step) has log-norm 1000 to 1e-9, and diag(1e100, 1),
    whose steps would need 330, raises the named error, with no numpy
    warning, where doubling 330 times would wrap the sum."""
    stiff = evolution.full_system(CONTINUOUS, [["1000", "0"], ["0", "-1000"]])
    assert abs(evolution.propagate(stiff, 1.0, 0.0).log_norm - 1000.0) <= 1e-9
    huge = evolution.full_system(CONTINUOUS, [["1e100", "0"], ["0", "1"]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(evolution.EvolutionError) as info:
            evolution.propagate(huge, 1.0, 0.0)
    assert str(info.value) == "propagator from time 0 to 1 is not finite during integration"


def test_quotient_system_realizations():
    q = catalog.rate("q", DISCRETE)
    fixture = evolution.quotient_system(q, [-2.0])
    assert evolution.propagate(fixture, 5, 1).log_norm == pytest.approx(-48.0, abs=1e-10)
    c = catalog.rate("c", CONTINUOUS)
    cont = evolution.quotient_system(c, [1.0])
    assert evolution.propagate(cont, 3.0, 1.0).log_norm == pytest.approx(26.0, abs=1e-9)


def test_component_log_grid_matches_propagate():
    times, logs = evolution.component_log_grid(DISC_Q, 12)
    for idx, t in enumerate(times):
        want = evolution.propagate(DISC_Q, int(t), 0).log_norm
        assert logs[0][idx] == pytest.approx(want, abs=1e-9)


def _plain_lobatto(system, lo, hi):
    """Integrals of the diagonal coefficients over one segment [lo, hi]
    the plain way: 6-point Gauss-Lobatto on ceil(4 (hi - lo)) equal panels,
    listed panel by panel and node by node, a shared panel end once with
    both panels' weights.  A segment left of 0 is its mirror segment
    [0.0 - hi, 0.0 - lo], with the coefficients read at 0.0 - node."""
    mirror = hi <= 0.0
    if mirror:
        lo, hi = 0.0 - hi, 0.0 - lo
    r7 = math.sqrt(7.0)
    inner, outer = math.sqrt(1 / 3 - 2 * r7 / 21), math.sqrt(1 / 3 + 2 * r7 / 21)
    rule = [(-1.0, 1 / 15), (-outer, (14 - r7) / 30), (-inner, (14 + r7) / 30),
            (inner, (14 + r7) / 30), (outer, (14 - r7) / 30), (1.0, 1 / 15)]
    panels = max(1, math.ceil((hi - lo) / 0.25))
    nodes, weights = [], []
    for p in range(panels):
        for j, (x, w) in enumerate(rule):
            if p and not j:
                weights[-1] += w
                continue
            nodes.append(lo + (p + (1 + x) / 2) / panels * (hi - lo))
            weights.append(w)
    nodes[-1] = hi
    xs = np.array([0.0 - x for x in nodes] if mirror else nodes)
    vals = exprparse.evaluate_array(system.source.diag, {"t": xs, "k": xs})
    return (hi - lo) / (2 * panels) * (np.array(weights)[:, None] * vals).sum(axis=0)


def _plain_diag_step(system, t):
    """log |Psi_ii(t + 1, t)| the plain way: a rate quotient's closed form,
    one discrete step evaluated in log space point by point, or one
    Gauss-Lobatto segment of its own."""
    src = system.source
    if isinstance(src, evolution.RateQuotientSource):
        # a quotient mu(t)^s / mu(t+1)^s is never zero: a -inf log is an underflow
        step = rates.log_rate(src.rate, t + 1) - rates.log_rate(src.rate, t)
        return np.array([s * step for s in src.slopes])
    if system.time_domain == DISCRETE:
        k = int(t)
        if isinstance(src, evolution.TableSource):
            diag = np.diag(src.stack([k])[0])
            with np.errstate(divide="ignore"):
                la, sg = np.where(diag == 0, -np.inf, np.log(np.abs(diag))), np.sign(diag)
        else:
            pairs = [exprparse.evaluate_log_abs(e, {"t": float(k), "k": float(k)})
                     for e in src.diag]
            la, sg = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs], float)
        if np.any(sg == 0) or np.any(la == -math.inf):
            raise evolution.EvolutionError(f"coefficient matrix is singular at time {k}")
        return la
    return _plain_lobatto(system, t, t + 1.0)


def _plain_component_log_grid(obj, window):
    """component_log_grid the plain way: walk out from 0, first ahead and
    then behind, one unit step at a time."""
    if isinstance(obj, evolution.WeightedSystem):
        times, logs = _plain_component_log_grid(obj.base, window)
        return times, logs - obj.gamma * rates.log_rate_values(obj.rate, times)[None, :]
    times = np.arange(-window, window + 1, dtype=float)
    logs = np.zeros((obj.components, len(times)))
    for m in range(window, 2 * window):
        logs[:, m + 1] = logs[:, m] + _plain_diag_step(obj, times[m])
    for m in range(window, 0, -1):
        logs[:, m - 1] = logs[:, m] - _plain_diag_step(obj, times[m - 1])
    return times, logs


def test_component_log_grids_match_plain_unit_steps():
    exp_d, q_d = catalog.rate("exp", DISCRETE), catalog.rate("q", DISCRETE)
    c_c, q_c = catalog.rate("c", CONTINUOUS), catalog.rate("q", CONTINUOUS)
    rng = np.random.default_rng(4)
    table = evolution.tabulated_system(-1600, rng.uniform(-2, 2, (3201, 3, 3)),
                                       structure=evolution.DIAGONAL)
    three_c = evolution.diagonal_system(CONTINUOUS, ["2*abs(t)", "-1/(1+abs(t))", "t"])
    three_d = evolution.diagonal_system(DISCRETE, ["exp(0.3*abs(2*k+1))", "-2", "(k^2+1)/3"])
    cases = [
        (ABS2T, 640), (catalog.system("inv1pt"), 40), (catalog.system("sq3t2"), 40),
        (three_c, 640), (evolution.quotient_system(c_c, [1.0]), 160),
        (evolution.quotient_system(c_c, [-2.0, 0.5]), 20),
        (evolution.WeightedSystem(ABS2T, q_c, 0.7), 40),
        (FRAK_A, 1600), (DISC_Q, 1600), (catalog.system("identity"), 400),
        (three_d, 1600), (table, 1600),
        (evolution.quotient_system(q_d, [-2.0, 0.5, 1.5]), 1600),
        (evolution.quotient_system(exp_d, [1.0]), 400),
        (evolution.WeightedSystem(DISC_Q, exp_d, 0.4), 400),
    ]
    for obj, window in cases:
        times, logs = evolution.component_log_grid(obj, window)
        want_times, want_logs = _plain_component_log_grid(obj, window)
        assert times.tobytes() == want_times.tobytes()
        assert logs.tobytes() == want_logs.tobytes(), (obj, window)
    # propagate sums the same unit steps from 0.0, forward, then negates behind
    for system, to, frm in ((DISC_Q, 9, -4), (three_d, -7, 5), (table, 30, 0),
                            (ABS2T, 7, -5), (three_c, -6, 3), (catalog.system("inv1pt"), 4, 0),
                            (evolution.quotient_system(c_c, [-2.0, 0.5]), -3, 5)):
        lo, hi = min(to, frm), max(to, frm)
        total = np.zeros(system.components)
        for k in range(lo, hi):
            total += _plain_diag_step(system, float(k))
        got = evolution.propagate(system, to, frm).diag_logs
        assert got.tobytes() == (total if to > frm else -total).tobytes()
    # continuous spans with fractional ends, whose first and last segments
    # are partial: a quotient's closed form, or a Gauss-Lobatto integral
    # (left of 0, of the mirror segment), per segment, summed from 0.0
    quotient = evolution.quotient_system(c_c, [-2.0, 0.5])
    for system, frm, to in ((quotient, -2.6, 4.3), (ABS2T, -7.0, -2.5), (three_c, -6.0, -0.5),
                            (three_c, -2.75, 1.5)):
        cuts = sorted({frm, *map(float, range(math.ceil(frm), math.floor(to) + 1)), to})
        total = np.zeros(system.components)
        for lo, hi in zip(cuts, cuts[1:]):
            if system is quotient:
                total += evolution._quotient_logs(system.source, np.array([lo]), np.array([hi]))[0]
            else:
                total += _plain_lobatto(system, lo, hi)
        for a, b, want in ((to, frm, total), (frm, to, -total)):
            assert evolution.propagate(system, a, b).diag_logs.tobytes() == want.tobytes()


@pytest.mark.parametrize("window", [40, 400])
def test_simpson_integrals_do_not_depend_on_the_block(monkeypatch, window):
    three = evolution.diagonal_system(CONTINUOUS, ["2*abs(t)", "-1/(1+abs(t))", "t^3/5"])
    left = np.arange(-window, window, dtype=float)
    for system in (catalog.system("sq3t2"), three):
        got = set()
        # 21 nodes make a unit segment: blocks below, at and above it
        for block in (1, 20, 21, 22, 101, 1 << 11, 1 << 13):
            monkeypatch.setattr(evolution, "_LOBATTO_BLOCK", block)
            got.add(evolution._lobatto_integrals(system, left, left + 1.0).tobytes())
        assert len(got) == 1, system


def test_long_spans_are_integrated_a_block_at_a_time():
    """propagate splits a continuous span at the integer times, so memory
    stays flat however long the span (one array over the whole span took a
    traced 96 MB at T = 2e4), and between integer times it integrates the
    grid's unit segments."""
    inv = evolution.scalar_system(CONTINUOUS, "1/(1+abs(t))")
    evolution.propagate(inv, 3.5, 0)  # one-time set-up is not counted
    tracemalloc.start()
    try:
        got = evolution.propagate(inv, 2e4, 0).log_norm
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    assert got == pytest.approx(math.log1p(2e4), rel=1e-12)
    three = evolution.diagonal_system(CONTINUOUS, ["2*abs(t)", "-1/(1+abs(t))", "t^3/5"])
    times, logs = evolution.component_log_grid(three, 400)
    for to, frm in ((400, 0), (-400, 0), (250, -37), (-37, 250), (3, 2), (-1, 0)):
        want = logs[:, to + 400] - logs[:, frm + 400]
        got = evolution.propagate(three, to, frm).diag_logs
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (to, frm)
    # partial segments at non-integer ends, on either side of the kink at 0
    for to, frm in ((2.3, -1.7), (-0.4, 0.6), (0.1, 0.35), (-5.75, -2.5)):
        got = evolution.propagate(three, to, frm).diag_logs
        ends = np.array([to, frm])
        prim = np.array([np.sign(ends) * ends ** 2, -np.sign(ends) * np.log1p(np.abs(ends)),
                         ends ** 4 / 20])
        assert got == pytest.approx(prim[:, 0] - prim[:, 1], rel=1e-12, abs=1e-14), (to, frm)


_ACCURACY_CASES = st.one_of(
    st.just(("inv1pt", None)),
    st.tuples(st.just("exp"), st.floats(-10.0, 10.0)),
    st.tuples(st.just("poly"), st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=10)),
)


@given(_ACCURACY_CASES)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_component_log_grids_match_closed_forms(case):
    """Gauss-Lobatto grids against closed forms: log(1 + |t|) sgn(t) for
    inv1pt at window 400 within 1e-12; (exp(l t) - 1) / l for exp(l t),
    |l| <= 10, at window 3 within a relative 1e-8; and a polynomial of
    degree at most 9, which the rule integrates exactly, at window 40 within
    1e-12 of the integrated polynomial's term magnitudes."""
    kind, arg = case
    if kind == "inv1pt":
        times, logs = evolution.component_log_grid(catalog.system("inv1pt"), 400)
        assert np.abs(logs[0] - np.sign(times) * np.log1p(np.abs(times))).max() <= 1e-12
    elif kind == "exp":
        system = evolution.scalar_system(CONTINUOUS, f"exp(({arg!r})*t)")
        times, logs = evolution.component_log_grid(system, 3)
        want = np.expm1(arg * times) / arg if arg else times
        assert np.all(np.abs(logs[0] - want) <= 1e-8 * np.abs(want))
    else:
        text = "+".join(f"({c!r})*t^{k}" for k, c in enumerate(arg))
        times, logs = evolution.component_log_grid(evolution.scalar_system(CONTINUOUS, text), 40)
        terms = np.array([c * times ** (k + 1) / (k + 1) for k, c in enumerate(arg)])
        assert np.all(np.abs(logs[0] - terms.sum(axis=0)) <= 1e-12 * np.abs(terms).sum(axis=0))


def test_component_log_grid_is_built_once_per_system_and_window():
    three = evolution.diagonal_system(CONTINUOUS, ["2*abs(t)", "-1/(1+abs(t))", "t"])
    times, logs = evolution.component_log_grid(three, 20)
    assert not times.flags.writeable and not logs.flags.writeable
    built = evolution._system_log_grid.cache_info().misses
    again = evolution.component_log_grid(three, 20)
    assert again[0] is times and again[1] is logs
    # a weighted system shifts its base system's grid
    weighted = evolution.WeightedSystem(three, catalog.rate("q", CONTINUOUS), 0.5)
    w_times, w_logs = evolution.component_log_grid(weighted, 20)
    assert evolution._system_log_grid.cache_info().misses == built
    assert w_times is times
    want = logs - 0.5 * rates.log_rate_values(weighted.rate, times)[None, :]
    assert w_logs.tobytes() == want.tobytes()
    assert evolution.component_log_grid(three, 10)[1].shape == (3, 21)


def test_component_log_grid_raises_the_first_stepwise_error():
    c_cases = {
        "1/(t-3.5)": "division by zero in '1/(t-3.5)' at input "
                     "{'t': 3.5, 'k': 3.5}",
        "1/(t+2.25)": "division by zero in '1/(t+2.25)' at input "
                      "{'t': -2.25, 'k': -2.25}",
    }
    # integer and quarter times are Gauss-Lobatto nodes, ahead of 0 and behind
    for m in (13, 8, 6, 1, -3, -7, -12, -18):
        pole = m / 4
        text = f"1/(t{'-' if m > 0 else '+'}{abs(pole):g})"
        c_cases[text] = (f"division by zero in '{text}' at input "
                         f"{{'t': {pole!r}, 'k': {pole!r}}}")
    for text, message in c_cases.items():
        system = evolution.scalar_system(CONTINUOUS, text)
        with pytest.raises(exprparse.DomainError) as info:
            evolution.component_log_grid(system, 10)
        assert str(info.value) == message
    # the pole behind 0 at t = -1.5 comes later in the walk than log(7-t) ahead
    both = evolution.diagonal_system(CONTINUOUS, ["log(7-t)", "1/(t+1.5)"])
    with pytest.raises(exprparse.DomainError, match="log of a non-positive"):
        evolution.component_log_grid(both, 10)
    # a segment left of 0 is read at 0.0 - node, so its end at 0 stays +0.0
    for text, frm, message in (("1/t", -2.0, "division by zero in '1/t' at input "
                                "{'t': 0.0, 'k': 0.0}"),
                               ("1/(abs(t)-3.5)", -5.0, "division by zero in "
                                "'1/(abs(t)-3.5)' at input {'t': -3.5, 'k': -3.5}")):
        with pytest.raises(exprparse.DomainError) as info:
            evolution.propagate(evolution.scalar_system(CONTINUOUS, text), 0.0, frm)
        assert str(info.value) == message
    d_cases = [
        (["1/(k-7)"], exprparse.DomainError,
         "division by zero in '1/(k-7)' at input {'t': 7.0, 'k': 7.0}"),
        (["1/(k+4)"], exprparse.DomainError,
         "division by zero in '1/(k+4)' at input {'t': -4.0, 'k': -4.0}"),
        (["k-5"], evolution.EvolutionError, "coefficient matrix is singular at time 5"),
        (["k+3"], evolution.EvolutionError, "coefficient matrix is singular at time -3"),
        # a singular step before a later pole is reported first, and a pole
        # before a later singular step
        (["k-2", "1/(k-5)"], evolution.EvolutionError,
         "coefficient matrix is singular at time 2"),
        (["k-5", "1/(k-2)"], exprparse.DomainError,
         "division by zero in '1/(k-2)' at input {'t': 2.0, 'k': 2.0}"),
        # at one time every component is evaluated before the singular check
        (["k-2", "1/(k-2)"], exprparse.DomainError,
         "division by zero in '1/(k-2)' at input {'t': 2.0, 'k': 2.0}"),
    ]
    for texts, kind, message in d_cases:
        system = evolution.diagonal_system(DISCRETE, texts)
        with pytest.raises(kind) as info:
            evolution.component_log_grid(system, 20)
        assert str(info.value) == message
        with pytest.raises(kind) as plain:
            _plain_component_log_grid(system, 20)
        assert str(plain.value) == message
    steps = np.ones((11, 1, 1))  # times -5..5
    steps[2] = 0.0  # singular at time -3, behind 0
    # the walk ahead leaves the range at 6 before it turns back to -3
    with pytest.raises(evolution.EvolutionError) as info:
        evolution.component_log_grid(evolution.tabulated_system(-5, steps, "scalar"), 8)
    assert str(info.value) == "time 6 outside the tabulated range [-5, 5]"
    steps[9] = 0.0  # singular at time 4, ahead of the range end
    with pytest.raises(evolution.EvolutionError) as info:
        evolution.component_log_grid(evolution.tabulated_system(-5, steps, "scalar"), 8)
    assert str(info.value) == "coefficient matrix is singular at time 4"
    # log mu(k+1) is evaluated before log mu(k) within a step
    rate = rates.ExpressionRate("1/k+1/(k-1)", DISCRETE)
    with pytest.raises(exprparse.DomainError) as info:
        evolution.component_log_grid(evolution.quotient_system(rate, [1.0]), 10)
    assert str(info.value) == "division by zero in '1/(k-1)' at input 1.0"


def test_component_log_grid_names_the_first_non_finite_log():
    # steps of log-magnitude 1e308: the second one ahead overflows the
    # running sum at time 3; behind, component 1 overflows at time -2
    cases = [
        (evolution.scalar_system(DISCRETE, "exp(1e308*min(abs(k),1))"),
         "log-propagator of component 0 is not finite at time 3 (inf)"),
        (evolution.diagonal_system(DISCRETE, ["2", "exp(1e308*min(max(-k,0),1))"]),
         "log-propagator of component 1 is not finite at time -2 (-inf)"),
        # an inf step: log mu(6) = 6^400 overflows
        (evolution.quotient_system(rates.PowerExp(400.0, 1.0, DISCRETE), [1.0, 2.0]),
         "log-propagator of component 0 is not finite at time 6 (inf)"),
        # with a negative slope the quotient step underflows to a -inf log;
        # a quotient coefficient is never zero, so this is no singular step
        (evolution.quotient_system(rates.PowerExp(400.0, 1.0, DISCRETE), [1.0, -1.0]),
         "log-propagator of component 0 is not finite at time 6 (inf)"),
        (evolution.quotient_system(rates.PowerExp(400.0, 1.0, DISCRETE), [-1.0]),
         "log-propagator of component 0 is not finite at time 6 (-inf)"),
        (evolution.quotient_system(rates.PowerExp(400.0, 1.0, CONTINUOUS), [0.0]),
         "log-propagator of component 0 is not finite at time 6 (nan)"),
    ]
    for system, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(evolution.EvolutionError) as info:
                evolution.component_log_grid(system, 8)
        assert str(info.value) == message


def test_propagate_names_the_first_non_finite_log():
    # log mu(+-6) = +-6^400 overflows; the walk from 0 meets it at time
    # +-6, with either sign of the slope, in either direction
    cases = [(1.0, 8, "6 (inf)"), (-1.0, 8, "6 (-inf)"),
             (1.0, -8, "-6 (-inf)"), (-1.0, -8, "-6 (inf)")]
    for slope, to, where in cases:
        system = evolution.quotient_system(rates.PowerExp(400.0, 1.0, DISCRETE), [slope])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(evolution.EvolutionError) as info:
                evolution.propagate(system, to, 0)
        assert str(info.value) == f"log-propagator of component 0 is not finite at time {where}"
    # continuous: a coefficient of 1e308 * (1 + |t|) overflows the node
    # values of every unit segment; the walk from 0 meets the first at
    # time 1, as the grid does, and the walk back from 3 at time 2
    system = evolution.scalar_system(CONTINUOUS, "1e308*(1+abs(t))")
    for to, frm, where in ((3, 0, "1 (inf)"), (0, 3, "2 (-inf)"), (-2.5, 0.5, "0 (-inf)")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(evolution.EvolutionError) as info:
                evolution.propagate(system, to, frm)
        assert str(info.value) == f"log-propagator of component 0 is not finite at time {where}"
    with pytest.raises(evolution.EvolutionError) as info:
        evolution.component_log_grid(system, 3)
    assert str(info.value).endswith("at time 1 (inf)")


def test_quotient_domain_errors_name_one_time_in_grid_and_propagate():
    # log mu has a pole at 3 ahead of 0, or at -4 behind it: the grid's walk
    # out from 0 and a propagate from 0 toward the pole meet it at one time
    for domain in (DISCRETE, CONTINUOUS):
        for text, to, where in (("t+1/(t-3)", 6, "'1/(t-3)' at input 3.0"),
                                ("t+1/(t+4)", -6, "'1/(t+4)' at input -4.0")):
            system = evolution.quotient_system(rates.ExpressionRate(text, domain), [1.0, -2.0])
            spans = [(to, 0)] + ([(to - 0.5, 0.25)] if domain == CONTINUOUS else [])
            with pytest.raises(exprparse.DomainError) as info:
                evolution.component_log_grid(system, 6)
            assert str(info.value) == f"division by zero in {where}"
            for span in spans:
                with pytest.raises(exprparse.DomainError) as info:
                    evolution.propagate(system, *span)
                assert str(info.value) == f"division by zero in {where}", (domain, span)


def test_scaled_grids_are_mutually_inverse():
    rot = _rotation(0.6)
    a = rot @ np.diag([math.e, math.exp(-1.0)]) @ rot.T
    system = evolution.tabulated_system(-30, np.tile(a, (61, 1, 1)))
    times, (fwd, fwd_logs), (bwd, bwd_logs) = evolution.scaled_grids(system, 10)
    # reconstruction error scales with the propagator condition number, so a
    # window of 10 with an exponent spread of 2 sits near 1e-7
    for m in range(len(times)):
        prod = evolution.ScaledMatrix(fwd[m], fwd_logs[m]).compose(
            evolution.ScaledMatrix(bwd[m], bwd_logs[m]))
        assert prod.definitely_close(evolution.ScaledMatrix.identity(2), 1e-6)


def _plain_from_matrix(m, extra_log):
    """m / ||m|| and extra_log + log ||m||, with the 2-norm of scaled_grids:
    the square root of the Gram matrix's largest eigenvalue."""
    nrm = math.sqrt(np.linalg.eigvalsh(m.T @ m)[-1])
    return evolution.ScaledMatrix(m / nrm, extra_log + math.log(nrm))


def _plain_rescaled(m, rescale=True):
    """(m * 2^-e, e) with e the frexp exponent of the largest |entry|, or
    (m, 0) without rescaling."""
    if not rescale:
        return m, 0
    e = math.frexp(float(np.max(np.abs(m))))[1]
    return np.ldexp(m, -e), e


def _plain_expm(om, rescale=True):
    """(p, f) with exp(om) = p * 2^f for one 2-D matrix: om scaled by 2^-s
    to 1-norm below 1/2, its degree-15 Taylor polynomial in
    Paterson-Stockmeyer form, then s squarings, each rescaled by a power of
    two, or never."""
    s = max(math.frexp(float(np.abs(om).sum(axis=0).max()))[1] + 1, 0)
    x = np.ldexp(om, -s)
    x2 = x @ x
    x3 = x2 @ x
    x4 = x2 @ x2
    c = [1.0 / math.factorial(k) for k in range(16)]
    blocks = [c[4 * i] * np.eye(len(om)) + c[4 * i + 1] * x + c[4 * i + 2] * x2
              + c[4 * i + 3] * x3 for i in range(4)]
    p = blocks[3]
    for b in blocks[2::-1]:
        p = x4 @ p + b
    f = 0
    for _ in range(s):
        p, e = _plain_rescaled(p @ p, rescale)
        f = 2 * f + e
    return p, f


@pytest.mark.parametrize("d", [2, 4, 8])
def test_stacked_exponentials_are_each_lane_alone(d):
    """_expm of a stack is bitwise _expm of each matrix alone: seeded
    matrices scaled by 2^u for u from -4 to 7, whose lanes take from none
    to about 10 squarings, at least 6 different counts, and one lane past
    max_squarings, which comes out NaN with exponent 0, as it does alone."""
    rng = np.random.default_rng(d)
    u = np.arange(-4, 8)
    omega = rng.uniform(-1.0, 1.0, (len(u) + 1, d, d)) * 2.0 ** np.append(u, 16)[:, None, None]
    max_squarings = 12
    squarings = np.maximum(np.frexp(np.abs(omega).sum(axis=1).max(axis=1))[1] + 1, 0)
    assert 0 in squarings and len(set(squarings[:-1].tolist())) >= 6
    assert squarings[:-1].max() <= max_squarings < squarings[-1]
    p, f = evolution._expm(omega, max_squarings)
    for lane in range(len(omega)):
        alone, e = evolution._expm(omega[lane:lane + 1], max_squarings)
        assert p[lane].tobytes() == alone[0].tobytes() and f[lane] == e[0]
    assert np.isnan(p[-1]).all() and f[-1] == 0
    assert np.isfinite(p[:-1]).all()


def _plain_magnus(system, to, frm, rescale=True, h=0.1):
    """(x, E) of one 4th-order Magnus loop on 2-D arrays from frm to to, a
    coefficient matrix per point: the propagator is x * 2^E, with x
    rescaled by a power of two after every squaring and every step, or
    never.  The last step ends at to itself."""
    steps = max(1, int(math.ceil(abs(to - frm) / h)))
    dt = (to - frm) / steps
    x, exp, t = np.eye(system.dim), 0, frm
    a0 = evolution.coefficient_matrix(system, t)
    for step in range(steps):
        a1 = evolution.coefficient_matrix(system, t + dt / 2)
        t = to if step == steps - 1 else t + dt
        a2 = evolution.coefficient_matrix(system, t)
        om = dt / 6 * (a0 + 4.0 * a1 + a2) + dt * dt / 12 * (a2 @ a0 - a0 @ a2)
        p, f = _plain_expm(om, rescale)
        x, e = _plain_rescaled(p @ x, rescale)
        exp += f + e
        a0 = a2
    return x, exp


def _plain_factor(system, to, frm):
    """One unit-step factor the plain way, (x, e) with Phi(to, frm) =
    x * 2^e and the largest |entry| of x in [0.5, 1): a coefficient matrix
    per point, rescaled once in discrete time, and one rescaled Magnus loop
    in continuous time."""
    eye = np.eye(system.dim)
    if system.time_domain == DISCRETE:
        a = evolution.coefficient_matrix(system, int(min(to, frm)))
        return _plain_rescaled(a @ eye if to > frm else np.linalg.solve(a, eye))
    return _plain_magnus(system, to, frm)


def _plain_unit_step(system, to, frm):
    """One unit-step propagator the plain way: the factor x * 2^e brought
    to 2-norm 1, with log e * log 2 + log ||x||."""
    x, e = _plain_factor(system, to, frm)
    return _plain_from_matrix(x, e * math.log(2.0))


def _plain_join(k, early, late, rescale):
    """Walk k's product of two entries (x, E, F), the earlier factors'
    and the later ones': forward walks (k = 0, 1) multiply on the left,
    backward walks (k = 2, 3) on the right; the product is rescaled, E
    adds the exponents of the rescales and F those of the factors."""
    x = late[0] @ early[0] if k < 2 else early[0] @ late[0]
    y, e = _plain_rescaled(x, rescale)
    return y, early[1] + late[1] + e, early[2] + late[2]


def _plain_walks(system, window, rescale=True, blocked=True):
    """The forward and backward walks of scaled_grids the plain way, one
    matrix at a time: entries (x, E, F) with the walk's product of factors
    x * 2^(E + F), x rescaled after every product or never, E the sum of
    the rescale exponents and F that of the factor exponents.

    The four walks out from 0 (ahead and behind, forward and backward)
    compose their factors in the blocked association of scaled_grids, with
    b = isqrt(window): the local prefixes of each b-step block, the carry
    of every block before it, and each local prefix joined with its block's
    carry.  blocked=False composes them one factor at a time instead."""
    times = np.arange(-window, window + 1, dtype=float)
    eye = (np.eye(system.dim), 0, 0)
    steps = [[(t + 1.0, t), (-t - 1.0, -t), (t, t + 1.0), (-t, -t - 1.0)]
             for t in map(float, range(window))]
    b = max(1, math.isqrt(window) if blocked else window)
    walks = []
    for k in range(4):
        factors = [(x, 0, e) for x, e in (_plain_factor(system, *step[k]) for step in steps)]
        walk, carry = [eye], None
        for j0 in range(0, window, b):
            local = factors[j0]
            block = [local]
            for factor in factors[j0 + 1:j0 + b]:
                local = _plain_join(k, local, factor, rescale)
                block.append(local)
            walk += [p if carry is None else _plain_join(k, carry, p, rescale) for p in block]
            carry = local if carry is None else _plain_join(k, carry, local, rescale)
        walks.append(walk)
    # in time order: the walk behind, reversed, then the walk ahead from 0
    return times, *(walks[k + 1][:0:-1] + walks[k] for k in (0, 2))


def _plain_scaled_grids(system, window, blocked=True):
    """scaled_grids built the plain way: the rescaled walks, each entry
    brought to 2-norm 1 with log (E + F) * log 2 + log ||x||."""
    times, *walks = _plain_walks(system, window, blocked=blocked)
    return times, *([_plain_from_matrix(x, (exp + f) * math.log(2.0)) for x, exp, f in walk]
                    for walk in walks)


def _assert_grids_equal(obj, window):
    """scaled_grids(obj, window) is bitwise the plain walk's grid, every unit
    and log entry, forward and backward; a weighted system shifts the logs
    by -+gamma * log mu."""
    base = obj.base if isinstance(obj, evolution.WeightedSystem) else obj
    times, *got = evolution.scaled_grids(obj, window)
    want_times, *want = _plain_scaled_grids(base, window)
    assert np.array_equal(times, want_times)
    if isinstance(obj, evolution.WeightedSystem):
        mu = rates.log_rate_values(obj.rate, times)
        want = [[m.shifted(sign * obj.gamma * float(v)) for m, v in zip(grid, mu)]
                for sign, grid in zip((-1.0, 1.0), want)]
    for (units, logs), plain in zip(got, want):
        assert units.shape == (len(times), base.dim, base.dim) and logs.shape == (len(times),)
        for u, g, m in zip(units, logs.tolist(), plain):
            assert np.array_equal(u, m.unit)
            assert g == m.log_norm


def test_scaled_grids_match_composed_single_steps():
    cont = evolution.full_system(CONTINUOUS, [["2*abs(t)", "1"], ["0", "-1/(1+abs(t))"]])
    rng = np.random.default_rng(11)
    table = evolution.tabulated_system(-20, rng.uniform(-1, 1, (41, 3, 3)) + 2 * np.eye(3))
    q = catalog.rate("q", CONTINUOUS)
    weighted = evolution.WeightedSystem(cont, q, 0.7)
    for obj, window in ((cont, 6), (weighted, 4), (table, 15)):
        base = obj.base if isinstance(obj, evolution.WeightedSystem) else obj
        _assert_grids_equal(obj, window)
        for t in (-2.0, 0.0, 3.0):
            for to, frm in ((t + 1, t), (t, t + 1)):
                got, want = evolution.propagate(base, to, frm), _plain_unit_step(base, to, frm)
                assert np.array_equal(got.unit, want.unit)
                assert got.log_norm == want.log_norm


@given(st.sampled_from([1, 2, 3]), st.integers(0, 12), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.0, 2.0]), st.lists(st.integers(0, 23), max_size=2),
       st.none() | st.tuples(st.sampled_from(["p", "exp", "q", "c"]), st.floats(-3.0, 3.0)))
@settings(max_examples=150, deadline=None)
def test_lockstep_grids_equal_the_plain_walk(d, window, seed, shift, zeroed, weight):
    """On seeded tables (window 0 has no factors), plain or weighted, the
    stacked blocked walk is bitwise the grid of the same association built
    one matrix at a time, with windows that are and are not multiples of
    the block length.  Zeroed rows make singular steps, and the first one
    the walk meets is the one reported: the steps ahead from 0, then the
    steps behind."""
    rng = np.random.default_rng(seed)
    mats = rng.uniform(-1.0, 1.0, (max(2 * window, 1), d, d)) + shift * np.eye(d)
    zeroed = [i for i in zeroed if i < 2 * window]
    mats[zeroed] = 0.0
    obj = evolution.tabulated_system(-window, mats)
    if weight is not None:
        obj = evolution.WeightedSystem(obj, catalog.rate(weight[0], DISCRETE), weight[1])
    singular = [k for k in [*range(window), *range(-1, -window - 1, -1)]
                if k + window in zeroed]
    if not singular:
        _assert_grids_equal(obj, window)
        return
    with pytest.raises(evolution.EvolutionError) as info:
        evolution.scaled_grids(obj, window)
    assert str(info.value) == f"coefficient matrix is singular at time {singular[0]}"


@given(st.integers(1, 3), st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_rescaled_rk4_is_the_unscaled_loop_exactly(d, degree, seed):
    """Rescaling by powers of two adds no rounding: on constant and
    polynomial coefficients over spans short enough to stay in double range,
    the rescaled Magnus loop times 2^E, squarings included, is bitwise the
    unscaled loop."""
    rng = random.Random(seed)
    rows = [["+".join(f"({rng.uniform(-2.0, 2.0)!r})" + "*t" * p for p in range(degree + 1))
             for _ in range(d)] for _ in range(d)]
    system = evolution.full_system(CONTINUOUS, rows)
    frm = rng.uniform(-3.0, 3.0)
    to = frm + rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 0.6)
    x, exp = _plain_magnus(system, to, frm)
    unscaled, zero = _plain_magnus(system, to, frm, rescale=False)
    assert zero == 0 and np.isfinite(unscaled).all()
    assert np.array_equal(np.ldexp(x, exp), unscaled)


@pytest.mark.parametrize("window", [0, 1, 2, 3, 17, 400])
@given(st.sampled_from([2, 3, 8]), st.integers(0, 16), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_blocked_grids_agree_with_the_sequential_walk(window, d, gap, rotated, seed):
    """The blocked walk re-associates the products of a one-factor-at-a-time
    walk, so their grids differ by rounding alone: the logs within
    1e-11 * max(1, |log|) and the units within 1e-10 entrywise.  Seeded
    upper-triangular tables A_k whose diagonal entries have magnitudes
    2^u * [1, 2), with u decreasing along the diagonal and spread up to gap
    within a step, or their rotated copies B_k = R((k + 1) w) A_k R(k w)^T,
    whose products are the triangular ones turned by orthogonal frames;
    windows that are and are not multiples of the block length.  (With the
    order of u drawn afresh at every step, the two walks part far beyond
    this bound: such a product loses most of its digits in either
    association.)"""
    rng = np.random.default_rng(seed)
    count = max(2 * window, 1)
    u = -np.sort(-rng.integers(0, gap + 1, (count, d)), axis=1)
    diag = rng.choice([-1.0, 1.0], (count, d)) * rng.uniform(1.0, 2.0, (count, d)) * 2.0 ** u
    mats = np.triu(rng.uniform(-1.0, 1.0, (count, d, d)), 1) + diag[:, :, None] * np.eye(d)
    if rotated:
        w = rng.uniform(0.0, math.pi)
        ks = range(-window, -window + count)
        mats = np.stack([_rotation((k + 1) * w, d) @ a @ _rotation(k * w, d).T
                         for k, a in zip(ks, mats)])
    system = evolution.tabulated_system(-window, mats)
    times, *got = evolution.scaled_grids(system, window)
    _, *want = _plain_scaled_grids(system, window, blocked=False)
    for (units, logs), plain in zip(got, want):
        for unit, g, m in zip(units, logs.tolist(), plain):
            assert abs(g - m.log_norm) <= 1e-11 * max(1.0, abs(m.log_norm))
            assert np.abs(unit - m.unit).max() <= 1e-10


@given(st.sampled_from([1, 2, 3]), st.integers(1, 8), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.0, 2.0]))
@settings(max_examples=60, deadline=None)
def test_rescaled_walk_is_the_unscaled_walk_exactly(d, window, seed, shift):
    """On seeded tables, every entry of the rescaled walks times 2^E is
    bitwise the unscaled product of the same factors, in either
    association."""
    rng = np.random.default_rng(seed)
    mats = rng.uniform(-1.0, 1.0, (2 * window, d, d)) + shift * np.eye(d)
    system = evolution.tabulated_system(-window, mats)
    for blocked in (True, False):
        _, *scaled = _plain_walks(system, window, blocked=blocked)
        _, *unscaled = _plain_walks(system, window, rescale=False, blocked=blocked)
        for walk, plain in zip(scaled, unscaled):
            for (x, exp, f), (y, zero, g) in zip(walk, plain):
                assert zero == 0 and f == g
                assert np.array_equal(np.ldexp(x, exp), y)


def test_rk4_overflow_names_the_first_non_finite_step():
    """A lane that leaves double range is named by its times, the first one
    in walk order, with no numpy warning: here the coefficient is zero up to
    t = 2 and about 1e200 * (t - 2) after it."""
    system = evolution.full_system(CONTINUOUS, [["1e200*((t-2)+abs(t-2))", "0"], ["0", "1"]])
    cases = [(lambda: evolution.scaled_grids(system, 4), "from time 2 to 3"),
             (lambda: evolution.propagate(system, 5.0, 0.0), "from time 0 to 5"),
             (lambda: evolution.propagate(system, 0.0, 3.0), "from time 3 to 0")]
    for call, where in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(evolution.EvolutionError) as info:
                call()
        assert str(info.value) == f"propagator {where} is not finite during integration"
    # a span that ends before t = 2 stays in range
    assert np.isfinite(evolution.propagate(system, 1.5, -3.0).log_norm)


def test_scaled_grids_raise_the_first_stepwise_error():
    # at t = 3 both off-diagonal entries fail; the row-major first is reported
    pole = evolution.full_system(CONTINUOUS, [["1", "1/(t-3)"], ["log(3-t)", "1"]])
    with pytest.raises(exprparse.DomainError) as info:
        evolution.scaled_grids(pole, 5)
    assert str(info.value) == (
        "division by zero in '1/(t-3)' at input {'t': 3.0, 'k': 3.0}")
    short = evolution.tabulated_system(-5, np.tile(2.0 * np.eye(2), (11, 1, 1)))
    with pytest.raises(evolution.EvolutionError) as info:
        evolution.scaled_grids(short, 8)
    assert str(info.value) == "time 6 outside the tabulated range [-5, 5]"
    # a singular step is reported before a later pole, as stepping would
    mixed = evolution.full_system(DISCRETE, [["k-2", "0"], ["0", "1/(k-5)"]])
    with pytest.raises(evolution.EvolutionError, match="singular at time 2$"):
        evolution.scaled_grids(mixed, 8)


def _probe_rows(d):
    """The d x d probe system: a_11 = 2|t|, the rest of the diagonal
    -1/(1 + |t|), the superdiagonal 1 and every other entry 0."""
    rows = [["0"] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = "-1/(1+abs(t))"
        if i + 1 < d:
            rows[i][i + 1] = "1"
    rows[0][0] = "2*abs(t)"
    return rows


_PROBE_2 = evolution.full_system(CONTINUOUS, _probe_rows(2))
_PROBE_4 = evolution.full_system(CONTINUOUS, _probe_rows(4))


# (system, window) grids the chunking test compares: the long ones, and
# short ones for the chunks of one lane and one step, which integrate a
# lane at a time
_MAGNUS_LONG = ((_PROBE_2, 40), (_PROBE_2, 160), (_PROBE_4, 80))
_MAGNUS_SHORT = ((_PROBE_2, 40), (_PROBE_4, 10))


def _magnus_outputs(cases):
    """Every Magnus result the chunking test compares: the grids of the
    (system, window) cases, and one long propagation."""
    grids = [evolution.scaled_grids(system, window) for system, window in cases]
    phi = evolution.propagate(_PROBE_2, 37.5, -12.25)
    return [a for _, *walks in grids for walk in walks for a in walk] + [phi.unit, phi.log_norm]


@pytest.fixture(scope="module")
def magnus_reference():
    return {cases: _magnus_outputs(cases) for cases in (_MAGNUS_LONG, _MAGNUS_SHORT)}


@pytest.mark.parametrize("chunk", [1, 7, 64, evolution._MAGNUS_CHUNK, 6400, 40000])
def test_rk4_chunks_move_no_bit(monkeypatch, magnus_reference, chunk):
    """Any chunk of coefficient values, down to one lane of one step at a
    time (chunks 1 and 7), through blocks of several lanes (64) to chunks
    of several steps (the default, 6400 and 40000), gives bitwise the same
    units and logs, also where the last chunk is shorter: chunks of 6 and
    4 steps (the default, window 40), of 3, 3, 3 and 1 (40000, window 160),
    and of 400 and 98 steps in the one-lane propagation (6400);
    and a coefficient that fails on nodes of several lanes raises the first
    failing node of the first lane, as a lone integration of that lane
    meets it, however the lanes and steps are cut."""
    monkeypatch.setattr(evolution, "_MAGNUS_CHUNK", chunk)
    cases = _MAGNUS_SHORT if chunk < 64 else _MAGNUS_LONG
    for got, want in zip(_magnus_outputs(cases), magnus_reference[cases], strict=True):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # |t - 1| <= 0.1 fails: the last step of lane 0 (0 -> 1) at its
    # midpoint 0.95 (its step end 0.8999999999999999 is 8e-17 outside),
    # the first of lanes 1 (1 -> 0) and 2 (1 -> 2), which a step-major
    # chunk meets first
    gap = evolution.full_system(CONTINUOUS, [["1", "log(abs(t-1)-0.1)"], ["0", "1"]])
    with pytest.raises(exprparse.DomainError) as plain:
        _plain_magnus(gap, 1.0, 0.0)
    assert 0.94 < plain.value.value["t"] < 0.96
    for call in (lambda: evolution.scaled_grids(gap, 40),
                 lambda: evolution.propagate(gap, 1.0, 0.0)):
        with pytest.raises(exprparse.DomainError) as info:
            call()
        assert info.value.fragment == plain.value.fragment
        assert float(info.value.value["t"]) == plain.value.value["t"]


def test_rk4_holds_one_chunk_of_coefficients():
    """The 2x2 grid at window 40 integrates 160 lanes of 10 Magnus steps
    in chunks of 6 steps: 13 nodes of 4 entries per lane, and the
    exponentials of the 6 steps, 3840 values, holding their temporaries
    beside them; the traced peak stays under 1 MB."""
    evolution.scaled_grids(_PROBE_2, 1)
    tracemalloc.start()
    try:
        evolution.scaled_grids(_PROBE_2, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_coefficient_stack_evaluates_each_entry_text_once(monkeypatch):
    """The 8x8 probe system has 64 entries and 4 distinct texts: one array
    evaluation of the 4, copied out to the 64, is bitwise the evaluation of
    every entry."""
    system = evolution.full_system(CONTINUOUS, _probe_rows(8))
    ts = np.linspace(-3.0, 3.0, 61)
    entries = [e for row in system.source.entries for e in row]
    want = exprparse.evaluate_array(entries, {"t": ts, "k": ts}).reshape(-1, 8, 8)
    calls = []
    evaluate = exprparse.evaluate_array
    monkeypatch.setattr(exprparse, "evaluate_array",
                        lambda exprs, env: calls.append(len(exprs)) or evaluate(exprs, env))
    got = evolution._coefficient_stack(system, ts)
    assert calls == [4]
    assert got.shape == want.shape and np.array_equal(got, want)


def test_unit_norm_stays_bounded():
    rng = random.Random(3)
    acc = evolution.ScaledMatrix.identity(2)
    for _ in range(50):
        m = np.array([[rng.uniform(-3, 3) for _ in range(2)] for _ in range(2)])
        acc = evolution.ScaledMatrix.from_matrix(m).compose(acc)
        nrm = np.linalg.norm(acc.unit, 2)
        assert 0.5 <= nrm <= 2.0


def test_singular_coefficient_rejected():
    system = evolution.scalar_system(DISCRETE, "k")
    with pytest.raises(evolution.EvolutionError):
        evolution.propagate(system, 1, 0)
    with pytest.raises(evolution.EvolutionError):
        evolution.propagate(system, 0, 1)


def test_tabulated_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    rows = ["k,a_1_1,a_1_2,a_2_1,a_2_2"]
    for k in range(-3, 4):
        rows.append(f"{k},1.0,0.0,0.0,2.0")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    system = evolution.system_from_descriptor({
        "time_domain": DISCRETE,
        "dimension": 2,
        "structure": "full",
        "coefficients": {"table": str(path)},
    })
    phi = evolution.propagate(system, 3, 0)
    hi, lo = evolution.operator_norm_bounds(phi)
    assert hi == pytest.approx(3 * math.log(2.0), abs=1e-12)
    assert lo == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(evolution.EvolutionError, match="outside the tabulated range"):
        evolution.propagate(system, 5, 0)


def test_tabulated_csv_rejects_non_finite_cells(tmp_path):
    path = tmp_path / "table.csv"
    for cell in ("nan", "-inf"):
        path.write_text(f"k,a_1_1,a_1_2,a_2_1,a_2_2\n-1,1,0,0,1\n0,1,0,{cell},1\n",
                        encoding="utf-8")
        with pytest.raises(evolution.EvolutionError) as info:
            evolution.load_table(path)
        assert f"row k=0: a_2_1 is not finite ({cell})" in str(info.value)


def test_negative_zero_entries_give_the_factors_of_positive_zeros():
    """A table's -0.0 entries give bitwise the grids and propagators of +0.0
    ones, forward and backward: a one-step grid entry or propagator would
    otherwise keep its factor's -0.0 entries."""
    rng = np.random.default_rng(2027)
    for d in (2, 3, 5, 8):
        mats = rng.uniform(-1.0, 1.0, (120, d, d)) + 2.0 * np.eye(d)
        mats[(rng.random(mats.shape) < 0.2) & ~np.eye(d, dtype=bool)] = -0.0
        signed, plain = (evolution.tabulated_system(-60, m) for m in (mats, mats + 0.0))
        _, *got = evolution.scaled_grids(signed, 50)
        _, *want = evolution.scaled_grids(plain, 50)
        for a, b in zip((a for walk in got for a in walk), (b for walk in want for b in walk)):
            assert a.tobytes() == b.tobytes()
        for to, frm in ((30, -20), (-40, 17)):
            got, want = evolution.propagate(signed, to, frm), evolution.propagate(plain, to, frm)
            assert got.unit.tobytes() == want.unit.tobytes() and got.log_norm == want.log_norm


@pytest.mark.parametrize("structure, entry", [(evolution.FULL, "a_2_1"),
                                              (evolution.DIAGONAL, "a_2_2")])
def test_tabulated_system_rejects_non_finite_entries(structure, entry):
    """An in-memory table names its first non-finite entry by k and a_i_j
    when the system is built, as a CSV cell is named, rather than failing
    later in an SVD (full) or as a non-finite walk (diagonal)."""
    for value in (math.nan, -math.inf):
        mats = np.tile(np.eye(2), (12, 1, 1))
        mats[8, 1, int(entry[-1]) - 1] = value
        mats[9, 0, 0] = math.inf  # later in the table: not the first
        with pytest.raises(evolution.EvolutionError) as info:
            evolution.tabulated_system(-2, mats, structure=structure)
        assert str(info.value) == f"table row k=6: {entry} is not finite ({value})"


@pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan])
def test_weighted_system_rejects_a_non_finite_gamma(gamma):
    with pytest.raises(evolution.EvolutionError) as info:
        evolution.WeightedSystem(DISC_Q, catalog.rate("q", DISCRETE), gamma)
    assert str(info.value) == f"weighted system: gamma must be finite, got {gamma}"


@pytest.mark.parametrize("slopes", [[math.nan], [1.0, math.inf], [-math.inf, 0.5]])
def test_quotient_system_rejects_a_non_finite_slope(slopes):
    # a NaN slope once built, and the first spectrum failed on a NaN log
    with pytest.raises(evolution.EvolutionError) as info:
        evolution.quotient_system(catalog.rate("q", DISCRETE), slopes)
    i = next(i for i, s in enumerate(slopes) if not math.isfinite(s))
    assert str(info.value) == f"quotient system: slope {i} must be finite, got {slopes[i]}"


class _NoArrays:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} reached before the span was checked")


_FULL_DISC = evolution.full_system(DISCRETE, [["2", "1"], ["0", "1"]])
_FULL_CONT = evolution.full_system(CONTINUOUS, [["2*abs(t)", "1"], ["0", "-1/(1+abs(t))"]])


@pytest.mark.parametrize("system", [ABS2T, DISC_Q, _FULL_DISC, _FULL_CONT])
@pytest.mark.parametrize("to, frm, name", [
    (math.inf, 0.0, "to"), (0.0, -math.inf, "frm"), (math.nan, 1.0, "to"), (2.0, math.nan, "frm")])
def test_propagate_rejects_a_non_finite_time(monkeypatch, system, to, frm, name):
    # inf once raised a bare OverflowError and NaN a bare ValueError from int();
    # both are named before numpy is reached, through the weighted system too
    weighted = evolution.WeightedSystem(system, catalog.rate("q", system.time_domain), 1.0)
    monkeypatch.setattr(evolution, "np", _NoArrays())
    message = f"propagation time {name} must be finite, got {to if name == 'to' else frm}"
    for call, obj in ((evolution.propagate, system), (evolution.weighted_propagate, weighted)):
        with pytest.raises(evolution.EvolutionError) as info:
            call(obj, to, frm)
        assert str(info.value) == message


@pytest.mark.parametrize("system, to, frm, what", [
    (ABS2T, 1e12, 0.0, "segments"),  # once a 7.28 TiB request to numpy
    (ABS2T, 0.5, -999_999.75, "segments"),  # 1 + 1_000_000 segments
    (DISC_Q, -500_000, 500_001, "segments"),
    (_FULL_DISC, 1_000_001, 0, "segments"),
    (_FULL_CONT, 1e9, 0.0, "Magnus steps"),  # once no return within 15 s
    (_FULL_CONT, 0.0, 100_000.1, "Magnus steps"),  # 1_000_001 steps
    (_FULL_CONT, 1e308, -1e308, "Magnus steps"),  # a span past double range
])
def test_propagate_rejects_a_span_too_long_to_walk(monkeypatch, system, to, frm, what):
    monkeypatch.setattr(evolution, "np", _NoArrays())
    with pytest.raises(evolution.EvolutionError) as info:
        evolution.propagate(system, to, frm)
    assert str(info.value) == (f"propagation from time {float(frm)} to {float(to)} needs "
                               f"more than MAX_VALIDATION_SAMPLES (1000000) {what}")


@pytest.mark.parametrize("system, to, frm", [
    (ABS2T, 1e6, 0.0), (ABS2T, 0.5, -999_998.5), (DISC_Q, 0, 1_000_000),
    (_FULL_DISC, -1_000_000, 0), (_FULL_CONT, 1e5, 0.0)])
def test_propagate_walks_a_span_of_max_validation_samples(monkeypatch, system, to, frm):
    # exactly MAX_VALIDATION_SAMPLES segments or steps pass the check and reach numpy
    monkeypatch.setattr(evolution, "np", _NoArrays())
    with pytest.raises(AssertionError, match="before the span was checked"):
        evolution.propagate(system, to, frm)


@pytest.mark.parametrize("shape", [(5, 2, 3), (5, 2), (5,), (0, 2, 2), (3, 1, 2, 2)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_tabulated_system_rejects_a_malformed_shape(shape):
    """An in-memory table that is not a (count >= 1, d, d) stack is named by
    its shape when the system is built, rather than failing later in numpy
    (non-square) or as a time outside the range [0, -1] (empty)."""
    with pytest.raises(evolution.EvolutionError) as info:
        evolution.tabulated_system(0, np.ones(shape))
    assert str(info.value) == ("table matrices must have shape (count >= 1, d, d), "
                               f"got {shape}")


def test_weighted_grids_name_their_overflow():
    """A finite gamma whose weighted logs leave double range raises an
    EvolutionError naming the first non-finite one by time, then series,
    with no numpy warning; a large gamma that stays in range still gives a
    spectrum of about -gamma."""
    q, exp = catalog.rate("q", DISCRETE), catalog.rate("exp", DISCRETE)
    table = evolution.tabulated_system(
        -40, np.random.default_rng(5).uniform(-1.0, 1.0, (80, 2, 2)) + 2.0 * np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # log q(-30) < 0: -gamma log q overflows to +inf there first
        with pytest.raises(evolution.EvolutionError) as info:
            evolution.component_log_grid(evolution.WeightedSystem(DISC_Q, q, 1e308), 30)
        assert str(info.value) == ("weighted log-propagator of component 0 is not finite "
                                   "at time -30 (inf)")
        with pytest.raises(evolution.EvolutionError) as info:
            evolution.scaled_grids(evolution.WeightedSystem(table, exp, 1e308), 30)
        assert str(info.value) == ("weighted log-norm of Phi(t, 0) is not finite "
                                   "at time -30 (inf)")
        # both grids leave range at time -30: the forward one is named first
        with pytest.raises(evolution.EvolutionError) as info:
            evolution.scaled_grids(evolution.WeightedSystem(table, exp, -1e308), 30)
        assert str(info.value) == ("weighted log-norm of Phi(t, 0) is not finite "
                                   "at time -30 (-inf)")
        for system, rate in ((DISC_Q, q), (table, exp)):
            report = spectrum.compute_spectrum(evolution.WeightedSystem(system, rate, 1e300),
                                               rate, Params(schedule=(10, 20, 40)))
            (interval,) = report.intervals
            assert interval.lo == pytest.approx(-1e300) and interval.hi == pytest.approx(-1e300)
            assert report.converged


@pytest.mark.parametrize("row, message", [
    ("0,1,0,0", "row k=0: expected 5 columns, got 4"),
    ("0,1,0,0,1,7", "row k=0: expected 5 columns, got 6"),
    ("z,1,0,0,1", "line 3: k is not an integer (z)"),
    ("0,1,x,0,1", "row k=0: a_1_2 is not a number (x)"),
])
def test_tabulated_csv_names_malformed_rows(tmp_path, row, message):
    path = tmp_path / "table.csv"
    path.write_text(f"k,a_1_1,a_1_2,a_2_1,a_2_2\n-1,1,0,0,1\n{row}\n", encoding="utf-8")
    with pytest.raises(evolution.EvolutionError) as info:
        evolution.load_table(path)
    assert str(info.value) == f"{path}: {message}"

def test_tabulated_csv_header_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,a_1_1,a_2_2\n0,1,1\n", encoding="utf-8")
    with pytest.raises(evolution.EvolutionError, match="entry columns"):
        evolution.load_table(path)


_DATA = Path(__file__).parent / "data"
_TABLE = {"time_domain": DISCRETE, "dimension": 2, "structure": "full",
          "coefficients": {"table": "table_full_exp.csv"}}


@pytest.mark.parametrize("build", [
    *(pytest.param(lambda name=name: catalog.system(name), id=f"catalog_{name}")
      for name in catalog.SYSTEM_DEFS),
    pytest.param(lambda: evolution.quotient_system(catalog.rate("q", DISCRETE), [1.5]),
                 id="quotient_discrete_one_slope"),
    pytest.param(lambda: evolution.quotient_system(catalog.rate("exp", DISCRETE), [-1, 2]),
                 id="quotient_discrete_two_slopes"),
    pytest.param(lambda: evolution.quotient_system(catalog.rate("p", CONTINUOUS), [0.5]),
                 id="quotient_continuous_one_slope"),
    pytest.param(lambda: evolution.quotient_system(catalog.rate("glued_c_p", CONTINUOUS),
                                                   [-1.0, 0.25]),
                 id="quotient_continuous_glued_two_slopes"),
    pytest.param(lambda: evolution.diagonal_system(CONTINUOUS, ["2*abs(t)", "3*t^2"]),
                 id="expression_diagonal"),
    pytest.param(lambda: evolution.full_system(DISCRETE, [["1", "exp(-k)"], ["0", "2"]]),
                 id="expression_full"),
    pytest.param(lambda: evolution.system_from_descriptor(_TABLE, _DATA), id="table_csv"),
])
def test_system_descriptor_round_trip(build):
    """A system's descriptor, written as JSON and parsed back, describes a
    system with the same descriptor."""
    desc = evolution.system_to_descriptor(build())
    again = evolution.system_from_descriptor(json.loads(json.dumps(desc)), _DATA)
    assert evolution.system_to_descriptor(again) == desc


def test_system_descriptor_errors_name_the_field():
    desc = {
        "time_domain": CONTINUOUS,
        "dimension": 2,
        "structure": "diagonal",
        "coefficients": {"diagonal": ["2*abs(t)", "3*t^2"]},
    }
    with pytest.raises(evolution.EvolutionError, match="system.dimension"):
        evolution.system_from_descriptor({**desc, "dimension": "two"})
    with pytest.raises(evolution.EvolutionError, match="system.coefficients.diagonal"):
        evolution.system_from_descriptor({**desc, "coefficients": {"diagonal": ["t"]}})


def test_zero_matrix_scales_to_minus_infinity():
    zero = evolution.ScaledMatrix.from_matrix(np.zeros((2, 2)), 3.0)
    assert np.array_equal(zero.unit, np.zeros((2, 2))) and zero.log_norm == -math.inf
    units = np.stack([np.zeros((2, 2)), 2.0 * np.eye(2)])
    got_units, got = evolution._normalized(units, [1.0, 1.0])
    assert got.tolist() == [-math.inf, 1.0 + math.log(2.0)]
    assert got_units.tolist() == [np.zeros((2, 2)).tolist(), np.eye(2).tolist()]


# The Gram eigensolve's 2-norms against LAPACK's SVD: logs within
# _NORM_ULPS * eps * max(1, |log sigma|) and units within _NORM_ULPS * eps
# entrywise (a unit's entries are at most 1).
_NORM_ULPS = 8
_EPS = np.finfo(float).eps


def _norm_test_stacks(rng, d, n=64):
    """Named (n, d, d) stacks: random, rank-deficient, rotated with a spread
    of singular values, all-zero, and random with -0.0 entries."""
    rand = rng.uniform(-1.0, 1.0, (n, d, d))
    rank = max(1, d // 2)
    q = np.linalg.qr(rng.normal(size=(n, d, d)))[0]
    spread = np.exp(rng.uniform(-30.0, 0.0, (n, 1, d)))
    signed = rand.copy()
    signed[rng.random(signed.shape) < 0.3] = -0.0
    return {"random": rand,
            "rank-deficient": rng.uniform(-1, 1, (n, d, rank)) @ rng.uniform(-1, 1, (n, rank, d)),
            "rotated": (q * spread) @ np.swapaxes(q, -1, -2),
            "zero": np.zeros((n, d, d)),
            "negative zero": signed}


def _assert_svd_norms(mats, units, logs):
    """units and logs are m / sigma_max and log sigma_max of each m, within
    _NORM_ULPS of the SVD's; a zero matrix gives a zero unit and -inf."""
    sigma = np.linalg.svd(mats, compute_uv=False)[:, 0]
    for m, s, unit, log in zip(mats, sigma.tolist(), units, logs.tolist()):
        if s == 0.0:
            assert log == -math.inf and not unit.any()
            continue
        want = math.log(s)
        assert abs(log - want) <= _NORM_ULPS * _EPS * max(1.0, abs(want))
        assert np.max(np.abs(unit - m / s)) <= _NORM_ULPS * _EPS


@pytest.mark.parametrize("d", range(1, 17))
def test_gram_norms_match_the_svd(d):
    rng = np.random.default_rng(3100 + d)
    for mats in _norm_test_stacks(rng, d).values():
        units, logs = evolution._normalized(mats, np.zeros(len(mats)))
        _assert_svd_norms(mats, units, logs)


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_from_matrix_scales_extreme_entries(scale):
    """Entries at 1e+-300 would over- or underflow the Gram matrix unless
    scaled by a power of two first."""
    rng = np.random.default_rng(3200)
    for d in (1, 2, 3, 8, 16):
        mats = scale * rng.uniform(-1.0, 1.0, (8, d, d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [evolution.ScaledMatrix.from_matrix(m) for m in mats]
        _assert_svd_norms(mats, np.stack([g.unit for g in got]),
                          np.array([g.log_norm for g in got]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_from_matrix_names_a_non_finite_entry(bad):
    m = np.eye(3)
    m[2, 1] = bad
    m[2, 2] = bad
    with pytest.raises(evolution.EvolutionError,
                       match=rf"matrix entry \(2, 1\) is not finite \({bad}\)"):
        evolution.ScaledMatrix.from_matrix(m)


def test_from_matrix_keeps_the_log_of_a_norm_beyond_double_range():
    top = np.finfo(float).max
    got = evolution.ScaledMatrix.from_matrix(np.array([[top, top], [0.0, 0.0]]))
    assert np.max(np.abs(got.unit - [[math.sqrt(0.5)] * 2, [0.0] * 2])) <= _NORM_ULPS * _EPS
    assert got.log_norm == pytest.approx(math.log(top) + 0.5 * math.log(2.0), rel=1e-15)


def test_grids_hand_the_evaluator_arrays(monkeypatch):
    """Discrete diagonal grids, full discrete step matrices and
    expression-rate grids evaluate arrays of their times: no Python list of
    the times is built, also where the evaluation fails and the walk that
    names the error hands the evaluator one-element slices.  Every path
    names its failing input as Python floats."""
    seen = []
    columns = exprparse._columns

    def recorded(exprs, env, walker):
        seen.append({name: type(values) for name, values in env.items()})
        return columns(exprs, env, walker)

    monkeypatch.setattr(exprparse, "_columns", recorded)
    # a fresh system or rate object each time misses the grid caches
    success = [
        lambda: evolution.component_log_grid(
            evolution.diagonal_system(DISCRETE, ["exp(-k^2/1000)", "2+sgn(k)"]), 50),
        lambda: evolution.scaled_grids(
            evolution.full_system(DISCRETE, [["2", "1/(k-700)"], ["0", "1+abs(k)"]]), 20),
        lambda: rates.log_rate_values(rates.ExpressionRate("sgn(k)*log(1+abs(k))", DISCRETE),
                                      rates.sample_times(DISCRETE, 50)),
    ]
    for call in success:
        seen.clear()
        call()
        assert seen and all(set(types.values()) == {np.ndarray} for types in seen)
    failing = [
        (lambda: evolution.component_log_grid(
            evolution.diagonal_system(DISCRETE, ["1/(k-7)"]), 20), "{'t': 7.0, 'k': 7.0}"),
        (lambda: evolution.scaled_grids(
            evolution.full_system(DISCRETE, [["2", "1/(k-7)"], ["0", "1"]]), 20),
         "{'t': 7.0, 'k': 7.0}"),
        (lambda: rates.log_rate_values(rates.ExpressionRate("1/(k-7)", DISCRETE),
                                       rates.sample_times(DISCRETE, 20)), "7.0"),
    ]
    for call, value in failing:
        seen.clear()
        with pytest.raises(exprparse.DomainError) as info:
            call()
        assert str(info.value).endswith(f"at input {value}")
        assert seen and all(set(types.values()) == {np.ndarray} for types in seen)


@pytest.mark.parametrize("texts, nodes", [
    (["2*abs(t)"], 8400), (["1/(1+abs(t))"], 8400), (["3*t^2"], 8400),
    (["2*abs(t)", "t", "-1/(1+abs(t))"], 8400),
    # no parity: every segment behind is integrated too
    (["2*abs(t)+0.1*t"], 16800), (["2*abs(t)", "exp(t/100)"], 16800),
])
def test_continuous_grids_of_known_parity_evaluate_the_steps_ahead(monkeypatch, texts, nodes):
    """At window 400, a grid whose coefficients all have a known parity
    evaluates the 21 nodes of each of the 400 unit segments ahead of 0,
    half of the 800 segments, and is bitwise the grid of integrating every
    segment."""
    evaluated, evaluate = [], exprparse.evaluate_array

    def counting(exprs, env):
        evaluated.append(len(env["t"]))
        return evaluate(exprs, env)

    monkeypatch.setattr(exprparse, "evaluate_array", counting)
    logs = evolution.component_log_grid(evolution.diagonal_system(CONTINUOUS, texts), 400)[1]
    assert sum(evaluated) == nodes
    evaluated.clear()
    monkeypatch.setattr(evolution, "_mirror_signs", lambda system: None)
    every = evolution.component_log_grid(evolution.diagonal_system(CONTINUOUS, texts), 400)[1]
    assert sum(evaluated) == 16800
    assert every.tobytes() == logs.tobytes()
