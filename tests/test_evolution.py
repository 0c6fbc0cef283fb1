import math
import random
import warnings

import numpy as np
import pytest

from muspec import catalog, evolution, exprparse, rates
from muspec.params import CONTINUOUS, DISCRETE


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


def _rotation(theta: float) -> np.ndarray:
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


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


def _plain_diag_step(system, t, h=1e-2):
    """log |Psi_ii(t + 1, t)| the plain way: one discrete step evaluated in
    log space point by point, or one Simpson segment of its own."""
    src = system.source
    if system.time_domain == DISCRETE:
        k = int(t)
        if isinstance(src, evolution.RateQuotientSource):
            step = rates.log_rate(src.rate, k + 1) - rates.log_rate(src.rate, k)
            la, sg = np.array([s * step for s in src.slopes]), np.ones(len(src.slopes))
        elif isinstance(src, evolution.TableSource):
            diag = np.diag(src.matrix(k))
            with np.errstate(divide="ignore"):
                la, sg = np.where(diag == 0, -np.inf, np.log(np.abs(diag))), np.sign(diag)
        else:
            pairs = [exprparse.evaluate_log_abs(e, {"t": float(k), "k": float(k)})
                     for e in src.diag]
            la, sg = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs], float)
        # a quotient mu(k)^s / mu(k+1)^s is never zero: a -inf log is an underflow
        singular = np.any(sg == 0) or np.any(la == -math.inf)
        if singular and not isinstance(src, evolution.RateQuotientSource):
            raise evolution.EvolutionError(f"coefficient matrix is singular at time {k}")
        return la
    n = max(2, int(math.ceil(1.0 / h)))
    n += n % 2
    xs = np.linspace(t, t + 1.0, n + 1)
    if isinstance(src, evolution.RateQuotientSource):
        vals = np.array([[s * rates.log_rate_derivative(src.rate, [x])[0] for s in src.slopes]
                         for x in xs])
    else:
        vals = exprparse.evaluate_array(src.diag, {"t": xs, "k": xs})
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (1.0 / n / 3.0) * (w[:, None] * vals).sum(axis=0)


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
    for system, to, frm in ((DISC_Q, 9, -4), (three_d, -7, 5), (table, 30, 0)):
        lo, hi = min(to, frm), max(to, frm)
        total = np.zeros(system.components)
        for k in range(lo, hi):
            total += _plain_diag_step(system, k)
        got = evolution.propagate(system, to, frm).diag_logs
        assert got.tobytes() == (total if to > frm else -total).tobytes()


def test_component_log_grid_raises_the_first_stepwise_error():
    c_cases = {
        "1/(t-3.5)": "division by zero in '1/(t-3.5)' at input "
                     "{'t': np.float64(3.5), 'k': np.float64(3.5)}",
        "1/(t+2.25)": "division by zero in '1/(t+2.25)' at input "
                      "{'t': np.float64(-2.25), 'k': np.float64(-2.25)}",
    }
    for text, message in c_cases.items():
        system = evolution.scalar_system(CONTINUOUS, text)
        with pytest.raises(exprparse.DomainError) as info:
            evolution.component_log_grid(system, 10)
        assert str(info.value) == message
    # the pole behind 0 at t = -1.5 comes later in the walk than log(7-t) ahead
    both = evolution.diagonal_system(CONTINUOUS, ["log(7-t)", "1/(t+1.5)"])
    with pytest.raises(exprparse.DomainError, match="log of a non-positive"):
        evolution.component_log_grid(both, 10)
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


def test_scaled_grids_are_mutually_inverse():
    rot = _rotation(0.6)
    a = rot @ np.diag([math.e, math.exp(-1.0)]) @ rot.T
    system = evolution.tabulated_system(-30, np.tile(a, (61, 1, 1)))
    times, fwd, bwd = evolution.scaled_grids(system, 10)
    # reconstruction error scales with the propagator condition number, so a
    # window of 10 with an exponent spread of 2 sits near 1e-7
    for m in range(len(times)):
        prod = fwd[m].compose(bwd[m])
        assert prod.definitely_close(evolution.ScaledMatrix.identity(2), 1e-6)


def _plain_from_matrix(m, extra_log):
    nrm = float(np.linalg.norm(m, 2))
    return evolution.ScaledMatrix(m / nrm, extra_log + math.log(nrm))


def _plain_unit_step(system, to, frm, h=1e-2):
    """One unit-step factor the plain way: a coefficient matrix per point,
    and for continuous time one RK4 loop on 2-D arrays."""
    eye = np.eye(system.dim)
    if system.time_domain == DISCRETE:
        a = evolution.coefficient_matrix(system, int(min(to, frm)))
        return _plain_from_matrix(a @ eye if to > frm else np.linalg.solve(a, eye), 0.0)
    steps = max(1, int(math.ceil(abs(to - frm) / h)))
    dt = (to - frm) / steps
    x, log_acc, t = eye, 0.0, frm
    for _ in range(steps):
        k1 = evolution.coefficient_matrix(system, t) @ x
        k2 = evolution.coefficient_matrix(system, t + dt / 2) @ (x + dt / 2 * k1)
        k3 = evolution.coefficient_matrix(system, t + dt / 2) @ (x + dt / 2 * k2)
        k4 = evolution.coefficient_matrix(system, t + dt) @ (x + dt * k3)
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        nrm = float(np.linalg.norm(x, 2))
        x /= nrm
        log_acc += math.log(nrm)
    return evolution.ScaledMatrix(x, log_acc)


def _plain_scaled_grids(system, window):
    """scaled_grids built the plain way: one unit step at a time, composed
    factor by factor."""
    times = np.arange(-window, window + 1, dtype=float)
    fwd = [None] * len(times)
    bwd = [None] * len(times)
    fwd[window] = bwd[window] = evolution.ScaledMatrix(np.eye(system.dim), 0.0)
    moves = ([(m, m + 1) for m in range(window, 2 * window)]
             + [(m, m - 1) for m in range(window, 0, -1)])
    for m, n in moves:
        step = _plain_unit_step(system, times[n], times[m])
        back = _plain_unit_step(system, times[m], times[n])
        fwd[n] = _plain_from_matrix(step.unit @ fwd[m].unit, step.log_norm + fwd[m].log_norm)
        bwd[n] = _plain_from_matrix(bwd[m].unit @ back.unit, bwd[m].log_norm + back.log_norm)
    return times, fwd, bwd


def test_scaled_grids_match_composed_single_steps():
    cont = evolution.full_system(CONTINUOUS, [["2*abs(t)", "1"], ["0", "-1/(1+abs(t))"]])
    rng = np.random.default_rng(11)
    table = evolution.tabulated_system(-20, rng.uniform(-1, 1, (41, 3, 3)) + 2 * np.eye(3))
    q = catalog.rate("q", CONTINUOUS)
    weighted = evolution.WeightedSystem(cont, q, 0.7)
    for obj, window in ((cont, 6), (weighted, 4), (table, 15)):
        base = obj.base if isinstance(obj, evolution.WeightedSystem) else obj
        times, fwd, bwd = evolution.scaled_grids(obj, window)
        _, want_fwd, want_bwd = _plain_scaled_grids(base, window)
        if obj is weighted:
            mu = rates.log_rate_values(q, times)
            want_fwd = [m.shifted(-0.7 * float(v)) for m, v in zip(want_fwd, mu)]
            want_bwd = [m.shifted(0.7 * float(v)) for m, v in zip(want_bwd, mu)]
        for got, want in zip(fwd + bwd, want_fwd + want_bwd):
            assert np.array_equal(got.unit, want.unit)
            assert got.log_norm == want.log_norm
        for t in (-2.0, 0.0, 3.0):
            for to, frm in ((t + 1, t), (t, t + 1)):
                got, want = evolution.propagate(base, to, frm), _plain_unit_step(base, to, frm)
                assert np.array_equal(got.unit, want.unit)
                assert got.log_norm == want.log_norm


def test_scaled_grids_raise_the_first_stepwise_error():
    # at t = 3 both off-diagonal entries fail; the row-major first is reported
    pole = evolution.full_system(CONTINUOUS, [["1", "1/(t-3)"], ["log(3-t)", "1"]])
    with pytest.raises(exprparse.DomainError) as info:
        evolution.scaled_grids(pole, 5)
    assert str(info.value) == (
        "division by zero in '1/(t-3)' at input {'t': np.float64(3.0), 'k': np.float64(3.0)}")
    short = evolution.tabulated_system(-5, np.tile(2.0 * np.eye(2), (11, 1, 1)))
    with pytest.raises(evolution.EvolutionError) as info:
        evolution.scaled_grids(short, 8)
    assert str(info.value) == "time 6 outside the tabulated range [-5, 5]"
    # a singular step is reported before a later pole, as stepping would
    mixed = evolution.full_system(DISCRETE, [["k-2", "0"], ["0", "1/(k-5)"]])
    with pytest.raises(evolution.EvolutionError, match="singular at time 2$"):
        evolution.scaled_grids(mixed, 8)


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


def test_tabulated_csv_header_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,a_1_1,a_2_2\n0,1,1\n", encoding="utf-8")
    with pytest.raises(evolution.EvolutionError, match="entry columns"):
        evolution.load_table(path)


def test_system_descriptor_round_trip():
    desc = {
        "time_domain": CONTINUOUS,
        "dimension": 2,
        "structure": "diagonal",
        "coefficients": {"diagonal": ["2*abs(t)", "3*t^2"]},
    }
    system = evolution.system_from_descriptor(desc)
    assert evolution.system_to_descriptor(system) == desc
    with pytest.raises(evolution.EvolutionError, match="system.dimension"):
        evolution.system_from_descriptor({**desc, "dimension": "two"})
    with pytest.raises(evolution.EvolutionError, match="system.coefficients.diagonal"):
        evolution.system_from_descriptor({**desc, "coefficients": {"diagonal": ["t"]}})
