import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from muspec import exprparse as ep


def test_parse_coefficient_shapes():
    ast = ep.parse("2*abs(t)")
    assert ast == ep.Bin("*", ep.Num(2.0), ep.Call("abs", (ep.Var("t"),)))
    ast = ep.parse("sgn(t)*t^2")
    assert ast == ep.Bin("*", ep.Call("sgn", (ep.Var("t"),)),
                         ep.Bin("^", ep.Var("t"), ep.Num(2.0)))


def test_precedence_and_associativity():
    assert ep.parse("1+2*3") == ep.Bin("+", ep.Num(1.0),
                                       ep.Bin("*", ep.Num(2.0), ep.Num(3.0)))
    # ^ is right-associative and binds tighter than unary minus
    assert ep.parse("2^3^2") == ep.Bin("^", ep.Num(2.0),
                                       ep.Bin("^", ep.Num(3.0), ep.Num(2.0)))
    assert ep.parse("-t^2") == ep.Neg(ep.Bin("^", ep.Var("t"), ep.Num(2.0)))
    assert ep.evaluate(ep.parse("-2^2"), 0.0) == -4.0
    assert ep.evaluate(ep.parse("2^-1"), 0.0) == 0.5


def test_syntax_error_offset_and_expected():
    with pytest.raises(ep.ParseError) as err:
        ep.parse("3*t^^2")
    assert err.value.offset == 4
    assert any("number" in e for e in err.value.expected)


@pytest.mark.parametrize("source, offset", [
    ("k+\u00b2", 2),     # superscript two
    ("1e\u00b2", 2),
    ("t*\u0663", 2),     # Arabic-Indic three
    ("k\u00b2", 1),
])
def test_only_ascii_digits_are_digits(source, offset):
    with pytest.raises(ep.ParseError, match="unexpected character") as err:
        ep.parse(source)
    assert err.value.offset == offset


def test_no_implicit_multiplication():
    with pytest.raises(ep.ParseError) as err:
        ep.parse("2t")
    assert err.value.offset == 1


def test_unknown_identifier():
    with pytest.raises(ep.UnknownIdentifierError) as err:
        ep.parse("foo(2)")
    assert err.value.offset == 0


def test_single_variable_discipline():
    with pytest.raises(ep.ParseError):
        ep.parse("t+k")


def test_call_arity():
    with pytest.raises(ep.ParseError):
        ep.parse("min(1)")
    with pytest.raises(ep.ParseError):
        ep.parse("exp(1,2)")
    assert ep.evaluate(ep.parse("max(1,2)"), 0.0) == 2.0


def test_eval_examples():
    ast = ep.parse("exp(-3*k^2-3*k-1)")
    assert ep.evaluate(ast, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert ep.evaluate(ep.parse("sgn(t)"), 0.0) == 0.0
    assert ep.evaluate(ep.parse("3*t^2"), 2.0) == 12.0


def test_eval_is_deterministic():
    ast = ep.parse("exp(sgn(t)*sqrt(abs(t))/3)+t^3")
    a = ep.evaluate(ast, 17.25)
    b = ep.evaluate(ast, 17.25)
    assert a == b


@pytest.mark.parametrize("source,value", [
    ("1/(t-t)", 3.0),
    ("log(0-abs(t))", 1.0),
    ("log(t)", 0.0),
    ("(0-2)^0.5", 1.0),
    ("sqrt(0-1)", 5.0),
    ("0^(0-1)", 2.0),
    ("exp(t)", 1e6),
])
def test_domain_errors(source, value):
    with pytest.raises(ep.DomainError):
        ep.evaluate(ep.parse(source), value)


def test_log_abs_evaluation_stays_in_range():
    ast = ep.parse("exp(-3*k^2-3*k-1)")
    la, sign = ep.evaluate_log_abs(ast, {"k": 400.0})
    assert (la, sign) == (-481201.0, 1)
    la, sign = ep.evaluate_log_abs(ast, {"k": -400.0})
    assert (la, sign) == (-478801.0, 1)
    ast = ep.parse("exp(abs(2*k+1))")
    la, sign = ep.evaluate_log_abs(ast, {"k": -400.0})
    assert (la, sign) == (799.0, 1)


def test_log_abs_products_and_powers():
    ast = ep.parse("(0-2)*exp(t)")
    la, sign = ep.evaluate_log_abs(ast, {"t": 900.0})
    assert sign == -1
    assert la == pytest.approx(900.0 + math.log(2.0), rel=1e-15)
    ast = ep.parse("t^3")
    la, sign = ep.evaluate_log_abs(ast, {"t": -2.0})
    assert sign == -1
    assert la == pytest.approx(3 * math.log(2.0), rel=1e-15)


# -- randomized properties ---------------------------------------------------

_numbers = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                     allow_infinity=False)


def _ast_strategy():
    leaves = st.one_of(_numbers.map(ep.Num), st.just(ep.Var("t")))

    def extend(children):
        unary = children.map(ep.Neg)
        calls = st.tuples(st.sampled_from(("exp", "log", "abs", "sgn", "sqrt")),
                          children).map(lambda p: ep.Call(p[0], (p[1],)))
        calls2 = st.tuples(st.sampled_from(("min", "max")), children,
                           children).map(lambda p: ep.Call(p[0], (p[1], p[2])))
        binops = st.tuples(st.sampled_from("+-*/^"), children,
                           children).map(lambda p: ep.Bin(p[0], p[1], p[2]))
        return st.one_of(unary, calls, calls2, binops)

    return st.recursive(leaves, extend, max_leaves=25)


@given(_ast_strategy())
@settings(max_examples=300, deadline=None)
def test_pretty_print_round_trip(ast):
    assert ep.parse(ep.pretty(ast)) == ast


# -- point-by-point reference walkers ----------------------------------------
# An evaluator independent of the array walkers: one point at a time on
# Python floats, raising at the first undefined operation.


def _ref_sgn(x: float) -> float:
    if x > 0:
        return 1.0
    if x < 0:
        return -1.0
    return 0.0


def _ref_is_integral(x: float) -> bool:
    return math.isfinite(x) and x == math.floor(x)


def _ref_env_value(env):
    if len(env) == 1:
        return next(iter(env.values()))
    return dict(env)


def _ref_evaluate_env(expr, env):
    if isinstance(expr, ep.Num):
        return expr.value
    if isinstance(expr, ep.Var):
        try:
            return float(env[expr.name])
        except KeyError:
            raise ep.DomainError("unbound variable", expr.name, dict(env)) from None
    if isinstance(expr, ep.Neg):
        return -_ref_evaluate_env(expr.arg, env)
    if isinstance(expr, ep.Bin):
        a = _ref_evaluate_env(expr.left, env)
        b = _ref_evaluate_env(expr.right, env)
        op = expr.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0.0:
                raise ep.DomainError("division by zero", ep.pretty(expr), _ref_env_value(env))
            return a / b
        if op == "^":
            if a < 0.0 and not _ref_is_integral(b):
                raise ep.DomainError("fractional power of a negative base",
                                     ep.pretty(expr), _ref_env_value(env))
            if a == 0.0 and b < 0.0:
                raise ep.DomainError("zero raised to a negative power",
                                     ep.pretty(expr), _ref_env_value(env))
            try:
                return float(a ** b)
            except OverflowError:
                raise ep.DomainError("overflow", ep.pretty(expr), _ref_env_value(env)) from None
        raise ep.DomainError(f"unknown operator {op!r}", ep.pretty(expr), _ref_env_value(env))
    if isinstance(expr, ep.Call):
        vals = [_ref_evaluate_env(a, env) for a in expr.args]
        fn = expr.fn
        try:
            if fn == "exp":
                return math.exp(vals[0])
            if fn == "log":
                if vals[0] <= 0.0:
                    raise ep.DomainError("log of a non-positive value",
                                         ep.pretty(expr), _ref_env_value(env))
                return math.log(vals[0])
            if fn == "abs":
                return abs(vals[0])
            if fn == "sgn":
                return _ref_sgn(vals[0])
            if fn == "sqrt":
                if vals[0] < 0.0:
                    raise ep.DomainError("sqrt of a negative value",
                                         ep.pretty(expr), _ref_env_value(env))
                return math.sqrt(vals[0])
            if fn == "min":
                return min(vals[0], vals[1])
            if fn == "max":
                return max(vals[0], vals[1])
        except OverflowError:
            raise ep.DomainError("overflow", ep.pretty(expr), _ref_env_value(env)) from None
        raise ep.DomainError(f"unknown function {fn!r}", ep.pretty(expr), _ref_env_value(env))
    raise TypeError(f"not an expression node: {expr!r}")


def _ref_evaluate_log_abs(expr, env):
    if isinstance(expr, ep.Neg):
        la, s = _ref_evaluate_log_abs(expr.arg, env)
        return la, -s
    if isinstance(expr, ep.Call) and expr.fn == "exp":
        return _ref_evaluate_env(expr.args[0], env), 1
    if isinstance(expr, ep.Call) and expr.fn == "abs":
        la, s = _ref_evaluate_log_abs(expr.args[0], env)
        return la, (1 if s != 0 else 0)
    if isinstance(expr, ep.Call) and expr.fn == "sqrt":
        la, s = _ref_evaluate_log_abs(expr.args[0], env)
        if s < 0:
            raise ep.DomainError("sqrt of a negative value", ep.pretty(expr), _ref_env_value(env))
        return la / 2.0, s
    if isinstance(expr, ep.Bin) and expr.op in "*/":
        la, sa = _ref_evaluate_log_abs(expr.left, env)
        lb, sb = _ref_evaluate_log_abs(expr.right, env)
        if expr.op == "/":
            if sb == 0:
                raise ep.DomainError("division by zero", ep.pretty(expr), _ref_env_value(env))
            return la - lb, sa * sb
        if sa == 0 or sb == 0:
            return -math.inf, 0
        return la + lb, sa * sb
    if isinstance(expr, ep.Bin) and expr.op == "^":
        la, sa = _ref_evaluate_log_abs(expr.left, env)
        e = _ref_evaluate_env(expr.right, env)
        if sa < 0 and not _ref_is_integral(e):
            raise ep.DomainError("fractional power of a negative base",
                                 ep.pretty(expr), _ref_env_value(env))
        if sa == 0:
            if e > 0.0:
                return -math.inf, 0
            if e == 0.0:
                return 0.0, 1
            raise ep.DomainError("zero raised to a negative power",
                                 ep.pretty(expr), _ref_env_value(env))
        sign = sa if (sa > 0 or int(e) % 2) else 1
        return e * la, sign
    value = _ref_evaluate_env(expr, env)
    if value == 0.0:
        return -math.inf, 0
    return math.log(abs(value)), (1 if value > 0 else -1)


def _scalar_rows(exprs, xs):
    """Point-by-point reference for evaluate_array from the reference walker:
    the rows, or the first DomainError raised, which names its point as a
    Python float, as evaluate_array does."""
    rows = []
    for x in xs.tolist():
        try:
            rows.append([_ref_evaluate_env(e, {"t": x}) for e in exprs])
        except ep.DomainError as exc:
            return None, exc
    return np.array(rows, dtype=float).reshape(len(xs), len(exprs)), None


def _assert_matches_scalar(exprs, xs):
    want, want_err = _scalar_rows(exprs, xs)
    if want_err is not None:
        with pytest.raises(ep.DomainError) as err:
            ep.evaluate_array(exprs, {"t": xs})
        assert str(err.value) == str(want_err)
        assert (err.value.fragment, err.value.value) == (want_err.fragment, want_err.value)
        return
    got = ep.evaluate_array(exprs, {"t": xs})
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # bitwise, NaN payloads included


@given(st.lists(_ast_strategy(), min_size=1, max_size=3),
       st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_array_evaluation_matches_scalar(exprs, points):
    _assert_matches_scalar(exprs, np.array(points + [0.0, -0.0, 1.0]))


def test_array_evaluation_raises_at_first_failing_point():
    log_t, pole = ep.parse("log(t)"), ep.parse("1/(t-2)")
    xs = np.array([3.0, 2.0, -1.0])
    with pytest.raises(ep.DomainError, match="division by zero") as err:
        ep.evaluate_array([log_t, pole], {"t": xs})
    assert err.value.value == 2.0
    with pytest.raises(ep.DomainError, match="log of a non-positive") as err:
        ep.evaluate_array([pole, log_t], {"t": xs[::-1]})
    assert err.value.value == -1.0
    _assert_matches_scalar([ep.parse("exp(t)")], np.array([1.0, 800.0, -800.0]))
    _assert_matches_scalar([ep.parse("t^400")], np.array([1.0, 10.0, -10.0]))


_INF = math.inf


@pytest.mark.parametrize("source, xs", [
    # inf - inf is a NaN whose sign bit is set on most hardware, and its
    # negation the other one: ** returns a NaN base as given, libm's pow
    # may not
    ("(t-t)^1", [_INF]), ("(t-t)^3", [_INF]), ("(-(t-t))^3", [_INF]), ("(t-t)^0", [_INF]),
    ("1^(t-t)", [_INF]), ("2^(t-t)", [_INF]), ("(t-t)^(t-t)", [_INF]),
    ("t^3", [0.0, -0.0, _INF, -_INF]), ("t^2", [0.0, -0.0, _INF, -_INF]),
    ("t^0.5", [0.0, -0.0, _INF]), ("t^0", [0.0, -0.0, _INF, -_INF]),
    ("t^-3", [_INF, -_INF]), ("t^-2", [_INF, -_INF]), ("t^-0.5", [_INF]),
    ("t^-3", [0.0]), ("t^-3", [-0.0]), ("t^0.5", [-_INF]), ("t^(1e308*10)", [-2.0]),
    ("t^3", [-2.5, -1.0, -1e-3, -7.25]), ("t^2", [-2.5, -1.0, -1e-3, -7.25]),
    ("t^-3", [-2.5, -1.0, -1e-3]), ("t^-4", [-2.5, -1.0, -1e-3]),
    ("t^1e300", [-1.0, 1.0, 0.5, -0.5]), ("t^-1e300", [-1.0, 2.0]),
    ("t^400", [1.0, 2.0, 10.0, -10.0]), ("t^301", [2.0, -10.0, 10.0]),
    ("t^-400", [0.5, 1e-3, 1e-4]), ("2^t", [1.0, 1023.0, 1024.0, 2000.0]),
    ("t^0.5", [5e-324, 2.0 ** -1074 * 3]), ("t^2", [5e-324, 1e-160, 1e-200]),
])
def test_power_matches_python_on_special_operands(source, xs):
    _assert_matches_scalar([ep.parse(source)], np.array(xs))


def _power_operands(rng: random.Random, count: int) -> tuple[list, list]:
    """(base, exponent) pairs mixing ordinary magnitudes of both signs,
    integral exponents, every double's bit pattern (NaNs of both signs,
    signaling ones, subnormals, infinities) and hand-picked specials."""
    specials = [0.0, -0.0, _INF, -_INF, math.nan, -math.nan, 1.0, -1.0, 5e-324, -5e-324,
                2.2250738585072014e-308, struct.unpack("d", struct.pack("Q", 0x7FF0000000000001))[0]]

    def any_double():
        return struct.unpack("d", struct.pack("Q", rng.getrandbits(64)))[0]

    def base():
        r = rng.random()
        if r < 0.1:
            return rng.choice(specials)
        if r < 0.3:
            return any_double()
        return rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 50.0) * 10.0 ** rng.uniform(-5, 5)

    def exponent():
        r = rng.random()
        if r < 0.4:
            return float(rng.randint(-400, 400))
        if r < 0.5:
            return rng.choice(specials + [0.5, -0.5, 1e300, -1e300, 2.0 ** 53 + 2])
        if r < 0.6:
            return any_double()
        return rng.uniform(-400.0, 400.0)

    pairs = [(base(), exponent()) for _ in range(count)]
    return [b for b, _ in pairs], [e for _, e in pairs]


def _python_power(x: float, y: float):
    """x ** y, or the kind of DomainError the evaluator raises for it."""
    if x < 0.0 and not _ref_is_integral(y):
        return "fractional power of a negative base"
    if x == 0.0 and y < 0.0:
        return "zero raised to a negative power"
    try:
        return x ** y
    except OverflowError:
        return "overflow"


def test_power_matches_python_bitwise_in_bulk():
    xs, ys = _power_operands(random.Random(20261018), 100_000)
    want = [_python_power(x, y) for x, y in zip(xs, ys)]
    failed = [isinstance(w, str) for w in want]
    assert 1000 < sum(w == "overflow" for w in want) < sum(failed) < 90_000
    power = ep.Bin("^", ep.Var("x"), ep.Var("y"))

    def check_first_error(keep):
        """Evaluated on the pairs ``keep`` selects, the error names the first
        failing one, by kind and by the bits of its operands."""
        bs = [x for x, k in zip(xs, keep) if k]
        es = [y for y, k in zip(ys, keep) if k]
        kinds = [w for w, k in zip(want, keep) if k]
        with pytest.raises(ep.DomainError) as err:
            ep.evaluate_array([power], {"x": np.array(bs), "y": np.array(es)})
        m = next(i for i, w in enumerate(kinds) if isinstance(w, str))
        assert str(err.value).startswith(kinds[m] + " in 'x^y' at input ")
        got = np.array([err.value.value["x"], err.value.value["y"]])
        assert got.tobytes() == np.array([bs[m], es[m]]).tobytes()

    check_first_error([True] * len(want))
    check_first_error([w == "overflow" or not f for w, f in zip(want, failed)])
    ok = ~np.array(failed)
    got = ep.evaluate_array([power], {"x": np.array(xs)[ok], "y": np.array(ys)[ok]})[:, 0]
    assert got.tobytes() == np.array([w for w, f in zip(want, failed) if not f]).tobytes()


def _assert_log_abs_matches_scalar(exprs, xs):
    """evaluate_log_abs_array against the reference walker point by point:
    the same logs bitwise, the same signs, or the same first DomainError."""
    rows, want_err = [], None
    for x in xs:
        try:
            rows.append([_ref_evaluate_log_abs(e, {"t": x}) for e in exprs])
        except ep.DomainError as exc:
            want_err = exc
            break
    if want_err is not None:
        with pytest.raises(ep.DomainError) as err:
            ep.evaluate_log_abs_array(exprs, {"t": xs})
        assert str(err.value) == str(want_err)
        assert (err.value.fragment, err.value.value) == (want_err.fragment, want_err.value)
        return
    logs, signs = ep.evaluate_log_abs_array(exprs, {"t": xs})
    want_logs = np.array([[la for la, _ in row] for row in rows], dtype=float)
    assert logs.shape == want_logs.shape
    assert logs.tobytes() == want_logs.tobytes()  # bitwise, NaN payloads included
    assert signs.tolist() == [[s for _, s in row] for row in rows]


@given(st.lists(_ast_strategy(), min_size=1, max_size=3),
       st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_log_abs_array_matches_scalar(exprs, points):
    _assert_log_abs_matches_scalar(exprs, points + [0.0, -0.0, 1.0, -1.0, 2.0])


def test_log_abs_array_folds_in_log_space_and_raises_at_first_failing_point():
    decaying = ep.parse("exp(-3*t^2-3*t-1)")
    _assert_log_abs_matches_scalar([decaying], [400.0, -400.0, 0.0])
    for text in ("-(t-1)^3", "(t-1)^2*sqrt(abs(t))/(t+5)", "abs(-t)^-2", "(t-1)^0",
                 "-2*exp(t)^3"):
        _assert_log_abs_matches_scalar([ep.parse(text)], [1.0, -3.0, 0.0, 2.5, 900.0])
    pole, root = ep.parse("1/(t-2)"), ep.parse("sqrt(t+1)")
    with pytest.raises(ep.DomainError, match="division by zero") as err:
        ep.evaluate_log_abs_array([root, pole], {"t": [3.0, 2.0, -2.0]})
    assert err.value.value == 2.0 and type(err.value.value) is float
    with pytest.raises(ep.DomainError, match="sqrt of a negative") as err:
        ep.evaluate_log_abs_array([pole, root], {"t": [3.0, -2.0, 2.0]})
    assert err.value.value == -2.0
    _assert_log_abs_matches_scalar([ep.parse("(t-3)^-1"), ep.parse("(t-4)^0.5")],
                                   [5.0, 3.0, 4.0])
    # a NaN exponent on a zero base raises like a negative one
    _assert_log_abs_matches_scalar([ep.parse("(t-1)^(1e308*10-1e308*10)")], [2.0, 1.0])


@pytest.mark.parametrize("value", [1.0, 2.5, -3.0, 0.0, -0.0, 5e-324, 1e308 * 10, math.nan])
def test_log_abs_of_a_constant_takes_one_log(monkeypatch, value):
    """A constant's (logs, signs) are bitwise those of the per-point log
    map, which the constant plus 0 still takes, and the constant itself
    never reaches ``_map_checked``."""
    env = {"t": [1.0, -3.0, 0.0, 2.5]}
    want_logs, want_signs = ep.evaluate_log_abs_array(
        [ep.Bin("+", ep.Num(value), ep.Num(0.0))], env)

    def per_point(*args):
        raise AssertionError("a constant took the per-point map")

    monkeypatch.setattr(ep, "_map_checked", per_point)
    logs, signs = ep.evaluate_log_abs_array([ep.Num(value)], env)
    assert logs.tobytes() == want_logs.tobytes()
    assert (signs.dtype, signs.tolist()) == (want_signs.dtype, want_signs.tolist())


@given(_numbers, _numbers, _numbers)
@settings(max_examples=200, deadline=None)
def test_precedence_property(a, b, c):
    lhs = ep.evaluate(ep.parse(f"{a:.17g}+{b:.17g}*{c:.17g}"), 0.0)
    rhs = ep.evaluate(ep.parse(f"{a:.17g}+({b:.17g}*{c:.17g})"), 0.0)
    assert lhs == rhs


def _random_source(rng: random.Random, depth: int = 0) -> str:
    if depth > 4 or rng.random() < 0.3:
        return rng.choice(["t", f"{rng.uniform(0, 50):.6g}"])
    form = rng.randrange(4)
    if form == 0:
        return f"-{_random_source(rng, depth + 1)}"
    if form == 1:
        op = rng.choice("+-*/^")
        return f"({_random_source(rng, depth + 1)}{op}{_random_source(rng, depth + 1)})"
    if form == 2:
        fn = rng.choice(["exp", "log", "abs", "sgn", "sqrt"])
        return f"{fn}({_random_source(rng, depth + 1)})"
    fn = rng.choice(["min", "max"])
    return f"{fn}({_random_source(rng, depth + 1)},{_random_source(rng, depth + 1)})"


def test_eval_never_aborts_on_random_expressions():
    rng = random.Random(20240811)
    failures = 0
    for _ in range(1000):
        source = _random_source(rng)
        try:
            ast = ep.parse(source)
        except ep.ParseError:
            failures += 1
            continue
        try:
            value = ep.evaluate(ast, rng.uniform(-20, 20))
        except ep.DomainError:
            failures += 1
            continue
        assert isinstance(value, float)
    # the generator builds well-formed sources, so most must evaluate
    assert failures < 1000


# -- parity ------------------------------------------------------------------


@pytest.mark.parametrize("source, want", [
    ("2*abs(t)", ep.EVEN), ("1/(1+abs(t))", ep.EVEN), ("3*t^2", ep.EVEN),
    ("2*(-0.7)*abs(t)", ep.EVEN), ("exp(-t^2)", ep.EVEN), ("max(abs(t),1)", ep.EVEN),
    ("sqrt(t*t)", ep.EVEN), ("abs(t)^abs(t)", ep.EVEN), ("t^0", ep.EVEN), ("t^-2", ep.EVEN),
    ("t", ep.ODD), ("t^3/5", ep.ODD), ("t^-1", ep.ODD), ("sgn(t)*log(1+abs(t))", ep.ODD),
    ("-t*abs(t)", ep.ODD), ("t-t^3", ep.ODD), ("sgn(t)", ep.ODD),
    ("t^0.5", None), ("exp(t)", None), ("max(t,1)", None), ("2*abs(t)+0.1*t", None),
    ("2^t", None), ("abs(t)^t", None), ("t^abs(t)", None), ("t^(1+2)", None),
    ("log(t)", None), ("sqrt(t)", None), ("min(t,-t)", None), ("abs(exp(t))", None),
])
def test_parity_is_claimed_by_the_rules_only(source, want):
    assert ep.parity(ep.parse(source)) == want


def _parity_ast_strategy():
    """Expressions of even and odd parts, and powers of them under small
    integer exponents, which the parity rules mostly claim."""
    numbers = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 7.0, 100.0, 1e-300, 1e300])
    leaves = st.one_of(numbers.map(ep.Num), st.just(ep.Var("t")))
    integers = st.integers(min_value=-3, max_value=7).map(
        lambda e: ep.Num(float(e)) if e >= 0 else ep.Neg(ep.Num(float(-e))))

    def extend(children):
        unary = children.map(ep.Neg)
        calls = st.tuples(st.sampled_from(("exp", "log", "abs", "sgn", "sqrt")),
                          children).map(lambda p: ep.Call(p[0], (p[1],)))
        calls2 = st.tuples(st.sampled_from(("min", "max")), children,
                           children).map(lambda p: ep.Call(p[0], (p[1], p[2])))
        binops = st.tuples(st.sampled_from("+-*/^"), children,
                           children).map(lambda p: ep.Bin(p[0], p[1], p[2]))
        powers = st.tuples(children, integers).map(lambda p: ep.Bin("^", p[0], p[1]))
        return st.one_of(unary, calls, calls2, binops, powers)

    return st.recursive(leaves, extend, max_leaves=12)


def _values_or_failures(ast, xs):
    """The values of ``ast`` at xs, with NaN and a True in the mask where
    evaluating that point alone fails."""
    try:
        return ep.evaluate_array([ast], {"t": xs})[:, 0], np.zeros(len(xs), dtype=bool)
    except ep.DomainError:
        pass
    values, failed = np.full(len(xs), math.nan), np.zeros(len(xs), dtype=bool)
    for m, x in enumerate(xs.tolist()):
        try:
            values[m] = ep.evaluate(ast, x)
        except ep.DomainError:
            failed[m] = True
    return values, failed


@given(_parity_ast_strategy(), st.lists(st.floats(min_value=-50.0, max_value=50.0), max_size=8))
@settings(max_examples=500, deadline=None, derandomize=True)
def test_parity_claims_hold_bit_for_bit(ast, points):
    """Where ``parity`` claims a parity, the value at 0.0 - x is (-1)^parity
    times the value at x, bitwise up to the sign of a zero (NaN where NaN),
    and a point fails exactly where its mirror point fails: at the quarter
    times of [-5, 5], at +-0 and at random points."""
    p = ep.parity(ast)
    if p is None:
        return
    xs = np.concatenate([np.arange(-20, 21) / 4.0, [-0.0], points])
    at, at_failed = _values_or_failures(ast, xs)
    mirror, mirror_failed = _values_or_failures(ast, 0.0 - xs)
    assert np.array_equal(at_failed, mirror_failed)
    want = at * (-1.0) ** p
    nan = np.isnan(mirror)
    assert np.array_equal(nan, np.isnan(want))
    assert (mirror[~nan] + 0.0).tobytes() == (want[~nan] + 0.0).tobytes()
