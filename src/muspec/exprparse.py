"""Small arithmetic expression language for coefficient functions and log-rates.

Grammar (whitespace-insensitive):

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom ("^" factor)?          right-associative
    atom    := NUMBER | VAR | FN "(" expr ("," expr)? ")" | "(" expr ")"
    NUMBER  := digits ["." digits] [("e"|"E") ["+"|"-"] digits]

"^" binds tighter than unary minus, which binds tighter than "*" and "/".
There is no implicit multiplication ("2t" is a syntax error).  Functions are
exp, log, abs, sgn, sqrt (unary) and min, max (binary).  An expression uses a
single time variable, "t" or "k"; helpers that need two named variables (for
closed-form propagators in (k, n) or (t, s)) pass an explicit variable set.

Evaluation comes in two forms with one meaning: ``evaluate_env`` returns the
value at one point and ``evaluate_log_abs`` its (log|value|, sign), folding
exp, products, quotients and powers in log space; ``evaluate_array`` and
``evaluate_log_abs_array`` do the same over arrays of points, bitwise equal
point by point and raising the error the point-by-point loop raises first.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np


FUNCTIONS = {"exp": 1, "log": 1, "abs": 1, "sgn": 1, "sqrt": 1, "min": 2, "max": 2}

DEFAULT_VARIABLES = ("t", "k")


class ExprError(ValueError):
    """Base class for expression failures."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int, expected: Iterable[str] = ()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} at offset {offset}"
        if self.expected:
            detail += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(detail)


class UnknownIdentifierError(ParseError):
    pass


class DomainError(ExprError):
    """Evaluation hit an undefined operation (log of a non-positive value,
    division by zero, fractional power of a negative base, overflow)."""

    def __init__(self, message: str, fragment: str, value):
        self.fragment = fragment
        self.value = value
        super().__init__(f"{message} in '{fragment}' at input {value!r}")


@dataclass(frozen=True, slots=True)
class Num:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Call:
    fn: str
    args: tuple


Expr = Num | Var | Neg | Bin | Call


# ---------------------------------------------------------------------------
# Tokenizer


_OPERATORS = set("+-*/^(),")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATORS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("eof", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens, allowed_vars, single_variable):
        self.tokens = tokens
        self.pos = 0
        self.allowed = frozenset(allowed_vars)
        self.single = single_variable
        self.seen_var: str | None = None

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, off = self.peek()
        if kind == "op" and text == symbol:
            return self.advance()
        raise ParseError(f"unexpected {_describe(kind, text)}", off, (f"'{symbol}'",))

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {_describe(kind, text)}", off,
                             ("operator", "end of input"))
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Bin(text, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Bin(text, node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Bin("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if text in FUNCTIONS:
                return self.call(text, off)
            if text in self.allowed:
                if self.single:
                    if self.seen_var is None:
                        self.seen_var = text
                    elif self.seen_var != text:
                        raise ParseError(
                            f"expression mixes variables '{self.seen_var}' and '{text}'",
                            off)
                return Var(text)
            raise UnknownIdentifierError(f"unknown identifier '{text}'", off)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected {_describe(kind, text)}", off,
                         ("number", "identifier", "'('", "'-'"))

    def call(self, fn: str, off: int) -> Expr:
        arity = FUNCTIONS[fn]
        self.expect_op("(")
        args = [self.expr()]
        if arity == 2:
            kind, text, off2 = self.peek()
            if not (kind == "op" and text == ","):
                raise ParseError(f"unexpected {_describe(kind, text)}", off2, ("','",))
            self.advance()
            args.append(self.expr())
        self.expect_op(")")
        return Call(fn, tuple(args))


def _describe(kind: str, text: str) -> str:
    if kind == "eof":
        return "end of input"
    return f"token '{text}'"


def parse(text: str, variables: tuple[str, ...] | None = None) -> Expr:
    """Parse ``text`` into an AST.

    By default the expression may use one variable, either ``t`` or ``k``.
    Passing an explicit ``variables`` tuple allows that exact set of names
    (used for closed-form propagators in two time variables).
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    single = variables is None
    allowed = DEFAULT_VARIABLES if variables is None else tuple(variables)
    return _Parser(_tokenize(text), allowed, single).parse()


def variables_of(expr: Expr) -> frozenset[str]:
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Neg):
        return variables_of(expr.arg)
    if isinstance(expr, Bin):
        return variables_of(expr.left) | variables_of(expr.right)
    if isinstance(expr, Call):
        out: frozenset[str] = frozenset()
        for a in expr.args:
            out |= variables_of(a)
        return out
    return frozenset()


# ---------------------------------------------------------------------------
# Evaluation


def _sgn(x: float) -> float:
    if x > 0:
        return 1.0
    if x < 0:
        return -1.0
    return 0.0


def _is_integral(x: float) -> bool:
    return math.isfinite(x) and x == math.floor(x)


def evaluate_env(expr: Expr, env: Mapping[str, float]) -> float:
    """Evaluate with named variables bound by ``env``.  Deterministic: the
    same inputs always produce the bitwise-identical result."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return float(env[expr.name])
        except KeyError:
            raise DomainError("unbound variable", expr.name, dict(env)) from None
    if isinstance(expr, Neg):
        return -evaluate_env(expr.arg, env)
    if isinstance(expr, Bin):
        a = evaluate_env(expr.left, env)
        b = evaluate_env(expr.right, env)
        op = expr.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0.0:
                raise DomainError("division by zero", pretty(expr), env_value(env))
            return a / b
        if op == "^":
            if a < 0.0 and not _is_integral(b):
                raise DomainError("fractional power of a negative base",
                                  pretty(expr), env_value(env))
            if a == 0.0 and b < 0.0:
                raise DomainError("zero raised to a negative power",
                                  pretty(expr), env_value(env))
            try:
                return float(a ** b)
            except OverflowError:
                raise DomainError("overflow", pretty(expr), env_value(env)) from None
        raise DomainError(f"unknown operator {op!r}", pretty(expr), env_value(env))
    if isinstance(expr, Call):
        vals = [evaluate_env(a, env) for a in expr.args]
        fn = expr.fn
        try:
            if fn == "exp":
                return math.exp(vals[0])
            if fn == "log":
                if vals[0] <= 0.0:
                    raise DomainError("log of a non-positive value",
                                      pretty(expr), env_value(env))
                return math.log(vals[0])
            if fn == "abs":
                return abs(vals[0])
            if fn == "sgn":
                return _sgn(vals[0])
            if fn == "sqrt":
                if vals[0] < 0.0:
                    raise DomainError("sqrt of a negative value",
                                      pretty(expr), env_value(env))
                return math.sqrt(vals[0])
            if fn == "min":
                return min(vals[0], vals[1])
            if fn == "max":
                return max(vals[0], vals[1])
        except OverflowError:
            raise DomainError("overflow", pretty(expr), env_value(env)) from None
        raise DomainError(f"unknown function {fn!r}", pretty(expr), env_value(env))
    raise TypeError(f"not an expression node: {expr!r}")


def env_value(env: Mapping[str, float]):
    if len(env) == 1:
        return next(iter(env.values()))
    return dict(env)


def evaluate(expr: Expr, value: float) -> float:
    """Evaluate a single-variable expression at ``value`` (binds every
    variable name appearing in the expression)."""
    env = {name: value for name in variables_of(expr)}
    if not env:
        env = {"t": value}
    return evaluate_env(expr, env)


def evaluate_array(exprs: Sequence[Expr], env: Mapping[str, np.ndarray]) -> np.ndarray:
    """Evaluate expressions at every point of equal-length variable arrays.

    Returns shape (points, len(exprs)); row m holds, bitwise, the floats
    ``[evaluate_env(e, point_m) for e in exprs]`` with point_m binding each
    name to element m of its array.  Arithmetic, abs, sgn, sqrt, min and max
    run as numpy operations, which round exactly like the scalar ones; exp,
    log and "^" apply the same ``math``/``**`` calls element by element.
    When some point fails, the error is the one that loop raises first: at
    the earliest failing point, from the first failing expression.
    """
    return np.stack(_masked_columns(exprs, env, _evaluate_masked, evaluate_env), axis=1)


def _masked_columns(exprs, env, masked, scalar) -> list:
    """``masked(e, arrays, bad, size)`` for every expression over the points
    of ``env``.  If any point is marked bad, raise what ``scalar(e, point)``
    raises at the first marked point, expression by expression."""
    arrays = {name: np.asarray(values, dtype=float) for name, values in env.items()}
    size = len(next(iter(arrays.values())))
    bad = np.zeros(size, dtype=bool)
    with np.errstate(all="ignore"):
        columns = [masked(e, arrays, bad, size) for e in exprs]
    if bad.any():
        m = int(np.argmax(bad))
        point = {name: values[m] for name, values in env.items()}
        for e in exprs:
            scalar(e, point)
        raise AssertionError(f"array evaluation flagged input {point!r} that evaluates")
    return columns


def _evaluate_masked(expr: Expr, env: Mapping[str, np.ndarray], bad: np.ndarray,
                     size: int) -> np.ndarray:
    """Array twin of ``evaluate_env``: marks in ``bad`` every point at which
    the scalar evaluation raises; values at marked points are meaningless."""
    if isinstance(expr, Num):
        return np.full(size, expr.value)
    if isinstance(expr, Var):
        if expr.name not in env:
            bad[:] = True
            return np.zeros(size)
        return env[expr.name]
    if isinstance(expr, Neg):
        return -_evaluate_masked(expr.arg, env, bad, size)
    if isinstance(expr, Bin):
        a = _evaluate_masked(expr.left, env, bad, size)
        b = _evaluate_masked(expr.right, env, bad, size)
        op = expr.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            bad |= b == 0.0
            return a / b
        if op == "^":
            integral = np.isfinite(b) & (b == np.floor(b))
            bad |= ((a < 0.0) & ~integral) | ((a == 0.0) & (b < 0.0))
            return _map_checked(operator.pow, bad, np.where(bad, 1.0, a), b)
    elif isinstance(expr, Call):
        vals = [_evaluate_masked(a, env, bad, size) for a in expr.args]
        fn = expr.fn
        if fn == "exp":
            return _map_checked(math.exp, bad, vals[0])
        if fn == "log":
            bad |= vals[0] <= 0.0
            return _map_checked(math.log, bad, np.where(bad, 1.0, vals[0]))
        if fn == "abs":
            return np.abs(vals[0])
        if fn == "sgn":
            return np.where(vals[0] > 0.0, 1.0, np.where(vals[0] < 0.0, -1.0, 0.0))
        if fn == "sqrt":
            bad |= vals[0] < 0.0
            return np.sqrt(vals[0])
        if fn == "min":
            return np.where(vals[1] < vals[0], vals[1], vals[0])
        if fn == "max":
            return np.where(vals[1] > vals[0], vals[1], vals[0])
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    bad[:] = True  # unknown operator or function
    return np.zeros(size)


def _map_checked(fn, bad: np.ndarray, *arrays: np.ndarray) -> np.ndarray:
    """``fn`` on Python floats, element by element; elements where it
    overflows are marked in ``bad``."""
    columns = [a.tolist() for a in arrays]
    try:
        return np.array(list(map(fn, *columns)), dtype=float)
    except OverflowError:
        pass
    out = np.empty(len(columns[0]))
    for i, args in enumerate(zip(*columns)):
        try:
            out[i] = fn(*args)
        except OverflowError:
            bad[i] = True
            out[i] = math.nan
    return out


def evaluate_log_abs(expr: Expr, env: Mapping[str, float]) -> tuple[float, int]:
    """Return ``(log|value|, sign)`` without forming the value itself.

    exp/product/quotient/power nodes are folded structurally in log space, so
    coefficients such as exp(-3*k^2-3*k-1) stay representable at times where
    the plain value would overflow or underflow.  log|0| is -inf with sign 0.
    """
    if isinstance(expr, Neg):
        la, s = evaluate_log_abs(expr.arg, env)
        return la, -s
    if isinstance(expr, Call) and expr.fn == "exp":
        return evaluate_env(expr.args[0], env), 1
    if isinstance(expr, Call) and expr.fn == "abs":
        la, s = evaluate_log_abs(expr.args[0], env)
        return la, (1 if s != 0 else 0)
    if isinstance(expr, Call) and expr.fn == "sqrt":
        la, s = evaluate_log_abs(expr.args[0], env)
        if s < 0:
            raise DomainError("sqrt of a negative value", pretty(expr), env_value(env))
        return la / 2.0, s
    if isinstance(expr, Bin) and expr.op in "*/":
        la, sa = evaluate_log_abs(expr.left, env)
        lb, sb = evaluate_log_abs(expr.right, env)
        if expr.op == "/":
            if sb == 0:
                raise DomainError("division by zero", pretty(expr), env_value(env))
            return la - lb, sa * sb
        if sa == 0 or sb == 0:
            return -math.inf, 0
        return la + lb, sa * sb
    if isinstance(expr, Bin) and expr.op == "^":
        la, sa = evaluate_log_abs(expr.left, env)
        e = evaluate_env(expr.right, env)
        if sa < 0 and not _is_integral(e):
            raise DomainError("fractional power of a negative base",
                              pretty(expr), env_value(env))
        if sa == 0:
            if e > 0.0:
                return -math.inf, 0
            if e == 0.0:
                return 0.0, 1
            raise DomainError("zero raised to a negative power",
                              pretty(expr), env_value(env))
        sign = sa if (sa > 0 or int(e) % 2) else 1
        return e * la, sign
    value = evaluate_env(expr, env)
    if value == 0.0:
        return -math.inf, 0
    return math.log(abs(value)), (1 if value > 0 else -1)


def evaluate_log_abs_array(exprs: Sequence[Expr], env: Mapping[str, Sequence[float]]
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Array twin of ``evaluate_log_abs``, as ``evaluate_array`` is of
    ``evaluate_env``.

    Returns (logs, signs) of shape (points, len(exprs)); entry (m, i) is,
    bitwise, ``evaluate_log_abs(exprs[i], point_m)`` with signs as integers.
    When some point fails, the error is the one evaluating point by point,
    expression by expression, raises first; its input is the element of
    ``env`` as given (a Python float stays one).
    """
    columns = _masked_columns(exprs, env, _log_abs_masked, evaluate_log_abs)
    return (np.stack([la for la, _ in columns], axis=1),
            np.stack([s for _, s in columns], axis=1))


def _log_abs_masked(expr: Expr, env: Mapping[str, np.ndarray], bad: np.ndarray,
                    size: int) -> tuple[np.ndarray, np.ndarray]:
    """Array twin of ``evaluate_log_abs`` node by node: marks in ``bad``
    every point at which the scalar call raises."""
    if isinstance(expr, Neg):
        la, s = _log_abs_masked(expr.arg, env, bad, size)
        return la, -s
    if isinstance(expr, Call) and expr.fn == "exp":
        return _evaluate_masked(expr.args[0], env, bad, size), np.ones(size, dtype=int)
    if isinstance(expr, Call) and expr.fn == "abs":
        la, s = _log_abs_masked(expr.args[0], env, bad, size)
        return la, (s != 0).astype(int)
    if isinstance(expr, Call) and expr.fn == "sqrt":
        la, s = _log_abs_masked(expr.args[0], env, bad, size)
        bad |= s < 0
        return la / 2.0, s
    if isinstance(expr, Bin) and expr.op in "*/":
        la, sa = _log_abs_masked(expr.left, env, bad, size)
        lb, sb = _log_abs_masked(expr.right, env, bad, size)
        if expr.op == "/":
            bad |= sb == 0
            return la - lb, sa * sb
        zero = (sa == 0) | (sb == 0)
        return np.where(zero, -math.inf, la + lb), np.where(zero, 0, sa * sb)
    if isinstance(expr, Bin) and expr.op == "^":
        la, sa = _log_abs_masked(expr.left, env, bad, size)
        e = _evaluate_masked(expr.right, env, bad, size)
        integral = np.isfinite(e) & (e == np.floor(e))
        zero = sa == 0
        bad |= ((sa < 0) & ~integral) | (zero & ~(e > 0.0) & ~(e == 0.0))
        # a negative base keeps its sign under an odd integral power
        even = (sa < 0) & integral & (np.fmod(np.where(integral, e, 0.0), 2.0) == 0.0)
        return (np.where(zero, np.where(e > 0.0, -math.inf, 0.0), e * la),
                np.where(zero, np.where(e > 0.0, 0, 1), np.where(even, 1, sa)))
    value = _evaluate_masked(expr, env, bad, size)
    zero = value == 0.0
    la = _map_checked(math.log, bad, np.where(zero, 1.0, np.abs(value)))
    return np.where(zero, -math.inf, la), np.where(zero, 0, np.where(value > 0.0, 1, -1))


# ---------------------------------------------------------------------------
# Printing

_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "neg": 30, "^": 40}


def _prec(expr: Expr) -> int:
    if isinstance(expr, Bin):
        return _PREC[expr.op]
    if isinstance(expr, Neg):
        return _PREC["neg"]
    return 100


def pretty(expr: Expr) -> str:
    """Render an AST back to source.  Grouping is preserved, so
    parse(pretty(parse(s))) equals parse(s)."""
    if isinstance(expr, Num):
        return f"{expr.value:.17g}"
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        inner = pretty(expr.arg)
        if _prec(expr.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, Bin):
        p = _PREC[expr.op]
        left = pretty(expr.left)
        right = pretty(expr.right)
        if expr.op == "^":
            if _prec(expr.left) <= p:
                left = f"({left})"
            if _prec(expr.right) < p:
                right = f"({right})"
        else:
            if _prec(expr.left) < p:
                left = f"({left})"
            if _prec(expr.right) <= p:
                right = f"({right})"
        return f"{left}{expr.op}{right}"
    if isinstance(expr, Call):
        return f"{expr.fn}(" + ",".join(pretty(a) for a in expr.args) + ")"
    raise TypeError(f"not an expression node: {expr!r}")
