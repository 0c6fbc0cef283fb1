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
single time variable, "t" or "k", never both.

Evaluation has one walker per form, both over arrays of points:
``evaluate_array`` gives values and ``evaluate_log_abs_array`` gives
(log|value|, sign), folding exp, products, quotients and powers in log space.
Each records the first failure at every point as it walks and raises the
first in point, expression and node order.  The per-point entry points
``evaluate``, ``evaluate_env`` and ``evaluate_log_abs`` are calls at one point.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._record import record


FUNCTIONS = {"exp": 1, "log": 1, "abs": 1, "sgn": 1, "sqrt": 1, "min": 2, "max": 2}

VARIABLES = ("t", "k")


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


@record(frozen=True)
class Num:
    __slots__ = ("value",)
    value: float


@record(frozen=True)
class Var:
    __slots__ = ("name",)
    name: str


@record(frozen=True)
class Neg:
    __slots__ = ("arg",)
    arg: "Expr"


@record(frozen=True)
class Bin:
    __slots__ = ("op", "left", "right")
    op: str
    left: "Expr"
    right: "Expr"


@record(frozen=True)
class Call:
    __slots__ = ("fn", "args")
    fn: str
    args: tuple


Expr = Num | Var | Neg | Bin | Call


# ---------------------------------------------------------------------------
# Tokenizer


_OPERATORS = set("+-*/^(),")
_DIGITS = set("0123456789")  # str.isdigit also takes superscripts and other scripts' digits


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
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k] in _DIGITS:
                    j = k
                    while j < n and text[j] in _DIGITS:
                        j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalpha() or text[j] in _DIGITS or text[j] == "_"):
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
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
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
            if text in VARIABLES:
                if self.seen_var is None:
                    self.seen_var = text
                elif self.seen_var != text:
                    raise ParseError(
                        f"expression mixes variables '{self.seen_var}' and '{text}'", off)
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


def parse(text: str) -> Expr:
    """Parse ``text`` into an AST.  The expression may use one variable,
    either ``t`` or ``k``, not both.  (An AST built directly, as
    ``Var("x")``, may name any variables: the evaluators bind whatever
    names their environment holds.)
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(_tokenize(text)).parse()


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


def evaluate_env(expr: Expr, env: Mapping[str, float]) -> float:
    """The value with named variables bound by ``env``: ``evaluate_array``
    at one point, so bitwise deterministic."""
    return float(evaluate_array([expr], {name: [v] for name, v in env.items()})[0, 0])


def evaluate(expr: Expr, value: float) -> float:
    """Evaluate a single-variable expression at ``value`` (binds every
    variable name appearing in the expression)."""
    return evaluate_env(expr, {name: value for name in variables_of(expr) or ("t",)})


def evaluate_log_abs(expr: Expr, env: Mapping[str, float]) -> tuple[float, int]:
    """``(log|value|, sign)``: ``evaluate_log_abs_array`` at one point."""
    logs, signs = evaluate_log_abs_array([expr], {name: [v] for name, v in env.items()})
    return float(logs[0, 0]), int(signs[0, 0])


def evaluate_array(exprs: Sequence[Expr], env: Mapping[str, np.ndarray]) -> np.ndarray:
    """Evaluate expressions at every point of equal-length variable arrays.

    Returns shape (points, len(exprs)); row m holds the values of ``exprs``
    with each name bound to element m of its array.  Every node runs as
    numpy array operations except exp and log, which apply ``math.exp`` and
    ``math.log`` one point at a time (``_map_checked``: numpy's SIMD exp
    and log round differently); "^" is one ``np.float_power`` call, which
    gives the floats of Python's ``**`` (``_power``).  When points fail,
    the DomainError is the first in point, expression and node order: at
    the earliest failing point, from the first failing expression, at its
    first failing node in evaluation order (arguments left to right, then
    the node).
    """
    return np.stack(_columns(exprs, env, _evaluate_masked), axis=1)


def evaluate_log_abs_array(exprs: Sequence[Expr], env: Mapping[str, Sequence[float]]
                           ) -> tuple[np.ndarray, np.ndarray]:
    """(logs, signs) of shape (points, len(exprs)): log|value| and the sign
    (an integer) of every expression at every point, without forming the
    values.  exp/product/quotient/power nodes fold in log space, so
    coefficients such as exp(-3*k^2-3*k-1) stay representable where the
    plain value would overflow or underflow.  log|0| is -inf with sign 0.
    Errors are chosen as in ``evaluate_array``.
    """
    columns = _columns(exprs, env, _log_abs_masked)
    return (np.stack([la for la, _ in columns], axis=1),
            np.stack([s for _, s in columns], axis=1))


class _Failures:
    """The first failure at each point of an array evaluation: ``flag``
    calls come in evaluation order, and a point keeps the (message, node)
    of the first call that marks it."""

    def __init__(self, size: int):
        self.size = size
        self.first: np.ndarray | None = None  # 1 + index into kinds, 0 while none
        self.kinds: list = []

    def flag(self, where, message: str, node: Expr):
        if where.any():  # as cheap as an in-place "or" while nothing fails
            if self.first is None:
                self.first = np.zeros(self.size, dtype=np.intp)
            self.kinds.append((message, node))
            self.first[where & (self.first == 0)] = len(self.kinds)

    def spared(self, values: np.ndarray) -> np.ndarray:
        """``values`` with 1.0 at every failed point, a safe math input."""
        return values if self.first is None else np.where(self.first > 0, 1.0, values)


def _columns(exprs, env, walker) -> list:
    """``walker(e, arrays, failures, size)`` for every expression over the
    points of ``env`` (one point if it binds no variable).  The error of the
    earliest failed point names its input as Python floats, whatever
    ``env`` holds: the value itself for one variable, else (and always when
    unbound) a dict, such as ``{'t': 3.5, 'k': 3.5}``."""
    arrays = {name: np.asarray(values, dtype=float) for name, values in env.items()}
    failures = _Failures(len(next(iter(arrays.values()))) if arrays else 1)
    with np.errstate(all="ignore"):
        columns = [walker(e, arrays, failures, failures.size) for e in exprs]
    if failures.first is not None:
        m = int(np.argmax(failures.first > 0))
        message, node = failures.kinds[failures.first[m] - 1]
        point = {name: float(values[m]) for name, values in arrays.items()}
        one = len(point) == 1 and not isinstance(node, Var)
        raise DomainError(message, pretty(node), next(iter(point.values())) if one else point)
    return columns


def _evaluate_masked(expr: Expr, env: Mapping[str, np.ndarray], failures: _Failures,
                     size: int) -> np.ndarray:
    """Values of ``expr`` at every point, flagging in ``failures`` every point
    where it is undefined; values at failed points are meaningless."""
    if isinstance(expr, Num):
        return np.full(size, expr.value)
    if isinstance(expr, Neg):
        return -_evaluate_masked(expr.arg, env, failures, size)
    if isinstance(expr, Var):
        if expr.name in env:
            return env[expr.name]
        message = "unbound variable"
    elif isinstance(expr, Bin):
        a = _evaluate_masked(expr.left, env, failures, size)
        b = _evaluate_masked(expr.right, env, failures, size)
        op = expr.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            failures.flag(b == 0.0, "division by zero", expr)
            return a / b
        if op == "^":
            integral = np.isfinite(b) & (b == np.floor(b))
            failures.flag((a < 0.0) & ~integral, "fractional power of a negative base", expr)
            failures.flag((a == 0.0) & (b < 0.0), "zero raised to a negative power", expr)
            return _power(failures, expr, failures.spared(a), b)
        message = f"unknown operator {op!r}"
    elif isinstance(expr, Call):
        vals = [_evaluate_masked(a, env, failures, size) for a in expr.args]
        fn = expr.fn
        if fn == "exp":
            return _map_checked(math.exp, failures, expr, vals[0])
        if fn == "log":
            failures.flag(vals[0] <= 0.0, "log of a non-positive value", expr)
            return _map_checked(math.log, failures, expr, failures.spared(vals[0]))
        if fn == "abs":
            return np.abs(vals[0])
        if fn == "sgn":
            return np.where(vals[0] > 0.0, 1.0, np.where(vals[0] < 0.0, -1.0, 0.0))
        if fn == "sqrt":
            failures.flag(vals[0] < 0.0, "sqrt of a negative value", expr)
            return np.sqrt(vals[0])
        if fn == "min":
            return np.where(vals[1] < vals[0], vals[1], vals[0])
        if fn == "max":
            return np.where(vals[1] > vals[0], vals[1], vals[0])
        message = f"unknown function {fn!r}"
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    failures.flag(np.True_, message, expr)  # unbound, or not a known operation
    return np.zeros(size)


def _power(failures: _Failures, node: Expr, base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """``base ** exponent`` as Python floats give it, in one ufunc call:
    numpy's float64 ``float_power`` loop calls libm's ``pow`` as CPython's
    float power does (``np.power`` runs numpy's own SIMD kernel instead).
    ``**`` raises OverflowError exactly where ``pow`` returns +-inf from
    finite operands, flagged as an overflow of ``node``.  Where ``pow``
    gives NaN, ``**``'s answer is put back (libm may clear a NaN's sign or
    quiet a signaling one).  The caller flags and spares negative bases
    under fractional exponents and zero under negative ones."""
    out = np.float_power(base, exponent)
    failures.flag(np.isinf(out) & np.isfinite(base) & np.isfinite(exponent), "overflow", node)
    nan = np.isnan(out)
    if nan.any():  # 1 under a zero exponent, a NaN base, 1 on base 1, a NaN exponent
        python = np.where(exponent == 0.0, 1.0,
                          np.where(np.isnan(base), base, np.where(base == 1.0, 1.0, exponent)))
        out = np.where(nan, python, out)
    return out


def _map_checked(fn, failures: _Failures, node: Expr, values: np.ndarray) -> np.ndarray:
    """``fn`` on Python floats, one point at a time; points where it
    overflows are flagged as an overflow of ``node``.  exp and log take this
    path because numpy's ``np.exp`` and ``np.log`` run SIMD kernels whose
    results differ from ``math.exp`` and ``math.log`` in the last bit on
    some inputs (about one in twenty for exp), and the evaluator gives
    ``math``'s floats."""
    column = values.tolist()
    try:
        return np.array(list(map(fn, column)), dtype=float)
    except OverflowError:
        pass
    out = np.empty(len(column))
    overflow = np.zeros(len(out), dtype=bool)
    for i, x in enumerate(column):
        try:
            out[i] = fn(x)
        except OverflowError:
            overflow[i] = True
            out[i] = math.nan
    failures.flag(overflow, "overflow", node)
    return out


def _log_abs_masked(expr: Expr, env: Mapping[str, np.ndarray], failures: _Failures,
                    size: int) -> tuple[np.ndarray, np.ndarray]:
    """(log|value|, sign) of ``expr`` at every point, folding exp, products,
    quotients and powers in log space; flags as ``_evaluate_masked`` does."""
    if isinstance(expr, Neg):
        la, s = _log_abs_masked(expr.arg, env, failures, size)
        return la, -s
    if isinstance(expr, Call) and expr.fn == "exp":
        return _evaluate_masked(expr.args[0], env, failures, size), np.ones(size, dtype=int)
    if isinstance(expr, Call) and expr.fn == "abs":
        la, s = _log_abs_masked(expr.args[0], env, failures, size)
        return la, (s != 0).astype(int)
    if isinstance(expr, Call) and expr.fn == "sqrt":
        la, s = _log_abs_masked(expr.args[0], env, failures, size)
        failures.flag(s < 0, "sqrt of a negative value", expr)
        return la / 2.0, s
    if isinstance(expr, Bin) and expr.op in "*/":
        la, sa = _log_abs_masked(expr.left, env, failures, size)
        lb, sb = _log_abs_masked(expr.right, env, failures, size)
        if expr.op == "/":
            failures.flag(sb == 0, "division by zero", expr)
            return la - lb, sa * sb
        zero = (sa == 0) | (sb == 0)
        return np.where(zero, -math.inf, la + lb), np.where(zero, 0, sa * sb)
    if isinstance(expr, Bin) and expr.op == "^":
        la, sa = _log_abs_masked(expr.left, env, failures, size)
        e = _evaluate_masked(expr.right, env, failures, size)
        integral = np.isfinite(e) & (e == np.floor(e))
        zero = sa == 0
        failures.flag((sa < 0) & ~integral, "fractional power of a negative base", expr)
        # a NaN exponent on a zero base fails like a negative one
        failures.flag(zero & ~(e > 0.0) & ~(e == 0.0), "zero raised to a negative power", expr)
        # a negative base keeps its sign under an odd integral power
        even = (sa < 0) & integral & (np.fmod(np.where(integral, e, 0.0), 2.0) == 0.0)
        return (np.where(zero, np.where(e > 0.0, -math.inf, 0.0), e * la),
                np.where(zero, np.where(e > 0.0, 0, 1), np.where(even, 1, sa)))
    if isinstance(expr, Num):  # one log, the floats of the per-point map
        c = expr.value
        return (np.full(size, math.log(abs(c)) if c != 0.0 else -math.inf),
                np.full(size, 1 if c > 0.0 else 0 if c == 0.0 else -1))
    value = _evaluate_masked(expr, env, failures, size)
    zero = value == 0.0
    la = _map_checked(math.log, failures, expr, np.where(zero, 1.0, np.abs(value)))
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
