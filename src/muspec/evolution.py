"""Evolution operators for discrete and continuous nonautonomous linear
systems, in overflow-safe scaled form.

A propagator value is held as a ``ScaledMatrix``: a unit-scale matrix times
``exp(log_norm)``.  Long products (Magnus steps and their squarings, the
walks of a full-system grid) are rescaled after every factor by an exact
power of two, which changes no digit, and are brought to 2-norm 1 once at
the end; so the catalog systems, whose propagators reach e^(+-10^4) on
ordinary windows, never leave double range.  Full continuous systems are
integrated by the 4th-order Magnus method (``_magnus_factors``).  Scalar
and diagonal structures additionally keep their per-component logs
exactly: sums of per-step log-magnitudes, the Gauss-Lobatto integral of
the coefficient in continuous time, or the closed-form log of a rate
quotient in either time domain.
"""

from __future__ import annotations

import csv
import functools
import math
from pathlib import Path

import numpy as np

from . import exprparse, rates
from ._record import record
from .params import CONTINUOUS, DISCRETE


SCALAR = "scalar"
DIAGONAL = "diagonal"
FULL = "full"

_MAX_DIM = 16
_MIN_ABS_DET = 1e-300


class EvolutionError(ValueError):
    """Invalid system construction or propagation request."""


# ---------------------------------------------------------------------------
# Scaled matrices


@record(frozen=True, eq=False)
class ScaledMatrix:
    """A matrix split as exp(log_norm) * unit with ||unit|| in [0.5, 2].

    For scalar systems the unit is the 1x1 sign matrix and log_norm is the
    log-magnitude of the propagator.  Diagonal values additionally carry the
    exact per-component log-magnitudes and signs: products of diagonal
    factors compose componentwise in log space, so a component whose
    relative size underflows the dense unit is never lost.
    """

    unit: np.ndarray
    log_norm: float
    diag_logs: np.ndarray | None = None
    diag_signs: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.unit.shape[0]

    @staticmethod
    def identity(d: int) -> "ScaledMatrix":
        return ScaledMatrix(np.eye(d), 0.0, np.zeros(d), np.ones(d))

    @staticmethod
    def from_matrix(m: np.ndarray, extra_log: float = 0.0) -> "ScaledMatrix":
        """exp(extra_log) * m in scaled form; a NaN or infinite entry of m
        raises an EvolutionError naming the first, in row-major order."""
        m = np.asarray(m, dtype=float)
        bad = np.argwhere(~np.isfinite(m))
        if len(bad):
            i, j = bad[0].tolist()
            raise EvolutionError(f"matrix entry ({i}, {j}) is not finite ({m[i, j]})")
        units, logs = _normalized(m[None], [extra_log])
        return ScaledMatrix(units[0], logs.item())

    @staticmethod
    def from_diag_logs(log_abs: np.ndarray, signs: np.ndarray) -> "ScaledMatrix":
        log_abs = np.asarray(log_abs, dtype=float)
        signs = np.asarray(signs, dtype=float)
        top = float(np.max(log_abs))
        if top == -math.inf:
            return ScaledMatrix(np.zeros((len(log_abs), len(log_abs))), -math.inf)
        with np.errstate(under="ignore"):
            unit = np.diag(signs * np.exp(log_abs - top))
        return ScaledMatrix(unit, top, log_abs.copy(), signs.copy())

    def shifted(self, delta: float) -> "ScaledMatrix":
        """Same unit factor with the log scale moved by delta."""
        logs = None if self.diag_logs is None else self.diag_logs + delta
        return ScaledMatrix(self.unit, self.log_norm + delta, logs, self.diag_signs)

    def compose(self, other: "ScaledMatrix") -> "ScaledMatrix":
        if self.diag_logs is not None and other.diag_logs is not None:
            return ScaledMatrix.from_diag_logs(self.diag_logs + other.diag_logs,
                                               self.diag_signs * other.diag_signs)
        return ScaledMatrix.from_matrix(self.unit @ other.unit,
                                        self.log_norm + other.log_norm)

    def definitely_close(self, other: "ScaledMatrix", tol: float) -> bool:
        """Relative closeness in scaled form: log scales within tol and unit
        factors within tol entrywise."""
        if self.diag_logs is not None and other.diag_logs is not None:
            if not np.array_equal(np.sign(self.diag_signs), np.sign(other.diag_signs)):
                return False
            gap = np.abs(self.diag_logs - other.diag_logs)
            scale = np.maximum(1.0, np.abs(other.diag_logs))
            return bool(np.all(gap <= tol * scale))
        if self.log_norm == other.log_norm == -math.inf:
            return True
        if abs(self.log_norm - other.log_norm) > tol * max(1.0, abs(self.log_norm)):
            return False
        return bool(np.max(np.abs(self.unit - other.unit)) <= tol * max(1.0, float(np.max(np.abs(self.unit)))))


def operator_norm_bounds(m: ScaledMatrix) -> tuple[float, float]:
    """(log sigma_max, log sigma_min) of the represented matrix.  A singular
    unit yields -inf for the lower bound."""
    if m.dim > _MAX_DIM:
        raise EvolutionError(f"dimension {m.dim} exceeds the supported bound {_MAX_DIM}")
    if m.diag_logs is not None:
        # singular values of a diagonal matrix are the entry magnitudes
        return (float(np.max(m.diag_logs)), float(np.min(m.diag_logs)))
    if m.dim == 1:
        v = abs(float(m.unit[0, 0]))
        if v == 0.0:
            return (-math.inf, -math.inf)
        return (m.log_norm + math.log(v), m.log_norm + math.log(v))
    sv = np.linalg.svd(m.unit, compute_uv=False)
    hi = -math.inf if sv[0] == 0.0 else m.log_norm + math.log(float(sv[0]))
    lo = -math.inf if sv[-1] == 0.0 else m.log_norm + math.log(float(sv[-1]))
    return (hi, lo)


def _normalized(mats: np.ndarray, extra_logs) -> tuple[np.ndarray, np.ndarray]:
    """(units, logs) of a (n, d, d) stack of finite matrices: each m as
    m / ||m|| and extra + log ||m||; a zero matrix gives a zero unit and
    -inf.  Only the largest singular value is read, so the 2-norms come
    from one stacked symmetric eigensolve of the Gram matrices x^T x of
    x = m * 2^-e, each scaled exactly so that its largest |entry| lies in
    [0.5, 1), as the grid and ``propagate`` stacks mostly are already: no
    Gram entry overflows, and ||x|| = sqrt(lambda_max) to within O(d^2 u)
    relative (Golub and Van Loan, Matrix Computations, 4th ed., 8.6;
    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    2002).  The unit is x / ||x|| and the log e * log 2 + log ||x||, so a
    2-norm beyond double range still has its finite log."""
    e = np.frexp(_max_abs(mats))[1]
    x = np.ldexp(mats, -e[:, None, None])
    norms = np.sqrt(np.linalg.eigvalsh(np.swapaxes(x, -1, -2) @ x)[:, -1])
    np.divide(x, norms[:, None, None], out=x, where=norms[:, None, None] != 0.0)
    return x, np.add(extra_logs, _logs(norms) + e * _LN2)


def _logs(values: np.ndarray) -> np.ndarray:
    """``math.log`` of each nonzero entry of a 1-D array, -inf for a zero.
    ``math.log``, not ``np.log``: numpy's vectorized log may round a value
    differently."""
    out = np.full(len(values), -math.inf)
    nonzero = values != 0.0
    out[nonzero] = list(map(math.log, values[nonzero].tolist()))
    return out


def _max_abs(mats: np.ndarray) -> np.ndarray:
    """The largest |entry| of each matrix of a (..., d, d) stack, shape
    (...).  It is reduced over a contiguous (d * d, n) copy, one pass along
    rows of n values, where a reduction over n short trailing axes pays per
    matrix; a max is exact, so the layout moves no bit."""
    d2 = mats.shape[-2] * mats.shape[-1]
    return np.abs(mats.reshape(-1, d2).T, order="C").max(axis=0).reshape(mats.shape[:-2])


_LN2 = math.log(2.0)


def _rescale(mats: np.ndarray) -> np.ndarray:
    """Scale each matrix of a (..., d, d) stack in place by 2^-e, with e the
    exponent that puts its largest |entry| in [0.5, 1), and return the e (0
    for a zero or non-finite matrix).  Scaling by a power of two is exact
    and commutes with products and sums (barring subnormals), so a loop that
    rescales after every step is the unscaled loop times 2^-(sum of e)."""
    e = np.frexp(_max_abs(mats))[1]
    np.ldexp(mats, -e[..., None, None], out=mats)
    return e


# ---------------------------------------------------------------------------
# Coefficient sources


@record(frozen=True, eq=False)
class ExprSource:
    """Per-entry expressions; diagonal systems store only the diagonal."""

    diag: tuple | None
    entries: tuple | None
    diag_text: tuple | None
    entries_text: tuple | None

    @staticmethod
    def from_diag(texts) -> "ExprSource":
        asts = tuple(exprparse.parse(t) for t in texts)
        return ExprSource(diag=asts, entries=None, diag_text=tuple(texts), entries_text=None)

    @staticmethod
    def from_entries(rows) -> "ExprSource":
        asts = tuple(tuple(exprparse.parse(t) for t in row) for row in rows)
        texts = tuple(tuple(row) for row in rows)
        return ExprSource(diag=None, entries=asts, diag_text=None, entries_text=texts)

    @functools.cached_property
    def distinct_entries(self) -> tuple[tuple, list]:
        """(exprs, columns) of a full system: one expression per distinct
        entry text, in row-major order of first appearance, and for every
        row-major entry the index of its text in exprs."""
        texts = [t for row in self.entries_text for t in row]
        first = {}
        for text, expr in zip(texts, (e for row in self.entries for e in row)):
            first.setdefault(text, (len(first), expr))
        return tuple(expr for _, expr in first.values()), [first[t][0] for t in texts]


@record(frozen=True, eq=False)
class TableSource:
    """Tabulated discrete coefficients on an explicit index range; queries
    outside the range are errors, not extrapolations."""

    k0: int
    matrices: np.ndarray  # (count, d, d)

    def __post_init__(self):
        bad = ~np.isfinite(self.matrices)
        if bad.any():
            m, i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
            raise EvolutionError(f"table row k={self.k0 + m}: a_{i + 1}_{j + 1} is not finite "
                                 f"({self.matrices[m, i, j]})")

    def stack(self, ks) -> np.ndarray:
        """The matrices at the integer times ks, shape (len(ks), d, d); the
        first time outside the range, in the order of ks, is the error."""
        idx = np.asarray(ks, dtype=int) - self.k0
        outside = (idx < 0) | (idx >= len(self.matrices))
        if outside.any():
            raise EvolutionError(
                f"time {ks[int(np.argmax(outside))]} outside the tabulated range "
                f"[{self.k0}, {self.k0 + len(self.matrices) - 1}]")
        return self.matrices[idx]


@record(frozen=True, eq=False)
class RateQuotientSource:
    """Diagonal system whose propagator is a growth-rate quotient raised to
    per-component slopes, Phi_ii(t, s) = (nu(t)/nu(s))^s_i in either time
    domain; its logs are s_i * (log nu(t) - log nu(s)) in closed form."""

    rate: rates.GrowthRate
    slopes: tuple


Source = ExprSource | TableSource | RateQuotientSource


@record(frozen=True, eq=False)
class LinearSystem:
    time_domain: str
    dim: int
    structure: str
    source: Source
    descriptor: dict | None = None

    def __post_init__(self):
        if self.structure not in (SCALAR, DIAGONAL, FULL):
            raise EvolutionError(f"unknown structure {self.structure!r}")
        if self.dim < 1 or self.dim > _MAX_DIM:
            raise EvolutionError(f"dimension must be in [1, {_MAX_DIM}]")
        if self.structure == SCALAR and self.dim != 1:
            raise EvolutionError("scalar systems have dimension 1")

    @property
    def components(self) -> int:
        return 1 if self.structure == SCALAR else self.dim


@record(frozen=True, eq=False)
class WeightedSystem:
    """System whose propagator is the base propagator divided by
    (mu(to)/mu(from))^gamma.  In continuous time this is the coefficient
    shift A(t) - gamma * (d/dt log mu)(t) Id."""

    base: LinearSystem
    rate: rates.GrowthRate
    gamma: float

    def __post_init__(self):
        if self.base.time_domain != self.rate.time_domain:
            raise EvolutionError("weighted system needs rate and base on one time domain")
        if not math.isfinite(self.gamma):
            raise EvolutionError(f"weighted system: gamma must be finite, got {self.gamma}")


# ---------------------------------------------------------------------------
# Construction helpers


def scalar_system(time_domain: str, text: str) -> LinearSystem:
    return LinearSystem(time_domain, 1, SCALAR, ExprSource.from_diag((text,)))


def diagonal_system(time_domain: str, texts) -> LinearSystem:
    texts = tuple(texts)
    return LinearSystem(time_domain, len(texts), DIAGONAL, ExprSource.from_diag(texts))


def full_system(time_domain: str, rows) -> LinearSystem:
    rows = tuple(tuple(r) for r in rows)
    d = len(rows)
    if any(len(r) != d for r in rows):
        raise EvolutionError("full coefficient matrix must be square")
    return LinearSystem(time_domain, d, FULL, ExprSource.from_entries(rows))


def quotient_system(rate: rates.GrowthRate, slopes) -> LinearSystem:
    """The system generated by ``rate``, Phi_ii(t, s) = (mu(t)/mu(s))^slopes[i];
    its descriptor is the ``rate_quotient`` form that ``--system`` reads."""
    slopes = tuple(float(s) for s in slopes)
    if not slopes:
        raise EvolutionError("need at least one slope")
    for i, s in enumerate(slopes):
        if not math.isfinite(s):
            raise EvolutionError(f"quotient system: slope {i} must be finite, got {s}")
    structure = SCALAR if len(slopes) == 1 else DIAGONAL
    return LinearSystem(rate.time_domain, len(slopes), structure,
                        RateQuotientSource(rate, slopes))


def tabulated_system(k0: int, matrices: np.ndarray, structure: str = FULL) -> LinearSystem:
    matrices = np.asarray(matrices, dtype=float)
    if matrices.ndim != 3 or not len(matrices) or matrices.shape[1] != matrices.shape[2]:
        raise EvolutionError("table matrices must have shape (count >= 1, d, d), "
                             f"got {matrices.shape}")
    d = matrices.shape[1]
    return LinearSystem(DISCRETE, d, structure, TableSource(k0, matrices))


# ---------------------------------------------------------------------------
# Coefficient evaluation


def coefficient_matrix(system: LinearSystem, t: float) -> np.ndarray:
    """A(t) of a full system in linear scale."""
    return _coefficient_stack(system, [t])[0]


def _coefficient_stack(system: LinearSystem, ts) -> np.ndarray:
    """A(t) of a full system at every time of ``ts``, shape (len(ts), d, d):
    one array evaluation of the distinct entry expressions, each copied to
    every entry that repeats its text, or one table gather.  The first
    error is the one the times raise one at a time: a repeated entry fails
    where its first appearance, evaluated before it, does."""
    src = system.source
    if isinstance(src, TableSource):
        return src.stack(ts)
    exprs, columns = src.distinct_entries
    values = exprparse.evaluate_array(exprs, {"t": ts, "k": ts})
    return values[:, columns].reshape(len(ts), system.dim, system.dim)


def _diag_step_logs(system: LinearSystem, ks) -> tuple[np.ndarray, np.ndarray]:
    """(log|a_ii(k)|, sign a_ii(k)) of the coefficients of a discrete
    scalar/diagonal system at the integer times ks, shape (len(ks),
    components), unchecked: one array evaluation in log space or one table
    gather (a quotient source has no coefficients: ``_segment_logs``).

    ks is an integer array, evaluated as one float array."""
    src = system.source
    if isinstance(src, ExprSource) and src.diag is not None:
        kf = np.asarray(ks, dtype=float)
        la, sg = exprparse.evaluate_log_abs_array(src.diag, {"t": kf, "k": kf})
        return la, sg.astype(float)
    if isinstance(src, TableSource):
        diag = np.diagonal(src.stack(ks), axis1=1, axis2=2)
        with np.errstate(divide="ignore"):
            return np.where(diag == 0, -np.inf, np.log(np.abs(diag))), np.sign(diag)
    raise EvolutionError("diagonal step logs need a scalar or diagonal system")


def _checked_in_order(evaluate, check, ks: np.ndarray):
    """``check(evaluate(ks), ks)`` for an integer array ks, raising what
    evaluating and checking the times one at a time, in the order of ks,
    raises first: when ``evaluate`` fails, a time failing ``check`` before
    the failing time is reported.  The walk hands ``evaluate`` and
    ``check`` one-element slices of ks."""
    try:
        values = evaluate(ks)
    except (ValueError, ArithmeticError):
        for m in range(len(ks)):
            check(evaluate(ks[m:m + 1]), ks[m:m + 1])
        raise
    check(values, ks)
    return values


def _check_nonsingular(steps: tuple[np.ndarray, np.ndarray], ks):
    la, sg = steps
    singular = np.any(sg == 0, axis=1) | np.any(la == -math.inf, axis=1)
    if singular.any():
        raise EvolutionError(
            f"coefficient matrix is singular at time {ks[int(np.argmax(singular))]}")


def _quotient_logs(src: RateQuotientSource, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """s_i * (log nu(b[s]) - log nu(a[s])), the exact log of a quotient
    source's propagator over each segment [a[s], b[s]], shape (segments,
    components).  One log nu call on the times b[0], a[0], b[1], ... raises
    what a step-by-step loop, left operand first, raises first."""
    ends = rates.log_rate_values(src.rate, np.column_stack([b, a]).ravel())
    return (ends[0::2] - ends[1::2])[:, None] * np.array(src.slopes)


# ---------------------------------------------------------------------------
# Quadrature and integration


_LOBATTO_BLOCK = 1 << 13  # quadrature nodes one array evaluation holds
_LOBATTO_PANEL = 0.25  # longest panel: the quarter times of a unit segment are panel ends
_R7 = math.sqrt(7.0)
_X1, _X2 = math.sqrt(1 / 3 - 2 * _R7 / 21), math.sqrt(1 / 3 + 2 * _R7 / 21)
# each panel's nodes but its right end, as fractions of the panel, and their
# weights on [-1, 1]; a panel's left end is the right end of the one before
_LOBATTO_U = np.array([0.0, (1 - _X2) / 2, (1 - _X1) / 2, (1 + _X1) / 2, (1 + _X2) / 2])
_LOBATTO_W = np.array([2 / 15, (14 - _R7) / 30, (14 + _R7) / 30, (14 + _R7) / 30, (14 - _R7) / 30])


def _lobatto_integrals(system: LinearSystem, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise integrals of the diagonal coefficients over segments
    [a[s], b[s]] of one common nonzero length, shape (segments, components),
    of an expression source by composite 6-point Gauss-Lobatto (Abramowitz
    & Stegun 25.4.32), exact to degree 9, on ceil(length / 0.25) equal
    panels: 21 nodes for a unit segment, whose integer and quarter times
    are all nodes, so a pole there raises its DomainError.  A pole or kink
    off the quarter grid is not met (nor was one off the 0.01 grid of the
    Simpson rule this replaces): abs(t - 0.3) over the unit segments of
    [-3, 3] is integrated to within 2.9e-4 only, where a kink at a quarter
    time costs nothing.

    Each segment gets the floats of integrating it alone: the nodes
    lo + frac * (hi - lo) with the last one hi itself, and the weighted
    sum reduced as numpy reduces one segment's (nodes, components) array:
    pairwise over a single column, and row by row over several, which one
    reduction of a block's node-major (nodes, segments * components) array
    does for all its segments at once.  A segment left of 0 (hi <= 0) is
    integrated as its mirror image [0.0 - hi, 0.0 - lo]: the mirror's
    nodes, weights and order of summation, with the coefficients evaluated
    at 0.0 - node (0.0 - x, not -x, keeps t = 0 at +0.0 and the error
    messages as they were).  So a coefficient of known parity
    (``exprparse.parity``) has over a segment left of 0 the integral over
    its mirror, negated if it is odd, up to the sign of a zero.  Segments
    go in order, in blocks of at most ``_LOBATTO_BLOCK`` nodes per array
    evaluation (with the same floats and the same first DomainError as
    evaluating node by node), so memory stays flat and a failing node
    raises the error a segment-by-segment loop raises first.
    """
    comp, src = system.components, system.source
    if not len(a):
        return np.zeros((0, comp))
    panels = max(1, math.ceil(abs(b[0] - a[0]) / _LOBATTO_PANEL))
    frac = np.append(((np.arange(panels)[:, None] + _LOBATTO_U) / panels).ravel(), 1.0)
    w = np.append(np.tile(_LOBATTO_W, panels), 1 / 15)
    w[0] = 1 / 15
    n = len(w)
    per_call = max(1, _LOBATTO_BLOCK // n)
    out = []
    for s in range(0, len(a), per_call):
        lo, hi = a[s:s + per_call], b[s:s + per_call]
        left = hi <= 0.0
        lo, hi = np.where(left, 0.0 - hi, lo), np.where(left, 0.0 - lo, hi)
        xs = lo[:, None] + frac * (hi - lo)[:, None]
        xs[:, -1] = hi
        np.subtract(0.0, xs, out=xs, where=left[:, None])
        nodes = xs.ravel()
        vals = exprparse.evaluate_array(src.diag, {"t": nodes, "k": nodes}).reshape(len(lo), n, comp)
        if comp == 1:
            sums = (w * vals[:, :, 0]).sum(axis=1)[:, None]
        else:
            weighted = np.multiply(w[:, None, None], vals.transpose(1, 0, 2),
                                   out=np.empty((n, len(lo), comp)))
            sums = np.add.reduce(weighted.reshape(n, -1), axis=0).reshape(len(lo), comp)
        out.append(((hi - lo) / (2 * panels))[:, None] * sums)
    return np.concatenate(out)


def _segment_logs(system: LinearSystem, lo: np.ndarray,
                  hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(logs, signs) of the diagonal of a scalar/diagonal system's
    propagator over each segment [lo[s], hi[s]], shape (segments,
    components), unchecked for overflow.  A quotient source's logs are
    ``_quotient_logs`` in either time domain, with sign +1 (a -inf log is an
    underflow, not a zero step).  Otherwise, in discrete time, the unit
    steps from the integer times lo (``_diag_step_logs``), evaluated on the
    array of those times and checked nonsingular, raising what checking
    them one at a time in the order of lo raises first
    (``_checked_in_order``); in continuous time the coefficient integrals
    (``_lobatto_integrals``), a run of equal-length segments at a time,
    with sign +1."""
    if isinstance(system.source, RateQuotientSource):
        logs = _quotient_logs(system.source, lo, hi)
        return logs, np.ones_like(logs)
    if system.time_domain == DISCRETE:
        return _checked_in_order(lambda ks: _diag_step_logs(system, ks), _check_nonsingular,
                                 lo.astype(int))
    # runs of one segment length: a partial segment, the unit ones, a partial one
    runs = [0, *(np.flatnonzero(np.diff(hi - lo)) + 1).tolist(), len(lo)]
    logs = np.concatenate([_lobatto_integrals(system, lo[i:j], hi[i:j])
                           for i, j in zip(runs, runs[1:])])
    return logs, np.ones_like(logs)


MAGNUS_STEP = 0.1  # step of the Magnus integration of full continuous systems
_MAGNUS_CHUNK = 1 << 14  # coefficient values (nodes x entries) one chunk of Magnus steps holds
# exp(X) for ||X||_1 < 1/2 as its Taylor polynomial of degree 15, whose
# remainder is below 0.5^16 / 16! ~ 7e-19; c[i, j] = 1 / (4i + j)!, the
# coefficient of X^j in the block that multiplies (X^4)^i
_TAYLOR = 1.0 / np.array([math.factorial(k) for k in range(16)]).reshape(4, 4, 1, 1, 1)


def _magnus_factors(system: LinearSystem, frm: np.ndarray,
                    to: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Propagators Phi(to[l], frm[l]) = x[l] * 2^E[l] of a full continuous
    system by the 4th-order Magnus method at fixed steps of at most
    ``MAGNUS_STEP``, one lane l per pair.

    Returns (x, E) of shapes (lanes, d, d) and (lanes,): each x with its
    largest |entry| in [0.5, 1) and E an integer exponent.  All lanes span
    the same length, so they take the same steps.  They are integrated in
    blocks of at most ``_MAGNUS_CHUNK // (2 d^2)`` lanes, every lane of a
    block together (``_magnus_block``), so the working set is the lanes'
    d x d states plus one chunk of coefficient values and its
    exponentials, a few times ``_MAGNUS_CHUNK`` values whatever the window
    or span.  Each lane
    does the float operations of a lone integration: the same node times,
    the same products and its own number of squarings (``_expm``),
    rescaled after every squaring and every step by a power of two
    (``_rescale``), so a lane is its unscaled integration x times 2^-E,
    digit for digit.

    Errors come in this order.  A failing coefficient raises the error the
    lanes raise one at a time, in lane order: the first failing node of the
    first lane that has one, whichever block and chunk it falls in.  Only
    then are lanes that overflow or collapse to zero reported, the first in
    lane order; an overflow names the lane by its times.  A lane overflows
    when a step's exponential is not finite, or needs so many squarings
    that its exponent sum could leave int64 (``_magnus_block``).
    """
    steps = max(1, math.ceil(abs(float(to[0] - frm[0])) / MAGNUS_STEP))
    d = system.dim
    block = max(1, _MAGNUS_CHUNK // (2 * d * d))
    runs = [_magnus_block(system, frm[l0:l0 + block], to[l0:l0 + block], steps)
            for l0 in range(0, len(frm), block)]
    x = np.concatenate([x for x, _ in runs])
    exps = np.concatenate([e for _, e in runs])
    # a zero lane stays zero and a non-finite one non-finite
    top = _max_abs(x)
    bad = ~np.isfinite(top) | (top == 0.0)
    if bad.any():
        lane = int(np.argmax(bad))
        if top[lane] == 0.0:
            raise EvolutionError("propagator collapsed to zero during integration")
        raise EvolutionError(f"propagator from time {frm[lane]:g} to {to[lane]:g} "
                             "is not finite during integration")
    return x, exps


def _magnus_block(system: LinearSystem, frm: np.ndarray, to: np.ndarray,
                  steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, E) of one block of ``_magnus_factors``'s lanes, all of them at
    once: x (lanes, d, d) rescaled and E (lanes,) the exponent sums.

    A step of length h from t takes the coefficient at its ends and its
    midpoint, A0 = A(t), A1 = A(t + h/2), A2 = A(t + h), and maps x to
    exp(Omega) x with

        Omega = (h/6) (A0 + 4 A1 + A2) + (h^2/12) [A2, A0],

    the Magnus expansion truncated at 4th order with Simpson's nodes
    (Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros 2009).  Being an
    exponential, the step is stable at any h ||A||, where the stability
    function of an explicit Runge-Kutta step falls short of e^z.

    The lanes advance a chunk of at most ``_MAGNUS_CHUNK // (4 lanes d^2)``
    steps at a time (one step at least; ``_magnus_chunks``), and the
    coefficients are evaluated at the chunk's nodes, each node once: a
    chunk's first node is the last of the chunk before.  When a chunk
    fails, ``_raise_in_lane_order`` raises the error the lanes would raise
    one at a time.  exp(Omega) depends on the coefficients alone, not on
    x, so the exponentials are split from the state recursion: Omega is
    formed for every lane and step of the chunk at once, ``_expm`` takes it
    as one (lanes * steps, d, d) stack, and only then does x <- exp(Omega) x
    run step by step, rescaled after each.  Every lane-step keeps its own
    squarings and every product the (d, d) layout of a per-step loop, so
    the chunking moves no bit.  The one size rule bounds both the stack, at
    most ``_MAGNUS_CHUNK // 4`` values unless one step holds more, and with
    it the chunk's coefficients, about twice as many, and the
    exponential's temporaries, about a dozen stacks of its size.

    A lane that needs more than 60 - bit_length(steps) squarings in a step
    becomes NaN, which ``_magnus_factors`` reports as not finite: a step
    moves E by about log2 of its exponential's size, at most ||Omega||_1 /
    log 2 < 2^(s - 1) / log 2 for s squarings, so below that bound no
    exponent sum, nor any doubling inside a squaring, reaches 2^61."""
    lanes, d = len(frm), system.dim
    h = ((to - frm) / steps)[:, None, None, None]
    max_squarings = 60 - steps.bit_length()
    x = np.tile(np.eye(d), (lanes, 1, 1))
    exps = np.zeros(lanes, dtype=int)
    a2 = None  # the coefficient at the end of the last step taken
    with np.errstate(over="ignore", invalid="ignore"):  # raised by name below
        for nodes in _magnus_chunks(frm, to, steps, max(1, _MAGNUS_CHUNK // (4 * lanes * d * d))):
            fresh = nodes if a2 is None else nodes[:, 1:]
            try:
                coeff = _coefficient_stack(system, fresh.ravel())
            except (ValueError, ArithmeticError):
                _raise_in_lane_order(system, frm, to, steps)
                raise
            coeff = coeff.reshape(lanes, fresh.shape[1], d, d)
            if a2 is None:
                a2, coeff = coeff[:, 0], coeff[:, 1:]
            # (lanes, n, d, d): every step's start, midpoint and end
            a0 = np.concatenate([a2[:, None], coeff[:, 1:-1:2]], axis=1)
            a1, a2 = coeff[:, 0::2], coeff[:, 1::2]
            omega = h / 6 * (a0 + 4.0 * a1 + a2) + h * h / 12 * (a2 @ a0 - a0 @ a2)
            a2 = a2[:, -1]
            p, f = _expm(omega.reshape(-1, d, d), max_squarings)
            p, f = p.reshape(omega.shape), f.reshape(lanes, -1)
            for j in range(p.shape[1]):
                x = p[:, j] @ x
                exps += f[:, j] + _rescale(x)
    return x, exps


def _expm(omega: np.ndarray, max_squarings: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, F) of a (lanes, d, d) stack: exp(omega) = P * 2^F per lane, by
    scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 2005).  A lane
    is any matrix of the stack: ``_magnus_block`` stacks the steps of a
    chunk of all its lanes, lane-major, and each comes out bitwise as it
    would alone.

    Each lane takes its own s, the least s >= 0 for which frexp's exponent
    of ||omega||_1 guarantees ||X||_1 < 1/2 with X = omega * 2^-s.  The
    degree-15 Taylor polynomial of X is evaluated in Paterson-Stockmeyer
    form, B0 + X^4 (B1 + X^4 (B2 + X^4 B3)) with B_i = sum_j c_ij X^j over
    j < 4, in 6 products, and squared s times, rescaled after every
    squaring (``_rescale``): F doubles, then adds the new exponent.  A
    round squares every lane but keeps the square only in the lanes that
    still need one, so a lane's floats depend on its own omega alone; the
    rounds are as many as the largest s of the stack.  A lane needing more
    than ``max_squarings`` takes none and gets a NaN P, as a non-finite
    omega does."""
    # column sums in row order over a (d, d, lanes) copy, as ``_max_abs``
    norm = np.abs(omega.transpose(1, 2, 0), order="C").sum(axis=0).max(axis=0)
    s = np.maximum(np.frexp(norm)[1] + 1, 0)
    over = s > max_squarings
    s[over] = 0
    x = np.ldexp(omega, -s[:, None, None])
    x2 = x @ x
    x3 = x2 @ x
    x4 = x2 @ x2
    blocks = (_TAYLOR[:, 0] * np.eye(omega.shape[1]) + _TAYLOR[:, 1] * x
              + _TAYLOR[:, 2] * x2 + _TAYLOR[:, 3] * x3)
    p = blocks[3]
    for b in blocks[2::-1]:
        p = x4 @ p + b
    p[over] = np.nan
    f = np.zeros(len(omega), dtype=int)
    for r in range(s.max()):
        sq = p @ p
        squared = s > r
        f = np.where(squared, 2 * f + _rescale(sq), f)
        p = np.where(squared[:, None, None], sq, p)
    return p, f


def _magnus_chunks(frm: np.ndarray, to: np.ndarray, steps: int, per_chunk: int):
    """The node times of ``steps`` Magnus steps of length dt = (to - frm) /
    steps from frm to to, per lane, as arrays of shape (lanes, 2n + 1) for
    chunks of n <= per_chunk steps.

    The step ends advance by repeated addition of dt, one running sum
    continued from chunk to chunk, as a step loop does, so the end t + dt
    of a step is bitwise the start of the next: a chunk holds its steps'
    ends t_0, ..., t_n with the midpoints t_i + dt/2 between them, in the
    order a step loop first evaluates them, and its t_n is the next chunk's
    t_0.  The last step ends at ``to`` itself, not at the running sum, which
    may miss it by a few ulps."""
    t, dt = frm, (to - frm) / steps
    for s0 in range(0, steps, per_chunk):
        n = min(per_chunk, steps - s0)
        ends = np.cumsum(np.column_stack([t] + [dt] * n), axis=1)
        nodes = np.empty((len(t), 2 * n + 1))
        nodes[:, 1::2] = ends[:, :-1] + (dt / 2)[:, None]
        if s0 + n == steps:
            ends[:, -1] = to
        nodes[:, 0::2] = ends
        yield nodes
        t = ends[:, -1]


def _raise_in_lane_order(system: LinearSystem, frm: np.ndarray, to: np.ndarray, steps: int):
    """Evaluate the coefficients at the Magnus nodes lane by lane, each
    lane's in time order and a chunk at a time, so the first failing node
    of the first lane that has one raises its error."""
    per_chunk = max(1, _MAGNUS_CHUNK // (2 * system.dim ** 2))
    for lane in range(len(frm)):
        for nodes in _magnus_chunks(frm[lane:lane + 1], to[lane:lane + 1], steps, per_chunk):
            _coefficient_stack(system, nodes.ravel())


# ---------------------------------------------------------------------------
# Propagation


def propagate(system: LinearSystem, to: float, frm: float) -> ScaledMatrix:
    """Evolution operator value mapping the state at ``frm`` to ``to``.

    Full systems compose ``_unit_factors``: in discrete time the unit steps
    of the walk from ``frm`` to ``to`` (inverses when to < frm); in
    continuous time one 4th-order Magnus integration (``_magnus_factors``)
    at steps of at most ``MAGNUS_STEP``, whose last step ends at ``to``
    exactly.  Each factor x * 2^e becomes the ScaledMatrix x / ||x|| with
    log e * log 2 + log ||x||, and the product is renormalized after every
    factor.  Scalar and diagonal systems sum per-component segment logs
    (``_diag_walk``).  The identity when to == frm.

    A time that is not finite, or a span whose walk needs more than
    ``rates.MAX_VALIDATION_SAMPLES`` segments (unit steps in discrete time)
    or Magnus steps, is an EvolutionError raised before any array is built.
    """
    for name, t in (("frm", frm), ("to", to)):
        if not math.isfinite(t):
            raise EvolutionError(f"propagation time {name} must be finite, got {t}")
    if system.time_domain == DISCRETE:
        ki, ni = int(round(to)), int(round(frm))
        if abs(to - ki) > 1e-9 or abs(frm - ni) > 1e-9:
            raise EvolutionError("discrete systems are propagated between integers")
        frm, to = float(ni), float(ki)
    a, b = sorted((frm, to))
    if system.structure == FULL and system.time_domain == CONTINUOUS:
        # b - a is +inf past double range
        too_long, what = not (b - a) / MAGNUS_STEP <= rates.MAX_VALIDATION_SAMPLES, "Magnus steps"
    else:
        too_long, what = math.ceil(b) - math.floor(a) > rates.MAX_VALIDATION_SAMPLES, "segments"
    if too_long:
        raise EvolutionError(f"propagation from time {frm} to {to} needs more than "
                             f"MAX_VALIDATION_SAMPLES ({rates.MAX_VALIDATION_SAMPLES}) {what}")
    if system.structure != FULL:
        return ScaledMatrix.from_diag_logs(*_diag_walk(system, frm, to))
    if system.time_domain == DISCRETE:
        step = 1 if ki >= ni else -1
        walk = np.arange(ni, ki + step, step, dtype=float)
    else:  # one Magnus integration from frm to to
        walk = np.array([frm] if frm == to else [frm, to], dtype=float)
    x, exps = _unit_factors(system, walk[:-1], walk[1:])
    units, logs = _normalized(x, exps * _LN2)
    factors = [*map(ScaledMatrix, units, logs.tolist())] or [ScaledMatrix.identity(system.dim)]
    return functools.reduce(lambda acc, factor: factor.compose(acc), factors)


def _diag_walk(system: LinearSystem, frm: float, to: float) -> tuple[np.ndarray, np.ndarray]:
    """Log-magnitudes and signs of the diagonal of Phi(to, frm): the logs
    of the segments between the integer times of [frm, to] (0, where the
    catalog coefficients may have a kink, among them; unit steps in
    discrete time), summed from 0.0 in increasing time and negated when to
    < frm (inverse steps; diagonal signs are self-inverse).  A long span is
    thus evaluated a block of unit segments at a time, and between integer
    times its segments are those of ``component_log_grid``.  A non-finite
    log raises the EvolutionError ``component_log_grid`` raises, naming the
    first non-finite running sum of the walk from frm toward to
    (``_walk_total``)."""
    if frm == to:
        return np.zeros(system.components), np.ones(system.components)
    a, b = sorted((frm, to))
    cuts = np.unique(np.concatenate([[a], np.arange(math.ceil(a), math.floor(b) + 1.0), [b]]))
    lo, hi = cuts[:-1], cuts[1:]
    with np.errstate(over="ignore", invalid="ignore"):  # raised by name in _walk_total
        logs, signs = _segment_logs(system, lo, hi)
    return _walk_total(logs, lo, hi, frm < to, to), np.prod(signs, axis=0)


def _walk(steps: np.ndarray) -> np.ndarray:
    """Running sums 0, s_0, s_0 + s_1, ... of a (count, components) array,
    added one step at a time from 0.0 as a loop adds them."""
    return np.cumsum(np.vstack([np.zeros(steps.shape[1]), steps]), axis=0)


def _walk_total(steps: np.ndarray, left: np.ndarray, right: np.ndarray, forward: bool,
                to: float) -> np.ndarray:
    """The log-propagator of a walk toward ``to`` over the segments
    [left[m], right[m]] in increasing time, whose (count, components)
    ``steps`` are summed from 0.0 in increasing time and negated when the
    walk goes back.  A non-finite total raises at the first non-finite
    running sum in walk order: a step ahead reaches the right end of its
    segment, a step back the left, and the total closes the walk, since
    summing in increasing time can overflow where the walk's order does
    not."""
    with np.errstate(over="ignore", invalid="ignore"):  # raised by name below
        total = _walk(steps)[-1]
        if not forward:
            total = -total
        if not np.isfinite(total).all():
            walked, reached = ((_walk(steps)[1:], right) if forward
                               else (_walk(-steps[::-1])[1:], left[::-1]))
            _check_walk_finite(np.vstack([walked, total]), np.append(reached, float(to)))
    return total


def _check_walk_finite(walked: np.ndarray, reached: np.ndarray):
    """Raise at the first non-finite running sum of a walk, in walk order:
    ``walked`` holds one row of per-component sums per step, and
    ``reached[m]`` is the time step m reaches."""
    bad = ~np.isfinite(walked)
    if bad.any():
        m, i = divmod(int(np.argmax(bad)), walked.shape[1])
        raise EvolutionError(f"log-propagator of component {i} is not finite at time "
                             f"{reached[m]:g} ({walked[m, i]})")


def _step_matrices(system: LinearSystem, ks: np.ndarray) -> np.ndarray:
    """Discrete coefficient matrices at the integer array ks, stacked and
    checked invertible, with the first error in the order of ks
    (``_checked_in_order``)."""
    return _checked_in_order(lambda times: _coefficient_stack(system, times),
                             _check_invertible, ks)


def _check_invertible(mats: np.ndarray, ks):
    """Raise at the first singular or numerically singular matrix of a
    (n, d, d) stack, naming its time from ks."""
    sign, logdet = np.linalg.slogdet(mats)
    scale = _max_abs(mats)
    # a zero matrix takes log 1 = 0, not -inf, which the mask below drops
    log_scale = _logs(np.where(scale > 0, scale, 1.0))
    singular = (sign == 0) | (logdet == -math.inf)
    numerically = (scale > 0) & (logdet - mats.shape[1] * log_scale < math.log(_MIN_ABS_DET))
    bad = singular | numerically
    if bad.any():
        p = int(np.argmax(bad))
        kind = "singular" if singular[p] else "numerically singular"
        raise EvolutionError(f"coefficient matrix is {kind} at time {ks[p]}")


def weighted_propagate(w: WeightedSystem, to: float, frm: float) -> ScaledMatrix:
    """Propagator of the weighted system: the base propagator with log-norm
    decreased by gamma * log(mu(to)/mu(frm)); the unit factor is unchanged."""
    base = propagate(w.base, to, frm)
    shift = w.gamma * (rates.log_rate(w.rate, to) - rates.log_rate(w.rate, frm))
    return base.shifted(-shift)


# ---------------------------------------------------------------------------
# Grids for the spectral estimator


def component_log_grid(obj, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer-time grid of per-component propagator log-magnitudes.

    Returns (times, logs) with times = -window..window and logs of shape
    (components, len(times)); logs[i][m] = log |Phi_ii(times[m], 0)|.

    All 2 * window unit steps are built at once (``_segment_logs``: a
    quotient source's closed form, or one batch of discrete step logs or of
    Gauss-Lobatto segments), then running sums outward from 0.  Every entry,
    and every error, is bitwise what walking out one unit step at a time
    gives.  A Gauss-Lobatto segment left of 0 is integrated as its mirror
    image, so where every coefficient has a known parity only the steps
    ahead of 0 are integrated, and those behind are read off them
    (``_system_log_grid``): even coefficients give a grid that is odd
    bit for bit.  A step or running sum that leaves double range raises an
    EvolutionError naming the first one in walk order, by time and
    component.

    The grid of a plain system depends only on (system, window), so it is
    built once and cached, read-only, as ``rates.log_rate_grid`` is; a
    weighted system shifts its base system's cached grid by -gamma log mu,
    and a shifted log that leaves double range raises, named by time and
    component (``_weighted_logs``).
    """
    if isinstance(obj, WeightedSystem):
        times, logs = _system_log_grid(obj.base, window)
        series = [f"log-propagator of component {i}" for i in range(len(logs))]
        return times, _weighted_logs(obj, times, logs, [-1.0] * len(logs), series)
    return _system_log_grid(obj, window)


def _weighted_logs(w: WeightedSystem, times: np.ndarray, logs: np.ndarray, signs,
                   series) -> np.ndarray:
    """logs[s] + signs[s] * gamma * log mu(times) for each series s of a
    (series, len(times)) stack of a weighted system's base logs.  A weighted
    log that leaves double range raises an EvolutionError naming the first,
    in time order and then series order, by its time and ``series[s]``."""
    mu = rates.log_rate_values(w.rate, times)
    with np.errstate(over="ignore", invalid="ignore"):  # raised by name below
        out = logs + np.multiply.outer(signs, w.gamma * mu)
    bad = ~np.isfinite(out)
    if bad.any():
        m, s = divmod(int(np.argmax(bad.T)), len(out))
        raise EvolutionError(f"weighted {series[s]} is not finite at time {times[m]:g} "
                             f"({out[s, m]})")
    return out


@functools.lru_cache(maxsize=64)
def _system_log_grid(system: LinearSystem, window: int) -> tuple[np.ndarray, np.ndarray]:
    """``component_log_grid`` of a plain system, read-only.  Where every
    coefficient of a continuous expression source has a known parity
    (``exprparse.parity``), only the W segments ahead of 0 are integrated:
    each segment behind is the mirror image of one ahead
    (``_lobatto_integrals``), so its step is the step ahead times
    (-1)^parity, up to the sign of a zero, which no running sum from 0.0
    keeps.  An even coefficient thus gives an odd grid, bit for bit."""
    if system.structure == FULL:
        raise EvolutionError("full systems use the scaled-matrix grid")
    times = rates.sample_times(system.time_domain, window)
    center = window
    # the unit steps of a walk outward from 0, first ahead [t_m, t_m+1] for
    # m = center..2W-1, then behind [t_m-1, t_m] for m = center..1; the
    # first error in this order is the one the walk would meet first, and
    # a mirrored step behind fails where its step ahead does
    left = np.concatenate([times[center:-1], times[:center][::-1]])
    signs = _mirror_signs(system)
    with np.errstate(over="ignore", invalid="ignore"):  # raised by name below
        if signs is None:
            steps, _ = _segment_logs(system, left, left + 1.0)
        else:
            steps, _ = _segment_logs(system, left[:window], left[:window] + 1.0)
            steps = np.vstack([steps, steps * signs])
        ahead, behind = _walk(steps[:window]), _walk(-steps[window:])
    # a step ahead reaches the right end of its interval, a step behind the left
    _check_walk_finite(np.vstack([ahead[1:], behind[1:]]),
                       np.concatenate([left[:window] + 1.0, left[window:]]))
    logs = np.empty((system.components, len(times)))
    logs[:, center:] = ahead.T
    logs[:, center::-1] = behind.T
    logs.flags.writeable = False
    return times, logs


def _mirror_signs(system: LinearSystem) -> np.ndarray | None:
    """(-1)^parity of each coefficient of a continuous expression source
    whose coefficients all have a known parity, else None."""
    src = system.source
    if system.time_domain != CONTINUOUS or not isinstance(src, ExprSource):
        return None
    parities = [exprparse.parity(e) for e in src.diag]
    if None in parities:
        return None
    return np.array([-1.0 if p == exprparse.ODD else 1.0 for p in parities])


def scaled_grids(obj, window: int) -> tuple[np.ndarray, tuple, tuple]:
    """Integer-time grids of scaled propagators for full systems.

    Returns (times, (fwd_units, fwd_logs), (bwd_units, bwd_logs)) with
    Phi(t_m, 0) = exp(fwd_logs[m]) * fwd_units[m] and Phi(0, t_m) likewise.
    Both are accumulated from unit-step factors (each factor inverted at
    the coefficient level), never by inverting a long product, so the
    dominant singular direction of each grid entry stays reliable on
    windows whose propagators are astronomically ill-conditioned.

    All 4 * window factors x * 2^e, Phi(t_m +- 1, t_m) and their backward
    twins, are built in one batch (``_unit_factors``); in discrete time
    they are the step matrices and their inverses, and a twin gathers and
    checks the step matrix of its step's k again, so the first error is the
    step's.  The four walks out from 0 are composed by
    ``_blocked_walks``, a two-level blocked prefix product of about 2
    sqrt(window) stacked products, rescaled by powers of two after every
    product (``_rescale``): each walk entry is the exact product of the
    factors' x times 2^-E, computed in the blocked association.  With F
    the sum of its factors' exponents, its log is (F + E) * log 2 + log
    ||x||, and one stacked Gram eigensolve (``_normalized``) over the whole
    grid gives every ||x|| and makes the units.  A weighted system shifts
    its base system's logs by -+gamma log mu, and a shifted log that leaves
    double range raises, named by time and grid (``_weighted_logs``).

    The trade-off: a one-factor-at-a-time walk rounds once per factor
    against a product already accumulated, so its worst-case relative error
    scales with the conditioning of one step; the blocked walk first
    multiplies up to isqrt(window) factors among themselves, so its worst
    case scales with the conditioning of such a block (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, 3.5).  Measured
    against the one-factor-at-a-time walk over the same factors, at window
    400 on upper-triangular tables with a per-step diagonal exponent spread
    of 0 to 16 in a fixed order, and on their rotated copies, the logs
    agree within a relative 3e-15 for d = 2 and 3 and 1.4e-13 for d = 8,
    the units within 5e-13 and 2e-11 entrywise.  Where the dominant
    direction turns from step to step (the diagonal exponents of those
    rotated tables reordered at random every step), the two walks part by
    up to 1.5e-2 in the relative log: there both lose most of their digits.
    """
    if isinstance(obj, WeightedSystem):
        times, (fu, fl), (bu, bl) = scaled_grids(obj.base, window)
        fl, bl = _weighted_logs(obj, times, np.stack([fl, bl]), [-1.0, 1.0],
                                ["log-norm of Phi(t, 0)", "log-norm of Phi(0, t)"])
        return times, (fu, fl), (bu, bl)
    system: LinearSystem = obj
    if system.structure != FULL:
        raise EvolutionError("scalar and diagonal systems use the component log grid")
    times = rates.sample_times(system.time_domain, window)
    d = system.dim
    # walk outward from 0, first ahead and then behind; each move m -> n
    # takes the factor Phi(t_n, t_m) and its backward twin Phi(t_m, t_n),
    # in the order whose first error the walk meets first
    at = np.concatenate([times[window:-1], times[window:0:-1]])
    nxt = at + np.repeat([1.0, -1.0], window)
    x, exps = _unit_factors(system, np.column_stack([at, nxt]).ravel(),
                            np.column_stack([nxt, at]).ravel())
    # step s: the factors ahead and behind, then their twins
    x = x.reshape(2, window, 2, d, d).transpose(1, 2, 0, 3, 4).reshape(window, 4, d, d)
    exps = exps.reshape(2, window, 2).transpose(1, 2, 0).reshape(window, 4)
    walked, exps = _blocked_walks(x, exps)
    units, logs = _normalized(walked.reshape(-1, d, d), exps.ravel() * _LN2)
    units, logs = units.reshape(window + 1, 4, d, d), logs.reshape(window + 1, 4)
    # in time order: walk k + 1 behind, reversed, then walk k ahead from 0
    return times, *((np.concatenate([units[:0:-1, k + 1], units[:, k]]),
                     np.concatenate([logs[:0:-1, k + 1], logs[:, k]]))
                    for k in (0, 2))


def _blocked_walks(factors: np.ndarray, exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The four walks of ``scaled_grids`` over W steps of factors
    x * 2^e, ``factors`` (W, 4, d, d) and ``exps`` (W, 4): walked[s], of
    shape (W + 1, 4, d, d), holds the products of the first s factors, the
    forward walks 0 and 1 multiplying on the left and the backward walks 2
    and 3 on the right, each 2^-E times the exact product of the x's; and
    the returned exponents are E plus the sum of those factors' e, held as
    floats, exact below 2^53 and never wrapping above it.

    A two-level blocked prefix product (Blelloch, "Prefix sums and their
    applications", 1990) with blocks of b = isqrt(W) steps, step s in block
    j = s // b at position i = s % b:

    - b - 1 stacked products build the local prefixes L[j][i] = x[jb + i]
      ... x[jb] of every block at once (backward: x[jb] ... x[jb + i]);
    - ceil(W / b) - 2 stacked products chain the carries C[1] = L[0][b - 1],
      C[j + 1] = L[j][b - 1] C[j] (backward: C[j] L[j][b - 1]);
    - one stacked product joins the local prefixes of every block j > 0
      with its carry in place, L[j][i] C[j] (backward: C[j] L[j][i]).

    Every product is rescaled (``_rescale``).  The last block may be short:
    its missing steps stay zero matrices, outside the returned walk."""
    w, _, d, _ = factors.shape
    b = max(1, math.isqrt(w))
    blocks = -(-w // b)
    walked = np.zeros((blocks * b + 1, 4, d, d))
    total = np.zeros((blocks * b + 1, 4))
    walked[0] = np.eye(d)
    local, local_e = walked[1:].reshape(blocks, b, 4, d, d), total[1:].reshape(blocks, b, 4)
    local[:, 0], local_e[:, 0] = factors[::b], exps[::b]
    for i in range(1, b):
        fac = factors[i::b]
        prev, step = local[:len(fac), i - 1], local[:len(fac), i]
        np.matmul(fac[:, :2], prev[:, :2], out=step[:, :2])
        np.matmul(prev[:, 2:], fac[:, 2:], out=step[:, 2:])
        local_e[:len(fac), i] = local_e[:len(fac), i - 1] + exps[i::b] + _rescale(step)
    if blocks > 1:
        carry, carry_e = np.empty((blocks - 1, 4, d, d)), np.empty((blocks - 1, 4))
        carry[0], carry_e[0] = local[0, -1], local_e[0, -1]
        for j in range(1, blocks - 1):
            last, prev, step = local[j, -1], carry[j - 1], carry[j]
            np.matmul(last[:2], prev[:2], out=step[:2])
            np.matmul(prev[2:], last[2:], out=step[2:])
            carry_e[j] = carry_e[j - 1] + local_e[j, -1] + _rescale(step)
        rest, carry = local[1:], carry[:, None]
        np.matmul(rest[:, :, :2], carry[:, :, :2], out=rest[:, :, :2])
        np.matmul(carry[:, :, 2:], rest[:, :, 2:], out=rest[:, :, 2:])
        local_e[1:] += carry_e[:, None] + _rescale(rest)
    return walked[:w + 1], total[:w + 1]


def _unit_factors(system: LinearSystem, frm: np.ndarray,
                  to: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, e) of Phi(to[l], frm[l]) = x[l] * 2^e[l] of a full system for
    steps of one length (unit steps in discrete time), built together: each
    x with its largest |entry| in [0.5, 1) and e an integer exponent.
    Continuous time takes stacked Magnus lanes; discrete time one stack of
    step matrices A(min(frm, to)), gathered and checked invertible lane by
    lane (the first error is the one of the lanes' order), taken as they
    are going forward and inverted going backward (LAPACK gesv against the
    identity), then rescaled in place (``_rescale``).  Their zeros are
    made +0.0 first, so a table's -0.0 entries give bitwise the factors,
    grids and propagators of +0.0 ones: the Gram eigensolve that
    normalizes them (``_normalized``) reads no zero sign on the tables
    tried, but a grid entry or propagator of one step is its factor
    divided by a norm, and would keep the factor's -0.0 entries."""
    if not len(frm):
        return np.empty((0, system.dim, system.dim)), np.empty(0, dtype=int)
    if system.time_domain == CONTINUOUS:
        return _magnus_factors(system, frm, to)
    mats = _step_matrices(system, np.rint(np.minimum(frm, to)).astype(int))
    mats += 0.0  # a -0.0 entry becomes +0.0: a one-step unit keeps its factor's zero signs
    behind = to < frm
    mats[behind] = np.linalg.inv(mats[behind])
    return mats, _rescale(mats)


# ---------------------------------------------------------------------------
# Descriptors and tables


def load_table(path: str | Path) -> tuple[int, np.ndarray]:
    """Tabulated CSV: header k,a_1_1,...,a_d_d, one row per integer k,
    row-major entries in plain decimal; a NaN or infinite entry is an error
    naming its row and column."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EvolutionError(f"{path}: empty table") from None
        if not header or header[0].strip() != "k":
            raise EvolutionError(f"{path}: first column must be 'k'")
        d = int(math.isqrt(len(header) - 1))
        if d * d != len(header) - 1:
            raise EvolutionError(f"{path}: expected d*d entry columns, got {len(header) - 1}")
        expected = [f"a_{i}_{j}" for i in range(1, d + 1) for j in range(1, d + 1)]
        got = [h.strip() for h in header[1:]]
        if got != expected:
            raise EvolutionError(f"{path}: entry columns must be {','.join(expected)}")
        ks, rows = [], []
        for line in reader:
            if not line:
                continue
            ks.append(_table_cell(line[0], int, f"{path}: line {reader.line_num}: k"))
            where = f"{path}: row k={ks[-1]}"
            if len(line) != len(header):
                raise EvolutionError(f"{where}: expected {len(header)} columns, got {len(line)}")
            rows.append([_table_cell(text, float, f"{where}: {name}")
                         for name, text in zip(expected, line[1:])])
    if not ks:
        raise EvolutionError(f"{path}: no rows")
    if ks != list(range(ks[0], ks[0] + len(ks))):
        raise EvolutionError(f"{path}: rows must cover consecutive integers")
    mats = np.array(rows).reshape(len(ks), d, d)
    return ks[0], mats


def _table_cell(text: str, kind, what: str):
    """``kind(text)`` (int or float), finite; errors name the cell by ``what``."""
    try:
        value = kind(text)
    except ValueError:
        article = "an integer" if kind is int else "a number"
        raise EvolutionError(f"{what} is not {article} ({text.strip()})") from None
    if not math.isfinite(value):
        raise EvolutionError(f"{what} is not finite ({text.strip()})")
    return value


def system_to_descriptor(system: LinearSystem) -> dict:
    """The input of a parsed system, else the descriptor that
    ``system_from_descriptor`` reads back; an in-memory table, which has
    no file to name, gives ``{"table": "<in-memory>"}``."""
    if system.descriptor is not None:
        return dict(system.descriptor)
    src = system.source
    desc = {
        "time_domain": system.time_domain,
        "dimension": system.dim,
        "structure": system.structure,
    }
    if isinstance(src, ExprSource):
        if src.diag_text is not None:
            desc["coefficients"] = {"diagonal": list(src.diag_text)}
        else:
            desc["coefficients"] = {"entries": [list(r) for r in src.entries_text]}
    elif isinstance(src, RateQuotientSource):
        desc["coefficients"] = {
            "rate_quotient": {
                "rate": rates.rate_to_descriptor(src.rate),
                "slopes": list(src.slopes),
            }
        }
    else:
        desc["coefficients"] = {"table": "<in-memory>"}
    return desc


def system_from_descriptor(desc: dict, base_dir: str | Path | None = None) -> LinearSystem:
    if not isinstance(desc, dict):
        raise EvolutionError(f"system: expected an object, got {type(desc).__name__}")
    domain = desc.get("time_domain")
    if domain not in (DISCRETE, CONTINUOUS):
        raise EvolutionError("system.time_domain: expected 'discrete' or 'continuous'")
    structure = desc.get("structure")
    if structure not in (SCALAR, DIAGONAL, FULL):
        raise EvolutionError("system.structure: expected scalar, diagonal or full")
    dim = desc.get("dimension")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise EvolutionError("system.dimension: expected a positive integer")
    if structure == SCALAR and dim != 1:
        raise EvolutionError("system.dimension: scalar systems have dimension 1")
    coeffs = desc.get("coefficients")
    if not isinstance(coeffs, dict):
        raise EvolutionError("system.coefficients: expected an object")
    try:
        if "table" in coeffs:
            if domain != DISCRETE:
                raise EvolutionError("system.coefficients.table: tables are discrete-time")
            if not isinstance(coeffs["table"], str):
                raise EvolutionError("system.coefficients.table: expected a file path string")
            path = Path(coeffs["table"])
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            k0, mats = load_table(path)
            if mats.shape[1] != dim:
                raise EvolutionError(
                    f"system.coefficients.table: table dimension {mats.shape[1]} "
                    f"does not match dimension {dim}")
            return LinearSystem(domain, dim, structure, TableSource(k0, mats),
                                descriptor=dict(desc))
        if "diagonal" in coeffs:
            texts = coeffs["diagonal"]
            if structure == FULL:
                raise EvolutionError("system.coefficients.diagonal: needs scalar or diagonal structure")
            if (not isinstance(texts, list) or len(texts) != dim
                    or any(not isinstance(t, str) for t in texts)):
                raise EvolutionError(
                    f"system.coefficients.diagonal: expected {dim} expression strings")
            return LinearSystem(domain, dim, structure, ExprSource.from_diag(texts),
                                descriptor=dict(desc))
        if "entries" in coeffs:
            rows = coeffs["entries"]
            if structure != FULL:
                raise EvolutionError("system.coefficients.entries: needs full structure")
            if (not isinstance(rows, list) or len(rows) != dim
                    or any(not isinstance(r, list) or len(r) != dim
                           or any(not isinstance(t, str) for t in r) for r in rows)):
                raise EvolutionError(
                    f"system.coefficients.entries: expected a {dim}x{dim} grid of expressions")
            return LinearSystem(domain, dim, FULL, ExprSource.from_entries(rows),
                                descriptor=dict(desc))
        if "rate_quotient" in coeffs:
            where = "system.coefficients.rate_quotient"
            spec = coeffs["rate_quotient"]
            if not isinstance(spec, dict):
                raise EvolutionError(f"{where}: expected an object")
            if structure == FULL:
                raise EvolutionError(f"{where}: needs scalar or diagonal structure")
            slopes = spec.get("slopes")
            if (not isinstance(slopes, list) or len(slopes) != dim
                    or not all(rates.is_finite_number(s) for s in slopes)):
                raise EvolutionError(f"{where}.slopes: expected {dim} finite numbers")
            rate = rates.rate_from_descriptor(spec.get("rate"), domain, path=f"{where}.rate")
            if rate.time_domain != domain:
                raise EvolutionError(f"{where}.rate.time_domain: expected {domain!r}, "
                                     "the system's time domain")
            return quotient_system(rate, slopes)
    except exprparse.ParseError as exc:
        raise EvolutionError(f"system.coefficients: {exc}") from exc
    raise EvolutionError(
        "system.coefficients: expected one of diagonal, entries, table, rate_quotient")
