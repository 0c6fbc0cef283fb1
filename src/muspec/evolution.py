"""Evolution operators for discrete and continuous nonautonomous linear
systems, in overflow-safe scaled form.

A propagator value is held as a ``ScaledMatrix``: a unit-scale matrix times
``exp(log_norm)``.  Every product is renormalized factor by factor, so the
catalog systems, whose propagators reach e^(+-10^4) on ordinary windows,
never leave double range.  Scalar and diagonal structures additionally keep
their per-component logs exactly (sums of per-step log-magnitudes, or the
time integral of the coefficient in continuous time).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import exprparse, rates
from .params import CONTINUOUS, DISCRETE


SCALAR = "scalar"
DIAGONAL = "diagonal"
FULL = "full"

_MAX_DIM = 16
_MIN_ABS_DET = 1e-300
ODE_STEP = 1e-2  # fixed step of continuous quadrature and integration


class EvolutionError(ValueError):
    """Invalid system construction or propagation request."""


# ---------------------------------------------------------------------------
# Scaled matrices


@dataclass(frozen=True, eq=False)
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
        return _normalized(np.asarray(m, dtype=float)[None], [extra_log])[0]

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


def _normalized(mats: np.ndarray, extra_logs) -> list[ScaledMatrix]:
    """``ScaledMatrix.from_matrix`` of every matrix of a (n, d, d) stack, with
    the 2-norms from one stacked SVD (the largest singular value comes
    first)."""
    norms = np.linalg.svd(mats, compute_uv=False)[:, 0].tolist()
    return [ScaledMatrix(np.zeros_like(m), -math.inf) if nrm == 0.0
            else ScaledMatrix(m / nrm, extra + math.log(nrm))
            for m, nrm, extra in zip(mats, norms, extra_logs)]


def log_sigma_max(mats) -> np.ndarray:
    """log sigma_max of every scaled matrix of a sequence of full-structure
    values, from one stacked SVD: the first entry of
    ``operator_norm_bounds`` for each."""
    units = np.stack([m.unit for m in mats])
    top = np.linalg.svd(units, compute_uv=False)[:, 0].tolist()
    return np.array([-math.inf if sv == 0.0 else m.log_norm + math.log(sv)
                     for m, sv in zip(mats, top)])


# ---------------------------------------------------------------------------
# Coefficient sources


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class TableSource:
    """Tabulated discrete coefficients on an explicit index range; queries
    outside the range are errors, not extrapolations."""

    k0: int
    matrices: np.ndarray  # (count, d, d)

    def matrix(self, k: int) -> np.ndarray:
        return self.stack([k])[0]

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


@dataclass(frozen=True, eq=False)
class RateQuotientSource:
    """Diagonal system whose propagator is a growth-rate quotient raised to
    per-component slopes: discrete steps are (nu(k+1)/nu(k))^s_i, continuous
    coefficients are s_i * d/dt log nu(t)."""

    rate: rates.GrowthRate
    slopes: tuple


Source = ExprSource | TableSource | RateQuotientSource


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


# ---------------------------------------------------------------------------
# Construction helpers


def scalar_system(time_domain: str, text: str, descriptor: dict | None = None) -> LinearSystem:
    return LinearSystem(time_domain, 1, SCALAR, ExprSource.from_diag((text,)),
                        descriptor=descriptor)


def diagonal_system(time_domain: str, texts, descriptor: dict | None = None) -> LinearSystem:
    texts = tuple(texts)
    return LinearSystem(time_domain, len(texts), DIAGONAL, ExprSource.from_diag(texts),
                        descriptor=descriptor)


def full_system(time_domain: str, rows, descriptor: dict | None = None) -> LinearSystem:
    rows = tuple(tuple(r) for r in rows)
    d = len(rows)
    if any(len(r) != d for r in rows):
        raise EvolutionError("full coefficient matrix must be square")
    return LinearSystem(time_domain, d, FULL, ExprSource.from_entries(rows),
                        descriptor=descriptor)


def quotient_system(rate: rates.GrowthRate, slopes) -> LinearSystem:
    slopes = tuple(float(s) for s in slopes)
    if not slopes:
        raise EvolutionError("need at least one slope")
    structure = SCALAR if len(slopes) == 1 else DIAGONAL
    descriptor = {
        "generated": "rate_quotient",
        "rate": rates.rate_to_descriptor(rate),
        "slopes": list(slopes),
    }
    return LinearSystem(rate.time_domain, len(slopes), structure,
                        RateQuotientSource(rate, slopes), descriptor=descriptor)


def tabulated_system(k0: int, matrices: np.ndarray, structure: str = FULL,
                     descriptor: dict | None = None) -> LinearSystem:
    matrices = np.asarray(matrices, dtype=float)
    d = matrices.shape[1]
    return LinearSystem(DISCRETE, d, structure, TableSource(k0, matrices),
                        descriptor=descriptor)


# ---------------------------------------------------------------------------
# Coefficient evaluation


def coefficient_matrix(system: LinearSystem, t: float) -> np.ndarray:
    """A(t) in linear scale.  Entries of expression-backed systems must be
    representable as doubles at the queried time."""
    src = system.source
    env = {"t": t, "k": t}
    if isinstance(src, TableSource):
        return src.matrix(int(round(t)))
    if isinstance(src, ExprSource):
        if src.entries is not None:
            return np.array([[exprparse.evaluate_env(e, env) for e in row]
                             for row in src.entries])
        vals = [exprparse.evaluate_env(e, env) for e in src.diag]
        return np.diag(vals)
    if isinstance(src, RateQuotientSource):
        if system.time_domain == DISCRETE:
            la, sg = _diag_step_logs(system, [int(round(t))])
            return np.diag(sg[0] * np.exp(la[0]))
        return np.diag(_diag_values(system, [t])[0])
    raise EvolutionError(f"unsupported source {type(src).__name__}")


def _coefficient_stack(system: LinearSystem, ts) -> np.ndarray:
    """A(t) of a full system at every time of ``ts``, shape (len(ts), d, d):
    one array evaluation of the row-major entry expressions, or one table
    gather.  The floats, and the first error, are those of
    ``coefficient_matrix`` called time by time."""
    src = system.source
    if isinstance(src, TableSource):
        return src.stack(ts)
    entries = [e for row in src.entries for e in row]
    values = exprparse.evaluate_array(entries, {"t": ts, "k": ts})
    return values.reshape(len(ts), system.dim, system.dim)


def _diag_step_logs(system: LinearSystem, ks: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(log|a_ii(k)|, sign a_ii(k)) of a discrete scalar/diagonal system at
    the integer times ks, shape (len(ks), components), unchecked: one array
    evaluation in log space, one table gather, or one log mu call."""
    src = system.source
    if isinstance(src, ExprSource) and src.diag is not None:
        kf = [float(k) for k in ks]  # a DomainError reports a Python float input
        la, sg = exprparse.evaluate_log_abs_array(src.diag, {"t": kf, "k": kf})
        return la, sg.astype(float)
    if isinstance(src, RateQuotientSource):
        # a step is log mu(k+1) - log mu(k), left operand first; one call in
        # that order raises what a step-by-step loop raises first
        kf = np.asarray(ks, dtype=float)
        ends = rates.log_rate_values(src.rate, np.column_stack([kf + 1.0, kf]).ravel())
        step = ends[0::2] - ends[1::2]
        return step[:, None] * np.array(src.slopes), np.ones((len(ks), len(src.slopes)))
    if isinstance(src, TableSource):
        diag = np.diagonal(src.stack(ks), axis1=1, axis2=2)
        with np.errstate(divide="ignore"):
            return np.where(diag == 0, -np.inf, np.log(np.abs(diag))), np.sign(diag)
    raise EvolutionError("diagonal step logs need a scalar or diagonal system")


def _diag_steps(system: LinearSystem, ks: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """``_diag_step_logs`` checked nonsingular (no zero entry, no log of
    -inf).  A failure raises the error that evaluating and checking the
    times one at a time, in the order of ks, raises first.  A rate-quotient
    step mu(k)^s / mu(k+1)^s is never zero and is not checked: a -inf log
    there is an underflow, which ``component_log_grid`` names as a
    non-finite log, as it names an overflow."""
    checked = not isinstance(system.source, RateQuotientSource)
    try:
        la, sg = _diag_step_logs(system, ks)
    except (ValueError, ArithmeticError):
        if checked:  # a singular step before the failing time is reported first
            for k in ks:
                _check_nonsingular(*_diag_step_logs(system, [k]), [k])
        raise
    if checked:
        _check_nonsingular(la, sg, ks)
    return la, sg


def _check_nonsingular(la: np.ndarray, sg: np.ndarray, ks):
    singular = np.any(sg == 0, axis=1) | np.any(la == -math.inf, axis=1)
    if singular.any():
        raise EvolutionError(
            f"coefficient matrix is singular at time {ks[int(np.argmax(singular))]}")


def _diag_values(system: LinearSystem, ts) -> np.ndarray:
    """Continuous-time integrands a_ii at every time of ``ts`` for
    scalar/diagonal systems, shape (len(ts), components).  Expressions take
    one array call, with the same floats and the same first DomainError as
    evaluating time by time; quotient sources one log mu' call."""
    src = system.source
    if isinstance(src, ExprSource) and src.diag is not None:
        return exprparse.evaluate_array(src.diag, {"t": ts, "k": ts})
    if isinstance(src, RateQuotientSource):
        return rates.log_rate_derivative(src.rate, ts)[:, None] * np.array(src.slopes)
    raise EvolutionError("continuous diagonal values need expression or quotient sources")


# ---------------------------------------------------------------------------
# Quadrature and integration


_SIMPSON_BLOCK = 1 << 11  # quadrature nodes one array evaluation holds


def _simpson_integrals(system: LinearSystem, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise integrals of the diagonal coefficients over segments
    [a[s], b[s]] of one common nonzero length, shape (segments, components):
    composite Simpson with an even panel count, no interior kink handling.

    Each segment gets the floats of integrating it alone: the nodes of
    ``np.linspace(a[s], b[s], n + 1)``, and the weighted sum reduced as
    numpy reduces one segment's (n + 1, components) array, pairwise over a
    single column and row by row over several.  Segments go in order, in
    blocks of at most ``_SIMPSON_BLOCK`` nodes per array evaluation, so
    memory stays flat and a failing node raises the error a
    segment-by-segment loop raises first.
    """
    comp = system.components
    if not len(a):
        return np.zeros((0, comp))
    n = max(2, int(math.ceil(abs(b[0] - a[0]) / ODE_STEP)))
    if n % 2:
        n += 1
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    per_call = max(1, _SIMPSON_BLOCK // (n + 1))
    out = []
    for s in range(0, len(a), per_call):
        lo, hi = a[s:s + per_call], b[s:s + per_call]
        xs = np.linspace(lo, hi, n + 1, axis=1)
        vals = _diag_values(system, xs.ravel()).reshape(len(lo), n + 1, comp)
        weighted = w[:, None] * vals
        if comp == 1:
            sums = weighted[:, :, 0].sum(axis=1)[:, None]
        else:
            sums = np.cumsum(weighted, axis=1)[:, -1]
        out.append(((hi - lo) / n / 3.0)[:, None] * sums)
    return np.concatenate(out)


def _diag_log_integral(system: LinearSystem, frm: float, to: float) -> np.ndarray:
    """log Psi_ii(to, frm) = integral of a_ii; split at 0 where the catalog
    coefficients may have a kink."""
    if frm == to:
        return np.zeros(system.components)
    sign = 1.0
    a, b = frm, to
    if a > b:
        a, b = b, a
        sign = -1.0

    def segment(lo, hi):
        return _simpson_integrals(system, np.array([lo], dtype=float),
                                  np.array([hi], dtype=float))[0]

    if a < 0.0 < b:
        total = segment(a, 0.0) + segment(0.0, b)
    else:
        total = segment(a, b)
    return sign * total


_RK4_BLOCK = 1 << 18  # coefficient values (nodes x entries) one RK4 lane block holds


def _rk4_factors(system: LinearSystem, frm: np.ndarray,
                 to: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled propagators Phi(to[l], frm[l]) of a full continuous system by
    classical fixed-step 4th-order integration, one lane l per pair.

    Returns (units, logs) of shapes (lanes, d, d) and (lanes,).  All lanes
    span the same length, so they take the same steps and are integrated
    together, in blocks of lanes whose coefficient values stay within
    ``_RK4_BLOCK``.  Each lane does the float operations of a lone
    integration: the same node times, the same products and 2-norms, and
    the log scale accumulated with ``math.log``.  All nodes of a block are
    evaluated in one call, lane by lane and step by step, so a failing
    coefficient raises the error the lanes would raise one at a time.
    """
    steps = max(1, math.ceil(abs(float(to[0] - frm[0])) / ODE_STEP))
    d = system.dim
    block = max(1, _RK4_BLOCK // (3 * steps * d * d))
    units, logs = [], []
    for l0 in range(0, len(frm), block):
        u, g = _rk4_block(system, frm[l0:l0 + block], to[l0:l0 + block], steps)
        units.append(u)
        logs.append(g)
    return np.concatenate(units), np.concatenate(logs)


def _rk4_block(system: LinearSystem, frm: np.ndarray, to: np.ndarray,
               steps: int) -> tuple[np.ndarray, np.ndarray]:
    lanes, d = len(frm), system.dim
    dt = (to - frm) / steps
    # t advances by repeated addition of dt, as a step loop does
    t = np.cumsum(np.column_stack([frm] + [dt] * (steps - 1)), axis=1)
    half = dt / 2
    nodes = np.stack([t, t + half[:, None], t + dt[:, None]], axis=2)
    coeff = _coefficient_stack(system, nodes.ravel()).reshape(lanes, steps, 3, d, d)
    half, full, sixth = (v[:, None, None] for v in (half, dt, dt / 6))
    x = np.tile(np.eye(d), (lanes, 1, 1))
    log_acc = np.zeros(lanes)
    for s in range(steps):
        a0, a1, a2 = coeff[:, s, 0], coeff[:, s, 1], coeff[:, s, 2]
        k1 = a0 @ x
        k2 = a1 @ (x + half * k1)
        k3 = a1 @ (x + half * k2)
        k4 = a2 @ (x + full * k3)
        x = x + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        nrm = np.linalg.svd(x, compute_uv=False)[:, 0]
        if np.any(nrm == 0.0):
            raise EvolutionError("propagator collapsed to zero during integration")
        x /= nrm[:, None, None]
        log_acc += [math.log(v) for v in nrm.tolist()]
    return x, log_acc


# ---------------------------------------------------------------------------
# Propagation


def propagate(system: LinearSystem, to: float, frm: float) -> ScaledMatrix:
    """Evolution operator value mapping the state at ``frm`` to ``to``.

    Discrete: left-ordered coefficient product (identity when to == frm,
    inverses when to < frm), renormalized after every factor.  Continuous:
    Simpson quadrature of the coefficient integral for scalar/diagonal
    structure, classical fixed-step 4th-order integration otherwise.
    """
    if system.time_domain == DISCRETE:
        ki, ni = int(round(to)), int(round(frm))
        if abs(to - ki) > 1e-9 or abs(frm - ni) > 1e-9:
            raise EvolutionError("discrete systems are propagated between integers")
        if system.structure in (SCALAR, DIAGONAL):
            la, sg = _diag_range_logs(system, ki, ni)
            return ScaledMatrix.from_diag_logs(la, sg)
        return _full_discrete(system, ki, ni)
    if system.structure in (SCALAR, DIAGONAL):
        logs = _diag_log_integral(system, frm, to)
        return ScaledMatrix.from_diag_logs(logs, np.ones(system.components))
    if frm == to:
        return ScaledMatrix.identity(system.dim)
    units, logs = _rk4_factors(system, np.array([frm], dtype=float),
                               np.array([to], dtype=float))
    return ScaledMatrix(units[0], float(logs[0]))


def _diag_range_logs(system: LinearSystem, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Log-magnitudes and signs of the diagonal of Phi(k, n): the unit steps
    between n and k summed from 0.0 in increasing time, negated when k < n
    (inverse steps; diagonal signs are self-inverse).  A non-finite log
    raises the EvolutionError ``component_log_grid`` raises, naming the
    first non-finite running sum of the walk from n toward k."""
    if k == n:
        return np.zeros(system.components), np.ones(system.components)
    lo, hi = (n, k) if k > n else (k, n)
    with np.errstate(over="ignore", invalid="ignore"):  # raised by name below
        la, sg = _diag_steps(system, list(range(lo, hi)))
        total = _walk(la)[-1]
        if k < n:
            total = -total
        if not np.isfinite(total).all():
            # a step ahead reaches the right end of its interval, a step
            # back the left; the total closes the walk, since summing in
            # increasing time can overflow where the walk's order does not
            left = np.arange(lo, hi, dtype=float)
            walked, reached = ((_walk(la)[1:], left + 1.0) if k > n
                               else (_walk(-la[::-1])[1:], left[::-1]))
            _check_walk_finite(np.vstack([walked, total]), np.append(reached, float(k)))
    return total, np.prod(sg, axis=0)


def _walk(steps: np.ndarray) -> np.ndarray:
    """Running sums 0, s_0, s_0 + s_1, ... of a (count, components) array,
    added one step at a time from 0.0 as a loop adds them."""
    return np.cumsum(np.vstack([np.zeros(steps.shape[1]), steps]), axis=0)


def _check_walk_finite(walked: np.ndarray, reached: np.ndarray):
    """Raise at the first non-finite running sum of a walk, in walk order:
    ``walked`` holds one row of per-component sums per step, and
    ``reached[m]`` is the time step m reaches."""
    bad = ~np.isfinite(walked)
    if bad.any():
        m, i = divmod(int(np.argmax(bad)), walked.shape[1])
        raise EvolutionError(f"log-propagator of component {i} is not finite at time "
                             f"{reached[m]:g} ({walked[m, i]})")


def _full_discrete(system: LinearSystem, k: int, n: int) -> ScaledMatrix:
    acc = ScaledMatrix.identity(system.dim)
    if k == n:
        return acc
    ks = list(range(n, k)) if k > n else list(range(n - 1, k - 1, -1))
    for a in _step_matrices(system, ks):
        prod = a @ acc.unit if k > n else np.linalg.solve(a, acc.unit)
        acc = ScaledMatrix.from_matrix(prod, acc.log_norm)
    return acc


def _step_matrices(system: LinearSystem, ks: list[int]) -> np.ndarray:
    """Discrete coefficient matrices at the integer times ks, stacked and
    checked invertible.  A failure raises the error that evaluating and
    checking the times one at a time, in the order of ks, raises first."""
    try:
        mats = _coefficient_stack(system, ks)
    except (EvolutionError, exprparse.ExprError):
        # a singular step before the failing time is reported first
        for k in ks:
            _check_invertible(coefficient_matrix(system, k)[None], [k])
        raise
    _check_invertible(mats, ks)
    return mats


def _check_invertible(mats: np.ndarray, ks):
    """Raise at the first singular or numerically singular matrix of a
    (n, d, d) stack, naming its time from ks."""
    sign, logdet = np.linalg.slogdet(mats)
    scale = np.max(np.abs(mats), axis=(1, 2))
    log_scale = np.array([math.log(v) if v > 0 else 0.0 for v in scale.tolist()])
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

    All 2 * window unit steps are built at once: one batch of discrete step
    logs (``_diag_steps``) or of Simpson segments (``_simpson_integrals``),
    then running sums outward from 0.  Every entry, and every error, is
    bitwise what walking out one unit step at a time gives.  A step or
    running sum that leaves double range raises an EvolutionError naming
    the first one in walk order, by time and component.
    """
    if isinstance(obj, WeightedSystem):
        times, logs = component_log_grid(obj.base, window)
        mu = rates.log_rate_values(obj.rate, times)
        return times, logs - obj.gamma * mu[None, :]
    system: LinearSystem = obj
    if system.structure == FULL:
        raise EvolutionError("full systems use the scaled-matrix grid")
    times = np.arange(-window, window + 1, dtype=float)
    center = window
    # the unit steps of a walk outward from 0, first ahead [t_m, t_m+1] for
    # m = center..2W-1, then behind [t_m-1, t_m] for m = center..1; the
    # first error in this order is the one the walk would meet first
    left = np.concatenate([times[center:-1], times[:center][::-1]])
    with np.errstate(over="ignore", invalid="ignore"):  # raised by name below
        if system.time_domain == DISCRETE:
            steps, _ = _diag_steps(system, [int(k) for k in left])
        else:
            steps = _simpson_integrals(system, left, left + 1.0)
        ahead, behind = _walk(steps[:window]), _walk(-steps[window:])
    # a step ahead reaches the right end of its interval, a step behind the left
    _check_walk_finite(np.vstack([ahead[1:], behind[1:]]),
                       np.concatenate([left[:window] + 1.0, left[window:]]))
    logs = np.empty((system.components, len(times)))
    logs[:, center:] = ahead.T
    logs[:, center::-1] = behind.T
    return times, logs


def scaled_grids(obj, window: int) -> tuple[np.ndarray, list, list]:
    """Integer-time grids of scaled propagators for full systems.

    Returns (times, forward, backward) with forward[m] = Phi(t_m, 0) and
    backward[m] = Phi(0, t_m).  Both are accumulated one unit-step factor at
    a time (each factor inverted at the coefficient level), never by
    inverting a long product, so the dominant singular direction of each
    grid entry stays reliable on windows whose propagators are
    astronomically ill-conditioned.

    All 4 * window factors, Phi(t_m +- 1, t_m) and their backward twins, are
    built in one batch (``_unit_factors``); each equals, bitwise, the
    single-step ``propagate`` value, so only the composition runs factor by
    factor.
    """
    if isinstance(obj, WeightedSystem):
        times, fwd, bwd = scaled_grids(obj.base, window)
        mu = rates.log_rate_values(obj.rate, times)
        fwd = [m.shifted(-obj.gamma * float(mu[i])) for i, m in enumerate(fwd)]
        bwd = [m.shifted(obj.gamma * float(mu[i])) for i, m in enumerate(bwd)]
        return times, fwd, bwd
    system: LinearSystem = obj
    if system.structure != FULL:
        raise EvolutionError("scalar and diagonal systems use the component log grid")
    times = np.arange(-window, window + 1, dtype=float)
    center = window
    # walk outward from 0, first ahead and then behind; each move m -> n
    # takes the factor Phi(t_n, t_m) and its backward twin Phi(t_m, t_n)
    moves = ([(m, m + 1) for m in range(center, len(times) - 1)]
             + [(m, m - 1) for m in range(center, 0, -1)])
    frm = np.array([times[i] for m, n in moves for i in (m, n)])
    to = np.array([times[i] for m, n in moves for i in (n, m)])
    factors = iter(_unit_factors(system, frm, to))
    fwd: list = [None] * len(times)
    bwd: list = [None] * len(times)
    fwd[center] = ScaledMatrix.identity(system.dim)
    bwd[center] = ScaledMatrix.identity(system.dim)
    for m, n in moves:
        fwd[n] = next(factors).compose(fwd[m])
        bwd[n] = bwd[m].compose(next(factors))
    return times, fwd, bwd


def _unit_factors(system: LinearSystem, frm: np.ndarray, to: np.ndarray) -> list[ScaledMatrix]:
    """``propagate(system, to[l], frm[l])`` for unit steps of a full system,
    built together: stacked RK4 lanes in continuous time; in discrete time
    one stack of step matrices A(min(frm, to)), multiplied by the identity
    going forward and solved against it going backward."""
    if not len(frm):
        return []
    if system.time_domain == CONTINUOUS:
        units, logs = _rk4_factors(system, frm, to)
        return [ScaledMatrix(u, g) for u, g in zip(units, logs.tolist())]
    mats = _step_matrices(system, np.rint(np.minimum(frm, to)).astype(int).tolist())
    eye = np.eye(system.dim)
    ahead = to > frm
    prods = np.empty_like(mats)
    prods[ahead] = mats[ahead] @ eye
    behind = mats[~ahead]
    prods[~ahead] = np.linalg.solve(behind, np.broadcast_to(eye, behind.shape))
    return _normalized(prods, [0.0] * len(prods))


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
            ks.append(int(line[0]))
            rows.append([float(v) for v in line[1:]])
            for name, v, text in zip(expected, rows[-1], line[1:]):
                if not math.isfinite(v):
                    raise EvolutionError(
                        f"{path}: row k={ks[-1]}: {name} is not finite ({text.strip()})")
    if not ks:
        raise EvolutionError(f"{path}: no rows")
    if ks != list(range(ks[0], ks[0] + len(ks))):
        raise EvolutionError(f"{path}: rows must cover consecutive integers")
    mats = np.array(rows).reshape(len(ks), d, d)
    return ks[0], mats


def system_to_descriptor(system: LinearSystem) -> dict:
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
    coeffs = desc.get("coefficients")
    if not isinstance(coeffs, dict):
        raise EvolutionError("system.coefficients: expected an object")
    try:
        if "table" in coeffs:
            if domain != DISCRETE:
                raise EvolutionError("system.coefficients.table: tables are discrete-time")
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
            if not isinstance(texts, list) or len(texts) != dim:
                raise EvolutionError(
                    f"system.coefficients.diagonal: expected {dim} expression strings")
            return LinearSystem(domain, dim, structure, ExprSource.from_diag(texts),
                                descriptor=dict(desc))
        if "entries" in coeffs:
            rows = coeffs["entries"]
            if structure != FULL:
                raise EvolutionError("system.coefficients.entries: needs full structure")
            if (not isinstance(rows, list) or len(rows) != dim
                    or any(not isinstance(r, list) or len(r) != dim for r in rows)):
                raise EvolutionError(
                    f"system.coefficients.entries: expected a {dim}x{dim} grid of expressions")
            return LinearSystem(domain, dim, FULL, ExprSource.from_entries(rows),
                                descriptor=dict(desc))
        if "rate_quotient" in coeffs:
            spec = coeffs["rate_quotient"]
            rate = rates.rate_from_descriptor(spec.get("rate"), domain,
                                              path="system.coefficients.rate_quotient.rate")
            return quotient_system(rate, spec.get("slopes", ()))
    except exprparse.ParseError as exc:
        raise EvolutionError(f"system.coefficients: {exc}") from exc
    raise EvolutionError(
        "system.coefficients: expected one of diagonal, entries, table, rate_quotient")
