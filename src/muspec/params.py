"""Shared estimator parameters and window schedules."""

from __future__ import annotations

import math
import numbers

from ._record import record


DISCRETE = "discrete"
CONTINUOUS = "continuous"

DEFAULT_DISCRETE_SCHEDULE = (50, 100, 200, 400)
DEFAULT_CONTINUOUS_SCHEDULE = (5, 10, 20, 40)

# An unpinned schedule keeps doubling its last window while an estimate has
# not converged, up to these caps: 16 times the default's last continuous
# window, and 4 times the default's last discrete one (the pair scan runs
# in row blocks, so memory is not the limit; the time is: each window scans
# the admissible suffix of every row, O(N^2) times the admissible share of
# the pairs).  Sizes, not a time budget, so reports never depend on
# machine speed.
MAX_DISCRETE_WINDOW = 1600
MAX_CONTINUOUS_WINDOW = 640

# Sampling density of continuous-time relation scans (samples per unit time).
SAMPLES_PER_UNIT = 10


@record(frozen=True)
class Params:
    """Tolerances and window schedule shared by the spectral estimator and
    the relation checkers.

    schedule         window half-widths; when None, the per-domain default,
                     which the spectral estimator extends by doubling its
                     last window while an estimate has not converged (up to
                     MAX_DISCRETE_WINDOW / MAX_CONTINUOUS_WINDOW); a given
                     schedule is used as is
    tol_stab         two estimates within this agree ("stabilized"); it is
                     absolute, in the units of the exponents and of the
                     relation suprema, so it is not scale-free: a spectrum
                     under PowerExp(p, lambda) scales like 1/lambda, and
                     whether a report is converged depends on the rate's
                     scale
    cutoff_fraction  pair admission: log-quotient >= fraction of the window max
    gamma_max        |estimate| beyond this is flagged as divergent
    delta_merge      adjacent component intervals closer than this merge
                     (defaults to 10 * tol_stab)
    """

    schedule: tuple[int, ...] | None = None
    tol_stab: float = 0.02
    cutoff_fraction: float = 0.5
    gamma_max: float = 50.0
    delta_merge: float | None = None

    def __post_init__(self):
        # written as "not (x > 0)" so that NaN fails too
        if not self.tol_stab > 0:
            raise ValueError("tol_stab must be positive")
        if not 0 < self.cutoff_fraction < 1:
            raise ValueError("cutoff_fraction must be in (0, 1)")
        if not self.gamma_max > 0:
            raise ValueError("gamma_max must be positive")
        if self.delta_merge is not None and not self.delta_merge > 0:
            raise ValueError("delta_merge must be positive")
        # an infinite tolerance agrees with anything and merges everything
        if self.tol_stab == math.inf:
            raise ValueError("tol_stab must be finite")
        if self.delta_merge == math.inf:
            raise ValueError("delta_merge must be finite")
        if self.schedule is not None:
            sched = tuple(self.schedule)
            for w in sched:
                if isinstance(w, bool) or not isinstance(w, numbers.Integral) or w < 1:
                    raise ValueError(f"schedule windows must be positive integers, got {w!r}")
            if not sched or any(b <= a for a, b in zip(sched, sched[1:])):
                raise ValueError("schedule must be non-empty and strictly increasing")
            object.__setattr__(self, "schedule", sched)

    def windows(self, time_domain: str) -> tuple[int, ...]:
        if self.schedule is not None:
            return self.schedule
        if time_domain == DISCRETE:
            return DEFAULT_DISCRETE_SCHEDULE
        return DEFAULT_CONTINUOUS_SCHEDULE

    def extension_windows(self, time_domain: str) -> tuple[int, ...]:
        """Doubled windows an unconverged estimate may take after the
        schedule: none when the schedule is pinned."""
        if self.schedule is not None:
            return ()
        cap = MAX_DISCRETE_WINDOW if time_domain == DISCRETE else MAX_CONTINUOUS_WINDOW
        out = []
        window = self.windows(time_domain)[-1] * 2
        while window <= cap:
            out.append(window)
            window *= 2
        return tuple(out)

    @property
    def merge_tolerance(self) -> float:
        return self.delta_merge if self.delta_merge is not None else 10.0 * self.tol_stab


DEFAULT = Params()
