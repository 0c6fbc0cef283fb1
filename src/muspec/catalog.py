"""Built-in growth rates and systems.

Rates: p (polynomial), exp, q (quadratic exponential), c (cubic
exponential), and glued_c_p, the cubic rate with a polynomial patch glued
over the central window up to the positive solution of t^3 = log(1+t).

Systems: the scalar catalog used throughout the test harness, each stored as
one coefficient expression.  disc_q is the discrete companion of the 2|t|
equation; its coefficient exp(abs(2*k+1)) telescopes to the quadratic
exponential quotient.
"""

from __future__ import annotations

import json
from functools import lru_cache

from . import evolution, rates
from .params import CONTINUOUS, DISCRETE


RATE_NAMES = ("p", "exp", "q", "c", "glued_c_p")

SYSTEM_DEFS = {
    "abs2t": (CONTINUOUS, "2*abs(t)"),
    "inv1pt": (CONTINUOUS, "1/(1+abs(t))"),
    "sq3t2": (CONTINUOUS, "3*t^2"),
    "frak_a": (DISCRETE, "exp(-3*k^2-3*k-1)"),
    "disc_q": (DISCRETE, "exp(abs(2*k+1))"),
    "identity": (DISCRETE, "1"),
}


class CatalogError(ValueError):
    pass


@lru_cache(maxsize=None)
def _glued_crossover() -> float:
    c = rates.PowerExp(3.0, 1.0, CONTINUOUS)
    p = rates.Polynomial(CONTINUOUS)
    return rates.find_crossover(c, p, hi=5.0)


@lru_cache(maxsize=None)
def rate(name: str, time_domain: str = DISCRETE) -> rates.GrowthRate:
    if name == "p":
        return rates.Polynomial(time_domain)
    if name == "exp":
        return rates.PowerExp(1.0, 1.0, time_domain)
    if name == "q":
        return rates.PowerExp(2.0, 1.0, time_domain)
    if name == "c":
        return rates.PowerExp(3.0, 1.0, time_domain)
    if name == "glued_c_p":
        return rates.Glued(
            inner=rate("c", time_domain),
            outer=rate("p", time_domain),
            crossover=_glued_crossover(),
            time_domain=time_domain,
        )
    raise CatalogError(f"unknown catalog rate {name!r} (have {', '.join(RATE_NAMES)})")


@lru_cache(maxsize=None)
def system(name: str) -> evolution.LinearSystem:
    if name not in SYSTEM_DEFS:
        raise CatalogError(
            f"unknown catalog system {name!r} (have {', '.join(SYSTEM_DEFS)})")
    return evolution.scalar_system(*SYSTEM_DEFS[name])


def resolve_rate(spec, time_domain: str | None = None) -> rates.GrowthRate:
    """Accept a catalog name ('q' or 'catalog:q'), a JSON string, or a
    descriptor dict."""
    if isinstance(spec, rates.PowerExp | rates.Polynomial | rates.ExpressionRate | rates.Glued):
        return spec
    if isinstance(spec, dict):
        return rates.rate_from_descriptor(spec, time_domain)
    if isinstance(spec, str):
        text = spec.strip()
        if text.startswith("catalog:"):
            text = text[len("catalog:"):]
        if text in RATE_NAMES:
            return rate(text, time_domain or DISCRETE)
        if text.startswith("{"):
            try:
                return rates.rate_from_descriptor(json.loads(text), time_domain)
            except json.JSONDecodeError as exc:
                raise CatalogError(f"rate: invalid JSON descriptor: {exc}") from exc
        raise CatalogError(f"rate: not a catalog name or JSON descriptor: {spec!r}")
    raise CatalogError(f"rate: unsupported specification {spec!r}")


def resolve_system(spec, base_dir=None) -> evolution.LinearSystem:
    if isinstance(spec, evolution.LinearSystem):
        return spec
    if isinstance(spec, dict):
        return evolution.system_from_descriptor(spec, base_dir)
    if isinstance(spec, str):
        text = spec.strip()
        if text.startswith("catalog:"):
            text = text[len("catalog:"):]
        if text in SYSTEM_DEFS:
            return system(text)
        if text.startswith("{"):
            try:
                return evolution.system_from_descriptor(json.loads(text), base_dir)
            except json.JSONDecodeError as exc:
                raise CatalogError(f"system: invalid JSON descriptor: {exc}") from exc
        raise CatalogError(f"system: not a catalog name or JSON descriptor: {spec!r}")
    raise CatalogError(f"system: unsupported specification {spec!r}")


def listing() -> dict:
    """Catalog contents with descriptors, as shown by the CLI."""
    rate_entries = {}
    for name in RATE_NAMES:
        domain = CONTINUOUS if name == "glued_c_p" else DISCRETE
        rate_entries[name] = rates.rate_to_descriptor(rate(name, domain))
    system_entries = {}
    for name in SYSTEM_DEFS:
        system_entries[name] = evolution.system_to_descriptor(system(name))
    return {"rates": rate_entries, "systems": system_entries}
