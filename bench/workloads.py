"""Seeded inputs, references and reference checks for the benchmark workloads.

``generate`` writes what a run process may see (``jobs.json`` and, for
``full_matrix``, ``table.csv``) and returns the references, which stay with
the caller.  ``check`` grades one run's job results against them.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from muspec import catalog, rates, theorems
from muspec.params import Params

WORKLOADS = ("harness", "scalar_cont_wide", "scalar_disc_wide", "full_matrix")

# Tolerance of the acceptance suite on spectral points; used for every
# spectral reference so that no job gets a tolerance of its own.
TOL = 0.05

CATALOG_RATES = ("p", "exp", "q", "c", "glued_c_p")
CONT_WIDE = (50, 100, 200, 400)
DISC_WIDE = (200, 400, 800, 1600)
TABLE_WINDOW = 400  # the default discrete schedule ends at 400

INF = math.inf


def _slopes(rng: random.Random, count: int, gap: float) -> list[float]:
    """Distinct slopes in [-2, 2], pairwise more than ``gap`` apart, so the
    estimator never merges two of them."""
    while True:
        slopes = sorted(round(rng.uniform(-2.0, 2.0), 3) for _ in range(count))
        if all(b - a > gap for a, b in zip(slopes, slopes[1:])):
            return slopes


def _diagonal(domain: str, texts: list[str]) -> dict:
    return {"time_domain": domain, "dimension": len(texts), "structure": "diagonal",
            "coefficients": {"diagonal": texts}}


def _catalog_points(system: str, rate: str) -> list:
    """Expected spectrum of a catalog system from ``theorems.catalog_fixtures``.

    inv1pt under exp has no entry there; its spectrum {0} is the value the
    acceptance suite checks (criterion 4).
    """
    expected = {f.name: f.expected for f in theorems.catalog_fixtures()}
    if system == "inv1pt" and rate == "exp":
        return [(0.0, 0.0)]
    return [tuple(iv) for iv in expected[system][rate]]


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the run inputs of one workload into ``out_dir``; return the
    references keyed by job id.  The same seed gives byte-identical files."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (have {', '.join(WORKLOADS)})")
    rng = random.Random(f"{workload}:{seed}")
    merge = Params().merge_tolerance
    jobs, refs = [], {}

    def spectrum_job(job_id, system, rate, schedule, ref):
        jobs.append({"id": job_id, "kind": "spectrum", "system": system,
                     "rate": f"catalog:{rate}",
                     "schedule": list(schedule) if schedule else None})
        refs[job_id] = ref

    if workload == "harness":
        jobs.append({"id": "verify_all", "kind": "cli",
                     "argv": ["verify", "--theorem", "all", "--output", "harness.jsonl"],
                     "output": "harness.jsonl"})
        refs["verify_all"] = {"kind": "harness"}
    elif workload == "scalar_cont_wide":
        for system, rate in (("abs2t", "q"), ("inv1pt", "exp"), ("sq3t2", "c")):
            spectrum_job(f"{system}/{rate}", f"catalog:{system}", rate, CONT_WIDE,
                         {"kind": "points", "points": _catalog_points(system, rate)})
        slopes = _slopes(rng, 3, merge)
        system = _diagonal("continuous", [f"2*({s})*abs(t)" for s in slopes])
        spectrum_job("seeded_diag/q", system, "q", CONT_WIDE,
                     {"kind": "points", "points": [(s, s) for s in slopes]})
    elif workload == "scalar_disc_wide":
        for system, rate in (("frak_a", "c"), ("disc_q", "q"), ("identity", "exp")):
            spectrum_job(f"{system}/{rate}", f"catalog:{system}", rate, DISC_WIDE,
                         {"kind": "points", "points": _catalog_points(system, rate)})
        slopes = _slopes(rng, 3, merge)
        system = _diagonal("discrete", [f"exp(({s})*abs(2*k+1))" for s in slopes])
        spectrum_job("seeded_diag/q", system, "q", DISC_WIDE,
                     {"kind": "points", "points": [(s, s) for s in slopes]})
        chain = ["p", "exp", "q", "c"]
        jobs.append({"id": "chain", "kind": "chain", "time_domain": "discrete",
                     "rates": [f"catalog:{n}" for n in chain], "schedule": list(DISC_WIDE)})
        refs["chain"] = {"kind": "chain", "links": _symbolic_links(chain)}
    else:
        # Upper-triangular steps with constant seeded diagonal logs: the
        # determinant is exp(a + c), so no step is singular, and the
        # exponential spectrum is {c, a} for any bounded off-diagonal.
        a = round(rng.uniform(0.2, 1.0), 3)
        c = round(rng.uniform(-1.0, -0.2), 3)
        ea, ec = repr(math.exp(a)), repr(math.exp(c))
        lines = ["k,a_1_1,a_1_2,a_2_1,a_2_2"]
        for k in range(-TABLE_WINDOW, TABLE_WINDOW + 1):
            lines.append(f"{k},{ea},{rng.uniform(-1.0, 1.0)!r},0.0,{ec}")
        (out_dir / "table.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        table = {"time_domain": "discrete", "dimension": 2, "structure": "full",
                 "coefficients": {"table": "table.csv"}}
        spectrum_job("seeded_table/exp", table, "exp", None,
                     {"kind": "covers", "points": [c, a]})
        cont = {"time_domain": "continuous", "dimension": 2, "structure": "full",
                "coefficients": {"entries": [["2*abs(t)", "1"], ["0", "-1/(1+abs(t))"]]}}
        spectrum_job("full_cont/q", cont, "q", None, {"kind": "covers", "points": [0.0, 1.0]})

    # Every run resolves all catalog rates in both domains before it starts
    # timing, as a CLI call that accepts catalog names does.
    setup_rates = [[f"catalog:{n}", d] for d in ("discrete", "continuous") for n in CATALOG_RATES]
    spec = {"workload": workload, "setup_rates": setup_rates, "jobs": jobs}
    (out_dir / "jobs.json").write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")
    return refs


def _symbolic_links(names: list[str]) -> list[bool]:
    """Expected chain links: a precedes b in the closed-form table."""
    chain = [catalog.rate(n, "discrete") for n in names]
    return [rates.symbolic_compare(a, b).below_ab for a, b in zip(chain, chain[1:])]


# ---------------------------------------------------------------------------
# Grading


def _ext(v) -> float:
    if v == "+inf":
        return INF
    if v == "-inf":
        return -INF
    return float(v)


def _near(x: float, target: float) -> bool:
    if math.isinf(target) or math.isinf(x):
        return x == target
    return abs(x - target) <= TOL


def check(refs: dict, results: list[dict]) -> dict:
    """Grade one run's job results.

    Returns counts of jobs attempted, failed (raised, or contradicted the
    reference) and resolved (converged spectrum, decided chain, passing
    theorem report), plus one line per failure.  Each theorem report of the
    harness counts as one job.
    """
    attempted = failed = resolved = 0
    problems = []
    for res in results:
        job_id = res["id"]
        ref = refs[job_id]
        if "error" in res:
            attempted += 1
            failed += 1
            problems.append(f"{job_id}: raised {res['error']}")
            continue
        if ref["kind"] == "harness":
            reports = res["reports"]
            if not reports:
                attempted += 1
                failed += 1
                problems.append(f"{job_id}: exit {res['exit']} with no reports")
                continue
            for rep in reports:
                attempted += 1
                if rep["status"] == "fail":
                    failed += 1
                    problems.append(f"{job_id}: {rep['theorem']}/{rep['fixture']} failed")
                elif rep["status"] == "pass":
                    resolved += 1
            continue
        attempted += 1
        if ref["kind"] == "chain":
            outcomes = [link["outcome"] for link in res["links"]]
            bad = [i for i, (o, want) in enumerate(zip(outcomes, ref["links"]))
                   if o != "inconclusive" and (o == "holds") != want]
            if bad or len(outcomes) != len(ref["links"]):
                failed += 1
                problems.append(f"{job_id}: links {outcomes} vs symbolic {ref['links']}")
            elif res["outcome"] != "inconclusive":
                resolved += 1
            continue
        intervals = [(_ext(iv["lo"]), _ext(iv["hi"])) for iv in res["intervals"]]
        if ref["kind"] == "points":
            ok = len(intervals) == len(ref["points"]) and all(
                _near(lo, want_lo) and _near(hi, want_hi)
                for (lo, hi), (want_lo, want_hi) in zip(intervals, sorted(ref["points"])))
        else:
            ok = all(any(lo - TOL <= p <= hi + TOL for lo, hi in intervals)
                     for p in ref["points"])
        if not ok:
            failed += 1
            problems.append(f"{job_id}: spectrum {intervals} vs {ref['kind']} {ref['points']}")
        elif res["converged"]:
            resolved += 1
    return {"attempted": attempted, "failed": failed, "resolved": resolved,
            "problems": problems}
