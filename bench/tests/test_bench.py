"""Tests of the benchmark itself.

    python3 -m pytest bench/tests

test_each_workload_reports_every_metric runs every workload briefly, traced
and untraced; the whole file takes about a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from muspec import catalog, relations, spectrum  # noqa: E402
from muspec.params import DISCRETE, Params  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first, second, other = (tmp_path / n for n in ("a", "b", "c"))
    for d in (first, second, other):
        d.mkdir()
    refs = workloads.generate(workload, 11, first)
    assert workloads.generate(workload, 11, second) == refs
    assert _files(first) == _files(second)
    workloads.generate(workload, 12, other)
    if workload != "harness":  # the harness has no seeded input
        assert _files(other) != _files(first)


def test_seeded_slopes_stay_apart(tmp_path):
    merge = Params().merge_tolerance
    for seed in range(50):
        refs = workloads.generate("scalar_cont_wide", seed, tmp_path)
        points = [lo for lo, _ in refs["seeded_diag/q"]["points"]]
        assert all(b - a > merge for a, b in zip(points, points[1:]))


def test_wrong_reference_raises_fail_frac():
    report = spectrum.compute_spectrum(catalog.system("identity"), catalog.rate("exp", DISCRETE))
    spec_result = {"id": "identity/exp", **report.to_dict()}
    chain = relations.chain_check([catalog.rate(n, DISCRETE) for n in ("p", "exp")],
                                  Params(schedule=(50, 100, 200, 400)))
    chain_result = {"id": "chain", **chain.to_dict()}
    harness_result = {"id": "verify_all", "exit": 1, "output_bytes": 0,
                      "reports": [{"theorem": "805", "fixture": "x", "status": "pass"},
                                  {"theorem": "806", "fixture": "y", "status": "fail"}]}
    right = {"identity/exp": {"kind": "points", "points": [(0.0, 0.0)]},
             "chain": {"kind": "chain", "links": [True]}}
    wrong = {"identity/exp": {"kind": "points", "points": [(0.5, 0.5)]},
             "chain": {"kind": "chain", "links": [False]}}
    results = [spec_result, chain_result]
    assert workloads.check(right, results)["failed"] == 0
    assert workloads.check(wrong, results)["failed"] == 2
    covers = {"identity/exp": {"kind": "covers", "points": [0.0, 1.0]}}
    assert workloads.check(covers, [spec_result])["failed"] == 1
    graded = workloads.check({"verify_all": {"kind": "harness"}}, [harness_result])
    assert (graded["attempted"], graded["failed"], graded["resolved"]) == (2, 1, 1)
    silent = {"id": "verify_all", "exit": 0, "output_bytes": 0, "reports": []}
    assert workloads.check({"verify_all": {"kind": "harness"}}, [silent])["failed"] == 1
    raised = workloads.check(right, [{"id": "chain", "error": "RelationError: boom"}])
    assert raised["failed"] == 1


def _child(work: Path, mode: str, index: int) -> dict:
    env = {**os.environ, "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{BENCH}"}
    result = work / f"run-{index}.json"
    subprocess.run([sys.executable, str(BENCH / "child.py"), str(ROOT / "src"), str(result),
                    "0.0", mode], cwd=work, env=env, check=True, timeout=120)
    return json.loads(result.read_text(encoding="utf-8"))


def test_traced_and_untraced_results_agree(tmp_path):
    workloads.generate("full_matrix", 3, tmp_path)  # writes table.csv
    spec = json.loads((tmp_path / "jobs.json").read_text(encoding="utf-8"))
    table_job = next(j for j in spec["jobs"] if j["id"] == "seeded_table/exp")
    spec["jobs"] = [
        table_job,
        {"id": "disc_q/q", "kind": "spectrum", "system": "catalog:disc_q",
         "rate": "catalog:q", "schedule": None},
        {"id": "chain", "kind": "chain", "time_domain": "discrete",
         "rates": ["catalog:p", "catalog:exp", "catalog:q"], "schedule": [50, 100, 200, 400]},
        {"id": "verify_805", "kind": "cli", "output": "805.jsonl",
         "argv": ["verify", "--theorem", "805", "--system", "catalog:abs2t", "--mu", "q",
                  "--omega", "exp", "--output", "805.jsonl"]},
    ]
    (tmp_path / "jobs.json").write_text(json.dumps(spec), encoding="utf-8")
    plain, spans, memory = (_child(tmp_path, m, i) for i, m in
                            enumerate(("plain", "spans", "memory")))
    assert "error" not in json.dumps(plain["results"])
    assert spans["results"] == plain["results"]
    assert memory["results"] == plain["results"]
    layer = tracer.summarize(spans["trace"])
    assert layer["spectrum.compute_spectrum.calls"] >= 2
    assert layer["evolution.scaled_grids.calls"] == 1
    assert layer["relations.chain_check.calls"] == 1
    assert layer["cli.main.s"] > layer["cli.self_s"] > 0
    assert memory["trace"]["peaks"]["spectrum"] > 0


def test_peak_rss_is_the_run_process_own(tmp_path):
    workloads.generate("full_matrix", 3, tmp_path)
    spec = json.loads((tmp_path / "jobs.json").read_text(encoding="utf-8"))
    spec["jobs"] = [j for j in spec["jobs"] if j["id"] == "seeded_table/exp"]
    (tmp_path / "jobs.json").write_text(json.dumps(spec), encoding="utf-8")
    ballast = bytearray(b"\x01") * (128 << 20)  # a parent larger than any run process
    run = _child(tmp_path, "plain", 0)
    assert len(ballast) and 0 < run["peak_rss_mb"] < 100


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["bench"] and SPEC["command"][1] == "bench/run.py"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracer.PER_LAYER


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
                           "--seconds", "0.1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_reports_every_metric(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())
    assert '"nproc"' in proc.stdout and '"cpu_model"' in proc.stdout


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("harness", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
