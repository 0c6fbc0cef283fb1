"""muspec benchmark: one workload, measured in fresh run processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The seed makes the workload's inputs (``workloads.py``),
which go to a work directory under ``.bench_work/`` that is removed at the
end.  Each run process starts a fresh interpreter, sets up the inputs, runs
the job list once and exits (``child.py``), so every run pays the cold
caches a CLI call pays.  Run processes execute one at a time until S seconds
have passed (at least one); one untimed warm-up import runs first.

Every time is scaled to a reference host speed, read by timing a fixed
kernel just before and just after each run process (``speed.py``).

--trace 0 prints the end-to-end metrics, medians over the run processes.
--trace 1 alternates untraced and traced run processes for S seconds, then
runs one process under tracemalloc, and prints the per-layer metrics.
Every job is checked against its reference either way.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_S, Speed, scale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# End-to-end metric -> unit.  fail_frac is 0 on a healthy run, so the metric
# is its complement ok_frac; fail_frac itself is printed beside it.
UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
         "ok_frac": "ratio", "resolved_frac": "ratio"}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("MUSPEC_THREADS", None)  # the harness runs single-threaded
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run_child(work: Path, mode: str, index: int, deadline: float, speed: Speed) -> dict:
    result = work / f"run-{index}.json"
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before a run process could start")
    before = speed.time()
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(SRC), str(result), repr(spawn), mode],
            cwd=work, env=_child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run process exceeded {timeout:.0f} s") from None
    after = speed.time()
    if proc.returncode != 0:
        raise BenchError(f"{mode} run process exited {proc.returncode}: {proc.stderr[-2000:]}")
    if mode == "warmup":
        return {}
    record = json.loads(result.read_text(encoding="utf-8"))
    record["speed_s"] = (before + after) / 2
    record["scale"] = scale(before, after)
    return record


def _environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_model": cpu}


def _tail(values: list[float]) -> tuple[int, float] | None:
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            ordered = sorted(values)
            return p, ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]
    return None


def _grade(refs: dict, runs: list[dict]) -> dict:
    from workloads import check

    total = {"attempted": 0, "failed": 0, "resolved": 0, "problems": []}
    for run in runs:
        graded = check(refs, run["results"])
        for key in ("attempted", "failed", "resolved"):
            total[key] += graded[key]
        total["problems"] += graded["problems"]
    return total


def _measure(work: Path, seconds: float, deadline: float, speed: Speed) -> list[dict]:
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(_run_child(work, "plain", len(runs), deadline, speed))
    return runs


def _measure_traced(work: Path, seconds: float, deadline: float, speed: Speed):
    plain, spans = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain.append(_run_child(work, "plain", 2 * len(plain), deadline, speed))
        spans.append(_run_child(work, "spans", 2 * len(spans) + 1, deadline, speed))
    memory = _run_child(work, "memory", 2 * len(plain), deadline, speed)
    return plain, spans, memory


def _ref(run: dict, name: str) -> float:
    """A run's time ``name`` at the reference speed (see speed.py)."""
    return run[name] * run["scale"]


def _per_layer(plain: list[dict], spans: list[dict], memory: dict) -> dict:
    from tracer import PER_LAYER, summarize

    summaries = [{name: value * run["scale"] if PER_LAYER[name][0] == "s" else value
                  for name, value in summarize(run["trace"]).items()} for run in spans]
    metrics = {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}
    metrics["spectrum.peak_mb"] = memory["trace"]["peaks"].get("spectrum", 0) / 2 ** 20
    metrics["relations.peak_mb"] = memory["trace"]["peaks"].get("relations", 0) / 2 ** 20
    metrics["cli.output_bytes"] = sum(r.get("output_bytes", 0) for r in spans[0]["results"])
    plain_wall = statistics.median(_ref(r, "wall_s") for r in plain)
    metrics["trace.overhead_ratio"] = statistics.median(_ref(r, "wall_s") for r in spans) / plain_wall
    metrics["trace.tracemalloc_ratio"] = _ref(memory, "wall_s") / plain_wall
    return metrics


def _report_end_to_end(label: str, runs: list[dict], graded: dict) -> dict:
    attempted, failed = graded["attempted"], graded["failed"]
    values = {name: statistics.median(_ref(r, name) for r in runs)
              for name in ("setup_s", "wall_s", "cpu_s")}
    values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in runs)
    for name, value in values.items():
        samples = [_ref(r, name) if UNITS[name] == "s" else r[name] for r in runs]
        tail = _tail(samples)
        extra = f", p{tail[0]} {tail[1]:.6g}" if tail else ", no percentile has 10 beyond it"
        if UNITS[name] == "s":
            extra += f"; as measured {statistics.median(r[name] for r in runs):.6g} s"
        print(f"{label}{name:<14}{value:>12.6g} {UNITS[name]:<6}median of n={len(runs)}{extra}")
    print(f"{label}{'speed kernel':<14}{statistics.median(r['speed_s'] for r in runs):>12.6g} s     "
          f"median, against {REF_S} s at the reference speed")
    values["ok_frac"] = 1.0 - failed / attempted
    values["resolved_frac"] = graded["resolved"] / attempted
    print(f"{label}{'ok_frac':<14}{values['ok_frac']:>12.6g} ratio  "
          f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    print(f"{label}{'resolved_frac':<14}{values['resolved_frac']:>12.6g} ratio  "
          f"({graded['resolved']} of {attempted} jobs)")
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}


def _report_per_layer(label: str, plain: list[dict], spans: list[dict], memory: dict) -> dict:
    from tracer import PER_LAYER

    values = _per_layer(plain, spans, memory)
    print(f"{label}job list median {statistics.median(_ref(r, 'wall_s') for r in plain):.4f} s "
          f"untraced (n={len(plain)}), {statistics.median(_ref(r, 'wall_s') for r in spans):.4f} s "
          f"traced (n={len(spans)}), {_ref(memory, 'wall_s'):.4f} s under tracemalloc (n=1), "
          f"at the reference speed")
    for name, (unit, _) in PER_LAYER.items():
        print(f"{label}{name:<38}{values[name]:>14.6g} {unit}")
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + 170.0

    if not (SRC / "muspec" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'muspec'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(have {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=False)
    try:
        refs = workloads.generate(args.workload, args.seed, work)
        environment = _environment()  # before the pinning below narrows nproc
        # The run processes inherit this one vCPU, so the speed kernel reads
        # the speed of the vCPU they run on; the two vCPUs' speeds move
        # independently (see speed.py).
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        speed = Speed()
        _run_child(work, "warmup", 0, deadline, speed)
        if args.trace:
            plain, spans, memory = _measure_traced(work, args.seconds, deadline, speed)
            runs = plain + spans + [memory]
        else:
            runs = _measure(work, args.seconds, deadline, speed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    graded = _grade(refs, runs)
    for line in graded["problems"][:20]:
        print(f"reference mismatch: {line}")
    # Every run process must give the same job results, traced or not.
    reference = json.dumps(runs[0]["results"], sort_keys=True)
    deviating = sum(json.dumps(r["results"], sort_keys=True) != reference for r in runs)
    if deviating:
        print(f"nondeterminism: {deviating} of {len(runs)} run processes gave other job results")
    attempted, failed = graded["attempted"], graded["failed"]

    print(json.dumps({"environment": environment, "workload": args.workload,
                      "seed": args.seed, "runs": len(runs)}))
    label = f"{args.workload:>16}  "
    timed = plain if args.trace else runs
    for i, result in enumerate(timed[0]["results"]):
        job_s = statistics.median(r["job_s"][i] * r["scale"] for r in timed)
        line = f"{label}job {result['id']:<18} median {job_s:.4f} s"
        if args.trace:
            line += f", under tracemalloc {memory['job_s'][i] * memory['scale']:.4f} s"
        print(line)
    if args.trace:
        metrics = _report_per_layer(label, plain, spans, memory)
    else:
        metrics = _report_end_to_end(label, runs, graded)
    correct = failed == 0 and deviating == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
