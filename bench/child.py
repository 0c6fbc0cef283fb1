"""One run process: set up a workload's inputs, run its job list once, and
write what happened as JSON.

    python child.py SRC RESULT SPAWN_T MODE

runs in the work directory that holds ``jobs.json`` (and any table it
names).  SRC is the package source directory the import must come from,
RESULT the file to write, SPAWN_T the parent's ``time.perf_counter()`` just
before it started this process (the clock is system-wide, so set-up time
counts interpreter start), and MODE one of ``plain`` (timed run), ``spans``
(traced run), ``memory`` (traced run with tracemalloc) or ``warmup`` (import
only, to compile bytecode and fill the page cache).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    """This process's own resident high-water mark.

    ru_maxrss is not enough: Linux carries it over an exec, so a process
    started by a larger parent reports the parent's size.  VmHWM belongs to
    the address space, which the exec replaced.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _prepare(job: dict, work: Path):
    """Resolve one job's descriptors; return the call that runs it."""
    from muspec import catalog, cli, relations, spectrum
    from muspec.params import Params

    schedule = job.get("schedule")
    params = Params(schedule=tuple(schedule)) if schedule else Params()
    if job["kind"] == "spectrum":
        system = catalog.resolve_system(job["system"], base_dir=work)
        rate = catalog.resolve_rate(job["rate"], system.time_domain)
        return lambda: spectrum.compute_spectrum(system, rate, params)
    if job["kind"] == "chain":
        chain = [catalog.resolve_rate(r, job["time_domain"]) for r in job["rates"]]
        return lambda: relations.chain_check(chain, params)
    if job["kind"] == "cli":
        argv = list(job["argv"])
        return lambda: cli.main(argv)
    raise ValueError(f"unknown job kind {job['kind']!r}")


def _result(job: dict, value, work: Path) -> dict:
    if job["kind"] == "cli":
        out = work / job["output"]
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        return {"id": job["id"], "exit": value, "output_bytes": len(text.encode()),
                "reports": [json.loads(line) for line in text.splitlines() if line]}
    return {"id": job["id"], **value.to_dict()}


def main(argv: list[str]) -> int:
    src, result_path, spawn_t, mode = Path(argv[1]), Path(argv[2]), float(argv[3]), argv[4]
    work = Path.cwd()
    import muspec

    origin = Path(muspec.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"muspec imported from {origin}, not from {src}")
    if mode == "warmup":
        return 0

    from muspec import catalog

    spec = json.loads((work / "jobs.json").read_text(encoding="utf-8"))
    for name, domain in spec["setup_rates"]:
        catalog.resolve_rate(name, domain)
    prepared = []
    for job in spec["jobs"]:
        try:
            prepared.append(_prepare(job, work))
        except Exception as exc:  # a job that cannot be set up fails, the run goes on
            prepared.append(exc)
    ready = time.perf_counter()

    tracer = None
    if mode in ("spans", "memory"):
        from tracer import Tracer

        tracer = Tracer(memory=mode == "memory")
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    values, job_s = [], []
    for call in prepared:
        start = time.perf_counter()
        if isinstance(call, Exception):
            values.append(call)
        else:
            try:
                values.append(call())
            except Exception as exc:  # graded as a failed job
                values.append(exc)
        job_s.append(time.perf_counter() - start)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = _peak_rss_mb()

    results = []
    for job, value in zip(spec["jobs"], values):
        if isinstance(value, Exception):
            results.append({"id": job["id"], "error": f"{type(value).__name__}: {value}"})
        else:
            results.append(_result(job, value, work))
    record = {"setup_s": ready - spawn_t, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": peak_rss_mb, "job_s": job_s, "results": results}
    if tracer is not None:
        record["trace"] = tracer.record()
    result_path.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
