"""One cold experiment run in a fresh interpreter, then its warm re-check.

Started by ``run.py`` once per measured run:

    python3 perfbench/coldrun.py --workload fdo_sweep --variant ref \
        --work-dir <empty dir> --out <result.json> [--trace]

Everything from interpreter start through imports, registry load and
experiment construction is the set-up the parent times (this process
records the moment it is ready). The cold run is one
``repro.orchestrate.runs.execute_run`` call against a fresh ``ResultCache``
and run directory under ``--work-dir``, with a pool of ``min(2, nproc)``
workers. The same plan then runs again against the same cache (the warm
re-check). The result JSON holds timings, CPU and memory use, every cell's
digest, and with ``--trace`` the per-layer metrics and spans.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import time

import plans


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _reap_workers(timeout: float = 60.0) -> None:
    """Wait until every pool worker has exited and been reaped, so its CPU
    time and peak RSS are in this process's RUSAGE_CHILDREN."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers did not exit")
        time.sleep(0.002)


def _execute(experiment, cache, work_dir: str, tag: str, jobs: int):
    """One execute_run into ``<work_dir>/runs-<tag>``; returns
    (summary, {cell key: CellResult}, wall seconds)."""
    from repro.orchestrate.runs import execute_run

    results = {}

    def on_cell(key, result):
        results[key] = result

    start = time.perf_counter()
    summary = execute_run(
        experiment,
        out=os.path.join(work_dir, f"runs-{tag}"),
        jobs=jobs,
        cache=cache,
        on_cell=on_cell,
    )
    return summary, results, time.perf_counter() - start


def _digests(planned, results) -> dict:
    """{cell label: digest, or None for a failed or missing cell}."""
    out = {}
    for cell in planned:
        result = results.get(cell.key)
        ok = result is not None and result.ok
        out[plans.cell_label(cell)] = plans.result_digest(result) if ok else None
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(plans.PLANS))
    parser.add_argument("--variant", required=True, choices=plans.VARIANTS)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once set-up is done")
    args = parser.parse_args(argv)

    from repro.parallel.cache import ResultCache
    from repro.sim.simulator import resolve_engine

    experiment = plans.build_experiment(args.workload, args.variant)
    record = {"ready": time.monotonic()}
    if args.setup_only:
        return _write(args.out, record)

    jobs = min(2, len(os.sched_getaffinity(0)))
    cache = ResultCache(os.path.join(args.work_dir, "cache"))
    planned = experiment.plan()

    recorder = None
    if args.trace:
        import spans

        span_dir = os.path.join(args.work_dir, "spans")
        os.makedirs(span_dir)
        recorder = spans.Recorder(span_dir)
        spans.install(recorder)

    cpu0 = _cpu_seconds(resource.RUSAGE_SELF)
    child0 = _cpu_seconds(resource.RUSAGE_CHILDREN)
    summary, cold, wall = _execute(experiment, cache, args.work_dir, "cold", jobs)
    _reap_workers()
    cpu = (_cpu_seconds(resource.RUSAGE_SELF) - cpu0
           + _cpu_seconds(resource.RUSAGE_CHILDREN) - child0)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    cold_hits, cold_misses = cache.stats.hits, cache.stats.misses

    if recorder is not None:
        recorder.enabled = False
    _, warm, _ = _execute(experiment, cache, args.work_dir, "warm", jobs)
    _reap_workers()
    warm_hits = cache.stats.hits - cold_hits
    warm_misses = cache.stats.misses - cold_misses

    cold_results = [cold.get(cell.key) for cell in planned]
    record.update({
        "engine": resolve_engine(None),
        "jobs": jobs,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "retired": sum(plans.retired_insts(r) for r in cold_results
                       if r is not None and r.ok),
        "cells": len(planned),
        "digests": _digests(planned, cold),
        "warm_digests": _digests(planned, warm),
        "cold_hit_ratio": cold_hits / max(1, cold_hits + cold_misses),
        "warm_hit_ratio": warm_hits / max(1, warm_hits + warm_misses),
    })
    if recorder is not None:
        all_spans = spans.collect(span_dir, recorder)
        layers = spans.layer_metrics(
            all_spans, jobs=jobs,
            results=[r for r in cold_results if r is not None])
        layers["parallel.cache_hit_ratio"] = record["cold_hit_ratio"]
        layers["parallel.cache_hit_ratio_warm"] = record["warm_hit_ratio"]
        layers["parallel.failed"] = summary["failed"]
        record["layers"] = layers
        record["spans"] = all_spans
    return _write(args.out, record)


def _write(path: str, record: dict) -> int:
    with open(path, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
