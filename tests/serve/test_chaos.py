"""Chaos suite: seeded faults against a live server, deterministic endings.

The acceptance property (ISSUE: fault-tolerant job server): under seeded
chaos that kills at least one pool worker and corrupts at least one
cache entry mid-run,

1. every job still reaches a terminal state exactly once,
2. results are bit-identical to an unfaulted run (cells are pure
   functions of their specs, so supervision can always re-execute), and
3. a drain mid-sweep leaves a run directory a later resume completes
   (covered end-to-end in ``test_server.py`` and ``scripts/serve_smoke.py``).

Plus the ``hung_worker`` chaos class: a worker that stops making
progress is detected by the wall-clock cell deadline, killed so the hang
surfaces as a crash, and the cell is retried to completion.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import time

from repro.parallel import ResultCache, run_cells
from repro.parallel import executor as executor_module
from repro.parallel.cellkey import CellSpec
from repro.resilience import ChaosInjector
from repro.serve.jobs import TERMINAL_STATES
from repro.serve.server import SimServer

FAST = 0.05


def cell(workload, mode="ooo"):
    return {"workload": workload, "mode": mode, "scale": FAST}


@contextlib.asynccontextmanager
async def serving(tmp_path, **kw):
    kw.setdefault("jobs", 2)
    kw.setdefault("tick", 0.01)
    kw.setdefault("drain_dir", str(tmp_path / "drain"))
    server = SimServer(**kw)
    await server.start(socket_path=str(tmp_path / "serve.sock"))
    try:
        yield server
    finally:
        await server.stop()


async def wait_job(server, job_id, timeout=180.0):
    return await server.handle_request(
        {"op": "wait", "job": job_id, "timeout": timeout})


async def wait_until(predicate, *, timeout=60.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        await asyncio.sleep(0.01)


def test_seeded_chaos_preserves_results_and_terminal_states(tmp_path):
    """Kill a worker AND corrupt a cache entry mid-run; nothing shows."""
    workloads = ["pointer_chase", "div_chain", "mcf"]
    truth = {
        w: run_cells([CellSpec(workload=w, mode="ooo", scale=FAST)], jobs=1)[0]
        for w in workloads
    }
    injector = ChaosInjector(seed=2022)
    cache = ResultCache(str(tmp_path / "cache"))

    async def scenario():
        async with serving(tmp_path, cache=cache) as server:
            # Round 1: populate the cache, with a worker kill mid-flight.
            first = await server.handle_request(
                {"op": "submit", "cells": [cell(w) for w in workloads]})
            await wait_until(lambda: server._running,
                             what="a cell on the pool")
            assert injector.kill_worker(server._pool) is not None
            done = await wait_job(server, first["job"])
            assert done["state"] == "done"
            assert server.pool_stats.worker_crashes >= 1
            assert server.stats.pool_rebuilds >= 1

            # Round 2: rot a stored entry; the re-submission must detect
            # it, re-simulate, and still agree with the unfaulted run.
            assert injector.corrupt_cache_entry(cache) is not None
            second = await server.handle_request(
                {"op": "submit", "cells": [cell(w) for w in workloads]})
            redone = await wait_job(server, second["job"])
            assert redone["state"] == "done"
            assert cache.stats.corrupt >= 1

            for response in (done, redone):
                for row in response["results"]:
                    assert row["status"] == "done"
                    assert row["ipc"] == truth[row["workload"]].ipc
                    assert row["cycles"] == truth[row["workload"]].require_stats().cycles

            # Every job terminal exactly once: states are terminal, and
            # the terminal counters account for each admitted job once.
            assert all(j.terminal for j in server._jobs.values())
            stats = server.stats
            assert (stats.jobs_done + stats.jobs_failed + stats.jobs_drained
                    == stats.jobs_submitted == 2)
            # Both chaos classes actually fired.
            fired = {action for action, _ in injector.actions}
            assert fired == {"killed_worker", "corrupt_cache_entry"}

    asyncio.run(scenario())


def test_repeated_worker_kills_still_terminate_every_job(tmp_path):
    """A kill per rebuild exhausts the budget into a FAILED terminal
    state rather than a hang — terminal exactly once, deterministically."""
    injector = ChaosInjector(seed=7)

    async def scenario():
        async with serving(tmp_path, jobs=1) as server:
            admitted = await server.handle_request(
                {"op": "submit", "cells": [cell("pointer_chase")]})
            # Keep killing whatever worker picks the cell up, beyond the
            # retry budget (default policy: 2 retries = 3 attempts).
            for _ in range(4):
                await wait_until(lambda: server._running or
                                 server._jobs[admitted["job"]].terminal,
                                 what="an attempt or a terminal state")
                if server._jobs[admitted["job"]].terminal:
                    break
                injector.kill_worker(server._pool)
                await asyncio.sleep(0.05)
            done = await wait_job(server, admitted["job"])
            assert done["state"] in TERMINAL_STATES
            job = server._jobs[admitted["job"]]
            if done["state"] == "failed":
                assert job.results[0].error_type == "WorkerCrash"
            assert (server.stats.jobs_done + server.stats.jobs_failed) == 1

    asyncio.run(scenario())


# -- hung_worker ---------------------------------------------------------------

_real_pool_run_cell = executor_module._pool_run_cell


def _hang_once_run_cell(spec):
    """First execution hangs (bounded 60s); retries run normally."""
    sentinel = os.environ["REPRO_TEST_HANG_SENTINEL"]
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return _real_pool_run_cell(spec)
    os.close(fd)
    time.sleep(60)
    return _real_pool_run_cell(spec)


def test_hung_worker_is_killed_and_cell_retried(tmp_path, monkeypatch):
    """The hung_worker chaos class end to end: wall-clock deadline ->
    worker killed -> surfaces as a crash -> retried -> correct result."""
    truth = run_cells(
        [CellSpec(workload="pointer_chase", mode="ooo", scale=FAST)], jobs=1)[0]
    monkeypatch.setenv(
        "REPRO_TEST_HANG_SENTINEL", str(tmp_path / "hung-once"))
    monkeypatch.setattr(
        executor_module, "_pool_run_cell", _hang_once_run_cell)

    async def scenario():
        async with serving(
            tmp_path, jobs=1, cell_deadline=1.0,
        ) as server:
            admitted = await server.handle_request(
                {"op": "submit", "cells": [cell("pointer_chase")]})
            done = await wait_job(server, admitted["job"])
            assert done["state"] == "done"
            (row,) = done["results"]
            assert row["ipc"] == truth.ipc
            assert row["attempts"] >= 2
            assert server.stats.hung_cells >= 1
            assert server.stats.cells_retried >= 1
            assert server.pool_stats.worker_crashes >= 1

    asyncio.run(scenario())
