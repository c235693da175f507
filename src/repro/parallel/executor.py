"""Process-pool execution of simulation cells.

``run_cells`` takes a list of :class:`~repro.parallel.cellkey.CellSpec` and
returns one :class:`CellResult` per spec **in input order**, regardless of
which worker finished first — callers index results positionally and get
deterministic tables.

Execution path per cell:

1. Compute the content hash (:func:`~repro.parallel.cellkey.cell_key`) and
   consult the :class:`~repro.parallel.cache.ResultCache` if one is given;
   a hit skips simulation entirely.
2. Misses are simulated — in-process when ``jobs <= 1``, otherwise on a
   :class:`concurrent.futures.ProcessPoolExecutor`. Each distinct input is
   built, emulated and (for crisp cells) profiled once per call, through
   one run-level :class:`~repro.parallel.inputs.InputSet`: in-process it
   builds lazily and drops each input after its last consumer; pooled,
   input and FDO tasks run first and each cell is submitted once everything
   it consumes is ready, receiving the picklable spec plus a view of those
   inputs (docs/PARALLEL.md "Input sharing"). Inputs are built by the same
   deterministic builders a cell with no sharing uses, and the worker's
   global RNG is re-seeded from the cell key first, so no ambient RNG
   state can leak between cells (guarded by
   ``tests/parallel/test_executor.py``'s cross-process determinism check).
3. Failures follow the shared :class:`~repro.resilience.policy.RetryPolicy`
   (docs/RESILIENCE.md): :class:`~repro.resilience.errors.SimulationError`
   is a *hard* failure (recorded, never retried);
   :class:`~repro.resilience.errors.CellTimeout` (cycle budget, see
   :class:`~repro.resilience.watchdog.CycleBudgetWatchdog`) and ``OSError``
   are *transient* (retried within the policy's budget, after its
   deterministic backoff delay); ``ValueError`` is a configuration error
   and propagates immediately. A worker process dying mid-cell
   (``BrokenProcessPool``) is a transient failure of every in-flight cell:
   the pool is rebuilt and only the lost cells are re-enqueued — one dead
   worker no longer aborts the whole batch.
4. Successful results are serialized (``SimStats.to_dict``) and stored back
   into the cache atomically.

Workers never let simulator exceptions cross the pickle boundary — some
carry keyword-only constructor signatures that do not survive
round-tripping — they return a tagged failure dict instead.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..resilience.errors import CellTimeout, SimulationError
from ..resilience.policy import RetryPolicy
from ..uarch.stats import SimStats
from .cache import ResultCache
from .cellkey import CellSpec, cell_key

if TYPE_CHECKING:  # imported where used: keeps run-time imports off start-up
    from .inputs import CellNeeds, InputSet

#: Cell states (shared vocabulary with the sweep checkpoint).
STATUS_DONE = "done"
STATUS_FAILED = "failed"


@dataclass
class PoolStats:
    """Execution counters for one ``run_cells`` call (or a whole sweep)."""

    cells_total: int = 0
    cells_cached: int = 0
    cells_executed: int = 0
    retries: int = 0
    timeouts: int = 0
    hard_failures: int = 0
    worker_crashes: int = 0
    pool_rebuilds: int = 0
    inputs_built: int = 0
    inputs_reused: int = 0
    fdo_profiles: int = 0

    def register_into(self, registry) -> None:
        """Register collector-backed counters (docs/METRICS.md contract)."""
        spec = (
            ("parallel.pool.cells_total", "cells_total",
             "simulation cells submitted to the executor"),
            ("parallel.pool.cells_cached", "cells_cached",
             "cells answered by the result cache without simulating"),
            ("parallel.pool.cells_executed", "cells_executed",
             "cells that ran a fresh simulation (worker or in-process)"),
            ("parallel.pool.retries", "retries",
             "re-submissions after a transient cell failure"),
            ("parallel.pool.timeouts", "timeouts",
             "cell attempts ended by the cycle-budget watchdog"),
            ("parallel.pool.hard_failures", "hard_failures",
             "cells recorded as failed (hard error or retries exhausted)"),
            ("parallel.pool.worker_crashes", "worker_crashes",
             "in-flight cells and input/FDO tasks lost to a dying worker"),
            ("parallel.pool.rebuilds", "pool_rebuilds",
             "process pools respawned after a worker crash"),
            ("parallel.pool.inputs_built", "inputs_built",
             "distinct inputs built and emulated once for a whole run"),
            ("parallel.pool.inputs_reused", "inputs_reused",
             "input consumers served by an already built input"),
            ("parallel.pool.fdo_profiles", "fdo_profiles",
             "train-input profiles shared by an FDO group's crisp cells"),
        )
        for name, field_name, desc in spec:
            registry.counter(
                name,
                unit="events",
                desc=desc,
                owner="process pool",
                figure="",
                collect=lambda f=field_name: getattr(self, f),
            )


@dataclass
class CellResult:
    """Outcome of one cell, cached or freshly simulated."""

    spec: CellSpec
    key: str
    status: str
    attempts: int = 0
    from_cache: bool = False
    ipc: float | None = None
    stats: SimStats | None = None
    critical_pcs: tuple[int, ...] = ()
    error: str | None = None
    error_type: str | None = None
    crash_bundle: str | None = None
    #: Structured side-channel for composite cells (JSON-shaped, cached
    #: alongside the stats): co-run cells put per-core SimStats and the
    #: MulticoreStats under ``extra["corun"]``, SMT cells their per-thread
    #: rows under ``extra["smt"]``. Empty for ordinary cells.
    extra: dict = field(default_factory=dict)
    #: Set on synthesized sampled-run results (repro.sampling.cells): the
    #: SampledEstimate the stats/ipc fields were assembled from.
    estimate: object = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_DONE

    def require_stats(self) -> SimStats:
        """Stats of a successful cell; raises on a failed one."""
        if not self.ok or self.stats is None:
            raise RuntimeError(
                f"cell {self.spec.label()} failed "
                f"[{self.error_type or '?'}]: {self.error or 'no result'}"
            )
        return self.stats

    def checkpoint_row(self) -> dict:
        """The sweep-checkpoint cell dict for this result."""
        row = {"status": self.status, "attempts": self.attempts, "key": self.key}
        if self.ok:
            stats = self.require_stats()
            row.update(
                ipc=self.ipc, cycles=stats.cycles, retired=stats.retired,
                cached=self.from_cache,
            )
            if self.estimate is not None:
                row["sampled"] = self.estimate.brief()
        else:
            row.update(error=self.error, error_type=self.error_type)
            if self.crash_bundle:
                row["crash_bundle"] = self.crash_bundle
        return row


# -- worker side ---------------------------------------------------------------


def run_cell_spec(spec: CellSpec, inputs: InputSet | None = None) -> dict:
    """Simulate one cell and return its serialized result payload.

    Runs identically in-process and inside a pool worker. The cell's
    traces and FDO annotation come from ``inputs`` (a fresh set when
    omitted, which builds them here by name), and the *global* RNG is
    re-seeded deterministically from the cell key first so any builder
    that (illegitimately) touched ``random`` module state would still
    behave reproducibly per cell rather than depending on worker
    scheduling history.
    """
    from ..resilience.watchdog import CycleBudgetWatchdog, Watchdog
    from ..sim.simulator import simulate
    from .inputs import InputSet

    key = cell_key(spec)
    random.seed(int(key[:16], 16))
    inputs = inputs if inputs is not None else InputSet()

    if spec.corun is not None:
        # Composite cells (repro.multicore): one co-run / SMT run is one
        # cell; dispatch before mode resolution — their top-level mode is
        # display-only and the per-core modes live inside the sub-spec.
        from ..multicore.cells import run_corun_cell

        return run_corun_cell(spec, inputs)
    if spec.smt is not None:
        from ..multicore.smt import run_smt_cell

        return run_smt_cell(spec, inputs)

    config = spec.core_config()
    critical = inputs.annotation(
        spec, scale=spec.scale, config=config, engine=spec.engine)

    watchdog = None
    context = {"workload": spec.workload, "mode": spec.mode,
               "variant": spec.variant, "scale": spec.scale}
    if spec.cycle_budget is not None:
        watchdog = CycleBudgetWatchdog(
            spec.cycle_budget, crash_dir=spec.crash_dir, context=context
        )
    elif spec.crash_dir is not None:
        watchdog = Watchdog(crash_dir=spec.crash_dir, context=context)

    workload = inputs.workload((spec.workload, spec.variant, spec.scale))
    if spec.interval is not None:
        # Interval cell (repro.sampling): detailed-simulate only this
        # trace range behind functionally warmed state.
        from ..sampling.sampler import simulate_interval

        result = simulate_interval(
            workload,
            spec.mode,
            interval=tuple(spec.interval),
            config=config,
            critical_pcs=critical,
            warmup=spec.warmup,
            invariants=spec.invariants,
            watchdog=watchdog,
            engine=spec.engine,
        )
    else:
        result = simulate(
            workload,
            spec.mode,
            config=config,
            critical_pcs=critical,
            invariants=spec.invariants,
            watchdog=watchdog,
            engine=spec.engine,
        )
    return {
        "workload": spec.workload,
        "mode": spec.mode,
        "ipc": result.ipc,
        "critical_pcs": sorted(critical),
        "stats": result.stats.to_dict(),
    }


#: The input set of the cell this process is running, set only for the
#: duration of :func:`_run_cell_with`; ``None`` runs a cell with no
#: sharing. A module variable because ``_pool_run_cell`` must keep its
#: one-argument form (the job server and the chaos tests call it, and
#: substitute one-argument fakes for it).
_cell_inputs: InputSet | None = None


def _pool_run_cell(spec: CellSpec) -> dict:
    """Worker entry point: run one cell, return a tagged outcome dict."""
    try:
        return {"ok": True, "payload": run_cell_spec(spec, _cell_inputs)}
    except (CellTimeout, OSError) as exc:
        return {"ok": False, "transient": True,
                "error": str(exc), "error_type": type(exc).__name__}
    except SimulationError as exc:
        return {"ok": False, "transient": False,
                "error": str(exc), "error_type": type(exc).__name__,
                "crash_bundle": exc.bundle_path}
    # ValueError (configuration error) intentionally propagates: every cell
    # would fail identically, so the whole run should stop. It pickles fine.


def _run_cell_with(spec: CellSpec, inputs: InputSet) -> dict:
    """Run ``_pool_run_cell(spec)`` with ``inputs`` as the cell's input set."""
    global _cell_inputs
    _cell_inputs = inputs
    try:
        return _pool_run_cell(spec)
    finally:
        _cell_inputs = None


def _pool_prerequisite(task, *args) -> dict:
    """Worker entry point of an input or FDO task; never raises.

    A failed prerequisite only means its consumers build the input
    themselves, which reproduces and reports whatever error it hit, in
    the cell that owns it.
    """
    try:
        return {"ok": True, "value": task(*args)}
    except Exception as exc:  # noqa: BLE001 - reported by the consumers
        return {"ok": False, "error_type": type(exc).__name__,
                "error": str(exc)}


# -- driver side ---------------------------------------------------------------


def _result_from_payload(spec, key, payload, *, attempts, from_cache) -> CellResult:
    return CellResult(
        spec=spec,
        key=key,
        status=STATUS_DONE,
        attempts=attempts,
        from_cache=from_cache,
        ipc=payload["ipc"],
        stats=SimStats.from_dict(payload["stats"]),
        critical_pcs=tuple(payload.get("critical_pcs", ())),
        extra=payload.get("extra", {}),
    )


def _result_from_failure(spec, key, outcome, *, attempts) -> CellResult:
    return CellResult(
        spec=spec,
        key=key,
        status=STATUS_FAILED,
        attempts=attempts,
        error=outcome.get("error"),
        error_type=outcome.get("error_type"),
        crash_bundle=outcome.get("crash_bundle"),
    )


@dataclass
class _Pending:
    index: int
    spec: CellSpec
    key: str
    #: The inputs the cell consumes (:func:`~repro.parallel.inputs.cell_needs`).
    needs: CellNeeds
    attempts: int = 0
    #: Wall-clock time of the first submission (policy deadline accounting).
    started: float = 0.0

    def elapsed(self) -> float:
        return time.monotonic() - self.started if self.started else 0.0


def run_cells(
    specs: list[CellSpec],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    retries: int = 1,
    policy: RetryPolicy | None = None,
    stats: PoolStats | None = None,
    on_result=None,
) -> list[CellResult]:
    """Run every cell; returns results in input order.

    ``jobs <= 1`` runs in-process (no pool, no pickling); higher values use
    a process pool with at most ``jobs`` workers. ``on_result`` is called
    with each :class:`CellResult` *as it resolves* (completion order —
    useful for incremental checkpointing); the returned list is always in
    input order.

    Retry behaviour is governed by ``policy``
    (:class:`~repro.resilience.policy.RetryPolicy`: budget, backoff,
    deterministic jitter, deadline); when omitted, a zero-backoff policy
    with ``retries`` extra attempts reproduces the historical behaviour.
    """
    from .inputs import InputSet, cell_needs

    if policy is None:
        policy = RetryPolicy.immediate(retries)
    stats = stats if stats is not None else PoolStats()
    stats.cells_total += len(specs)
    results: list[CellResult | None] = [None] * len(specs)
    pending: list[_Pending] = []

    def resolve(index: int, result: CellResult) -> None:
        results[index] = result
        if result.status == STATUS_FAILED:
            stats.hard_failures += 1
        if result.ok and cache is not None and not result.from_cache:
            payload = {
                "workload": result.spec.workload,
                "mode": result.spec.mode,
                "ipc": result.ipc,
                "critical_pcs": list(result.critical_pcs),
                "stats": result.require_stats().to_dict(),
            }
            if result.extra:
                payload["extra"] = result.extra
            cache.put(result.key, payload)
        if on_result is not None:
            on_result(result)

    for index, spec in enumerate(specs):
        key = cell_key(spec)
        if cache is not None:
            payload = cache.get(key)
            if payload is not None:
                stats.cells_cached += 1
                resolve(index, _result_from_payload(
                    spec, key, payload, attempts=0, from_cache=True))
                continue
        pending.append(_Pending(index, spec, key, cell_needs(spec)))

    if pending and jobs <= 1:
        inputs = InputSet([item.needs for item in pending], stats=stats)
        for item in pending:
            _run_serial(item, policy, stats, resolve, inputs)
            inputs.release(item.needs)
    elif pending:
        # Spool files live beside the cache when there is one (the same
        # filesystem as the run's other artefacts), never inside it.
        parent = None
        if cache is not None:
            parent = os.path.dirname(os.path.abspath(cache.root))
            if not os.path.isdir(parent):
                parent = None
        spool_dir = tempfile.mkdtemp(prefix="repro-inputs-", dir=parent)
        try:
            _run_pooled(pending, jobs, policy, stats, resolve, spool_dir)
        finally:
            shutil.rmtree(spool_dir, ignore_errors=True)

    return results  # type: ignore[return-value]


def _record_attempt_failure(outcome: dict, stats: PoolStats) -> None:
    if outcome.get("error_type") == "CellTimeout":
        stats.timeouts += 1


def _retryable(item: _Pending, outcome: dict, policy: RetryPolicy) -> bool:
    return bool(outcome.get("transient")) and policy.should_retry(
        item.attempts, elapsed=item.elapsed()
    )


def _run_serial(item: _Pending, policy: RetryPolicy, stats, resolve,
                inputs: InputSet) -> None:
    item.started = time.monotonic()
    outcome: dict = {}
    while True:
        item.attempts += 1
        stats.cells_executed += 1
        outcome = _run_cell_with(item.spec, inputs)
        if outcome["ok"]:
            resolve(item.index, _result_from_payload(
                item.spec, item.key, outcome["payload"],
                attempts=item.attempts, from_cache=False))
            return
        _record_attempt_failure(outcome, stats)
        if not _retryable(item, outcome, policy):
            break
        stats.retries += 1
        delay = policy.delay(item.attempts, item.key)
        if delay:
            time.sleep(delay)
    resolve(item.index, _result_from_failure(
        item.spec, item.key, outcome, attempts=item.attempts))


#: Synthesized outcome dict for a cell lost to a dying worker process.
def _crash_outcome() -> dict:
    return {"ok": False, "transient": True, "error_type": "WorkerCrash",
            "error": "worker process died mid-cell (pool broken)"}


def _run_pooled(pending, jobs, policy: RetryPolicy, stats, resolve,
                spool_dir: str) -> None:
    """Pool driver: prerequisite tasks, crash supervision, backoff.

    Input tasks (one per distinct trace, spooled to ``spool_dir``) start
    first; an FDO task starts once its group's train input is done, and a
    cell once every input it consumes is done. There is no barrier: a cell
    whose inputs are ready runs while other inputs are still being built.
    A failed or lost prerequisite is recorded as unavailable and its
    consumers build it themselves, so outcomes never depend on sharing.

    Cells move between ``waiting`` (inputs not ready), ``futures`` (in
    flight), ``deferred`` (waiting out a backoff delay as
    ``(ready_time, item)``), and the implicit done set. A
    ``BrokenProcessPool`` from any future means a worker died: every
    in-flight cell and task is lost at once, so the pool is respawned, each
    lost cell is retried as a transient failure — or recorded as failed
    when its budget is spent — and each lost task becomes unavailable.
    Configuration errors (``ValueError``) from a cell still propagate and
    abort the run.
    """
    # The task functions are looked up through the module at submit time,
    # so a test can substitute a failing one.
    from . import inputs as _inputs
    from .inputs import FdoGroup, InputSet, count_uses

    pool = ProcessPoolExecutor(max_workers=jobs)
    futures: dict = {}
    tasks: dict = {}
    deferred: list[tuple[float, _Pending]] = []
    waiting = list(pending)
    uses = count_uses(item.needs for item in pending)
    # Finished prerequisites: spool path / FdoOutcome, or None if unavailable.
    spooled: dict = {}
    profiled: dict = {}
    # FDO groups not yet started, with their configs in first-use order.
    groups: dict = {}
    for item in pending:
        for group, config in item.needs.fdo:
            groups.setdefault(group, {})[config] = None

    def launch(fn, *args) -> Future:
        try:
            return pool.submit(fn, *args)
        except BrokenProcessPool as exc:
            # A worker died since the last wait: this submission is lost
            # with the pool, exactly like work already in flight.
            lost = Future()
            lost.set_exception(exc)
            return lost

    def submit(item: _Pending) -> None:
        if not item.started:
            item.started = time.monotonic()
        item.attempts += 1
        stats.cells_executed += 1
        view = InputSet(
            spool={k: spooled[k] for k in item.needs.traces if spooled[k]},
            fdo={g: profiled[g] for g in item.needs.groups if profiled[g]},
        )
        futures[launch(_run_cell_with, item.spec, view)] = item

    def finish_task(key, value) -> None:
        """Record a prerequisite's result; ``None`` marks it unavailable."""
        if isinstance(key, FdoGroup):
            profiled[key] = value
            stats.fdo_profiles += value is not None
        else:
            spooled[key] = value
            if value is not None:
                stats.inputs_built += 1
                stats.inputs_reused += uses[key] - 1

    def dispatch() -> None:
        """Start every FDO task and cell whose inputs are now done."""
        for group in [g for g in groups if g.train in spooled]:
            configs = list(groups.pop(group))
            tasks[launch(_pool_prerequisite, _inputs.profile_group, group,
                         configs, spooled[group.train])] = (group, None)
        still = []
        for item in waiting:
            if (all(k in spooled for k in item.needs.traces)
                    and all(g in profiled for g in item.needs.groups)):
                submit(item)
            else:
                still.append(item)
        waiting[:] = still

    def retry_or_fail(item: _Pending, outcome: dict) -> None:
        if _retryable(item, outcome, policy):
            stats.retries += 1
            delay = policy.delay(item.attempts, item.key)
            deferred.append((time.monotonic() + delay, item))
        else:
            resolve(item.index, _result_from_failure(
                item.spec, item.key, outcome, attempts=item.attempts))

    def pool_broken(lost_cells: list, lost_tasks: list) -> None:
        # A worker died. Every other in-flight future is dead too: drain
        # them all, respawn the pool once, send each lost cell through the
        # normal transient path and mark each lost task unavailable.
        nonlocal pool
        lost_cells += list(futures.values())
        lost_tasks += list(tasks.values())
        futures.clear()
        tasks.clear()
        stats.worker_crashes += len(lost_cells) + len(lost_tasks)
        stats.pool_rebuilds += 1
        pool.shutdown(wait=False, cancel_futures=True)
        pool = ProcessPoolExecutor(max_workers=jobs)
        for key, _ in lost_tasks:
            finish_task(key, None)
        for lost_item in lost_cells:
            retry_or_fail(lost_item, _crash_outcome())

    try:
        order = []
        for item in pending:
            order += item.needs.traces
            order += [group.train for group in item.needs.groups]
        for number, key in enumerate(dict.fromkeys(order)):
            path = os.path.join(spool_dir, f"{number}.pkl")
            tasks[launch(_pool_prerequisite, _inputs.spool_input, key,
                         path)] = (key, path)
        while True:
            dispatch()
            now = time.monotonic()
            due = [item for ready, item in deferred if ready <= now]
            if due:
                deferred = [(r, i) for r, i in deferred if i not in due]
                for item in due:
                    submit(item)
            if not futures and not tasks:
                if not deferred:
                    break
                # Only backoff timers left: sleep until the earliest.
                time.sleep(max(0.0, min(r for r, _ in deferred) - now))
                continue
            timeout = None
            if deferred:
                timeout = max(0.0, min(r for r, _ in deferred) - now)
            finished, _ = wait(
                [*futures, *tasks], timeout=timeout,
                return_when=FIRST_COMPLETED)
            for future in finished:
                if future in tasks:
                    key, path = tasks.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        pool_broken([], [(key, path)])
                        break
                    except Exception:  # noqa: BLE001 - e.g. unpicklable
                        outcome = {"ok": False}
                    # An input's result is its spool file; a group's is
                    # the returned FdoOutcome.
                    finish_task(key, (path or outcome["value"])
                                if outcome["ok"] else None)
                    continue
                item = futures.pop(future)
                try:
                    # Configuration errors (ValueError) propagate from
                    # .result() by design: every cell would fail the same.
                    outcome = future.result()
                except BrokenProcessPool:
                    pool_broken([item], [])
                    break
                if outcome["ok"]:
                    resolve(item.index, _result_from_payload(
                        item.spec, item.key, outcome["payload"],
                        attempts=item.attempts, from_cache=False))
                    continue
                _record_attempt_failure(outcome, stats)
                retry_or_fail(item, outcome)
        assert not waiting, "cells left waiting on inputs that never finished"
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
