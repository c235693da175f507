"""Host-time spans around the layers' public functions, recorded from outside.

:func:`install` replaces each function in :data:`WRAPS` with a wrapper that
records a span (name, start, end, parent, cell key) into a
:class:`Recorder`. The replacement is made in every loaded ``repro`` module
that holds the original object, so ``from x import f`` call sites are
covered too. Install before the process pool forks: workers inherit the
wrappers, start with an empty span list, and write their spans to
``<out_dir>/<pid>.json`` when they exit. Nothing under ``src/`` changes.

:func:`layer_metrics` turns the spans of one run into the per-layer
metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from multiprocessing import util as mp_util


class Recorder:
    """In-memory span store of one process (reset in forked workers)."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.enabled = True
        self._reset()
        # Runs in each multiprocessing child after fork, once the child's
        # finalizer registry has been cleared.
        mp_util.register_after_fork(self, Recorder._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next = 0
        self.cell: str | None = None

    def _after_fork(self) -> None:
        self._reset()
        mp_util.Finalize(None, self.flush, exitpriority=100)

    def open(self, name: str, cell: str | None) -> dict:
        span = {
            "id": f"{self.pid}.{self._next}",
            "parent": self.spans[self._stack[-1]]["id"] if self._stack else None,
            "name": name,
            "pid": self.pid,
            "cell": cell if cell is not None else self.cell,
            "start": time.perf_counter(),
            "end": None,
        }
        self._next += 1
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def flush(self) -> None:
        """Write this process's spans to ``<out_dir>/<pid>.json``."""
        path = os.path.join(self.out_dir, f"{self.pid}.json")
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def collect(out_dir: str, recorder: Recorder) -> list[dict]:
    """Every span of the run: the main process's plus each worker's file."""
    spans = list(recorder.spans)
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name)) as handle:
            spans.extend(json.load(handle))
    return spans


# -- what is wrapped -------------------------------------------------------------

def _workload_id(args, kwargs, result):
    workload = args[0] if args else kwargs["workload"]
    return {"input": [workload.name, workload.variant]}


def _build_id(args, kwargs, result):
    # WorkloadRegistry.build(self, name, variant="ref", scale=1.0)
    name = args[1] if len(args) > 1 else kwargs["name"]
    variant = args[2] if len(args) > 2 else kwargs.get("variant", "ref")
    scale = args[3] if len(args) > 3 else kwargs.get("scale", 1.0)
    return {"input": [name, variant, scale]}


def _trace_len(args, kwargs, result):
    return {"insts": len(result)}


def _run_stats(args, kwargs, result):
    return {"cycles": result.cycles, "retired": result.retired,
            "engine": type(args[0]).__name__}


#: (module, attribute path, span name, attrs from (args, kwargs, result)).
WRAPS = (
    ("repro.orchestrate.runs", "execute_run", "orchestrate.execute_run", None),
    ("repro.orchestrate.experiment", "Experiment.plan", "orchestrate.plan", None),
    ("repro.orchestrate.rundir", "store_cell", "orchestrate.store_cell", None),
    ("repro.parallel.executor", "run_cells", "parallel.run_cells", None),
    ("repro.parallel.executor", "run_cell_spec", "parallel.cell", None),
    ("repro.parallel.cellkey", "cell_key", "parallel.cell_key", None),
    ("repro.parallel.cache", "ResultCache.get", "parallel.cache_get", None),
    ("repro.parallel.cache", "ResultCache.put", "parallel.cache_put", None),
    ("repro.core.fdo", "run_crisp_flow", "core.run_crisp_flow", None),
    ("repro.core.profiler", "profile_workload", "core.profile_workload",
     _workload_id),
    ("repro.core.tracer", "IndexedTrace.__init__", "core.IndexedTrace", None),
    ("repro.core.delinquency", "compute_stride_scores",
     "core.compute_stride_scores", None),
    ("repro.core.delinquency", "classify", "core.classify", None),
    ("repro.core.slicer", "extract_slice", "core.extract_slice", None),
    ("repro.core.critical_path", "filter_slice", "core.filter_slice", None),
    ("repro.core.rewriter", "Rewriter.annotate", "core.annotate", None),
    ("repro.sim.simulator", "simulate", "sim.simulate", None),
    ("repro.uarch.pipeline", "Pipeline.run", "uarch.run", _run_stats),
    ("repro.uarch.array_engine", "ArrayPipeline.run", "uarch.run", _run_stats),
    ("repro.workloads.base", "WorkloadRegistry.build", "workloads.build",
     _build_id),
    ("repro.workgen.generator", "build_generated", "workgen.build", None),
    ("repro.isa.emulator", "execute", "isa.emulate", _trace_len),
    ("repro.multicore.engine", "run_corun", "multicore.run_corun", None),
)

#: Spans whose function takes the cell key as its second positional
#: argument (``store_cell(run_dir, key, ...)``, ``ResultCache.get(self, key)``),
#: so main-process spans carry the key of the cell they serve.
_KEYED = frozenset({"orchestrate.store_cell", "parallel.cache_get",
                    "parallel.cache_put"})


def _wrap(recorder: Recorder, name: str, fn, attrs, original_cell_key):
    key_pos = 1 if name in _KEYED else None

    if name == "parallel.cell":
        @functools.wraps(fn)
        def cell_wrapper(spec, *args, **kwargs):
            if not recorder.enabled:
                return fn(spec, *args, **kwargs)
            recorder.cell = original_cell_key(spec)
            span = recorder.open(name, None)
            try:
                return fn(spec, *args, **kwargs)
            finally:
                recorder.close(span)
                recorder.cell = None
        return cell_wrapper

    if name == "parallel.run_cells":
        from repro.parallel.executor import PoolStats

        @functools.wraps(fn)
        def pool_wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stats = kwargs.setdefault("stats", PoolStats())
            span = recorder.open(name, None)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(span)
                span.update(executed=stats.cells_executed, retries=stats.retries)
        return pool_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        cell = args[key_pos] if key_pos is not None and len(args) > key_pos else None
        span = recorder.open(name, cell)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if attrs is not None:
            span.update(attrs(args, kwargs, result))
        return result
    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every function in :data:`WRAPS` wherever ``repro`` holds it."""
    from repro.parallel import cellkey

    original_cell_key = cellkey.cell_key
    for module_name, path, name, attrs in WRAPS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        wrapped = _wrap(recorder, name, original, attrs, original_cell_key)
        setattr(owner, attr, wrapped)
        if owner_name:
            continue
        # Module-level functions: also rebind every ``from x import f``.
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


# -- per-layer metrics -------------------------------------------------------------

def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percent, value) of the highest percentile with >= 10 samples beyond
    it, from the ladder 50/75/90/95/99; the median when none qualifies."""
    ordered = sorted(samples)
    n = len(ordered)
    best = (50.0, statistics.median(ordered)) if ordered else (50.0, 0.0)
    for pct in (75, 90, 95, 99):
        if n * (100 - pct) / 100 >= 10:
            best = (float(pct), ordered[min(n - 1, int(n * pct / 100))])
    return best


def layer_metrics(spans: list[dict], *, jobs: int, results: list) -> dict:
    """Per-layer metrics of one traced cold run.

    ``*_s`` metrics are inclusive seconds summed over every process, except
    ``multicore.corun_s``, which is the self time of ``run_corun`` (its
    inclusive time minus the named spans inside it).
    """
    by_id = {span["id"]: span for span in spans}
    children: dict[str, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def named(name: str) -> list[dict]:
        return by_name.get(name, [])

    def total(*names: str) -> float:
        return sum(_duration(s) for name in names for s in named(name))

    def self_time(span: dict) -> float:
        kids = children.get(span["id"], [])
        return _duration(span) - _covered([(k["start"], k["end"]) for k in kids])

    runs = named("uarch.run")
    sim_cycles = sum(s["cycles"] for s in runs)
    run_s = total("uarch.run")

    corun_s = sum(self_time(s) for s in named("multicore.run_corun"))
    core_cycles = xcore = bus_stall = 0
    for result in results:
        corun = result.extra.get("corun") if result.ok else None
        if corun is None:
            continue
        core_cycles += sum(part["cycles"] for part in corun["per_core"])
        xcore += corun["multicore"]["llc_xcore_evictions"]
        bus_stall += corun["multicore"]["dram_bus_stall_cycles"]

    cells = named("parallel.cell")
    cell_times = [_duration(s) for s in cells]
    busy = sum(cell_times)
    tail_pct, tail_value = tail_percentile(cell_times)
    pool = named("parallel.run_cells")
    pool_wall = sum(_duration(s) for s in pool)
    covered = sum(
        _covered([(k["start"], k["end"]) for k in children.get(s["id"], [])])
        for s in cells
    )

    report_s = 0.0
    for run in named("orchestrate.execute_run"):
        inner = [s for s in pool if by_id.get(s["parent"]) is run]
        last = max((s["end"] for s in inner), default=run["end"])
        report_s += run["end"] - last

    return {
        "core.fdo_s": total("core.run_crisp_flow"),
        "core.fdo_calls": len(named("core.run_crisp_flow")),
        "core.profile_s": total("core.profile_workload"),
        "core.profile_calls": len(named("core.profile_workload")),
        "core.profile_unique": len({tuple(s["input"])
                                    for s in named("core.profile_workload")}),
        "core.index_s": total("core.IndexedTrace"),
        "core.classify_s": total("core.compute_stride_scores", "core.classify"),
        "core.slice_s": total("core.extract_slice"),
        "core.slice_calls": len(named("core.extract_slice")),
        "core.filter_s": total("core.filter_slice"),
        "core.annotate_s": total("core.annotate"),
        "sim.simulate_s": total("sim.simulate"),
        "sim.simulate_calls": len(named("sim.simulate")),
        "uarch.run_s": run_s,
        "uarch.sim_cycles": sim_cycles,
        "uarch.retired": sum(s["retired"] for s in runs),
        "uarch.ns_per_cycle": run_s * 1e9 / sim_cycles if sim_cycles else 0.0,
        "workloads.build_s": total("workloads.build"),
        "workloads.build_calls": len(named("workloads.build")),
        "workloads.build_unique": len({tuple(s["input"])
                                       for s in named("workloads.build")}),
        "workgen.build_s": total("workgen.build"),
        "isa.emulate_s": total("isa.emulate"),
        "isa.emulate_calls": len(named("isa.emulate")),
        "isa.dyn_insts": sum(s["insts"] for s in named("isa.emulate")),
        "multicore.corun_s": corun_s,
        "multicore.core_cycles": core_cycles,
        "multicore.ns_per_core_cycle": (
            corun_s * 1e9 / core_cycles if core_cycles else 0.0),
        "memory.shared.xcore_evictions": xcore,
        "memory.shared.bus_stall_cycles": bus_stall,
        "parallel.cell_s.p50": statistics.median(cell_times) if cells else 0.0,
        "parallel.cell_s.ptail": tail_value,
        "parallel.cell_s.ptail_pct": tail_pct,
        "parallel.cell_s.count": len(cells),
        "parallel.worker_busy_s": busy,
        "parallel.pool_idle_frac": (
            1.0 - busy / (jobs * pool_wall) if pool_wall else 0.0),
        "parallel.cellkey_s": total("parallel.cell_key"),
        "parallel.cache_get_s": total("parallel.cache_get"),
        "parallel.cache_put_s": total("parallel.cache_put"),
        "parallel.cells_executed": sum(s["executed"] for s in pool),
        "parallel.retries": sum(s["retries"] for s in pool),
        "orchestrate.plan_s": total("orchestrate.plan"),
        "orchestrate.store_s": total("orchestrate.store_cell"),
        "orchestrate.store_calls": len(named("orchestrate.store_cell")),
        "orchestrate.report_s": report_s,
        "trace.coverage_frac": covered / busy if busy else 0.0,
    }


def self_time_table(spans: list[dict]) -> list[tuple[str, int, float, float]]:
    """(span name, calls, inclusive s, self s) per span name, by self time."""
    children: dict[str, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    rows: dict[str, list] = {}
    for span in spans:
        kids = children.get(span["id"], [])
        own = _duration(span) - _covered([(k["start"], k["end"]) for k in kids])
        row = rows.setdefault(span["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += _duration(span)
        row[2] += own
    return sorted(((name, *row) for name, row in rows.items()),
                  key=lambda r: -r[3])
