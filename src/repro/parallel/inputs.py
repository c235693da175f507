"""Run-level input sharing: build, emulate and profile each input once.

A cell *consumes* two kinds of input:

* **traces**, keyed ``(workload, variant, scale)``: the input it simulates,
  one per core of a co-run and per thread of an SMT cell (an interval cell
  reads its parent's trace);
* **FDO groups**, for a crisp cell with no explicit PCs:
  ``(workload, scale, core config, engine)``. A group is one profile of the
  train input, from which every :class:`~repro.core.fdo.CrispConfig` of
  its consumers derives its annotation (:class:`~repro.core.fdo.TrainProfile`).

:class:`InputSet` is where a cell gets both. ``run_cells`` owns one per
call: serially it builds each input lazily in memory and drops it after
its last consumer; pooled, the executor builds each trace once in an input
task that pickles it to a private spool file (:func:`spool_input`),
profiles each group once in an FDO task (:func:`profile_group`), and hands
every cell an :class:`InputSet` view of the finished prerequisites. A
trace or group missing from a view is built by the cell itself, exactly
as a cell with no sharing would, so sharing never changes an outcome.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
from collections import Counter
from dataclasses import dataclass, field

from ..core.fdo import CrispConfig, TrainProfile, check_program_shapes
from ..isa.program import Program
from ..uarch.config import CoreConfig

#: ``(workload, variant, scale)``: one emulated input.
TraceKey = tuple


@dataclass(frozen=True)
class FdoGroup:
    """One train-input profile shared by every crisp consumer of it."""

    workload: str
    scale: float
    #: Canonical JSON of the core config (CoreConfig itself is unhashable).
    config_json: str
    engine: str | None
    config: CoreConfig = field(compare=False, repr=False)

    @property
    def train(self) -> TraceKey:
        return (self.workload, "train", self.scale)


def fdo_group(workload: str, scale: float, config: CoreConfig,
              engine: str | None) -> FdoGroup:
    canon = json.dumps(dataclasses.asdict(config), sort_keys=True)
    return FdoGroup(workload, scale, canon, engine, config)


@dataclass(frozen=True)
class CellNeeds:
    """The distinct inputs one cell consumes."""

    traces: tuple[TraceKey, ...]
    #: ``(group, crisp config)`` per FDO-derived annotation.
    fdo: tuple[tuple[FdoGroup, CrispConfig], ...] = ()

    @property
    def groups(self) -> tuple[FdoGroup, ...]:
        return tuple(dict.fromkeys(group for group, _ in self.fdo))


def fdo_need(task, scale: float, config: CoreConfig, engine: str | None):
    """``(group, crisp config)`` if ``task`` derives its annotation by FDO.

    ``task`` is a :class:`~repro.parallel.cellkey.CellSpec` or a co-run
    :class:`~repro.multicore.spec.CoreTask`: a crisp run with no explicit
    PCs. Anything else needs no FDO group (``None``).
    """
    if task.mode != "crisp" or task.critical_pcs is not None:
        return None
    return (fdo_group(task.workload, scale, config, engine),
            task.crisp_config or CrispConfig())


def cell_needs(spec) -> CellNeeds:
    """What :func:`~repro.parallel.executor.run_cell_spec` reads for ``spec``."""
    if spec.smt is not None:
        return CellNeeds(tuple(dict.fromkeys(
            (workload, variant, spec.scale)
            for workload, variant in zip(spec.smt.workloads, spec.smt.variants))))
    tasks = spec.corun.cores if spec.corun is not None else (spec,)
    config = spec.core_config()
    traces = [(task.workload, task.variant, spec.scale) for task in tasks]
    fdo = [need for task in tasks
           if (need := fdo_need(task, spec.scale, config, spec.engine))]
    return CellNeeds(tuple(dict.fromkeys(traces)), tuple(dict.fromkeys(fdo)))


def count_uses(needs) -> Counter:
    """Consumers per trace and per group: cells, plus each group's train."""
    uses: Counter = Counter()
    for cell in needs:
        uses.update(cell.traces)
        for group in cell.groups:
            if not uses[group]:
                uses[group.train] += 1
            uses[group] += 1
    return uses


def build_input(key: TraceKey):
    """Build and emulate one input, returning its traced Workload.

    The initial memory image is dropped: every effect of it is already in
    the trace, and nothing downstream of emulation reads it.
    """
    from ..workloads import get_workload

    name, variant, scale = key
    workload = get_workload(name, variant=variant, scale=scale)
    workload.trace()
    return dataclasses.replace(workload, memory={})


def spool_input(key: TraceKey, path: str) -> None:
    """Input task: build ``key`` and pickle its traced Workload to ``path``."""
    workload = build_input(key)
    with open(path, "wb") as handle:
        pickle.dump(workload, handle, protocol=pickle.HIGHEST_PROTOCOL)


@dataclass
class FdoOutcome:
    """A group's annotations: the train binary and PCs per crisp config."""

    program: Program
    pcs: dict[CrispConfig, tuple[int, ...]]


def profile_group(group: FdoGroup, configs, train_path: str | None) -> FdoOutcome:
    """FDO task: profile the train input once, annotate every config."""
    spool = {group.train: train_path} if train_path else {}
    profiled = InputSet(spool=spool).train_profile(group)
    return FdoOutcome(
        profiled.train.program,
        {config: tuple(sorted(profiled.flow(config).critical_pcs))
         for config in configs},
    )


class InputSet:
    """The traces and CRISP annotations the cells of one run share.

    ``needs`` (one :class:`CellNeeds` per consumer cell) lets the set drop
    each input after :meth:`release` has been called for its last
    consumer; without it everything stays until the set is dropped.
    ``spool`` maps traces to spool files and ``fdo`` groups to finished
    :class:`FdoOutcome`\\ s (a pooled cell's view); anything else is built
    here on first use. ``stats`` (a :class:`~repro.parallel.executor.PoolStats`)
    counts what the set builds.
    """

    def __init__(self, needs=(), *, stats=None, spool: dict | None = None,
                 fdo: dict | None = None):
        self._uses = count_uses(needs)
        self._stats = stats
        self._spool = spool or {}
        self._fdo = fdo or {}
        self._workloads: dict = {}
        self._profiles: dict = {}
        self._checked: set = set()

    def workload(self, key: TraceKey):
        """The traced Workload for ``key``, built at most once."""
        if key not in self._workloads:
            path = self._spool.get(key)
            if path is not None:
                with open(path, "rb") as handle:
                    self._workloads[key] = pickle.load(handle)
            else:
                self._workloads[key] = build_input(key)
                if self._stats is not None:
                    self._stats.inputs_built += 1
                    self._stats.inputs_reused += max(0, self._uses[key] - 1)
        return self._workloads[key]

    def train_profile(self, group: FdoGroup) -> TrainProfile:
        """The group's profiled train input, profiled at most once."""
        if group not in self._profiles:
            self._profiles[group] = TrainProfile(
                group.workload,
                core_config=group.config,
                scale=group.scale,
                train_workload=self.workload(group.train),
                engine=group.engine,
            )
            self._release(group.train)
            if self._stats is not None:
                self._stats.fdo_profiles += 1
        return self._profiles[group]

    def annotation(self, task, *, scale: float, config: CoreConfig,
                   engine: str | None) -> frozenset[int]:
        """The critical PCs ``task`` (a CellSpec or CoreTask) runs with.

        Explicit PCs as given, none outside crisp mode, else the
        annotation its FDO group derives for its CrispConfig. A derived
        annotation is transferred to the ``ref`` binary by static PC, so
        each (train, ref) pair is checked once to align.
        """
        need = fdo_need(task, scale, config, engine)
        if need is None:
            if task.mode != "crisp":
                return frozenset()
            return frozenset(task.critical_pcs)
        group, crisp = need
        done = self._fdo.get(group)
        if done is not None and crisp in done.pcs:
            program, pcs = done.program, frozenset(done.pcs[crisp])
        else:
            flow = self.train_profile(group).flow(crisp)
            program, pcs = flow.program, flow.critical_pcs
        ref = (task.workload, task.variant, scale)
        if (group, ref) not in self._checked:
            check_program_shapes(group.workload, program,
                                 self.workload(ref).program)
            self._checked.add((group, ref))
        return pcs

    def release(self, needs: CellNeeds) -> None:
        """One consumer of ``needs`` is done with them for good."""
        for key in needs.traces:
            self._release(key)
        for group in needs.groups:
            self._release(group)

    def _release(self, key) -> None:
        if key not in self._uses:
            return
        self._uses[key] -= 1
        if self._uses[key] <= 0:
            self._workloads.pop(key, None)
            self._profiles.pop(key, None)
