"""Experiments: named selections over the Target × Instance cross product.

An :class:`Experiment` declares *what* to run — its targets (workloads ×
seed replicas), its instances (mode/config columns), and how the resolved
cells become a report table. *How* cells run (pool, cache, sampling,
engine) stays in the execution layers: :func:`run_specs` is the one
function that turns cells plus explicit execution options into results,
shared by ``Experiment.run_inline`` and
:func:`~repro.orchestrate.runs.execute_run`.

Every figure, table and ablation is one registered class, and there is
one contract. An experiment either lowers to
:class:`~repro.parallel.cellkey.CellSpec` cells, which pool, cache,
sample and resume like any other cell, and builds its table from their
results; or it has no instances, plans no cells, and computes its whole
table in :meth:`Experiment.table` (table1, fig1, sec31, fig4, fig11 and
ablation_sampling, whose quantities are not cell results). Both run,
report and resume through the same :func:`run_specs` /
``execute_run`` path. Adding a scenario is one registered class.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace

from ..parallel import executor
from ..parallel.cellkey import CellSpec, cell_key
from ..parallel.executor import CellResult
from .instance import Instance
from .target import Target, seed_variants


@dataclass(frozen=True)
class PlannedCell:
    """One lowered cell of an experiment's matrix."""

    target: Target
    instance: Instance
    spec: CellSpec

    @property
    def key(self) -> str:
        return cell_key(self.spec)


class Experiment:
    """Base class: a named selection over the cross product + a report.

    Subclasses set ``name`` (the registry id) and ``title``, and
    implement :meth:`instances`; :meth:`table` defaults to the generic
    per-workload median-IPC matrix and is overridden by figure
    experiments to regenerate their exact tables. An experiment with no
    instances plans no cells and computes everything in :meth:`table`.
    """

    #: Registry id (``fig7``, ``ablation_ratio``, ...). Must be unique.
    name: str = ""
    #: Human title used as the report heading.
    title: str = ""
    #: Default workload selection; ``None`` = the full Figure 7 suite.
    default_workloads: tuple[str, ...] | None = None
    #: ``True`` for experiments that run their own fixed inputs: they
    #: reject a workload selection before anything is planned.
    fixed_workloads: bool = False

    def __init__(
        self,
        scale: float = 1.0,
        workloads: list[str] | None = None,
        seeds: int = 1,
    ):
        if workloads and self.fixed_workloads:
            raise ValueError(
                f"experiment {self.name!r} runs a fixed workload set and "
                "takes no workload selection"
            )
        self.scale = scale
        self._workloads_arg = list(workloads) if workloads else None
        self.workloads = self._workloads_arg or self.defaults()
        self.seeds = seeds

    # -- selection -------------------------------------------------------------

    def defaults(self) -> list[str]:
        if self.default_workloads is not None:
            return list(self.default_workloads)
        from ..workloads import suite_names

        return suite_names()

    def variants(self) -> list[str]:
        """The seed axis: ``ref`` plus ``seeds - 1`` replicas."""
        return seed_variants(self.seeds)

    def targets(self) -> list[Target]:
        return [
            Target(workload, variant)
            for workload in self.workloads
            for variant in self.variants()
        ]

    def instances(self, target: Target) -> list[Instance]:
        """The instance columns for one target (none by default).

        Most experiments return the same list for every target; per-target
        instances exist for experiments whose annotation is derived from
        the target itself (``ablation_ratio``).
        """
        return []

    def plan(self) -> list[PlannedCell]:
        """The full lowered matrix, in deterministic target-major order."""
        return [
            PlannedCell(target, instance, instance.spec(target, self.scale))
            for target in self.targets()
            for instance in self.instances(target)
        ]

    # -- args round-trip (manifest) --------------------------------------------

    def args(self) -> dict:
        """Constructor arguments, JSON-shaped (manifest ``args`` entry)."""
        return {
            "scale": self.scale,
            "workloads": self._workloads_arg,
            "seeds": self.seeds,
        }

    # -- reporting -------------------------------------------------------------

    @staticmethod
    def results_map(
        plan: list[PlannedCell], results: list[CellResult]
    ) -> dict[tuple[str, str, str], CellResult]:
        """Index results by (workload, variant, instance name)."""
        return {
            (cell.target.workload, cell.target.variant, cell.instance.name): result
            for cell, result in zip(plan, results)
        }

    def ipc(self, cells: dict, workload: str, instance: str) -> float:
        """Median IPC of one (workload, instance) over the seed axis.

        With a single seed this is *the* IPC, bit-identical to a direct
        run — ``statistics.median`` of one element returns it unchanged —
        so single-seed tables keep the exact numbers of one run.
        """
        ipcs = [
            cells[(workload, variant, instance)].require_stats().ipc
            for variant in self.variants()
        ]
        return statistics.median(ipcs)

    def instance_names(self) -> list[str]:
        """Column order for generic tables (first target's instances)."""
        targets = self.targets()
        if not targets:
            return []
        return [instance.name for instance in self.instances(targets[0])]

    def table(self, plan: list[PlannedCell], results: list[CellResult]):
        """Generic matrix table: one row per workload, median IPC per instance."""
        from ..experiments.common import ExperimentResult

        cells = self.results_map(plan, results)
        names = self.instance_names()
        result = ExperimentResult(
            experiment=self.name,
            title=self.title or self.name,
            headers=["workload"] + [f"{n} IPC" for n in names],
        )
        for workload in self.workloads:
            result.add_row(
                workload,
                *[self.ipc(cells, workload, name) for name in names],
            )
        if self.seeds > 1:
            result.notes.append(
                f"median over {self.seeds} seed replicas per cell "
                "(aggregate table has the stdev)"
            )
        return result

    # -- execution -------------------------------------------------------------

    def run_inline(self, *, jobs: int = 1, cache=None,
                   sample: str | None = "off", engine: str | None = None):
        """Plan, run with the given execution options, and build the table.

        This is the body of :func:`repro.experiments.run_experiment`
        (in-process and uncached by default) and of
        ``python -m repro.experiments <id>``, which passes its
        ``--jobs/--cache-dir/--sample/--engine`` flags here.
        """
        plan = self.plan()
        results = run_specs([cell.spec for cell in plan], jobs=jobs,
                            cache=cache, sample=sample, engine=engine)
        for result in results:
            result.require_stats()
        return self.table(plan, results)


def stamp_specs(specs: list[CellSpec], **knobs) -> list[CellSpec]:
    """``specs`` with each non-``None`` execution-only knob (``engine``,
    ``cycle_budget``, ``invariants``, ``crash_dir``) set on every spec
    that does not pin its own."""
    knobs = {name: value for name, value in knobs.items() if value is not None}
    if not knobs:
        return list(specs)
    return [
        replace(spec, **{name: value for name, value in knobs.items()
                         if getattr(spec, name) is None})
        for spec in specs
    ]


def run_specs(
    specs: list[CellSpec],
    *,
    jobs: int = 1,
    cache=None,
    sample: str | None = "off",
    engine: str | None = None,
    policy=None,
    cycle_budget: int | None = None,
    invariants: str | None = None,
    crash_dir: str | None = None,
    on_result=None,
) -> list[CellResult]:
    """Run cells under explicit execution options; results in input order.

    ``engine`` and the execution-only knobs (``cycle_budget``,
    ``invariants``, ``crash_dir``) are not part of the cell key; they are
    stamped by :func:`stamp_specs` and change how cells run, never what a
    successful cell produces (docs/ENGINE.md). A ``sample`` spec other
    than ``"off"`` (or ``None``) makes each result the sampled
    estimator's extrapolated whole-run view (same shape, so tables are
    oblivious to sampling).
    ``policy`` is the shared :class:`~repro.resilience.policy.RetryPolicy`
    (``None``: one immediate retry). ``on_result`` is called per resolved
    cell in completion order.
    """
    specs = stamp_specs(specs, engine=engine, cycle_budget=cycle_budget,
                        invariants=invariants, crash_dir=crash_dir)
    if sample not in (None, "off"):
        from ..sampling import parse_sample, run_cells_sampled

        return run_cells_sampled(specs, parse_sample(sample), jobs=jobs,
                                 cache=cache, policy=policy,
                                 on_result=on_result)
    return executor.run_cells(specs, jobs=jobs, cache=cache, policy=policy,
                              on_result=on_result)


# -- registry ------------------------------------------------------------------

_REGISTRY: dict[str, type[Experiment]] = {}


def register(cls: type[Experiment]) -> type[Experiment]:
    """Class decorator: add an Experiment to the registry under its name."""
    if not cls.name:
        raise ValueError(f"experiment class {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate experiment {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def _ensure_loaded() -> None:
    """Import the modules whose classes register themselves."""
    from .. import experiments  # noqa: F401  (registers the figures)
    from ..workgen import grid  # noqa: F401  (registers property_grid)


def registry() -> dict[str, type[Experiment]]:
    """The full (id -> Experiment class) registry."""
    _ensure_loaded()
    return dict(_REGISTRY)


def experiment_names() -> list[str]:
    return sorted(registry())


def get_experiment(name: str) -> type[Experiment]:
    reg = registry()
    try:
        return reg[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; known: {sorted(reg)}"
        ) from None


# -- the whole-suite matrix ----------------------------------------------------


@register
class SuiteMatrix(Experiment):
    """The (workload × mode) matrix behind ``python -m repro.experiments
    sweep`` and the job server's ``sweep`` op.

    The generic report applies: per-workload median IPC per mode, with
    stdev over seed replicas in the aggregate table — the thousand-cell
    shape the orchestration layer exists for.
    """

    name = "suite"
    title = "Suite matrix: IPC per workload x mode"

    def __init__(
        self,
        scale: float = 1.0,
        workloads: list[str] | None = None,
        seeds: int = 1,
        modes: tuple[str, ...] = ("ooo", "crisp"),
    ):
        super().__init__(scale=scale, workloads=workloads, seeds=seeds)
        self.modes = tuple(modes)

    def args(self) -> dict:
        args = super().args()
        args["modes"] = list(self.modes)
        return args

    def instances(self, target: Target) -> list[Instance]:
        return [Instance(name=mode, mode=mode) for mode in self.modes]
