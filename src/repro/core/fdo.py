"""The CRISP feedback-driven optimization flow (Figure 5).

Ties the whole software side together, mirroring the paper's deployment
pipeline:

1. **Profile** (Figure 5 step 1): run the *train* input on the unmodified
   baseline core, collecting the simulated PMU/PEBS profile.
2. **Classify**: apply the Section 3.2 delinquency heuristic and the
   Section 3.4 hard-branch rule.
3. **Trace + slice** (step 2): extract backward slices (through registers
   and memory) from the train trace, merging instances per root.
4. **Critical-path filter** (Section 3.5): keep only near-critical-path
   instructions of each slice.
5. **Rewrite** (step 3): merge slices, enforce the 5%-40% dynamic
   critical-ratio guardrail, and lay the binary out with the one-byte
   prefix applied.

The returned :class:`CrispResult` carries everything the evaluation needs:
the annotation (critical PCs + layout) to run on the *ref* input, plus the
intermediate artefacts Figures 4, 10, 11 and 12 are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..uarch.config import CoreConfig
from ..workloads.base import REGISTRY, Workload
from .critical_path import CriticalPathConfig, filter_slice
from .delinquency import (
    Classification,
    DelinquencyConfig,
    classify,
    compute_stride_scores,
)
from .profiler import ProfileReport, profile_workload
from .rewriter import Annotation, Rewriter
from .slicer import Slice, extract_slice
from .tracer import IndexedTrace

if TYPE_CHECKING:
    from ..isa.program import Program


@dataclass(frozen=True)
class CrispConfig:
    """All knobs of the software flow."""

    delinquency: DelinquencyConfig = field(default_factory=DelinquencyConfig)
    critical_path: CriticalPathConfig = field(default_factory=CriticalPathConfig)
    use_load_slices: bool = True
    use_branch_slices: bool = True
    #: Dynamic instances sampled (randomly, deterministic seed) and merged
    #: per root. Must cover all paths feeding a root: a root reached from N
    #: distinct call sites needs ~N*ln(N) random samples for its merged
    #: slice to include every site's address-producing code (Section 4.1's
    #: merge step).
    max_instances: int = 64
    max_critical_ratio: float = 0.40
    min_critical_ratio: float = 0.05


@dataclass
class CrispResult:
    """Output of one FDO run for one workload."""

    workload_name: str
    #: The train binary the annotation was derived on.
    program: Program
    profile: ProfileReport
    classification: Classification
    slices: list[Slice]
    filtered_pcs: dict[int, set[int]]
    annotation: Annotation

    @property
    def critical_pcs(self) -> frozenset[int]:
        return self.annotation.critical_pcs

    def load_slices(self) -> list[Slice]:
        return [s for s in self.slices if s.kind == "load"]

    def branch_slices(self) -> list[Slice]:
        return [s for s in self.slices if s.kind == "branch"]

    @property
    def avg_load_slice_size(self) -> float:
        """Average dynamic load-slice size (the Figure 4 quantity)."""
        sizes = [size for s in self.load_slices() for size in s.dynamic_sizes]
        return sum(sizes) / len(sizes) if sizes else 0.0

    @property
    def total_critical_instructions(self) -> int:
        """Unique tagged instructions (the Figure 11 quantity)."""
        return len(self.annotation.critical_pcs)


def _check_variant_compatibility(train: Workload, ref: Workload) -> None:
    """Static PCs must align between train and ref binaries.

    The builders emit identical code shapes for both variants (only data
    and immediates differ); this guards that invariant, since annotations
    extracted on train are applied to ref by static PC.
    """
    check_program_shapes(train.name, train.program, ref.program)


def check_program_shapes(name: str, train: Program, ref: Program) -> None:
    """Raise ``ValueError`` unless two binaries align by static PC."""
    if len(train) != len(ref):
        raise ValueError(
            f"{name}: train/ref programs differ in length "
            f"({len(train)} vs {len(ref)}); annotations "
            "cannot be transferred"
        )
    for a, b in zip(train, ref):
        if a.opcode is not b.opcode:
            raise ValueError(
                f"{name}: train/ref opcode mismatch at pc {a.idx}"
            )


class TrainProfile:
    """Step 1 of the flow, done once for every :class:`CrispConfig`.

    Profiles the train input on the baseline core and memoises slices by
    ``(root pc, kind, max_instances, max_nodes_per_instance)``. Instance
    sampling is seeded per PC (:meth:`IndexedTrace.sample_instances`), so
    a memoised slice is identical to a freshly extracted one and
    :meth:`flow` gives every config exactly what a standalone
    :func:`run_crisp_flow` call would.
    """

    def __init__(
        self,
        workload_name: str,
        *,
        core_config: CoreConfig | None = None,
        scale: float = 1.0,
        train_workload: Workload | None = None,
        engine: str | None = None,
    ):
        self.workload_name = workload_name
        self.train = train_workload or REGISTRY.build(
            workload_name, variant="train", scale=scale)
        self.indexed = IndexedTrace(self.train.trace())
        self.profile, _ = profile_workload(
            self.train, core_config, trace=self.indexed, engine=engine)
        self._slices: dict[tuple, Slice] = {}
        self._flows: dict[CrispConfig, CrispResult] = {}

    def slice(self, root_pc: int, kind: str, max_instances: int,
              max_nodes_per_instance: int = 4096) -> Slice:
        key = (root_pc, kind, max_instances, max_nodes_per_instance)
        if key not in self._slices:
            self._slices[key] = extract_slice(
                self.indexed, root_pc, kind=kind, max_instances=max_instances,
                max_nodes_per_instance=max_nodes_per_instance)
        return self._slices[key]

    def flow(self, config: CrispConfig | None = None) -> CrispResult:
        """Steps 2-5 for ``config`` on this profile (memoised per config)."""
        config = config or CrispConfig()
        if config not in self._flows:
            self._flows[config] = run_crisp_flow(
                self.workload_name, config, profiled=self)
        return self._flows[config]


def run_crisp_flow(
    workload_name: str,
    config: CrispConfig | None = None,
    *,
    core_config: CoreConfig | None = None,
    scale: float = 1.0,
    train_workload: Workload | None = None,
    engine: str | None = None,
    profiled: TrainProfile | None = None,
) -> CrispResult:
    """Run the full Figure 5 software flow on a workload's *train* input.

    ``engine`` is the cycle model of the profiling run (see
    :func:`~repro.core.profiler.profile_workload`). Pass ``profiled`` to
    reuse a :class:`TrainProfile` (and its slices) across configs; the
    profiling arguments are then ignored.
    """
    config = config or CrispConfig()
    if profiled is None:
        profiled = TrainProfile(
            workload_name, core_config=core_config, scale=scale,
            train_workload=train_workload, engine=engine)
    train, indexed, profile = profiled.train, profiled.indexed, profiled.profile

    # Step 2: classify delinquent loads and hard branches. Address streams
    # from the trace feed the "not a constant or stride" criterion.
    stride_scores = compute_stride_scores(indexed, profile)
    classification = classify(profile, config.delinquency, stride_scores)
    load_roots = classification.delinquent_loads if config.use_load_slices else []
    branch_roots = classification.hard_branches if config.use_branch_slices else []

    # Step 3: slice extraction on the trace.
    slices: list[Slice] = []
    for pc in load_roots:
        slices.append(profiled.slice(pc, "load", config.max_instances))
    for pc in branch_roots:
        slices.append(profiled.slice(pc, "branch", config.max_instances))

    # Step 4: critical-path filtering.
    filtered: dict[int, set[int]] = {}
    importance: dict[int, float] = {}
    for s in slices:
        filtered[s.root_pc] = filter_slice(indexed, s, profile, config.critical_path)
        if s.kind == "load":
            importance[s.root_pc] = profile.miss_contribution(s.root_pc)
        else:
            branch_stats = profile.branches.get(s.root_pc)
            importance[s.root_pc] = (
                branch_stats.mispredict_rate if branch_stats else 0.0
            )

    # Step 5: rewrite with the ratio guardrail.
    rewriter = Rewriter(
        train.program,
        dict(indexed.trace.exec_counts),
        max_critical_ratio=config.max_critical_ratio,
        min_critical_ratio=config.min_critical_ratio,
    )
    annotation = rewriter.annotate(filtered, importance)

    return CrispResult(
        workload_name=workload_name,
        program=train.program,
        profile=profile,
        classification=classification,
        slices=slices,
        filtered_pcs=filtered,
        annotation=annotation,
    )


def annotate_for(
    workload: Workload,
    result: CrispResult,
) -> frozenset[int]:
    """Transfer a train-derived annotation onto another variant's binary."""
    # Static indices align across variants; validate before transfer.
    check_program_shapes(result.workload_name, result.program, workload.program)
    return result.critical_pcs
