"""Section 6.1 study: criticality for long-latency non-load instructions.

The paper: "other high-latency instructions such as division can be
accelerated with CRISP ... we envision adding new events to the PMU for
determining the PC of arbitrary instructions that induce significant stall
cycles." The simulated PMU already attributes head-of-ROB stalls per PC, so
the envisioned flow runs end to end here: profile the division-chain
microbenchmark, pick the stall-dominating DIV as a slicing root
(:func:`repro.core.delinquency.classify_stalling_instructions`), extract
and filter its slice with the unchanged machinery, and evaluate.

The stall-root flow runs at plan time on the train input, and its
annotation pins explicit critical PCs on a ``div_chain`` crisp cell, as
``ablation_ratio`` does, so both rows are ordinary cacheable cells.
"""

from __future__ import annotations

from ..core.critical_path import CriticalPathConfig, filter_slice
from ..core.delinquency import classify_stalling_instructions
from ..core.profiler import profile_workload
from ..core.rewriter import Rewriter
from ..core.slicer import extract_slice
from ..core.tracer import IndexedTrace
from ..orchestrate import Experiment, Instance, register
from ..workloads.divchain import build_div_chain
from .common import ExperimentResult, format_pct


@register
class DiscussionDivision(Experiment):
    """OOO vs the stall-root (division) slice prioritised on div_chain."""

    name = "discussion_division"
    title = "Section 6.1: prioritising a long-latency division chain"
    default_workloads = ("div_chain",)
    fixed_workloads = True

    def __init__(self, scale: float = 1.0, workloads: list[str] | None = None,
                 seeds: int = 1):
        super().__init__(scale=scale, workloads=workloads, seeds=seeds)
        self._stall_flow: tuple[list[int], tuple[int, ...]] | None = None

    def stall_flow(self) -> tuple[list[int], tuple[int, ...]]:
        """(stall roots, tagged PCs) of the train input, derived once.

        Plan-time work, deterministic, so re-planning for a resume or a
        report reproduces the same cell identities.
        """
        if self._stall_flow is None:
            train = build_div_chain("train", self.scale)
            indexed = IndexedTrace(train.trace())
            profile, _ = profile_workload(train, trace=indexed)
            roots = classify_stalling_instructions(profile, train.program)
            slices = {
                pc: filter_slice(
                    indexed, extract_slice(indexed, pc, kind="load"), profile,
                    CriticalPathConfig(),
                )
                for pc in roots
            }
            annotation = Rewriter(
                train.program, dict(indexed.trace.exec_counts)
            ).annotate(slices, {pc: 1.0 for pc in roots})
            self._stall_flow = (roots, tuple(sorted(annotation.critical_pcs)))
        return self._stall_flow

    def instances(self, target) -> list[Instance]:
        _, tagged = self.stall_flow()
        return [Instance(name="ooo", mode="ooo"),
                Instance(name="crisp", mode="crisp", critical_pcs=tagged)]

    def table(self, plan, results) -> ExperimentResult:
        cells = self.results_map(plan, results)
        roots, tagged = self.stall_flow()
        result = ExperimentResult(
            experiment=self.name,
            title=self.title,
            headers=["configuration", "IPC", "vs baseline"],
        )
        base = self.ipc(cells, "div_chain", "ooo")
        crisp = self.ipc(cells, "div_chain", "crisp")
        result.add_row("baseline OOO", base, format_pct(1.0))
        result.add_row(
            f"division slice prioritised ({len(tagged)} tagged)",
            crisp,
            format_pct(crisp / base),
        )
        result.notes.append(
            f"stall-dominating roots found by the PMU: {roots} "
            "(the DIV and its feeders); no load ever misses in this kernel."
        )
        return result
