"""Figure 8: load slices vs branch slices vs both combined.

Section 5.3: branch slicing was developed after observing that lbm's load
slicing only paid off under a perfect branch predictor; prioritising
hard-to-predict branches' slices shortens their resolution time and thus
the misprediction penalty. The paper highlights deepsjeng/lbm/nab/namd as
gaining >3% from branch slices alone, and cactus/lbm/perlbench/memcached as
combining both kinds super-additively.

The baseline plus one crisp instance per slice kind, each pinning its
``CrispConfig``: the three variants share one train-input profile per
workload, and "combined" (the default config) is the same cell as fig7's
``crisp`` column.
"""

from __future__ import annotations

from ..core.fdo import CrispConfig
from ..orchestrate import Experiment, Instance, register
from .common import ExperimentResult, format_pct

VARIANTS = (
    ("load slices", CrispConfig(use_load_slices=True, use_branch_slices=False)),
    ("branch slices", CrispConfig(use_load_slices=False, use_branch_slices=True)),
    ("combined", CrispConfig(use_load_slices=True, use_branch_slices=True)),
)


@register
class Fig8Experiment(Experiment):
    """Baseline + one crisp instance per slice kind (load, branch, both)."""

    name = "fig8"
    title = "Figure 8: load slices, branch slices, and their combination"

    def instances(self, target) -> list[Instance]:
        return [Instance(name="ooo", mode="ooo")] + [
            Instance(name=label, mode="crisp", crisp_config=config)
            for label, config in VARIANTS
        ]

    def table(self, plan, results) -> ExperimentResult:
        cells = self.results_map(plan, results)
        result = ExperimentResult(
            experiment=self.name,
            title=self.title,
            headers=["workload", "base IPC"] + [label for label, _ in VARIANTS],
        )
        for name in self.workloads:
            base = self.ipc(cells, name, "ooo")
            result.add_row(name, base, *[
                format_pct(self.ipc(cells, name, label) / base)
                for label, _ in VARIANTS
            ])
        result.notes.append(
            "paper: lbm/deepsjeng/nab/namd gain >3% from branch slices alone; "
            "combining both matches or beats either alone."
        )
        if self.seeds > 1:
            result.notes.append(
                f"median over {self.seeds} seed replicas per cell"
            )
        return result
