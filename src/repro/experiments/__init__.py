"""One experiment module per paper table/figure.

Each module registers one :class:`~repro.orchestrate.Experiment` class
under its id; :func:`run_experiment` runs one in-process, and the CLI
(``python -m repro.experiments <id> [--scale S] [--workloads a,b,c]``)
renders the regenerated table. See DESIGN.md's per-experiment index and
EXPERIMENTS.md for paper-vs-measured records.
"""

from . import (  # noqa: F401  (importing a module registers its experiment)
    ablation_perfect_bp,
    ablation_prefetchers,
    ablation_ratio,
    ablation_sampling,
    corun_interference,
    discussion_division,
    discussion_smt,
    fig1_upc_timeline,
    fig4_slice_size,
    fig7_ipc,
    fig8_branch_slicing,
    fig9_rs_rob,
    fig10_threshold,
    fig11_critical_count,
    fig12_footprint,
    sec31_motivating,
    table1_config,
)
from .common import ExperimentResult

__all__ = ["ExperimentResult", "figure_names", "run_experiment"]


def figure_names() -> list[str]:
    """Ids of the experiments registered by this package's modules."""
    from ..orchestrate import registry

    return sorted(name for name, cls in registry().items()
                  if cls.__module__.startswith(__name__ + "."))


def run_experiment(name: str, **kwargs) -> ExperimentResult:
    """Run one registered experiment in-process by id; ``kwargs`` go to its
    constructor (``scale``, ``workloads``, experiment-specific ones)."""
    from ..orchestrate import get_experiment

    return get_experiment(name)(**kwargs).run_inline()
