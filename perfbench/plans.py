"""The benchmark's workloads: which experiment plan each one runs.

Each workload is a real registered experiment, built exactly as a user of
``python -m repro.orchestrate run`` would build it, at a fixed scale. The
benchmark seed selects the ``ref`` input variant: even seeds run ``ref``
(the default, seed 0) and odd seeds run the seed replica ``ref#1`` (the
held-out input, seed 1). Golden digests are committed for both.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

#: The variants the seed argument selects between, indexed by seed % 2.
VARIANTS = ("ref", "ref#1")


@dataclass(frozen=True)
class Plan:
    """One benchmark workload: an experiment, its arguments and scale."""

    experiment: str
    scale: float
    kwargs: dict = field(default_factory=dict)


PLANS = {
    # fig10: ooo + crisp at T = 5%, 1%, 0.2%; three of every four cells run
    # the full FDO flow on the same train input.
    "fdo_sweep": Plan(
        "fig10", 0.1, {"workloads": ["mcf", "lbm", "xz", "memcached"]}),
    # All 16 analogues in ooo and ibda-64k: no FDO, widest spread of
    # working sets and branch behaviour through the timed cycle model.
    "suite_timing": Plan(
        "suite", 0.1, {"modes": ("ooo", "ibda-64k")}),
    # Victim mcf solo and in 2-/4-core mixes against the 4 MiB streaming
    # antagonist: the lockstep co-run path through the shared LLC and DRAM.
    "corun_mix": Plan(
        "corun_interference", 0.05, {"workloads": ["mcf"]}),
}


def variant_for_seed(seed: int) -> str:
    """The input variant a benchmark seed selects."""
    return VARIANTS[seed % len(VARIANTS)]


def build_experiment(workload: str, variant: str):
    """Construct the workload's experiment, restricted to one variant."""
    from repro.orchestrate import get_experiment

    plan = PLANS[workload]
    cls = get_experiment(plan.experiment)

    class OneVariant(cls):
        """The registered experiment over a single input variant."""

        def variants(self) -> list[str]:
            return [variant]

        def results_map(self, plan, results):
            # Tables look some cells up under the canonical "ref" variant;
            # with a single variant those are the selected variant's cells.
            cells = super().results_map(plan, results)
            cells.update({(w, "ref", i): r for (w, _, i), r in list(cells.items())})
            return cells

    OneVariant.__name__ = cls.__name__
    return OneVariant(scale=plan.scale, **plan.kwargs)


def cell_label(cell) -> str:
    """A schema-independent name for one planned cell."""
    return f"{cell.target.workload}/{cell.target.variant}/{cell.instance.name}"


def result_digest(result) -> str:
    """Digest of one cell's outcome: SimStats, critical PCs, co-run extra."""
    canon = json.dumps(
        {
            "stats": result.require_stats().digest(),
            "critical_pcs": sorted(result.critical_pcs),
            "extra": result.extra,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def retired_insts(result) -> int:
    """Instructions a cell retired; a co-run counts every core."""
    corun = result.extra.get("corun")
    if corun is not None:
        return sum(part["retired"] for part in corun["per_core"])
    return result.require_stats().retired
