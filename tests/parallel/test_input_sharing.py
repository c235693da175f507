"""Run-level input sharing: same outcomes as unshared cells, fewer builds.

One mixed plan covers every kind of consumer: ooo cells, crisp cells whose
two CrispConfigs share a train input, a 4-core mix with a repeated
antagonist (and a crisp victim in the same FDO group), an interval cell
and an SMT cell. Serial and pooled ``run_cells`` must give exactly what
each cell gives alone through ``run_cell_spec``, which shares nothing.
"""

from __future__ import annotations

import pytest

import repro.core.fdo
import repro.workloads
import repro.workloads.base
from repro.core.fdo import CrispConfig
from repro.multicore import corun_cell
from repro.multicore.smt import SmtCellSpec, smt_cell
from repro.parallel import CellSpec, PoolStats, run_cells
from repro.parallel.executor import run_cell_spec

SCALE = 0.1
#: A second FDO recipe for the same train input: fewer slice instances.
NARROW = CrispConfig(max_instances=2)


def mixed_plan() -> list[CellSpec]:
    return [
        CellSpec("mcf", "ooo", scale=SCALE),
        CellSpec("lbm", "ooo", scale=SCALE),
        CellSpec("mcf", "crisp", scale=SCALE),
        CellSpec("mcf", "crisp", scale=SCALE, crisp_config=NARROW),
        corun_cell("mcf@crisp+lbm+lbm+lbm", scale=SCALE),
        CellSpec("mcf", "ooo", scale=SCALE, interval=(500, 1500)),
        smt_cell(SmtCellSpec(("mcf", "lbm")), scale=SCALE),
    ]


def outcome(result) -> tuple:
    return (result.key, result.require_stats().digest(),
            tuple(result.critical_pcs), result.extra)


def unshared_outcomes(specs) -> list[tuple]:
    """Each cell alone, with nothing shared (the pre-sharing path)."""
    out = []
    for spec in specs:
        (result,) = run_cells([spec], jobs=1)
        solo = run_cell_spec(spec)
        assert result.require_stats().to_dict() == solo["stats"]
        assert list(result.critical_pcs) == solo["critical_pcs"]
        assert result.extra == solo.get("extra", {})
        out.append(outcome(result))
    return out


def test_serial_pooled_and_unshared_runs_agree():
    specs = mixed_plan()
    serial = [outcome(r) for r in run_cells(specs, jobs=1)]
    pooled = [outcome(r) for r in run_cells(specs, jobs=2)]
    assert serial == pooled == unshared_outcomes(specs)
    # The two configs really do annotate differently, off one profile.
    assert serial[2][2] and serial[2][2] != serial[3][2]


@pytest.fixture
def counters(monkeypatch):
    counts = {"build": [], "emulate": 0, "profile": 0, "shape_checks": 0}
    real_build = repro.workloads.get_workload
    real_execute = repro.workloads.base.execute
    real_profile = repro.core.fdo.profile_workload
    real_check = repro.core.fdo.check_program_shapes

    def build(name, *args, **kwargs):
        counts["build"].append((name, kwargs.get("variant", args[0] if args else "ref")))
        return real_build(name, *args, **kwargs)

    def execute(*args, **kwargs):
        counts["emulate"] += 1
        return real_execute(*args, **kwargs)

    def profile(*args, **kwargs):
        counts["profile"] += 1
        return real_profile(*args, **kwargs)

    def check(*args, **kwargs):
        counts["shape_checks"] += 1
        return real_check(*args, **kwargs)

    monkeypatch.setattr(repro.workloads, "get_workload", build)
    monkeypatch.setattr(repro.workloads.base, "execute", execute)
    monkeypatch.setattr(repro.core.fdo, "profile_workload", profile)
    monkeypatch.setattr("repro.parallel.inputs.check_program_shapes", check)
    return counts


def test_serial_run_builds_each_input_once_and_profiles_each_group_once(counters):
    stats = PoolStats()
    results = run_cells(mixed_plan(), jobs=1, stats=stats)
    assert all(r.ok for r in results)
    # Distinct inputs: mcf ref, lbm ref, mcf train (the FDO group's).
    assert sorted(counters["build"]) == [
        ("lbm", "ref"), ("mcf", "ref"), ("mcf", "train")]
    assert counters["emulate"] == 3
    # One FDO group (mcf, scale, Skylake, default engine) for both solo
    # crisp configs and the co-run's crisp victim.
    assert counters["profile"] == 1
    # One (train, ref) pair, checked once.
    assert counters["shape_checks"] == 1
    assert (stats.inputs_built, stats.fdo_profiles) == (3, 1)
    # mcf ref: 6 consumer cells; lbm ref: 3; mcf train: the one group.
    assert stats.inputs_reused == (6 - 1) + (3 - 1) + (1 - 1)


def test_pooled_run_counts_prerequisites_outside_the_cell_counters():
    stats = PoolStats()
    specs = mixed_plan()
    results = run_cells(specs, jobs=2, stats=stats)
    assert all(r.ok and r.attempts == 1 for r in results)
    assert (stats.inputs_built, stats.fdo_profiles) == (3, 1)
    assert stats.cells_executed == len(specs)
    assert stats.retries == 0
