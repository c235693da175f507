"""Input sharing never changes an outcome, and leaves nothing behind.

A failed input task or a worker killed in the middle of an FDO task only
marks that input unavailable: its consumers build it themselves, exactly
as a cell with no sharing would. The pool uses the fork start method, so
monkeypatched task functions are what the workers run.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.core.fdo import CrispConfig
from repro.parallel import CellSpec, PoolStats, ResultCache, run_cells
from repro.parallel import inputs as inputs_module
from repro.parallel.executor import _pool_run_cell, run_cell_spec

SCALE = 0.05


def spec(workload="mcf", mode="ooo", **kw):
    return CellSpec(workload=workload, mode=mode, scale=SCALE, **kw)


def outcomes(results) -> list[tuple]:
    return [(r.key, r.status, r.attempts, r.error_type,
             r.require_stats().digest(), r.critical_pcs) for r in results]


def _broken_spool_input(key, path):
    raise OSError(f"disk full while spooling {key}")


def test_failing_input_task_falls_back_to_consumers(monkeypatch):
    specs = [spec("mcf"), spec("lbm"), spec("mcf", "crisp")]
    clean = run_cells(specs, jobs=1)

    monkeypatch.setattr(inputs_module, "spool_input", _broken_spool_input)
    stats = PoolStats()
    shared = run_cells(specs, jobs=2, stats=stats)
    assert outcomes(shared) == outcomes(clean)
    assert stats.inputs_built == 0
    assert stats.retries == 0 and stats.hard_failures == 0


def _killed_profile_group(group, configs, train_path):
    os.kill(os.getpid(), signal.SIGKILL)


def test_worker_killed_in_fdo_task_falls_back_to_consumers(monkeypatch):
    # Crisp cells only: nothing but prerequisites is in flight when the
    # FDO task's worker dies, so no cell is charged an attempt.
    specs = [spec("mcf", "crisp"),
             spec("mcf", "crisp", crisp_config=CrispConfig(max_instances=2))]
    clean = run_cells(specs, jobs=1)

    monkeypatch.setattr(inputs_module, "profile_group", _killed_profile_group)
    stats = PoolStats()
    shared = run_cells(specs, jobs=2, stats=stats)
    assert outcomes(shared) == outcomes(clean)
    assert all(r.attempts == 1 for r in shared)
    assert stats.fdo_profiles == 0
    assert stats.pool_rebuilds == 1 and stats.worker_crashes >= 1
    assert stats.retries == 0


def test_no_spool_directory_survives_the_run(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    results = run_cells([spec("mcf"), spec("mcf", "crisp")], jobs=2, cache=cache)
    assert all(r.ok for r in results)
    assert sorted(os.listdir(tmp_path)) == ["cache"]

    with pytest.raises(ValueError):
        run_cells([spec("lbm"), spec(mode="turbo")], jobs=2,
                  cache=ResultCache(str(tmp_path / "cache")))
    assert sorted(os.listdir(tmp_path)) == ["cache"]


def test_pool_entry_point_still_takes_just_the_spec():
    outcome = _pool_run_cell(spec("mcf"))
    assert outcome["ok"] is True
    assert outcome["payload"] == run_cell_spec(spec("mcf"))
