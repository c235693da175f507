"""The ``sweep`` alias on the parallel layer: --jobs, cache, resume composition.

``python -m repro.experiments sweep`` runs the ``suite`` matrix through
``execute_run``; these tests check that pooling and the result cache
compose with it exactly as with any other orchestrated run.
"""

from __future__ import annotations

import pathlib

from repro.experiments.__main__ import main as experiments_main
from repro.orchestrate import execute_run
from repro.orchestrate.experiment import SuiteMatrix
from repro.orchestrate.rundir import load_cells
from repro.parallel import CellSpec, ResultCache, run_cells

FAST = dict(workloads=["mcf", "lbm"], modes=("ooo", "crisp"), scale=0.05)


def rows_of(run_dir):
    """{workload/mode: (ipc, cycles, retired)} of a run dir's stored cells."""
    return {
        f"{c['workload']}/{c['mode']}":
            (c["ipc"], c["stats"]["cycles"], c["stats"]["retired"])
        for c in load_cells(run_dir).values()
    }


def test_parallel_sweep_matches_serial(tmp_path):
    serial = execute_run(SuiteMatrix(**FAST), out=tmp_path / "serial")
    pooled = execute_run(SuiteMatrix(**FAST), out=tmp_path / "pooled", jobs=4)
    assert pooled["failed"] == 0
    assert rows_of(serial["run_dir"]) == rows_of(pooled["run_dir"])
    # ... and both equal plain cells run outside any experiment.
    direct = {}
    for workload in FAST["workloads"]:
        for mode in FAST["modes"]:
            (result,) = run_cells([CellSpec(workload=workload, mode=mode,
                                             scale=FAST["scale"])])
            stats = result.require_stats()
            direct[f"{workload}/{mode}"] = (result.ipc, stats.cycles,
                                            stats.retired)
    assert rows_of(serial["run_dir"]) == direct


def test_second_sweep_hits_cache_for_every_cell(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    first = execute_run(SuiteMatrix(**FAST), out=tmp_path / "runs", jobs=2,
                        cache=cache)
    assert cache.stats.hits == 0

    seen = []
    second = execute_run(SuiteMatrix(**FAST), out=tmp_path / "runs", jobs=2,
                         cache=cache, on_cell=lambda key, r: seen.append(r))
    cell_count = len(FAST["workloads"]) * len(FAST["modes"])
    assert cache.stats.hits == cell_count  # acceptance: every cell hits
    assert rows_of(first["run_dir"]) == rows_of(second["run_dir"])
    assert len(seen) == cell_count and all(r.from_cache for r in seen)


def test_resume_composes_with_jobs_and_cache(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    full = execute_run(SuiteMatrix(**FAST), out=tmp_path / "runs", jobs=2,
                       cache=cache)
    run_dir = pathlib.Path(full["run_dir"])

    # Drop two finished cells from the run dir, as a crash would.
    for key, cell in load_cells(run_dir).items():
        if cell["workload"] == "lbm":
            (run_dir / "cells" / f"{key}.json").unlink()

    seen = []
    hits = cache.stats.hits
    resumed = execute_run(SuiteMatrix(**FAST), out=tmp_path / "runs", jobs=2,
                          cache=cache, resume=True,
                          on_cell=lambda key, r: seen.append(r))
    assert resumed["run_dir"] == full["run_dir"]
    assert len(load_cells(run_dir)) == 4
    # The two re-run cells came straight from the cache.
    assert sorted(r.spec.label() for r in seen) == ["lbm/crisp", "lbm/ooo"]
    assert all(r.from_cache for r in seen)
    assert cache.stats.hits - hits == 2


def test_cli_smoke_two_workloads_jobs_two(tmp_path, capsys):
    """Tier-1 smoke: the documented CLI path end to end on a temp cache."""
    argv = [
        "sweep",
        "--workloads", "mcf,lbm",
        "--scale", "0.05",
        "--jobs", "2",
        "--cache-dir", str(tmp_path / "cache"),
        "--out", str(tmp_path / "runs"),
    ]
    assert experiments_main(argv) == 0
    out = capsys.readouterr().out
    run_dir = tmp_path / "runs" / "suite" / "run-001"
    assert f"run dir: {run_dir}" in out
    assert "0 hits / 4 misses" in out
    first = rows_of(run_dir)
    assert len(first) == 4

    # Same sweep again: every unchanged cell is answered by the cache.
    assert experiments_main(argv) == 0
    out = capsys.readouterr().out
    assert "100% hit rate" in out
    assert rows_of(tmp_path / "runs" / "suite" / "run-002") == first
