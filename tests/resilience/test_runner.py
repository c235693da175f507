"""Resumable runs: failure policy, resume, identity and SIGKILL safety.

Every run — ``python -m repro.experiments sweep``, ``python -m
repro.orchestrate run`` and a drained ``serve`` job — goes through
``execute_run`` into an orchestrate run directory. These tests drive the
``suite`` matrix through both ``execute_run`` and the ``sweep`` alias,
injecting failures by substituting the executor's per-cell function.
Cells are scale-0.05 analogues, so a real simulation costs milliseconds.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.experiments.__main__ import main as experiments_main
from repro.orchestrate import RunIdentityError, execute_run
from repro.orchestrate.experiment import SuiteMatrix
from repro.orchestrate.rundir import load_cells, load_manifest, manifest_path
from repro.parallel import executor
from repro.parallel.cellkey import CACHE_SCHEMA_VERSION
from repro.resilience import CellTimeout, DeadlockError, SimulationError
from repro.resilience.policy import RetryPolicy

FAST = 0.05
WORKLOADS = ["mcf", "lbm", "pointer_chase"]
MODES = ("ooo", "crisp")

_real_run_cell_spec = executor.run_cell_spec


def suite(workloads=("mcf",), modes=("ooo",), scale=FAST):
    return SuiteMatrix(scale=scale, workloads=list(workloads), modes=modes)


def stored(run_dir) -> dict:
    """Stored cell payloads of a run dir, keyed ``workload/mode``."""
    return {f"{c['workload']}/{c['mode']}": c for c in load_cells(run_dir).values()}


def inject(monkeypatch, fail):
    """Run every cell through ``fail(spec, attempt)`` first: it may raise
    to fail that attempt; otherwise the real cell runs. Returns the list
    of ``(label, attempt)`` calls."""
    calls = []

    def run_cell_spec(spec, inputs=None):
        attempt = 1 + sum(1 for label, _ in calls if label == spec.label())
        calls.append((spec.label(), attempt))
        fail(spec, attempt)
        return _real_run_cell_spec(spec, inputs)

    monkeypatch.setattr(executor, "run_cell_spec", run_cell_spec)
    return calls


def sweep_cli(tmp_path, *flags, workloads="mcf", modes="ooo"):
    return experiments_main([
        "sweep", "--workloads", workloads, "--modes", modes,
        "--scale", str(FAST), "--out", str(tmp_path / "runs"), "--no-cache",
        *flags,
    ])


def test_fresh_sweep_completes_all_cells(tmp_path):
    summary = execute_run(suite(WORKLOADS, MODES), out=tmp_path / "runs")
    assert summary["failed"] == 0
    cells = stored(summary["run_dir"])
    assert len(cells) == len(WORKLOADS) * len(MODES)
    assert all(c["status"] == "done" for c in cells.values())
    manifest = load_manifest(summary["run_dir"])
    assert manifest["status"] == "complete"
    assert set(load_cells(summary["run_dir"])) == set(manifest["cells"])


def test_resume_skips_finished_cells(tmp_path, monkeypatch, capsys):
    assert sweep_cli(tmp_path, modes="ooo,crisp") == 0
    calls = inject(monkeypatch, lambda spec, attempt: None)
    assert sweep_cli(tmp_path, "--resume", modes="ooo,crisp") == 0
    assert calls == []
    assert "runs/suite/run-001" in capsys.readouterr().out


def test_hard_failure_recorded_and_sweep_continues(tmp_path, monkeypatch):
    def fail(spec, attempt):
        if spec.workload == "lbm":
            raise DeadlockError("no retirement for 5000 cycles")

    inject(monkeypatch, fail)
    summary = execute_run(suite(WORKLOADS, MODES), out=tmp_path / "runs")
    cells = stored(summary["run_dir"])
    failed = {k: c for k, c in cells.items() if c["status"] == "failed"}
    assert set(failed) == {"lbm/ooo", "lbm/crisp"}
    for cell in failed.values():
        assert cell["error_type"] == "DeadlockError"
        assert "no retirement" in cell["error"]
        assert cell["attempts"] == 1  # hard failures are not retried
    assert sum(c["status"] == "done" for c in cells.values()) == 4
    assert summary["failed"] == 2
    assert load_manifest(summary["run_dir"])["status"] == "partial"


def test_hard_failure_records_bundle_path(tmp_path, monkeypatch):
    def fail(spec, attempt):
        raise SimulationError("wedged", bundle_path="/tmp/crash-x.json")

    inject(monkeypatch, fail)
    summary = execute_run(suite(), out=tmp_path / "runs")
    assert stored(summary["run_dir"])["mcf/ooo"]["crash_bundle"] == (
        "/tmp/crash-x.json")


def test_transient_failure_retried(tmp_path, monkeypatch):
    def fail(spec, attempt):
        if attempt == 1:
            raise OSError("spurious I/O error")

    inject(monkeypatch, fail)
    summary = execute_run(suite(), out=tmp_path / "runs")
    cell = stored(summary["run_dir"])["mcf/ooo"]
    assert cell["status"] == "done"
    assert cell["attempts"] == 2


def test_transient_failure_exhausts_retries(tmp_path, monkeypatch):
    def fail(spec, attempt):
        raise OSError("disk on fire")

    inject(monkeypatch, fail)
    assert sweep_cli(tmp_path, "--retries", "2") == 1
    (cell,) = stored(tmp_path / "runs" / "suite" / "run-001").values()
    assert cell["status"] == "failed"
    assert cell["attempts"] == 3
    assert cell["error_type"] == "OSError"


def test_retry_failed_reruns_only_failures(tmp_path, monkeypatch):
    """Resume re-runs cells stored as failed (there is no separate
    --retry-failed switch) and leaves the finished ones alone."""
    def fail(spec, attempt):
        if spec.workload == "lbm":
            raise SimulationError("wedged")

    inject(monkeypatch, fail)
    first = execute_run(suite(WORKLOADS, MODES), out=tmp_path / "runs")
    assert first["failed"] == 2

    calls = inject(monkeypatch, lambda spec, attempt: None)
    second = execute_run(suite(WORKLOADS, MODES), out=tmp_path / "runs",
                         resume=True)
    assert sorted(label for label, _ in calls) == ["lbm/crisp", "lbm/ooo"]
    assert second["failed"] == 0
    assert all(c["status"] == "done" for c in stored(second["run_dir"]).values())


def test_config_error_propagates(tmp_path, monkeypatch):
    def fail(spec, attempt):
        raise ValueError("critical_pcs passed in mode 'ooo'")

    inject(monkeypatch, fail)
    with pytest.raises(ValueError, match="critical_pcs"):
        execute_run(suite(), out=tmp_path / "runs")


def test_timeout_is_transient(tmp_path, monkeypatch):
    def fail(spec, attempt):
        if attempt == 1:
            raise CellTimeout("cell exceeded cycle budget 50")

    inject(monkeypatch, fail)
    summary = execute_run(suite(), out=tmp_path / "runs")
    cell = stored(summary["run_dir"])["mcf/ooo"]
    assert cell["status"] == "done"
    assert cell["attempts"] == 2


def test_cycle_budget_timeout_works_off_main_thread(tmp_path):
    """The old SIGALRM wall-clock alarm silently never fired off the POSIX
    main thread; the cycle-budget watchdog must time cells out anywhere."""
    results = {}

    def run():
        results["summary"] = execute_run(
            suite(), out=tmp_path / "runs", cycle_budget=50,
            policy=RetryPolicy.immediate(0))

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    cell = stored(results["summary"]["run_dir"])["mcf/ooo"]
    assert cell["status"] == "failed"
    assert cell["error_type"] == "CellTimeout"
    assert "cycle budget" in cell["error"]


def test_scale_mismatch_rejected(tmp_path):
    execute_run(suite(scale=FAST), out=tmp_path / "runs")
    with pytest.raises(RunIdentityError, match="args"):
        execute_run(suite(scale=0.1), out=tmp_path / "runs", resume=True)


def test_checkpoint_records_full_execution_identity(tmp_path):
    """The run manifest records the engine and cache schema of every run."""
    summary = execute_run(suite(), out=tmp_path / "runs", engine="obj")
    identity = load_manifest(summary["run_dir"])["instance"]
    assert identity["engine"] == "obj"
    assert identity["sample"] == "off"
    assert identity["cache_schema"] == CACHE_SCHEMA_VERSION


def test_engine_mismatch_rejected_on_resume(tmp_path, capsys):
    assert sweep_cli(tmp_path, "--engine", "obj") == 0
    capsys.readouterr()
    assert sweep_cli(tmp_path, "--resume", "--engine", "array") == 1
    assert "instance.engine" in capsys.readouterr().err


def test_cache_schema_mismatch_rejected_on_resume(tmp_path):
    summary = execute_run(suite(), out=tmp_path / "runs")
    path = manifest_path(summary["run_dir"])
    manifest = json.loads(path.read_text())
    manifest["instance"]["cache_schema"] = -1
    path.write_text(json.dumps(manifest))
    with pytest.raises(RunIdentityError, match="cache_schema"):
        execute_run(suite(), out=tmp_path / "runs", resume=True)


def test_real_cell_runs_the_simulator(tmp_path):
    assert sweep_cli(tmp_path) == 0
    cell = stored(tmp_path / "runs" / "suite" / "run-001")["mcf/ooo"]
    assert cell["status"] == "done"
    assert cell["ipc"] > 0 and cell["stats"]["retired"] > 0


def test_default_cell_rejects_unknown_mode(tmp_path):
    with pytest.raises(ValueError, match="unknown mode"):
        execute_run(suite(modes=("turbo",)), out=tmp_path / "runs")


KILL_DRIVER = textwrap.dedent(
    """
    import os, signal, sys
    from repro.experiments.__main__ import main
    from repro.parallel import executor

    out, killed = sys.argv[1], sys.argv[2]
    real = executor._pool_run_cell

    def pool_run_cell(spec):
        if spec.label() == killed:
            os.kill(os.getpid(), signal.SIGKILL)  # simulate a hard crash
        return real(spec)

    executor._pool_run_cell = pool_run_cell
    main(["sweep", "--workloads", "mcf,lbm,pointer_chase",
          "--modes", "ooo,crisp", "--scale", "0.05", "--out", out,
          "--no-cache"])
    """
)


def test_sigkill_mid_sweep_resumes_cleanly(tmp_path, monkeypatch):
    """kill -9 of the driver loses at most the in-flight cell."""
    driver = tmp_path / "driver.py"
    driver.write_text(KILL_DRIVER)
    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(repo_src)
    proc = subprocess.run(
        [sys.executable, str(driver), str(tmp_path / "runs"),
         "pointer_chase/ooo"],
        env=env,
        capture_output=True,
    )
    assert proc.returncode == -signal.SIGKILL

    # The run dir survived the kill and holds every finished cell.
    run_dir = tmp_path / "runs" / "suite" / "run-001"
    done = {k for k, c in stored(run_dir).items() if c["status"] == "done"}
    assert done == {"mcf/ooo", "mcf/crisp", "lbm/ooo", "lbm/crisp"}

    # Resume (no cache) simulates only the two unfinished cells.
    calls = inject(monkeypatch, lambda spec, attempt: None)
    assert sweep_cli(tmp_path, "--resume", workloads="mcf,lbm,pointer_chase",
                     modes="ooo,crisp") == 0
    assert [label for label, _ in calls] == [
        "pointer_chase/ooo", "pointer_chase/crisp"]
    cells = stored(run_dir)
    assert len(cells) == 6
    assert all(c["status"] == "done" for c in cells.values())


# -- shared RetryPolicy: backoff and deadline through the sweep flags ----------


def test_runner_waits_out_the_policy_backoff(tmp_path, monkeypatch):
    """Transient retries pace themselves by the policy's deterministic
    delay schedule instead of hammering immediately."""
    def fail(spec, attempt):
        if attempt < 3:
            raise CellTimeout("transient")

    inject(monkeypatch, fail)
    start = time.monotonic()
    assert sweep_cli(tmp_path, "--retries", "2", "--retry-backoff", "0.05") == 0
    elapsed = time.monotonic() - start
    cell = stored(tmp_path / "runs" / "suite" / "run-001")["mcf/ooo"]
    assert cell["status"] == "done"
    assert cell["attempts"] == 3
    # Two waits: delay(1) + delay(2) >= 0.05 + 0.10 (jitter only adds).
    assert elapsed >= 0.15


def test_runner_deadline_stops_retries_before_the_budget(tmp_path, monkeypatch):
    def fail(spec, attempt):
        time.sleep(0.15)
        raise CellTimeout("still transient")

    inject(monkeypatch, fail)
    assert sweep_cli(tmp_path, "--retries", "100", "--deadline", "0.2") == 1
    cell = stored(tmp_path / "runs" / "suite" / "run-001")["mcf/ooo"]
    assert cell["status"] == "failed"
    assert cell["error_type"] == "CellTimeout"
    # The wall-clock deadline cut retries far short of the 100 budget.
    assert 2 <= cell["attempts"] <= 4


def test_cli_flags_build_the_shared_policy(monkeypatch):
    from repro.orchestrate import runs

    seen = []

    def fake_execute_run(experiment, **kwargs):
        seen.append(kwargs)
        return {"run_dir": "x", "failed": 0, "figure": None,
                "aggregate": None}

    monkeypatch.setattr(runs, "execute_run", fake_execute_run)
    experiments_main(["sweep", "--no-cache", "--retries", "3",
                      "--retry-backoff", "0.5", "--deadline", "60",
                      "--cycle-budget", "900", "--crash-dir", "bundles"])
    assert seen[0]["policy"] == RetryPolicy(
        retries=3, backoff_base=0.5, deadline=60.0)
    assert seen[0]["cycle_budget"] == 900
    assert seen[0]["crash_dir"] == "bundles"
    # Defaults: immediate retries, no deadline — the historical behaviour.
    experiments_main(["sweep", "--no-cache"])
    default = seen[1]["policy"]
    assert default.backoff_base == 0.0 and default.deadline is None
    assert default.retries == 1
