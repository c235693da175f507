"""Resumable sweep runner: checkpointing, retries, resume, SIGKILL safety."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading

import pytest

from repro.experiments.runner import (
    CHECKPOINT_VERSION,
    CellTimeout,
    SweepRunner,
    default_run_cell,
)
from repro.resilience import DeadlockError, SimulationError

WORKLOADS = ["alpha", "beta", "gamma"]
MODES = ["ooo", "crisp"]


def make_runner(tmp_path, run_cell, **kw):
    kw.setdefault("workloads", list(WORKLOADS))
    kw.setdefault("modes", list(MODES))
    return SweepRunner(
        checkpoint_path=str(tmp_path / "sweep.json"), run_cell=run_cell, **kw
    )


def ok_cell(workload, mode, **kw):
    return {"ipc": 1.0, "cycles": 100, "retired": 100}


def test_fresh_sweep_completes_all_cells(tmp_path):
    calls = []

    def run_cell(workload, mode, **kw):
        calls.append((workload, mode))
        return ok_cell(workload, mode)

    runner = make_runner(tmp_path, run_cell)
    state = runner.run()
    assert len(calls) == len(WORKLOADS) * len(MODES)
    assert all(c["status"] == "done" for c in state["cells"].values())
    on_disk = json.loads((tmp_path / "sweep.json").read_text())
    assert on_disk == state
    assert on_disk["version"] == CHECKPOINT_VERSION


def test_resume_skips_finished_cells(tmp_path):
    first = make_runner(tmp_path, ok_cell)
    first.run()

    calls = []

    def must_not_run(workload, mode, **kw):
        calls.append((workload, mode))
        return ok_cell(workload, mode)

    second = make_runner(tmp_path, must_not_run)
    second.run(resume=True)
    assert calls == []


def test_hard_failure_recorded_and_sweep_continues(tmp_path):
    def run_cell(workload, mode, **kw):
        if workload == "beta":
            raise DeadlockError("no retirement for 5000 cycles")
        return ok_cell(workload, mode)

    runner = make_runner(tmp_path, run_cell)
    state = runner.run()
    failed = {k: c for k, c in state["cells"].items() if c["status"] == "failed"}
    assert set(failed) == {"beta/ooo", "beta/crisp"}
    for cell in failed.values():
        assert cell["error_type"] == "DeadlockError"
        assert "no retirement" in cell["error"]
        assert cell["attempts"] == 1  # hard failures are not retried
    done = [k for k, c in state["cells"].items() if c["status"] == "done"]
    assert len(done) == 4


def test_hard_failure_records_bundle_path(tmp_path):
    def run_cell(workload, mode, **kw):
        raise SimulationError("wedged", bundle_path="/tmp/crash-x.json")

    runner = make_runner(tmp_path, run_cell, workloads=["alpha"], modes=["ooo"])
    state = runner.run()
    assert state["cells"]["alpha/ooo"]["crash_bundle"] == "/tmp/crash-x.json"


def test_transient_failure_retried(tmp_path):
    attempts = {"n": 0}

    def run_cell(workload, mode, **kw):
        attempts["n"] += 1
        if attempts["n"] == 1:
            raise OSError("spurious I/O error")
        return ok_cell(workload, mode)

    runner = make_runner(tmp_path, run_cell, workloads=["alpha"], modes=["ooo"])
    state = runner.run()
    cell = state["cells"]["alpha/ooo"]
    assert cell["status"] == "done"
    assert cell["attempts"] == 2


def test_transient_failure_exhausts_retries(tmp_path):
    def run_cell(workload, mode, **kw):
        raise OSError("disk on fire")

    runner = make_runner(
        tmp_path, run_cell, workloads=["alpha"], modes=["ooo"], retries=2
    )
    state = runner.run()
    cell = state["cells"]["alpha/ooo"]
    assert cell["status"] == "failed"
    assert cell["attempts"] == 3
    assert cell["error_type"] == "OSError"


def test_retry_failed_reruns_only_failures(tmp_path):
    flaky = {"broken": True}

    def run_cell(workload, mode, **kw):
        if flaky["broken"] and workload == "beta":
            raise SimulationError("wedged")
        return ok_cell(workload, mode)

    runner = make_runner(tmp_path, run_cell)
    runner.run()
    flaky["broken"] = False

    calls = []

    def fixed(workload, mode, **kw):
        calls.append((workload, mode))
        return ok_cell(workload, mode)

    second = make_runner(tmp_path, fixed)
    state = second.run(resume=True, retry_failed=True)
    assert sorted(calls) == [("beta", "crisp"), ("beta", "ooo")]
    assert all(c["status"] == "done" for c in state["cells"].values())


def test_config_error_propagates(tmp_path):
    def run_cell(workload, mode, **kw):
        raise ValueError("critical_pcs passed in mode 'ooo'")

    runner = make_runner(tmp_path, run_cell)
    with pytest.raises(ValueError, match="critical_pcs"):
        runner.run()


def test_timeout_is_transient(tmp_path):
    slow = {"on": True}

    def run_cell(workload, mode, **kw):
        if slow["on"]:
            slow["on"] = False
            raise CellTimeout("cell exceeded cycle budget 50")
        return ok_cell(workload, mode)

    runner = make_runner(tmp_path, run_cell, workloads=["alpha"], modes=["ooo"])
    state = runner.run()
    cell = state["cells"]["alpha/ooo"]
    assert cell["status"] == "done"
    assert cell["attempts"] == 2


def test_cycle_budget_timeout_works_off_main_thread(tmp_path):
    """The old SIGALRM wall-clock alarm silently never fired off the POSIX
    main thread; the cycle-budget watchdog must time cells out anywhere."""
    results = {}

    def run():
        runner = SweepRunner(
            workloads=["mcf"],
            modes=["ooo"],
            checkpoint_path=str(tmp_path / "budget.json"),
            scale=0.05,
            cycle_budget=50,
            retries=0,
        )
        results["state"] = runner.run()

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    cell = results["state"]["cells"]["mcf/ooo"]
    assert cell["status"] == "failed"
    assert cell["error_type"] == "CellTimeout"
    assert "cycle budget" in cell["error"]


def test_scale_mismatch_rejected(tmp_path):
    make_runner(tmp_path, ok_cell, scale=1.0).run()
    with pytest.raises(ValueError, match="scale"):
        make_runner(tmp_path, ok_cell, scale=0.5).run(resume=True)


def test_checkpoint_records_full_execution_identity(tmp_path):
    """Checkpoint v2: engine + cache schema ride along with every sweep."""
    from repro.parallel.cellkey import CACHE_SCHEMA_VERSION

    state = make_runner(tmp_path, ok_cell, engine="obj").run()
    assert state["version"] == CHECKPOINT_VERSION
    assert state["engine"] == "obj"
    assert state["cache_schema"] == CACHE_SCHEMA_VERSION


def test_engine_mismatch_rejected_on_resume(tmp_path):
    make_runner(tmp_path, ok_cell, engine="obj").run()
    with pytest.raises(ValueError, match="engine"):
        make_runner(tmp_path, ok_cell, engine="array").run(resume=True)


def test_cache_schema_mismatch_rejected_on_resume(tmp_path):
    make_runner(tmp_path, ok_cell).run()
    path = tmp_path / "sweep.json"
    state = json.loads(path.read_text())
    state["cache_schema"] = -1
    path.write_text(json.dumps(state))
    with pytest.raises(ValueError, match="cache"):
        make_runner(tmp_path, ok_cell).run(resume=True)


def test_real_cell_runs_the_simulator(tmp_path):
    runner = SweepRunner(
        workloads=["mcf"],
        modes=["ooo"],
        checkpoint_path=str(tmp_path / "real.json"),
        scale=0.05,
        run_cell=None,  # use default_run_cell
    )
    state = runner.run()
    cell = state["cells"]["mcf/ooo"]
    assert cell["status"] == "done"
    assert cell["ipc"] > 0 and cell["retired"] > 0


def test_default_cell_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        default_run_cell("mcf", "turbo", scale=0.05)


KILL_DRIVER = textwrap.dedent(
    """
    import os, signal, sys
    from repro.experiments.runner import SweepRunner

    checkpoint = sys.argv[1]
    killed_key = sys.argv[2]

    def run_cell(workload, mode, **kw):
        if f"{workload}/{mode}" == killed_key:
            os.kill(os.getpid(), signal.SIGKILL)  # simulate a hard crash
        return {"ipc": 1.0, "cycles": 100, "retired": 100}

    runner = SweepRunner(
        workloads=["alpha", "beta", "gamma"],
        modes=["ooo", "crisp"],
        checkpoint_path=checkpoint,
        run_cell=run_cell,
    )
    runner.run(resume=True)
    """
)


def test_sigkill_mid_sweep_resumes_cleanly(tmp_path):
    """kill -9 between (or during) cells loses at most the in-flight cell."""
    checkpoint = tmp_path / "sweep.json"
    driver = tmp_path / "driver.py"
    driver.write_text(KILL_DRIVER)
    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(repo_src)
    proc = subprocess.run(
        [sys.executable, str(driver), str(checkpoint), "gamma/ooo"],
        env=env,
        capture_output=True,
    )
    assert proc.returncode == -signal.SIGKILL

    # The checkpoint survived the kill and holds every finished cell.
    state = json.loads(checkpoint.read_text())
    done = {k for k, c in state["cells"].items() if c["status"] == "done"}
    assert done == {
        "alpha/ooo", "alpha/crisp", "beta/ooo", "beta/crisp",
    }

    # Resume runs only the four unfinished cells.
    calls = []

    def run_cell(workload, mode, **kw):
        calls.append(f"{workload}/{mode}")
        return ok_cell(workload, mode)

    resumed = make_runner(tmp_path, run_cell)
    state = resumed.run(resume=True)
    assert calls == ["gamma/ooo", "gamma/crisp"]
    assert all(c["status"] == "done" for c in state["cells"].values())
    assert len(state["cells"]) == 6


# -- shared RetryPolicy: backoff and deadline on the sweep path ----------------


def test_runner_waits_out_the_policy_backoff(tmp_path):
    """Transient retries pace themselves by the policy's deterministic
    delay schedule instead of hammering immediately."""
    from repro.resilience.policy import RetryPolicy

    policy = RetryPolicy(retries=2, backoff_base=0.05, jitter=0.0,
                         backoff_factor=2.0)
    attempts = {"n": 0}

    def flaky(workload, mode, **kw):
        attempts["n"] += 1
        if attempts["n"] < 3:
            raise CellTimeout("transient")
        return ok_cell(workload, mode)

    runner = make_runner(tmp_path, flaky,
                         workloads=["alpha"], modes=["ooo"], policy=policy)
    import time as _time

    start = _time.monotonic()
    state = runner.run()
    elapsed = _time.monotonic() - start
    assert state["cells"]["alpha/ooo"]["status"] == "done"
    assert state["cells"]["alpha/ooo"]["attempts"] == 3
    # Two waits: delay(1) + delay(2) = 0.05 + 0.10 with zero jitter.
    assert elapsed >= 0.15


def test_runner_deadline_stops_retries_before_the_budget(tmp_path):
    from repro.resilience.policy import RetryPolicy

    policy = RetryPolicy(retries=100, backoff_base=0.0, deadline=0.2)
    attempts = {"n": 0}

    def slow_transient(workload, mode, **kw):
        attempts["n"] += 1
        import time as _time

        _time.sleep(0.15)
        raise CellTimeout("still transient")

    runner = make_runner(tmp_path, slow_transient,
                         workloads=["alpha"], modes=["ooo"], policy=policy)
    state = runner.run()
    cell = state["cells"]["alpha/ooo"]
    assert cell["status"] == "failed"
    assert cell["error_type"] == "CellTimeout"
    # The wall-clock deadline cut retries far short of the 100 budget.
    assert 2 <= cell["attempts"] <= 4


def test_cli_flags_build_the_shared_policy():
    from repro.experiments.__main__ import build_parser, build_policy
    from repro.resilience.policy import RetryPolicy

    args = build_parser().parse_args(
        ["sweep", "--retries", "3", "--retry-backoff", "0.5",
         "--deadline", "60"])
    policy = build_policy(args)
    assert policy == RetryPolicy(retries=3, backoff_base=0.5, deadline=60.0)
    # Defaults: immediate retries, no deadline — the historical behaviour.
    default = build_policy(build_parser().parse_args(["sweep"]))
    assert default.backoff_base == 0.0 and default.deadline is None
