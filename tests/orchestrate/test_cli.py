"""python -m repro.orchestrate: list / run / report, end to end."""

from __future__ import annotations

import json
import pathlib

from repro.orchestrate.__main__ import main


def run_cli(*argv) -> int:
    return main(list(argv))


def test_list_prints_the_whole_registry(capsys):
    assert run_cli("list") == 0
    out = capsys.readouterr().out
    for name in ("fig7", "fig9", "fig10", "suite", "table1"):
        assert name in out
    assert "Table 1: Simulated System" in out


def test_list_json_is_machine_readable(capsys):
    assert run_cli("list", "--json") == 0
    entries = json.loads(capsys.readouterr().out)
    by_name = {e["name"]: e for e in entries}
    assert by_name["suite"] == {
        "name": "suite", "title": "Suite matrix: IPC per workload x mode"}
    assert set(by_name["table1"]) == {"name", "title"}


def test_run_resume_report_flow(tmp_path, capsys):
    out = str(tmp_path / "runs")
    cache = str(tmp_path / "cache")
    base = ["run", "--experiment", "suite", "--workloads", "pointer_chase",
            "--scale", "0.05", "--out", out, "--cache-dir", cache,
            "--engine", "obj"]

    assert run_cli(*base) == 0
    printed = capsys.readouterr().out
    run_dir = tmp_path / "runs" / "suite" / "run-001"
    assert str(run_dir) in printed
    assert "pointer_chase" in printed

    # Resume re-simulates nothing and reports the same directory.
    assert run_cli(*base, "--resume") == 0
    resumed = capsys.readouterr().out
    assert str(run_dir) in resumed

    # report --experiment picks the latest run under --out.
    assert run_cli("report", "--experiment", "suite", "--out", out) == 0
    md = capsys.readouterr().out
    assert "pointer_chase" in md and "identity:" in md

    assert run_cli("report", "--run-dir", str(run_dir), "--json") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["experiment"] == "suite"
    assert report["identity"]["engine"] == "obj"


def test_resume_with_a_different_engine_is_an_error(tmp_path, capsys):
    out = str(tmp_path / "runs")
    base = ["run", "--experiment", "suite", "--workloads", "pointer_chase",
            "--scale", "0.05", "--out", out, "--no-cache"]
    assert run_cli(*base, "--engine", "obj") == 0
    capsys.readouterr()

    assert run_cli(*base, "--resume", "--engine", "array") == 1
    err = capsys.readouterr().err
    assert "identity mismatch" in err and "instance.engine" in err


def test_report_without_runs_is_an_error(tmp_path, capsys):
    assert run_cli("report", "--experiment", "suite",
                   "--out", str(tmp_path / "none")) == 1
    assert "no runs" in capsys.readouterr().err


def test_run_writes_cells_incrementally(tmp_path):
    out = str(tmp_path / "runs")
    assert run_cli("run", "--experiment", "suite", "--workloads",
                   "pointer_chase", "--scale", "0.05", "--out", out,
                   "--no-cache") == 0
    cells = list(pathlib.Path(out, "suite", "run-001", "cells").glob("*.json"))
    assert len(cells) == 2  # ooo + crisp
    for cell in cells:
        payload = json.loads(cell.read_text())
        assert payload["status"] == "done"
        assert payload["workload"] == "pointer_chase"


def test_resume_by_run_dir_rebuilds_the_experiment_from_its_manifest(
        tmp_path, capsys):
    out = str(tmp_path / "runs")
    assert run_cli("run", "--experiment", "suite", "--workloads",
                   "pointer_chase", "--scale", "0.05", "--out", out,
                   "--no-cache", "--engine", "obj") == 0
    run_dir = pathlib.Path(out, "suite", "run-001")
    victim = sorted((run_dir / "cells").glob("*.json"))[0]
    victim.unlink()
    capsys.readouterr()

    # No --experiment, scale, workloads or engine: all come from the
    # manifest, and only the missing cell is simulated.
    assert run_cli("run", "--resume", "--run-dir", str(run_dir),
                   "--no-cache") == 0
    printed = capsys.readouterr().out
    assert printed.count(": done") == 1
    assert victim.is_file()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["instance"]["engine"] == "obj"


def test_run_without_experiment_needs_resume_and_run_dir(tmp_path, capsys):
    assert run_cli("run", "--out", str(tmp_path / "runs")) == 1
    assert "--experiment" in capsys.readouterr().err


def test_workload_selection_on_a_fixed_workload_experiment_is_an_error(
        tmp_path, capsys, monkeypatch):
    """discussion_smt used to simulate its six SMT cells over the selected
    workload, then fail in ``table()`` with a KeyError and still exit 0."""
    import repro.parallel.executor

    def no_cells(*args, **kwargs):
        raise AssertionError("a rejected selection simulated a cell")

    monkeypatch.setattr(repro.parallel.executor, "run_cells", no_cells)
    out = tmp_path / "runs"
    assert run_cli("run", "--experiment", "discussion_smt", "--workloads",
                   "mcf", "--scale", "0.05", "--out", str(out),
                   "--no-cache") == 1
    err = capsys.readouterr().err
    assert "discussion_smt" in err and "fixed workload set" in err
    assert not out.exists()  # rejected before a run directory was made
