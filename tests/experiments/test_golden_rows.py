"""Golden rows: the nine figure experiments that once ran outside the cell
path, plus fig7, reproduce their recorded tables bit-identically.

``golden_rows.json`` was recorded from the per-module implementations
before they became registered ``Experiment`` classes, at scale 0.1 and
with ``workloads=["mcf", "lbm"]`` wherever a selection applies. Both ways
of running an experiment must reproduce it exactly: in-process through
``run_experiment``, and into a run directory through ``execute_run``,
then re-rendered from disk by ``report_run``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments import run_experiment
from repro.orchestrate import execute_run, get_experiment, report_run

GOLDEN = json.loads(
    (pathlib.Path(__file__).with_name("golden_rows.json")).read_text())


def arguments(name: str) -> dict:
    """The constructor arguments the golden table was recorded with."""
    if name == "table1":
        return {}
    kwargs = {"scale": 0.1}
    if not get_experiment(name).fixed_workloads:
        kwargs["workloads"] = ["mcf", "lbm"]
    return kwargs


def as_json(table: dict) -> dict:
    """Round-trip through JSON, as the golden file was (tuples -> lists)."""
    return json.loads(json.dumps(
        {key: table[key] for key in ("title", "headers", "rows", "notes")}))


def test_golden_covers_the_ported_experiments_and_fig7():
    assert sorted(GOLDEN) == sorted([
        "table1", "fig1", "sec31", "fig4", "fig7", "fig8", "fig11", "fig12",
        "discussion_division", "ablation_sampling",
    ])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_experiment_matches_golden_rows(name):
    result = run_experiment(name, **arguments(name))
    assert as_json(vars(result)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_execute_run_and_report_run_match_golden_rows(name, tmp_path):
    summary = execute_run(get_experiment(name)(**arguments(name)),
                          out=tmp_path / "runs")
    assert summary["failed"] == 0
    assert as_json(vars(summary["figure"])) == GOLDEN[name]
    report = report_run(summary["run_dir"])
    assert as_json(report["figure"]) == GOLDEN[name]
