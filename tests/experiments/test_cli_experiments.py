"""The experiments CLI (`python -m repro.experiments`)."""

import pytest

from repro.experiments.__main__ import main


def test_table1_via_cli(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "224 entries" in out


def test_workload_filter_via_cli(capsys):
    assert main(["fig11", "--scale", "0.25", "--workloads", "mcf"]) == 0
    out = capsys.readouterr().out
    table = out.split("note:")[0]  # footer notes may mention other apps
    assert "mcf" in table
    assert "moses" not in table


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_scale_flag_passes_through(capsys):
    assert main(["sec31", "--scale", "0.3"]) == 0
    assert "manual __builtin_prefetch" in capsys.readouterr().out


def test_all_skips_the_selection_for_fixed_workload_experiments(
        capsys, monkeypatch):
    import repro.experiments.__main__ as cli

    monkeypatch.setattr(cli, "figure_names", lambda: ["fig11", "table1"])
    assert main(["all", "--scale", "0.25", "--workloads", "mcf"]) == 0
    out = capsys.readouterr().out
    assert "224 entries" in out  # table1 ran without the selection
    assert "moses" not in out.split("note:")[0]  # fig11 honoured it


def test_selection_on_one_fixed_workload_experiment_is_an_error(capsys):
    assert main(["discussion_smt", "--workloads", "mcf"]) == 1
    assert "fixed workload set" in capsys.readouterr().err
