"""fig8, fig12 and discussion_division on the cell path.

fig8 and fig12 lower to the same ooo/crisp cells as fig7 (one offline FDO
step per train input, Figure 5 of the paper), and discussion_division
pins its stall-root annotation on div_chain cells, so all three share
profiles within a run, share cells across experiments through the result
cache, and agree across the two cycle-model engines.
"""

from __future__ import annotations

import pytest

import repro.core.fdo
from repro.experiments import run_experiment
from repro.orchestrate import get_experiment
from repro.parallel import ResultCache

SCALE = 0.1
WORKLOADS = ["mcf", "lbm"]


def test_fig8_profiles_each_train_input_once(monkeypatch):
    """Three slice-kind variants per workload, one train profile each."""
    calls = []
    real = repro.core.fdo.profile_workload

    def profile(workload, *args, **kwargs):
        calls.append(workload.name)
        return real(workload, *args, **kwargs)

    monkeypatch.setattr(repro.core.fdo, "profile_workload", profile)
    run_experiment("fig8", scale=SCALE, workloads=WORKLOADS)
    assert sorted(calls) == ["lbm", "mcf"]


def test_fig8_combined_is_the_fig7_crisp_cell():
    fig7 = get_experiment("fig7")(scale=SCALE, workloads=["mcf"],
                                  modes=("crisp",))
    fig8 = get_experiment("fig8")(scale=SCALE, workloads=["mcf"])
    keys7 = {cell.instance.name: cell.key for cell in fig7.plan()}
    keys8 = {cell.instance.name: cell.key for cell in fig8.plan()}
    assert keys8["combined"] == keys7["crisp"]
    assert keys8["ooo"] == keys7["ooo"]


def test_fig12_after_fig7_simulates_nothing(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    get_experiment("fig7")(scale=SCALE, workloads=WORKLOADS,
                           modes=("crisp",)).run_inline(cache=cache)
    misses = cache.stats.misses
    get_experiment("fig12")(scale=SCALE, workloads=WORKLOADS).run_inline(
        cache=cache)
    assert cache.stats.misses == misses
    assert cache.stats.hits == 2 * len(WORKLOADS)


@pytest.mark.parametrize("name", ["fig8", "fig12", "discussion_division"])
def test_rows_agree_across_engines(name):
    kwargs = {"scale": SCALE}
    if not get_experiment(name).fixed_workloads:
        kwargs["workloads"] = WORKLOADS
    rows = {
        engine: get_experiment(name)(**kwargs).run_inline(engine=engine).rows
        for engine in ("obj", "array")
    }
    assert rows["obj"] == rows["array"]
