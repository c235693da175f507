"""Co-runs build and emulate each distinct input once, with unchanged results.

Three identical antagonists next to one victim are two inputs: the victim's
and the antagonist's. Every core running the same input reads one shared
trace. The cell digests below were recorded before inputs were shared, so
sharing is proven not to change any simulated result on either engine.
"""

import hashlib
import json

import pytest

import repro.workloads
import repro.workloads.base
from repro.multicore import corun_cell
from repro.multicore.cells import run_corun_cell

SCALE = 0.1
ANTAGONIST = "gen:pcd4,mlp2,ent0.50,ws256,sl3,lf0.30#0"

#: mix -> sha256 of the co-run cell payload (stats + per-core + multicore).
GOLDEN = {
    f"pointer_chase+{ANTAGONIST}+{ANTAGONIST}+{ANTAGONIST}":
        "ac28d2cb5a8fc40c1a1ebf2fa888888e362d263e2d93c9930574a8154fc5b6db",
    f"pointer_chase@crisp+{ANTAGONIST}+{ANTAGONIST}+{ANTAGONIST}":
        "981fd1184cc7552301f5f7945f1cf45be9bcaf4f7df4eb9c0daa59412783041d",
}
OOO_MIX, CRISP_MIX = GOLDEN


def cell_digest(mix: str, engine: str) -> str:
    payload = run_corun_cell(corun_cell(mix, scale=SCALE, engine=engine))
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("engine", ["obj", "array"])
@pytest.mark.parametrize("mix", list(GOLDEN))
def test_corun_digest_matches_recorded(mix, engine):
    assert cell_digest(mix, engine) == GOLDEN[mix]


def test_identical_antagonists_are_built_and_emulated_once(monkeypatch):
    builds, emulations = [], []
    real_build = repro.workloads.get_workload
    real_execute = repro.workloads.base.execute

    def counting_build(name, *args, **kwargs):
        builds.append(name)
        return real_build(name, *args, **kwargs)

    def counting_execute(*args, **kwargs):
        emulations.append(1)
        return real_execute(*args, **kwargs)

    monkeypatch.setattr(repro.workloads, "get_workload", counting_build)
    monkeypatch.setattr(repro.workloads.base, "execute", counting_execute)
    assert cell_digest(OOO_MIX, "array") == GOLDEN[OOO_MIX]
    assert sorted(builds) == sorted(["pointer_chase", ANTAGONIST])
    assert len(emulations) == 2
