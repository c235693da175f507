"""The FDO flow is engine-independent: obj and array give the same profile.

The profiling pass runs on whichever cycle model is selected (array by
default), so the train-input ProfileReport — and every annotation derived
from it — must not depend on that choice.
"""

import pytest

from repro.core.fdo import run_crisp_flow
from repro.core.profiler import profile_workload
from repro.workloads import get_workload

SCALE = 0.1
WORKLOADS = ("mcf", "lbm", "xz", "memcached")


@pytest.mark.parametrize("name", WORKLOADS)
def test_profile_and_annotation_match_across_engines(name):
    train = get_workload(name, variant="train", scale=SCALE)
    obj, _ = profile_workload(train, engine="obj")
    arr, _ = profile_workload(train, engine="array")

    totals = ("total_insts", "total_cycles", "total_loads",
              "total_llc_load_misses", "ipc", "load_fraction")
    for field in totals:
        assert getattr(arr, field) == getattr(obj, field), field
    # Equal tables in equal order: classification breaks ties by order.
    for table in ("loads", "branches", "rob_head_stall_by_pc"):
        a, o = getattr(arr, table), getattr(obj, table)
        assert list(a.items()) == list(o.items()), table
    assert arr == obj

    flows = {engine: run_crisp_flow(name, scale=SCALE, engine=engine)
             for engine in ("obj", "array")}
    assert flows["array"].critical_pcs == flows["obj"].critical_pcs
    assert flows["obj"].critical_pcs
