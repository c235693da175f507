"""Golden workload-image digests: builders must reproduce images exactly.

Every registered analogue and two generated specs are built for the
``train``, ``ref`` and ``ref#1`` inputs, and each image (program, initial
registers, memory in insertion order) is hashed and compared with the table
in ``golden_images.json``. A changed digest means simulated results and
cached cells no longer match what older code produced.

Re-record after an *intended* image change (and bump the cache schema):

    PYTHONPATH=src python -m tests.workloads.test_golden_images --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.workloads import REGISTRY, get_workload

GOLDEN = Path(__file__).with_name("golden_images.json")
SCALE = 0.05
VARIANTS = ("train", "ref", "ref#1")
GENERATED = (
    "gen:pcd4,mlp2,ent0.50,ws256,sl3,lf0.30#0",
    "gen:pcd1,mlp4,ent0.10,ws4096,sl3,lf0.60#0",
)


def image_digest(workload) -> str:
    """sha256 over program, regs and memory items in insertion order."""
    h = hashlib.sha256()
    program = [
        (i.opcode.value, i.dst, i.src1, i.src2, i.imm, i.target)
        for i in workload.program
    ]
    # Label names are not part of the image (dispatch trees derive them
    # from object ids); branch targets are already in the instructions.
    h.update(repr(program).encode())
    h.update(repr(list(workload.regs.items())).encode())
    h.update(repr(list(workload.memory.items())).encode())
    return h.hexdigest()


def cases() -> list[tuple[str, str]]:
    names = REGISTRY.names() + list(GENERATED)
    return [(name, variant) for name in names for variant in VARIANTS]


def compute(name: str, variant: str) -> str:
    return image_digest(get_workload(name, variant=variant, scale=SCALE))


def _key(name: str, variant: str) -> str:
    return f"{name}/{variant}"


def test_golden_table_covers_every_workload():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(_key(n, v) for n, v in cases())


@pytest.mark.parametrize("name,variant", cases())
def test_image_matches_golden(name, variant):
    golden = json.loads(GOLDEN.read_text())
    assert compute(name, variant) == golden[_key(name, variant)], (
        f"{name} ({variant}) builds a different image than recorded. If the "
        "change is intended, bump CACHE_SCHEMA_VERSION in "
        "repro/parallel/cellkey.py (or GENERATOR_VERSION in "
        "repro/workgen/spec.py for gen: workloads) "
        "and re-record: PYTHONPATH=src python -m "
        "tests.workloads.test_golden_images --record"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.workloads.test_golden_images --record")
    table = {_key(n, v): compute(n, v) for n, v in cases()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} image digests to {GOLDEN}")
