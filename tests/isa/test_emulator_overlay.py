"""The emulator reads through to the caller's memory image and never copies it.

Stores go to a private overlay. The caller's dict must come back unchanged,
and every trace must equal the one the emulator produced when it still
worked on a full copy of the image: the digests below were recorded with
that copying emulator.
"""

import hashlib

import pytest

from repro.isa import Asm, execute
from repro.workloads import get_workload

SCALE = 0.05

#: (workload, variant) -> trace digest recorded with the copying emulator.
COPYING_DIGESTS = {
    ("mcf", "train"): "a544387869ab9a708403a94f99edc20e3eb634fb1ee9a2aca8191654320e1897",
    ("mcf", "ref"): "af46b0176d79e8d80b79c3c3fbecbd8252d81295ae31a81f535ed9ace0177eee",
    ("xz", "train"): "19fefef44884878e8099c20dbf15372ef814138a8a564a813688d6dea1858093",
    ("xz", "ref"): "b25e1f644aa367c4a7725425fbad6515b701489253fd5c93657a6a889968f9fe",
    ("memcached", "train"): "cabf8a1ab6c6dee4dabcbffdd75a132f85a20f0b7f5345e8d947611383f3b424",
    ("memcached", "ref"): "9fb6a57aded61e9e36ca7453c2718e2dcab22a1b9fa906d711e3553671649dec",
    ("pointer_chase", "train"): "e4ba49b52b2bdcab3823aaa9a4f0151774f69e68fc9abaa7e24a886f28be6461",
    ("pointer_chase", "ref"): "dc7e05811465cd6255456062fd8f0d1d903a4ac543b5f20c8ba07125e0b44a46",
}


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for d in trace.insts:
        h.update(repr((d.pc, d.addr, d.taken, d.reg_srcs, d.mem_src)).encode())
    h.update(repr((trace.final_regs, trace.halted,
                   sorted(trace.exec_counts.items()))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,variant", sorted(COPYING_DIGESTS))
def test_trace_matches_copying_emulator_and_image_is_untouched(name, variant):
    workload = get_workload(name, variant, scale=SCALE)
    before = dict(workload.memory)
    trace = execute(workload.program, regs=workload.regs, memory=workload.memory)
    assert workload.memory == before
    assert trace_digest(trace) == COPYING_DIGESTS[(name, variant)]


def test_store_shadows_image_word_without_writing_it():
    a = Asm()
    a.movi("r1", 0x100)
    a.load("r2", "r1", 0)      # reads the image
    a.movi("r3", 5)
    a.store("r1", "r3", 0)     # shadows it in the overlay
    a.load("r4", "r1", 0)      # reads the overlay
    a.load("r5", "r1", 8)      # a word nobody wrote: the image again
    a.halt()
    image = {0x100 >> 3: 1, 0x108 >> 3: 7}
    trace = execute(a.build(), memory=image)
    assert trace.final_regs[2] == 1
    assert trace.final_regs[4] == 5
    assert trace.final_regs[5] == 7
    assert trace[4].mem_src == 3
    assert trace[5].mem_src == -1
    assert image == {0x100 >> 3: 1, 0x108 >> 3: 7}
