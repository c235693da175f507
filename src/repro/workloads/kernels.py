"""Reusable data-structure builders and assembly idioms for workloads.

These helpers construct the *memory images* (linked lists, hash tables,
index arrays, grids) whose layout determines cache behaviour, plus a few
assembly emission idioms shared across workloads (stack spill/reload,
vector sweeps). Node placement is randomised so that no hardware prefetcher
(BOP, stream, stride, GHB) can predict successor addresses -- the defining
property of the "hard-to-prefetch" loads CRISP targets.
"""

from __future__ import annotations

import random

from ..isa.assembler import Asm


def build_linked_list(
    memory: dict[int, int],
    rng: random.Random,
    *,
    base: int,
    num_nodes: int,
    node_stride: int = 256,
    value_words: int = 1,
) -> list[int]:
    """Materialise a randomly-placed singly linked list; returns node addresses.

    Node layout: word 0 = next pointer (0 terminates), words 1.. = payload.
    ``node_stride`` spaces node slots so consecutive list elements land on
    unrelated cache lines/pages; slots are shuffled so traversal order is
    uncorrelated with address order.
    """
    slots = list(range(num_nodes))
    rng.shuffle(slots)
    addrs = [base + slot * node_stride for slot in slots]
    for i, addr in enumerate(addrs):
        memory[addr >> 3] = addrs[i + 1] if i + 1 < num_nodes else 0
        for w in range(value_words):
            memory[(addr + 8 * (w + 1)) >> 3] = rng.randrange(1, 1 << 16)
    return addrs


def build_offset_cycle(
    memory: dict[int, int],
    rng: random.Random,
    *,
    base: int,
    num_slots: int,
    stride: int = 320,
    value_words: int = 1,
) -> list[int]:
    """Materialise an index-linked traversal cycle; returns the visit order.

    Slot ``v`` lives at ``base + v*stride``; word 0 holds the *index* of the
    successor slot (not a pointer), words 1.. hold payload. The successor
    address must therefore be computed (``base + next*stride``) -- a short,
    genuine address-generation slice, like mcf's arc indices -- and the
    indices form one full-length random cycle, so traversal order is
    unpredictable to any hardware prefetcher.

    The returned list is the traversal order (``order[0]`` is the start
    index); callers use it to attach traversal-correlated payloads (e.g.
    clustered node kinds that a branch predictor can learn).
    """
    order = list(range(num_slots))
    rng.shuffle(order)
    for i, v in enumerate(order):
        addr = base + v * stride
        memory[addr >> 3] = order[(i + 1) % num_slots]
        for w in range(value_words):
            memory[(addr + 8 * (w + 1)) >> 3] = rng.randrange(1, 1 << 16)
    return order


def build_array(
    memory: dict[int, int],
    *,
    base: int,
    num_words: int,
    value=lambda i: 0,
) -> None:
    """Initialise a dense array of 8-byte words at ``base``."""
    first = base >> 3
    memory.update(zip(range(first, first + num_words), map(value, range(num_words))))


def random_words(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """Exactly ``[rng.randrange(lo, hi) for _ in range(count)]``, faster.

    CPython's ``randrange`` draws ``getrandbits(k)`` with ``k`` the bit
    length of the width and rejects draws at or above the width; running
    that loop inline skips the per-call argument checks, so the returned
    list *and* the generator state afterwards match the ``randrange`` list
    comprehension bit for bit (workload images stay identical).
    """
    width = hi - lo
    if width <= 0:
        raise ValueError(f"empty range for random_words ({lo}, {hi})")
    k = width.bit_length()
    getrandbits = rng.getrandbits
    out = []
    append = out.append
    for _ in range(count):
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        append(lo + r)
    return out


def build_random_array(
    memory: dict[int, int],
    rng: random.Random,
    *,
    base: int,
    num_words: int,
    lo: int = 0,
    hi: int,
) -> None:
    """Dense array of ``rng.randrange(lo, hi)`` words at ``base``.

    Same image, in the same insertion order, as ``build_array`` with a
    ``randrange`` value function, filled with one ``dict.update``.
    """
    first = base >> 3
    memory.update(
        zip(range(first, first + num_words), random_words(rng, lo, hi, num_words))
    )


def build_index_array(
    memory: dict[int, int],
    rng: random.Random,
    *,
    base: int,
    num_entries: int,
    target_entries: int,
) -> None:
    """Random permutation-ish index array for A[B[i]] gather patterns."""
    build_random_array(
        memory, rng, base=base, num_words=num_entries, hi=target_entries
    )


def build_hash_buckets(
    memory: dict[int, int],
    rng: random.Random,
    *,
    bucket_base: int,
    num_buckets: int,
    node_base: int,
    num_nodes: int,
    node_stride: int = 128,
    chain_length: int = 2,
    value_words: int = 1,
) -> None:
    """Hash table: bucket array of head pointers + randomly placed chain nodes."""
    slots = list(range(num_nodes))
    rng.shuffle(slots)
    addrs = [node_base + slot * node_stride for slot in slots]
    next_node = 0
    for b in range(num_buckets):
        head = 0
        links = min(chain_length, num_nodes - next_node)
        chain = []
        for _ in range(links):
            chain.append(addrs[next_node])
            next_node += 1
        for i, addr in enumerate(chain):
            memory[addr >> 3] = chain[i + 1] if i + 1 < len(chain) else 0
            for w in range(value_words):
                memory[(addr + 8 * (w + 1)) >> 3] = rng.randrange(1, 1 << 16)
        head = chain[0] if chain else 0
        memory[(bucket_base + 8 * b) >> 3] = head
        if next_node >= num_nodes:
            next_node = 0


def emit_spill(asm: Asm, value_reg: str, slot: int) -> None:
    """Spill ``value_reg`` to stack slot ``slot`` (dependence through memory).

    This is the Figure 3 pattern (``mov %rax,-0x8(%rbp)``): values that flow
    through the stack are invisible to register-only IBDA but visible to
    CRISP's trace-based slicer.
    """
    asm.store("sp", value_reg, 8 * slot)


def emit_reload(asm: Asm, dest_reg: str, slot: int) -> None:
    """Reload a spilled value from stack slot ``slot``."""
    asm.load(dest_reg, "sp", 8 * slot)


def emit_lcg(asm: Asm, reg: str, *, mult: int = 6364136223846793005, inc: int = 1442695040888963407, mask_bits: int = 30) -> None:
    """Emit a linear-congruential step: ``reg = (reg * a + c) & mask``.

    Three dependent ALU ops; used by hash-probe workloads to synthesise
    keys whose derivation forms a genuine address-generating slice.
    """
    asm.muli(reg, reg, mult & 0xFFFF)  # keep immediates small; period is ample
    asm.addi(reg, reg, inc & 0xFFFF)
    asm.andi(reg, reg, (1 << mask_bits) - 1)


def emit_dispatch_tree(
    asm: Asm,
    value_reg: str,
    handlers: list[str],
    *,
    tmp_reg: str = "r27",
    lo: int = 0,
    hi: int | None = None,
    _prefix: str | None = None,
) -> None:
    """Emit a balanced compare-branch tree dispatching on ``value_reg``.

    ``handlers[i]`` is jumped to when the register holds ``i`` (values must
    span ``0 .. len(handlers)-1``). This is the interpreter-dispatch idiom
    (perlbench/gcc analogues): a chain of data-dependent conditional
    branches whose outcomes track the opcode stream, i.e. hard to predict
    when the stream is irregular.
    """
    if hi is None:
        hi = lo + len(handlers) - 1
    if _prefix is None:
        _prefix = f"disp{id(handlers) & 0xFFFF}_{lo}_{hi}"
    if lo == hi:
        asm.jmp(handlers[lo])
        return
    span = hi - lo
    mid = lo + span // 2 + 1
    right_label = f"{_prefix}_r{lo}_{hi}"
    asm.movi(tmp_reg, mid)
    asm.bge(value_reg, tmp_reg, right_label)
    emit_dispatch_tree(
        asm, value_reg, handlers, tmp_reg=tmp_reg, lo=lo, hi=mid - 1, _prefix=_prefix
    )
    asm.label(right_label)
    emit_dispatch_tree(
        asm, value_reg, handlers, tmp_reg=tmp_reg, lo=mid, hi=hi, _prefix=_prefix
    )


def emit_reload_burst(
    asm: Asm,
    *,
    slot: int,
    reloads: int,
    consumers: int = 0,
    out_base: str = "r10",
    tmp_base: int = 16,
    tmp_count: int = 8,
) -> None:
    """Emit a load-heavy consumer burst gated on stack slot ``slot``.

    ``reloads`` loads re-read the spilled value (dependence through memory,
    store-to-load forwarded), followed by ``consumers`` multiply+store
    pairs. Everything here becomes ready in the cycles right after the
    producing miss returns, competing with the *next* critical load for the
    two load ports -- the contention window the CRISP scheduler wins
    (Figures 1/3; Section 3.1). The burst is unrolled straight-line code:
    real compilers unroll exactly these hot inner loops.
    """
    for b in range(reloads):
        asm.load(f"r{tmp_base + (b % tmp_count)}", "sp", 8 * slot)
    for b in range(consumers):
        reg = f"r{tmp_base + (b % tmp_count)}"
        asm.mul(reg, reg, reg)
        asm.store(out_base, reg, (b % 16) * 8)


def emit_vector_mac(
    asm: Asm,
    *,
    label: str,
    ptr_reg: str,
    end_reg: str,
    scalar_reg: str,
    tmp_reg: str = "r20",
    reload_slot: int | None = None,
    reload_reg: str = "r21",
) -> None:
    """Emit ``for each elem: elem *= scalar`` over [ptr, end).

    When ``reload_slot`` is given, the scalar is re-read from the stack each
    element (the x86 memory-operand idiom of Figure 3's ``imul``), producing
    load-port work that only becomes ready once the scalar's producer
    completes -- the contention CRISP's scheduler resolves in favour of the
    critical load.
    """
    asm.label(label)
    asm.load(tmp_reg, ptr_reg, 0)
    if reload_slot is not None:
        emit_reload(asm, reload_reg, reload_slot)
        asm.mul(tmp_reg, tmp_reg, reload_reg)
    else:
        asm.mul(tmp_reg, tmp_reg, scalar_reg)
    asm.store(ptr_reg, tmp_reg, 0)
    asm.addi(ptr_reg, ptr_reg, 8)
    asm.blt(ptr_reg, end_reg, label)
