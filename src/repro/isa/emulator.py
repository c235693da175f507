"""Functional emulator: executes a program and records a dynamic trace.

The emulator is the reproduction's stand-in for running the real binary.
Its output, an :class:`ExecutionTrace`, plays two roles:

1. It is the *dynamic instruction stream* the cycle-level timing model
   (:mod:`repro.uarch.pipeline`) replays, including effective addresses and
   branch outcomes.
2. It is the *instruction trace with memory dependencies* that CRISP's
   software slice extraction consumes (the paper uses DynamoRIO memtrace, or
   Intel PT with PTWrite for memory dependencies -- Section 3.3).

Dependencies are recorded exactly: for every dynamic instruction we store
the sequence numbers of the dynamic producers of each register source, and
for loads additionally the producing store (``mem_src``), which is how
dependencies flow *through memory* -- e.g. a value spilled to the stack and
reloaded, the case that defeats register-only hardware IBDA (Figure 3,
line 31 in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .instruction import DynInst, StaticInst
from .opcodes import (
    ALU_FUNCTIONS,
    BRANCH_CONDITIONS,
    IMMEDIATE_ALU_OPS,
    Opcode,
)
from .program import Program
from .registers import NUM_REGS


class EmulationError(Exception):
    """Raised on illegal execution (bad PC, stack underflow)."""


class EmulationLimitError(EmulationError):
    """Raised when the dynamic instruction limit is exceeded."""


@dataclass
class ExecutionTrace:
    """The result of functionally executing a program.

    ``insts`` is the full dynamic instruction stream in program order.
    """

    program: Program
    insts: list[DynInst]
    final_regs: list[int]
    halted: bool
    exec_counts: dict[int, int] = field(default_factory=dict)
    # Lazy per-PC index: pc -> positions in ``insts``. Built on the first
    # ``instances_of`` call (one scan) and shared with ``dynamic_count``,
    # so repeated per-PC queries never rescan the dynamic stream.
    _pc_index: dict[int, list[int]] | None = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.insts)

    def __iter__(self):
        return iter(self.insts)

    def __getitem__(self, seq: int) -> DynInst:
        return self.insts[seq]

    def pc_index(self) -> dict[int, list[int]]:
        """The per-PC position index, built lazily on first use."""
        if self._pc_index is None:
            index: dict[int, list[int]] = {}
            for pos, d in enumerate(self.insts):
                index.setdefault(d.pc, []).append(pos)
            self._pc_index = index
        return self._pc_index

    def dynamic_count(self, pc: int) -> int:
        """Number of times static instruction ``pc`` executed."""
        if self.exec_counts:
            return self.exec_counts.get(pc, 0)
        # Hand-built traces (tests) may omit exec_counts; fall back to the
        # same lazy index instances_of uses.
        return len(self.pc_index().get(pc, ()))

    def instances_of(self, pc: int) -> list[DynInst]:
        """All dynamic instances of static instruction ``pc`` (in order)."""
        insts = self.insts
        return [insts[pos] for pos in self.pc_index().get(pc, ())]

    def pc_after(self, seq: int) -> int:
        """Static PC of the instruction that follows position ``seq``.

        Sampled simulation replays sub-ranges of a trace; a
        :class:`~repro.sampling.intervals.TraceSlice` overrides this to
        answer for its boundary instruction from the parent trace.
        """
        return self.insts[seq + 1].pc


def execute(
    program: Program,
    *,
    regs: dict[int, int] | None = None,
    memory: dict[int, int] | None = None,
    max_insts: int = 5_000_000,
) -> ExecutionTrace:
    """Functionally execute ``program`` and return its dynamic trace.

    Parameters
    ----------
    regs:
        Initial architectural register values, ``{reg_index: value}``.
    memory:
        Initial memory image keyed by *word* address (byte address >> 3).
        The dict is never mutated and never copied: stores go to a private
        overlay that loads consult first, reading through to the image for
        words the program has not written.
    max_insts:
        Safety bound on the number of dynamic instructions.
    """
    reg_file = [0] * NUM_REGS
    for idx, value in (regs or {}).items():
        reg_file[idx] = value
    image: dict[int, int] = memory if memory is not None else {}
    stored: dict[int, int] = {}

    # Producer tracking for dependence links.
    reg_writer = [-1] * NUM_REGS
    mem_writer: dict[int, int] = {}

    trace: list[DynInst] = []
    exec_counts: dict[int, int] = {}
    call_stack: list[int] = []
    pc = 0
    n = len(program)
    halted = False

    while True:
        if not 0 <= pc < n:
            raise EmulationError(f"PC out of range: {pc}")
        if len(trace) >= max_insts:
            raise EmulationLimitError(
                f"dynamic instruction limit ({max_insts}) exceeded at pc={pc}"
            )
        sinst: StaticInst = program[pc]
        op = sinst.opcode
        seq = len(trace)
        exec_counts[pc] = exec_counts.get(pc, 0) + 1

        if op is Opcode.HALT:
            trace.append(DynInst(seq, sinst))
            halted = True
            break

        addr = -1
        taken: bool | None = None
        mem_src = -1
        reg_srcs: tuple[int, ...] = ()
        next_pc = pc + 1

        if op is Opcode.MOVI:
            reg_file[sinst.dst] = sinst.imm
            reg_writer[sinst.dst] = seq
        elif op is Opcode.MOV:
            reg_srcs = (reg_writer[sinst.src1],)
            reg_file[sinst.dst] = reg_file[sinst.src1]
            reg_writer[sinst.dst] = seq
        elif op in ALU_FUNCTIONS:
            a = reg_file[sinst.src1]
            if op in IMMEDIATE_ALU_OPS:
                b = sinst.imm
                reg_srcs = (reg_writer[sinst.src1],)
            else:
                b = reg_file[sinst.src2]
                reg_srcs = (reg_writer[sinst.src1], reg_writer[sinst.src2])
            reg_file[sinst.dst] = ALU_FUNCTIONS[op](a, b)
            reg_writer[sinst.dst] = seq
        elif op is Opcode.LOAD or op is Opcode.LOAD_IDX:
            addr = reg_file[sinst.src1] + sinst.imm
            if op is Opcode.LOAD_IDX:
                addr += reg_file[sinst.src2]
                reg_srcs = (reg_writer[sinst.src1], reg_writer[sinst.src2])
            else:
                reg_srcs = (reg_writer[sinst.src1],)
            word = addr >> 3
            mem_src = mem_writer.get(word, -1)
            if mem_src < 0:
                reg_file[sinst.dst] = image.get(word, 0)
            else:
                reg_file[sinst.dst] = stored[word]
            reg_writer[sinst.dst] = seq
        elif op is Opcode.STORE or op is Opcode.STORE_IDX:
            addr = reg_file[sinst.src1] + sinst.imm
            if op is Opcode.STORE_IDX:
                addr += reg_file[sinst.src2]
                reg_srcs = (
                    reg_writer[sinst.src1],
                    reg_writer[sinst.src2],
                    reg_writer[sinst.dst],
                )
            else:
                reg_srcs = (reg_writer[sinst.src1], reg_writer[sinst.dst])
            word = addr >> 3
            stored[word] = reg_file[sinst.dst]
            mem_writer[word] = seq
        elif op is Opcode.PREFETCH:
            addr = reg_file[sinst.src1] + sinst.imm
            reg_srcs = (reg_writer[sinst.src1],)
        elif op in BRANCH_CONDITIONS:
            a = reg_file[sinst.src1]
            b = reg_file[sinst.src2]
            reg_srcs = (reg_writer[sinst.src1], reg_writer[sinst.src2])
            taken = BRANCH_CONDITIONS[op](a, b)
            if taken:
                next_pc = sinst.target
        elif op is Opcode.JMP:
            taken = True
            next_pc = sinst.target
        elif op is Opcode.CALL:
            taken = True
            call_stack.append(pc + 1)
            next_pc = sinst.target
        elif op is Opcode.RET:
            taken = True
            if not call_stack:
                raise EmulationError(f"RET with empty call stack at pc={pc}")
            next_pc = call_stack.pop()
        elif op is Opcode.NOP:
            pass
        else:  # pragma: no cover - enum is exhaustive
            raise EmulationError(f"unhandled opcode {op}")

        trace.append(DynInst(seq, sinst, addr=addr, taken=taken, reg_srcs=reg_srcs, mem_src=mem_src))
        pc = next_pc

    return ExecutionTrace(
        program=program,
        insts=trace,
        final_regs=reg_file,
        halted=halted,
        exec_counts=exec_counts,
    )
