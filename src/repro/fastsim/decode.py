"""Per-program static decode tables for the fast cycle-level engines.

The reference pipelines (:mod:`repro.pipeline`, :mod:`repro.multipath`)
re-derive per-instruction facts on every dispatch: ``source_regs`` and
``dest_reg`` rebuild operand tuples, ``exec_latency`` probes a dict, and
:func:`repro.emu.exec_core.execute` walks a ~30-arm ``if`` chain to find
the opcode's semantics. All of that is a pure function of the *static*
instruction, so the fast engines hoist it out of the per-cycle loop:
one :class:`DecodeTable` per :class:`~repro.isa.program.Program` holds
flat, index-parallel columns (``is_control``, ``dest``, sources,
latency, ...) plus two **function tables** mapping each instruction to
the handler of its opcode. Executing instruction ``i`` is then a single
indexed call, ``exec_fns[i](text[i], pc, ...)``, with no decode work
left inside the engine's inner loop.

Two handler families exist because the two pipeline models speculate
differently:

* :attr:`DecodeTable.exec_fns` — single-path semantics: register and
  memory writes apply immediately against a flat register list and a
  sparse memory dict, logging undo records *bit-identical* to
  :meth:`repro.emu.machine_state.MachineState.write_reg` /
  ``write_mem`` so recovery rewinds restore exactly the same state.
* :attr:`DecodeTable.exec_fns_mp` — multipath semantics: register
  writes log undo records against the path's private register file,
  loads read through a caller-supplied forwarding function, and stores
  *capture* their value for commit-time application instead of writing
  memory (mirroring ``repro.multipath.cpu._PathState``).

Handlers are shared module functions, one per opcode, that read their
operands from the instruction they are handed, so a table holds no
per-instruction closures. Every column is a function of the opcode
except the register columns, so the per-program part of a table packs
into four bytes per instruction: the opcode id and the ``dest``,
``src1`` and ``src2`` registers. That packed form is computed once per
program and kept while the program lives; a table's Python lists are
expanded from it in well under a millisecond. Only the most recently
used table is kept: a sweep of many configs over one workload reuses
it, and a process that cycles through many programs (the table
builders revisit every benchmark once per table, the throughput bench
once per pass) re-expands cheaply instead of holding a full table for
every program it has seen.

Parity note: every handler replicates one arm of
:func:`repro.emu.exec_core.execute` exactly — same masking, same
signedness, same undo record layout. The differential harness in
:mod:`repro.fastsim.parity` holds that line.
"""

from __future__ import annotations

import weakref
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from repro.emu.machine_state import MASK64, SIGN_BIT
from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    ControlClass,
    Opcode,
    REG_RA,
    WORD_SIZE,
    control_class,
)
from repro.isa.program import Program
from repro.pipeline.inflight import dest_reg, exec_latency, source_regs

#: Single-path handler: ``f(inst, pc, regs, memory, undo)`` applies the
#: instruction and returns ``(next_pc, taken, mem_address)``.
ExecFn = Callable[
    [Instruction, int, List[int], Dict[int, int], list],
    Tuple[int, bool, Optional[int]],
]

#: Multipath handler: ``f(inst, pc, regs, load_fn, undo)`` returns
#: ``(next_pc, taken, mem_address, store_value)``; stores are captured,
#: never applied (the multipath LSQ buffers them until commit).
ExecFnMp = Callable[
    [Instruction, int, List[int], Callable[[int], int], list],
    Tuple[int, bool, Optional[int], Optional[int]],
]


def _signed(value: int) -> int:
    return value - (1 << 64) if value & SIGN_BIT else value


# ----------------------------------------------------------------------
# Single-path handlers (immediate register/memory writes with
# MachineState-identical undo records).

def _build_exec(op: Opcode) -> ExecFn:
    """The single-path handler of ``op``; it reads the operand fields
    from the instruction it is handed."""
    # Each handler below inlines write_reg semantics (r0 hard-wired,
    # undo logs the old value) rather than calling a helper: one call
    # frame per executed instruction is measurable at engine scale.
    if op is Opcode.ADDI:
        def fn(inst, pc, regs, mem, undo):
            rd = inst.rd
            if rd:
                undo.append(("r", rd, regs[rd]))
                regs[rd] = (regs[inst.rs] + inst.imm) & MASK64
            return pc + WORD_SIZE, False, None
    elif op is Opcode.LI:
        def fn(inst, pc, regs, mem, undo):
            rd = inst.rd
            if rd:
                undo.append(("r", rd, regs[rd]))
                regs[rd] = inst.imm & MASK64
            return pc + WORD_SIZE, False, None
    elif op is Opcode.ANDI:
        def fn(inst, pc, regs, mem, undo):
            rd = inst.rd
            if rd:
                undo.append(("r", rd, regs[rd]))
                regs[rd] = (regs[inst.rs] & (inst.imm & MASK64)) & MASK64
            return pc + WORD_SIZE, False, None
    elif op is Opcode.XORI:
        def fn(inst, pc, regs, mem, undo):
            rd = inst.rd
            if rd:
                undo.append(("r", rd, regs[rd]))
                regs[rd] = (regs[inst.rs] ^ (inst.imm & MASK64)) & MASK64
            return pc + WORD_SIZE, False, None
    elif op is Opcode.SLLI:
        def fn(inst, pc, regs, mem, undo):
            rd = inst.rd
            if rd:
                undo.append(("r", rd, regs[rd]))
                regs[rd] = (regs[inst.rs] << (inst.imm & 63)) & MASK64
            return pc + WORD_SIZE, False, None
    elif op is Opcode.SRLI:
        def fn(inst, pc, regs, mem, undo):
            rd = inst.rd
            if rd:
                undo.append(("r", rd, regs[rd]))
                regs[rd] = (regs[inst.rs] >> (inst.imm & 63)) & MASK64
            return pc + WORD_SIZE, False, None
    elif op is Opcode.ADD:
        def fn(inst, pc, regs, mem, undo):
            rd = inst.rd
            if rd:
                undo.append(("r", rd, regs[rd]))
                regs[rd] = (regs[inst.rs] + regs[inst.rt]) & MASK64
            return pc + WORD_SIZE, False, None
    elif op is Opcode.SUB:
        def fn(inst, pc, regs, mem, undo):
            rd = inst.rd
            if rd:
                undo.append(("r", rd, regs[rd]))
                regs[rd] = (regs[inst.rs] - regs[inst.rt]) & MASK64
            return pc + WORD_SIZE, False, None
    elif op is Opcode.AND:
        def fn(inst, pc, regs, mem, undo):
            rd = inst.rd
            if rd:
                undo.append(("r", rd, regs[rd]))
                regs[rd] = (regs[inst.rs] & regs[inst.rt]) & MASK64
            return pc + WORD_SIZE, False, None
    elif op is Opcode.OR:
        def fn(inst, pc, regs, mem, undo):
            rd = inst.rd
            if rd:
                undo.append(("r", rd, regs[rd]))
                regs[rd] = (regs[inst.rs] | regs[inst.rt]) & MASK64
            return pc + WORD_SIZE, False, None
    elif op is Opcode.XOR:
        def fn(inst, pc, regs, mem, undo):
            rd = inst.rd
            if rd:
                undo.append(("r", rd, regs[rd]))
                regs[rd] = (regs[inst.rs] ^ regs[inst.rt]) & MASK64
            return pc + WORD_SIZE, False, None
    elif op is Opcode.SLL:
        def fn(inst, pc, regs, mem, undo):
            rd = inst.rd
            if rd:
                undo.append(("r", rd, regs[rd]))
                regs[rd] = (regs[inst.rs] << (regs[inst.rt] & 63)) & MASK64
            return pc + WORD_SIZE, False, None
    elif op is Opcode.SRL:
        def fn(inst, pc, regs, mem, undo):
            rd = inst.rd
            if rd:
                undo.append(("r", rd, regs[rd]))
                regs[rd] = (regs[inst.rs] >> (regs[inst.rt] & 63)) & MASK64
            return pc + WORD_SIZE, False, None
    elif op is Opcode.SLT:
        def fn(inst, pc, regs, mem, undo):
            rd = inst.rd
            if rd:
                undo.append(("r", rd, regs[rd]))
                regs[rd] = (1 if _signed(regs[inst.rs]) < _signed(regs[inst.rt])
                            else 0)
            return pc + WORD_SIZE, False, None
    elif op is Opcode.MUL:
        def fn(inst, pc, regs, mem, undo):
            rd = inst.rd
            if rd:
                undo.append(("r", rd, regs[rd]))
                regs[rd] = (regs[inst.rs] * regs[inst.rt]) & MASK64
            return pc + WORD_SIZE, False, None
    elif op is Opcode.LOAD:
        def fn(inst, pc, regs, mem, undo):
            address = (regs[inst.rs] + inst.imm) & MASK64
            rd = inst.rd
            if rd:
                undo.append(("r", rd, regs[rd]))
                regs[rd] = (mem.get(address, 0)) & MASK64
            return pc + WORD_SIZE, False, address
    elif op is Opcode.STORE:
        def fn(inst, pc, regs, mem, undo):
            address = (regs[inst.rs] + inst.imm) & MASK64
            existed = address in mem
            undo.append(("m", address, mem[address] if existed else 0, existed))
            mem[address] = regs[inst.rt] & MASK64
            return pc + WORD_SIZE, False, address
    elif op is Opcode.BEQZ:
        def fn(inst, pc, regs, mem, undo):
            taken = regs[inst.rs] == 0
            return (inst.target if taken else pc + WORD_SIZE), taken, None
    elif op is Opcode.BNEZ:
        def fn(inst, pc, regs, mem, undo):
            taken = regs[inst.rs] != 0
            return (inst.target if taken else pc + WORD_SIZE), taken, None
    elif op is Opcode.BLTZ:
        def fn(inst, pc, regs, mem, undo):
            taken = _signed(regs[inst.rs]) < 0
            return (inst.target if taken else pc + WORD_SIZE), taken, None
    elif op is Opcode.BGEZ:
        def fn(inst, pc, regs, mem, undo):
            taken = _signed(regs[inst.rs]) >= 0
            return (inst.target if taken else pc + WORD_SIZE), taken, None
    elif op is Opcode.J:
        def fn(inst, pc, regs, mem, undo):
            return inst.target, True, None
    elif op is Opcode.JAL:
        def fn(inst, pc, regs, mem, undo):
            undo.append(("r", REG_RA, regs[REG_RA]))
            regs[REG_RA] = (pc + WORD_SIZE) & MASK64
            return inst.target, True, None
    elif op is Opcode.JR:
        def fn(inst, pc, regs, mem, undo):
            return regs[inst.rs], True, None
    elif op is Opcode.JALR:
        def fn(inst, pc, regs, mem, undo):
            computed = regs[inst.rs]
            undo.append(("r", REG_RA, regs[REG_RA]))
            regs[REG_RA] = (pc + WORD_SIZE) & MASK64
            return computed, True, None
    elif op is Opcode.RET:
        def fn(inst, pc, regs, mem, undo):
            return regs[REG_RA], True, None
    else:  # NOP / HALT: no architectural effect beyond the PC
        def fn(inst, pc, regs, mem, undo):
            return pc + WORD_SIZE, False, None
    return fn


# ----------------------------------------------------------------------
# Multipath handlers (stores captured, loads forwarded).

def _build_exec_mp(op: Opcode, base: ExecFn) -> ExecFnMp:
    """The multipath handler of ``op``, given its single-path ``base``."""
    if op is Opcode.LOAD:
        def fn(inst, pc, regs, load, undo):
            address = (regs[inst.rs] + inst.imm) & MASK64
            rd = inst.rd
            if rd:
                undo.append(("r", rd, regs[rd]))
                regs[rd] = load(address) & MASK64
            return pc + WORD_SIZE, False, address, None
        return fn
    if op is Opcode.STORE:
        def fn(inst, pc, regs, load, undo):
            address = (regs[inst.rs] + inst.imm) & MASK64
            return pc + WORD_SIZE, False, address, regs[inst.rt] & MASK64
        return fn
    # Every other opcode touches registers only, so the single-path
    # handler applies verbatim; adapt its signature.
    def fn(inst, pc, regs, load, undo, _base=base):
        next_pc, taken, _ = _base(inst, pc, regs, None, undo)
        return next_pc, taken, None, None
    return fn


# ----------------------------------------------------------------------
# Opcode-indexed lookups that expand a packed program into columns.

#: Opcode id (one byte in the packed form) -> opcode.
_OPCODES: Tuple[Opcode, ...] = tuple(Opcode)
_OP_ID: Dict[Opcode, int] = {op: k for k, op in enumerate(_OPCODES)}
_CONTROL: Tuple[ControlClass, ...] = tuple(map(control_class, _OPCODES))
_EXEC_BY_ID: Tuple[ExecFn, ...] = tuple(map(_build_exec, _OPCODES))
_EXEC_MP_BY_ID: Tuple[ExecFnMp, ...] = tuple(
    map(_build_exec_mp, _OPCODES, _EXEC_BY_ID))


def _by_opcode(value: Callable[[Opcode], int]) -> bytes:
    """A ``bytes.translate`` table: opcode id -> ``value(opcode)``."""
    return bytes(map(value, _OPCODES)).ljust(256, b"\0")


_IS_CONTROL = _by_opcode(
    lambda op: control_class(op) is not ControlClass.NOT_CONTROL)
_IS_LOAD = _by_opcode(lambda op: op is Opcode.LOAD)
_IS_STORE = _by_opcode(lambda op: op is Opcode.STORE)
_IS_MEMORY = _by_opcode(lambda op: op in (Opcode.LOAD, Opcode.STORE))
_IS_MUL = _by_opcode(lambda op: op is Opcode.MUL)
_IS_HALT = _by_opcode(lambda op: op is Opcode.HALT)
_LATENCY = _by_opcode(lambda op: exec_latency(Instruction(op)))


#: A program's packed form: opcode ids, then the ``dest``, ``src1``
#: and ``src2`` register columns (``-1`` for "absent").
Packed = Tuple[bytes, array, array, array]

#: Program -> packed form. Weak, so a dropped program frees it;
#: programs are immutable.
_PACKED: "weakref.WeakKeyDictionary[Program, Packed]" = (
    weakref.WeakKeyDictionary())


def _packed(program: Program) -> Packed:
    packed = _PACKED.get(program)
    if packed is None:
        text = program.text
        dest = array("b", [-1]) * len(text)
        src1 = array("b", [-1]) * len(text)
        src2 = array("b", [-1]) * len(text)
        for i, inst in enumerate(text):
            written = dest_reg(inst)
            if written is not None:
                dest[i] = written
            sources = source_regs(inst)
            if sources:
                src1[i] = sources[0]
                if len(sources) > 1:
                    src2[i] = sources[1]
        ops = bytes([_OP_ID[inst.opcode] for inst in text])
        packed = (ops, dest, src1, src2)
        _PACKED[program] = packed
    return packed


# ----------------------------------------------------------------------
# The table.

class DecodeTable:
    """Index-parallel static columns + function tables for one program.

    Column ``i`` describes the instruction at byte address
    ``i * WORD_SIZE``. Register columns use ``-1`` for "absent"; the
    flag columns hold ``0``/``1``.
    """

    __slots__ = (
        "program", "size", "text_limit",
        "is_control", "control", "is_memory", "is_load", "is_store",
        "is_mul", "is_halt", "dest", "src1", "src2", "latency",
        "exec_fns", "exec_fns_mp",
    )

    def __init__(self, program: Program) -> None:
        ops, dest, src1, src2 = _packed(program)
        self.program = program
        self.size = len(ops)
        self.text_limit = self.size * WORD_SIZE
        self.control: List[ControlClass] = [_CONTROL[k] for k in ops]
        self.is_control: List[int] = list(ops.translate(_IS_CONTROL))
        self.is_memory: List[int] = list(ops.translate(_IS_MEMORY))
        self.is_load: List[int] = list(ops.translate(_IS_LOAD))
        self.is_store: List[int] = list(ops.translate(_IS_STORE))
        self.is_mul: List[int] = list(ops.translate(_IS_MUL))
        self.is_halt: List[int] = list(ops.translate(_IS_HALT))
        self.latency: List[int] = list(ops.translate(_LATENCY))
        self.dest: List[int] = dest.tolist()
        self.src1: List[int] = src1.tolist()
        self.src2: List[int] = src2.tolist()
        self.exec_fns: List[ExecFn] = [_EXEC_BY_ID[k] for k in ops]
        self.exec_fns_mp: List[ExecFnMp] = [_EXEC_MP_BY_ID[k] for k in ops]


#: The most recent ``(program, table)`` pair: a run of configs over one
#: program reuses its table, and the memo keeps no other table alive.
_LAST: Optional[Tuple[Program, DecodeTable]] = None


def decode_table(program: Program) -> DecodeTable:
    """The static decode table for ``program``, memoised while it is
    the most recently decoded program."""
    global _LAST
    last = _LAST
    if last is not None and last[0] is program:
        return last[1]
    table = DecodeTable(program)
    _LAST = (program, table)
    return table
