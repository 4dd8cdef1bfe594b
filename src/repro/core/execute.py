"""Architectural execution semantics.

The cycle-accurate core computes an instruction's *effects* once, at
issue time (timing is enforced separately by the scoreboard — see
DESIGN.md Section 5).  This module implements those effects for every
opcode.  It is also reused verbatim by the functional backend in
:mod:`repro.assoc`, so the timing model and the reference interpreter
cannot drift apart.

Scalar integer semantics intentionally mirror the vectorized PE ALU in
:mod:`repro.pe.alu` (wrapping W-bit arithmetic, clamped shifts,
truncating signed division with the all-ones div-by-zero result); the
test suite cross-checks the two implementations property-wise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.thread import ThreadContext, ThreadState
from repro.isa import registers
from repro.isa.instruction import Instruction
from repro.isa.opcodes import ExecClass
from repro.network import reduction as red
from repro.pe.alu import _MAX_SHIFT, CMP_OPS, FLAG_OPS, INT_OPS
from repro.pe.pe_array import PEArray
from repro.util.bitops import (
    mask_for_width,
    to_signed,
    to_unsigned,
)

if TYPE_CHECKING:
    from repro.asm.program import Program


class ExecutionError(RuntimeError):
    """Raised for illegal operations (e.g. pmul with no multiplier)."""


# The control unit's PC/address path is wider than the data path.
_PC_MASK = 0xFFFFFFFF


@dataclass
class ExecResult:
    """Control-flow outcome of one executed instruction."""

    next_pc: int
    taken: bool = False     # control transfer actually redirected the PC
    halt: bool = False
    spawned: int | None = None


# -- scalar integer helpers ---------------------------------------------------

def make_scalar_int_ops(width: int) -> dict[str, "Callable[[int, int], int]"]:
    """Pure-int scalar ALU, semantics identical to :data:`INT_OPS`.

    The scalar path executes one op on one value; a numpy round trip
    per op would dominate the functional backend's runtime.  These
    closures keep the exact corner semantics of :mod:`repro.pe.alu` —
    wrapping W-bit arithmetic, the ``min(count & 63, 31)`` shift clamp
    with overshift producing 0 (or the sign fill for ``sra``),
    truncating signed division with the all-ones div-by-zero result —
    in plain Python integers.  A property test cross-checks every op
    against the vectorized implementation.
    """
    mask = mask_for_width(width)
    half = 1 << (width - 1)
    span = 1 << width
    shift_mask = mask_for_width(6)

    def to_s(v: int) -> int:
        u = v & mask
        return u - span if u >= half else u

    def add(a: int, b: int) -> int:
        return (a + b) & mask

    def sub(a: int, b: int) -> int:
        return (a - b) & mask

    def and_(a: int, b: int) -> int:
        return (a & b) & mask

    def or_(a: int, b: int) -> int:
        return (a | b) & mask

    def xor(a: int, b: int) -> int:
        return (a ^ b) & mask

    def nor(a: int, b: int) -> int:
        return ~(a | b) & mask

    def sll(a: int, b: int) -> int:
        counts = min(b & shift_mask, _MAX_SHIFT)
        if counts >= width:
            return 0
        return ((a & mask) << counts) & mask

    def srl(a: int, b: int) -> int:
        counts = min(b & shift_mask, _MAX_SHIFT)
        if counts >= width:
            return 0
        return (a & mask) >> counts

    def sra(a: int, b: int) -> int:
        counts = min(b & shift_mask, _MAX_SHIFT)
        signed = to_s(a)
        if counts >= width:
            return mask if signed < 0 else 0
        return (signed >> counts) & mask

    def mul(a: int, b: int) -> int:
        return ((a & mask) * (b & mask)) & mask

    def div(a: int, b: int) -> int:
        sa, sb = to_s(a), to_s(b)
        if sb == 0:
            return mask
        q = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            q = -q
        return q & mask

    def slt(a: int, b: int) -> int:
        return 1 if to_s(a) < to_s(b) else 0

    def sltu(a: int, b: int) -> int:
        return 1 if (a & mask) < (b & mask) else 0

    return {"add": add, "sub": sub, "and": and_, "or": or_, "xor": xor,
            "nor": nor, "sll": sll, "srl": srl, "sra": sra, "mul": mul,
            "div": div, "slt": slt, "sltu": sltu}


# Scalar mnemonic -> (base op, operand-B source: "rt" | "imm").
_SCALAR_INT = {
    "add": ("add", "rt"), "sub": ("sub", "rt"), "and": ("and", "rt"),
    "or": ("or", "rt"), "xor": ("xor", "rt"), "nor": ("nor", "rt"),
    "sll": ("sll", "rt"), "srl": ("srl", "rt"), "sra": ("sra", "rt"),
    "slt": ("slt", "rt"), "sltu": ("sltu", "rt"),
    "smul": ("mul", "rt"), "sdiv": ("div", "rt"),
    "addi": ("add", "imm"), "andi": ("and", "imm"), "ori": ("or", "imm"),
    "xori": ("xor", "imm"), "slti": ("slt", "imm"), "sltiu": ("sltu", "imm"),
    "slli": ("sll", "imm"), "srli": ("srl", "imm"), "srai": ("sra", "imm"),
}

_BRANCHES = {
    "beq": lambda a, b, w: to_unsigned(a, w) == to_unsigned(b, w),
    "bne": lambda a, b, w: to_unsigned(a, w) != to_unsigned(b, w),
    "blt": lambda a, b, w: to_signed(a, w) < to_signed(b, w),
    "bge": lambda a, b, w: to_signed(a, w) >= to_signed(b, w),
}

# Parallel mnemonic -> (base op, B-source) where B-source is
# "pt" (parallel reg), "st" (broadcast scalar reg) or "imm" (broadcast).
_PARALLEL_INT = {}
for _base in ("add", "sub", "and", "or", "xor", "nor", "sll", "srl", "sra",
              "mul", "div"):
    _PARALLEL_INT[f"p{_base}"] = (_base, "pt")
    _PARALLEL_INT[f"p{_base}s"] = (_base, "st")
for _base in ("add", "and", "or", "xor", "sll", "srl", "sra"):
    _PARALLEL_INT[f"p{_base}i"] = (_base, "imm")

_PARALLEL_CMP = {}
for _base in ("ceq", "cne", "clt", "cle", "cltu", "cleu"):
    _PARALLEL_CMP[f"p{_base}"] = (_base, "pt")
    _PARALLEL_CMP[f"p{_base}s"] = (_base, "st")
for _base in ("ceq", "cne", "clt", "cle"):
    _PARALLEL_CMP[f"p{_base}i"] = (_base, "imm")


class Executor:
    """Executes instructions against machine state.

    The executor owns no state of its own: it mutates the thread
    contexts, PE array, and scalar memory it is given.  ``thread_table``
    is consulted only by the thread-management instructions.
    """

    def __init__(self, pe_array: PEArray, scalar_memory, thread_table,
                 word_width: int, faults=None, sanitizer=None) -> None:
        self.pe = pe_array
        self.mem = scalar_memory
        self.threads = thread_table
        self.width = word_width
        self.word_mask = mask_for_width(word_width)
        # Pure-int scalar ALU (same semantics as INT_OPS, no numpy round
        # trip per op) — the functional backend's hot path.
        self._int_ops = make_scalar_int_ops(word_width)
        # Race sanitizer (repro.core.sanitizer.RaceSanitizer) or None.
        # Memory and tput/tget delivery events fire here because the
        # executor is where addresses and target threads resolve; all
        # hooks hide behind "is not None" so a run without a sanitizer
        # is bit-identical at zero cost.
        self.sanitizer = sanitizer
        # Fault-injection plane (repro.faults.FaultPlane) or None.  The
        # parity read check is bound once here so the healthy hot path
        # keeps the raw array read.
        self.faults = faults
        if faults is not None and faults.parity:
            self._read_preg = self._read_preg_checked
        else:
            self._read_preg = pe_array.read_reg

    # -- entry point -----------------------------------------------------------

    def execute(self, instr: Instruction, thread: ThreadContext,
                cycle: int = 0) -> ExecResult:
        """Apply one instruction's effects; ``cycle`` is its issue cycle
        (used only to timestamp newly spawned threads)."""
        spec = instr.spec
        if spec.exec_class.value == "scalar":
            return self._exec_scalar(instr, thread, cycle)
        if spec.exec_class.value == "parallel":
            self._exec_parallel(instr, thread)
        else:
            self._exec_reduction(instr, thread)
        return ExecResult(next_pc=thread.pc + 1)

    # -- scalar path ------------------------------------------------------------

    def _exec_scalar(self, instr: Instruction, thread: ThreadContext,
                     cycle: int = 0) -> ExecResult:
        m = instr.mnemonic
        pc = thread.pc
        nxt = pc + 1

        pair = _SCALAR_INT.get(m)
        if pair is not None:
            base, bsrc = pair
            a = thread.read_sreg(instr.rs)
            b = thread.read_sreg(instr.rt) if bsrc == "rt" else instr.imm
            thread.write_sreg(instr.rd, self._int_ops[base](a, b),
                              self.word_mask)
            return ExecResult(nxt)
        if m == "lui":
            thread.write_sreg(instr.rd, (instr.imm << 16) & self.word_mask,
                              self.word_mask)
            return ExecResult(nxt)
        if m == "lw":
            addr = thread.read_sreg(instr.rs) + instr.imm
            if self.sanitizer is not None:
                self.sanitizer.on_load(thread.tid, addr, pc)
            thread.write_sreg(instr.rd, self.mem.load(addr), self.word_mask)
            return ExecResult(nxt)
        if m == "sw":
            addr = thread.read_sreg(instr.rs) + instr.imm
            if self.sanitizer is not None:
                self.sanitizer.on_store(thread.tid, addr, pc)
            self.mem.store(addr, thread.read_sreg(instr.rd))
            return ExecResult(nxt)
        if m in _BRANCHES:
            a = thread.read_sreg(instr.rd)
            b = thread.read_sreg(instr.rs)
            if _BRANCHES[m](a, b, self.width):
                return ExecResult(pc + 1 + instr.imm, taken=True)
            return ExecResult(nxt, taken=False)
        if m == "j":
            return ExecResult(instr.target, taken=True)
        if m == "jal":
            # The link register holds a full-width PC: the control unit's
            # address path is wider than the W-bit data path, exactly as
            # in the FPGA prototype (8-bit PEs, >8-bit instruction
            # addresses).
            thread.write_sreg(registers.LINK_REG, nxt, _PC_MASK)
            return ExecResult(instr.target, taken=True)
        if m == "jr":
            return ExecResult(thread.read_sreg(instr.rs), taken=True)
        if m == "halt":
            return ExecResult(nxt, halt=True)
        if m == "tspawn":
            # The child becomes fetchable the cycle after the spawn issues.
            tid = self.threads.allocate(instr.imm, start_cycle=cycle + 1)
            value = tid if tid is not None else self.word_mask
            thread.write_sreg(instr.rd, value, self.word_mask)
            return ExecResult(nxt, spawned=tid)
        if m == "texit":
            thread.state = ThreadState.EXITED
            return ExecResult(nxt)
        if m == "tput":
            target = self.threads[thread.read_sreg(instr.rd)
                                  % len(self.threads.contexts)]
            if self.sanitizer is not None:
                self.sanitizer.on_tput(thread.tid, target.tid, instr.imm, pc)
            target.write_sreg(instr.imm, thread.read_sreg(instr.rs),
                              self.word_mask)
            return ExecResult(nxt)
        if m == "tget":
            source = self.threads[thread.read_sreg(instr.rs)
                                  % len(self.threads.contexts)]
            if self.sanitizer is not None:
                self.sanitizer.on_tget(thread.tid, source.tid, instr.imm, pc)
            thread.write_sreg(instr.rd, source.read_sreg(instr.imm),
                              self.word_mask)
            return ExecResult(nxt)
        if m == "tjoin":
            # Completion gating is handled by the issue logic; by the time
            # this executes the target context is already free.
            return ExecResult(nxt)
        raise ExecutionError(f"unimplemented scalar mnemonic {m!r}")

    # -- parallel path ------------------------------------------------------------

    def _read_preg_checked(self, tid: int, reg: int) -> np.ndarray:
        """Parallel-register read with a parity check at the read port."""
        values = self.pe.read_reg(tid, reg)
        if reg != registers.ZERO_REG:
            bad = self.pe.parity_mismatch(tid, reg)
            if bad.any():
                self.faults.record_parity_alarm(tid, reg, np.flatnonzero(bad))
        return values

    def _broadcast(self, value: int) -> np.ndarray:
        """A scalar/immediate crossing the broadcast tree to every PE."""
        vec = np.broadcast_to(np.int64(value), (self.pe.num_pes,))
        if self.faults is not None:
            vec = self.faults.filter_broadcast(vec)
        return vec

    def _operand_b(self, instr: Instruction, thread: ThreadContext,
                   bsrc: str) -> np.ndarray:
        if bsrc == "pt":
            return self._read_preg(thread.tid, instr.rt)
        if bsrc == "st":
            return self._broadcast(thread.read_sreg(instr.rt))
        return self._broadcast(to_unsigned(instr.imm, self.width))

    def _mask(self, instr: Instruction, thread: ThreadContext) -> np.ndarray:
        return self.pe.read_flag(thread.tid, instr.mf)

    def _exec_parallel(self, instr: Instruction,
                       thread: ThreadContext) -> None:
        m = instr.mnemonic
        tid = thread.tid

        if m in _PARALLEL_INT:
            base, bsrc = _PARALLEL_INT[m]
            a = self._read_preg(tid, instr.rs)
            b_vec = self._operand_b(instr, thread, bsrc)
            result = INT_OPS[base](a, b_vec, self.width)
            self.pe.write_reg(tid, instr.rd, result, self._mask(instr, thread))
            return
        if m in _PARALLEL_CMP:
            base, bsrc = _PARALLEL_CMP[m]
            a = self._read_preg(tid, instr.rs)
            b_vec = self._operand_b(instr, thread, bsrc)
            flags = CMP_OPS[base](a, b_vec, self.width)
            self.pe.write_flag(tid, instr.rd, flags, self._mask(instr, thread))
            return
        if m == "pbcast":
            value = self._broadcast(thread.read_sreg(instr.rs))
            self.pe.write_reg(tid, instr.rd, value, self._mask(instr, thread))
            return
        if m == "psel":
            sel = self.pe.read_flag(tid, instr.mf)
            a = self._read_preg(tid, instr.rs)
            b = self._read_preg(tid, instr.rt)
            result = np.where(sel, a, b)
            self.pe.write_reg(tid, instr.rd, result,
                              np.ones(self.pe.num_pes, dtype=bool))
            return
        if m == "plw":
            mask = self._mask(instr, thread)
            addr = self._read_preg(tid, instr.rs) + instr.imm
            values = self.pe.load(addr, mask)
            self.pe.write_reg(tid, instr.rd, values, mask)
            return
        if m == "psw":
            mask = self._mask(instr, thread)
            addr = self._read_preg(tid, instr.rs) + instr.imm
            self.pe.store(addr, self._read_preg(tid, instr.rd), mask)
            return
        if m in ("fand", "for", "fxor", "fandn"):
            a = self.pe.read_flag(tid, instr.rs)
            b = self.pe.read_flag(tid, instr.rt)
            self.pe.write_flag(tid, instr.rd, FLAG_OPS[m](a, b),
                               self._mask(instr, thread))
            return
        if m == "fnot":
            a = self.pe.read_flag(tid, instr.rs)
            self.pe.write_flag(tid, instr.rd, ~a, self._mask(instr, thread))
            return
        if m == "fmov":
            a = self.pe.read_flag(tid, instr.rs)
            self.pe.write_flag(tid, instr.rd, a, self._mask(instr, thread))
            return
        if m in ("fset", "fclr"):
            value = np.full(self.pe.num_pes, m == "fset", dtype=bool)
            self.pe.write_flag(tid, instr.rd, value,
                               self._mask(instr, thread))
            return
        raise ExecutionError(f"unimplemented parallel mnemonic {m!r}")

    # -- reduction path -------------------------------------------------------------

    def _exec_reduction(self, instr: Instruction,
                        thread: ThreadContext) -> None:
        m = instr.mnemonic
        tid = thread.tid
        mask = self._mask(instr, thread)
        faults = self.faults
        if faults is not None:
            # Dead reduction-tree links and masked-out PEs drop out of
            # the responder set feeding every reduction unit.
            mask = faults.reduction_mask(mask)

        if m in red.REDUCTION_FNS:
            fn, _src = red.REDUCTION_FNS[m]
            values = self._read_preg(tid, instr.rs)
            result = fn(values, mask, self.width)
            if faults is not None:
                result = faults.filter_reduction_value(result)
            thread.write_sreg(instr.rd, result, self.word_mask)
            return
        if m == "rcount":
            flags = self.pe.read_flag(tid, instr.rs)
            result = red.count_responders(flags, mask)
            if faults is not None:
                result = faults.filter_reduction_value(result)
            thread.write_sreg(instr.rd, result, self.word_mask)
            return
        if m == "rany":
            flags = self.pe.read_flag(tid, instr.rs)
            result = red.any_responders(flags, mask)
            if faults is not None:
                result = faults.filter_reduction_value(result)
            thread.write_sreg(instr.rd, result, self.word_mask)
            return
        if m == "rfirst":
            flags = self.pe.read_flag(tid, instr.rs)
            first = red.resolve_first(flags, mask)
            # The resolver output replaces the destination flag in every
            # active PE (non-responders get 0).
            self.pe.write_flag(tid, instr.rd, first, mask)
            return
        raise ExecutionError(f"unimplemented reduction mnemonic {m!r}")


# -- compiled micro-ops -------------------------------------------------------
#
# ``Executor.execute`` pays a Python dispatch (mnemonic lookup, spec
# attribute reads, an ExecResult allocation) on every instruction, and
# its parallel paths pay about five numpy temporaries per op on top
# (re-wrapping inputs, broadcasting scalars, a second mask in the
# write).  Every pc whose control outcome is statically known therefore
# compiles once into a closure:
#
# * scalar ALU and ``lui`` instructions close over the *same* integer
#   op tables the Executor dispatches through, and branches evaluate
#   their condition only;
# * parallel, flag and reduction instructions close over one machine's
#   PE storage and run numpy ufuncs straight on its stored rows.  Rows
#   hold unsigned W-bit words and flag rows hold bools, so the inputs
#   need no re-wrapping and the mask applies once, at the write.
#   :mod:`repro.pe.alu` and :mod:`repro.network.reduction` remain the
#   specification; a property test checks every op against the
#   Executor.
#
# The Executor paths the scalar ops replace carry no fault or sanitizer
# hooks.  The PE paths do carry fault hooks (parity reads, dead-PE
# write suppression, reduction filters), so a machine with a fault
# plane compiles no PE ops and runs those pcs through the hooked
# Executor.

PlainOp = Callable[[ThreadContext], None]
BranchOp = Callable[[ThreadContext], bool]


def _nop(t: ThreadContext) -> None:
    """A write to p0, f0 or s0 that cannot fault: nothing changes."""


def _shift_counts(b):
    """:func:`repro.pe.alu._shift_amounts`' clamp.  On W-bit operands a
    count of W or more already shifts every bit out (or in, as the sign
    fill), so the ALU's overshift select is not needed."""
    if type(b) is int:
        return min(b & 63, _MAX_SHIFT)
    return np.minimum(np.bitwise_and(b, 63), _MAX_SHIFT)


def _pe_kernels(width: int) -> tuple[dict[str, Callable], dict[str, Callable],
                                     dict[str, Callable]]:
    """Kernels on stored rows at word width ``width``.

    Returns ``(ints, cmps, reductions)``.  ``ints[base](a, b, out)`` and
    ``cmps[base](a, b, out)`` write ``a op b`` into ``out`` (which may
    alias ``a`` or ``b``); ``a`` is a register row and ``b`` a register
    row or an int in ``[0, 2**width)``.  ``reductions[mnemonic](v, m)``
    reduces row ``v`` over the PEs where ``m`` is set (``m`` is a flag
    row, or True for every PE) and returns a Python int.
    """
    M = mask_for_width(width)
    half = 1 << (width - 1)

    def add(a, b, out):
        np.add(a, b, out=out)
        np.bitwise_and(out, M, out=out)

    def sub(a, b, out):
        np.subtract(a, b, out=out)
        np.bitwise_and(out, M, out=out)

    def nor(a, b, out):
        np.bitwise_or(a, b, out=out)
        np.bitwise_xor(out, M, out=out)

    def sll(a, b, out):
        k = _shift_counts(b)
        np.left_shift(a, k, out=out)
        np.bitwise_and(out, M, out=out)

    def srl(a, b, out):
        np.right_shift(a, _shift_counts(b), out=out)

    def sra(a, b, out):
        k = _shift_counts(b)
        np.bitwise_xor(a, half, out=out)       # (a ^ half) - half is
        np.subtract(out, half, out=out)        # the signed value
        np.right_shift(out, k, out=out)
        np.bitwise_and(out, M, out=out)

    def mul(a, b, out):
        np.multiply(a, b, out=out)
        np.bitwise_and(out, M, out=out)

    def div(a, b, out):
        out[...] = INT_OPS["div"](a, np.asarray(b), width)

    def and_(a, b, out):
        np.bitwise_and(a, b, out=out)

    def or_(a, b, out):
        np.bitwise_or(a, b, out=out)

    def xor(a, b, out):
        np.bitwise_xor(a, b, out=out)

    # XOR with the sign bit maps signed order onto unsigned order.
    def lt(a, b, out):
        np.less(np.bitwise_xor(a, half), b ^ half, out=out)

    def le(a, b, out):
        np.less_equal(np.bitwise_xor(a, half), b ^ half, out=out)

    def eq(a, b, out):
        np.equal(a, b, out=out)

    def ne(a, b, out):
        np.not_equal(a, b, out=out)

    def ltu(a, b, out):
        np.less(a, b, out=out)

    def leu(a, b, out):
        np.less_equal(a, b, out=out)

    def rsum(v, m):
        # Each PE's signed value is (v ^ half) - half; saturate the sum.
        n = v.shape[0] if m is True else int(np.count_nonzero(m))
        total = int(np.bitwise_xor(v, half).sum(where=m)) - half * n
        return min(max(total, -half), half - 1) & M

    def rcount(f, m):
        return int(np.count_nonzero(f if m is True else f & m))

    def rany(f, m):
        return int(bool((f if m is True else f & m).any()))

    ints = {"add": add, "sub": sub, "and": and_, "or": or_, "xor": xor,
            "nor": nor, "sll": sll, "srl": srl, "sra": sra, "mul": mul,
            "div": div}
    cmps = {"ceq": eq, "cne": ne, "clt": lt, "cle": le, "cltu": ltu,
            "cleu": leu}
    reductions = {
        "rand": lambda v, m: int(np.bitwise_and.reduce(v, where=m,
                                                       initial=M)),
        "ror": lambda v, m: int(np.bitwise_or.reduce(v, where=m,
                                                     initial=0)),
        "rmaxu": lambda v, m: int(v.max(where=m, initial=0)),
        "rminu": lambda v, m: int(v.min(where=m, initial=M)),
        "rmax": lambda v, m: int(np.bitwise_xor(v, half).max(
            where=m, initial=0)) ^ half,
        "rmin": lambda v, m: int(np.bitwise_xor(v, half).min(
            where=m, initial=M)) ^ half,
        "rsum": rsum, "rcount": rcount, "rany": rany,
    }
    reductions["rget"] = reductions["ror"]
    return ints, cmps, reductions


def _pe_compiler(pe: PEArray) -> Callable[[Instruction], PlainOp]:
    """Compile parallel and reduction instructions against ``pe``.

    The closures index per-thread lists of row views of ``pe.regs``,
    ``pe.flags`` and ``pe.lmem``, so ``pe`` must keep those arrays
    (``PEArray.reset`` refills them in place).
    """
    width = pe.word_width
    M = pe.word_mask
    ints, cmps, reductions = _pe_kernels(width)
    R = [list(rows) for rows in pe.regs]        # R[tid][reg] -> row view
    F = [list(rows) for rows in pe.flags]       # F[tid][flag] -> row view
    itmp = np.empty(pe.num_pes, dtype=np.int64)   # masked-write scratch
    btmp = np.empty(pe.num_pes, dtype=bool)
    words = pe.lmem_words
    flat = pe.lmem.reshape(-1)                  # a view: lmem is contiguous
    row_base = np.arange(pe.num_pes, dtype=np.int64) * words

    def rows(S, D, tmp, kern, rd, rs, rt, mf):
        # D[rd] := kern(S[rs], S[rt]) where F[mf].
        def f(t: ThreadContext) -> None:
            tid = t.tid
            src = S[tid]
            if mf:
                kern(src[rs], src[rt], tmp)
                np.copyto(D[tid][rd], tmp, where=F[tid][mf])
            else:
                kern(src[rs], src[rt], D[tid][rd])
        return f

    def const(S, D, tmp, kern, rd, rs, b, mf):
        # D[rd] := kern(S[rs], b) where F[mf]; ``b`` an immediate.
        def f(t: ThreadContext) -> None:
            tid = t.tid
            if mf:
                kern(S[tid][rs], b, tmp)
                np.copyto(D[tid][rd], tmp, where=F[tid][mf])
            else:
                kern(S[tid][rs], b, D[tid][rd])
        return f

    def scalar(D, tmp, kern, rd, rs, rt, mf):
        # D[rd] := kern(R[rs], s[rt] broadcast) where F[mf].
        def f(t: ThreadContext) -> None:
            tid = t.tid
            b = t.sregs[rt] & M if rt else 0
            if mf:
                kern(R[tid][rs], b, tmp)
                np.copyto(D[tid][rd], tmp, where=F[tid][mf])
            else:
                kern(R[tid][rs], b, D[tid][rd])
        return f

    def check_lmem(t: ThreadContext, a: np.ndarray, mf: int, imm: int,
                   what: str) -> None:
        # Active PEs need 0 <= a + imm < words; a is never negative.
        lo, hi = -imm, words - imm
        m = F[t.tid][mf]
        if mf:
            bad = (a.max(where=m, initial=lo) >= hi
                   or (lo > 0 and a.min(where=m, initial=lo) < lo))
        else:
            bad = a.max() >= hi or (lo > 0 and a.min() < lo)
        if bad:
            pe._check_addresses(a + imm, m, what)   # raises MemoryFault

    def pbcast(rd, rs, mf):
        def f(t: ThreadContext) -> None:
            tid = t.tid
            v = t.sregs[rs] & M if rs else 0
            if mf:
                np.copyto(R[tid][rd], v, where=F[tid][mf])
            else:
                R[tid][rd].fill(v)
        return f

    def psel(rd, rs, rt, mf):
        def f(t: ThreadContext) -> None:
            r = R[t.tid]
            r[rd][...] = np.where(F[t.tid][mf], r[rs], r[rt])
        return f

    def plw(rd, rs, imm, mf):
        base = row_base + imm

        def f(t: ThreadContext) -> None:
            a = R[t.tid][rs]
            check_lmem(t, a, mf, imm, "load")
            if not rd:
                return
            if mf:
                np.copyto(R[t.tid][rd], np.take(flat, a + base, mode="clip"),
                          where=F[t.tid][mf])
            else:
                np.take(flat, a + base, out=R[t.tid][rd], mode="clip")
        return f

    def psw(rd, rs, imm, mf):
        base = row_base + imm

        def f(t: ThreadContext) -> None:
            r = R[t.tid]
            a = r[rs]
            check_lmem(t, a, mf, imm, "store")
            if mf:
                m = F[t.tid][mf]
                flat[(a + base)[m]] = r[rd][m]
            else:
                flat[a + base] = r[rd]
        return f

    def reduce(kern, S, rd, rs, mf):
        def f(t: ThreadContext) -> None:
            tid = t.tid
            t.sregs[rd] = kern(S[tid][rs], F[tid][mf] if mf else True) & M
        return f

    def rfirst(rd, rs, mf):
        def f(t: ThreadContext) -> None:
            fl = F[t.tid]
            m = fl[mf]
            responders = np.logical_and(fl[rs], m) if mf else fl[rs]
            first = int(responders.argmax())
            hit = bool(responders[first])
            d = fl[rd]      # the resolver's output replaces it where m
            if mf:
                np.copyto(d, False, where=m)
            else:
                d.fill(False)
            if hit:
                d[first] = True
        return f

    flag_ops = {
        "fand": np.logical_and, "for": np.logical_or,
        "fxor": np.logical_xor, "fandn": np.greater,   # a & ~b on bools
    }
    flag_unary = {
        "fnot": lambda a, _b, out: np.logical_not(a, out=out),
        "fmov": lambda a, _b, out: np.copyto(out, a),
        "fset": lambda _a, _b, out: out.fill(True),
        "fclr": lambda _a, _b, out: out.fill(False),
    }

    def compile_one(instr: Instruction) -> PlainOp:
        m = instr.mnemonic
        rd, rs, rt, mf = instr.rd, instr.rs, instr.rt, instr.mf
        if m == "plw":
            return plw(rd, rs, instr.imm, mf)
        if m == "psw":
            return psw(rd, rs, instr.imm, mf)
        if not rd:
            return _nop          # p0, f0 and s0 ignore writes
        if m in _PARALLEL_INT or m in _PARALLEL_CMP:
            if m in _PARALLEL_INT:
                base, bsrc = _PARALLEL_INT[m]
                D, tmp, kern = R, itmp, ints[base]
            else:
                base, bsrc = _PARALLEL_CMP[m]
                D, tmp, kern = F, btmp, cmps[base]
            if bsrc == "pt":
                return rows(R, D, tmp, kern, rd, rs, rt, mf)
            if bsrc == "st":
                return scalar(D, tmp, kern, rd, rs, rt, mf)
            return const(R, D, tmp, kern, rd, rs, instr.imm & M, mf)
        if m in flag_ops:
            return rows(F, F, btmp, flag_ops[m], rd, rs, rt, mf)
        if m in flag_unary:
            # fset/fclr read no source: their rs field may hold anything.
            src = rs if m in ("fnot", "fmov") else registers.ALWAYS_FLAG
            return const(F, F, btmp, flag_unary[m], rd, src, None, mf)
        if m == "pbcast":
            return pbcast(rd, rs, mf)
        if m == "psel":
            return psel(rd, rs, rt, mf)
        if m == "rfirst":
            return rfirst(rd, rs, mf)
        if m in red.REDUCTION_FNS:
            return reduce(reductions[m], R, rd, rs, mf)
        if m in ("rcount", "rany"):
            return reduce(reductions[m], F, rd, rs, mf)
        raise ExecutionError(f"no micro-op for {m!r}")

    return compile_one


def compile_fastops(
    program: "Program", width: int, pe: PEArray | None = None,
) -> tuple[list[PlainOp | None], list[BranchOp | None]]:
    """Per-pc micro-ops for ``program``.

    ``plain[pc]`` replaces ``Executor.execute`` for an instruction whose
    next pc is always ``pc + 1``: a scalar ALU or ``lui`` instruction
    and, when ``pe`` is given, every parallel, flag and reduction
    instruction, run on ``pe``'s storage.  ``branch[pc]`` evaluates a
    branch condition.  Every other pc gets ``None`` and goes through the
    Executor: jumps, memory, thread and halt instructions, and the PE
    instructions of a machine that passes no ``pe`` (one with a fault
    plane, whose hooks live in the Executor).
    """
    int_ops = make_scalar_int_ops(width)
    mask = mask_for_width(width)
    compile_pe = _pe_compiler(pe) if pe is not None else None
    n = len(program.instructions)
    plain: list[PlainOp | None] = [None] * n
    branch: list[BranchOp | None] = [None] * n
    for pc, instr in enumerate(program.instructions):
        m = instr.mnemonic
        pair = _SCALAR_INT.get(m)
        if pair is not None:
            op = int_ops[pair[0]]
            if pair[1] == "rt":
                def f_rr(t: ThreadContext, rd: int = instr.rd,
                         rs: int = instr.rs, rt: int = instr.rt,
                         op: Callable[[int, int], int] = op,
                         mask: int = mask) -> None:
                    s = t.sregs
                    v = op(s[rs] if rs else 0, s[rt] if rt else 0)
                    if rd:
                        s[rd] = v & mask
                plain[pc] = f_rr
            else:
                def f_ri(t: ThreadContext, rd: int = instr.rd,
                         rs: int = instr.rs, imm: int = instr.imm,
                         op: Callable[[int, int], int] = op,
                         mask: int = mask) -> None:
                    s = t.sregs
                    v = op(s[rs] if rs else 0, imm)
                    if rd:
                        s[rd] = v & mask
                plain[pc] = f_ri
        elif m == "lui":
            def f_lui(t: ThreadContext, rd: int = instr.rd,
                      val: int = (instr.imm << 16) & mask) -> None:
                if rd:
                    t.sregs[rd] = val
            plain[pc] = f_lui
        elif (m in ("beq", "bne")
              and registers.LINK_REG not in (instr.rd, instr.rs)):
            # Every other scalar register is stored masked to the word,
            # so equality of the stored values is word equality.
            def f_eq(t: ThreadContext, rd: int = instr.rd,
                     rs: int = instr.rs, ne: bool = m == "bne") -> bool:
                s = t.sregs
                return ((s[rd] if rd else 0) == (s[rs] if rs else 0)) is not ne
            branch[pc] = f_eq
        elif m in _BRANCHES:
            # blt/bge, and beq/bne on the link register, which jal
            # writes at full PC width.
            def f_br(t: ThreadContext, rd: int = instr.rd,
                     rs: int = instr.rs,
                     cmp: Callable[[int, int, int], bool] = _BRANCHES[m],
                     w: int = width) -> bool:
                s = t.sregs
                return cmp(s[rd] if rd else 0, s[rs] if rs else 0, w)
            branch[pc] = f_br
        elif compile_pe is not None and instr.spec.exec_class is not \
                ExecClass.SCALAR:
            plain[pc] = compile_pe(instr)
    return plain, branch
