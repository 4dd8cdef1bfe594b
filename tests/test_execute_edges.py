"""Execution-semantics edge cases, exercised through real programs."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as hst

from repro.core import (
    BranchPolicy,
    MTMode,
    Processor,
    ProcessorConfig,
    run_program,
)
from repro.asm import assemble
from repro.asm.program import Program
from repro.core.execute import _BRANCHES, _SCALAR_INT, Executor, compile_fastops
from repro.core.memory import ScalarMemory
from repro.core.thread import ThreadStatusTable
from repro.isa import registers
from repro.isa.instruction import Instruction, IsaError
from repro.isa.opcodes import OPCODES, ExecClass
from repro.pe.pe_array import PEArray


def cfg8(**kw):
    kw.setdefault("num_pes", 8)
    kw.setdefault("num_threads", 1)
    kw.setdefault("mt_mode", MTMode.SINGLE)
    return ProcessorConfig(**kw)


def run1(src, **kw):
    return run_program(".text\n" + src, cfg8(**kw))


class TestWidthCorners:
    def test_rcount_wraps_at_narrow_width(self):
        # 300 responders cannot be represented in 8 bits: the counter's
        # scalar destination wraps, as real 8-bit hardware would.
        cfg = cfg8(num_pes=300, word_width=8)
        res = run_program("""
.text
    pceqi f1, p0, 0       # every PE responds
    rcount s1, f1
    halt
""", cfg)
        assert res.scalar(1) == 300 & 0xFF

    def test_rsum_saturates_not_wraps(self):
        cfg = cfg8(num_pes=8, word_width=8)
        res = run_program("""
.text
    li s1, 100
    pbcast p1, s1
    rsum s2, p1           # 800 saturates to 127
    halt
""", cfg)
        assert res.scalar(2) == 127

    def test_lui_at_8_bits_yields_zero(self):
        res = run1("lui s1, 0x12\nhalt", word_width=8)
        assert res.scalar(1) == 0

    def test_parallel_imm_sign_extends_then_wraps(self):
        res = run1("pli p1, -1\nrmaxu s1, p1\nhalt", word_width=8)
        assert res.scalar(1) == 0xFF

    def test_shift_by_register_width_clamps(self):
        res = run1("""
            li   s1, 1
            li   s2, 16
            sll  s3, s1, s2
            srl  s4, s1, s2
            halt
        """, word_width=16)
        assert res.scalar(3) == 0 and res.scalar(4) == 0


class TestThreadEdges:
    def test_tput_thread_id_wraps_modulo_contexts(self):
        cfg = cfg8(num_threads=4, mt_mode=MTMode.FINE, word_width=16)
        res = run_program("""
.text
main:
    li   s1, 5            # 5 mod 4 == context 1
    li   s2, 42
    tput s1, s2, 3
    tget s3, s1, 3
    halt
""", cfg)
        assert res.scalar(3) == 42

    def test_spawn_then_halt_kills_children(self):
        cfg = cfg8(num_threads=4, mt_mode=MTMode.FINE, word_width=16)
        res = run_program("""
.text
main:
    tspawn s1, child
    halt                  # machine-wide stop, child may still be running
child:
    j child
""", cfg)
        assert res.stats.instructions < 20

    def test_exited_main_does_not_stop_others(self):
        cfg = cfg8(num_threads=2, mt_mode=MTMode.FINE, word_width=16)
        res = run_program("""
.text
main:
    tspawn s1, child
    texit
child:
    li  s2, 9
    sw  s2, 0(s0)
    texit
""", cfg)
        assert res.memory(0, 1) == [9]

    def test_join_self_would_deadlock_detected(self):
        from repro.core import SimulationError
        cfg = cfg8(num_threads=2, mt_mode=MTMode.FINE, word_width=16)
        with pytest.raises(SimulationError):
            run_program("""
.text
main:
    li    s1, 0
    tjoin s1              # join myself
    halt
""", cfg)


class TestCallStacks:
    def test_nested_calls_via_manual_link_save(self):
        res = run1("""
            li   s1, 2
            call outer
            halt
        outer:
            move s10, ra      # save link
            call inner
            move ra, s10
            addi s1, s1, 100
            ret
        inner:
            addi s1, s1, 10
            ret
        """, word_width=16)
        assert res.scalar(1) == 112

    def test_jr_arbitrary_target(self):
        res = run1("""
            li   s1, there    # label as an address constant
            jr   s1
            li   s2, 99       # skipped
        there:
            li   s3, 7
            halt
        """, word_width=16)
        assert res.scalar(2) == 0 and res.scalar(3) == 7


class TestMaskedSemantics:
    def test_inactive_pes_keep_old_values(self):
        proc = Processor(cfg8(num_pes=8, word_width=16))
        proc.load(assemble("""
.text
    plw   p1, 0(p0)
    pli   p2, 5
    fclr  f1
    pceqi f1, p1, 3       # only PE with value 3
    pli   p2, 77 [f1]
    halt
""", 16))
        proc.pe.set_lmem_column(0, np.arange(8))
        res = proc.run()
        values = res.pe_reg(2)
        assert values[3] == 77
        assert (np.delete(values, 3) == 5).all()

    def test_masked_store_leaves_other_pes_memory(self):
        proc = Processor(cfg8(num_pes=4, word_width=16))
        proc.load(assemble("""
.text
    plw   p1, 0(p0)
    fclr  f1
    pceqi f1, p1, 2
    pli   p2, 9
    psw   p2, 1(p0) [f1]
    plw   p3, 1(p0)
    halt
""", 16))
        proc.pe.set_lmem_column(0, np.arange(4))
        res = proc.run()
        assert res.pe_reg(3).tolist() == [0, 0, 9, 0]

    def test_reduction_under_empty_mask_yields_identity(self):
        res = run1("""
            li    s1, 50
            pbcast p1, s1
            fclr  f1
            rmaxu s2, p1 [f1]
            rminu s3, p1 [f1]
            rsum  s4, p1 [f1]
            rand  s5, p1 [f1]
            halt
        """, word_width=16)
        assert res.scalar(2) == 0
        assert res.scalar(3) == 0xFFFF
        assert res.scalar(4) == 0
        assert res.scalar(5) == 0xFFFF

    def test_rget_with_multiple_responders_is_or(self):
        res = run1("""
            li    s1, 3
            pbcast p1, s1
            paddi p2, p1, 1     # 4 everywhere
            fset  f1
            rget  s2, p2 [f1]   # OR of many responders: 4 | 4 = 4
            halt
        """, word_width=16)
        assert res.scalar(2) == 4


class TestBranchPolicies:
    LOOP = """
    li s1, 10
loop:
    addi s1, s1, -1
    bne  s1, s0, loop
    halt
"""

    def test_pnt_faster_on_mixed_branches(self):
        stall = run1(self.LOOP, branch_policy=BranchPolicy.STALL)
        pnt = run1(self.LOOP, branch_policy=BranchPolicy.PREDICT_NOT_TAKEN)
        # The loop's final untaken branch is free under PNT; taken ones
        # still cost 2 bubbles, so PNT <= STALL here.
        assert pnt.cycles <= stall.cycles
        assert pnt.scalar(1) == stall.scalar(1) == 0

    def test_policies_agree_on_results(self):
        src = """
    li s1, 6
    li s3, 0
a:  addi s3, s3, 2
    addi s1, s1, -1
    blt  s0, s1, a
    halt
"""
        a = run1(src, branch_policy=BranchPolicy.STALL)
        b = run1(src, branch_policy=BranchPolicy.PREDICT_NOT_TAKEN)
        assert a.scalar(3) == b.scalar(3) == 12


class TestPipelineInvariants:
    def test_single_issue_stage_occupancy_unique(self):
        """No two instructions may occupy the same pipeline stage in the
        same cycle on a single-issue machine (shared hardware)."""
        from repro.core.timing import stage_schedule

        cfg = cfg8(num_pes=16, word_width=16)
        proc = Processor(cfg, trace=True)
        proc.load(assemble("""
.text
    plw   p1, 0(p0)
    paddi p2, p1, 1
    rmax  s1, p2
    add   s2, s1, s1
    pceqs f1, p2, s1
    rcount s3, f1
    halt
""", 16))
        result = proc.run()
        seen: dict[tuple[str, int], int] = {}
        for rec in result.trace:
            for slot in stage_schedule(rec.instr.spec, cfg, rec.cycle,
                                       rec.fetch_cycle):
                if slot.stage in ("IF", "ID"):
                    continue   # front-end slots repeat by design
                key = (slot.stage, slot.cycle)
                assert key not in seen, key
                seen[key] = rec.pc

    def test_issue_cycles_strictly_ordered_per_thread(self):
        cfg = ProcessorConfig(num_pes=16, num_threads=4, word_width=16)
        proc = Processor(cfg, trace=True)
        proc.load(assemble("""
.text
main:
    tspawn s1, w
    tspawn s1, w
w:
    li s2, 5
l:  addi s2, s2, -1
    bne s2, s0, l
    texit
""", 16))
        result = proc.run()
        last: dict[int, int] = {}
        for rec in result.trace:
            if rec.thread in last:
                assert rec.cycle > last[rec.thread]
            last[rec.thread] = rec.cycle



_LMEM_WORDS = 8      # local memory of the micro-op parity machines


class TestCompiledMicroOps:
    """``compile_fastops`` closures agree with ``Executor.execute`` on
    every scalar ALU, ``lui`` and branch mnemonic and every parallel,
    flag and reduction mnemonic, at every word width, including reads
    of s0/p0/f0, writes to them, and the full-width link register."""

    MNEMONICS = sorted(set(_SCALAR_INT) | {"lui"} | set(_BRANCHES))

    @staticmethod
    def _context(width):
        threads = ThreadStatusTable(1)
        threads.allocate(pc=0, start_cycle=1)
        executor = Executor(PEArray(2, 1, width, 4), ScalarMemory(16, width),
                            threads, width)
        return executor, threads[0]

    @settings(max_examples=400, deadline=None)
    @given(data=hst.data(), width=hst.sampled_from([8, 16, 32]),
           mnemonic=hst.sampled_from(MNEMONICS))
    def test_compiled_op_matches_executor(self, data, width, mnemonic):
        # A few registers (s0 and the link register among them) make
        # shared and special operands common.
        reg = hst.one_of(hst.sampled_from([0, 1, registers.LINK_REG]),
                         hst.integers(0, registers.NUM_SCALAR_REGS - 1))
        imm = hst.one_of(hst.integers(0, 63),
                         hst.integers(-(1 << 15), (1 << 16) - 1))
        try:
            instr = Instruction(mnemonic, rd=data.draw(reg),
                                rs=data.draw(reg), rt=data.draw(reg),
                                imm=data.draw(imm))
        except IsaError:
            assume(False)
        mask = (1 << width) - 1
        # Small values make equal operands (taken beq) common.
        word = hst.one_of(hst.integers(0, 3), hst.integers(0, mask))
        values = [data.draw(word) for _ in range(registers.NUM_SCALAR_REGS)]
        # jal writes the link register at full PC width: bits above the
        # word must not change a comparison.
        if width < 32:
            values[registers.LINK_REG] = data.draw(word) | (data.draw(
                hst.integers(1, 0xFFFFFFFF >> width)) << width)
        plain, branch = compile_fastops(Program(instructions=[instr]), width)
        executor, ref = self._context(width)
        _, fast = self._context(width)
        ref.sregs = list(values)
        fast.sregs = list(values)
        outcome = executor.execute(instr, ref)
        if plain[0] is not None:
            plain[0](fast)
            assert (outcome.next_pc, outcome.taken) == (1, False)
        else:
            assert branch[0] is not None
            taken = branch[0](fast)
            assert taken == outcome.taken
            assert outcome.next_pc == (1 + instr.imm if taken else 1)
        assert fast.sregs == ref.sregs

    @pytest.mark.parametrize("width", [8, 16])
    @pytest.mark.parametrize("mnemonic", ["beq", "bne"])
    def test_equality_branch_ignores_link_bits_above_word(self, mnemonic,
                                                         width):
        instr = Instruction(mnemonic, rd=registers.LINK_REG, rs=1, imm=3)
        _, branch = compile_fastops(Program(instructions=[instr]), width)
        executor, ref = self._context(width)
        ref.sregs[registers.LINK_REG] = (1 << width) | 5
        ref.sregs[1] = 5
        outcome = executor.execute(instr, ref)
        assert outcome.taken is (mnemonic == "beq")
        assert branch[0](ref) is outcome.taken

    # -- PE micro-ops: parallel, flag and reduction instructions ----------

    PE_MNEMONICS = sorted(m for m, spec in OPCODES.items()
                          if spec.exec_class is not ExecClass.SCALAR)
    LMEM_WORDS = _LMEM_WORDS

    @classmethod
    def _machine(cls, width, pes, regs, flags, lmem, sregs):
        """A two-context machine whose thread 1 holds the drawn state
        (thread 0 stays zero, so a wrong row index shows up)."""
        pe = PEArray(pes, 2, width, cls.LMEM_WORDS)
        pe.regs[1] = regs
        pe.flags[1] = flags
        pe.lmem[:] = lmem
        threads = ThreadStatusTable(2)
        threads.allocate(pc=0, start_cycle=1)
        threads.allocate(pc=0, start_cycle=1)
        threads[1].sregs = list(sregs)
        return pe, threads

    @staticmethod
    def _outcome(step):
        try:
            step()
        except Exception as exc:   # compared, not swallowed
            return type(exc), str(exc)
        return None

    def _check(self, instr, width, pes, regs, flags, lmem, sregs):
        """Run ``instr`` on thread 1 through the Executor and through its
        compiled micro-op; outcomes and all machine state must match."""
        ref_pe, ref_threads = self._machine(width, pes, regs, flags, lmem,
                                            sregs)
        fast_pe, fast_threads = self._machine(width, pes, regs, flags,
                                              lmem, sregs)
        executor = Executor(ref_pe, ScalarMemory(16, width), ref_threads,
                            width)
        plain, branch = compile_fastops(Program(instructions=[instr]),
                                        width, fast_pe)
        assert plain[0] is not None and branch[0] is None
        expected = self._outcome(
            lambda: executor.execute(instr, ref_threads[1]))
        assert self._outcome(lambda: plain[0](fast_threads[1])) == expected
        assert np.array_equal(fast_pe.regs, ref_pe.regs)
        assert np.array_equal(fast_pe.flags, ref_pe.flags)
        assert np.array_equal(fast_pe.lmem, ref_pe.lmem)
        for tid in (0, 1):
            fast_s, ref_s = fast_threads[tid].sregs, ref_threads[tid].sregs
            assert fast_s == ref_s
            assert [type(v) for v in fast_s] == [int] * len(fast_s)

    @settings(max_examples=20, deadline=None)
    @given(data=hst.data(), width=hst.sampled_from([8, 16, 32]),
           pes=hst.sampled_from([1, 3, 64]))
    @pytest.mark.parametrize("mnemonic", PE_MNEMONICS)
    def test_pe_op_matches_executor(self, mnemonic, data, width, pes):
        # Low register numbers make p0/f0/s0 operands and aliasing
        # (rd == rs, flag rd == mf) common; s14 carries link-width bits.
        reg = hst.one_of(hst.sampled_from([0, 1, 2]), hst.integers(0, 7),
                         hst.sampled_from([registers.LINK_REG, 15]))
        imm = hst.one_of(hst.integers(-3, 9), hst.integers(0, 31),
                         hst.integers(-(1 << 12), (1 << 12) - 1))
        try:
            instr = Instruction(mnemonic, rd=data.draw(reg),
                                rs=data.draw(reg), rt=data.draw(reg),
                                mf=data.draw(hst.integers(0, 7)),
                                imm=data.draw(imm))
        except IsaError:
            assume(False)
        mask = (1 << width) - 1
        rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1)))
        # Small words (valid local addresses, equal operands, shift
        # counts) half the time, any word otherwise.
        high = data.draw(hst.sampled_from([self.LMEM_WORDS + 2, mask + 1]))
        regs = rng.integers(0, high, size=(registers.NUM_PARALLEL_REGS, pes))
        regs[registers.ZERO_REG] = 0
        flags = rng.random((registers.NUM_FLAG_REGS, pes)) < data.draw(
            hst.sampled_from([0.1, 0.5, 0.9]))
        flags[registers.ALWAYS_FLAG] = True
        lmem = rng.integers(0, mask + 1, size=(pes, self.LMEM_WORDS))
        sregs = [int(v) for v in rng.integers(
            0, high, size=registers.NUM_SCALAR_REGS)]
        sregs[registers.ZERO_REG] = 0
        if width < 32:
            sregs[registers.LINK_REG] |= 1 << width
        self._check(instr, width, pes, regs, flags, lmem, sregs)

    @pytest.mark.parametrize("mnemonic", ["plw", "psw"])
    @pytest.mark.parametrize("mf", [0, 1])
    @pytest.mark.parametrize("imm,address", [
        (imm, address) for imm in (-3, 0, 2)
        for address in (-1, 0, _LMEM_WORDS - 1, _LMEM_WORDS)
        if address >= imm])       # a register holds no negative word
    def test_local_memory_bounds_match_executor(self, mnemonic, mf, imm,
                                                address):
        # PE 2 (active under both masks) accesses ``address``: just
        # below, at either end of, or just past local memory; the other
        # PEs stay in range.
        pes, width = 5, 16
        regs = np.zeros((registers.NUM_PARALLEL_REGS, pes), dtype=np.int64)
        regs[1] = [3, 4, address - imm, 3, 5]
        regs[2] = [10, 20, 30, 40, 50]
        flags = np.ones((registers.NUM_FLAG_REGS, pes), dtype=bool)
        flags[1] = [True, False, True, False, True]
        lmem = np.arange(pes * self.LMEM_WORDS).reshape(pes, -1)
        self._check(Instruction(mnemonic, rd=2, rs=1, mf=mf, imm=imm),
                    width, pes, regs, flags, lmem,
                    [0] * registers.NUM_SCALAR_REGS)
