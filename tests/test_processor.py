"""Cycle-accurate core integration tests: semantics + measured timing."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as hs

from repro.asm.program import Program
from repro.core import (
    BranchPolicy,
    DividerKind,
    MTMode,
    MultiplierKind,
    Processor,
    ProcessorConfig,
    SchedulerPolicy,
    SimulationError,
    hazard_distance,
    run_program,
)
from repro.asm import assemble
from repro.isa.instruction import Instruction
from repro.programs.kernels import reduction_storm
from tests.strategies import instructions
from tests.test_timing_static import mt_programs


def single_cfg(**kw):
    kw.setdefault("num_pes", 16)
    return ProcessorConfig(num_threads=1, mt_mode=MTMode.SINGLE, **kw)


def run1(src, **cfg_kw):
    return run_program(".text\n" + src, single_cfg(**cfg_kw), trace=True)


class TestScalarSemantics:
    def test_arithmetic_chain(self):
        res = run1("""
            li   s1, 10
            addi s2, s1, 5
            sub  s3, s2, s1
            halt
        """)
        assert res.scalar(2) == 15
        assert res.scalar(3) == 5

    def test_wrapping_at_width(self):
        res = run1("li s1, 200\naddi s2, s1, 100\nhalt", word_width=8)
        assert res.scalar(2) == (300 & 0xFF)

    def test_logic_ops(self):
        res = run1("""
            li  s1, 0b1100
            li  s2, 0b1010
            and s3, s1, s2
            or  s4, s1, s2
            xor s5, s1, s2
            nor s6, s1, s2
            halt
        """, word_width=8)
        assert res.scalar(3) == 0b1000
        assert res.scalar(4) == 0b1110
        assert res.scalar(5) == 0b0110
        assert res.scalar(6) == 0xFF & ~0b1110

    def test_shifts_and_compares(self):
        res = run1("""
            li   s1, 3
            slli s2, s1, 4
            srli s3, s2, 2
            li   s4, -8
            srai s5, s4, 1
            slt  s6, s4, s1
            sltu s7, s4, s1
            halt
        """, word_width=16)
        assert res.scalar(2) == 48
        assert res.scalar(3) == 12
        assert res.scalar(5) == (-4) & 0xFFFF
        assert res.scalar(6) == 1      # -8 < 3 signed
        assert res.scalar(7) == 0      # 0xFFF8 > 3 unsigned

    def test_s0_hardwired_zero(self):
        res = run1("addi s0, s0, 5\nmove s1, s0\nhalt")
        assert res.scalar(0) == 0
        assert res.scalar(1) == 0

    def test_memory_and_data_section(self):
        res = run_program("""
.data
v: .word 7, 8, 9
.text
    lw   s1, v+1(s0)
    addi s1, s1, 1
    sw   s1, v+1(s0)
    lw   s2, v+1(s0)
    halt
""", single_cfg(word_width=16))
        assert res.scalar(2) == 9
        assert res.memory(0, 3) == [7, 9, 9]

    def test_smul_sdiv(self):
        res = run1("""
            li   s1, 12
            li   s2, 5
            smul s3, s1, s2
            sdiv s4, s1, s2
            sdiv s5, s1, s0
            halt
        """, word_width=16)
        assert res.scalar(3) == 60
        assert res.scalar(4) == 2
        assert res.scalar(5) == 0xFFFF   # divide by zero -> all ones

    def test_lui_32bit(self):
        res = run1("lui s1, 0x1234\nori s1, s1, 0x5678\nhalt",
                   word_width=32)
        assert res.scalar(1) == 0x12345678


class TestControlFlow:
    def test_loop(self):
        res = run1("""
            li   s1, 5
            li   s2, 0
        loop:
            addi s2, s2, 3
            addi s1, s1, -1
            bne  s1, s0, loop
            halt
        """)
        assert res.scalar(2) == 15

    def test_forward_branch_taken(self):
        res = run1("""
            li  s1, 1
            beq s1, s1, skip
            li  s2, 99
        skip:
            halt
        """)
        assert res.scalar(2) == 0

    def test_blt_bge(self):
        res = run1("""
            li  s1, -1
            li  s2, 1
            blt s1, s2, a
            li  s3, 1
        a:  bge s2, s1, b
            li  s4, 1
        b:  halt
        """, word_width=8)
        assert res.scalar(3) == 0 and res.scalar(4) == 0

    def test_call_ret(self):
        res = run1("""
            li   s1, 5
            call double
            call double
            halt
        double:
            add  s1, s1, s1
            ret
        """)
        assert res.scalar(1) == 20

    def test_j_loop_with_counter(self):
        res = run1("""
            li s1, 3
        top:
            beq s1, s0, out
            addi s1, s1, -1
            j   top
        out:
            halt
        """)
        assert res.scalar(1) == 0

    def test_branch_penalty_stall_policy(self):
        res = run1("""
            li  s1, 1
            beq s0, s0, next
        next:
            halt
        """, branch_policy=BranchPolicy.STALL)
        gaps = hazard_distance(res.trace)
        # beq at pc=1; halt issues 3 cycles later (2 bubbles).
        assert gaps[(0, 1)] == 3

    def test_predict_not_taken_free_when_untaken(self):
        res = run1("""
            li  s1, 1
            bne s0, s0, away     # never taken
            halt
        away:
            halt
        """, branch_policy=BranchPolicy.PREDICT_NOT_TAKEN)
        gaps = hazard_distance(res.trace)
        assert gaps[(0, 1)] == 1   # back-to-back


class TestHazardTiming:
    def test_forwarding_makes_scalar_chain_back_to_back(self):
        res = run1("""
            li   s1, 1
            addi s2, s1, 1
            addi s3, s2, 1
            halt
        """)
        gaps = hazard_distance(res.trace)
        assert gaps[(0, 1)] == 1 and gaps[(0, 2)] == 1

    def test_load_use_stall(self):
        res = run1("""
            lw   s1, 0(s0)
            addi s2, s1, 1
            halt
        """)
        assert hazard_distance(res.trace)[(0, 0)] == 2   # 1 stall

    def test_broadcast_hazard_forwarded(self):
        # Figure 2 top: scalar result feeding a parallel instruction
        # issues back-to-back thanks to EX -> B1 forwarding.
        res = run1("""
            li    s1, 7
            padds p1, p0, s1
            halt
        """)
        assert hazard_distance(res.trace)[(0, 0)] == 1

    def test_reduction_hazard_stalls_b_plus_r(self):
        for p in (4, 16, 256):
            cfg = single_cfg(num_pes=p)
            res = run_program("""
.text
    rmax s1, p1
    sub  s2, s1, s1
    halt
""", cfg, trace=True)
            expected = cfg.broadcast_depth + cfg.reduction_depth
            assert hazard_distance(res.trace)[(0, 0)] == expected + 1, p

    def test_broadcast_reduction_hazard_stalls_b_plus_r(self):
        cfg = single_cfg(num_pes=16)
        res = run_program("""
.text
    rmax  s1, p1
    padds p1, p1, s1
    halt
""", cfg, trace=True)
        expected = cfg.broadcast_depth + cfg.reduction_depth
        assert hazard_distance(res.trace)[(0, 0)] == expected + 1

    def test_independent_instructions_hide_reduction_latency(self):
        # ILP scheduling: unrelated scalar work between RMAX and consumer
        # absorbs the stall (what a compiler would do, Section 5).
        res = run1("""
            rmax s1, p1
            li   s3, 1
            li   s4, 2
            li   s5, 3
            sub  s2, s1, s1
            halt
        """)
        waits = res.stats.wait_cycles
        assert waits.get("reduction_hazard", 0) < 8   # partially hidden

    def test_wait_attribution(self):
        res = run1("""
            rmax s1, p1
            sub  s2, s1, s1
            halt
        """)
        assert res.stats.wait_cycles["reduction_hazard"] == 8  # b+r at p=16

    def test_structural_hazard_sequential_multiplier(self):
        cfg = single_cfg(num_pes=16, word_width=8,
                         multiplier=MultiplierKind.SEQUENTIAL)
        res = run_program("""
.text
    pmul p1, p2, p3
    pmul p4, p5, p6     # independent registers, but the unit is busy
    halt
""", cfg, trace=True)
        assert res.stats.wait_cycles["structural"] >= 7

    def test_pipelined_multiplier_no_structural_hazard(self):
        cfg = single_cfg(num_pes=16, multiplier=MultiplierKind.PIPELINED)
        res = run_program("""
.text
    pmul p1, p2, p3
    pmul p4, p5, p6
    halt
""", cfg, trace=True)
        assert res.stats.wait_cycles.get("structural", 0) == 0
        assert hazard_distance(res.trace)[(0, 0)] == 1


class TestParallelSemantics:
    def test_masked_execution(self):
        res = run1("""
            li    s1, 5
            pbcast p1, s1          # p1 = 5 everywhere
            pceqi f1, p0, 0        # all PEs respond (p0 == 0)
            pli   p2, 3
            pclti f2, p2, 99       # all true
            paddi p1, p1, 10 [f2]  # masked add: everywhere
            halt
        """)
        assert (res.pe_reg(1) == 15).all()

    def test_mask_excludes_pes(self):
        proc = Processor(single_cfg(num_pes=16))
        proc.load(assemble("""
.text
    plw   p1, 0(p0)        # PE index
    pclti f1, p1, 8        # first 8 PEs respond
    pli   p2, 1
    paddi p2, p2, 10 [f1]
    halt
"""))
        proc.pe.set_lmem_column(0, list(range(16)))
        res = proc.run()
        values = res.pe_reg(2)
        assert (values[:8] == 11).all()
        assert (values[8:] == 1).all()

    def test_psel(self):
        res = run1("""
            pli  p1, 3
            pli  p2, 9
            fclr f1
            psel p3, p1, p2, f1    # selector false -> p2
            fset f2
            psel p4, p1, p2, f2    # selector true  -> p1
            halt
        """)
        assert (res.pe_reg(3) == 9).all()
        assert (res.pe_reg(4) == 3).all()

    def test_flag_ops_pipeline(self):
        res = run1("""
            fset f1
            fclr f2
            for  f3, f1, f2
            fand f4, f1, f2
            fxor f5, f1, f3
            fnot f6, f2
            fandn f7, f1, f2
            halt
        """)
        assert res.pe_flag(3).all()
        assert not res.pe_flag(4).any()
        assert not res.pe_flag(5).any()
        assert res.pe_flag(6).all()
        assert res.pe_flag(7).all()

    def test_parallel_mem_roundtrip(self):
        res = run1("""
            pli  p1, 42
            psw  p1, 3(p0)
            plw  p2, 3(p0)
            halt
        """)
        assert (res.pe_reg(2) == 42).all()

    def test_reductions_end_to_end(self):
        res = run1("""
            li    s1, 3
            pbcast p1, s1
            rsum  s2, p1        # 3 * 16
            rmax  s3, p1
            rand  s4, p1
            ror   s5, p1
            halt
        """, word_width=16)
        assert res.scalar(2) == 48
        assert res.scalar(3) == 3
        assert res.scalar(4) == 3
        assert res.scalar(5) == 3

    def test_rcount_rany_rfirst(self):
        res = run1("""
            pceqi f1, p0, 0     # all 16 respond
            rcount s1, f1
            rany   s2, f1
            fclr   f2
            rfirst f3, f2       # no responders
            rany   s3, f3
            halt
        """, word_width=16)
        assert res.scalar(1) == 16
        assert res.scalar(2) == 1
        assert res.scalar(3) == 0


class TestMachineLifecycle:
    def test_halt_stops_machine(self):
        res = run1("halt\nli s1, 9\nhalt")
        assert res.scalar(1) == 0

    def test_runaway_detection(self):
        proc = Processor(single_cfg())
        with pytest.raises(SimulationError) as e:
            proc.run(assemble(".text\nloop: j loop\n"), max_cycles=500)
        assert "max_cycles" in str(e.value)

    def test_reuse_processor_between_programs(self):
        proc = Processor(single_cfg())
        r1 = proc.run(assemble(".text\nli s1, 1\nhalt\n"))
        r2 = proc.run(assemble(".text\nli s1, 2\nhalt\n"))
        assert r2.scalar(1) == 2
        assert r2.stats.instructions == 2

    # The first program leaves p-registers, flags and local memory
    # (its own stores and a column written after load(), as --lmem
    # does) non-zero in two contexts; the second reads all of them.
    DIRTY = {
        False: """.text
            pli   p1, 7
            pclti f1, p1, 9
            psw   p1, 5(p0)
            plw   p2, 3(p0)
            paddi p3, p2, 1
            halt
        """,
        True: """.text
            tspawn s1, worker
            pli   p1, 7
            pclti f1, p1, 9
            psw   p1, 5(p0)
            tjoin s1
            halt
        worker:
            plw   p2, 3(p0)
            paddi p1, p2, 2
            pclti f2, p1, 12
            texit
        """,
    }
    READ = {
        False: """.text
            rsum   s1, p1
            rcount s2, f1
            plw    p2, 5(p0)
            rsum   s3, p2
            plw    p4, 3(p0)
            rsum   s4, p4
            halt
        """,
        True: """.text
            tspawn s1, worker
            rsum   s2, p1
            rcount s3, f1
            plw    p2, 5(p0)
            rsum   s4, p2
            tjoin  s1
            halt
        worker:
            rsum   s5, p1
            rcount s6, f2
            plw    p3, 3(p0)
            rsum   s7, p3
            sw     s5, 0(s0)
            sw     s6, 1(s0)
            sw     s7, 2(s0)
            texit
        """,
    }

    @staticmethod
    def _state(machine):
        return (machine.pe.regs.tolist(), machine.pe.flags.tolist(),
                machine.pe.lmem.tolist(),
                machine.mem.dump(0, machine.mem.words),
                [list(c.sregs) for c in machine.threads])

    @pytest.mark.parametrize("spawning", [False, True])
    @pytest.mark.parametrize("backend", ["cycle", "fast"])
    def test_reuse_zeroes_pe_state(self, backend, spawning):
        from repro.assoc.fastpath import FastMachine
        factory = Processor if backend == "cycle" else FastMachine
        cfg = ProcessorConfig(num_pes=8, num_threads=2, word_width=16,
                              lmem_words=8)
        dirty = assemble(self.DIRTY[spawning], word_width=16)
        read = assemble(self.READ[spawning], word_width=16)
        reused = factory(cfg)
        reused.load(dirty)
        reused.pe.set_lmem_column(3, list(range(1, 9)))
        reused.run()
        assert reused.pe.regs.any() and reused.pe.lmem.any()
        fresh = factory(cfg)
        reused.load(read)
        fresh.load(read)
        assert not reused.pe.regs.any() and not reused.pe.lmem.any()
        assert self._state(reused) == self._state(fresh)
        assert reused.run().stats == fresh.run().stats
        assert self._state(reused) == self._state(fresh)

    def test_no_program_loaded(self):
        with pytest.raises(SimulationError):
            Processor(single_cfg()).run()

    def test_stats_consistency(self):
        res = run1("""
            li s1, 3
        loop:
            addi s1, s1, -1
            bne s1, s0, loop
            halt
        """)
        s = res.stats
        assert s.instructions == (s.scalar_instructions
                                  + s.parallel_instructions
                                  + s.reduction_instructions)
        assert s.instructions == 8
        assert 0 < s.ipc <= 1.0
        assert s.issue_slots == s.cycles

    def test_location_in_error(self):
        cfg = single_cfg(multiplier=MultiplierKind.NONE)
        with pytest.raises(SimulationError) as e:
            run_program(".text\npmul p1, p2, p3\nhalt\n", cfg)
        assert "pc=0" in str(e.value)


class TestCachedReadiness:
    """A context's readiness is cached between events; changes that do
    not come from an issue (a fault plane's PC flip, a state edit while
    paused) must still be seen before the context next issues."""

    # pc 2 waits on the reduction; pc 3 is independent of it.
    SOURCE = (".text\n    paddi p1, p1, 1\n    rsum s1, p1\n"
              "    add s2, s1, s1\n    addi s3, s0, 1\n    halt\n")

    def _issues(self, proc):
        return {rec.pc: rec.cycle for rec in proc.trace}

    def test_pc_flip_while_stalled_is_seen(self):
        from repro.faults import FaultKind, FaultPlane, FaultSite, FaultSpec

        program = assemble(self.SOURCE)
        clean = Processor(single_cfg(), trace=True)
        clean.run(program)
        issued = self._issues(clean)
        assert issued[2] - issued[1] > 2          # a real stall
        assert clean.stats.wait_cycles["reduction_hazard"] > 0
        # Flip pc 2 -> 3 while the thread waits on the reduction.
        spec = FaultSpec(FaultSite.THREAD_PC, FaultKind.TRANSIENT,
                         cycle=issued[1] + 2, bit=0)
        plane = FaultPlane([spec], single_cfg())
        proc = Processor(single_cfg(), trace=True, faults=plane)
        result = proc.run(program)
        issued = self._issues(proc)
        assert 2 not in issued and 3 in issued
        # The skipped consumer's hazard is not charged to the new pc.
        assert result.stats.wait_cycles.get("reduction_hazard", 0) == 0

    def test_state_edited_while_paused_is_seen_on_resume(self):
        proc = Processor(single_cfg(), trace=True)
        proc.load(assemble(self.SOURCE))
        proc.run(stop_when=lambda p, cycle: p.stats.instructions == 2
                 and cycle > p.trace[-1].cycle + 1)
        assert proc.paused and proc.threads[0].pc == 2
        proc.threads[0].pc = 3                    # skip the consumer
        result = proc.run()
        assert 2 not in self._issues(proc)
        assert result.stats.wait_cycles.get("reduction_hazard", 0) == 0


class TestBurstMatchesRounds:
    """Without hooks, fine-grain machines and a lone runnable context
    issue without scheduling rounds (``Processor._stream``); a
    ``stop_when`` that never fires turns that off and runs one
    scheduling round per cycle.  Both must leave identical Stats,
    architectural state, scheduler state and errors."""

    MACHINES = {
        "single": dict(mt_mode=MTMode.SINGLE, num_threads=1),
        "fine": dict(mt_mode=MTMode.FINE, num_threads=16),
        "fine2": dict(mt_mode=MTMode.FINE, num_threads=2),
        "fine4": dict(mt_mode=MTMode.FINE, num_threads=4),
        "fine-fixed": dict(mt_mode=MTMode.FINE, num_threads=16,
                           scheduler=SchedulerPolicy.FIXED),
        "coarse": dict(mt_mode=MTMode.COARSE, num_threads=16),
        "smt2": dict(mt_mode=MTMode.SMT2, num_threads=16),
    }
    UNITS = dict(multiplier=MultiplierKind.SEQUENTIAL,
                 divider=DividerKind.SEQUENTIAL, pipelined_reduction=False)

    @staticmethod
    def _observe(program, cfg, max_cycles, trace, stop_when):
        proc = Processor(cfg, trace=trace)
        proc.load(program)
        try:
            proc.run(max_cycles=max_cycles, stop_when=stop_when)
            error = None
        except (SimulationError, RuntimeError, ValueError) as exc:
            error = (type(exc).__name__, str(exc))
        sched = proc.scheduler
        return {
            "error": error,
            "stats": proc.stats,
            "threads": [(c.state, c.pc, list(c.sregs)) for c in proc.threads],
            "pe": (proc.pe.regs.tolist(), proc.pe.flags.tolist(),
                   proc.pe.lmem.tolist()),
            "memory": proc.mem.dump(0, proc.mem.words),
            "scheduler": (sched._pointer, sched._current,
                          sched.switch_until, sched.switches),
            "trace": [(r.cycle, r.thread, r.pc, r.fetch_cycle)
                      for r in proc.trace],
        }

    def _check(self, program, machine, units, max_cycles, trace):
        cfg = ProcessorConfig(num_pes=8, word_width=16,
                              **self.MACHINES[machine],
                              **(self.UNITS if units else {}))
        rounds = self._observe(program, cfg, max_cycles, trace,
                               stop_when=lambda proc, cycle: False)
        bursts = self._observe(program, cfg, max_cycles, trace,
                               stop_when=None)
        assert bursts == rounds

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(body=hs.lists(instructions(), min_size=1, max_size=16),
           machine=hs.sampled_from(sorted(MACHINES)), units=hs.booleans(),
           max_cycles=hs.integers(1, 300), trace=hs.booleans())
    def test_random_instructions(self, body, machine, units, max_cycles,
                                 trace):
        program = Program(instructions=body + [Instruction("halt")])
        self._check(program, machine, units, max_cycles, trace)

    # Stalls in front of inline micro-ops (pcs 3, 7, 10) and in front of
    # instructions the burst sends through _issue: a store (pc 5) and a
    # sequential divide waiting on the divider (pc 9).
    STALLS = """.text
        li    s1, 5
        paddi p1, p0, 3
        rsum  s2, p1
        add   s3, s2, s1
        rsum  s4, p1
        sw    s4, 0(s0)
        lw    s5, 0(s0)
        add   s6, s5, s5
        sdiv  s7, s6, s1
        sdiv  s9, s1, s1
        add   s8, s7, s9
        halt
    """

    @pytest.mark.parametrize("trace", [False, True])
    def test_watchdog_at_every_cycle(self, trace):
        program = assemble(self.STALLS, word_width=16)
        cycles = run_program(program, ProcessorConfig(
            num_pes=8, num_threads=1, mt_mode=MTMode.SINGLE,
            word_width=16)).stats.cycles
        for limit in range(1, cycles + 2):
            self._check(program, "single", False, limit, trace)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(source=mt_programs(), machine=hs.sampled_from(sorted(MACHINES)),
           units=hs.booleans(),
           max_cycles=hs.sampled_from([30, 120, 400, 20_000]),
           trace=hs.booleans())
    def test_mt_programs(self, source, machine, units, max_cycles, trace):
        self._check(assemble(source, word_width=16), machine, units,
                    max_cycles, trace)

    # Eight workers contend every cycle: tput wakes the spinning
    # workers, and with the unpipelined reduction network each rmaxu
    # occupies a unit the other workers' next reductions wait on.
    @pytest.mark.parametrize("units", [False, True])
    @pytest.mark.parametrize("machine", ["fine", "fine-fixed"])
    def test_storm_watchdog_at_every_cycle(self, machine, units):
        program = assemble(reduction_storm(8, total_iters=16,
                                           threads=8).source,
                           word_width=16)
        cfg = ProcessorConfig(num_pes=8, word_width=16,
                              **self.MACHINES[machine],
                              **(self.UNITS if units else {}))
        cycles = run_program(program, cfg).stats.cycles
        for limit in range(1, cycles + 2):
            self._check(program, machine, units, limit, trace=False)
