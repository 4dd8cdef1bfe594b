"""Config validation, sequential units, scalar memory, stats, scheduler."""

import pytest

from repro.core import stats as st_
from repro.core.config import (
    MTMode,
    ProcessorConfig,
    SchedulerPolicy,
)
from repro.core.memory import ScalarMemory, ScalarMemoryFault
from repro.core.scheduler import ThreadScheduler
from repro.core.stats import Stats
from repro.asm import assemble
from repro.core.processor import Processor
from repro.core.thread import (
    NO_WRITE,
    ThreadContext,
    ThreadState,
    ThreadStatusTable,
)
from repro.core.timing import NUM_REG_KEYS, reg_key, result_offset
from repro.isa.opcodes import OPCODES
from repro.pe.seq_units import SequentialUnit


class TestConfigValidation:
    def test_defaults_are_the_prototype(self):
        cfg = ProcessorConfig()
        assert cfg.num_pes == 16
        assert cfg.num_threads == 16
        assert cfg.word_width == 8
        assert cfg.lmem_words == 1024     # 1 KB at 8-bit words
        assert cfg.mt_mode is MTMode.FINE
        assert cfg.scheduler is SchedulerPolicy.ROTATING

    def test_prototype_depths(self):
        cfg = ProcessorConfig()
        assert cfg.broadcast_depth == 4
        assert cfg.reduction_depth == 4

    def test_bad_width(self):
        with pytest.raises(ValueError):
            ProcessorConfig(word_width=12)

    def test_single_mode_needs_one_thread(self):
        with pytest.raises(ValueError):
            ProcessorConfig(mt_mode=MTMode.SINGLE, num_threads=4)

    def test_mt_needs_two_threads(self):
        with pytest.raises(ValueError):
            ProcessorConfig(mt_mode=MTMode.FINE, num_threads=1)

    def test_bad_pes(self):
        with pytest.raises(ValueError):
            ProcessorConfig(num_pes=0)

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            ProcessorConfig(broadcast_arity=1)

    def test_issue_width(self):
        assert ProcessorConfig().issue_width == 1
        assert ProcessorConfig(mt_mode=MTMode.SMT2).issue_width == 2

    def test_describe_mentions_key_params(self):
        text = ProcessorConfig(num_pes=64).describe()
        assert "p=64" in text and "b=" in text and "r=" in text

    def test_arity_shrinks_broadcast_depth(self):
        deep = ProcessorConfig(num_pes=256, broadcast_arity=2)
        shallow = ProcessorConfig(num_pes=256, broadcast_arity=16)
        assert shallow.broadcast_depth < deep.broadcast_depth


class TestSequentialUnit:
    def test_occupy_and_release(self):
        unit = SequentialUnit("mul", latency=8)
        done = unit.occupy(10)
        assert done == 18
        assert not unit.is_free(17)
        assert unit.is_free(18)

    def test_ready_at(self):
        unit = SequentialUnit("mul", latency=4)
        unit.occupy(0)
        assert unit.ready_at(1) == 4
        assert unit.ready_at(9) == 9

    def test_double_occupy_rejected(self):
        unit = SequentialUnit("div", latency=4)
        unit.occupy(0)
        with pytest.raises(RuntimeError):
            unit.occupy(2)

    def test_statistics(self):
        unit = SequentialUnit("mul", latency=3)
        unit.occupy(0)
        unit.occupy(5)
        assert unit.uses == 2
        assert unit.busy_cycles_total == 6
        unit.reset()
        assert unit.uses == 0 and unit.busy_until == 0


class TestScalarMemory:
    def test_roundtrip(self):
        mem = ScalarMemory(16, 8)
        mem.store(3, 200)
        assert mem.load(3) == 200

    def test_wraps_at_width(self):
        mem = ScalarMemory(16, 8)
        mem.store(0, 300)
        assert mem.load(0) == 44

    def test_bounds(self):
        mem = ScalarMemory(4, 8)
        with pytest.raises(ScalarMemoryFault):
            mem.load(4)
        with pytest.raises(ScalarMemoryFault):
            mem.store(-1, 0)

    def test_image_loading(self):
        mem = ScalarMemory(8, 16)
        mem.load_image([1, 2, 3], base=2)
        assert mem.dump(0, 6) == [0, 0, 1, 2, 3, 0]

    def test_image_too_big(self):
        mem = ScalarMemory(2, 8)
        with pytest.raises(ScalarMemoryFault):
            mem.load_image([1, 2, 3])

    def test_dump_bounds(self):
        mem = ScalarMemory(4, 8)
        with pytest.raises(ScalarMemoryFault):
            mem.dump(2, 5)

    def test_reset(self):
        mem = ScalarMemory(4, 8)
        mem.store(0, 9)
        mem.reset()
        assert mem.load(0) == 0


class TestStats:
    def test_ipc_and_utilization(self):
        s = Stats()
        s.cycles = 10
        s.issue_slots = 10
        s.instructions = 5
        assert s.ipc == 0.5
        assert s.utilization == 0.5

    def test_class_counters(self):
        # The processor folds its per-pc issue counts into the class
        # counters, the reduction-unit uses and the per-thread shares.
        proc = Processor(ProcessorConfig(num_pes=4, num_threads=2))
        res = proc.run(assemble(
            ".text\npaddi p1, p0, 3\nrsum s1, p1\nrmax s2, p1\nhalt\n"))
        s = res.stats
        assert (s.scalar_instructions, s.parallel_instructions,
                s.reduction_instructions) == (1, 1, 2)
        assert s.instructions == 4
        assert s.reduction_unit_uses == {"sum": 1, "maxmin": 1}
        assert s.per_thread_issued == {0: 4}
        assert s.idle_slots == s.issue_slots - 4

    def test_fairness_perfect(self):
        s = Stats()
        s.per_thread_issued.update({t: 10 for t in range(4)})
        assert s.fairness() == pytest.approx(1.0)

    def test_fairness_skewed(self):
        s = Stats()
        s.per_thread_issued.update({0: 100, 1: 1})
        assert s.fairness() < 0.6

    def test_empty_stats(self):
        s = Stats()
        assert s.ipc == 0.0
        assert s.utilization == 0.0
        assert s.fairness() == 1.0

    def test_render_contains_waits(self):
        s = Stats()
        s.cycles = 1
        s.wait_cycles[st_.STALL_REDUCTION] += 3
        assert "reduction_hazard" in s.render()


class TestThreadStatusTable:
    def test_allocate_release_cycle(self):
        table = ThreadStatusTable(2)
        t0 = table.allocate(pc=0, start_cycle=1)
        t1 = table.allocate(pc=5, start_cycle=1)
        assert (t0, t1) == (0, 1)
        assert table.allocate(pc=0, start_cycle=1) is None
        table.release(0)
        assert table.allocate(pc=9, start_cycle=2) == 0

    def test_activate_resets_state(self):
        table = ThreadStatusTable(1)
        table.allocate(pc=3, start_cycle=4)
        ctx = table[0]
        ctx.sregs[5] = 99
        ctx.score[reg_key("s", 5)] = (10, 11, 0)
        table.release(0)
        table.allocate(pc=7, start_cycle=9)
        assert ctx.pc == 7
        assert ctx.sregs[5] == 0
        assert ctx.score == [NO_WRITE] * NUM_REG_KEYS

    def test_live_and_runnable(self):
        table = ThreadStatusTable(3)
        table.allocate(0, 0)
        table.allocate(0, 0)
        table[1].state = ThreadState.JOINING
        assert len(table.live_threads()) == 2
        assert len(table.runnable_threads()) == 1

    def test_score_table_records_issued_writes(self):
        """Issue records (result, writeback, producer class) per dest
        register; the entry stays until the next write to it, and once
        its cycles have passed it no longer delays a consumer."""
        cfg = ProcessorConfig(num_pes=4, num_threads=2)
        proc = Processor(cfg)
        proc.load(assemble(".text\n    addi s1, s0, 5\n"
                           "    paddi p2, p2, 1\n    nop\n    nop\n"
                           "    nop\n    add s3, s1, s1\n    halt\n"))
        proc.run(stop_when=lambda p, cycle: p.stats.instructions == 2)
        ctx = proc.threads[0]
        s_off = result_offset(OPCODES["addi"], cfg)
        p_off = result_offset(OPCODES["paddi"], cfg)
        assert ctx.score[reg_key("s", 1)] == (1 + s_off, 2 + s_off, 0)
        assert ctx.score[reg_key("p", 2)] == (2 + p_off, 3 + p_off, 1)
        written = {reg_key("s", 1), reg_key("p", 2)}
        assert all(entry == NO_WRITE for key, entry in enumerate(ctx.score)
                   if key not in written)
        result = proc.run()
        assert ctx.score[reg_key("s", 1)] == (1 + s_off, 2 + s_off, 0)
        assert result.stats.total_wait_cycles == 0

    def test_zero_register_reads_zero(self):
        ctx = ThreadContext(0)
        ctx.sregs[0] = 99    # illegal poke; reads must still be 0
        assert ctx.read_sreg(0) == 0
        ctx.write_sreg(0, 5, 0xFF)
        assert ctx.sregs[0] == 99   # write ignored


class TestSchedulerUnit:
    def _threads(self, n):
        table = ThreadStatusTable(n)
        for _ in range(n):
            table.allocate(0, 0)
        return list(table)

    def test_rotating_cycles_through(self):
        cfg = ProcessorConfig(num_threads=4, num_pes=4)
        sched = ThreadScheduler(cfg)
        threads = self._threads(4)
        order = [sched.select(threads, cycle, {}, None)[0].tid
                 for cycle in range(8)]
        assert order == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_rotating_skips_missing(self):
        cfg = ProcessorConfig(num_threads=4, num_pes=4)
        sched = ThreadScheduler(cfg)
        threads = self._threads(4)
        sched.select(threads, 0, {}, None)          # granted 0
        picked = sched.select([threads[2], threads[3]], 1, {}, None)
        assert picked[0].tid == 2

    def test_fixed_always_lowest(self):
        cfg = ProcessorConfig(num_threads=4, num_pes=4,
                              scheduler=SchedulerPolicy.FIXED)
        sched = ThreadScheduler(cfg)
        threads = self._threads(4)
        for cycle in range(4):
            assert sched.select(threads, cycle, {}, None)[0].tid == 0

    def test_empty_candidates(self):
        cfg = ProcessorConfig(num_threads=4, num_pes=4)
        sched = ThreadScheduler(cfg)
        assert sched.select([], 0, {}, None) == []

    def test_reset(self):
        cfg = ProcessorConfig(num_threads=4, num_pes=4)
        sched = ThreadScheduler(cfg)
        threads = self._threads(4)
        sched.select(threads, 0, {}, None)
        sched.reset()
        assert sched.select(threads, 1, {}, None)[0].tid == 0
