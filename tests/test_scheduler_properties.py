"""Coarse-grain scheduler internals + list-scheduler legality properties."""

from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.core import MTMode, ProcessorConfig
from repro.core.config import SchedulerPolicy
from repro.core.scheduler import ThreadScheduler
from repro.core.thread import ThreadStatusTable
from repro.opt import basic_blocks, build_dag, schedule_block


def coarse_cfg(threshold=3, penalty=3):
    return ProcessorConfig(num_pes=4, num_threads=4, mt_mode=MTMode.COARSE,
                           coarse_switch_threshold=threshold,
                           coarse_switch_penalty=penalty)


def threads(n):
    table = ThreadStatusTable(n)
    for _ in range(n):
        table.allocate(0, 0)
    return list(table)


class TestCoarseGrainScheduler:
    def test_sticks_with_current_thread(self):
        sched = ThreadScheduler(coarse_cfg())
        ts = threads(4)
        first = sched.select(ts, 0, {t.tid: 0 for t in ts}, None)
        assert [t.tid for t in first] == [0]
        again = sched.select(ts, 1, {t.tid: 1 for t in ts}, None)
        assert [t.tid for t in again] == [0]

    def test_rides_out_short_stall(self):
        sched = ThreadScheduler(coarse_cfg(threshold=5))
        ts = threads(4)
        sched.select(ts, 0, {t.tid: 0 for t in ts}, None)
        # Thread 0 stalled for 2 cycles (< threshold): no switch, no issue.
        ready = {0: 3, 1: 1, 2: 1, 3: 1}
        out = sched.select([ts[1], ts[2], ts[3]], 1, ready, None)
        assert out == []
        assert sched.switches == 0

    def test_switches_on_long_stall_with_penalty(self):
        sched = ThreadScheduler(coarse_cfg(threshold=3, penalty=4))
        ts = threads(4)
        sched.select(ts, 0, {t.tid: 0 for t in ts}, None)
        ready = {0: 20, 1: 1, 2: 1, 3: 1}
        out = sched.select([ts[1], ts[2], ts[3]], 1, ready, None)
        assert out == []                      # pays the flush
        assert sched.switches == 1
        assert sched.switch_until == 1 + 4
        # During the penalty window nothing issues.
        assert sched.select([ts[1]], 3, ready, None) == []
        # After it, the new resident thread runs.
        out = sched.select([ts[1]], 5, ready, None)
        assert [t.tid for t in out] == [1]

    def test_switch_target_not_stalled_thread(self):
        sched = ThreadScheduler(coarse_cfg(penalty=0))
        ts = threads(4)
        sched.select(ts, 0, {t.tid: 0 for t in ts}, None)
        ready = {0: 50, 2: 1}
        sched.select([ts[2]], 1, ready, None)      # triggers switch to 2
        out = sched.select([ts[2]], 2, ready, None)
        assert [t.tid for t in out] == [2]

    def test_reset_clears_residency(self):
        sched = ThreadScheduler(coarse_cfg())
        ts = threads(4)
        sched.select(ts, 0, {t.tid: 0 for t in ts}, None)
        sched.reset()
        out = sched.select([ts[3]], 0, {3: 0}, None)
        assert [t.tid for t in out] == [3]
        assert sched.switches == 0


LINES = st.sampled_from([
    "    addi s1, s1, 1",
    "    add  s2, s1, s3",
    "    sub  s3, s2, s1",
    "    paddi p1, p1, 1",
    "    padd p2, p1, p1",
    "    pceqi f1, p1, 3",
    "    rmax s4, p2 [f1]",
    "    rsum s5, p1",
    "    add  s1, s4, s5",
    "    plw  p3, 0(p0)",
    "    psw  p2, 1(p0)",
    "    fand f2, f1, f1",
])


class TestPriorityScan:
    """``_first`` and ``_rotate`` scan tid-ordered candidates instead of
    sorting under a priority key; they must grant in the same order."""

    @staticmethod
    def _order(policy, pointer, n, candidates):
        if policy is SchedulerPolicy.FIXED:
            return sorted(candidates, key=lambda t: t.tid)
        return sorted(candidates, key=lambda t: (t.tid - pointer - 1) % n)

    @classmethod
    def _reference(cls, policy, pointer, n, candidates):
        return cls._order(policy, pointer, n, candidates)[0]

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 16), data=st.data(),
           policy=st.sampled_from(list(SchedulerPolicy)),
           mode=st.sampled_from([MTMode.FINE, MTMode.COARSE]))
    def test_scan_grants_the_priority_minimum(self, n, data, policy, mode):
        tids = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        pointer = data.draw(st.integers(-1, n - 1))
        sched = ThreadScheduler(ProcessorConfig(
            num_pes=4, num_threads=n, mt_mode=mode, scheduler=policy))
        sched._pointer = pointer
        table = threads(n)
        candidates = [table[t] for t in tids]
        expected = self._reference(policy, pointer, n, candidates)
        assert sched._first(candidates) is expected
        assert sched._rotate(candidates) == self._order(policy, pointer, n,
                                                        candidates)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 16),
           rounds=st.lists(st.sets(st.integers(0, 15), min_size=1),
                           min_size=1, max_size=20))
    def test_fine_grain_grants_follow_the_rotation(self, n, rounds):
        sched = ThreadScheduler(ProcessorConfig(num_pes=4, num_threads=n))
        table = threads(n)
        for cycle, ready in enumerate(rounds):
            candidates = [table[t] for t in sorted(ready) if t < n]
            if not candidates:
                continue
            expected = self._reference(SchedulerPolicy.ROTATING,
                                       sched._pointer, n, candidates)
            assert sched.select(candidates, cycle, {}, None) == [expected]
            assert sched._pointer == expected.tid


class TestListSchedulerLegality:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(LINES, min_size=2, max_size=14))
    def test_schedule_is_dependence_respecting_permutation(self, lines):
        cfg = ProcessorConfig(num_pes=8, num_threads=1,
                              mt_mode=MTMode.SINGLE, word_width=16)
        prog = assemble(".text\n" + "\n".join(lines) + "\n")
        instrs = list(prog.instructions)
        out = schedule_block(instrs, cfg)

        # Permutation of the original instructions.
        assert sorted(i.encode() for i in out) == \
            sorted(i.encode() for i in instrs)

        # Every dependence edge of the original DAG still points forward.
        nodes = build_dag(instrs, cfg)
        position = {}
        remaining = list(out)
        for idx, instr in enumerate(instrs):
            # Identify by object identity (schedule_block reuses objects).
            position[idx] = next(i for i, x in enumerate(remaining)
                                 if x is instr)
        for node in nodes:
            for succ in node.succs:
                assert position[node.index] < position[succ], (
                    f"dependence {node.index}->{succ} violated")

    @settings(max_examples=30, deadline=None)
    @given(st.lists(LINES, min_size=2, max_size=12))
    def test_whole_program_blocks_preserved(self, lines):
        cfg = ProcessorConfig(num_pes=8, num_threads=1,
                              mt_mode=MTMode.SINGLE, word_width=16)
        src = (".text\nmain:\n" + "\n".join(lines)
               + "\n    bne s1, s0, main\n    halt\n")
        prog = assemble(src)
        from repro.opt import schedule_program

        sched = schedule_program(prog, cfg)
        assert len(sched.instructions) == len(prog.instructions)
        for block in basic_blocks(prog):
            orig = {i.encode() for i in
                    prog.instructions[block.start:block.end]}
            new = {i.encode() for i in
                   sched.instructions[block.start:block.end]}
            assert orig == new
