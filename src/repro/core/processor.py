"""The Multithreaded ASC Processor: cycle-accurate top level.

Wires together the control unit's components (thread status table,
per-thread scoreboards, scheduler), the PE array, and the
broadcast/reduction network timing model, and runs assembled programs.

Timing discipline (DESIGN.md Section 5): instruction *effects* are applied
at issue, in program order per thread; *cycle* behaviour is enforced by
per-register ready times (forwarding-aware), structural busy windows for
the sequential units, and control-resolution delays.  Because issue is
in-order and the scoreboard blocks issue until every source is
forwardable, reading architectural state at issue yields exactly the
values the real pipeline would forward.

The issue loop reads every latency from one per-pc
:class:`~repro.core.timing.TimingModel` table and keeps each context's
readiness cached until an event that can move it: the thread's own
issue, a ``tput`` delivery into its registers, a join wake, a spawn, or
the occupancy of the structural unit it waits on.  Instructions run as
per-pc micro-ops compiled once per program
(:func:`~repro.core.execute.compile_fastops`): scalar ALU, ``lui`` and
branch instructions always, and every parallel, flag and reduction
instruction on a machine without a fault plane.  Jumps, memory, thread
and halt instructions go through the
:class:`~repro.core.execute.Executor`, as do the PE instructions of a
machine with a fault plane, whose hooks live there.

Without a fetch model, fault plane or ``stop_when``, the loop runs no
scheduling rounds: :meth:`Processor._stream` keeps the runnable
contexts' readiness itself and issues one instruction per cycle, picked
as fine-grain ``select`` picks, the micro-ops of unit-free pcs inline
and everything else through :meth:`Processor._issue`.  It runs under
fine-grain and single-context issue, and under coarse-grain and SMT2
issue while exactly one context is runnable (any others wait in
``tjoin``).  Rounds still run under the fetch model or a fault plane,
when ``run()`` is given a ``stop_when``, and under coarse-grain or SMT2
issue while more than one context is runnable.  Issue counts are kept
per pc and folded into :class:`Stats` when ``run()`` exits;
``Stats.instructions`` alone is kept exact every round.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.asm.program import Program
from repro.core.config import DividerKind, MultiplierKind, ProcessorConfig
from repro.core import stats as st
from repro.core.execute import (
    BranchOp,
    ExecutionError,
    Executor,
    PlainOp,
    compile_fastops,
)
from repro.core.fetch import FetchUnit
from repro.core.memory import ScalarMemory
from repro.core.scheduler import ThreadScheduler
from repro.core.stats import Stats
from repro.core.thread import ThreadContext, ThreadState, ThreadStatusTable
from repro.core.timing import (
    K_TJOIN,
    K_TPUT,
    RAW_CAUSE,
    UNIT_DIV,
    UNIT_MUL,
    UNIT_REDUCTION,
    TimingModel,
)
from repro.isa.instruction import Instruction
from repro.pe.pe_array import PEArray
from repro.pe.seq_units import (
    SequentialUnit,
    sequential_div_latency,
    sequential_mul_latency,
)


class SimulationError(RuntimeError):
    """Deadlock, runaway execution, or an illegal program."""


class SimTimeout(SimulationError):
    """The cycle-limit watchdog fired: the program exceeded ``max_cycles``.

    A typed subclass so callers (the fault-campaign runner, tests) can
    distinguish a hung program from other simulation failures while old
    ``except SimulationError`` code keeps working.
    """


@dataclass
class IssueRecord:
    """One issued instruction, for pipeline traces and debugging."""

    cycle: int
    thread: int
    pc: int
    instr: Instruction
    fetch_cycle: int      # when the instruction could first have issued - 1


@dataclass
class RunResult:
    """Outcome of one program run."""

    stats: Stats
    processor: "Processor"
    trace: list[IssueRecord] = field(default_factory=list)
    paused: bool = False

    # Convenience accessors used throughout tests/examples/benchmarks.

    def scalar(self, reg: int, thread: int = 0) -> int:
        return self.processor.threads[thread].read_sreg(reg)

    def pe_reg(self, reg: int, thread: int = 0) -> np.ndarray:
        return self.processor.pe.read_reg(thread, reg).copy()

    def pe_flag(self, flag: int, thread: int = 0) -> np.ndarray:
        return self.processor.pe.read_flag(thread, flag).copy()

    def memory(self, base: int, count: int) -> list[int]:
        return self.processor.mem.dump(base, count)

    @property
    def cycles(self) -> int:
        return self.stats.cycles


class Processor:
    """One configured machine instance.  Reusable across programs."""

    def __init__(self, config: ProcessorConfig | None = None,
                 trace: bool = False, faults=None, sanitizer=None,
                 profiler=None) -> None:
        self.cfg = config or ProcessorConfig()
        cfg = self.cfg
        # Optional fault-injection plane (repro.faults.FaultPlane), race
        # sanitizer (repro.core.sanitizer.RaceSanitizer), and cycle
        # profiler (repro.obs.CycleProfiler).  All hooks hide behind
        # "is not None" checks: a machine without them pays nothing and
        # its cycle-level behaviour is bit-for-bit unchanged.
        self.faults = faults
        self.sanitizer = sanitizer
        self.profiler = profiler
        self.pe = PEArray(cfg.num_pes, cfg.num_threads, cfg.word_width,
                          cfg.lmem_words)
        self.mem = ScalarMemory(cfg.scalar_mem_words, cfg.word_width)
        self.threads = ThreadStatusTable(cfg.num_threads)
        self.executor = Executor(self.pe, self.mem, self.threads,
                                 cfg.word_width, faults=faults,
                                 sanitizer=sanitizer)
        self.scheduler = ThreadScheduler(cfg)
        self.trace_enabled = trace
        self.program: Program | None = None
        self.stats = Stats()
        self.trace: list[IssueRecord] = []
        self.halted = False
        self.paused = False
        self._cycle = 0
        self.fetch: FetchUnit | None = None
        # Structural units (shared machine-wide; the PE array is lockstep),
        # indexed by TimingModel unit id; None where the machine has none.
        self.units: list[SequentialUnit | None] = [None, None, None]
        if cfg.multiplier is MultiplierKind.SEQUENTIAL:
            self.units[UNIT_MUL] = SequentialUnit(
                "sequential multiplier", sequential_mul_latency(cfg.word_width))
        if cfg.divider is DividerKind.SEQUENTIAL:
            self.units[UNIT_DIV] = SequentialUnit(
                "sequential divider", sequential_div_latency(cfg.word_width))
        if not cfg.pipelined_reduction:
            # Legacy unpipelined network: one reduction at a time.
            self.units[UNIT_REDUCTION] = SequentialUnit(
                "unpipelined reduction network", 1)
        # Per-program compiled state (rebuilt when the program changes).
        self._model: TimingModel | None = None
        self._plain: list[PlainOp | None] = []
        self._branch: list[BranchOp | None] = []
        # Per-pc: the record _stream issues it from inline (see
        # _inline_records), or None; and how often it issued since reset.
        self._inline: list[tuple | None] = []
        self._issued: list[int] = []
        # Per-context readiness cache: (ready, cause, base), valid while
        # the context's dirty flag is clear; plus the structural unit id
        # the cached value waits on (-1 for none).  A context's last
        # issue before it exits (texit) dirties it, so a later spawn
        # into the context always starts from a fresh evaluation.
        self._ready: list[tuple[int, str | None, int]] = []
        self._dirty: list[bool] = []
        self._wait_unit: list[int] = []

    # -- program loading --------------------------------------------------------

    def load(self, program: Program) -> None:
        """Load a program and reset all machine state."""
        self.program = program
        self.reset()

    def reset(self) -> None:
        """Reset architectural and microarchitectural state."""
        cfg = self.cfg
        self.pe.reset()
        self.mem.reset()
        if self.program is not None:
            self.mem.load_image(self.program.data)
            if self._model is None or self._model.program is not self.program:
                self._model = TimingModel(self.program, cfg)
                self._plain, self._branch = compile_fastops(
                    self.program, cfg.word_width,
                    self.pe if self.faults is None else None)
                hooked = (self.sanitizer is not None
                          or self.profiler is not None or self.trace_enabled)
                self._inline = _inline_records(
                    self._model, self._plain, self._branch, hooked)
            self._issued = [0] * len(self.program.instructions)
        self.threads = ThreadStatusTable(cfg.num_threads)
        self.executor = Executor(self.pe, self.mem, self.threads,
                                 cfg.word_width, faults=self.faults,
                                 sanitizer=self.sanitizer)
        self.scheduler.reset()
        for unit in self.units:
            if unit is not None:
                unit.reset()
        self.stats = Stats()
        self.trace = []
        self.halted = False
        self.paused = False
        self._cycle = 1   # first instruction is fetched at 0, issues at 1
        self._ready = [(0, None, 0)] * cfg.num_threads
        self._dirty = [True] * cfg.num_threads
        self._wait_unit = [-1] * cfg.num_threads
        self.fetch = (FetchUnit(cfg.num_threads, cfg.effective_fetch_width,
                                cfg.fetch_buffer_depth)
                      if cfg.model_fetch else None)
        if self.program is not None:
            tid = self.threads.allocate(self.program.entry, start_cycle=1)
            assert tid == 0
            if self.fetch is not None:
                self.fetch.thread_started(tid, 0)
        if self.faults is not None:
            self.faults.attach(self)
        if self.sanitizer is not None:
            self.sanitizer.attach(self)
        if self.profiler is not None:
            self.profiler.attach(self)
            if self.program is not None:
                self.profiler.on_activate(0, 1)

    # -- hazard / readiness evaluation ------------------------------------------

    def _readiness(self, thread: ThreadContext,
                   cycle: int) -> tuple[int, str | None, int]:
        """(earliest issue cycle, binding wait cause, base cycle) for the
        thread's next instruction."""
        pc = thread.pc
        table = self._model.table
        if not 0 <= pc < len(table):
            raise SimulationError(
                f"thread {thread.tid}: PC {pc} outside the program "
                f"(0..{len(table) - 1})")
        it = table[pc]
        base = thread.min_issue
        if thread.last_issue >= base:
            base = thread.last_issue + 1
        if self.fetch is not None:
            fetched = self.fetch.earliest_issue(thread.tid, cycle)
            if fetched > base:
                base = fetched
        ready = base
        cause: str | None = None
        score = thread.score
        for key, read_off in it.srcs:
            entry = score[key]
            need = entry[0] + 1 - read_off
            if need > ready:
                ready = need
                cause = RAW_CAUSE[entry[2] * 3 + it.klass]
        if it.wb >= 0:
            need = score[it.dest][1] + 1 - it.wb
            if need > ready:
                ready = need
                cause = st.STALL_WAW
        if it.unit >= 0:
            busy = self.units[it.unit].busy_until
            if busy > ready:
                ready = busy
                cause = st.STALL_STRUCTURAL
        self._wait_unit[thread.tid] = it.unit
        return ready, cause, base

    @staticmethod
    def _timeout(limit: int, live: list[ThreadContext]) -> SimTimeout:
        return SimTimeout(f"exceeded max_cycles={limit}; "
                          f"live threads at {[t.pc for t in live]}")

    # -- issue -------------------------------------------------------------------

    def _issue(self, thread: ThreadContext, cycle: int, base: int,
               cause: str | None) -> bool:
        """Issue the thread's next instruction; returns False if the
        instruction turned out to block (tjoin on a live thread)."""
        program = self.program
        pc = thread.pc
        tid = thread.tid
        it = self._model.table[pc]
        instr = program.instructions[pc]
        cfg = self.cfg
        stats = self.stats
        threads = self.threads
        dirty = self._dirty

        # tjoin gates at issue: the joining thread sleeps until the target
        # context is released, then the join completes as a plain issue.
        if it.kind == K_TJOIN:
            target = threads[thread.read_sreg(instr.rs) % cfg.num_threads]
            if target.state is not ThreadState.FREE:
                thread.state = ThreadState.JOINING
                thread.join_target = target.tid
                if self.profiler is not None:
                    self.profiler.on_join_block(tid, cycle, base, cause)
                return False

        if it.raises is not None:
            raise SimulationError(it.raises)

        if cause is not None and cycle > base:
            stats.wait_cycles[cause] += cycle - base

        if self.sanitizer is not None:
            # Past the tjoin gate: the instruction definitely issues
            # this cycle, so register-consumption and join edges are
            # recorded exactly once.
            self.sanitizer.on_issue(thread, instr, cfg.num_threads)

        spawned = None
        halt = False
        op = self._plain[pc]
        if op is not None:
            op(thread)
            taken = False
            next_pc = pc + 1
        else:
            test = self._branch[pc]
            if test is not None:
                taken = test(thread)
                next_pc = it.target if taken else pc + 1
            else:
                try:
                    outcome = self.executor.execute(instr, thread, cycle)
                except ExecutionError as exc:
                    raise SimulationError(
                        f"{exc} at {program.location_of(pc)}") from exc
                taken = outcome.taken
                next_pc = outcome.next_pc
                halt = outcome.halt
                spawned = outcome.spawned

        # Structural occupancy; contexts waiting on the unit re-evaluate.
        if it.unit >= 0:
            unit = self.units[it.unit]
            unit.latency = it.occupancy
            unit.occupy(cycle)
            wait_unit = self._wait_unit
            for other in threads.live_threads():
                if wait_unit[other.tid] == it.unit:
                    dirty[other.tid] = True

        # Scoreboard update for the destination register.
        if it.roff >= 0:
            thread.score[it.dest] = (cycle + it.roff, cycle + it.wb, it.klass)
        if it.kind == K_TPUT:
            target = threads[thread.read_sreg(instr.rd) % cfg.num_threads]
            target.score[instr.imm] = (cycle + 2, cycle + 3, it.klass)
            dirty[target.tid] = True

        # Control flow and thread state.
        resolve = it.resolve_taken if taken else it.resolve_not_taken
        thread.min_issue = cycle + resolve
        if resolve > 1:
            stats.wait_cycles[st.STALL_CONTROL] += resolve - 1
        if self.fetch is not None:
            self.fetch.consume(tid)
            if resolve > 1:
                # Squash wrong-path/sequential entries; the refetch delay
                # is covered by min_issue (the control bubble).
                self.fetch.redirect(tid, cycle + resolve - 1)
        thread.pc = next_pc
        thread.last_issue = cycle
        thread.instructions_issued += 1
        dirty[tid] = True

        if halt:
            self.halted = True
        if thread.state is ThreadState.EXITED:
            if self.sanitizer is not None:
                self.sanitizer.on_exit(tid)
            threads.release(tid)
            self._wake_joiners(tid, cycle)
        if spawned is not None:
            if self.sanitizer is not None:
                self.sanitizer.on_spawn(tid, spawned, pc)
            stats.threads_spawned += 1
            if self.fetch is not None:
                self.fetch.thread_started(spawned, cycle)
            if self.profiler is not None:
                self.profiler.on_activate(spawned, cycle + 1)

        # Statistics and trace.
        self._issued[pc] += 1
        if self.profiler is not None:
            self.profiler.on_issue(tid, it.mnemonic, it.eclass, cycle, base,
                                   cause, resolve)
        if self.trace_enabled:
            self.trace.append(IssueRecord(cycle, tid, pc, instr,
                                          fetch_cycle=base - 1))
        return True

    def _wake_joiners(self, exited_tid: int, cycle: int) -> None:
        for ctx in self.threads.live_threads():
            if (ctx.state is ThreadState.JOINING
                    and ctx.join_target == exited_tid):
                ctx.state = ThreadState.RUNNABLE
                ctx.join_target = None
                ctx.min_issue = max(ctx.min_issue, cycle + 1)
                self._dirty[ctx.tid] = True
                self.stats.wait_cycles[st.STALL_JOIN] += 1
                if self.profiler is not None:
                    self.profiler.on_join_wake(ctx.tid, cycle)

    # -- hook-free issue -----------------------------------------------------------

    def _stream(self, live: list[ThreadContext], cycle: int,
                limit: int) -> int:
        """Issue the runnable contexts of ``live`` without scheduling rounds.

        With no fetch model, fault plane or ``stop_when``, a round
        reduces to the runnable contexts' readiness and the scheduler's
        pick, so this method keeps each context's ``(ready, cause,
        base)`` itself, picks as fine-grain ``select`` does (the first
        ready context past the rotating pointer, else the first ready
        one; the first ready one under fixed priority), jumps to the
        next ready cycle under the same watchdog and issues.  A pc with
        an ``_inline`` record runs its micro-op here and only the issuing
        context's readiness is recomputed; every other pc goes through
        :meth:`_issue`, after which the contexts it dirtied are
        refreshed.  Runs under fine-grain or single-context issue, and
        under any mode while one context is runnable (the caller has
        granted it with ``grant_lone``); that lone context issues back to
        back with its pc, ``min_issue`` and ``last_issue`` in locals.
        Returns the next round's cycle once the live list changes, the
        machine halts or the issuing context stops being runnable.
        """
        inline = self._inline
        issued = self._issued
        threads = self.threads
        dirty = self._dirty
        wait = self.stats.wait_cycles
        runnable = ThreadState.RUNNABLE
        control = st.STALL_CONTROL
        waw = st.STALL_WAW
        ctxs = [t for t in live if t.state is runnable]
        first = sum(t.instructions_issued for t in ctxs)
        if len(ctxs) == 1:
            thread = ctxs[0]
            n = len(inline)
            score = thread.score
            while True:
                pc = thread.pc
                rec = inline[pc] if 0 <= pc < n else None
                if rec is None:
                    # The round's order: the watchdog, then readiness
                    # (which rejects a pc outside the program), then the
                    # watchdog at the ready cycle.
                    if cycle > limit:
                        raise self._timeout(limit, live)
                    ready, cause, base = self._readiness(thread, cycle)
                    if ready > cycle:
                        cycle = ready
                        if cycle > limit:
                            raise self._timeout(limit, live)
                    self._issue(thread, cycle, base, cause)
                    cycle += 1
                    if (self.halted or thread.state is not runnable
                            or threads.live_threads() is not live):
                        break
                    continue
                # A stretch of inline pcs keeps the thread's pc, min_issue
                # and last_issue in locals; ``finally`` stores them back.
                min_issue = thread.min_issue
                last = thread.last_issue
                count = 0
                try:
                    while True:
                        (srcs, causes, klass, dest, roff, wb, op, test,
                         target, resolve_taken, resolve_not_taken) = rec
                        base = min_issue if min_issue > last else last + 1
                        ready = base
                        cause = None
                        for key, lag in srcs:
                            entry = score[key]
                            need = entry[0] + lag
                            if need > ready:
                                ready = need
                                cause = causes[entry[2]]
                        if wb >= 0:
                            need = score[dest][1] + 1 - wb
                            if need > ready:
                                ready = need
                                cause = waw
                        if ready > cycle:
                            cycle = ready
                        if cycle > limit:
                            thread.pc = pc
                            raise self._timeout(limit, live)
                        if cause is not None and cycle > base:
                            wait[cause] += cycle - base
                        if op is not None:
                            op(thread)
                            resolve = resolve_not_taken
                            issued[pc] += 1
                            pc += 1
                        elif test(thread):
                            resolve = resolve_taken
                            issued[pc] += 1
                            pc = target
                        else:
                            resolve = resolve_not_taken
                            issued[pc] += 1
                            pc += 1
                        if roff >= 0:
                            score[dest] = (cycle + roff, cycle + wb, klass)
                        min_issue = cycle + resolve
                        if resolve > 1:
                            wait[control] += resolve - 1
                        last = cycle
                        count += 1
                        cycle += 1
                        rec = inline[pc]
                        if rec is None:
                            break
                finally:
                    thread.pc = pc
                    thread.min_issue = min_issue
                    thread.last_issue = last
                    thread.instructions_issued += count
        else:
            # Several runnable contexts: per-position readiness, fresh
            # from the round that called us, and the scheduler's grant
            # orders over the positions.
            scheduler = self.scheduler
            cache = self._ready
            ready_at = [cache[t.tid][0] for t in ctxs]
            cause_of = [cache[t.tid][1] for t in ctxs]
            base_of = [cache[t.tid][2] for t in ctxs]
            order, after = scheduler.fine_orders(ctxs)
            switch_until = scheduler.switch_until
            granted = None
            try:
                while True:
                    if cycle > limit:
                        raise self._timeout(limit, live)
                    for i in order:
                        if ready_at[i] <= cycle:
                            break
                    else:
                        cycle = max(min(ready_at), switch_until, cycle + 1)
                        continue
                    order = after[i]
                    granted = thread = ctxs[i]
                    pc = thread.pc
                    rec = inline[pc]
                    if rec is None:
                        self._issue(thread, cycle, base_of[i], cause_of[i])
                        cycle += 1
                        if (self.halted or thread.state is not runnable
                                or threads.live_threads() is not live):
                            break
                        # The next round's order: the watchdog, then the
                        # contexts _issue dirtied (its own, whose pc may
                        # now lie outside the program, and maybe others).
                        if cycle > limit:
                            raise self._timeout(limit, live)
                        for j, t in enumerate(ctxs):
                            if dirty[t.tid]:
                                ready_at[j], cause_of[j], base_of[j] = \
                                    self._readiness(t, cycle)
                                dirty[t.tid] = False
                        continue
                    (srcs, causes, klass, dest, roff, wb, op, test,
                     target, resolve_taken, resolve_not_taken) = rec
                    cause = cause_of[i]
                    if cause is not None and cycle > base_of[i]:
                        wait[cause] += cycle - base_of[i]
                    if op is not None:
                        op(thread)
                        resolve = resolve_not_taken
                        thread.pc = pc + 1
                    elif test(thread):
                        resolve = resolve_taken
                        thread.pc = target
                    else:
                        resolve = resolve_not_taken
                        thread.pc = pc + 1
                    issued[pc] += 1
                    score = thread.score
                    if roff >= 0:
                        score[dest] = (cycle + roff, cycle + wb, klass)
                    min_issue = cycle + resolve
                    if resolve > 1:
                        wait[control] += resolve - 1
                    thread.min_issue = min_issue
                    thread.last_issue = cycle
                    thread.instructions_issued += 1
                    cycle += 1
                    # Only the issuing context's readiness moved.  An
                    # inline pc waits on no unit, like the one it follows,
                    # so its _wait_unit entry (-1) stays right.
                    rec = inline[thread.pc]
                    if rec is None:
                        # An inline pc's successors lie in the program.
                        ready_at[i], cause_of[i], base_of[i] = \
                            self._readiness(thread, cycle)
                        continue
                    srcs, causes, _, dest, _, wb = rec[:6]
                    base = min_issue if min_issue > cycle else cycle
                    ready = base
                    cause = None
                    for key, lag in srcs:
                        entry = score[key]
                        need = entry[0] + lag
                        if need > ready:
                            ready = need
                            cause = causes[entry[2]]
                    if wb >= 0:
                        need = score[dest][1] + 1 - wb
                        if need > ready:
                            ready = need
                            cause = waw
                    ready_at[i] = ready
                    cause_of[i] = cause
                    base_of[i] = base
            finally:
                if granted is not None:
                    scheduler.granted(granted.tid)
        for t in ctxs:
            dirty[t.tid] = True
        self.stats.instructions += (
            sum(t.instructions_issued for t in ctxs) - first)
        return cycle

    # -- main loop ------------------------------------------------------------------

    def run(self, program: Program | None = None,
            max_cycles: int | None = None,
            stop_when=None) -> RunResult:
        """Run to completion (halt or all threads exited).

        ``stop_when(processor, cycle)`` — evaluated once per scheduling
        round — pauses the run cleanly when it returns True; the
        returned result has ``paused=True`` and a later ``run()`` call
        resumes from the same cycle.  Used by
        :class:`repro.core.debugger.Debugger`.  ``stats.instructions``
        is exact whenever ``stop_when`` runs; the other issue counters
        are folded in when ``run()`` returns or raises.
        """
        if program is not None:
            self.load(program)
        if self.program is None:
            raise SimulationError("no program loaded")
        cfg = self.cfg
        limit = max_cycles if max_cycles is not None else cfg.max_cycles
        cycle = self._cycle
        self.paused = False

        faults = self.faults
        fetch = self.fetch
        scheduler = self.scheduler
        stats = self.stats
        program = self.program
        threads = self.threads
        runnable = ThreadState.RUNNABLE
        # The fetch model's earliest issue moves with the current cycle
        # and the fault plane may rewrite PCs, so under either every
        # context re-evaluates every round.  Otherwise a context keeps
        # its cached readiness until an event dirties it; state may
        # have changed while paused, so every context starts dirty.
        volatile = fetch is not None or faults is not None
        # Rounds give way to _stream except where a round has per-cycle
        # work: the fetch model, the fault plane and stop_when.
        streams = not volatile and stop_when is None
        fine_grain = scheduler.fine_grain
        ready_cache = self._ready
        dirty = self._dirty
        dirty[:] = [True] * len(dirty)
        want_ready = scheduler.needs_ready_of
        ready_of: dict[int, int] = {}

        try:
            while not self.halted:
                if stop_when is not None and stop_when(self, cycle):
                    self.paused = True
                    break
                live = threads.live_threads()
                if not live:
                    break
                if cycle > limit:
                    raise self._timeout(limit, live)
                if faults is not None:
                    faults.begin_cycle(cycle)
                if fetch is not None:
                    fetch.advance_to(
                        cycle, [t.tid for t in live if t.state is runnable])

                if want_ready:
                    ready_of = {}
                candidates: list[ThreadContext] = []
                next_ready = None
                for thread in live:
                    if thread.state is not runnable:
                        continue
                    tid = thread.tid
                    if volatile or dirty[tid]:
                        ready_cache[tid] = self._readiness(thread, cycle)
                        dirty[tid] = False
                    rc = ready_cache[tid][0]
                    if want_ready:
                        ready_of[tid] = rc
                    if rc <= cycle:
                        candidates.append(thread)
                    elif next_ready is None or rc < next_ready:
                        next_ready = rc

                if not candidates:
                    if next_ready is None:
                        joining = [t.tid for t in live
                                   if t.state is ThreadState.JOINING]
                        raise SimulationError(
                            f"deadlock: threads {joining} blocked in tjoin "
                            f"with no runnable thread")
                    cycle = max(next_ready, scheduler.switch_until, cycle + 1)
                    continue

                # Every mode streams a lone runnable context (one
                # candidate, no later-ready context) that the scheduler
                # grants alone; fine-grain issue streams any number.
                if streams and (next_ready is None and len(candidates) == 1
                                and scheduler.grant_lone(candidates[0].tid,
                                                         cycle)
                                or fine_grain):
                    cycle = self._stream(live, cycle, limit)
                    continue
                chosen = scheduler.select(candidates, cycle, ready_of,
                                          program)
                issued = 0
                for thread in chosen:
                    _, cause, base = ready_cache[thread.tid]
                    if self._issue(thread, cycle, base, cause):
                        issued += 1
                    if self.halted:
                        break
                stats.instructions += issued
                cycle += 1
        finally:
            self._fold_issues()

        self._cycle = cycle
        stats.cycles = cycle - 1
        stats.issue_slots = stats.cycles * cfg.issue_width
        stats.idle_slots = stats.issue_slots - stats.instructions
        if self.profiler is not None and not self.paused:
            self.profiler.finalize(self)
        return RunResult(stats, self, self.trace, paused=self.paused)

    def _fold_issues(self) -> None:
        """Set the Stats issue counters from the per-pc issue counts and
        the contexts' own counts (both cumulative since reset)."""
        stats = self.stats
        classes = [0, 0, 0]
        runits: Counter = Counter()
        for it, count in zip(self._model.table, self._issued):
            if count:
                classes[it.klass] += count
                if it.runit is not None:
                    runits[it.runit] += count
        stats.instructions = sum(classes)
        (stats.scalar_instructions, stats.parallel_instructions,
         stats.reduction_instructions) = classes
        stats.reduction_unit_uses = runits
        stats.per_thread_issued = Counter(
            {ctx.tid: ctx.instructions_issued for ctx in self.threads
             if ctx.instructions_issued})


def _inline_records(model: TimingModel, plain: list[PlainOp | None],
                    branch: list[BranchOp | None],
                    hooked: bool) -> list[tuple | None]:
    """Per-pc records for :meth:`Processor._stream`'s inline issue.

    A pc gets one when it has a compiled micro-op, no structural unit,
    no ``raises`` and successors inside the program, on a machine with
    no sanitizer, profiler or trace (their hooks live in ``_issue``).
    The record holds the pc's :class:`~repro.core.timing.InstrTiming`
    fields in unpacking order, with each source's read offset folded
    into the lag a producer's result cycle needs, and the RAW cause of
    each producer class.
    """
    n = len(model.table)
    records: list[tuple | None] = [None] * n
    if hooked:
        return records
    for pc, (it, op, test) in enumerate(zip(model.table, plain, branch)):
        if op is None and test is None or it.unit >= 0 \
                or it.raises is not None or pc + 1 >= n \
                or test is not None and not 0 <= it.target < n:
            continue
        records[pc] = (
            tuple((key, 1 - read_off) for key, read_off in it.srcs),
            tuple(RAW_CAUSE[p * 3 + it.klass] for p in range(3)),
            it.klass, it.dest, it.roff, it.wb, op, test, it.target,
            it.resolve_taken, it.resolve_not_taken)
    return records


def run_program(source_or_program, config: ProcessorConfig | None = None,
                trace: bool = False, profiler=None,
                **asm_kwargs) -> RunResult:
    """Assemble (if needed) and run a program on a fresh processor."""
    from repro.asm.assembler import assemble

    cfg = config or ProcessorConfig()
    if isinstance(source_or_program, str):
        program = assemble(source_or_program, word_width=cfg.word_width,
                           **asm_kwargs)
    else:
        program = source_or_program
    proc = Processor(cfg, trace=trace, profiler=profiler)
    return proc.run(program)
