"""Hardware thread contexts and the thread status table.

"Each thread's instruction buffer, PC, and state are recorded in a data
structure called the thread status table, which is shared between the
fetch unit and the decode unit." (Section 6.3.)

Machine state is replicated per thread (Section 6): each context owns a
PC, a scalar register file, and per-thread slices of the PE register and
flag files (held in :class:`repro.pe.PEArray`).  The per-thread
scoreboard used for hazard detection lives here too; collectively the
scoreboards are the paper's *instruction status table*.
"""

from __future__ import annotations

import enum

from repro.core.timing import NUM_REG_KEYS
from repro.isa import registers


class ThreadState(enum.Enum):
    FREE = "free"          # context not allocated
    RUNNABLE = "runnable"  # may issue instructions
    JOINING = "joining"    # blocked in tjoin until the target exits
    EXITED = "exited"      # transient: texit issued, context about to free


#: Scoreboard entry of a register with no write in flight: its result
#: and writeback cycles lie so far in the past that they never bind.
NO_WRITE = (-(1 << 62), -(1 << 62), 0)


class ThreadContext:
    """One hardware thread: PC, scalar registers, scoreboard, status.

    ``score[key]`` (``key`` from :func:`repro.core.timing.reg_key`) is
    the last write issued to that register as ``(result cycle,
    writeback cycle, producer class)``: the cycle its value first
    exists on a bypass path, its architectural writeback (WAW order),
    and 0/1/2 for a scalar/parallel/reduction producer (hazard
    classification).  An entry whose cycles have passed can no longer
    delay a consumer, so entries are overwritten, never pruned.
    """

    __slots__ = ("tid", "state", "pc", "sregs", "min_issue", "last_issue",
                 "join_target", "score", "instructions_issued")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.state = ThreadState.FREE
        self.pc = 0
        self.sregs = [0] * registers.NUM_SCALAR_REGS
        self.min_issue = 0       # earliest next issue (control bubbles etc.)
        self.last_issue = -1
        self.join_target: int | None = None
        self.score: list[tuple[int, int, int]] = [NO_WRITE] * NUM_REG_KEYS
        self.instructions_issued = 0

    def activate(self, pc: int, start_cycle: int) -> None:
        """(Re)initialize the context for a newly spawned thread."""
        self.state = ThreadState.RUNNABLE
        self.pc = pc
        self.sregs = [0] * registers.NUM_SCALAR_REGS
        self.min_issue = start_cycle
        self.last_issue = start_cycle - 1
        self.join_target = None
        self.score = [NO_WRITE] * NUM_REG_KEYS

    def read_sreg(self, idx: int) -> int:
        return 0 if idx == registers.ZERO_REG else self.sregs[idx]

    def write_sreg(self, idx: int, value: int, word_mask: int) -> None:
        if idx != registers.ZERO_REG:
            self.sregs[idx] = value & word_mask


class ThreadStatusTable:
    """All hardware contexts plus allocation bookkeeping.

    The live contexts are kept as a list in tid order, rebuilt only when
    a context is allocated or released, so the per-round scheduling
    loops never walk idle contexts.  A context is listed from
    ``allocate()`` until ``release()``: RUNNABLE or JOINING, and also
    in the transient EXITED state between its ``texit`` and the
    ``release()`` that every backend issues right after it.
    """

    def __init__(self, num_threads: int) -> None:
        self.contexts = [ThreadContext(tid) for tid in range(num_threads)]
        self._live: list[ThreadContext] = []

    def __iter__(self):
        return iter(self.contexts)

    def __getitem__(self, tid: int) -> ThreadContext:
        return self.contexts[tid]

    def _relist(self) -> None:
        self._live = [c for c in self.contexts
                      if c.state is not ThreadState.FREE]

    def allocate(self, pc: int, start_cycle: int) -> int | None:
        """Allocate a free context (tspawn); None if all are in use."""
        for ctx in self.contexts:
            if ctx.state is ThreadState.FREE:
                ctx.activate(pc, start_cycle)
                self._relist()
                return ctx.tid
        return None

    def release(self, tid: int) -> None:
        """Release a context (texit)."""
        self.contexts[tid].state = ThreadState.FREE
        self._relist()

    def live_threads(self) -> list[ThreadContext]:
        """The allocated (not yet released) contexts in tid order.  The
        list is shared and replaced (never mutated) on allocate/release:
        do not modify it."""
        return self._live

    def runnable_threads(self) -> list[ThreadContext]:
        return [c for c in self._live if c.state is ThreadState.RUNNABLE]
