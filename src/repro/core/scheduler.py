"""Thread scheduler.

"The scheduler selects a thread that has an instruction ready to execute
and issues that instruction to either the scalar datapath or the PE
array.  A rotating priority selection policy is employed to ensure
fairness between threads." (Section 6.3.)

Four disciplines are implemented (DESIGN.md experiment E8):

* **fine** — pick one ready thread per cycle by rotating (or fixed)
  priority; the paper's design.
* **single** — degenerate case with one context.
* **coarse** — stay on the current thread until it hits a stall of at
  least ``coarse_switch_threshold`` cycles, then pay
  ``coarse_switch_penalty`` flush cycles and move on (Agarwal-style
  coarse-grain multithreading, paper Section 5).
* **smt2** — extension: dual issue, at most one scalar-path and one
  parallel/reduction-path instruction per cycle from (possibly) two
  different threads, exploiting the split pipeline's two issue ports.
"""

from __future__ import annotations

from repro.core.config import MTMode, ProcessorConfig, SchedulerPolicy
from repro.core.thread import ThreadContext
from repro.isa.opcodes import ExecClass


class ThreadScheduler:
    """Selects which ready thread(s) issue this cycle."""

    def __init__(self, cfg: ProcessorConfig) -> None:
        self.cfg = cfg
        self._pointer = -1          # last thread granted (rotating priority)
        self._current: int | None = None   # coarse-grain resident thread
        self.switch_until = 0       # coarse-grain: no issue before this cycle
        self.switches = 0
        #: Whether ``select`` reads ``ready_of``.  Only the coarse-grain
        #: policy consults other threads' ready times, so the issue loop
        #: skips building the map for the others.
        self.needs_ready_of = cfg.mt_mode is MTMode.COARSE
        #: Whether ``select`` grants one ready thread per cycle by
        #: priority alone (fine-grain and single-context issue), so the
        #: issue loop may pick by :meth:`fine_orders` without calling it.
        self.fine_grain = cfg.mt_mode in (MTMode.FINE, MTMode.SINGLE)
        self._rotating = cfg.scheduler is not SchedulerPolicy.FIXED

    # -- priority orders -----------------------------------------------------
    #
    # Candidates arrive in tid order (as ``live_threads()`` lists them).
    # Fixed priority grants them in that order; rotating priority starts
    # at the first tid past the last grant and wraps around.

    def _start(self, candidates: list[ThreadContext]) -> int:
        """Index of the candidate granted first."""
        if self._rotating:
            pointer = self._pointer
            for i, t in enumerate(candidates):
                if t.tid > pointer:
                    return i
        return 0

    def _rotate(self, candidates: list[ThreadContext]) -> list[ThreadContext]:
        i = self._start(candidates)
        return candidates[i:] + candidates[:i]

    def _first(self, candidates: list[ThreadContext]) -> ThreadContext:
        if len(candidates) == 1:
            return candidates[0]
        return candidates[self._start(candidates)]

    # -- selection -------------------------------------------------------------

    def select(self, candidates: list[ThreadContext], cycle: int,
               ready_of: dict[int, int], program) -> list[ThreadContext]:
        """Return the thread(s) to issue at ``cycle``.

        ``candidates`` are RUNNABLE threads whose next instruction is
        ready now.  When ``needs_ready_of`` is set, ``ready_of`` maps
        *every* runnable thread id to its earliest-ready cycle; otherwise
        it is not read and may be empty.
        """
        mode = self.cfg.mt_mode
        if not candidates:
            return []
        if mode is MTMode.FINE or mode is MTMode.SINGLE:
            chosen = self._first(candidates)
            self._pointer = chosen.tid
            return [chosen]
        if mode is MTMode.COARSE:
            return self._select_coarse(candidates, cycle, ready_of)
        return self._select_smt2(candidates, program)

    def fine_orders(self, contexts: list[ThreadContext]
                    ) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
        """Fine-grain grant priority over ``contexts`` (tid order) as
        positions into the list: the order ``select`` grants in now,
        and for each position the order it grants in once that
        position was granted.  The first ready position of an order is
        the context ``select`` would choose; report it with
        :meth:`granted`.
        """
        k = len(contexts)
        if not self._rotating:
            fixed = tuple(range(k))
            return fixed, [fixed] * k
        rings = [tuple(range(i, k)) + tuple(range(i)) for i in range(k)]
        return rings[self._start(contexts)], rings[1:] + rings[:1]

    def granted(self, tid: int) -> None:
        """Leave the rotating pointer where fine-grain ``select`` leaves
        it after granting ``tid``."""
        self._pointer = tid

    def grant_lone(self, tid: int, cycle: int) -> bool:
        """Grant every issue slot from ``cycle`` on to ``tid``, the only
        runnable thread, as ``select`` does each time it is the only
        candidate.

        Leaves the rotating pointer and the coarse-grain resident thread
        where those grants leave them and returns True.  Returns False,
        changing nothing, when the next round would do something else
        first: a coarse-grain switch away from another resident thread,
        or a switch penalty still running at ``cycle``.
        """
        if self.cfg.mt_mode is MTMode.COARSE:
            if cycle < self.switch_until or self._current not in (None, tid):
                return False
            self._current = tid
        self._pointer = tid
        return True

    def _select_coarse(self, candidates: list[ThreadContext], cycle: int,
                       ready_of: dict[int, int]) -> list[ThreadContext]:
        if cycle < self.switch_until:
            return []          # pipeline flush in progress
        by_tid = {t.tid: t for t in candidates}
        if self._current is not None and self._current in by_tid:
            return [by_tid[self._current]]
        if self._current is not None and self._current in ready_of:
            # Resident thread is stalled; switch only for long stalls.
            stall = ready_of[self._current] - cycle
            if stall < self.cfg.coarse_switch_threshold:
                return []      # ride out the short stall
        chosen = self._first(candidates)
        if self._current is not None and chosen.tid != self._current:
            self.switches += 1
            self.switch_until = cycle + self.cfg.coarse_switch_penalty
            self._current = chosen.tid
            self._pointer = chosen.tid
            return []          # the switch itself costs the penalty cycles
        self._current = chosen.tid
        self._pointer = chosen.tid
        return [chosen]

    def _select_smt2(self, candidates: list[ThreadContext],
                     program) -> list[ThreadContext]:
        ordered = self._rotate(candidates)
        chosen: list[ThreadContext] = []
        ports_used: set[str] = set()
        for thread in ordered:
            spec = program.instructions[thread.pc].spec
            port = ("scalar" if spec.exec_class is ExecClass.SCALAR
                    else "parallel")
            if port in ports_used:
                continue
            chosen.append(thread)
            ports_used.add(port)
            if len(chosen) == 2:
                break
        if chosen:
            self._pointer = chosen[0].tid
        return chosen

    def reset(self) -> None:
        self._pointer = -1
        self._current = None
        self.switch_until = 0
        self.switches = 0
