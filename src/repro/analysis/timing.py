"""Compositional static timing analysis.

The cycle-accurate core (:mod:`repro.core.processor`) discovers every
stall dynamically, instruction by instruction.  For a *single* runnable
thread, though, the pipeline is a deterministic function of (a) the
program text, (b) the machine configuration, and (c) the dynamically
taken block path — so timing can be made a *static* artifact.

This module computes, for every basic block of
:mod:`repro.analysis.cfg`, a **pipeline-state transfer summary**: given
the pipeline state at block entry (in-flight register writes still on
their way to a forwarding path, structural-unit busy windows), replay
the block's issue schedule once and record

* the issue-slot occupancy (relative issue cycle of every instruction,
  hence the block's ``advance`` — how far the issue clock moves),
* the stall cycles charged per hazard bucket (the paper's Figure-2
  taxonomy, exactly as the core attributes them),
* the pipeline state at block exit, *normalized* so that any in-flight
  write or busy window that provably can no longer delay a future
  instruction is dropped.

Because the normalized exit state is finite and small, summaries are
memoized on ``(block, entry state, control event)`` and whole-program
cycle counts are obtained by **folding** summaries along the dynamic
block path — the list of branch outcomes / ``jr`` targets recorded by
the functional backend (:class:`repro.assoc.functional.BlockTraceRecorder`).
The fold reproduces the core's counters bit-for-bit: cycles, issue/idle
slots, per-bucket wait cycles, and reduction-unit uses.

Soundness of the normalization (why pruning cannot change timing): a
consumer issued at or after the block's exit base ``t2`` binds a RAW
entry only when ``result + 1 - read_off > ready >= t2``; with scalar
reads at ``d + 2`` and parallel/flag reads at ``d + b + 3``, entries
with ``result <= t2 + 1`` (scalar) or ``result <= t2 + b + 2``
(parallel/flag) can never bind.  The WAW bound uses the *minimum*
consumer writeback offset per register file (3 scalar, ``b + 4``
parallel/flag).  Structural windows with ``busy_until <= t2`` likewise
never bind.

The pure-static (path-free) bound is delegated to the interval domain's
:func:`repro.analysis.absint.static_cycle_bound`, which is loop-aware in
the sense that it refuses to bound loops rather than guess; the lint
check :func:`check_static_timing_bound` below complements it by giving
*loops* an exact steady-state per-iteration cycle count and stall
attribution (single-threaded), found as a fixpoint of the block's own
transfer summary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.cfg import CFG, build_cfg
from repro.asm.program import Program
from repro.core import stats as st
from repro.core.config import ProcessorConfig
from repro.core.processor import SimTimeout, SimulationError
from repro.core.stats import Stats
from repro.core.timing import (
    K_BRANCH,
    K_HALT,
    K_JR,
    K_JUMP,
    K_TEXIT,
    K_TJOIN,
    K_TPUT,
    K_TSPAWN,
    RAW_CAUSE,
    InstrTiming,
    TimingModel,
)

if TYPE_CHECKING:
    from repro.analysis.lint import AnalysisContext, Diagnostic

__all__ = [
    "BlockSummary",
    "EMPTY_STATE",
    "InstrTiming",
    "PipelineState",
    "TimingAnalysis",
    "TimingModel",
    "check_static_timing_bound",
    "check_unreachable_block",
]

# How a block (and possibly the run) ends.
END_NONE = 0
END_HALT = 1
END_EXIT = 2

# Pipeline state at a block boundary, relative to the boundary's issue
# base: in-flight writes as (reg key, result, writeback, producer class)
# and busy units as (unit id, busy_until); both sorted, hence hashable
# and canonical.  Register keys and unit ids are those of
# :class:`repro.core.timing.TimingModel`.
ScoreItem = tuple[int, int, int, int]
UnitItem = tuple[int, int]
PipelineState = tuple[tuple[ScoreItem, ...], tuple[UnitItem, ...]]

EMPTY_STATE: PipelineState = ((), ())


@dataclass(frozen=True)
class BlockSummary:
    """Transfer summary of one block under one entry state + event."""

    start: int
    advance: int                     # exit issue base relative to entry base
    last_rel: int                    # relative issue cycle of the last instr
    next_pc: int                     # successor pc (meaningless if end != 0)
    end: int                         # END_NONE / END_HALT / END_EXIT
    issued: int
    counts: tuple[int, int, int]     # scalar / parallel / reduction issues
    waits: tuple[tuple[str, int], ...]
    runits: tuple[tuple[str, int], ...]
    exit_state: PipelineState


EventKey = bool | int | None


class TimingAnalysis:
    """Compositional block summaries + the path fold over them."""

    def __init__(self, program: Program,
                 config: ProcessorConfig | None = None,
                 cfg: CFG | None = None) -> None:
        self.program = program
        self.config = config or ProcessorConfig()
        self.cfg = cfg if cfg is not None else build_cfg(program)
        self.model = TimingModel(program, self.config)
        n = len(program.instructions)
        self._block_end = [0] * n
        self._block_index = [0] * n
        for bi, block in enumerate(self.cfg.blocks):
            for pc in block.range:
                self._block_end[pc] = block.end
                self._block_index[pc] = bi
        self._memo: dict[tuple[int, EventKey, PipelineState],
                         BlockSummary] = {}

    # -- summaries -----------------------------------------------------------

    def block_summary(self, start: int, entry: PipelineState,
                      event: EventKey) -> BlockSummary:
        """Memoized transfer of the block containing ``start``.

        ``event`` is the normalized dynamic fact for the block's
        terminator: taken? for a branch, the target pc for ``jr``,
        self-delivery? for ``tput``, None otherwise.  ``start`` may be
        any pc (a ``jr`` can land mid-block); the replay runs to the end
        of the containing block.
        """
        key = (start, event, entry)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._transfer(start, event, entry)
            self._memo[key] = cached
        return cached

    def _transfer(self, start: int, event: EventKey, entry: PipelineState,
                  detail: list[tuple[int, int]] | None = None
                  ) -> BlockSummary:
        """Replay the block's issue schedule from a relative clock of 0.

        Mirrors the cycle core's readiness rule and issue bookkeeping
        (:mod:`repro.core.processor`) exactly — same binding-cause
        priority, same strict comparisons, same wait accounting — for a
        single runnable thread whose entry issue base is cycle 0.
        """
        table = self.model.table
        end = self._block_end[start]
        score: dict[int, tuple[int, int, int]] = {
            k: (res, wb, pk) for (k, res, wb, pk) in entry[0]}
        units: dict[int, int] = dict(entry[1])
        min_issue = 0
        last = -1
        waits: dict[str, int] = {}
        counts = [0, 0, 0]
        runits: dict[str, int] = {}
        issued = 0
        run_end = END_NONE
        next_pc = end
        pc = start
        while pc < end:
            it = table[pc]
            if it.raises is not None:
                raise SimulationError(it.raises)
            base = min_issue if min_issue > last + 1 else last + 1
            ready = base
            cause: str | None = None
            for key, read_off in it.srcs:
                e = score.get(key)
                if e is None:
                    continue
                need = e[0] + 1 - read_off
                if need > ready:
                    ready = need
                    cause = RAW_CAUSE[e[2] * 3 + it.klass]
            if it.wb >= 0:
                e = score.get(it.dest)
                if e is not None:
                    need = e[1] + 1 - it.wb
                    if need > ready:
                        ready = need
                        cause = st.STALL_WAW
            if it.unit >= 0:
                busy = units.get(it.unit, 0)
                if busy > ready:
                    ready = busy
                    cause = st.STALL_STRUCTURAL
            cycle = ready
            if detail is not None:
                detail.append((pc, cycle))
            if cause is not None and cycle > base:
                waits[cause] = waits.get(cause, 0) + (cycle - base)
            if it.unit >= 0:
                units[it.unit] = cycle + it.occupancy
            if it.roff >= 0:
                score[it.dest] = (cycle + it.roff, cycle + it.wb, it.klass)
            kind = it.kind
            resolve = it.resolve_not_taken
            if kind == K_BRANCH:
                if event:
                    resolve = it.resolve_taken
                    next_pc = it.target
                else:
                    next_pc = pc + 1
            elif kind == K_JUMP:
                next_pc = it.target
            elif kind == K_JR:
                assert isinstance(event, int)
                next_pc = event
            elif kind == K_TPUT:
                # The core reads the handle again *after* execute when it
                # notes the delivery in the receiver's scoreboard; the
                # recorder captures that post-execute target.  Only a
                # self-delivery lands on this thread's scoreboard.
                if event:
                    score[it.imm] = (cycle + 2, cycle + 3, it.klass)
                next_pc = pc + 1
            elif kind == K_HALT:
                run_end = END_HALT
            elif kind == K_TEXIT:
                run_end = END_EXIT
            elif kind == K_TSPAWN:
                raise AssertionError(
                    "tspawn reached the single-thread fold; spawning "
                    "programs run on the cycle core")
            min_issue = cycle + resolve
            if resolve > 1:
                waits[st.STALL_CONTROL] = (
                    waits.get(st.STALL_CONTROL, 0) + resolve - 1)
            last = cycle
            issued += 1
            counts[it.klass] += 1
            if it.runit is not None:
                runits[it.runit] = runits.get(it.runit, 0) + 1
            pc += 1
        t2 = min_issue if min_issue > last + 1 else last + 1
        return BlockSummary(
            start=start,
            advance=t2,
            last_rel=last,
            next_pc=next_pc,
            end=run_end,
            issued=issued,
            counts=(counts[0], counts[1], counts[2]),
            waits=tuple(sorted(waits.items())),
            runits=tuple(sorted(runits.items())),
            exit_state=self._normalize(score, units, t2),
        )

    def _normalize(self, score: dict[int, tuple[int, int, int]],
                   units: dict[int, int], t2: int) -> PipelineState:
        """Drop state that provably cannot delay any instruction >= t2."""
        b = self.config.broadcast_depth
        keep: list[ScoreItem] = []
        for key, (res, wb, pk) in score.items():
            if key < 32:                   # scalar file
                if res <= t2 + 1 and wb <= t2 + 2:
                    continue
            else:                          # parallel / flag files
                if res <= t2 + b + 2 and wb <= t2 + b + 3:
                    continue
            keep.append((key, res - t2, wb - t2, pk))
        keep.sort()
        busy = sorted((uid, until - t2) for uid, until in units.items()
                      if until > t2)
        return (tuple(keep), tuple(busy))

    # -- the path fold -------------------------------------------------------

    def fold(self, events: list[int],
             max_cycles: int | None = None) -> Stats:
        """Cycle-exact whole-run statistics from a recorded block path.

        ``events`` is thread 0's event stream from
        :class:`repro.assoc.functional.BlockTraceRecorder` (the program
        must never spawn).  Raises :class:`SimTimeout` /
        :class:`SimulationError` with byte-identical messages to the
        cycle core when the watchdog would fire or the PC escapes the
        program.
        """
        program = self.program
        n = len(program.instructions)
        limit = (max_cycles if max_cycles is not None
                 else self.config.max_cycles)
        t = 1                        # issue base of the next block (abs)
        last_abs = 0                 # last issue cycle so far (abs)
        pc = program.entry
        state = EMPTY_STATE
        idx = 0
        issued_total = 0
        counts = [0, 0, 0]
        waits: Counter[str] = Counter()
        runits: Counter[str] = Counter()
        table = self.model.table
        while True:
            if not 0 <= pc < n:
                # The core's scheduling round at last_abs + 1 checks the
                # watchdog before evaluating readiness (and the PC).
                if last_abs + 1 > limit:
                    raise SimTimeout(
                        f"exceeded max_cycles={limit}; "
                        f"live threads at {[pc]}")
                raise SimulationError(
                    f"thread 0: PC {pc} outside the program "
                    f"(0..{n - 1})")
            term = table[self._block_end[pc] - 1]
            event: EventKey = None
            consumes = False
            if term.kind == K_BRANCH:
                consumes = True
                event = idx < len(events) and bool(events[idx])
            elif term.kind == K_JR:
                consumes = True
                event = events[idx] if idx < len(events) else 0
            elif term.kind == K_TPUT:
                consumes = True
                event = idx < len(events) and events[idx] == 0
            elif term.kind == K_TJOIN:
                consumes = True
            s = self.block_summary(pc, state, event)
            if t + s.last_rel > limit:
                # Some issue in this block lands past the watchdog; the
                # issue cycles within a block do not depend on the
                # terminator event, so a detail replay pinpoints it even
                # on a truncated (runaway) event stream.
                detail: list[tuple[int, int]] = []
                self._transfer(pc, event, state, detail)
                for ipc, rel in detail:
                    if t + rel > limit:
                        raise SimTimeout(
                            f"exceeded max_cycles={limit}; "
                            f"live threads at {[ipc]}")
                raise AssertionError("unreachable: last_rel past limit")
            if consumes:
                idx += 1
            issued_total += s.issued
            for i in range(3):
                counts[i] += s.counts[i]
            for cause, cnt in s.waits:
                waits[cause] += cnt
            for name, cnt in s.runits:
                runits[name] += cnt
            last_abs = t + s.last_rel
            t += s.advance
            state = s.exit_state
            if s.end != END_NONE:
                break
            pc = s.next_pc
        stats = Stats()
        stats.cycles = last_abs
        stats.instructions = issued_total
        stats.scalar_instructions = counts[0]
        stats.parallel_instructions = counts[1]
        stats.reduction_instructions = counts[2]
        width = self.config.issue_width
        stats.issue_slots = last_abs * width
        stats.idle_slots = last_abs * width - issued_total
        if issued_total:
            stats.per_thread_issued[0] = issued_total
        stats.wait_cycles = waits
        stats.reduction_unit_uses = runits
        return stats

    # -- pure-static bound ---------------------------------------------------

    def static_bound(self) -> int | None:
        """Sound path-free worst-case cycle bound (None if unbounded)."""
        from repro.analysis.absint import static_cycle_bound

        return static_cycle_bound(self.program, self.config, self.cfg)


# ---------------------------------------------------------------------------
# Lint checks (registered in repro.analysis.lint.ALL_CHECKS)
# ---------------------------------------------------------------------------

def _word_view(lo: int, hi: int, width: int) -> tuple[int, int]:
    """Interval of ``value & mask`` (word-top unless on a single page)."""
    mask = (1 << width) - 1
    if lo >> width == hi >> width:
        return lo & mask, hi & mask
    return 0, mask


def _signed_view(lo: int, hi: int, width: int) -> tuple[int, int] | None:
    """Two's-complement reading of a word interval; None if it straddles."""
    half = 1 << (width - 1)
    span = 1 << width
    if hi < half:
        return lo, hi
    if lo >= half:
        return lo - span, hi - span
    return None


def _branch_verdict(mnemonic: str, a: tuple[int, int], b: tuple[int, int],
                    width: int) -> bool | None:
    """True = provably taken, False = provably not taken, None = unknown.

    Mirrors the executor's comparison semantics: beq/bne compare
    unsigned word values, blt/bge compare two's-complement.
    """
    if mnemonic in ("beq", "bne"):
        equal: bool | None
        if a[0] == a[1] == b[0] == b[1]:
            equal = True
        elif a[1] < b[0] or b[1] < a[0]:
            equal = False
        else:
            return None
        return equal if mnemonic == "beq" else not equal
    sa = _signed_view(a[0], a[1], width)
    sb = _signed_view(b[0], b[1], width)
    if sa is None or sb is None:
        return None
    less: bool | None
    if sa[1] < sb[0]:
        less = True
    elif sa[0] >= sb[1]:
        less = False
    else:
        return None
    return less if mnemonic == "blt" else not less


def check_unreachable_block(ctx: "AnalysisContext") -> list["Diagnostic"]:
    """Blocks only infeasible branch edges reach.

    A feasibility layer over the interval domain: branches whose
    condition is provably constant have their dead edge pruned, and
    blocks that only dead edges reach are reported.  Complements
    ``unreachable-code`` (pure graph reachability) — blocks that check
    already flags are skipped.  Indirect jumps disable the check (any
    pc could be a ``jr`` target).
    """
    cfg = ctx.cfg
    if cfg.has_indirect:
        return []
    program = ctx.program
    width = ctx.config.word_width
    absres = ctx.absint()
    graph_reach = cfg.reachable()
    succs: dict[int, list[int]] = {
        bi: list(cfg.succs.get(bi, [])) for bi in range(len(cfg.blocks))}
    pruned: list[tuple[int, int, int, bool]] = []
    by_start = {blk.start: i for i, blk in enumerate(cfg.blocks)}
    for bi in sorted(graph_reach):
        block = cfg.blocks[bi]
        term_pc = block.end - 1
        instr = program.instructions[term_pc]
        if not instr.spec.is_branch:
            continue
        state = absres.before[term_pc]
        if state is None:
            continue
        iva = state.sregs[instr.rd]
        ivb = state.sregs[instr.rs]
        if iva.is_bottom or ivb.is_bottom:
            continue
        verdict = _branch_verdict(
            instr.mnemonic,
            _word_view(iva.lo, iva.hi, width),
            _word_view(ivb.lo, ivb.hi, width), width)
        if verdict is None:
            continue
        target_bi = by_start.get(term_pc + 1 + instr.imm)
        fall_bi = by_start.get(block.end)
        dead_bi = fall_bi if verdict else target_bi
        if dead_bi is None or dead_bi == (target_bi if verdict else fall_bi):
            continue
        if dead_bi in succs[bi]:
            succs[bi].remove(dead_bi)
            pruned.append((bi, dead_bi, term_pc, verdict))
    if not pruned:
        return []
    feasible: set[int] = set()
    work = list(cfg.entry_blocks)
    while work:
        bi = work.pop()
        if bi in feasible:
            continue
        feasible.add(bi)
        work.extend(succs.get(bi, ()))
    out: list["Diagnostic"] = []
    pruned_json = [{"from_block": a, "to_block": d, "branch_pc": pc,
                    "always_taken": verdict}
                   for a, d, pc, verdict in pruned]
    for bi in sorted(graph_reach - feasible):
        block = cfg.blocks[bi]
        out.append(ctx.diag(
            "unreachable-block", "warning", block.start,
            f"block pc {block.start}..{block.end - 1} is unreachable "
            f"under branch feasibility: every path to it crosses a "
            f"branch whose condition is provably constant",
            data={"block": bi, "pruned_edges": pruned_json}))
    return out


def check_static_timing_bound(ctx: "AnalysisContext") -> list["Diagnostic"]:
    """Exact per-loop stall attribution from the timing summaries.

    For every reachable self-loop (a block whose terminating branch
    targets its own start), iterate the block's transfer summary to its
    pipeline-state fixpoint and report — at *info* severity, matching
    the unguarded-reduction diagnostics it upgrades — the steady-state
    cycles per iteration and the exact stall breakdown a single thread
    pays, naming the dominant hazard bucket.
    """
    if ctx.config.model_fetch:
        return []
    out: list["Diagnostic"] = []
    analysis = TimingAnalysis(ctx.program, ctx.config, ctx.cfg)
    for bi in sorted(ctx.cfg.reachable()):
        block = ctx.cfg.blocks[bi]
        term_pc = block.end - 1
        instr = ctx.program.instructions[term_pc]
        if not instr.spec.is_branch:
            continue
        if term_pc + 1 + instr.imm != block.start:
            continue
        state = EMPTY_STATE
        summary: BlockSummary | None = None
        try:
            for _ in range(16):
                nxt = analysis.block_summary(block.start, state, True)
                if nxt.exit_state == state:
                    summary = nxt
                    break
                state = nxt.exit_state
        except SimulationError:
            continue                 # op not executable on this machine
        if summary is None:
            continue                 # no small fixpoint; stay silent
        stalls = dict(summary.waits)
        total = sum(stalls.values())
        if not total:
            continue
        dominant = sorted(stalls.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        out.append(ctx.diag(
            "static-timing-bound", "info", block.start,
            f"loop at {ctx.program.location_of(block.start)} settles at "
            f"{summary.advance} cycles/iteration single-threaded, "
            f"{total} of them stalls (dominant: {dominant[0]}, "
            f"{dominant[1]} cycle{'s' if dominant[1] != 1 else ''}/iter)",
            data={"block": bi, "loop_header_pc": block.start,
                  "cycles_per_iteration": summary.advance,
                  "stalls": stalls,
                  "dominant_stall": dominant[0]}))
    return out
