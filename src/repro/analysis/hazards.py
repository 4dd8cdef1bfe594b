"""Static hazard classification and stall-cycle estimation.

Reproduces the paper's Figure-2 hazard taxonomy *symbolically*: every
RAW dependence in the program is labeled broadcast / reduction /
broadcast-reduction / plain-RAW per Section 4.2, and priced in stall
cycles against a concrete :class:`ProcessorConfig` using the very same
latency model (:mod:`repro.core.timing`) the cycle-accurate core
enforces.

The estimator is a *static scoreboard replay*: it walks the instruction
stream in program order maintaining exactly the state the core's issue
logic keeps — per-register result/writeback cycles, structural busy
windows for the sequential units, control-resolution delays — and
charges each instruction's wait to the binding dependence edge.  On
**straight-line** programs (no control transfers or thread operations
before the final ``halt``) run single-threaded, this replay is exact by
construction: the totals equal the simulator's measured
``stats.wait_cycles`` counter for counter, which the differential test
suite asserts.  On programs with control flow the replay restarts at
every basic-block boundary with a clean scoreboard, making the result a
per-iteration lower bound (loop-carried dependences are not priced).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import Counter

from repro.asm.program import Program
from repro.core import stats as st
from repro.core import timing
from repro.core.config import (
    DividerKind,
    MultiplierKind,
    ProcessorConfig,
)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import ExecClass, OpSpec
from repro.opt.blocks import basic_blocks
from repro.pe.seq_units import (
    sequential_div_latency,
    sequential_mul_latency,
)


@dataclass
class HazardEdge:
    """One classified RAW dependence with its static stall estimate."""

    producer_pc: int
    consumer_pc: int
    regfile: str
    reg: int
    hazard: str            # a repro.core.stats.STALL_* label
    min_gap: int           # minimum legal issue-cycle gap (>= 1)
    stall_cycles: int      # stalls charged to this edge by the replay

    @property
    def stall_potential(self) -> int:
        """Worst-case stalls if the pair issues back-to-back."""
        return self.min_gap - 1


@dataclass
class StallEstimate:
    """Static stall prediction for one program on one machine config."""

    config: ProcessorConfig
    total: int = 0
    by_cause: Counter[str] = field(default_factory=Counter)
    edges: list[HazardEdge] = field(default_factory=list)
    control_stalls: int = 0
    structural_stalls: int = 0
    waw_stalls: int = 0
    exact: bool = False    # True only for straight-line programs
    # (producer pc, consumer pc) -> (cause, stall cycles) for the RAW /
    # WAW edges the replay found binding.
    pair_stalls: dict[tuple[int, int], tuple[str, int]] = field(
        default_factory=dict)

    def describe(self) -> str:
        kind = "exact" if self.exact else "per-block lower bound"
        causes = ", ".join(f"{c}={n}" for c, n in sorted(
            self.by_cause.items()))
        return (f"static stall estimate ({kind}): {self.total} cycle(s)"
                + (f"; {causes}" if causes else ""))


def is_straight_line(program: Program) -> bool:
    """True if the program has no control transfer or thread operation
    before its final instruction (which may be ``halt``).

    On such programs the static replay is cycle-exact against the
    single-threaded simulator.
    """
    instrs = program.instructions
    if not instrs:
        return True
    for instr in instrs[:-1]:
        spec = instr.spec
        if spec.is_branch or spec.is_jump or spec.is_thread_op \
                or spec.is_halt:
            return False
    last = instrs[-1].spec
    return not (last.is_branch or last.is_jump or last.is_thread_op)


@dataclass
class _Score:
    result_cycle: int
    writeback_cycle: int
    producer: OpSpec
    producer_pc: int


class _Replay:
    """The static mirror of the cycle core's readiness rule and issue
    bookkeeping for one thread (:mod:`repro.core.processor`).

    Keeps the check order of the core (sources in operand order, then
    WAW, then structural) so stall *attribution* matches the
    simulator's binding-cause accounting, not just the totals.  Unlike
    the core it works from ``OpSpec`` formulas rather than the
    :class:`~repro.core.timing.TimingModel` table, and also names the
    producer pc of each binding edge.
    """

    def __init__(self, cfg: ProcessorConfig) -> None:
        self.cfg = cfg
        self.min_issue = 1
        self.last_issue = 0
        self.score: dict[str, dict[int, _Score]] = {"s": {}, "p": {}, "f": {}}
        # Structural busy windows, mirroring Processor.units.
        self.unit_busy: dict[str, int] = {}
        self.has_unit = {
            "mul": cfg.multiplier is MultiplierKind.SEQUENTIAL,
            "div": cfg.divider is DividerKind.SEQUENTIAL,
            "reduction": not cfg.pipelined_reduction,
        }

    def _structural_unit(self, spec: OpSpec) -> str | None:
        if spec.is_mul and self.has_unit["mul"]:
            return "mul"
        if spec.is_div and self.has_unit["div"]:
            return "div"
        if spec.exec_class is ExecClass.REDUCTION \
                and self.has_unit["reduction"]:
            return "reduction"
        return None

    def _unit_occupancy(self, spec: OpSpec) -> int:
        cfg = self.cfg
        if spec.exec_class is ExecClass.REDUCTION:
            return timing.reduction_compute_cycles(spec, cfg)
        if spec.is_mul:
            return sequential_mul_latency(cfg.word_width)
        return sequential_div_latency(cfg.word_width)

    def step(self, pc: int, instr: Instruction,
             ) -> tuple[int, str | None, int, int | None, int]:
        """Issue one instruction; returns (issue cycle, binding cause,
        stall cycles, producer pc of the binding edge, control bubbles)."""
        spec = instr.spec
        cfg = self.cfg
        base = max(self.min_issue, self.last_issue + 1)
        ready = base
        cause: str | None = None
        producer_pc: int | None = None

        p_off = timing.parallel_read_offset(cfg)
        for regfile, idx in instr.src_regs():
            entry = self.score[regfile].get(idx)
            if entry is None:
                continue
            read_off = (timing.SCALAR_READ_OFFSET if regfile == "s"
                        else p_off)
            need = entry.result_cycle + 1 - read_off
            if need > ready:
                ready = need
                cause = timing.classify_raw(entry.producer, spec)
                producer_pc = entry.producer_pc

        dest = instr.dest_reg()
        if dest is not None:
            entry = self.score[dest[0]].get(dest[1])
            if entry is not None:
                wb_off = timing.writeback_offset(spec, cfg)
                if wb_off is not None:
                    need = entry.writeback_cycle + 1 - wb_off
                    if need > ready:
                        ready = need
                        cause = st.STALL_WAW
                        producer_pc = entry.producer_pc

        unit = self._structural_unit(spec)
        if unit is not None:
            busy_until = self.unit_busy.get(unit, 0)
            if busy_until > ready:
                ready = busy_until
                cause = st.STALL_STRUCTURAL
                producer_pc = None

        cycle = ready
        stall = cycle - base if cause is not None else 0

        if unit is not None:
            self.unit_busy[unit] = cycle + self._unit_occupancy(spec)

        roff = timing.result_offset(spec, cfg)
        if dest is not None and roff is not None:
            wboff = timing.writeback_offset(spec, cfg)
            self.score[dest[0]][dest[1]] = _Score(
                cycle + roff, cycle + (wboff or roff + 1), spec, pc)

        # Control resolution: branches/jumps insert bubbles.  Branch
        # outcomes are unknown statically; under the (default) STALL
        # policy the penalty is outcome-independent, so assume taken.
        resolve = timing.control_resolve_offset(spec, cfg, taken=True)
        self.min_issue = cycle + resolve
        self.last_issue = cycle
        control = resolve - 1
        return cycle, cause, stall, producer_pc if stall else None, control


def _replay_region(program: Program, pcs: range, cfg: ProcessorConfig,
                   estimate: StallEstimate) -> None:
    """Replay one straight-line region, accumulating into ``estimate``."""
    replay = _Replay(cfg)
    for pc in pcs:
        instr = program.instructions[pc]
        _, cause, stall, producer_pc, control = replay.step(pc, instr)
        if control > 0:
            estimate.control_stalls += control
            estimate.by_cause[st.STALL_CONTROL] += control
            estimate.total += control
        if stall <= 0 or cause is None:
            continue
        estimate.by_cause[cause] += stall
        estimate.total += stall
        if cause == st.STALL_STRUCTURAL:
            estimate.structural_stalls += stall
        elif cause == st.STALL_WAW:
            estimate.waw_stalls += stall
        if producer_pc is not None:
            estimate.pair_stalls[(producer_pc, pc)] = (cause, stall)


def hazard_edges(program: Program, cfg: ProcessorConfig) -> list[HazardEdge]:
    """Every in-block RAW dependence, classified and priced.

    ``stall_cycles`` carries the replay-attributed stalls for edges the
    static model found binding; non-binding edges report 0 (their
    latency is hidden by intervening instructions).
    """
    from repro.analysis.deps import build_block_deps

    estimate = estimate_stalls(program, cfg)
    pair_stalls = estimate.pair_stalls
    edges: list[HazardEdge] = []
    seen: set[tuple[int, int, tuple[str, int]]] = set()
    for block in basic_blocks(program):
        instrs = program.instructions[block.start:block.end]
        deps = build_block_deps(instrs, cfg)
        for e in deps.raw_edges():
            ppc = block.start + e.src
            cpc = block.start + e.dst
            bound = pair_stalls.get((ppc, cpc))
            stall = bound[1] if bound is not None else 0
            assert e.reg is not None and e.hazard is not None
            # A consumer reading the same register in two operand
            # slots yields one raw_edges() entry per slot; the extra
            # rows repeat the same dependence (and would double-count
            # its attributed stall in any column sum).
            key = (ppc, cpc, e.reg)
            if key in seen:
                continue
            seen.add(key)
            edges.append(HazardEdge(
                producer_pc=ppc, consumer_pc=cpc,
                regfile=e.reg[0], reg=e.reg[1],
                hazard=e.hazard, min_gap=e.latency,
                stall_cycles=stall))
    return edges


def estimate_stalls(program: Program,
                    cfg: ProcessorConfig) -> StallEstimate:
    """Static stall-cycle estimate for ``program`` on ``cfg``.

    Straight-line programs are replayed whole and the result is exact
    against the single-threaded simulator; otherwise each basic block
    is replayed with a clean scoreboard (a per-iteration lower bound:
    loop-carried and cross-block dependences are not priced).
    """
    estimate = StallEstimate(config=cfg)
    if is_straight_line(program):
        estimate.exact = True
        _replay_region(program, range(len(program.instructions)), cfg,
                       estimate)
        return estimate
    for block in basic_blocks(program):
        _replay_region(program, block.range, cfg, estimate)
    return estimate
