"""The pipeline latency model.

This module is the quantitative heart of the reproduction: it encodes the
stage structure of Figure 1 and produces exactly the hazard penalties of
Figure 2 (see the derivation in DESIGN.md Section 5).

Conventions
-----------
``c`` is an instruction's *issue* cycle (the cycle it leaves the decode
stage).  Stage occupancy relative to ``c``::

    scalar:     IF(c-1) ID(c) SR(c+1) EX(c+2) MA(c+3) WB(c+4)
    parallel:   IF ID SR  B1..Bb(c+2 .. c+b+1)  PR(c+b+2)  EX(c+b+3)
                [MA(c+b+4) for loads/stores]  WB
    reduction:  IF ID SR  B1..Bb  PR(c+b+2)  R1..Rr(c+b+3 .. c+b+r+2)  WB

A producer's **result cycle** ``R`` is the cycle during which its value
first exists on a forwarding path; a consumer stage scheduled at cycle
``>= R + 1`` receives it.  Consumers read scalar registers at ``d + 2``
(scalar EX and broadcast-input B1 coincide) and parallel/flag registers
at ``d + b + 2`` (the PR stage), where ``d`` is the consumer's issue
cycle.

Resulting hazard penalties relative to back-to-back issue (``d = c + 1``):

* scalar ALU → anything: **0** (forwarding; Figure 2 top);
* scalar load → anything: 1 (classic load-use);
* reduction → scalar: **b + r** (Figure 2 middle);
* reduction → parallel: **b + r** (Figure 2 bottom);
* resolver (rfirst) → parallel: r − 1 (the consumer's own broadcast
  overlaps the resolver's prefix network, and the value is forwarded
  into the consumer's PE EX stage — an effect the paper does not call
  out but that falls out of its stage structure; DESIGN.md Section 5).

:class:`TimingModel` compiles these offsets once per (program, config)
into a per-pc :class:`InstrTiming` table keyed by int.  It is the one
scoreboard vocabulary: the cycle core's issue loop and the static
timing fold (:mod:`repro.analysis.timing`) both replay it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core import stats as st
from repro.core.config import DividerKind, MultiplierKind, ProcessorConfig
from repro.isa.opcodes import OPCODES, ExecClass, OpSpec
from repro.network.falkoff import falkoff_cycles
from repro.pe.seq_units import (
    PIPELINED_MUL_LATENCY,
    sequential_div_latency,
    sequential_mul_latency,
)

if TYPE_CHECKING:
    from repro.asm.program import Program

# Consumer read-point offsets relative to the consumer's issue cycle.
SCALAR_READ_OFFSET = 2      # scalar EX / broadcast input B1


def parallel_read_offset(cfg: ProcessorConfig) -> int:
    """Parallel/flag operand forward point: the PE EX stage.

    Registers are *read* in PR (``d + b + 2``) but "forwarding paths are
    provided so that the results of an ALU operation can be sent back to
    the ALU before they are written into one of the register files"
    (Section 6.2), so a value is needed no earlier than the consumer's PE
    EX stage at ``d + b + 3`` — making dependent back-to-back parallel
    ALU instructions stall-free, like their scalar counterparts.
    """
    return cfg.broadcast_depth + 3


def _exec_latency(spec: OpSpec, cfg: ProcessorConfig) -> int:
    """Cycles spent in the execute unit (1 for the ALU)."""
    if spec.is_mul:
        if cfg.multiplier is MultiplierKind.NONE:
            raise ValueError(
                f"{spec.mnemonic}: no multiplier configured")
        if cfg.multiplier is MultiplierKind.PIPELINED:
            return PIPELINED_MUL_LATENCY
        return sequential_mul_latency(cfg.word_width)
    if spec.is_div:
        if cfg.divider is DividerKind.NONE:
            raise ValueError(f"{spec.mnemonic}: no divider configured")
        return sequential_div_latency(cfg.word_width)
    return 1


def reduction_compute_cycles(spec: OpSpec, cfg: ProcessorConfig) -> int:
    """Cycles the reduction network spends on one operation.

    Pipelined network: the tree depth ``r`` (initiation rate 1/cycle).
    Legacy unpipelined network: max/min runs the bit-serial Falkoff
    algorithm (W cycles); the other reductions settle combinationally in
    one (slow) clock.
    """
    if cfg.pipelined_reduction:
        return cfg.reduction_depth
    if spec.reduction_unit == "maxmin":
        return falkoff_cycles(cfg.word_width)
    return 1


def result_offset(spec: OpSpec, cfg: ProcessorConfig) -> int | None:
    """Offset of the producer's result cycle ``R`` from its issue cycle,
    or None for instructions with no register destination."""
    if spec.dest is None and spec.implicit_dest is None:
        return None
    b = cfg.broadcast_depth
    if spec.exec_class is ExecClass.SCALAR:
        if spec.is_load:
            return 3                      # end of MA
        if spec.is_mul or spec.is_div:
            return 1 + _exec_latency(spec, cfg)
        return 2                          # end of EX
    if spec.exec_class is ExecClass.PARALLEL:
        if spec.is_load:
            return b + 4                  # end of PE MA
        return b + 2 + _exec_latency(spec, cfg)
    # Reduction: value reaches the control unit (or, for the resolver,
    # the PEs) at the end of the last reduction stage.
    return b + 2 + reduction_compute_cycles(spec, cfg)


def writeback_offset(spec: OpSpec, cfg: ProcessorConfig) -> int | None:
    """Architectural writeback cycle offset (used for WAW ordering)."""
    r = result_offset(spec, cfg)
    return None if r is None else r + 1


def raw_issue_gap(producer: OpSpec, regfile: str,
                  cfg: ProcessorConfig) -> int:
    """Minimum issue-cycle gap imposed by a RAW dependence (>= 1).

    The single shared formula behind the core's scoreboard, the static
    list scheduler, and the static hazard analyzer: the consumer may
    issue once the producer's result cycle precedes the consumer's read
    point for ``regfile`` ('s' reads at ``d + 2``, 'p'/'f' at the PE EX
    stage).  A gap of 1 means back-to-back issue is stall-free; the
    *stall potential* of the dependence is ``gap - 1``.
    """
    roff = result_offset(producer, cfg)
    if roff is None:
        return 1
    read_off = (SCALAR_READ_OFFSET if regfile == "s"
                else parallel_read_offset(cfg))
    return max(1, roff + 1 - read_off)


def control_resolve_offset(spec: OpSpec, cfg: ProcessorConfig,
                           taken: bool) -> int:
    """Earliest next same-thread issue offset after a control instruction.

    Branches and ``jr`` resolve in EX (c+2): next issue at c+3 (two
    bubbles).  Direct jumps resolve in decode: next issue at c+2 (one
    bubble).  Under predict-not-taken an untaken branch costs nothing.
    """
    from repro.core.config import BranchPolicy

    if spec.is_branch:
        if (cfg.branch_policy is BranchPolicy.PREDICT_NOT_TAKEN
                and not taken):
            return 1
        return 3
    if spec.is_jump:
        return 2 if spec.mnemonic in ("j", "jal") else 3
    return 1


def classify_raw(producer_spec: OpSpec, consumer_spec: OpSpec) -> str:
    """Classify a RAW wait by the paper's hazard taxonomy (Section 4.2).

    * *broadcast hazard* — "a parallel instruction uses the result of an
      earlier scalar instruction";
    * *reduction hazard* — "a scalar instruction uses the result of an
      earlier reduction instruction";
    * *broadcast-reduction hazard* — "a parallel instruction uses the
      result of an earlier reduction instruction";
    * everything else is a plain scalar or parallel RAW dependency.
    """
    pclass = producer_spec.exec_class
    cclass = consumer_spec.exec_class
    if pclass is ExecClass.REDUCTION:
        return (st.STALL_REDUCTION if cclass is ExecClass.SCALAR
                else st.STALL_BCAST_REDUCTION)
    if pclass is ExecClass.SCALAR:
        return (st.STALL_RAW_SCALAR if cclass is ExecClass.SCALAR
                else st.STALL_BROADCAST)
    return st.STALL_RAW_PARALLEL


# ---------------------------------------------------------------------------
# The per-pc timing table
# ---------------------------------------------------------------------------

# Instruction kinds.  Everything not listed behaves as K_PLAIN
# (including tget, whose delivery read needs no special treatment).
K_PLAIN = 0
K_BRANCH = 1
K_JUMP = 2          # j / jal: static target
K_JR = 3            # indirect: target known only at run time
K_TSPAWN = 4
K_TEXIT = 5
K_TPUT = 6
K_TJOIN = 7
K_HALT = 8

# Register keys: one flat namespace over the three register files so a
# scoreboard is a plain int-indexed table.  Scalar keys are < 32.
_RF_CODE = {"s": 0, "p": 1, "f": 2}
NUM_REG_KEYS = 3 << 5

# Structural units, by id.
UNIT_MUL = 0
UNIT_DIV = 1
UNIT_REDUCTION = 2

_CLASS_INDEX = {ExecClass.SCALAR: 0, ExecClass.PARALLEL: 1,
                ExecClass.REDUCTION: 2}


def reg_key(regfile: str, idx: int) -> int:
    """Scoreboard key of register ``idx`` of file ``regfile``."""
    return (_RF_CODE[regfile] << 5) | idx


def _raw_cause_table() -> dict[int, str]:
    """(producer class * 3 + consumer class) -> stall bucket, built from
    representative OpSpecs through :func:`classify_raw`."""
    reps: dict[ExecClass, OpSpec] = {}
    for spec in OPCODES.values():
        reps.setdefault(spec.exec_class, spec)
    order = (ExecClass.SCALAR, ExecClass.PARALLEL, ExecClass.REDUCTION)
    return {pi * 3 + ci: classify_raw(reps[producer], reps[consumer])
            for pi, producer in enumerate(order)
            for ci, consumer in enumerate(order)}


RAW_CAUSE = _raw_cause_table()


@dataclass(frozen=True, slots=True)
class InstrTiming:
    """Everything the issue logic needs to know about one instruction."""

    mnemonic: str
    kind: int
    klass: int                       # 0 scalar / 1 parallel / 2 reduction
    eclass: str                      # exec_class.value, for Stats buckets
    srcs: tuple[tuple[int, int], ...]  # (reg key, consumer read offset)
    dest: int                        # reg key, or -1
    roff: int                        # result offset, or -1 (no dest write)
    wb: int                          # writeback offset, or -1 (ditto)
    unit: int                        # structural unit id, or -1
    occupancy: int                   # unit busy cycles when unit >= 0
    resolve_taken: int               # min_issue offset after issue (taken)
    resolve_not_taken: int           # ... (not taken / non-branch)
    runit: str | None                # reduction_unit for stats, or None
    raises: str | None               # SimulationError message, or None
    imm: int
    target: int                      # branch/jump resolved target pc


class TimingModel:
    """Per-instruction timing facts for one (program, config) pair.

    An instruction the machine cannot execute (a multiply with no
    multiplier, a divide with no divider) gets ``raises`` set, no
    result offset and no writeback offset: it never waits on WAW order,
    and issuing it raises :class:`~repro.core.processor.SimulationError`
    with its source location.
    """

    def __init__(self, program: "Program", config: ProcessorConfig) -> None:
        self.program = program
        self.config = config
        cfg = config
        p_off = parallel_read_offset(cfg)
        have_mul = cfg.multiplier is MultiplierKind.SEQUENTIAL
        have_div = cfg.divider is DividerKind.SEQUENTIAL
        have_red = not cfg.pipelined_reduction
        table: list[InstrTiming] = []
        for pc, instr in enumerate(program.instructions):
            spec = instr.spec
            raises: str | None = None
            if spec.is_mul and cfg.multiplier is MultiplierKind.NONE:
                raises = (f"{spec.mnemonic} needs a multiplier but none is "
                          f"configured, at {program.location_of(pc)}")
            elif spec.is_div and cfg.divider is DividerKind.NONE:
                raises = (f"{spec.mnemonic} needs a divider but none is "
                          f"configured, at {program.location_of(pc)}")
            srcs = tuple((reg_key(rf, idx),
                          SCALAR_READ_OFFSET if rf == "s" else p_off)
                         for rf, idx in instr.src_regs())
            d = instr.dest_reg()
            dest = -1 if d is None else reg_key(d[0], d[1])
            roff = (None if raises is not None or dest < 0
                    else result_offset(spec, cfg))
            unit = -1
            occupancy = 0
            if spec.is_mul and have_mul:
                unit = UNIT_MUL
                occupancy = sequential_mul_latency(cfg.word_width)
            elif spec.is_div and have_div:
                unit = UNIT_DIV
                occupancy = sequential_div_latency(cfg.word_width)
            elif spec.exec_class is ExecClass.REDUCTION and have_red:
                unit = UNIT_REDUCTION
                occupancy = reduction_compute_cycles(spec, cfg)
            if spec.is_branch:
                kind = K_BRANCH
                target = pc + 1 + instr.imm
            elif spec.is_jump:
                kind = K_JUMP if spec.mnemonic in ("j", "jal") else K_JR
                target = instr.target
            elif spec.mnemonic == "tspawn":
                kind, target = K_TSPAWN, instr.imm
            elif spec.mnemonic == "texit":
                kind, target = K_TEXIT, 0
            elif spec.mnemonic == "tput":
                kind, target = K_TPUT, 0
            elif spec.mnemonic == "tjoin":
                kind, target = K_TJOIN, 0
            elif spec.is_halt:
                kind, target = K_HALT, 0
            else:
                kind, target = K_PLAIN, 0
            table.append(InstrTiming(
                mnemonic=spec.mnemonic,
                kind=kind,
                klass=_CLASS_INDEX[spec.exec_class],
                eclass=spec.exec_class.value,
                srcs=srcs,
                dest=dest,
                roff=-1 if roff is None else roff,
                wb=-1 if roff is None else roff + 1,
                unit=unit,
                occupancy=occupancy,
                resolve_taken=control_resolve_offset(spec, cfg, True),
                resolve_not_taken=control_resolve_offset(spec, cfg, False),
                runit=spec.reduction_unit,
                raises=raises,
                imm=instr.imm,
                target=target,
            ))
        self.table = table


@dataclass(frozen=True)
class StageSlot:
    """One (stage name, absolute cycle) occupancy entry."""

    stage: str
    cycle: int


def stage_schedule(spec: OpSpec, cfg: ProcessorConfig, issue_cycle: int,
                   fetch_cycle: int | None = None) -> list[StageSlot]:
    """Full stage occupancy of one instruction, Figure-1/2 style.

    ``fetch_cycle`` defaults to ``issue_cycle - 1``; when the instruction
    waited in decode, the ID stage repeats ("a stall is indicated by
    having the instruction repeat the instruction decode stage",
    Section 4.2).
    """
    c = issue_cycle
    f = fetch_cycle if fetch_cycle is not None else c - 1
    slots = [StageSlot("IF", f)]
    slots.extend(StageSlot("ID", cyc) for cyc in range(f + 1, c + 1))
    slots.append(StageSlot("SR", c + 1))
    b = cfg.broadcast_depth
    if spec.exec_class is ExecClass.SCALAR:
        lat = 1
        if spec.is_mul or spec.is_div:
            lat = _exec_latency(spec, cfg)
        for i in range(lat):
            slots.append(StageSlot("EX" if lat == 1 else f"EX{i + 1}",
                                   c + 2 + i))
        slots.append(StageSlot("MA", c + 1 + lat + 1))
        slots.append(StageSlot("WB", c + 1 + lat + 2))
        return slots
    for i in range(b):
        slots.append(StageSlot(f"B{i + 1}", c + 2 + i))
    slots.append(StageSlot("PR", c + b + 2))
    if spec.exec_class is ExecClass.PARALLEL:
        lat = _exec_latency(spec, cfg)
        for i in range(lat):
            slots.append(StageSlot("EX" if lat == 1 else f"EX{i + 1}",
                                   c + b + 3 + i))
        cursor = c + b + 2 + lat
        if spec.is_load or spec.is_store:
            cursor += 1
            slots.append(StageSlot("MA", cursor))
        slots.append(StageSlot("WB", cursor + 1))
        return slots
    r = reduction_compute_cycles(spec, cfg)
    for i in range(r):
        slots.append(StageSlot(f"R{i + 1}", c + b + 3 + i))
    slots.append(StageSlot("WB", c + b + r + 3))
    return slots
