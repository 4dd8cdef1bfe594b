"""The fast-path execution backend: functional semantics + static timing.

``repro run --backend fast`` (and the serve tier's ``"backend": "fast"``
job flag) executes programs without stepping the cycle-accurate
pipeline where it can, while producing **bit-identical** cycle counts
and statistics:

* **Spawn-free programs** run once as straight functional
  interpretation (the per-pc micro-ops of
  :func:`~repro.core.execute.compile_fastops`, scalar and PE alike —
  this backend never has a fault plane — and the Executor for jumps,
  memory, thread and halt instructions), recording the dynamic block
  path; the path is then folded through the compositional block
  summaries of :class:`repro.analysis.timing.TimingAnalysis` — timing
  is recovered per *block* (memoized on pipeline state), not per
  instruction.  The fold shares no issue loop with the cycle core, so
  core-vs-fast parity on these programs is a genuine differential
  check.

* **Spawning programs** run on the cycle core
  (:class:`repro.core.processor.Processor`) itself: with several
  threads in flight the fold has no single block path to follow, and
  the core is already the fast way to replay them.  A fast machine
  has no fetch model, fault plane or ``stop_when``, so the core issues
  without scheduling rounds under fine-grain issue, and under
  coarse-grain and SMT2 issue while one context is runnable; coarse
  and SMT2 run rounds while several are.  The result is wrapped as a
  :class:`FastRunResult`.

Unsupported in this backend: ``model_fetch`` machines, pipeline traces,
the race sanitizer, the cycle profiler, and fault injection — all of
which observe (or perturb) per-cycle pipeline state the fold never
materializes.  Callers get :class:`FastPathError` for the former and
should route the latter to the cycle backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.timing import TimingAnalysis
from repro.asm.program import Program
from repro.assoc.functional import FunctionalMachine
from repro.core.config import ProcessorConfig
from repro.core.execute import (
    BranchOp,
    Executor,
    PlainOp,
    compile_fastops,
)
from repro.core.processor import Processor, SimulationError
from repro.core.stats import Stats
from repro.core.thread import ThreadState, ThreadStatusTable

__all__ = [
    "FastMachine",
    "FastPathError",
    "FastRunResult",
    "run_fast",
]


class FastPathError(SimulationError):
    """The fast backend cannot honour this configuration or feature."""


@dataclass
class FastRunResult:
    """Outcome of one fast-path run; duck-types the core's RunResult."""

    stats: Stats
    machine: "FastMachine"
    trace: list[object] = field(default_factory=list)
    paused: bool = False

    @property
    def processor(self) -> "FastMachine":
        """RunResult-compatible alias (snapshots read ``.processor``)."""
        return self.machine

    def scalar(self, reg: int, thread: int = 0) -> int:
        return int(self.machine.threads[thread].read_sreg(reg))

    def pe_reg(self, reg: int, thread: int = 0) -> np.ndarray:
        return self.machine.pe.read_reg(thread, reg).copy()

    def pe_flag(self, flag: int, thread: int = 0) -> np.ndarray:
        return self.machine.pe.read_flag(thread, flag).copy()

    def memory(self, base: int, count: int) -> list[int]:
        return list(self.machine.mem.dump(base, count))

    @property
    def cycles(self) -> int:
        return self.stats.cycles


class FastMachine:
    """One configured fast-path machine.  Reusable across programs."""

    def __init__(self, config: ProcessorConfig | None = None) -> None:
        self.cfg = config or ProcessorConfig()
        self._fm = FunctionalMachine(self.cfg)
        self._core: Processor | None = None
        # The machine holding the loaded program's architectural state:
        # the functional machine, or the cycle core for spawning code.
        self._engine: FunctionalMachine | Processor = self._fm
        self._analysis: TimingAnalysis | None = None
        self._analysis_program: Program | None = None
        self._plain: list[PlainOp | None] = []
        self._branch: list[BranchOp | None] = []
        self._ops_program: Program | None = None

    # The accessors mirror Processor's attributes for snapshot/tooling
    # code, reading whichever engine holds the loaded program.

    @property
    def pe(self):  # type: ignore[no-untyped-def]
        return self._engine.pe

    @property
    def mem(self):  # type: ignore[no-untyped-def]
        return self._engine.mem

    @property
    def threads(self) -> ThreadStatusTable:
        return self._engine.threads

    @property
    def executor(self) -> Executor:
        return self._engine.executor

    @property
    def program(self) -> Program | None:
        return self._engine.program

    @property
    def halted(self) -> bool:
        return self._engine.halted

    def load(self, program: Program) -> None:
        if any(ins.mnemonic == "tspawn" for ins in program.instructions):
            if self._core is None:
                self._core = Processor(self.cfg)
            self._engine = self._core
        else:
            self._engine = self._fm
        self._engine.load(program)

    def _timing(self, program: Program) -> TimingAnalysis:
        if self._analysis is None or self._analysis_program is not program:
            self._analysis = TimingAnalysis(program, self.cfg)
            self._analysis_program = program
        return self._analysis

    def _ops(self, program: Program,
             ) -> tuple[list[PlainOp | None], list[BranchOp | None]]:
        if self._ops_program is not program:
            self._plain, self._branch = compile_fastops(
                program, self.cfg.word_width, self._fm.pe)
            self._ops_program = program
        return self._plain, self._branch

    def run(self, program: Program | None = None,
            max_cycles: int | None = None) -> FastRunResult:
        if program is not None:
            self.load(program)
        prog = self._engine.program
        if prog is None:
            raise SimulationError("no program loaded")
        if self.cfg.model_fetch:
            raise FastPathError(
                "the fast backend does not model the fetch stage; run "
                "model_fetch configurations on the cycle backend")
        limit = (max_cycles if max_cycles is not None
                 else self.cfg.max_cycles)
        core = self._core
        if core is not None and self._engine is core:
            stats = core.run(max_cycles=limit).stats
        else:
            stats = self._run_folded(prog, limit)
        return FastRunResult(stats, self)

    def _run_folded(self, prog: Program, limit: int) -> Stats:
        """Spawn-free path: functional run + compositional timing fold."""
        events = self._trace_single(prog, limit)
        return self._timing(prog).fold(events, max_cycles=limit)

    def _trace_single(self, prog: Program, limit: int) -> list[int]:
        """Single-thread functional execution, recording fold events.

        Specialized replacement for ``FunctionalMachine.run`` plus
        :class:`BlockTraceRecorder`: a spawn-free program has exactly
        one live thread forever, so the round-robin scheduler collapses
        to straight interpretation — compiled micro-ops (scalar,
        parallel, flag and reduction) where available, the Executor for
        the rest.  Returns the main thread's event stream; a truncated
        stream (watchdog) is fine because the fold re-raises the core's
        timeout exactly.
        """
        fm = self._fm
        thread = fm.threads[0]
        instructions = prog.instructions
        plain, branch = self._ops(prog)
        executor = fm.executor
        events: list[int] = []
        append = events.append
        num_threads = self.cfg.num_threads
        # One issue costs >= 1 cycle, so limit + 2 steps cover every
        # issue the core could attempt before its watchdog fires.
        max_steps = limit + 2
        steps = 0
        pc = thread.pc
        n = len(instructions)
        while 0 <= pc < n and steps <= max_steps:
            f = plain[pc]
            if f is not None:
                f(thread)
                pc += 1
                steps += 1
                continue
            g = branch[pc]
            if g is not None:
                if g(thread):
                    append(1)
                    pc += 1 + instructions[pc].imm
                else:
                    append(0)
                    pc += 1
                steps += 1
                continue
            thread.pc = pc
            instr = instructions[pc]
            m = instr.mnemonic
            if m == "tjoin":
                target = fm.threads[
                    thread.read_sreg(instr.rs) % num_threads]
                if target.state is not ThreadState.FREE:
                    # The only live thread is joining a live handle:
                    # the core reports deadlock the next round.
                    raise SimulationError(
                        f"deadlock: threads [{thread.tid}] blocked in "
                        f"tjoin with no runnable thread")
                outcome = executor.execute(instr, thread, steps)
                append(target.tid)
            elif m == "tput":
                outcome = executor.execute(instr, thread, steps)
                append(thread.read_sreg(instr.rd) % num_threads)
            elif m == "jr":
                outcome = executor.execute(instr, thread, steps)
                append(outcome.next_pc)
            else:
                outcome = executor.execute(instr, thread, steps)
            pc = outcome.next_pc
            steps += 1
            if outcome.halt:
                fm.halted = True
                break
            if thread.state is not ThreadState.RUNNABLE:
                # texit on the main thread: no live threads remain.
                fm.threads.release(thread.tid)
                break
        thread.pc = pc
        return events


def run_fast(source_or_program: str | Program,
             config: ProcessorConfig | None = None,
             max_cycles: int | None = None,
             **asm_kwargs: object) -> FastRunResult:
    """Assemble (if needed) and run on the fast-path backend."""
    from repro.asm.assembler import assemble

    cfg = config or ProcessorConfig()
    if isinstance(source_or_program, str):
        program = assemble(source_or_program, word_width=cfg.word_width,
                           **asm_kwargs)
    else:
        program = source_or_program
    machine = FastMachine(cfg)
    return machine.run(program, max_cycles=max_cycles)
