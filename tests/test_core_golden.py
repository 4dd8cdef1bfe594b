"""Golden oracle for the cycle core's issue loop.

``tests/data/core_golden.json`` freezes, for a fixed set of cases, the
full :class:`~repro.core.stats.Stats` and a digest of the architectural
state (every context's state, PC and scalar registers; the PE register,
flag and local-memory arrays; scalar memory) produced by the cycle
core, or the exact error it raised.  The cases cover:

* every ``examples/asm`` program across the machine variants of
  ``test_timing_static`` plus a fetch-modelling and a
  predict-not-taken machine;
* every library kernel under fine/rotating, coarse/fixed and SMT2
  scheduling;
* a fixed corpus of generated spawn/join/tput programs (sources stored
  in the file) across the multithreaded variants;
* ``SimTimeout`` messages under tight ``max_cycles``;
* two seeded fault campaigns, one on a spawning kernel with PC flips;
* ``Debugger`` sessions: single steps, then breakpoint resumes.

The file was recorded once by ``tools/record_core_golden.py`` and is
the reference every issue-loop change is held to: a mismatch is a bug
in the program, never a reason to re-record the file.  Where the fast
backend accepts a case, its result must match the same record.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import random

import numpy as np
import pytest

from repro.asm import assemble
from repro.assoc.fastpath import FastMachine
from repro.core import MTMode, Processor, ProcessorConfig
from repro.core.config import (
    BranchPolicy,
    DividerKind,
    MultiplierKind,
    SchedulerPolicy,
)
from repro.core.debugger import Debugger
from repro.core.processor import SimTimeout, SimulationError
from repro.faults import FaultSite
from repro.faults.campaign import run_campaign
from repro.programs.kernels import ALL_KERNEL_BUILDERS

ROOT = pathlib.Path(__file__).resolve().parent.parent
ASM_DIR = ROOT / "examples" / "asm"
GOLDEN_PATH = ROOT / "tests" / "data" / "core_golden.json"

VARIANTS = {
    "fine-rot": dict(mt_mode=MTMode.FINE, scheduler=SchedulerPolicy.ROTATING),
    "fine-fixed": dict(mt_mode=MTMode.FINE, scheduler=SchedulerPolicy.FIXED),
    "coarse-rot": dict(mt_mode=MTMode.COARSE,
                       scheduler=SchedulerPolicy.ROTATING),
    "coarse-fixed": dict(mt_mode=MTMode.COARSE,
                         scheduler=SchedulerPolicy.FIXED),
    "smt2": dict(mt_mode=MTMode.SMT2, scheduler=SchedulerPolicy.ROTATING),
    "seq-muldiv": dict(mt_mode=MTMode.FINE,
                       scheduler=SchedulerPolicy.ROTATING,
                       multiplier=MultiplierKind.SEQUENTIAL,
                       divider=DividerKind.SEQUENTIAL),
    "flat-reduce": dict(mt_mode=MTMode.FINE,
                        scheduler=SchedulerPolicy.ROTATING,
                        pipelined_reduction=False,
                        pipelined_broadcast=False),
    "fetch": dict(mt_mode=MTMode.FINE, scheduler=SchedulerPolicy.ROTATING,
                  model_fetch=True),
    "predict-nt": dict(mt_mode=MTMode.FINE,
                       scheduler=SchedulerPolicy.ROTATING,
                       branch_policy=BranchPolicy.PREDICT_NOT_TAKEN),
}

KERNEL_VARIANTS = ("fine-rot", "coarse-fixed", "smt2")
MT_VARIANTS = ("fine-rot", "fine-fixed", "coarse-rot", "coarse-fixed",
               "smt2", "seq-muldiv")
SCALAR_OPS = ("add", "sub", "xor", "and", "or", "sll", "srl", "slt",
              "smul")


# ---------------------------------------------------------------------------
# observation: Stats + architectural digest, or the raised error
# ---------------------------------------------------------------------------

def stats_json(stats) -> dict:
    """Every Stats field as plain JSON (Counter keys as sorted strings)."""
    out = {}
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, dict):
            value = {str(k): int(v) for k, v in sorted(value.items(),
                                                        key=lambda kv: str(kv[0]))}
        out[f.name] = value
    return out


def arch_digest(machine) -> str:
    """SHA-256 over everything architecturally visible after a run."""
    state = {
        "threads": [(ctx.state.name, int(ctx.pc),
                     [int(v) for v in ctx.sregs]) for ctx in machine.threads],
        "pe_regs": machine.pe.regs.tolist(),
        "pe_flags": machine.pe.flags.astype(np.int64).tolist(),
        "pe_lmem": machine.pe.lmem.tolist(),
        "memory": [int(w) for w in machine.mem.dump(0, machine.mem.words)],
    }
    blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def make_config(variant: str, **overrides) -> ProcessorConfig:
    return ProcessorConfig(**{**VARIANTS[variant], **overrides})


def observe(make_machine, program, cfg, lmem=None, max_cycles=None) -> dict:
    """Run once; return the stats + digest, or the error type and text."""
    machine = make_machine(cfg)
    machine.load(program)
    for col, values in sorted((lmem or {}).items()):
        padded = np.zeros(cfg.num_pes, dtype=np.int64)
        n = min(len(values), cfg.num_pes)
        padded[:n] = values[:n]
        machine.pe.set_lmem_column(int(col), padded)
    try:
        result = machine.run(max_cycles=max_cycles)
    except (SimulationError, RuntimeError, ValueError) as exc:
        return {"error": [type(exc).__name__, str(exc)]}
    return {"stats": stats_json(result.stats), "arch": arch_digest(machine)}


# ---------------------------------------------------------------------------
# the case list
# ---------------------------------------------------------------------------

def mt_source(rng: random.Random) -> str:
    """One spawn/join/tput program in the shape ``mt_programs`` draws."""
    workers = rng.randint(1, 3)
    lines = [".text", "main:"]
    for w in range(workers):
        lines.append(f"    tspawn s{10 + w}, worker{w}")
    if rng.random() < 0.5:
        lines.append(f"    addi s2, s0, {rng.randint(1, 60)}")
        lines.append(f"    tput s10, s2, {rng.randint(0, 3)}")
    lines += [f"    addi s1, s0, {rng.randint(2, 12)}", "mloop:"]
    for _ in range(rng.randint(1, 3)):
        lines.append(f"    {rng.choice(SCALAR_OPS)} s{rng.randint(2, 7)}, "
                     f"s{rng.randint(1, 7)}, s{rng.randint(1, 7)}")
    if rng.random() < 0.5:
        lines.append("    paddi p1, p1, 1")
    if rng.random() < 0.5:
        lines.append("    rsum s8, p1")
    lines += ["    addi s9, s9, 1", "    blt s9, s1, mloop"]
    for w in range(workers):
        lines.append(f"    tjoin s{10 + w}")
    lines.append("    halt")
    for w in range(workers):
        lines += [f"worker{w}:", f"    addi s1, s0, {rng.randint(1, 10)}",
                  f"wloop{w}:"]
        for _ in range(rng.randint(1, 2)):
            lines.append(f"    {rng.choice(SCALAR_OPS)} "
                         f"s{rng.randint(3, 7)}, s{rng.randint(1, 7)}, "
                         f"s{rng.randint(1, 7)}")
        lines += ["    addi s2, s2, 1", f"    blt s2, s1, wloop{w}",
                  "    texit"]
    return "\n".join(lines) + "\n"


def build_cases() -> list[dict]:
    """Case inputs only; ``expected`` is filled in by the recorder."""
    cases: list[dict] = []
    for path in sorted(ASM_DIR.glob("*.s")):
        for variant in VARIANTS:
            cases.append({"id": f"asm/{path.stem}/{variant}", "kind": "run",
                          "source": path.read_text(), "variant": variant,
                          "num_pes": 16, "num_threads": 4})
    for name in sorted(ALL_KERNEL_BUILDERS):
        kern = ALL_KERNEL_BUILDERS[name](16)
        lmem = {str(c): [int(v) for v in vals]
                for c, vals in sorted(kern.lmem.items())}
        for variant in KERNEL_VARIANTS:
            cases.append({"id": f"kernel/{name}/{variant}", "kind": "kernel",
                          "source": kern.source, "lmem": lmem,
                          "word_width": kern.word_width, "variant": variant,
                          "num_pes": 16, "num_threads": 8})
    rng = random.Random(20070326)
    for i in range(100):
        cases.append({"id": f"mt/{i:03d}", "kind": "run",
                      "source": mt_source(rng),
                      "variant": MT_VARIANTS[i % len(MT_VARIANTS)],
                      "num_pes": 8, "num_threads": (4, 8)[i % 2],
                      "max_cycles": 20_000})
    for i in range(40):
        cases.append({"id": f"timeout/{i:03d}", "kind": "run",
                      "source": mt_source(rng),
                      "variant": MT_VARIANTS[i % len(MT_VARIANTS)],
                      "num_pes": 8, "num_threads": 4,
                      "max_cycles": rng.randint(1, 120)})
    for path in sorted(ASM_DIR.glob("*.s")):
        cases.append({"id": f"timeout/{path.stem}", "kind": "run",
                      "source": path.read_text(), "variant": "fine-rot",
                      "num_pes": 16, "num_threads": 4, "max_cycles": 37})
    cases.append({"id": "faults/count_matches", "kind": "faults",
                  "kernel": "count_matches", "num_pes": 16, "num_threads": 4,
                  "faults": 40, "seed": 11, "sites": None})
    cases.append({"id": "faults/reduction_storm-pc", "kind": "faults",
                  "kernel": "reduction_storm", "num_pes": 16,
                  "num_threads": 8, "faults": 40, "seed": 3,
                  "sites": ["thread_pc", "scalar_reg", "reduction"]})
    cases.append({"id": "debugger/spawn_pipeline", "kind": "debugger",
                  "source": (ASM_DIR / "spawn_pipeline.s").read_text(),
                  "word_width": 8, "num_pes": 16, "num_threads": 4,
                  "steps": 400, "breakpoint": None})
    cases.append({"id": "debugger/reduction_storm", "kind": "debugger",
                  "source": ALL_KERNEL_BUILDERS["reduction_storm"](16).source,
                  "word_width": 16, "num_pes": 16, "num_threads": 8,
                  "steps": 150, "breakpoint": "worker"})
    return cases


# ---------------------------------------------------------------------------
# running one case
# ---------------------------------------------------------------------------

def _program_inputs(case: dict):
    """Program, machine and lmem image of a ``run``/``kernel`` case; the
    sources live in the golden file, so later library edits cannot move
    the reference."""
    cfg = make_config(case["variant"], num_pes=case["num_pes"],
                      num_threads=case["num_threads"],
                      word_width=case.get("word_width", 8))
    lmem = {int(c): vals for c, vals in case.get("lmem", {}).items()}
    return assemble(case["source"], word_width=cfg.word_width), cfg, lmem


def _campaign(case: dict) -> dict:
    cfg = ProcessorConfig(num_pes=case["num_pes"],
                          num_threads=case["num_threads"])
    sites = (None if case["sites"] is None
             else [FaultSite(s) for s in case["sites"]])
    report = run_campaign(case["kernel"], cfg, faults=case["faults"],
                          seed=case["seed"], sites=sites)
    return json.loads(report.to_json())


def _debug_session(case: dict) -> dict:
    """Single-step, then (optionally) resume across a breakpoint."""
    db = Debugger(ProcessorConfig(num_pes=case["num_pes"],
                                  num_threads=case["num_threads"],
                                  word_width=case["word_width"]))
    db.load(case["source"])
    steps = []

    def snap():
        steps.append([db.cycle, db.proc.stats.instructions,
                      [[v.tid, v.pc, v.state] for v in db.threads()]])

    for _ in range(case["steps"]):
        if db.finished:
            break
        db.step_instructions(1)
        snap()
    if case["breakpoint"] is not None:
        db.breakpoint(case["breakpoint"])
        for _ in range(4):
            if db.finished:
                break
            db.run()
            snap()
        db.clear_breakpoint(case["breakpoint"])
        db.run()
        snap()
    return {"steps": steps, "stats": stats_json(db.proc.stats),
            "arch": arch_digest(db.proc), "trace_len": len(db.proc.trace)}


def observe_case(case: dict, make_machine=Processor) -> dict:
    kind = case["kind"]
    if kind == "faults":
        return _campaign(case)
    if kind == "debugger":
        return _debug_session(case)
    program, cfg, lmem = _program_inputs(case)
    return observe(make_machine, program, cfg, lmem,
                   case.get("max_cycles"))


def fast_supports(case: dict) -> bool:
    return (case["kind"] in ("run", "kernel")
            and not VARIANTS[case["variant"]].get("model_fetch", False))


# ---------------------------------------------------------------------------
# the tests
# ---------------------------------------------------------------------------

def _golden() -> list[dict]:
    return json.loads(GOLDEN_PATH.read_text())["cases"]


_CASES = _golden() if GOLDEN_PATH.exists() else []


def test_golden_covers_every_case_kind():
    kinds = {c["kind"] for c in _CASES}
    assert kinds == {"run", "kernel", "faults", "debugger"}
    assert sum(c["id"].startswith("mt/") for c in _CASES) >= 100
    assert any("error" in c["expected"]
               and c["expected"]["error"][0] == "SimTimeout"
               for c in _CASES)
    assert sum(c["kind"] == "kernel" for c in _CASES) >= 3 * 12


@pytest.mark.parametrize("case", _CASES, ids=[c["id"] for c in _CASES])
def test_cycle_core_matches_golden(case):
    assert observe_case(case) == case["expected"]


@pytest.mark.parametrize("case", [c for c in _CASES if fast_supports(c)],
                         ids=[c["id"] for c in _CASES if fast_supports(c)])
def test_fast_backend_matches_golden(case):
    assert observe_case(case, FastMachine) == case["expected"]


def test_golden_error_cases_are_typed():
    errors = {c["expected"]["error"][0] for c in _CASES
              if "error" in c["expected"]}
    assert errors <= {"SimTimeout", "SimulationError"}
    assert SimTimeout.__name__ in errors
