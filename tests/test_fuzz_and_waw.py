"""Decoder fuzzing and write-after-write ordering tests."""

from hypothesis import given, settings, strategies as st

from repro.core import MTMode, ProcessorConfig, run_program
from repro.isa.encoding import DecodeError, decode, encode


class TestDecoderFuzz:
    @settings(max_examples=300)
    @given(st.integers(0, (1 << 32) - 1))
    def test_decode_never_crashes(self, word):
        """Every 32-bit word either decodes cleanly or raises DecodeError
        — never any other exception."""
        try:
            decode(word)
        except DecodeError:
            pass

    @settings(max_examples=200)
    @given(st.integers(0, (1 << 32) - 1))
    def test_decode_encode_idempotent(self, word):
        """A decodable word re-encodes to a word that decodes to the same
        instruction (the encoding has no hidden don't-care state)."""
        try:
            instr = decode(word)
        except DecodeError:
            return
        word2 = encode(instr)
        again = decode(word2)
        assert again.mnemonic == instr.mnemonic
        assert (again.rd, again.rs, again.rt, again.mf,
                again.imm, again.target) == \
            (instr.rd, instr.rs, instr.rt, instr.mf,
             instr.imm, instr.target)


class TestWAWOrdering:
    def cfg(self, pes=64):
        return ProcessorConfig(num_pes=pes, num_threads=1,
                               mt_mode=MTMode.SINGLE, word_width=16)

    def test_reduction_then_scalar_same_dest(self):
        """A slow reduction write followed by a fast scalar write to the
        same register must leave the *later* (scalar) value — the WAW
        ordering the instruction status table enforces."""
        res = run_program("""
.text
    li    s2, 9
    pbcast p1, s2
    rmax  s1, p1          # slow write to s1 (b + r latency)
    li    s1, 5           # fast write to s1, issued later
    halt
""", self.cfg(), trace=True)
        assert res.scalar(1) == 5
        # The WAW hazard is either stalled on or harmless; the counter
        # records any enforced wait.
        assert res.stats.wait_cycles.get("waw", 0) >= 0

    def test_waw_wait_counted_at_scale(self):
        res = run_program("""
.text
    rsum  s1, p1
    li    s1, 1           # WAW against the in-flight rsum
    halt
""", self.cfg(pes=1024), trace=True)
        assert res.scalar(1) == 1
        assert res.stats.wait_cycles.get("waw", 0) > 0

    def test_waw_between_reductions_in_order(self):
        res = run_program("""
.text
    li    s2, 3
    pbcast p1, s2
    rmax  s1, p1          # 3
    rsum  s1, p1          # 3 * p, same destination, same pipe: in order
    halt
""", self.cfg(pes=16))
        assert res.scalar(1) == 48

    def test_war_reader_gets_old_value(self):
        res = run_program("""
.text
    li    s1, 7
    add   s2, s1, s0      # read s1
    li    s1, 9           # overwrite after the read
    halt
""", self.cfg())
        assert res.scalar(2) == 7
        assert res.scalar(1) == 9


class TestTopKQueryPattern:
    """The unrolled associative top-k idiom, written purely in asclang
    (functional threading of the 'alive' responder set — no compiler
    loop support needed)."""

    def test_unrolled_top3(self):
        import numpy as np
        from repro.asclang import AscProgram

        values = np.array([5, 17, 3, 17, 11, 2, 8, 13], dtype=np.int64)
        prog = AscProgram(width=16)
        v = prog.load_field(0)
        alive = prog.all_cells()
        for i in range(3):
            m = prog.max(v, where=alive, signed=False)
            prog.output(m, f"top{i}")
            one = prog.pick_one(alive & (v == m))
            alive = alive & ~one
        out = prog.compile().run(8, lmem={0: values})
        assert out == {"top0": 17, "top1": 17, "top2": 13}

    def test_unrolled_topk_matches_numpy(self):
        import numpy as np
        from repro.asclang import AscProgram
        from repro.programs.workloads import random_field

        values = random_field(32, 16, seed=77, high=500)
        k = 5
        prog = AscProgram(width=16)
        v = prog.load_field(0)
        alive = prog.all_cells()
        for i in range(k):
            m = prog.max(v, where=alive, signed=False)
            prog.output(m, f"t{i}")
            one = prog.pick_one(alive & (v == m))
            alive = alive & ~one
        out = prog.compile().run(32, lmem={0: values})
        expected = sorted(values.tolist(), reverse=True)[:k]
        assert [out[f"t{i}"] for i in range(k)] == expected


class TestMissingUnitUnderWaw:
    """An op the machine lacks raises the typed, located SimulationError
    even when an earlier write to its destination is still in flight
    (once a bare ValueError from the WAW check, with no location)."""

    CASES = [
        ("pmul", ".text\n    paddi p1, p1, 1\n    pmul p1, p2, p3\n"
                 "    halt\n", 1),
        ("smul", ".text\n    addi s1, s0, 1\n    smul s1, s2, s3\n"
                 "    halt\n", 1),
        ("sdiv", ".text\n    addi s1, s0, 1\n    sdiv s1, s2, s3\n"
                 "    halt\n", 1),
        ("pmul", ".text\n    tspawn s9, w\n    paddi p1, p1, 1\n"
                 "    pmul p1, p2, p3\n    halt\nw:\n    texit\n", 2),
    ]

    def _run(self, backend, source):
        from repro.asm import assemble
        from repro.assoc.fastpath import FastMachine
        from repro.core import Processor
        from repro.core.config import DividerKind, MultiplierKind

        cfg = ProcessorConfig(num_pes=4, num_threads=2,
                              multiplier=MultiplierKind.NONE,
                              divider=DividerKind.NONE)
        machine = (Processor if backend == "cycle" else FastMachine)(cfg)
        return machine.run(assemble(source, word_width=cfg.word_width))

    def test_typed_error_with_location(self):
        import pytest

        from repro.core.processor import SimulationError

        for backend in ("cycle", "fast"):
            for mnemonic, source, pc in self.CASES:
                unit = "divider" if mnemonic == "sdiv" else "multiplier"
                with pytest.raises(SimulationError) as info:
                    self._run(backend, source)
                assert type(info.value) is SimulationError
                assert str(info.value).startswith(
                    f"{mnemonic} needs a {unit} but none is configured, "
                    f"at pc={pc} "), (backend, str(info.value))
