"""Fault injection, detection, and graceful degradation (repro.faults).

Headline properties:

* an *empty* fault plane is bit-for-bit invisible: cycle counts, wait
  attribution, and every architectural register match a plain run
  across machine shapes (hypothesis);
* a dead PE is found by the associative self-test, masked out, and
  every library kernel then computes correct results on the survivors;
* campaigns are reproducible: same (kernel, config, faults, seed) ⇒
  byte-identical JSON; every injection lands in exactly one bucket.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings

from repro.asm import assemble
from repro.core import ProcessorConfig, Processor, SimTimeout, SimulationError
from repro.faults import (
    OUTCOMES,
    FaultKind,
    FaultPlane,
    FaultSite,
    FaultSpec,
    random_fault_specs,
    run_campaign,
    run_kernel_degraded,
    run_self_test,
)
from repro.network.tree import PipelinedBroadcastTree, PipelinedReductionTree
from repro.programs import ALL_KERNEL_BUILDERS

from .strategies import machine_configs

CFG16 = ProcessorConfig(num_pes=16, word_width=16)


def cfg_for(kernel_width, **kw):
    return ProcessorConfig(num_pes=16, word_width=kernel_width, **kw)


# ---------------------------------------------------------------------------
# Satellite: config validation
# ---------------------------------------------------------------------------

class TestConfigValidation:
    def test_threads_must_fit_word(self):
        with pytest.raises(ValueError, match="thread ids would wrap"):
            ProcessorConfig(num_threads=256, word_width=8)

    def test_threads_fit_wider_word(self):
        assert ProcessorConfig(num_threads=256, word_width=16) is not None

    def test_max_cycles_positive(self):
        with pytest.raises(ValueError, match="max_cycles"):
            ProcessorConfig(max_cycles=0)

    def test_coarse_switch_threshold_nonnegative(self):
        with pytest.raises(ValueError, match="coarse_switch_threshold"):
            ProcessorConfig(coarse_switch_threshold=-1)


# ---------------------------------------------------------------------------
# Satellite: cycle watchdog
# ---------------------------------------------------------------------------

class TestWatchdog:
    def test_infinite_loop_raises_simtimeout(self):
        proc = Processor(CFG16)
        prog = assemble(".text\nspin: j spin\n", word_width=16)
        with pytest.raises(SimTimeout, match="max_cycles"):
            proc.run(prog, max_cycles=200)

    def test_simtimeout_is_a_simulation_error(self):
        assert issubclass(SimTimeout, SimulationError)


# ---------------------------------------------------------------------------
# Fault specs
# ---------------------------------------------------------------------------

class TestSpecs:
    def test_random_specs_deterministic(self):
        a = random_fault_specs(50, CFG16, seed=7, max_cycle=100)
        b = random_fault_specs(50, CFG16, seed=7, max_cycle=100)
        assert a == b
        assert [s.label for s in a] == [s.label for s in b]
        c = random_fault_specs(50, CFG16, seed=8, max_cycle=100)
        assert a != c

    def test_json_roundtrip(self):
        for spec in random_fault_specs(20, CFG16, seed=3, max_cycle=40):
            assert FaultSpec.from_json(spec.to_json()) == spec

    def test_site_kind_validation(self):
        with pytest.raises(ValueError, match="permanent"):
            FaultSpec(site=FaultSite.DEAD_PE, kind=FaultKind.TRANSIENT,
                      cycle=1)
        with pytest.raises(ValueError, match="transient"):
            FaultSpec(site=FaultSite.BROADCAST, kind=FaultKind.STUCK_AT,
                      cycle=1)

    def test_site_filter(self):
        specs = random_fault_specs(30, CFG16, seed=0, max_cycle=50,
                                   sites=[FaultSite.DEAD_PE])
        assert {s.site for s in specs} == {FaultSite.DEAD_PE}


# ---------------------------------------------------------------------------
# Tentpole: zero-overhead identity of a disabled/empty fault plane
# ---------------------------------------------------------------------------

_IDENTITY_SRC = """
.text
    li    s1, 3
loop:
    paddi p1, p1, 5
    pceqi f1, p1, 10
    rcount s2, f1
    rsum  s3, p1
    addi  s1, s1, -1
    bne   s1, s0, loop
    halt
"""


def _run_identity(cfg, faults):
    proc = Processor(cfg, faults=faults)
    prog = assemble(_IDENTITY_SRC, word_width=cfg.word_width)
    result = proc.run(prog)
    return proc, result


class TestEmptyPlaneIdentity:
    @settings(max_examples=30, deadline=None)
    @given(cfg=machine_configs())
    def test_bit_for_bit_identical(self, cfg):
        base_proc, base = _run_identity(cfg, None)
        for parity in (False, True):
            plane = FaultPlane([], cfg, parity=parity)
            proc, res = _run_identity(cfg, plane)
            assert res.stats.cycles == base.stats.cycles
            assert res.stats.instructions == base.stats.instructions
            assert dict(res.stats.wait_cycles) == dict(base.stats.wait_cycles)
            assert res.stats.faults_injected == 0
            assert res.stats.fault_alarms == 0
            assert list(proc.threads[0].sregs) == list(
                base_proc.threads[0].sregs)
            assert np.array_equal(proc.pe.regs, base_proc.pe.regs)
            assert np.array_equal(proc.pe.flags, base_proc.pe.flags)


# ---------------------------------------------------------------------------
# Tentpole: injection mechanics
# ---------------------------------------------------------------------------

_PARITY_SRC = """
.text
    pli  p1, 7
    li   s1, 8
loop:
    addi s1, s1, -1
    bne  s1, s0, loop
    padd p2, p1, p1
    halt
"""


class TestInjection:
    def test_parity_detects_register_upset(self):
        spec = FaultSpec(site=FaultSite.PE_REG, kind=FaultKind.TRANSIENT,
                         cycle=8, pe=0, thread=0, reg=1, bit=0)
        plane = FaultPlane([spec], CFG16, parity=True)
        proc = Processor(CFG16, faults=plane)
        prog = assemble(_PARITY_SRC, word_width=16)
        result = proc.run(prog)
        assert plane.detected
        assert plane.alarms[0]["kind"] == "parity"
        assert result.stats.fault_alarms >= 1
        assert result.stats.faults_injected == 1

    def test_stuck_scalar_bit_can_hang_a_loop(self):
        # Counting 4..0 with bit 0 stuck at 1 never reaches zero.
        spec = FaultSpec(site=FaultSite.SCALAR_REG, kind=FaultKind.STUCK_AT,
                         cycle=2, thread=0, reg=1, bit=0, stuck_value=1)
        plane = FaultPlane([spec], CFG16)
        proc = Processor(CFG16, faults=plane)
        prog = assemble("""
.text
    li   s1, 4
loop:
    addi s1, s1, -1
    bne  s1, s0, loop
    halt
""", word_width=16)
        with pytest.raises(SimTimeout):
            proc.run(prog, max_cycles=500)

    def test_dead_link_drops_subtree_from_reductions(self):
        spec = FaultSpec(site=FaultSite.DEAD_LINK, kind=FaultKind.PERMANENT,
                         cycle=0, pe=0, level=1)   # leaves [0, 2)
        plane = FaultPlane([spec], CFG16)
        proc = Processor(CFG16, faults=plane)
        prog = assemble(".text\nfset f1\nrcount s2, f1\nhalt\n",
                        word_width=16)
        result = proc.run(prog)
        assert result.scalar(2) == CFG16.num_pes - 2

    def test_mask_out_excludes_responders(self):
        plane = FaultPlane([], CFG16)
        proc = Processor(CFG16, faults=plane)
        plane.mask_out(np.array([2, 5]))
        prog = assemble(".text\nfset f1\nrcount s2, f1\nhalt\n",
                        word_width=16)
        result = proc.run(prog)
        assert result.scalar(2) == CFG16.num_pes - 2

    def test_broadcast_fault_corrupts_subtree(self):
        # level=2 on a binary tree: an aligned window of 4 PEs sees the
        # flipped bit.
        spec = FaultSpec(site=FaultSite.BROADCAST, kind=FaultKind.TRANSIENT,
                         cycle=1, pe=5, level=2, bit=0)
        plane = FaultPlane([spec], CFG16)
        proc = Processor(CFG16, faults=plane)
        prog = assemble(".text\nli s1, 8\npbcast p1, s1\nhalt\n",
                        word_width=16)
        result = proc.run(prog)
        vec = result.pe_reg(1)
        assert list(np.flatnonzero(vec == 9)) == [4, 5, 6, 7]
        assert np.all(vec[[0, 1, 2, 3]] == 8) and np.all(vec[8:] == 8)


class TestFaultedCoreKeepsHooks:
    """A machine with a fault plane runs its parallel and reduction
    instructions through the hooked Executor, not the compiled PE
    micro-ops: each check below would go silent under a micro-op."""

    def test_parity_alarm_on_parallel_read(self):
        spec = FaultSpec(site=FaultSite.PE_REG, kind=FaultKind.TRANSIENT,
                         cycle=8, pe=3, thread=0, reg=1, bit=2)
        plane = FaultPlane([spec], CFG16, parity=True)
        result = Processor(CFG16, faults=plane).run(
            assemble(_PARITY_SRC, word_width=16))
        assert [(a["kind"], a["reg"], a["pes"]) for a in plane.alarms] \
            == [("parity", "p1", [3])]
        assert result.stats.fault_alarms >= 1

    def test_condemned_pe_padd_write_is_suppressed(self):
        # p1 is written everywhere first; PE 4 is then condemned (the
        # dead-PE write mask), so padd's write skips it.
        plane = FaultPlane([], CFG16)
        proc = Processor(CFG16, faults=plane)
        proc.load(assemble(
            ".text\nli s1, 7\npbcast p1, s1\npadd p2, p1, p1\nhalt\n",
            word_width=16))
        assert proc.run(stop_when=lambda p, _c: p.threads[0].pc == 2).paused
        plane.mask_out(np.array([4]))
        result = proc.run()
        assert result.pe_reg(1).tolist() == [7] * CFG16.num_pes
        expected = [14] * CFG16.num_pes
        expected[4] = 0
        assert result.pe_reg(2).tolist() == expected

    def test_reduction_mask_filters_rsum(self):
        plane = FaultPlane([], CFG16)
        proc = Processor(CFG16, faults=plane)
        plane.mask_out(np.array([2, 5, 9]))
        result = proc.run(assemble(
            ".text\nli s1, 3\npbcast p1, s1\nrsum s2, p1\nhalt\n",
            word_width=16))
        assert result.scalar(2) == 3 * (CFG16.num_pes - 3)


# ---------------------------------------------------------------------------
# Tentpole: self-test + graceful degradation
# ---------------------------------------------------------------------------

class TestSelfTest:
    def test_healthy_machine_passes(self):
        st = run_self_test(Processor(CFG16))
        assert st.passed and st.fail_count == 0

    def test_dead_pe_is_found(self):
        spec = FaultSpec(site=FaultSite.DEAD_PE, kind=FaultKind.PERMANENT,
                         cycle=0, pe=11)
        plane = FaultPlane([spec], CFG16)
        st = run_self_test(Processor(CFG16, faults=plane))
        assert list(np.flatnonzero(st.failing)) == [11]

    def test_stuck_register_bit_is_found(self):
        spec = FaultSpec(site=FaultSite.PE_REG, kind=FaultKind.STUCK_AT,
                         cycle=0, pe=3, thread=0, reg=1, bit=2,
                         stuck_value=1)
        plane = FaultPlane([spec], CFG16)
        st = run_self_test(Processor(CFG16, faults=plane))
        assert 3 in np.flatnonzero(st.failing)

    def test_dead_link_is_found(self):
        # A dead reduction link drops an aligned subtree from every
        # responder count without corrupting any PE: the pattern test
        # alone cannot see it, the all-PEs count check can.
        spec = FaultSpec(site=FaultSite.DEAD_LINK, kind=FaultKind.PERMANENT,
                         cycle=0, pe=4, level=1)
        plane = FaultPlane([spec], CFG16)
        st = run_self_test(Processor(CFG16, faults=plane))
        assert not st.failing.any()
        assert not st.link_ok
        assert not st.passed


class TestDegradation:
    @pytest.mark.parametrize("name", sorted(ALL_KERNEL_BUILDERS))
    def test_kernel_correct_on_survivors(self, name):
        builder = ALL_KERNEL_BUILDERS[name]
        width = builder(16).word_width
        spec = FaultSpec(site=FaultSite.DEAD_PE, kind=FaultKind.PERMANENT,
                         cycle=0, pe=5, label="dead pe5")
        cfg = cfg_for(width)
        plane = FaultPlane([spec], cfg, parity=True)
        run = run_kernel_degraded(builder, cfg, plane)
        assert list(np.flatnonzero(run.self_test.failing)) == [5]
        assert run.n_masked == 1
        assert 5 not in run.surviving
        assert run.correct, (
            f"{name} degraded run wrong: measured {run.measured}, "
            f"expected {run.expected}")

    def test_multiple_dead_pes(self):
        specs = [FaultSpec(site=FaultSite.DEAD_PE,
                           kind=FaultKind.PERMANENT, cycle=0, pe=p)
                 for p in (1, 7, 12)]
        builder = ALL_KERNEL_BUILDERS["count_matches"]
        cfg = cfg_for(builder(16).word_width)
        plane = FaultPlane(specs, cfg, parity=True)
        run = run_kernel_degraded(builder, cfg, plane)
        assert run.n_masked == 3
        assert run.correct


# ---------------------------------------------------------------------------
# Tentpole: campaigns
# ---------------------------------------------------------------------------

class TestCampaign:
    def test_reproducible_json(self):
        kw = dict(cfg=ProcessorConfig(num_pes=16), faults=25, seed=4)
        a = run_campaign("count_matches", **kw)
        b = run_campaign("count_matches", **kw)
        assert a.to_json() == b.to_json()

    def test_every_fault_in_exactly_one_bucket(self):
        rep = run_campaign("assoc_max_extract",
                           cfg=ProcessorConfig(num_pes=16),
                           faults=30, seed=1)
        assert len(rep.results) == 30
        assert all(r.outcome in OUTCOMES for r in rep.results)
        assert sum(rep.counts.values()) == 30

    def test_dead_pe_campaign_never_escapes_silently(self):
        rep = run_campaign("count_matches",
                           cfg=ProcessorConfig(num_pes=16),
                           faults=12, seed=0,
                           sites=[FaultSite.DEAD_PE, FaultSite.DEAD_LINK])
        # The self-test screens every hard fault: no silent corruption.
        assert rep.count("sdc") == 0
        assert all(r.outcome in ("detected", "hang", "crash")
                   for r in rep.results)

    def test_json_payload_shape(self):
        rep = run_campaign("count_matches",
                           cfg=ProcessorConfig(num_pes=16),
                           faults=5, seed=2)
        payload = json.loads(rep.to_json())
        assert payload["kernel"] == "count_matches"
        assert set(payload["outcomes"]) == set(OUTCOMES)
        assert len(payload["results"]) == 5
        for entry in payload["results"]:
            assert entry["outcome"] in OUTCOMES
            assert FaultSpec.from_json(entry["fault"]) is not None


# ---------------------------------------------------------------------------
# Structural tree-node faults
# ---------------------------------------------------------------------------

class TestTreeNodeFaults:
    def test_broadcast_node_fault_corrupts_flits(self):
        tree = PipelinedBroadcastTree(16)
        tree.inject_node_fault(1, lambda v: v ^ 0x10)
        outs = [tree.tick(5)] + [tree.tick(None)
                                 for _ in range(tree.latency)]
        delivered = [o for o in outs if o is not None]
        assert delivered == [5 ^ 0x10]
        tree.clear_node_faults()
        outs = [tree.tick(5)] + [tree.tick(None)
                                 for _ in range(tree.latency)]
        assert [o for o in outs if o is not None] == [5]

    def test_reduction_node_fault_perturbs_result(self):
        tree = PipelinedReductionTree(8, np.add, 0)
        vec = np.arange(8)
        clean = None
        while clean is None:
            clean = tree.tick(vec if clean is None else None)
            vec = None
        assert clean == sum(range(8))
        faulty_tree = PipelinedReductionTree(8, np.add, 0)
        faulty_tree.inject_node_fault(0, lambda v: v + 1)
        vec = np.arange(8)
        result = faulty_tree.tick(vec)
        for _ in range(faulty_tree.latency):
            out = faulty_tree.tick(None)
            if out is not None:
                result = out
        assert result != sum(range(8))

    def test_invalid_level_rejected(self):
        tree = PipelinedBroadcastTree(16)
        with pytest.raises(ValueError, match="out of range"):
            tree.inject_node_fault(99, lambda v: v)


# ---------------------------------------------------------------------------
# Satellite: unguarded-reduction lint check
# ---------------------------------------------------------------------------

class TestUnguardedReductionLint:
    @staticmethod
    def _diags(source):
        from repro.analysis import lint_program

        prog = assemble(source, word_width=16)
        report = lint_program(prog, ProcessorConfig(
            num_pes=16, word_width=16),
            checks=["unguarded-reduction"])
        return report.diagnostics

    def test_flags_unguarded_masked_reduction(self):
        diags = self._diags("""
.text
    fclr f1
    pceqi f1, p1, 3
    rmax s1, p1 [f1]
    halt
""")
        assert len(diags) == 1
        assert diags[0].check == "unguarded-reduction"
        assert diags[0].severity == "info"

    def test_guard_anywhere_suppresses(self):
        diags = self._diags("""
.text
    fclr f1
    pceqi f1, p1, 3
    rany s2, f1
    rmax s1, p1 [f1]
    halt
""")
        assert diags == []

    def test_unmasked_reduction_is_fine(self):
        assert self._diags(".text\nrmax s1, p1\nhalt\n") == []

    def test_all_library_kernels_stay_strict_clean(self):
        from repro.analysis import lint_program

        for builder in ALL_KERNEL_BUILDERS.values():
            kern = builder(16)
            prog = assemble(kern.source, word_width=kern.word_width)
            report = lint_program(prog, ProcessorConfig(
                num_pes=16, word_width=kern.word_width))
            assert report.findings == [], kern.name
