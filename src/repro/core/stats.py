"""Execution statistics.

The counters here are the quantities the paper argues about: issue-slot
utilization, stall cycles broken down by hazard class (broadcast /
reduction / broadcast-reduction / load-use / structural / control), and
per-thread issue shares (for the rotating-priority fairness experiment).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.util.tables import format_table

# Stall/idleness attribution causes.
STALL_RAW_SCALAR = "raw_scalar"            # plain scalar RAW (e.g. load-use)
STALL_BROADCAST = "broadcast_hazard"       # scalar -> parallel (fwd removes most)
STALL_REDUCTION = "reduction_hazard"       # reduction -> scalar
STALL_BCAST_REDUCTION = "bcast_reduction_hazard"  # reduction -> parallel
STALL_RAW_PARALLEL = "raw_parallel"        # parallel -> parallel (load-use etc.)
STALL_STRUCTURAL = "structural"            # sequential mul/div or legacy network busy
STALL_CONTROL = "control"                  # branch/jump resolution bubbles
STALL_WAW = "waw"                          # write-after-write ordering
STALL_JOIN = "join"                        # tjoin waiting on another thread
STALL_SWITCH = "thread_switch"             # coarse-grain switch penalty

ALL_STALL_CAUSES = (
    STALL_RAW_SCALAR, STALL_BROADCAST, STALL_REDUCTION,
    STALL_BCAST_REDUCTION, STALL_RAW_PARALLEL, STALL_STRUCTURAL,
    STALL_CONTROL, STALL_WAW, STALL_JOIN, STALL_SWITCH,
)


@dataclass
class Stats:
    """Counters accumulated over one program run."""

    cycles: int = 0
    instructions: int = 0
    scalar_instructions: int = 0
    parallel_instructions: int = 0
    reduction_instructions: int = 0
    issue_slots: int = 0            # cycles * issue_width
    idle_slots: int = 0             # issue slots with no ready instruction
    per_thread_issued: Counter = field(default_factory=Counter)
    # Per-instruction wait attribution: cycles each instruction waited
    # beyond back-to-back issue, keyed by binding cause.
    wait_cycles: Counter = field(default_factory=Counter)
    threads_spawned: int = 0
    reduction_unit_uses: Counter = field(default_factory=Counter)
    # Fault-injection accounting (repro.faults): injections that actually
    # fired during this run, and parity-alarm events raised at PE
    # register read ports.  Zero on a healthy machine.
    faults_injected: int = 0
    fault_alarms: int = 0

    @property
    def ipc(self) -> float:
        """Instructions issued per cycle (the headline utilization metric)."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def utilization(self) -> float:
        """Fraction of issue slots that carried an instruction."""
        return (self.instructions / self.issue_slots
                if self.issue_slots else 0.0)

    @property
    def total_wait_cycles(self) -> int:
        return sum(self.wait_cycles.values())

    def fairness(self) -> float:
        """Jain's fairness index over per-thread issue counts (1.0 = fair)."""
        counts = [c for c in self.per_thread_issued.values() if c]
        if not counts:
            return 1.0
        total = sum(counts)
        return total * total / (len(counts) * sum(c * c for c in counts))

    def render(self) -> str:
        """Human-readable summary table."""
        rows = [
            ("cycles", self.cycles),
            ("instructions", self.instructions),
            ("  scalar", self.scalar_instructions),
            ("  parallel", self.parallel_instructions),
            ("  reduction", self.reduction_instructions),
            ("IPC", round(self.ipc, 4)),
            ("issue-slot utilization", round(self.utilization, 4)),
            ("fairness (Jain)", round(self.fairness(), 4)),
            ("idle issue slots", self.idle_slots),
        ]
        for cause in ALL_STALL_CAUSES:
            if self.wait_cycles.get(cause):
                rows.append((f"wait[{cause}]", self.wait_cycles[cause]))
        if self.faults_injected:
            rows.append(("faults injected", self.faults_injected))
        if self.fault_alarms:
            rows.append(("parity alarms", self.fault_alarms))
        return format_table(("metric", "value"), rows)
