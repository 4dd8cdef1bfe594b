"""Processing-element array state, vectorized across PEs.

Section 6.2 of the paper: each PE has a local memory (block-RAM backed,
shared between threads), a general-purpose register file and a flag
register file (both *split* between threads), an ALU, and optional
multiplier/divider units.

Following the HPC-Python guideline of vectorizing the data-parallel axis,
the array is stored structure-of-arrays with the PE index as the last
(contiguous) dimension:

* ``regs``  — int64, shape ``(threads, NUM_PARALLEL_REGS, pes)``;
  unsigned ``W``-bit patterns.
* ``flags`` — bool,  shape ``(threads, NUM_FLAG_REGS, pes)``.
* ``lmem``  — int64, shape ``(pes, lmem_words)``; *not* replicated per
  thread ("The local memory is shared between threads at the hardware
  level", Section 6.2).

``p0`` reads as zero and ``f0`` reads as one in every PE of every thread;
writes to them are ignored, re-asserted by :meth:`PEArray._pin_constants`.
"""

from __future__ import annotations

import numpy as np

from repro.isa import registers
from repro.util import bitops
from repro.util.bitops import mask_for_width


class MemoryFault(RuntimeError):
    """Raised when an active PE accesses local memory out of range."""


class PEArray:
    """Architectural state of the PE array for all hardware threads."""

    def __init__(self, num_pes: int, num_threads: int, word_width: int,
                 lmem_words: int) -> None:
        if num_pes < 1:
            raise ValueError(f"need at least one PE, got {num_pes}")
        if num_threads < 1:
            raise ValueError(f"need at least one thread, got {num_threads}")
        self.num_pes = num_pes
        self.num_threads = num_threads
        self.word_width = word_width
        self.lmem_words = lmem_words
        self.word_mask = mask_for_width(word_width)
        self.regs = np.zeros(
            (num_threads, registers.NUM_PARALLEL_REGS, num_pes),
            dtype=np.int64)
        self.flags = np.zeros(
            (num_threads, registers.NUM_FLAG_REGS, num_pes), dtype=bool)
        self.lmem = np.zeros((num_pes, lmem_words), dtype=np.int64)
        # Fault-tolerance hooks (see repro.faults).  ``fault_mask`` marks
        # PEs whose writes and memory accesses are suppressed (dead or
        # masked-out); ``parity`` is the per-word parity plane updated on
        # every architectural write.  Both stay None on a healthy
        # machine, so the hot path pays only an ``is None`` check.
        self.fault_mask: np.ndarray | None = None
        self.parity: np.ndarray | None = None
        self._pin_constants()
        # True until reset() or a write method runs: the storage is still
        # as allocated, so reset() need not touch (and page in) all of it.
        self._fresh = True

    # -- constants -----------------------------------------------------------

    def _pin_constants(self) -> None:
        self.regs[:, registers.ZERO_REG, :] = 0
        self.flags[:, registers.ALWAYS_FLAG, :] = True

    # -- fault-tolerance hooks -------------------------------------------------

    def _effective(self, mask: np.ndarray) -> np.ndarray:
        """Suppress dead/masked-out PEs from a write or access mask."""
        if self.fault_mask is None:
            return mask
        return mask & self.fault_mask

    def enable_parity(self) -> None:
        """Allocate the register-file parity plane (idempotent).

        Parity is maintained by :meth:`write_reg` and checked on reads by
        the fault-aware executor; a fault injector flipping bits behind
        the write port leaves stored parity stale, which is exactly how
        hardware parity catches single-event upsets.
        """
        if self.parity is None:
            self.parity = bitops.np_parity(self.regs, self.word_width)

    def parity_mismatch(self, thread: int, reg: int) -> np.ndarray:
        """Per-PE parity check of one register row (False when clean)."""
        if self.parity is None:
            return np.zeros(self.num_pes, dtype=bool)
        fresh = bitops.np_parity(self.regs[thread, reg], self.word_width)
        return fresh != self.parity[thread, reg]

    # -- register access -------------------------------------------------------

    def read_reg(self, thread: int, reg: int) -> np.ndarray:
        """Value vector (one element per PE) of parallel register ``reg``."""
        return self.regs[thread, reg]

    def write_reg(self, thread: int, reg: int, values: np.ndarray,
                  mask: np.ndarray) -> None:
        """Masked write: only PEs where ``mask`` is True take the value."""
        self._fresh = False
        if reg == registers.ZERO_REG:
            return
        mask = self._effective(mask)
        row = self.regs[thread, reg]
        wrapped = np.bitwise_and(values.astype(np.int64), self.word_mask)
        np.copyto(row, wrapped, where=mask)
        if self.parity is not None:
            np.copyto(self.parity[thread, reg],
                      bitops.np_parity(wrapped, self.word_width), where=mask)

    def read_flag(self, thread: int, flag: int) -> np.ndarray:
        """Boolean vector (one element per PE) of flag register ``flag``."""
        return self.flags[thread, flag]

    def write_flag(self, thread: int, flag: int, values: np.ndarray,
                   mask: np.ndarray) -> None:
        """Masked flag write."""
        self._fresh = False
        if flag == registers.ALWAYS_FLAG:
            return
        np.copyto(self.flags[thread, flag], values.astype(bool),
                  where=self._effective(mask))

    # -- local memory -----------------------------------------------------------

    def _check_addresses(self, addresses: np.ndarray, mask: np.ndarray,
                         what: str) -> None:
        bad = mask & ((addresses < 0) | (addresses >= self.lmem_words))
        if bad.any():
            pe = int(np.flatnonzero(bad)[0])
            raise MemoryFault(
                f"PE {pe}: {what} address {int(addresses[pe])} out of range "
                f"(local memory has {self.lmem_words} words)")

    def load(self, addresses: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Per-PE local-memory load at per-PE ``addresses`` (masked).

        Inactive PEs return 0 (their result is never written back anyway).
        """
        mask = self._effective(mask)
        self._check_addresses(addresses, mask, "load")
        safe = np.where(mask, addresses, 0)
        values = self.lmem[np.arange(self.num_pes), safe]
        return np.where(mask, values, 0)

    def store(self, addresses: np.ndarray, values: np.ndarray,
              mask: np.ndarray) -> None:
        """Per-PE local-memory store (masked)."""
        self._fresh = False
        mask = self._effective(mask)
        self._check_addresses(addresses, mask, "store")
        pes = np.arange(self.num_pes)[mask]
        self.lmem[pes, addresses[mask]] = (
            values[mask].astype(np.int64) & self.word_mask)

    # -- bulk initialization (used by loaders / examples) ------------------------

    def set_lmem_column(self, word_addr: int, values: np.ndarray) -> None:
        """Write one word per PE at the same local address in every PE."""
        self._fresh = False
        if not 0 <= word_addr < self.lmem_words:
            raise MemoryFault(f"local address {word_addr} out of range")
        vals = np.asarray(values, dtype=np.int64)
        if vals.shape != (self.num_pes,):
            raise ValueError(
                f"expected {self.num_pes} values, got shape {vals.shape}")
        self.lmem[:, word_addr] = vals & self.word_mask

    def get_lmem_column(self, word_addr: int) -> np.ndarray:
        """Read the same local address from every PE."""
        if not 0 <= word_addr < self.lmem_words:
            raise MemoryFault(f"local address {word_addr} out of range")
        return self.lmem[:, word_addr].copy()

    def reset(self) -> None:
        """Zero all architectural state (between program runs).

        The first reset of an array no write method has touched skips
        the fill: ``np.zeros`` left it zeroed, and filling would page in
        every word of a large local memory.  Code that writes ``regs``,
        ``flags`` or ``lmem`` directly must do so after that reset.
        """
        if self._fresh:
            self._fresh = False
        else:
            self.regs.fill(0)
            self.flags.fill(False)
            self.lmem.fill(0)
            self._pin_constants()
        if self.parity is not None:
            self.parity.fill(False)
