"""Job descriptions for the batch runner and service.

A :class:`Job` names one simulation: a program (inline assembly source,
a ``.s`` file, or a library kernel), a machine configuration, optional
PE local-memory columns, an optional fault to inject, and an optional
cycle limit.  :meth:`Job.prepare` assembles it into a
:class:`PreparedJob` — the canonical ``(key, program, config, lmem)``
tuple everything downstream (cache, pool, service) operates on.

JSON form (one object per job; ``python -m repro batch`` reads a list,
or ``{"jobs": [...]}``)::

    {"name": "sweep-t8", "kernel": "count_matches",
     "config": {"num_pes": 32, "num_threads": 8}}
    {"name": "inline", "source": ".text\\nmain:\\n  halt\\n",
     "lmem": {"0": [1, 2, 3]}, "max_cycles": 100000}
    {"name": "from-file", "file": "examples/asm/assoc_search.s",
     "config": {"word_width": 16}}

``config`` keys are :class:`~repro.core.config.ProcessorConfig` field
names; enum fields take their string values (e.g. ``"mt_mode": "fine"``).
``"sanitize": true`` attaches the vector-clock race sanitizer to the
run; detected races ride back in the snapshot's ``races`` section (and
in the cache key, so sanitized results are cached separately).
``"profile": true`` attaches the cycle profiler the same way; the
attribution rides back in the snapshot's ``profile`` section.
``"verify": true`` demands a *validated schedule*: the worker runs the
static list scheduler, translation-validates its output against the
assembled program (:mod:`repro.analysis.equiv`), executes the scheduled
program only on a proof, and fails the job with the refutation report
otherwise; the proof summary rides back in the snapshot's ``verify``
section.
``"kernel_args"`` passes keyword arguments through to the kernel
builder (e.g. ``{"kernel": "vector_mac", "kernel_args": {"width": 8}}``
builds the kernel on an 8-bit datapath); only valid with ``kernel``.
The design-space sweeper uses this to carry its word-width axis into
kernel programs.  The arguments shape the assembled program and the
inherited config, so they are captured by the content key automatically.
``"backend": "fast"`` executes on the fast-path backend
(:mod:`repro.assoc.fastpath`): functional execution plus compositional
static timing, bit-identical counters at a fraction of the cost.
Incompatible with ``fault``, ``sanitize``, and ``profile`` (all observe
or perturb per-cycle pipeline state); ``verify`` composes fine.
Kernel jobs inherit the kernel's word width and local-memory image, same
as ``repro faultsim`` does.
"""

from __future__ import annotations

import dataclasses
import pathlib
from dataclasses import dataclass, field

from repro.asm.assembler import assemble
from repro.asm.program import Program
from repro.core.config import (
    BranchPolicy,
    DividerKind,
    MTMode,
    MultiplierKind,
    ProcessorConfig,
    SchedulerPolicy,
)
from repro.faults.spec import FaultSpec
from repro.programs.kernels import ALL_KERNEL_BUILDERS
from repro.serve.identity import job_key

_ENUM_FIELDS = {
    "mt_mode": MTMode,
    "scheduler": SchedulerPolicy,
    "branch_policy": BranchPolicy,
    "multiplier": MultiplierKind,
    "divider": DividerKind,
}


class JobError(ValueError):
    """A job description is malformed or names unknown entities."""


def config_from_json(spec: dict | None) -> ProcessorConfig:
    """Build a :class:`ProcessorConfig` from a JSON dict of field values
    (None gives the default configuration)."""
    if spec is not None and not isinstance(spec, dict):
        raise JobError(f"'config' must be an object of ProcessorConfig "
                       f"fields or null, got {type(spec).__name__}")
    spec = dict(spec or {})
    known = {f.name for f in dataclasses.fields(ProcessorConfig)}
    unknown = sorted(set(spec) - known)
    if unknown:
        raise JobError(f"unknown config field(s): {', '.join(unknown)}")
    for name, enum_cls in _ENUM_FIELDS.items():
        if name in spec and isinstance(spec[name], str):
            try:
                spec[name] = enum_cls(spec[name])
            except ValueError as exc:
                raise JobError(str(exc)) from exc
    try:
        return ProcessorConfig(**spec)
    except (TypeError, ValueError) as exc:
        raise JobError(f"bad config: {exc}") from exc


@dataclass
class PreparedJob:
    """A job resolved to the exact computation the pool executes."""

    name: str
    key: str
    program: Program
    config: ProcessorConfig
    lmem: dict = field(default_factory=dict)
    max_cycles: int | None = None
    fault: FaultSpec | None = None
    sanitize: bool = False
    profile: bool = False
    verify: bool = False
    backend: str = "cycle"


@dataclass
class Job:
    """One simulation request (see the module docstring for JSON form)."""

    name: str
    source: str | None = None
    kernel: str | None = None
    kernel_args: dict = field(default_factory=dict)
    config: ProcessorConfig = field(default_factory=ProcessorConfig)
    lmem: dict = field(default_factory=dict)
    max_cycles: int | None = None
    fault: FaultSpec | None = None
    sanitize: bool = False
    profile: bool = False
    verify: bool = False
    backend: str = "cycle"

    def __post_init__(self) -> None:
        if (self.source is None) == (self.kernel is None):
            raise JobError(
                f"job {self.name!r}: exactly one of source/kernel required")
        if self.kernel_args and self.kernel is None:
            raise JobError(
                f"job {self.name!r}: kernel_args requires a kernel job")
        if self.backend not in ("cycle", "fast"):
            raise JobError(
                f"job {self.name!r}: backend must be 'cycle' or 'fast', "
                f"got {self.backend!r}")
        if self.backend == "fast":
            incompatible = [flag for flag, on in (
                ("fault", self.fault is not None),
                ("sanitize", self.sanitize),
                ("profile", self.profile)) if on]
            if incompatible:
                raise JobError(
                    f"job {self.name!r}: backend 'fast' does not support "
                    f"{', '.join(incompatible)} (they observe per-cycle "
                    f"pipeline state the fast path never materializes)")

    @classmethod
    def from_json(cls, obj: dict, base_dir: str | pathlib.Path | None = None,
                  ) -> "Job":
        """Parse one job object; ``file`` paths resolve against base_dir."""
        if not isinstance(obj, dict):
            raise JobError(f"job entry must be an object, got {type(obj).__name__}")
        known = {"name", "source", "file", "kernel", "kernel_args", "config",
                 "lmem", "max_cycles", "fault", "sanitize", "profile",
                 "verify", "backend"}
        unknown = sorted(set(obj) - known)
        if unknown:
            raise JobError(f"unknown job field(s): {', '.join(unknown)}")
        source = obj.get("source")
        if "file" in obj:
            if source is not None:
                raise JobError("give either 'source' or 'file', not both")
            path = pathlib.Path(obj["file"])
            if base_dir is not None and not path.is_absolute():
                path = pathlib.Path(base_dir) / path
            try:
                source = path.read_text()
            except OSError as exc:
                raise JobError(f"cannot read {path}: {exc}") from exc
        lmem = {}
        for col, values in (obj.get("lmem") or {}).items():
            try:
                lmem[int(col)] = [int(v) for v in values]
            except (TypeError, ValueError) as exc:
                raise JobError(f"bad lmem column {col!r}: {exc}") from exc
        fault = None
        if obj.get("fault") is not None:
            try:
                fault = FaultSpec.from_json(obj["fault"])
            except (KeyError, ValueError) as exc:
                raise JobError(f"bad fault spec: {exc}") from exc
        name = obj.get("name") or obj.get("kernel") or obj.get("file") \
            or "inline"
        kernel_args = obj.get("kernel_args") or {}
        if not isinstance(kernel_args, dict):
            raise JobError("'kernel_args' must be an object of keyword "
                           "arguments for the kernel builder")
        max_cycles = obj.get("max_cycles")
        if max_cycles is not None and (type(max_cycles) is not int
                                       or max_cycles < 1):
            raise JobError(f"'max_cycles' must be a positive integer or "
                           f"null, got {max_cycles!r}")
        flags = {}
        for flag in ("sanitize", "profile", "verify"):
            flags[flag] = obj.get(flag, False)
            if type(flags[flag]) is not bool:
                raise JobError(f"'{flag}' must be true or false, got "
                               f"{flags[flag]!r}")
        return cls(name=str(name), source=source, kernel=obj.get("kernel"),
                   kernel_args={str(k): v for k, v in kernel_args.items()},
                   config=config_from_json(obj.get("config")),
                   lmem=lmem, max_cycles=max_cycles, fault=fault,
                   backend=str(obj.get("backend", "cycle")), **flags)

    def prepare(self) -> PreparedJob:
        """Assemble and hash this job into its canonical form."""
        cfg = self.config
        for col, values in self.lmem.items():
            if not 0 <= col < cfg.lmem_words:
                raise JobError(
                    f"job {self.name!r}: lmem column {col} outside local "
                    f"memory (0..{cfg.lmem_words - 1})")
            if len(values) > cfg.num_pes:
                raise JobError(
                    f"job {self.name!r}: lmem column {col} has "
                    f"{len(values)} values for {cfg.num_pes} PEs")
        lmem = dict(self.lmem)
        if self.kernel is not None:
            if self.kernel not in ALL_KERNEL_BUILDERS:
                raise JobError(
                    f"unknown kernel {self.kernel!r}; choose from "
                    f"{', '.join(sorted(ALL_KERNEL_BUILDERS))}")
            try:
                kern = ALL_KERNEL_BUILDERS[self.kernel](
                    cfg.num_pes, **self.kernel_args)
            except TypeError as exc:
                raise JobError(
                    f"job {self.name!r}: bad kernel_args for "
                    f"{self.kernel!r}: {exc}") from exc
            cfg = dataclasses.replace(cfg, word_width=kern.word_width)
            source = kern.source
            for col, values in kern.lmem.items():
                lmem.setdefault(int(col), [int(v) for v in values])
        else:
            source = self.source
        try:
            program = assemble(source, word_width=cfg.word_width)
        except Exception as exc:
            raise JobError(f"job {self.name!r}: assembly failed: {exc}") \
                from exc
        key = job_key(program, cfg, lmem=lmem, fault=self.fault,
                      max_cycles=self.max_cycles, sanitize=self.sanitize,
                      profile=self.profile, verify=self.verify,
                      backend=self.backend)
        return PreparedJob(name=self.name, key=key, program=program,
                           config=cfg, lmem=lmem,
                           max_cycles=self.max_cycles, fault=self.fault,
                           sanitize=self.sanitize, profile=self.profile,
                           verify=self.verify, backend=self.backend)


def jobs_from_json(payload, base_dir=None) -> list[Job]:
    """Parse a jobs document: a list of job objects or ``{"jobs": [...]}``."""
    if isinstance(payload, dict):
        payload = payload.get("jobs")
    if not isinstance(payload, list):
        raise JobError("jobs document must be a list or {'jobs': [...]}")
    if not payload:
        raise JobError("jobs document is empty")
    return [Job.from_json(obj, base_dir=base_dir) for obj in payload]
