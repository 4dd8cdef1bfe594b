"""Host-time spans recorded from outside the program.

:class:`Tracer` wraps the public functions of each layer and patches
every wrapper in at the name its caller looks it up by: a class
attribute for a method, and every ``repro.*`` module attribute bound to
the function for a plain function (``repro.cli`` and
``repro.dse.runner`` import ``assemble``, ``fits`` and ``power_report``
by name).  Nothing under ``src/`` changes.

Each wrapped call is a span.  Its self time is its duration minus the
time of the wrapped calls it made, so on one thread the self times of
all layers add up to the summed duration of that thread's outermost
spans, in whole nanoseconds.  Spans are kept per thread; a forked pool
worker stops recording, and its time stays inside the parent's
``serve.pool`` span.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time
import types

#: Layer name -> the public callables it is made of, as
#: ``(module, qualified name)``.  ``"*"`` takes every public function
#: defined in the module; a name in ``TABLES`` is a dict of callables
#: (or of tuples led by one) that callers dispatch through.
LAYERS = {
    "asm": [("repro.asm.assembler", "assemble")],
    "programs.kernels": [("repro.programs.kernels", "ALL_KERNEL_BUILDERS")],
    "serve.identity": [("repro.serve.identity", "job_key")],
    "serve.jobs": [("repro.serve.jobs", "Job.from_json"),
                   ("repro.serve.jobs", "Job.prepare")],
    "serve.cache": [("repro.serve.cache", "ResultCache.lookup"),
                    ("repro.serve.cache", "ResultCache.put")],
    "serve.pool": [("repro.serve.pool", "run_prepared")],
    "serve.snapshot": [("repro.serve.snapshot", "ResultSnapshot.from_result"),
                       ("repro.serve.snapshot", "ResultSnapshot.to_json"),
                       ("repro.serve.snapshot", "pack_snapshot"),
                       ("repro.serve.snapshot", "unpack_snapshot")],
    "serve.batch": [("repro.serve.batch", "BatchRunner.run")],
    "serve.dispatch": [("repro.serve.dispatch", "Dispatcher.handle_line")],
    "core.processor": [("repro.core.processor", "Processor.run")],
    "core.execute": [("repro.core.execute", "Executor.execute")],
    "pe": [("repro.pe.pe_array", f"PEArray.{name}") for name in (
        "read_reg", "write_reg", "read_flag", "write_flag", "load", "store",
        "set_lmem_column", "get_lmem_column")],
    "network": [("repro.network.reduction", "*"),
                ("repro.network.reduction", "REDUCTION_FNS")],
    "assoc.fastpath": [("repro.assoc.fastpath", "FastMachine.run")],
    "analysis.timing": [("repro.analysis.timing", "TimingAnalysis.fold"),
                        ("repro.analysis.timing",
                         "TimingAnalysis.block_summary")],
    "dse": [("repro.dse.runner", "DseRunner.sweep"),
            ("repro.dse.spec", "SweepSpec.from_json"),
            ("repro.dse.pareto", "pareto_frontier")],
    "fpga": [("repro.fpga.fitter", "fits"), ("repro.fpga.power",
                                              "power_report")],
}

TABLES = ("ALL_KERNEL_BUILDERS", "REDUCTION_FNS")

#: ``serve.net`` is not a wrapped call: it is the client-observed
#: latency of a request minus the ``handle_line`` span that served it.
NET_LAYER = "serve.net"
ALL_LAYERS = list(LAYERS) + [NET_LAYER]


class _ThreadSpans:
    """One thread's open-span stack and per-layer totals (nanoseconds)."""

    def __init__(self) -> None:
        self.stack: list[int] = []     # child time of each open span
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.root_ns = 0


class Tracer:
    """Installs the layer wrappers and accumulates their spans.

    ``on_exit`` hooks (layer extras) receive ``(args, result, dt_ns)``
    after a wrapped call returns; they run on the calling thread.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._undo: list = []
        self._hooks: dict[str, object] = {}
        self.active = False
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.active = False

    # -- recording -------------------------------------------------------------

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans()
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
        return spans

    def _wrap(self, layer: str, name: str, fn):
        hook = self._hooks.get(name)
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            spans = self._spans()
            stack = spans.stack
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    spans.root_ns += dt
                spans.calls[layer] = spans.calls.get(layer, 0) + 1
                spans.self_ns[layer] = spans.self_ns.get(layer, 0) + dt - child
            if hook is not None:
                hook(args, result, dt)
            return result

        span.__wrapped__ = fn
        return span

    def on_exit(self, qualname: str, hook) -> None:
        """Call ``hook(args, result, dt_ns)`` after each ``qualname`` call."""
        self._hooks[qualname] = hook

    def totals(self) -> tuple[dict, dict, int]:
        """``(calls, self_ns, root_ns)`` summed over threads."""
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        root = 0
        with self._lock:
            for spans in self._threads:
                for layer, n in spans.calls.items():
                    calls[layer] = calls.get(layer, 0) + n
                for layer, ns in spans.self_ns.items():
                    self_ns[layer] = self_ns.get(layer, 0) + ns
                root += spans.root_ns
        return calls, self_ns, root

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        """Patch every layer's wrappers in and start recording."""
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                module = importlib.import_module(module_name)
                if qualname == "*":
                    for name, fn in list(vars(module).items()):
                        if (isinstance(fn, types.FunctionType)
                                and not name.startswith("_")
                                and fn.__module__ == module_name):
                            self._patch_function(layer, name, fn)
                elif qualname in TABLES:
                    self._patch_table(layer, getattr(module, qualname))
                elif "." in qualname:
                    cls_name, attr = qualname.split(".")
                    self._patch_method(layer, qualname,
                                       getattr(module, cls_name), attr)
                else:
                    self._patch_function(layer, qualname,
                                         getattr(module, qualname))
        self.active = True

    def watch(self, cls, attr: str, hook) -> None:
        """Call ``hook(args, result)`` after each ``cls.attr`` call.

        A watch records no span; it timestamps events inside a layer
        (the serve workloads time the DRR queue with it).
        """
        raw = cls.__dict__[attr]

        def watched(*args, **kwargs):
            result = raw(*args, **kwargs)
            if self.active:
                hook(args, result)
            return result

        setattr(cls, attr, watched)
        self._undo.append((lambda name, value, cls=cls:
                           setattr(cls, name, value), attr, raw))

    def uninstall(self) -> None:
        """Restore every patched name."""
        self.active = False
        for setter, name, original in reversed(self._undo):
            setter(name, original)
        self._undo.clear()

    def _patch_method(self, layer: str, qualname: str, cls, attr: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(layer, qualname, raw.__func__))
        else:
            wrapped = self._wrap(layer, qualname, raw)
        setattr(cls, attr, wrapped)
        self._undo.append((lambda name, value, cls=cls:
                           setattr(cls, name, value), attr, raw))

    def _patch_table(self, layer: str, table: dict) -> None:
        for name, entry in list(table.items()):
            if isinstance(entry, tuple):
                patched = (self._wrap(layer, name, entry[0]),) + entry[1:]
            else:
                patched = self._wrap(layer, name, entry)
            table[name] = patched
            self._undo.append((table.__setitem__, name, entry))

    def _patch_function(self, layer: str, name: str, fn) -> None:
        wrapper = self._wrap(layer, name, fn)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((lambda a, v, m=module:
                                       setattr(m, a, v), attr, fn))
