#!/usr/bin/env python3
"""The repository benchmark: ``repro run``, the serve tier and ``repro dse``.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload run --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

``--workload`` is one of ``run``, ``serve_warm`` and ``serve_cold``
(see ``workloads.py``).  The run sets the workload up three
times, keeps the last set-up, measures for ``--seconds``, then checks
every output.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The two lines before it carry the run's context (host, code, seed,
``src/`` line count) and every figure measured, by name, raw and scaled.

End-to-end metrics, the same on every workload: ``setup_s`` (the
median of three import times, this process's and two fresh child
processes', plus the median of three set-ups), ``ops_per_s``, the median
and the tail latency of one operation (a request, or a pass of the
``run`` programs and sweeps), and ``peak_rss_mb``.  The
tail is the percentile of the workload's ``tail_pct``: the highest with
ten operations beyond it in a run, p99 for ``serve_warm``; ``run`` has
too few passes for any and reports its median.
Times and rates are scaled to a reference host speed measured
alongside (``probe.SpeedProbe``): each latency, import and set-up by
the speed around it, rates and summed times by the window's speed.
``serve_warm``'s tail latency is left unscaled (``scale_tail``).  The
raw values are in the record line.

With ``--trace 1`` an untraced window is measured first, then the same
workload with every layer wrapped (``spans.py``); per-layer metrics come
from the traced window, workload figures such as ``cycle_instr_per_s``
from the untraced one, and ``trace.overhead`` compares the two.

``--smoke`` runs every workload briefly in child processes and checks
that every metric is emitted with its unit, that no operation fails,
and that a corrupted reference digest is counted as failed operations.
``--write-references`` re-records ``references.json`` from the current
code (only after a change that is meant to alter simulator output).
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3      # set-ups per run; also imports, two in children
WORKLOAD_NAMES = ("run", "serve_warm", "serve_cold")

#: End-to-end metrics, reported by every workload with tracing off.
END_TO_END = [("setup_s", "s"), ("ops_per_s", "op/s"),
              ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
              ("peak_rss_mb", "MB")]

#: Extra per-layer counts, beside ``<layer>.calls/.self_s/.share``.
LAYER_EXTRAS = [
    ("serve.cache.hit_ratio", "ratio"), ("serve.cache.mem_hits", "count"),
    ("serve.cache.disk_hits", "count"), ("serve.cache.puts", "count"),
    ("serve.pool.jobs", "count"), ("serve.pool.pool_tasks", "count"),
    ("serve.pool.inline_tasks", "count"), ("serve.pool.retries", "count"),
    ("serve.net.wait_s", "s"),
    ("core.processor.sim_cycles", "count"),
    ("core.processor.sim_instr", "count"),
    ("dse.points", "count"), ("dse.unfit", "count"),
]

def per_layer_metrics() -> list:
    """Every per-layer metric as ``(name, unit)``.

    After the layers come the workload figures, measured untraced (0 on
    workloads that do not produce them), and the tracing overhead.
    """
    from perfbench.spans import ALL_LAYERS
    from perfbench.workloads import BACKENDS, RUN_PROGRAMS

    out = []
    for layer in ALL_LAYERS + ["other"]:
        if layer != "other":
            out.append((f"{layer}.calls", "count"))
        out += [(f"{layer}.self_s", "s"), (f"{layer}.share", "ratio")]
    programs = [prog for prog, _, _ in RUN_PROGRAMS]
    out += LAYER_EXTRAS
    out += [(f"{b}_instr_per_s", "instr/s") for b in BACKENDS]
    out += [(f"{p}.{b}.host_s", "s") for p in programs for b in BACKENDS]
    out += [(f"{p}.fast_speedup", "x") for p in programs]
    out += [("sweep_s", "s"), ("resweep_s", "s"), ("resweep_ratio", "ratio")]
    return out + [("trace.overhead", "x"), ("host.speed", "x")]


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD's commit read from ``.git``, or "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(len(path.read_text().splitlines())
                    for path in (ROOT / "src").rglob("*.py"))
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": git_commit(),
            "src_lines": src_lines}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def pin_to_one_cpu() -> None:
    """Run the benchmark process on one CPU; its forked workers on all.

    The serve workloads hand every request between the event-loop
    thread and the dispatch thread.  Unpinned, on a shared 2-vCPU VM,
    those cross-CPU wake-ups made serve_warm's throughput vary by 2x
    from run to run; pinned, both threads share one CPU the same way in
    every run.  Pool workers get the full CPU set back, so serve_cold's
    two workers still run in parallel.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    os.register_at_fork(
        after_in_child=lambda: os.sched_setaffinity(0, cpus))


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_tail(values: list, pct: int) -> float:
    """The ``pct``-th percentile, by slices where a run has the room.

    A slice is long enough for ten operations to lie beyond the
    percentile (1,000 for the p99); with two or more slices in a run the
    tail is the median of the slices' percentiles.  One stall of the
    host inflates the p99 of a whole run, and on a shared VM the p99 of
    10,000 serve_warm requests varied by a quarter from run to run; the
    median slice does not move with one stall.
    """
    slices = len(values) // round(10 / (1 - pct / 100))
    if slices < 2:
        return percentile(values, pct)
    size = len(values) // slices
    return statistics.median(
        percentile(values[i * size:(i + 1) * size], pct)
        for i in range(slices))


class LayerExtras:
    """Per-layer counts read from return values and the program's API."""

    def __init__(self, tracer, workload) -> None:
        self.workload = workload
        self.sim_cycles = self.sim_instr = self.pool_jobs = 0
        self.points = self.unfit = self.puts = 0
        self.caches: dict[int, tuple] = {}
        self.registries: list = []
        self.pool_base: list = []
        tracer.on_exit("Processor.run", self._ran)
        tracer.on_exit("run_prepared", self._pooled)
        tracer.on_exit("DseRunner.sweep", self._swept)
        tracer.on_exit("ResultCache.lookup", self._looked_up)
        tracer.on_exit("ResultCache.put", self._put)

    def _ran(self, _args, result, _dt) -> None:
        self.sim_cycles += result.stats.cycles
        self.sim_instr += result.stats.instructions

    def _pooled(self, args, _result, _dt) -> None:
        self.pool_jobs += len(args[0])

    def _swept(self, _args, report, _dt) -> None:
        self.points += len(report.outcomes)
        self.unfit += report.statuses.get("unfit", 0)

    def _looked_up(self, args, _result, _dt) -> None:
        # A cache first seen inside the window was created there.
        cache = args[0]
        if id(cache) not in self.caches:
            self.caches[id(cache)] = (cache, {})

    def _put(self, _args, _result, _dt) -> None:
        self.puts += 1

    @staticmethod
    def _pool_counts(registry) -> tuple:
        snap = registry.snapshot()
        tasks = snap.get("pool_tasks_total", {}).get("series", {})
        retries = snap.get("pool_broken_retries_total", {}).get("value", 0)
        return (tasks.get("path=pool", 0) + tasks.get("path=probe", 0),
                tasks.get("path=serial", 0) + tasks.get("path=fallback", 0),
                retries)

    def start(self) -> None:
        host = getattr(self.workload, "host", None)
        if host is not None:
            self.caches[id(host.cache)] = (host.cache,
                                           host.cache.stats.to_json())
        self.registries = self.workload.registries()
        self.pool_base = [self._pool_counts(r) for r in self.registries]

    def metrics(self) -> dict:
        mem = disk = lookups = 0
        for cache, base in self.caches.values():
            now = cache.stats.to_json()
            delta = {k: now[k] - base.get(k, 0)
                     for k in ("mem_hits", "disk_hits", "misses")}
            mem += delta["mem_hits"]
            disk += delta["disk_hits"]
            lookups += sum(delta.values())
        pool = [0, 0, 0]
        for registry, base in zip(self.registries, self.pool_base):
            for i, (now, then) in enumerate(
                    zip(self._pool_counts(registry), base)):
                pool[i] += now - then
        return {
            "serve.cache.hit_ratio": (mem + disk) / lookups if lookups
            else 0.0,
            "serve.cache.mem_hits": mem, "serve.cache.disk_hits": disk,
            "serve.cache.puts": self.puts,
            "serve.pool.jobs": self.pool_jobs,
            "serve.pool.pool_tasks": pool[0],
            "serve.pool.inline_tasks": pool[1],
            "serve.pool.retries": pool[2],
            "core.processor.sim_cycles": self.sim_cycles,
            "core.processor.sim_instr": self.sim_instr,
            "dse.points": self.points, "dse.unfit": self.unfit,
        }


def at_reference_speed(name: str, value: float, speed: float) -> float:
    """Scale a measured time or rate to the reference host speed."""
    if name.endswith("_per_s"):
        return value / speed
    if name.endswith(("_s", "_ms")):
        return value * speed
    return value


def workload_figures(untraced) -> dict:
    """The untraced window's figures, with the ratios derived from them."""
    from perfbench.workloads import RUN_PROGRAMS

    fig = {name: at_reference_speed(name, value, untraced.speed)
           for name, value in untraced.figures.items()}
    for prog, _, _ in RUN_PROGRAMS:
        cycle, fast = (fig.get(f"{prog}.cycle.host_s"),
                       fig.get(f"{prog}.fast.host_s"))
        if cycle and fast:
            fig[f"{prog}.fast_speedup"] = cycle / fast
    if fig.get("sweep_s"):
        fig["resweep_ratio"] = fig["resweep_s"] / fig["sweep_s"]
    return fig


def traced_metrics(tracer, extras, untraced, traced) -> tuple:
    """Per-layer metrics of the traced window, and whether they tile."""
    from perfbench.spans import LAYERS, NET_LAYER

    calls, self_ns, root_ns = tracer.totals()
    busy = traced.busy_ns
    layer_ns = {layer: self_ns.get(layer, 0) for layer in LAYERS}
    ok = all(ns >= 0 for ns in layer_ns.values())
    fig = traced.figures
    if "serve.net.self_ns" in fig:
        # Serve: the busy time is client connection time.  Each request
        # is its handle_line span plus transport and queueing (serve.net);
        # the rest is the client between requests.
        layer_ns[NET_LAYER] = fig["serve.net.self_ns"]
        calls[NET_LAYER] = traced.attempted
        ok = ok and (root_ns == fig["dispatch.root_ns"]
                     and fig["serve.net.unmatched"] == 0
                     and layer_ns[NET_LAYER] >= 0)
        other = busy - traced.client_ns
    else:
        layer_ns[NET_LAYER] = 0
        other = busy - root_ns
    ok = ok and other >= 0 and sum(layer_ns.values()) + other == busy
    metrics = {}
    seconds = traced.speed / 1e9     # ns -> s at the reference speed
    for layer, ns in layer_ns.items():
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = ns * seconds
        metrics[f"{layer}.share"] = ns / busy
    metrics["other.self_s"] = other * seconds
    metrics["other.share"] = other / busy
    metrics.update(extras.metrics())
    metrics["serve.net.wait_s"] = fig.get("serve.net.wait_ns", 0) * seconds
    figures = workload_figures(untraced)
    for name, _unit in per_layer_metrics():
        metrics.setdefault(name, figures.get(name, 0.0))
    # Per operation, each window at the reference host speed.
    metrics["trace.overhead"] = (
        (traced.busy_ns * traced.speed / traced.attempted)
        / (untraced.busy_ns * untraced.speed / untraced.attempted))
    metrics["host.speed"] = untraced.speed
    return metrics, ok


def measure(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.probe import SpeedProbe

    # Each import and set-up is scaled by the host speed around it, from
    # ticks before and after it; ticks are left out of its time.
    setup_probe = SpeedProbe()
    setup_probe.tick(force=True)
    from perfbench.workloads import WORKLOADS

    imported = time.perf_counter_ns()
    import_ns = imported - int(_T0 * 1e9) - setup_probe.spent_ns
    if args.time_imports:
        print(import_ns)
        return 0
    setup_probe.tick(force=True)
    pin_to_one_cpu()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed,
                                            args.corrupt_reference)
        result, record = run_windows(args, workload,
                                     (imported, import_ns), setup_probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"context": context(args)}, sort_keys=True))
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


def child_import_ns() -> int:
    """The import time of a fresh benchmark process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--time-imports"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return int(proc.stdout)


def run_windows(args, workload, own_import: tuple,
                setup_probe) -> tuple[dict, dict]:
    """Set up, measure, check: (the result line, the full record)."""
    from perfbench.spans import Tracer

    try:
        setups = []
        for rep in range(SETUP_REPS):
            if rep:
                workload.teardown()
            started = time.perf_counter_ns()
            workload.setup()
            ended = time.perf_counter_ns()
            setups.append((ended, ended - started))
            setup_probe.tick(force=True)
        untraced = workload.window(args.seconds)
        rss = peak_rss_mb()
        traced = None
        if args.trace:
            tracer = Tracer()
            extras = LayerExtras(tracer, workload)
            if hasattr(workload, "trace_hooks"):
                workload.trace_hooks(tracer)
            tracer.install()
            try:
                extras.start()
                traced = workload.window(args.seconds, tracer)
            finally:
                tracer.uninstall()
    finally:
        workload.teardown()
    # The other imports run last, so peak_rss_mb leaves them out.
    imports = [own_import]
    for _ in range(SETUP_REPS - 1):
        ns = child_import_ns()
        imports.append((time.perf_counter_ns(), ns))
        setup_probe.tick(force=True)
    windows = [w for w in (untraced, traced) if w is not None]
    attempted = workload.setup_ops() + sum(w.attempted for w in windows)
    failed = workload.check() + sum(w.failed for w in windows)
    lat = untraced.latencies_ns
    raw = {
        "setup_s": (statistics.median(ns for _, ns in imports)
                    + statistics.median(ns for _, ns in setups)) / 1e9,
        "ops_per_s": untraced.attempted / (untraced.wall_ns / 1e9),
        "latency_p50_ms": percentile(lat, 50) / 1e6,
        "latency_tail_ms": latency_tail(lat, workload.tail_pct) / 1e6,
    }
    # Times at the reference host speed (see probe.SpeedProbe):
    # rates by the window's speed, each latency by the speed around it.
    end_to_end = {name: at_reference_speed(name, value, untraced.speed)
                  for name, value in raw.items()}
    end_to_end["setup_s"] = (
        statistics.median(setup_probe.scale(imports))
        + statistics.median(setup_probe.scale(setups))) / 1e9
    end_to_end["latency_p50_ms"] = percentile(untraced.scaled_ns, 50) / 1e6
    end_to_end["latency_tail_ms"] = latency_tail(
        untraced.scaled_ns if workload.scale_tail
        else untraced.latencies_ns, workload.tail_pct) / 1e6
    end_to_end["peak_rss_mb"] = rss
    record = {**end_to_end, "raw": raw, "host_speed": untraced.speed,
              "setup_speed": setup_probe.speed,
              "imports_s": [ns / 1e9 for _, ns in imports],
              "setup_reps_s": [ns / 1e9 for _, ns in setups],
              "ops": untraced.attempted, "tail_pct": workload.tail_pct,
              **workload_figures(untraced)}
    correct = failed == 0
    if traced is None:
        units, values = dict(END_TO_END), end_to_end
    else:
        values, tiled = traced_metrics(tracer, extras, untraced, traced)
        record["traced"] = {"ops": traced.attempted, "tiled": tiled,
                            "busy_s": traced.busy_ns / 1e9,
                            "host_speed": traced.speed}
        correct = correct and tiled
        units = dict(per_layer_metrics())
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    return result, record


# ---------------------------------------------------------------------------
# smoke mode and reference recording
# ---------------------------------------------------------------------------

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _child(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
         *extra], cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            result = _child(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            tag = f"{workload} trace={trace}"
            if got != want[trace]:
                problems.append(f"{tag}: metrics/units differ from "
                                f"BENCHMARK.json")
            problems += [f"{tag}: bad metric name {name!r}" for name in got
                         if not NAME_RE.fullmatch(name)]
            if result["failed"] or not result["correct"]:
                problems.append(f"{tag}: {result['failed']} failed, "
                                f"correct={result['correct']}")
            print(f"smoke: {tag}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    result = _child("run", 0, "--corrupt-reference")
    if not result["failed"] or result["correct"]:
        problems.append("run: a corrupted reference digest was not "
                        "counted as failed")
    print(f"smoke: run with corrupted references: failed "
          f"{result['failed']} of {result['attempted']}")
    for problem in problems:
        print(f"smoke: FAIL {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: failed")
    return 1 if problems else 0


def write_references() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import REFERENCES, record_run_references

    workdir = ROOT / ".perfbench_work" / f"refs-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        refs = {"run": record_run_references(workdir)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="replace every reference digest (smoke test)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--time-imports", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.write_references:
        return write_references()
    if args.workload is None and not args.time_imports:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
