"""The three benchmark workloads.

Each workload has a set-up that can be repeated (``setup``/``teardown``),
a timed window (``window``) and a correctness check that runs after the
window closes (``check``).  An operation is one round of the workload's
input set: one pass of the four programs on both backends followed by a
``repro dse`` sweep and its warm re-sweep (``run``), or one request
(``serve_warm``, ``serve_cold``).  Rounds keep the per-operation
latency a steady statistic where the inputs differ in size.

``run`` inputs are fixed, so its outputs are checked against the
digests committed in ``references.json``.  Serve replies
are checked against an in-process cycle-core run of the same job with
no cache.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import io
import json
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import inputs
from perfbench.probe import ALL_CPUS, SpeedProbe

import repro.cli
from repro.obs import DEFAULT_REGISTRY
from repro.obs.metrics import MetricsRegistry
from repro.programs.kernels import reduction_storm
from repro.serve import BatchRunner, Dispatcher, Job, ResultCache
from repro.serve.batch import JobResult
from repro.serve.net import NetServer, deterministic_projection
from repro.serve.net.tenancy import DeficitRoundRobin
from repro.serve.pool import execute_prepared

REFERENCES = Path(__file__).with_name("references.json")


def digest(payload) -> str:
    """SHA-256 of a JSON value in canonical form."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def call_cli(argv: list[str]) -> tuple[int, str, int]:
    """Run ``repro <argv>`` in-process: (exit code, stdout, nanoseconds)."""
    out = io.StringIO()
    start = time.perf_counter_ns()
    with contextlib.redirect_stdout(out):
        code = repro.cli.main(argv)
    return code, out.getvalue(), time.perf_counter_ns() - start


@dataclass
class Window:
    """What one timed window measured.

    ``latencies_ns`` are in completion order; ``scaled_ns`` holds the
    same latencies, each multiplied by the host speed the probe measured
    around that operation (``SpeedProbe.around``).  ``busy_ns`` is the
    time the window's spans must tile: the window's wall time, or for
    serve workloads the summed loop time of every client connection.
    ``client_ns`` is the part of it spent waiting for replies (serve
    only).
    """

    latencies_ns: list = field(default_factory=list)
    scaled_ns: list = field(default_factory=list)
    failed: int = 0
    wall_ns: int = 0
    busy_ns: int = 0
    client_ns: int = 0
    speed: float = 1.0      # SpeedProbe.speed over the whole window
    figures: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)


class Workload:
    """Base: a scratch directory and a reference table."""

    name = ""
    #: The tail latency's percentile: the highest with at least ten
    #: operations beyond it in a 25-second run.
    tail_pct = 99
    #: Whether the tail latency is scaled to the reference host speed.
    scale_tail = True

    def __init__(self, workdir: Path, seed: int, corrupt: bool) -> None:
        self.workdir = workdir
        self.seed = seed
        refs = (json.loads(REFERENCES.read_text()).get(self.name, {})
                if REFERENCES.exists() else {})
        self.references = {k: ("0" * 64 if corrupt else v)
                           for k, v in refs.items()}

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def window(self, seconds: float, tracer=None) -> Window:
        raise NotImplementedError

    def check(self) -> int:
        """Failed operations found after the windows closed."""
        return 0

    def setup_ops(self) -> int:
        """Operations set-up performed whose outputs ``check`` covers."""
        return 0

    def registries(self) -> list:
        """Metrics registries whose pool counters the trace reads."""
        return [DEFAULT_REGISTRY]


# ---------------------------------------------------------------------------
# run: `repro run --json` on four programs, both backends; `repro dse`
# ---------------------------------------------------------------------------

#: (program, file, machine arguments).  Each isolates one cost of the
#: cycle core: scoreboard bookkeeping, the walk over idle contexts, the
#: numpy datapath plus reduction network, multithreaded issue.
RUN_PROGRAMS = (
    ("scalar_heavy", "scalar_heavy.s",
     ["--pes", "16", "--threads", "1", "--width", "16"]),
    ("scalar_idle16", "scalar_heavy.s", []),
    ("mixed_4096", "mixed_4096.s",
     ["--pes", "4096", "--threads", "1", "--width", "16"]),
    ("storm_mt", "storm_mt.s",
     ["--pes", "64", "--threads", "8", "--width", "16"]),
)
BACKENDS = ("cycle", "fast")


def run_sources() -> dict:
    return {
        "scalar_heavy.s": inputs.SCALAR_HEAVY,
        "mixed_4096.s": inputs.MIXED_2000,
        "storm_mt.s": reduction_storm(64, total_iters=4096,
                                      threads=8).source,
        "warmup.s": inputs.WARMUP,
    }


def run_output_digest(stdout: str) -> str:
    """Digest of a ``run --json`` payload minus its input path."""
    payload = json.loads(stdout)
    payload.pop("file", None)
    return digest(payload)


class RunWorkload(Workload):
    """Passes of the four programs on both backends, then a sweep pair.

    Each pass ends with ``repro dse`` on the example sweep, cold into a
    fresh cache directory, then the warm re-sweep served from its disk
    tier by a fresh runner.  The pair is this workload's only use of the
    ``dse``, ``fpga`` and ``serve.*`` layers, about 3% of a pass.  Run
    as a workload of its own, the pairs' median spread by 0.10 to 0.18
    of itself from run to run (five sets of 5 to 10 runs), and by up to
    0.37 unscaled: the sweeps write, read and delete files in the
    kernel, which the host-speed probe does not follow.
    """

    name = "run"
    # Three to five passes leave no percentile with ten beyond it; the
    # median stands in for the tail.
    tail_pct = 50

    def setup(self) -> None:
        for fname, text in run_sources().items():
            (self.workdir / fname).write_text(text)
        self.spec = self.workdir / "dse_sweep.json"
        self.spec.write_text(json.dumps(inputs.DSE_SPEC, indent=2))
        for backend in BACKENDS:
            code, _, _ = call_cli(["run", str(self.workdir / "warmup.s"),
                                   "--json", "--backend", backend])
            if code != 0:
                raise RuntimeError(f"warm-up run failed on {backend}")
        code, _ = dse_sweep(self.spec, self.workdir / "dse_warmup_cache")
        if code != 0:
            raise RuntimeError("warm-up sweep failed")

    def window(self, seconds: float, tracer=None) -> Window:
        win = Window()
        host: dict[str, list[int]] = {}
        instr = {backend: 0 for backend in BACKENDS}
        host_total = {backend: 0 for backend in BACKENDS}
        sweeps: dict[str, list[int]] = {"sweep_s": [], "resweep_s": []}
        probe = SpeedProbe()
        passes = []
        start = time.perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        while True:
            probe.tick(force=True)
            pass_ns = 0
            ok = True
            for prog, fname, machine in RUN_PROGRAMS:
                for backend in BACKENDS:
                    probe.tick()
                    code, out, ns = call_cli(
                        ["run", str(self.workdir / fname), "--json",
                         "--backend", backend] + machine)
                    pass_ns += ns
                    key = f"{prog}.{backend}"
                    host.setdefault(key, []).append(ns)
                    if code == 0 and run_output_digest(
                            out) == self.references.get(key):
                        instr[backend] += json.loads(
                            out)["stats"]["instructions"]
                        host_total[backend] += ns
                    else:
                        ok = False
            probe.tick()
            cache = self.workdir / f"dse_cache_{len(passes)}"
            for figure in sweeps:
                code, out, ns = call_cli(["dse", str(self.spec), "--json",
                                          "--cache-dir", str(cache)])
                pass_ns += ns
                sweeps[figure].append(ns)
                ok = ok and code == 0 and digest(
                    json.loads(out)) == self.references.get("dse.sweep")
            shutil.rmtree(cache, ignore_errors=True)
            win.latencies_ns.append(pass_ns)
            passes.append((time.perf_counter_ns(), pass_ns))
            win.failed += not ok
            if time.perf_counter_ns() >= deadline:
                break
        probe.tick(force=True)
        win.wall_ns = win.busy_ns = (time.perf_counter_ns() - start
                                     - probe.spent_ns)
        win.speed = probe.speed
        win.scaled_ns = probe.scale(passes)
        for backend in BACKENDS:
            if host_total[backend]:
                win.figures[f"{backend}_instr_per_s"] = (
                    instr[backend] * 1e9 / host_total[backend])
        for key, samples in host.items():
            win.figures[f"{key}.host_s"] = _median(samples) / 1e9
        for figure, samples in sweeps.items():
            win.figures[figure] = _median(samples) / 1e9
        return win


def dse_sweep(spec: Path, cache: Path) -> tuple[int, str]:
    """One cold ``repro dse --json`` sweep into a cache it then deletes."""
    try:
        code, out, _ = call_cli(["dse", str(spec), "--json",
                                 "--cache-dir", str(cache)])
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return code, out


def record_run_references(workdir: Path) -> dict:
    """Digests of every (program, backend) output and of the sweep."""
    wl = RunWorkload(workdir, seed=0, corrupt=False)
    wl.setup()
    refs = {}
    for prog, fname, machine in RUN_PROGRAMS:
        for backend in BACKENDS:
            code, out, _ = call_cli(["run", str(workdir / fname), "--json",
                                     "--backend", backend] + machine)
            if code != 0:
                raise RuntimeError(f"{prog} on {backend} exited {code}")
            refs[f"{prog}.{backend}"] = run_output_digest(out)
    code, out = dse_sweep(wl.spec, workdir / "dse_ref_cache")
    if code != 0:
        raise RuntimeError(f"dse exited {code}")
    refs["dse.sweep"] = digest(json.loads(out))
    return refs


# ---------------------------------------------------------------------------
# serve_warm / serve_cold: NetServer + Dispatcher + BatchRunner(jobs=2)
# ---------------------------------------------------------------------------

class ServerHost:
    """A NetServer on its own event-loop thread, with a fresh disk cache."""

    def __init__(self, cache_dir: Path, jobs: int = 2) -> None:
        self.registry = MetricsRegistry()
        self.cache = ResultCache(cache_dir=cache_dir, registry=self.registry)
        self.dispatcher = Dispatcher(runner=BatchRunner(
            cache=self.cache, jobs=jobs, registry=self.registry))
        self.loop = asyncio.new_event_loop()
        self.server = NetServer(self.dispatcher)
        self.address = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._serve,
                                        name="perfbench-server")
        self._thread.start()
        if not self._ready.wait(30) or self.address is None:
            raise RuntimeError("server did not start")

    def _serve(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.address = self.loop.run_until_complete(self.server.start())
            self._ready.set()
            self.loop.run_until_complete(self.server.serve_until_drained())
        finally:
            self._ready.set()
            self.loop.close()

    def call(self, coro):
        """Run ``coro`` on the server's event loop; return its result."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result()

    def close(self) -> None:
        if self._thread.is_alive():
            self.loop.call_soon_threadsafe(self.server.begin_drain)
            self._thread.join(60)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not stop")


class Client:
    """One JSON-lines connection, driven on the server's event loop."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, address) -> "Client":
        return cls(*await asyncio.open_connection(*address))

    async def call(self, line: str) -> tuple[bytes, int]:
        """Send one request line; (reply line, nanoseconds)."""
        data = line.encode() + b"\n"
        start = time.perf_counter_ns()
        self.writer.write(data)
        await self.writer.drain()
        reply = await self.reader.readline()
        return reply, time.perf_counter_ns() - start

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


class _Expected:
    """Expected replies from in-process cycle-core runs, no cache."""

    def __init__(self) -> None:
        self._results: dict[str, dict | None] = {}

    def job_result(self, obj: dict) -> dict | None:
        text = json.dumps(obj, sort_keys=True)
        if text not in self._results:
            key = Job.from_json(obj).prepare().key
            outcome = execute_prepared(
                Job.from_json({**obj, "backend": "cycle"}).prepare())
            self._results[text] = (JobResult(
                obj["name"], key, "ok", "computed",
                snapshot=outcome.snapshot).to_json()
                if outcome.ok else None)
        return self._results[text]

    def matches(self, line: str, reply: bytes) -> bool:
        request = json.loads(line)
        try:
            got = json.loads(reply)
        except ValueError:
            return False
        if request["op"] == "run":
            result = self.job_result(request["job"])
            if result is None:
                return False
            want = {"ok": True, **result}
        else:
            results = [self.job_result(obj) for obj in request["jobs"]]
            if None in results:
                return False
            want = {"ok": True, "results": results}
        want["id"] = request["id"]
        return deterministic_projection(got) == deterministic_projection(
            want)


class ServeWorkload(Workload):
    """Shared machinery; subclasses choose clients and request lines."""

    connections = 1
    probe_cpus = None       # see SpeedProbe

    def __init__(self, workdir: Path, seed: int, corrupt: bool) -> None:
        super().__init__(workdir, seed, corrupt)
        self.host: ServerHost | None = None
        self.clients: list[Client] = []
        self.records: list[tuple[str, bytes]] = []
        self.warm_records: list[tuple[str, bytes]] = []
        self.expected = _Expected()
        self.line_ns: dict[str, int] = {}
        self.queue_wait_ns = 0
        self._pushed: dict[int, int] = {}
        self._setups = 0

    def registries(self) -> list:
        return [self.host.registry]

    def setup_ops(self) -> int:
        return len(self.warm_records)

    def setup(self) -> None:
        self._setups += 1
        cache_dir = self.workdir / f"serve_cache_{self._setups}"
        self.host = ServerHost(cache_dir)

        async def connect():
            return [await Client.connect(self.host.address)
                    for _ in range(self.connections)]

        self.clients = self.host.call(connect())
        self.host.call(self.warm_up())

    def teardown(self) -> None:
        if self.host is not None:
            for client in self.clients:
                self.host.call(client.close())
            self.clients = []
            self.host.close()
            shutil.rmtree(self.host.cache.cache_dir, ignore_errors=True)
            self.host = None

    async def warm_up(self) -> None:
        raise NotImplementedError

    def next_line(self, conn: int) -> str:
        raise NotImplementedError

    def trace_hooks(self, tracer) -> None:
        """Time ``handle_line`` per request and the DRR queue wait."""
        def handled(args, _result, dt):
            self.line_ns[args[1].strip()] = dt

        def pushed(args, _result):
            self._pushed[id(args[2])] = time.perf_counter_ns()

        def taken(_args, result):
            if result is not None:
                start = self._pushed.pop(id(result[1]), None)
                if start is not None:
                    self.queue_wait_ns += time.perf_counter_ns() - start

        tracer.on_exit("Dispatcher.handle_line", handled)
        tracer.watch(DeficitRoundRobin, "push", pushed)
        tracer.watch(DeficitRoundRobin, "take", taken)

    def window(self, seconds: float, tracer=None) -> Window:
        win = Window()
        self.line_ns.clear()
        self.queue_wait_ns = 0
        done: list[tuple[str, bytes, int, int]] = []  # completion order
        walls = [0] * len(self.clients)
        probe = SpeedProbe(self.probe_cpus)
        start = time.perf_counter_ns()
        deadline = start + int(seconds * 1e9)

        async def loop(conn: int, until: int) -> None:
            began = time.perf_counter_ns()
            client = self.clients[conn]
            while time.perf_counter_ns() < until:
                line = self.next_line(conn)
                reply, ns = await client.call(line)
                done.append((line, reply, ns, time.perf_counter_ns()))
                if not reply:
                    break
            walls[conn] += time.perf_counter_ns() - began

        async def closed_loop(until: int) -> None:
            await asyncio.gather(*(loop(c, until)
                                   for c in range(len(self.clients))))

        # The probe runs between half-second slices, while no request
        # is in flight, so it never competes with the server.
        while time.perf_counter_ns() < deadline:
            probe.tick(force=True)
            self.host.call(closed_loop(
                min(deadline, time.perf_counter_ns() + probe.EVERY_NS)))
        probe.tick(force=True)
        win.wall_ns = time.perf_counter_ns() - start - probe.spent_ns
        win.busy_ns = sum(walls)
        win.speed = probe.speed
        for line, reply, ns, _end in done:
            win.latencies_ns.append(ns)
            win.client_ns += ns
            self.records.append((line, reply))
        win.scaled_ns = probe.scale([(end, ns) for _, _, ns, end in done])
        if tracer is not None:
            handled = [self.line_ns.get(line) for line, _, _, _ in done]
            win.figures["serve.net.self_ns"] = sum(
                ns - h for (_, _, ns, _), h in zip(done, handled)
                if h is not None)
            win.figures["serve.net.wait_ns"] = self.queue_wait_ns
            win.figures["serve.net.unmatched"] = handled.count(None)
            win.figures["dispatch.root_ns"] = sum(
                h for h in handled if h is not None)
        return win

    def check(self) -> int:
        return sum(not self.expected.matches(line, reply)
                   for line, reply in self.warm_records + self.records)


#: serve_warm's hot set: 6 library kernels x 2 PE counts.
HOT_KERNELS = ("count_matches", "histogram", "vector_mac", "string_match",
               "knn_search", "image_threshold")
HOT_PES = (16, 64)


class ServeWarmWorkload(ServeWorkload):
    name = "serve_warm"
    # Its tail is a stall of the host, not slower code: scaled by the
    # host's speed, its p99 spread three times as much from run to run
    # (0.22 against 0.07 of the median, 5 runs).  serve_cold's tail is
    # batches queued behind other jobs, which do follow the host's speed.
    scale_tail = False

    def __init__(self, workdir: Path, seed: int, corrupt: bool) -> None:
        super().__init__(workdir, seed, corrupt)
        self.hot = [{"name": f"{kernel}-p{pes}", "kernel": kernel,
                     "config": {"num_pes": pes, "num_threads": 8}}
                    for kernel in HOT_KERNELS for pes in HOT_PES]
        self.rng = random.Random(seed)
        self.ids = 0

    def line_for(self, job: dict) -> str:
        self.ids += 1
        return json.dumps({"op": "run", "id": self.ids, "job": job},
                          sort_keys=True)

    async def warm_up(self) -> None:
        for job in self.hot:
            line = self.line_for(job)
            reply, _ = await self.clients[0].call(line)
            self.warm_records.append((line, reply))

    def next_line(self, conn: int) -> str:
        return self.line_for(self.hot[self.rng.randrange(len(self.hot))])


#: Library kernels whose builder takes a ``seed``; serve_cold draws a
#: fresh seed for every job so every key is new.
SEEDED_KERNELS = ("vector_mac", "assoc_max_extract", "count_matches",
                  "string_match", "image_threshold", "database_query",
                  "histogram", "knn_search", "skyline_2d", "multiword_add")
COLD_PES = (16, 32, 64)
BATCH_EVERY = 4
BATCH_JOBS = 4


class ServeColdWorkload(ServeWorkload):
    name = "serve_cold"
    connections = 2
    # Jobs run in the pool's workers, on any CPU.
    probe_cpus = ALL_CPUS
    tail_pct = 98       # 700 to 1,200 requests

    def __init__(self, workdir: Path, seed: int, corrupt: bool) -> None:
        super().__init__(workdir, seed, corrupt)
        self.rngs = [random.Random(f"{seed}/{conn}")
                     for conn in range(self.connections)]
        self.sent = [0] * self.connections
        # Disjoint kernel-seed ranges per connection and for warm-up,
        # so no two jobs in a run share a key.
        self.next_seed = [(conn + 1) * 10_000_000
                          for conn in range(self.connections)]
        self.warm_seed = 0

    def job(self, rng: random.Random, kseed: int) -> dict:
        kernel = rng.choice(SEEDED_KERNELS)
        pes = rng.choice(COLD_PES)
        backend = rng.choice(("cycle", "fast"))
        return {"name": f"{kernel}-s{kseed}-p{pes}-{backend}",
                "kernel": kernel, "kernel_args": {"seed": kseed},
                "config": {"num_pes": pes, "num_threads": 8},
                "backend": backend}

    def request(self, rng: random.Random, n: int, seeds) -> str:
        rid = f"{seeds[0]}"
        if n % BATCH_EVERY == BATCH_EVERY - 1:
            jobs = [self.job(rng, seed) for seed in seeds[:BATCH_JOBS]]
            obj = {"op": "batch", "id": rid, "jobs": jobs}
        else:
            obj = {"op": "run", "id": rid, "job": self.job(rng, seeds[0])}
        return json.dumps(obj, sort_keys=True)

    async def warm_up(self) -> None:
        rng = random.Random(f"{self.seed}/warm-up")
        for client in self.clients:
            for n in (0, BATCH_EVERY - 1):
                seeds = range(self.warm_seed, self.warm_seed + BATCH_JOBS)
                self.warm_seed += BATCH_JOBS
                line = self.request(rng, n, seeds)
                reply, _ = await client.call(line)
                self.warm_records.append((line, reply))

    def next_line(self, conn: int) -> str:
        base = self.next_seed[conn]
        self.next_seed[conn] += BATCH_JOBS
        line = self.request(self.rngs[conn], self.sent[conn],
                            range(base, base + BATCH_JOBS))
        self.sent[conn] += 1
        return line


WORKLOADS = {
    "run": RunWorkload,
    "serve_warm": ServeWarmWorkload,
    "serve_cold": ServeColdWorkload,
}


def _median(values: list) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2
