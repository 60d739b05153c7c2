"""The benchmark's three workloads and their correctness checks.

* ``fig11`` — the paper-reproduction path: ``fig11_rodinia(iterations=384)``
  over the 19 Rodinia kernels, called once per kernel row so each row is
  timed and checked on its own.  The 19 rows of one pass are one pass.
* ``serve_zipf`` — an in-process thread-backend ``MesaService`` warmed with
  one request per kernel, then two closed-loop clients drawing Zipf(1.1)
  over the kernels on M-128: in steady state every request hits the cache.
* ``serve_churn`` — the process backend with a 4-entry cache per chip and
  two closed-loop clients drawing uniformly over 19 kernels x {M-128,
  M-512}: most requests translate, map, insert and evict.

Every scenario exposes ``setup()``, ``window(seconds)`` and ``close()``;
``window`` returns one :class:`Window` of measured operations.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

FIG11_ITERATIONS = 384
SERVE_ITERATIONS = 64
CLIENTS = 2
ZIPF_S = 1.1
#: Requests drawn per client; more than a 60 s window can complete.
STREAM_LENGTH = 20_000
#: A reply slower than this counts as a failed request.
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Window:
    """Operations measured over one timed window."""

    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Pass walls (fig11) — a pass is the op whose wall ``wall_s`` reports.
    passes: list[float] = field(default_factory=list)
    #: Per-window layer counters the program reports itself.
    service_delta: object | None = None
    execute_seconds: float = 0.0

    def add(self, other: "Window") -> None:
        self.wall += other.wall
        self.latencies += other.latencies
        self.passes += other.passes
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures[:5 - len(self.failures)]
        self.execute_seconds += other.execute_seconds

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def same(value, expected) -> bool:
    if isinstance(expected, float) or isinstance(value, float):
        return math.isclose(value, expected, rel_tol=1e-9, abs_tol=0.0)
    return value == expected


# ------------------------------------------------------------------ fig11 --

class Fig11:
    name = "fig11"
    expected_layers = ("harness.fig11", "cpu.trace", "cpu.ooo",
                       "mem.hierarchy", "core.execute", "core.detect",
                       "core.translate", "core.map", "core.configure",
                       "accel.engine")
    #: Work counts per pass that must repeat exactly.
    exact_counts = ("cpu.trace.instr", "accel.engine.iterations",
                    "core.map.calls", "mem.hierarchy.builds")
    worker_processes = 0

    def __init__(self, seed: int) -> None:
        # The figure is the paper's fixed experiment: the seed changes
        # nothing in it.
        self.seed = seed
        self.warmup = Window()

    def setup(self) -> None:
        import repro.harness.figures
        from repro.workloads import FIG11_SET

        self.figures = repro.harness.figures
        self.kernels = FIG11_SET
        self.reference = {row["kernel"]: row
                          for row in load_reference()["fig11"]["rows"]}

    def run_pass(self, window: Window) -> None:
        begin = time.perf_counter()
        for name in self.kernels:
            start = time.perf_counter()
            # Looked up per call, so a traced pass sees the wrapper.
            result = self.figures.fig11_rodinia(
                iterations=FIG11_ITERATIONS, kernels=(name,), workers=1)
            window.latencies.append(time.perf_counter() - start)
            window.attempted += 1
            if result.degraded:
                window.fail(f"{name}: degraded {result.degraded}")
            elif not self.row_matches(result.rows):
                window.fail(f"{name}: row differs from the reference")
        window.passes.append(time.perf_counter() - begin)

    def row_matches(self, rows: list[dict]) -> bool:
        if len(rows) != 1:
            return False
        expected = self.reference.get(rows[0]["kernel"])
        return (expected is not None and rows[0].keys() == expected.keys()
                and all(same(rows[0][key], expected[key])
                        for key in expected))

    def window(self, seconds: float) -> Window:
        window = Window()
        begin = time.perf_counter()
        while not window.passes or time.perf_counter() - begin < seconds:
            self.run_pass(window)
        window.wall = time.perf_counter() - begin
        return window

    def close(self) -> None:
        pass


# ---------------------------------------------------------------- service --

class _Serve:
    """Two closed-loop clients against one in-process ``MesaService``."""

    expected_layers = ("service.offload",)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.loop = asyncio.new_event_loop()
        #: Warm-up requests: checked like the timed ones, but not timed.
        self.warmup = Window()

    # Workload shape, fixed by each subclass.
    execution = "thread"
    workers = 2
    cache_capacity = 64
    chips: tuple[str, ...] = ("M-128",)
    warm = False

    @property
    def worker_processes(self) -> int:
        return self.workers if self.execution == "process" else 0

    def setup(self) -> None:
        from repro.service import ControllerPool, MesaService, OffloadRequest
        from repro.workloads import FIG11_SET

        self.kernels = FIG11_SET
        self.reference = load_reference()["service"]
        base = {(kernel, chip): OffloadRequest.for_kernel(
                    kernel, iterations=SERVE_ITERATIONS, config=chip)
                for chip in self.chips for kernel in self.kernels}
        self.requests = [
            {key: dataclasses.replace(request, client=f"client-{client}")
             for key, request in base.items()}
            for client in range(CLIENTS)]
        rng = random.Random(self.seed)
        self.streams = [iter(self.stream(random.Random(rng.getrandbits(64))))
                        for _ in range(CLIENTS)]
        self.service = MesaService(
            pool=ControllerPool(cache_capacity=self.cache_capacity),
            workers=self.workers, execution=self.execution)
        self.loop.run_until_complete(self.service.start())
        if self.warm:
            for kernel in self.kernels:
                request = dataclasses.replace(base[(kernel, "M-128")],
                                              client="warmup")
                self.loop.run_until_complete(
                    self.offload(request, (kernel, "M-128"), self.warmup))

    def stream(self, rng: random.Random) -> list[tuple[str, str]]:
        raise NotImplementedError

    def check(self, key: tuple[str, str], response) -> str | None:
        """Why ``response`` is wrong for ``key``, or None when it is right."""
        if response.status != "completed":
            return f"status {response.status}: {response.reason}"
        outcome = "hit" if response.cache_hit else "miss"
        expected = self.reference.get(f"{key[1]}/{key[0]}/{outcome}")
        if expected is None:
            return f"no reference for a cache {outcome}"
        got = [response.accelerated, response.cache_hit,
               response.total_cycles]
        if not all(same(g, e) for g, e in zip(got, expected)):
            return f"{got} != reference {expected}"
        return None

    async def offload(self, request, key, window: Window) -> None:
        start = time.perf_counter()
        window.attempted += 1
        try:
            response = await asyncio.wait_for(
                self.service.offload(request), REQUEST_TIMEOUT_S)
        except asyncio.TimeoutError:
            window.fail(f"{key}: no reply within {REQUEST_TIMEOUT_S}s")
            return
        window.latencies.append(time.perf_counter() - start)
        window.execute_seconds += response.execute_seconds
        problem = self.check(key, response)
        if problem is not None:
            window.fail(f"{key}: {problem}")

    async def _client(self, client: int, deadline: float,
                      window: Window) -> None:
        requests = self.requests[client]
        while time.perf_counter() < deadline:
            key = next(self.streams[client])
            await self.offload(requests[key], key, window)

    async def _clients(self, deadline: float, window: Window) -> None:
        await asyncio.gather(*(self._client(client, deadline, window)
                               for client in range(CLIENTS)))

    def window(self, seconds: float) -> Window:
        window = Window()
        before = self.service.stats()
        begin = time.perf_counter()
        self.loop.run_until_complete(
            self._clients(begin + seconds, window))
        window.wall = time.perf_counter() - begin
        window.service_delta = self.service.stats() - before
        return window

    def close(self) -> None:
        self.loop.run_until_complete(self.service.close())
        self.loop.close()


class ServeZipf(_Serve):
    name = "serve_zipf"
    expected_layers = ("service.offload", "core.execute", "cpu.trace",
                       "cpu.ooo", "mem.hierarchy", "core.detect",
                       "accel.engine")
    warm = True

    def stream(self, rng):
        from repro.service import zipfian_stream

        # List order is popularity rank: the first kernel is the hottest.
        names = zipfian_stream(self.kernels, STREAM_LENGTH, s=ZIPF_S,
                               seed=rng.getrandbits(32))
        return [(name, "M-128") for name in names]


class ServeChurn(_Serve):
    name = "serve_churn"
    execution = "process"
    cache_capacity = 4
    chips = ("M-128", "M-512")

    def stream(self, rng):
        keys = [(kernel, chip) for chip in self.chips
                for kernel in self.kernels]
        return [rng.choice(keys) for _ in range(STREAM_LENGTH)]


SCENARIOS = {scenario.name: scenario
             for scenario in (Fig11, ServeZipf, ServeChurn)}
