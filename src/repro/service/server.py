"""MESA-as-a-service: a long-lived asyncio offload server.

One deployed chip amortizes configuration cost across *every* request it
ever serves, not just across the iterations of one run — that is the
paper's Table 2 / Fig. 16 story at system scale.  :class:`MesaService`
models that deployment:

* a **controller pool** (:class:`ControllerPool`) holds one
  :class:`~repro.core.controller.MesaController` per chip (backend
  config), so every request targeting the same backend shares one
  configuration cache — by default LRU-managed and content-digest-indexed,
  the deployment knobs of :class:`~repro.core.configure.ConfigCache`;
* a **bounded job queue with admission control**: a request is rejected
  *with a reason* when the queue is full or its client already has its
  quota in flight (per-client fairness — one chatty client cannot starve
  the queue), never silently dropped;
* **request coalescing** generalizes ``MesaSystem``'s two-wave trick to a
  stream: a request whose region is identical (same content digest, same
  backend) to one currently being configured waits for that *leader*
  instead of starting a duplicate translation, then executes against the
  freshly warmed cache — N identical in-flight regions cost one
  translation, one miss, N−1 hits;
* a **metrics surface**: monotonic counters plus log-bucketed latency
  histograms (queue wait, execute wall split cold/warm by cache outcome,
  per-pipeline-phase seconds), snapshot via :meth:`MesaService.stats`
  and subtractable for interval reporting
  (:class:`~repro.service.metrics.ServiceStats`).

Two execution backends drive the simulations:

* ``execution="thread"`` — ``MesaController.execute`` on a
  ``ThreadPoolExecutor`` (thread-safe: locked cache, thread-local phase
  accumulator).  Simple, shares one cache, capped at ~1 core by the GIL.
* ``execution="process"`` — a supervised
  :class:`~repro.service.procpool.ProcessWorkerPool`: N worker
  *processes*, per-request deadlines, crash isolation (a dying worker
  degrades only its own request and is replaced in place), sticky
  region→worker affinity, and checkpoint-record seeding so replacement
  workers rejoin warm.

Fault tolerance on top of either backend:

* **per-request deadlines** — ``offload(..., timeout_s=...)``; a request
  that expires while still queued resolves ``status="timeout"`` without
  ever occupying a worker, one that expires mid-execution is killed (a
  process worker) or detached (a thread);
* **circuit breaking** — a (config, region) key whose requests keep
  failing is served a structured ``status="degraded"`` CPU-baseline
  response instead of burning workers, with half-open probing to close
  the circuit once the region recovers;
* **idempotent dedupe** — a resubmission carrying the same
  ``idempotency_key`` (the client library keys them by region digest)
  attaches to the original in-flight request or replays its completed
  response — a retry after a dropped connection never double-executes;
* **checkpointing** — configured regions persist to a versioned snapshot
  (:mod:`repro.service.checkpoint`) on interval and at shutdown, and are
  warm-restored at boot, so a restart keeps the cache's hit rate.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from threading import Lock
from typing import Any, Callable

from ..accel import mesa_config
from ..core import CacheStats, MesaController, MesaOptions, region_digest
from ..cpu import CpuConfig
from ..isa import MachineState, Program
from .checkpoint import RegionStore, load_snapshot, save_snapshot
from .metrics import LatencyHistogram, ServiceStats
from .procpool import (
    CircuitBreaker,
    PoolBroken,
    ProcessWorkerPool,
    WorkerCrash,
    WorkerTaskError,
    WorkerTimeout,
    cpu_baseline_summary,
    result_summary,
)

__all__ = ["AdmissionError", "OffloadRequest", "OffloadResponse",
           "ControllerPool", "MesaService", "TERMINAL_STATUSES"]

log = logging.getLogger("repro.service")

#: Every status an admitted request can resolve to.  The fault-injection
#: harness asserts each in-flight request reaches exactly one of these.
TERMINAL_STATUSES = ("completed", "rejected", "failed", "cancelled",
                     "timeout", "degraded")


class AdmissionError(RuntimeError):
    """A request the service refused to queue; ``reason`` says why."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class OffloadRequest:
    """One client's offload request: a binary plus its fresh-state factory."""

    program: Program
    state_factory: Callable[[], MachineState]
    client: str = "local"
    config: str = "M-128"
    parallelizable: bool = False
    #: Display name (e.g. the kernel name); purely informational.
    label: str = ""
    #: Named-kernel identity, set by :meth:`for_kernel`.  Required for the
    #: multi-process backend (a closure-laden ``program`` cannot cross a
    #: pipe); empty-kernel requests fall back to the thread backend.
    kernel: str = ""
    iterations: int = 0
    #: End-to-end deadline in seconds (queue wait + execution); ``None``
    #: defers to the service-wide default.
    timeout_s: float | None = None
    #: Resubmission identity: two submissions from the same client with
    #: the same key are the same logical request — the second attaches to
    #: the first instead of executing again.
    idempotency_key: str = ""

    @classmethod
    def for_kernel(cls, name: str, iterations: int = 64,
                   config: str = "M-128",
                   client: str = "local",
                   timeout_s: float | None = None,
                   idempotency_key: str = "") -> "OffloadRequest":
        """Convenience constructor from a named Rodinia kernel."""
        from ..workloads import build_kernel

        kernel = build_kernel(name, iterations=iterations)
        return cls(program=kernel.program,
                   state_factory=kernel.state_factory,
                   client=client, config=config,
                   parallelizable=kernel.parallelizable, label=name,
                   kernel=name, iterations=iterations,
                   timeout_s=timeout_s, idempotency_key=idempotency_key)

    def coalesce_key(self) -> tuple[str, str]:
        """Identity of this request's region work: (backend, content).

        Two requests with the same key would translate the exact same
        instruction bytes for the exact same backend — the service runs
        that translation once.
        """
        digest = region_digest(self.program, self.program.base_address,
                               self.program.end_address)
        return (self.config, digest)


@dataclass
class OffloadResponse:
    """Outcome of one request, with its end-to-end latency breakdown."""

    label: str
    client: str
    #: One of :data:`TERMINAL_STATUSES`.
    status: str
    reason: str = ""
    accelerated: bool = False
    cache_hit: bool = False
    coalesced: bool = False
    #: This response was replayed from (or attached to) an earlier
    #: submission with the same idempotency key.
    deduped: bool = False
    speedup: float = 0.0
    total_cycles: float = 0.0
    queue_seconds: float = 0.0
    execute_seconds: float = 0.0
    total_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "completed"


class ControllerPool:
    """One shared :class:`MesaController` per chip (backend config).

    The pool is the unit of sharing: every request the service routes to
    chip ``M-128`` lands on the same controller, hence the same
    configuration cache.  Controllers are built lazily on first use with
    service-grade cache settings (larger, LRU, digest-indexed) derived
    from ``base_options``; :meth:`cache_stats` sums the monotonic cache
    counters across chips.
    """

    def __init__(self, base_options: MesaOptions | None = None,
                 cpu_config: CpuConfig | None = None,
                 cache_capacity: int = 64,
                 cache_policy: str = "lru",
                 cache_tag_indexed: bool = True,
                 factory: Callable[[str], MesaController] | None = None
                 ) -> None:
        self.options = dataclasses.replace(
            base_options if base_options is not None else MesaOptions(),
            cache_capacity=cache_capacity,
            cache_policy=cache_policy,
            cache_tag_indexed=cache_tag_indexed)
        self.cpu_config = cpu_config
        self._factory = factory
        self._controllers: dict[str, MesaController] = {}
        self._lock = Lock()

    def controller(self, config_name: str) -> MesaController:
        with self._lock:
            controller = self._controllers.get(config_name)
            if controller is None:
                if self._factory is not None:
                    controller = self._factory(config_name)
                else:
                    controller = MesaController(
                        mesa_config(config_name), self.cpu_config,
                        self.options)
                self._controllers[config_name] = controller
            return controller

    def chips(self) -> list[str]:
        with self._lock:
            return list(self._controllers)

    def controllers(self) -> list[MesaController]:
        with self._lock:
            return list(self._controllers.values())

    def cache_stats(self) -> CacheStats:
        """Monotonic shared-cache counters summed over every chip."""
        total = CacheStats()
        for controller in self.controllers():
            total = total + controller.config_cache.stats()
        return total

    def export_regions(self) -> list[dict]:
        """Exported cache records from every chip (for checkpointing)."""
        records: list[dict] = []
        for controller in self.controllers():
            records.extend(controller.export_cache_regions())
        return records


@dataclass
class _Job:
    request: OffloadRequest
    future: asyncio.Future
    submitted_at: float
    #: Absolute ``time.perf_counter()`` deadline, or None.
    deadline: float | None = None
    #: Admission sequence number (deterministic fault-plan index).
    index: int = 0
    started_at: float = 0.0
    coalesced: bool = False


class MesaService:
    """The asyncio offload server; see the module docstring for the model.

    Lifecycle::

        service = MesaService(workers=2)
        await service.start()
        response = await service.offload(OffloadRequest.for_kernel("nn"))
        await service.close()

    ``offload`` never raises for service-level refusals — a rejected
    request comes back as an :class:`OffloadResponse` with
    ``status="rejected"`` and the admission reason, matching what a
    remote client would see on the wire.
    """

    #: Completed-response entries retained for idempotent replay.
    DEDUPE_CAPACITY = 1024

    def __init__(self, pool: ControllerPool | None = None,
                 max_queue: int = 64, max_per_client: int = 8,
                 workers: int = 2, coalesce: bool = True,
                 execution: str = "thread",
                 request_timeout_s: float | None = None,
                 checkpoint_path: str | None = None,
                 checkpoint_interval_s: float = 0.0,
                 breaker_threshold: int = 3,
                 breaker_probe_interval: int = 8,
                 fault_plan=None,
                 start_method: str | None = None) -> None:
        if max_queue < 1 or max_per_client < 1 or workers < 1:
            raise ValueError("max_queue, max_per_client, and workers must "
                             "be positive")
        if execution not in ("thread", "process"):
            raise ValueError(f"unknown execution backend {execution!r}; "
                             f"expected 'thread' or 'process'")
        self.pool = pool if pool is not None else ControllerPool()
        self.max_queue = max_queue
        self.max_per_client = max_per_client
        self.workers = workers
        self.coalesce = coalesce
        self.execution = execution
        self.request_timeout_s = request_timeout_s
        self.checkpoint_path = checkpoint_path
        self.checkpoint_interval_s = checkpoint_interval_s
        self.fault_plan = fault_plan
        self._start_method = start_method
        self._breaker = (CircuitBreaker(breaker_threshold,
                                        breaker_probe_interval)
                         if breaker_threshold > 0 else None)
        self._queue: asyncio.Queue[_Job] = asyncio.Queue()
        self._worker_tasks: list[asyncio.Task] = []
        self._checkpoint_task: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._procpool: ProcessWorkerPool | None = None
        self._store = RegionStore()
        self._cache_tally = CacheStats()
        self._inflight: dict[tuple[str, str], asyncio.Event] = {}
        self._dedupe: OrderedDict[tuple[str, str], asyncio.Future] = \
            OrderedDict()
        self._client_load: dict[str, int] = {}
        self._running_jobs = 0
        self._admitted_index = 0
        self._counters = {name: 0 for name in (
            "submitted", "admitted", "rejected_queue_full",
            "rejected_client_quota", "completed", "failed", "cancelled",
            "timed_out", "degraded", "coalesced", "deduped", "accelerated",
            "cache_hits", "worker_crashes", "worker_restarts",
            "checkpoints_saved", "regions_restored")}
        self._latency: dict[str, LatencyHistogram] = {}
        self._started_at = time.perf_counter()
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Restore the checkpoint, boot the backend, spawn workers."""
        if self._worker_tasks:
            return
        self._started_at = time.perf_counter()
        loop = asyncio.get_running_loop()
        if self.checkpoint_path:
            records, reason = load_snapshot(self.checkpoint_path)
            if records is None:
                if not reason.startswith("no snapshot"):
                    log.warning("checkpoint restore skipped: %s", reason)
            elif records:
                restored = self._store.add_many(records)
                self._counters["regions_restored"] += restored
                if self.execution == "thread":
                    # Seed the shared controllers now; the process backend
                    # instead seeds each worker at boot via the store.
                    await loop.run_in_executor(
                        None, self._restore_controllers, records)
                log.info("checkpoint restored %d region(s) from %s",
                         restored, self.checkpoint_path)
        if self.execution == "process":
            self._procpool = ProcessWorkerPool(
                self.workers, options=self.pool.options,
                cpu_config=self.pool.cpu_config,
                start_method=self._start_method,
                seed_source=self._store.records)
            await loop.run_in_executor(None, self._procpool.start)
        # One spare thread so interval checkpoints never wait behind a
        # full complement of executing requests.
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers + 1, thread_name_prefix="mesa-service")
        self._worker_tasks = [
            asyncio.ensure_future(self._worker())
            for _ in range(self.workers)]
        if self.checkpoint_path and self.checkpoint_interval_s > 0:
            self._checkpoint_task = asyncio.ensure_future(
                self._checkpoint_loop())

    async def close(self) -> None:
        """Graceful shutdown: reject new work, drain admitted jobs, stop
        the backend, and flush a final checkpoint."""
        self._closed = True
        if self._worker_tasks:
            await self._queue.join()
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            await asyncio.gather(self._checkpoint_task,
                                 return_exceptions=True)
            self._checkpoint_task = None
        for task in self._worker_tasks:
            task.cancel()
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks,
                                 return_exceptions=True)
        self._worker_tasks = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        loop = asyncio.get_running_loop()
        if self._procpool is not None:
            await loop.run_in_executor(None, self._procpool.close)
            self._procpool = None
        if self.checkpoint_path:
            await loop.run_in_executor(None, self.save_checkpoint)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- persistence ----------------------------------------------------------

    def _restore_controllers(self, records: list[dict]) -> int:
        """Seed the thread backend's shared controllers (blocking)."""
        restored = 0
        configs = sorted({record.get("config") for record in records
                          if isinstance(record.get("config"), str)})
        for config_name in configs:
            try:
                controller = self.pool.controller(config_name)
            except Exception as exc:
                log.warning("cannot restore regions for chip %r: %s",
                            config_name, exc)
                continue
            restored += controller.restore_cache_regions(records)
        return restored

    def save_checkpoint(self) -> int:
        """Write the current configured regions to the snapshot file.

        Merges the worker-reported store with the thread backend's live
        caches; blocking (call from an executor thread), atomic on disk.
        Returns the record count written, 0 when checkpointing is off.
        """
        if not self.checkpoint_path:
            return 0
        merged = RegionStore()
        merged.add_many(self._store.records())
        merged.add_many(self.pool.export_regions())
        count = save_snapshot(self.checkpoint_path, merged.records())
        self._counters["checkpoints_saved"] += 1
        return count

    async def _checkpoint_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.checkpoint_interval_s)
            try:
                await loop.run_in_executor(None, self.save_checkpoint)
            except Exception as exc:  # never let a bad disk kill the loop
                log.warning("interval checkpoint failed: %s", exc)

    # -- submission -----------------------------------------------------------

    def submit(self, request: OffloadRequest,
               timeout_s: float | None = None) -> asyncio.Future:
        """Admit a request; returns the future its response resolves on.

        Raises :class:`AdmissionError` when the service is shutting down,
        the job queue is at capacity, or the client has exhausted its
        in-flight quota.  Rejection is counted but costs the service
        nothing else — that is the point of admission control.

        A request carrying an ``idempotency_key`` that matches an
        in-flight or successfully completed submission from the same
        client is *deduplicated*: the returned future mirrors the
        original's response (marked ``deduped=True``) and nothing new is
        queued or executed.
        """
        self._counters["submitted"] += 1
        if self._closed:
            raise AdmissionError("service is shutting down")
        if not self._worker_tasks:
            raise AdmissionError("service is not started")
        dedupe_key = ((request.client, request.idempotency_key)
                      if request.idempotency_key else None)
        if dedupe_key is not None:
            original = self._dedupe.get(dedupe_key)
            if original is not None and self._replayable(original):
                self._counters["deduped"] += 1
                self._dedupe.move_to_end(dedupe_key)
                return self._mirror(original)
        load = self._client_load.get(request.client, 0)
        if load >= self.max_per_client:
            self._counters["rejected_client_quota"] += 1
            raise AdmissionError(
                f"client {request.client!r} quota exceeded "
                f"({load} in flight, limit {self.max_per_client})")
        waiting = self._queue.qsize()
        if waiting >= self.max_queue:
            self._counters["rejected_queue_full"] += 1
            raise AdmissionError(
                f"queue full ({waiting} waiting, limit {self.max_queue})")
        self._counters["admitted"] += 1
        self._client_load[request.client] = load + 1
        submitted_at = time.perf_counter()
        budget = timeout_s if timeout_s is not None else request.timeout_s
        if budget is None:
            budget = self.request_timeout_s
        job = _Job(request=request,
                   future=asyncio.get_running_loop().create_future(),
                   submitted_at=submitted_at,
                   deadline=(submitted_at + budget
                             if budget is not None else None),
                   index=self._admitted_index)
        self._admitted_index += 1
        if dedupe_key is not None:
            self._dedupe[dedupe_key] = job.future
            while len(self._dedupe) > self.DEDUPE_CAPACITY:
                self._dedupe.popitem(last=False)
        self._queue.put_nowait(job)
        return job.future

    @staticmethod
    def _replayable(future: asyncio.Future) -> bool:
        """An idempotency entry worth attaching a resubmission to.

        In-flight futures qualify (the retry rides along); completed ones
        qualify only when the outcome was a success (``completed`` /
        ``degraded``) — replaying a failure or timeout would defeat the
        retry, so those resubmissions execute fresh.
        """
        if future.cancelled():
            return False
        if not future.done():
            return True
        if future.exception() is not None:
            return False
        return future.result().status in ("completed", "degraded")

    @staticmethod
    def _mirror(source: asyncio.Future) -> asyncio.Future:
        """A future resolving with the source's response, flagged deduped.

        Mirrored, not shared: cancelling the retry must not cancel the
        original submission's future.
        """
        mirror = asyncio.get_running_loop().create_future()

        def _copy(fut: asyncio.Future) -> None:
            if mirror.done():
                return
            if fut.cancelled():
                mirror.cancel()
                return
            exc = fut.exception()
            if exc is not None:
                mirror.set_exception(exc)
                return
            mirror.set_result(dataclasses.replace(fut.result(),
                                                  deduped=True))

        if source.done():
            _copy(source)
        else:
            source.add_done_callback(_copy)
        return mirror

    async def offload(self, request: OffloadRequest,
                      timeout_s: float | None = None) -> OffloadResponse:
        """Submit and await one request; refusals become responses.

        Cancelling the awaiting task cancels the job (a job cancelled
        while still queued is skipped by the workers; one already
        executing finishes but its response is discarded) — the
        cancellation propagates to the caller as usual.
        """
        try:
            future = self.submit(request, timeout_s=timeout_s)
        except AdmissionError as exc:
            return OffloadResponse(label=request.label,
                                   client=request.client,
                                   status="rejected", reason=exc.reason)
        return await future

    # -- metrics --------------------------------------------------------------

    def stats(self) -> ServiceStats:
        """Monotonic snapshot; subtract an earlier one for an interval."""
        return ServiceStats(
            **self._counters,
            cache=self.pool.cache_stats() + self._cache_tally,
            uptime_seconds=time.perf_counter() - self._started_at,
            queue_depth=self._queue.qsize(),
            inflight=self._running_jobs,
            latency={name: hist.snapshot()
                     for name, hist in self._latency.items()},
        )

    def stats_delta(self, since: ServiceStats) -> ServiceStats:
        """Interval metrics since an earlier :meth:`stats` snapshot."""
        return self.stats() - since

    def process_stats(self) -> dict[str, Any]:
        """Supervision state of the process backend (zeros for threads)."""
        if self._procpool is None:
            return {"workers": 0, "alive": 0, "restarts": 0, "pids": []}
        return {"workers": self._procpool.size,
                "alive": self._procpool.alive(),
                "restarts": self._procpool.restarts,
                "pids": self._procpool.worker_pids()}

    def _record(self, name: str, seconds: float) -> None:
        hist = self._latency.get(name)
        if hist is None:
            hist = self._latency[name] = LatencyHistogram()
        hist.record(seconds)

    # -- execution ------------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            job = await self._queue.get()
            try:
                await self._run_job(job)
            finally:
                self._queue.task_done()

    def _release(self, client: str) -> None:
        load = self._client_load.get(client, 0) - 1
        if load > 0:
            self._client_load[client] = load
        else:
            self._client_load.pop(client, None)

    async def _run_job(self, job: _Job) -> None:
        request = job.request
        try:
            if job.future.cancelled():
                self._counters["cancelled"] += 1
                return
            self._running_jobs += 1
            try:
                await self._execute(job)
            finally:
                self._running_jobs -= 1
        finally:
            self._release(request.client)

    def _expired(self, job: _Job) -> bool:
        return (job.deadline is not None
                and time.perf_counter() >= job.deadline)

    def _remaining(self, job: _Job) -> float | None:
        if job.deadline is None:
            return None
        return max(0.0, job.deadline - time.perf_counter())

    def _resolve_timeout(self, job: _Job, reason: str) -> None:
        """Terminal ``status="timeout"`` without touching a backend."""
        self._counters["timed_out"] += 1
        now = time.perf_counter()
        request = job.request
        self._finish(job, OffloadResponse(
            label=request.label, client=request.client,
            status="timeout", reason=reason, coalesced=job.coalesced,
            queue_seconds=(job.started_at or now) - job.submitted_at,
            total_seconds=now - job.submitted_at))

    async def _execute(self, job: _Job) -> None:
        request = job.request
        job.started_at = time.perf_counter()
        self._record("queue_wait", job.started_at - job.submitted_at)

        if self._expired(job):
            # Satellite guarantee: a queue-expired request resolves
            # without ever occupying a worker or a coalescing slot.
            self._resolve_timeout(
                job, "deadline expired while queued "
                     f"(waited {job.started_at - job.submitted_at:.3f}s)")
            return

        key = request.coalesce_key() if self.coalesce else None
        leader = self._inflight.get(key) if key is not None else None
        barrier: asyncio.Event | None = None
        if leader is not None:
            # Identical region already being configured: wait for its
            # leader, then execute against the warmed cache (N identical
            # in-flight regions -> one translation, one miss, N-1 hits).
            job.coalesced = True
            self._counters["coalesced"] += 1
            await leader.wait()
            if job.future.cancelled():
                self._counters["cancelled"] += 1
                return
            if self._expired(job):
                self._resolve_timeout(
                    job, "deadline expired waiting on coalesced leader")
                return
        elif key is not None:
            barrier = asyncio.Event()
            self._inflight[key] = barrier

        breaker_key = key if key is not None else request.coalesce_key()
        degraded_reason = (self._breaker.check(breaker_key)
                           if self._breaker is not None else None)
        start = time.perf_counter()
        try:
            summary = await self._dispatch(
                job, key, degraded=degraded_reason is not None)
            if degraded_reason is not None and \
                    summary["status"] == "completed":
                summary["status"] = "degraded"
                summary["reason"] = degraded_reason
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # Containment: an unexpected service-side error is this
            # request's failure, never the worker loop's.
            summary = {"status": "failed",
                       "reason": f"{type(exc).__name__}: {exc}"}
        finally:
            if barrier is not None:
                # Release followers even on failure: they re-translate
                # themselves rather than wait forever.
                del self._inflight[key]
                barrier.set()
        done = time.perf_counter()
        execute_seconds = done - start
        status = summary.get("status", "failed")

        if self._breaker is not None and degraded_reason is None:
            self._breaker.record(breaker_key, status == "completed",
                                 summary.get("reason", ""))

        if status == "completed":
            self._counters["completed"] += 1
            if summary.get("accelerated"):
                self._counters["accelerated"] += 1
            if summary.get("cache_hit"):
                self._counters["cache_hits"] += 1
            self._record("execute", execute_seconds)
            # Split the execute path three ways so cold-vs-warm quantiles
            # compare only runs that actually went through the config
            # pipeline: CPU-only regions never consult the cache and
            # would otherwise pollute the cold histogram.
            if not summary.get("accelerated"):
                self._record("execute_cpu", execute_seconds)
            elif summary.get("cache_hit"):
                self._record("execute_warm", execute_seconds)
            else:
                self._record("execute_cold", execute_seconds)
            self._record("total", done - job.submitted_at)
            for phase, seconds in summary.get("phase_seconds", {}).items():
                self._record(f"phase:{phase}", seconds)
        elif status == "degraded":
            self._counters["degraded"] += 1
            self._record("execute_degraded", execute_seconds)
            self._record("total", done - job.submitted_at)
        elif status == "timeout":
            self._counters["timed_out"] += 1
        else:
            self._counters["failed"] += 1

        self._finish(job, OffloadResponse(
            label=request.label, client=request.client,
            status=status, reason=summary.get("reason", ""),
            accelerated=bool(summary.get("accelerated")),
            cache_hit=bool(summary.get("cache_hit")),
            coalesced=job.coalesced,
            speedup=float(summary.get("speedup", 0.0)),
            total_cycles=float(summary.get("total_cycles", 0.0)),
            queue_seconds=job.started_at - job.submitted_at,
            execute_seconds=execute_seconds,
            total_seconds=done - job.submitted_at))

    # -- dispatch backends ----------------------------------------------------

    def _planned_fault(self, job: _Job) -> tuple[str | None, float]:
        if self.fault_plan is None:
            return None, 0.0
        fault = self.fault_plan.execution_fault(
            job.index, job.request.kernel or job.request.label)
        return fault, getattr(self.fault_plan, "hang_s", 30.0)

    async def _dispatch(self, job: _Job, key: tuple | None,
                        degraded: bool) -> dict:
        """Run the fabric pipeline (or, ``degraded``, the CPU baseline);
        the summary's status is completed, timeout or failed."""
        remaining = self._remaining(job)
        if remaining is not None and remaining <= 0.0:
            return {"status": "timeout",
                    "reason": "deadline expired before dispatch"}
        if self._procpool is not None and job.request.kernel:
            return await self._dispatch_process(job, key, remaining,
                                                degraded)
        return await self._dispatch_thread(job, remaining, degraded)

    async def _dispatch_process(self, job: _Job, key: tuple | None,
                                remaining: float | None,
                                degraded: bool) -> dict:
        request = job.request
        payload = {"kernel": request.kernel,
                   "iterations": request.iterations,
                   "config": request.config,
                   "parallelizable": request.parallelizable,
                   "mode": "cpu" if degraded else "mesa"}
        fault, hang_s = (None, 0.0) if degraded else self._planned_fault(job)
        if fault is not None:
            payload["fault"] = fault
            payload["hang_s"] = hang_s
        loop = asyncio.get_running_loop()
        try:
            summary = await loop.run_in_executor(
                self._executor,
                partial(self._procpool.execute, payload,
                        timeout_s=remaining, affinity=key))
        except WorkerTimeout as exc:
            self._counters["worker_restarts"] += 1
            return {"status": "timeout", "reason": str(exc)}
        except WorkerCrash as exc:
            self._counters["worker_crashes"] += 1
            self._counters["worker_restarts"] += 1
            return {"status": "failed", "reason": str(exc)}
        except (WorkerTaskError, PoolBroken) as exc:
            return {"status": "failed", "reason": str(exc)}
        summary["status"] = "completed"
        tally = summary.get("cache_stats")
        if tally:
            self._cache_tally = self._cache_tally + CacheStats(*tally)
        new_regions = summary.get("new_regions")
        if new_regions:
            self._store.add_many(new_regions)
        return summary

    async def _dispatch_thread(self, job: _Job, remaining: float | None,
                               degraded: bool) -> dict:
        request = job.request
        if degraded:
            call = partial(cpu_baseline_summary, request.program,
                           request.state_factory, self.pool.cpu_config)
        else:
            fault, hang_s = self._planned_fault(job)
            call = partial(self._thread_execute,
                           self.pool.controller(request.config), request,
                           fault, hang_s)
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._executor, call)
        done, pending = await asyncio.wait({future}, timeout=remaining)
        if pending:
            # Threads cannot be killed: detach the executor thread (its
            # eventual result is discarded) and resolve the request now.
            future.add_done_callback(self._swallow)
            return {"status": "timeout",
                    "reason": f"execution exceeded {remaining:.3f}s budget "
                              f"(executor thread detached)"}
        try:
            summary = future.result()
        except Exception as exc:
            return {"status": "failed",
                    "reason": f"{type(exc).__name__}: {exc}"}
        summary["status"] = "completed"
        return summary

    @staticmethod
    def _thread_execute(controller: MesaController,
                        request: OffloadRequest, fault: str | None,
                        hang_s: float) -> dict:
        if fault == "crash":
            raise RuntimeError("injected crash (thread backend)")
        if fault == "hang":
            time.sleep(hang_s)
        return result_summary(controller.execute(
            request.program, request.state_factory,
            parallelizable=request.parallelizable))

    @staticmethod
    def _swallow(future) -> None:
        if not future.cancelled():
            future.exception()

    def _finish(self, job: _Job, response: OffloadResponse) -> None:
        if job.future.cancelled():
            self._counters["cancelled"] += 1
        elif not job.future.done():
            job.future.set_result(response)
