"""Supervised worker processes, and the shard runner built on them.

The paper's evaluation is an embarrassingly parallel grid — kernels ×
backend configs × PE-scaling points — but a single Python process caps the
harness's throughput no matter how fast the simulator's hot loop gets.
This module decomposes a sweep into independent *shards* (one picklable
work unit each — a ``(kernel, config)`` point, or a *chunk* of points) and
executes them on a **persistent pool of warm workers**, merging the results
**deterministically**: outcomes are returned in shard-submission order, not
completion order, so any table or JSON built from them is byte-identical to
a serial run.

:class:`WorkerPool` is the repo's one process supervisor; the offload
service's process backend runs on it too.  Each worker is owned directly
(not a ``ProcessPoolExecutor``) and served one task at a time over its own
pipe, which buys:

* **warm boot** — an ``initializer`` runs in every worker before its ready
  handshake, then an optional ``on_boot`` payload (the service's cache
  seed); workers are all spawned before any handshake is awaited, and
  persist across tasks, so per-process caches stay resident;
* **deadline watchdog** — a task's budget runs from dispatch to an idle
  worker, not from queueing; on expiry only the wedged worker is killed and
  replaced in place — the pool is repaired, never rebuilt;
* **exact crash blame** — a dying worker fails *its* task only
  (:class:`WorkerCrash`), with no ``BrokenProcessPool`` fan-out;
* **pickling containment** — a payload or result that does not pickle is
  the task's error (:class:`WorkerTaskError`); the worker stays alive;
* **boot-failure cap** — :data:`MAX_BOOT_FAILURES` consecutive warm-up
  deaths raise :class:`PoolBroken` ("failed to boot").

The shard runner adds per-shard ``retries`` after a crash, timeout, or
worker exception, and **graceful degradation**: a shard that exhausts its
retries becomes a failed :class:`ShardOutcome` carrying the error string,
rendered as a degraded row instead of aborting the whole sweep.

``workers=1`` runs every shard inline in the calling process — no pool, no
pickling — preserving the exact pre-existing serial behaviour (and letting
worker-side caches, like the per-config controller reuse in
:mod:`repro.harness.sweep`, live in the caller's process).  Any
``workers > 1`` goes through the pool, *including a single shard*: a lone
``(kernel, config)`` point still gets timeout enforcement and process
isolation.

Worker processes use the ``fork`` start method where the platform provides
it (the child inherits every imported module, making warm boot nearly
free) and fall back to ``spawn``; override with ``REPRO_MP_START_METHOD``.
The initial boot forks before any dispatching thread exists, but a
replacement is forked by the thread whose task killed its predecessor, i.e.
from a multi-threaded parent (see docs/modeling.md, "Fork vs spawn").
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_on
from typing import Any, Callable, Sequence

__all__ = ["Shard", "ShardOutcome", "ShardRunner", "run_sharded",
           "describe_error", "pool_start_method", "warm_boot_imports",
           "WorkerPool", "WorkerCrash", "WorkerTimeout", "WorkerTaskError",
           "PoolBroken", "MAX_BOOT_FAILURES"]


def pool_start_method() -> str:
    """The multiprocessing start method the pool will use.

    ``fork`` where the platform allows it — the child inherits the parent's
    imported modules and read-only state, so warm boot costs almost nothing
    — with ``spawn`` as the portable fallback (macOS, Windows).  Set
    ``REPRO_MP_START_METHOD=spawn|fork|forkserver`` to override.
    """
    override = os.environ.get("REPRO_MP_START_METHOD")
    if override:
        return override
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def warm_boot_imports() -> None:
    """Default warm-boot initializer for this repo's own drivers.

    Imports the simulator stack so a spawn-context worker's first shard
    pays no import latency; under ``fork`` the child inherits the parent's
    modules and this is a no-op.
    """
    import repro.accel  # noqa: F401
    import repro.core  # noqa: F401
    import repro.cpu  # noqa: F401
    import repro.harness.experiment  # noqa: F401
    import repro.workloads  # noqa: F401


@dataclass(frozen=True)
class Shard:
    """One independent unit of work.

    ``key`` identifies and orders the shard (e.g. ``(config, kernel)``);
    ``payload`` is the picklable argument handed to the worker function;
    ``timeout`` overrides the runner-wide ``shard_timeout`` for this shard
    (chunked shards scale it by their chunk size so a *per-point* budget
    still holds).
    """

    key: tuple
    payload: Any
    timeout: float | None = None


@dataclass
class ShardOutcome:
    """What happened to one shard."""

    key: tuple
    value: Any = None
    error: str | None = None
    #: Worker invocations consumed (1 = first try succeeded).  Pool repair
    #: after an unrelated worker's crash or timeout never charges an
    #: attempt: only this shard's own crash/timeout/exception does.
    attempts: int = 1

    @property
    def failed(self) -> bool:
        return self.error is not None


class WorkerCrash(RuntimeError):
    """The worker process died mid-task; it has been replaced."""


class WorkerTimeout(RuntimeError):
    """The task blew its deadline; the worker was killed and replaced."""


class WorkerTaskError(RuntimeError):
    """The task raised inside the worker, or its payload or result did not
    pickle; the worker itself is healthy."""


class PoolBroken(RuntimeError):
    """The pool failed to boot, is closed, or has no live workers left."""


#: Consecutive worker deaths during warm-up tolerated before giving up; a
#: worker that can't even boot is an environment failure, not any task's.
MAX_BOOT_FAILURES = 3


# -- worker process side ------------------------------------------------------

_READY = "ready"
_OK = "ok"
_ERR = "err"
_TASK = "task"
_STOP = "stop"


def _worker_main(conn, worker_fn, initializer, initargs) -> None:
    """Worker process loop: warm boot, signal readiness, then serve one
    task at a time (strict request/response over ``conn``)."""
    try:
        if initializer is not None:
            initializer(*initargs)
        conn.send((_READY, None))
        while True:
            kind, payload = conn.recv()
            if kind == _STOP:
                break
            try:
                message = (_OK, worker_fn(payload))
            except Exception as exc:
                message = (_ERR, describe_error(exc))
            try:
                conn.send(message)
            except (EOFError, OSError):
                break
            except Exception as exc:
                # The result didn't pickle; the task still gets an answer.
                # (Connection.send pickles before writing, so the stream is
                # still clean when it raises.)
                conn.send((_ERR, describe_error(exc)))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


# -- parent side --------------------------------------------------------------

class _Worker:
    """Parent-side handle for one worker process and its duplex pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, ctx, worker_fn, initializer, initargs) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, worker_fn, initializer, initargs),
            daemon=True)
        self.process.start()
        child_conn.close()

    def reply(self, timeout: float | None) -> tuple | None:
        """The worker's next message, or None if ``timeout`` expires first;
        ``EOFError`` if the worker died (its sentinel is watched too)."""
        if not _wait_on([self.conn, self.process.sentinel], timeout):
            return None
        # A worker that answered and then died delivered its answer.
        if not self.conn.poll(0):
            raise EOFError("worker exited")
        return self.conn.recv()

    def kill(self) -> None:
        """Tear down a wedged or dead worker immediately."""
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=2.0)


class WorkerPool:
    """A fixed-size pool of supervised, persistent worker processes that
    run the module-level ``worker_fn`` on each payload.

    ``execute`` is blocking and thread-safe: each call claims one idle
    worker, preferring ``hash(affinity) % size`` when that one is idle.
    ``initializer(*initargs)`` runs in each worker before its handshake;
    ``on_boot`` is a parent-side callable returning a payload (or None)
    that every freshly booted worker, initial or replacement, runs before
    it turns idle.
    """

    #: Seconds a worker may take to boot (initializer + ``on_boot``).
    BOOT_TIMEOUT = 120.0

    def __init__(self, size: int, worker_fn: Callable[[Any], Any],
                 initializer: Callable[..., None] | None = None,
                 initargs: Sequence[Any] = (),
                 start_method: str | None = None,
                 on_boot: Callable[[], Any] | None = None) -> None:
        if size < 1:
            raise ValueError("workers must be positive")
        self.size = size
        self._ctx = multiprocessing.get_context(
            start_method or pool_start_method())
        self._spawn_args = (worker_fn, initializer, tuple(initargs))
        self._on_boot = on_boot
        self._cond = threading.Condition()
        self._slots: list[_Worker | None] = [None] * size
        self._idle: set[int] = set()
        self._boot_failures = 0
        self._started = False
        self._closed = False
        #: Workers killed and replaced so far (read under the pool lock).
        self.restarts = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Boot every worker: all are spawned first, then each handshake is
        awaited, so boots overlap.  Raises :class:`PoolBroken` (and closes
        the pool) if workers keep dying during warm-up."""
        if self._started:
            return
        spawned = [_Worker(self._ctx, *self._spawn_args)
                   for _ in range(self.size)]
        try:
            for slot, worker in enumerate(spawned):
                booted = self._boot(worker)
                with self._cond:
                    self._slots[slot] = booted
                    self._idle.add(slot)
                    self._cond.notify()
        except BaseException:
            for worker in spawned:
                worker.kill()
            self.close()
            raise
        self._started = True

    def close(self) -> None:
        """Stop idle workers gracefully and kill the rest."""
        with self._cond:
            self._closed = True
            workers = [worker for worker in self._slots if worker is not None]
            idle = [self._slots[slot] for slot in self._idle]
            self._slots = [None] * self.size
            self._idle.clear()
            self._cond.notify_all()
        for worker in idle:
            try:
                worker.conn.send((_STOP, None))
            except (OSError, ValueError):
                pass
        grace = time.monotonic() + 1.0
        for worker in idle:
            worker.process.join(timeout=max(0.0, grace - time.monotonic()))
        for worker in workers:
            worker.kill()

    # -- introspection --------------------------------------------------------

    def worker_pids(self) -> list[int | None]:
        """Current pid per slot (None for a dead slot)."""
        with self._cond:
            return [worker.process.pid if worker is not None else None
                    for worker in self._slots]

    def alive(self) -> int:
        with self._cond:
            return sum(1 for worker in self._slots if worker is not None)

    # -- execution ------------------------------------------------------------

    def execute(self, payload: Any, timeout_s: float | None = None,
                affinity: Any = None) -> Any:
        """Run ``worker_fn(payload)`` on an idle worker; blocking.

        Raises :class:`WorkerTaskError` (worker healthy),
        :class:`WorkerCrash` / :class:`WorkerTimeout` (worker killed and
        replaced in place), or :class:`PoolBroken` (closed / no live
        workers).  The deadline anchors at dispatch: waiting for an idle
        worker does not consume the task's execution budget.
        """
        slot, worker = self._acquire(affinity)
        pid = worker.process.pid
        healthy = True
        try:
            try:
                worker.conn.send((_TASK, payload))
            except OSError as exc:
                healthy = False
                raise WorkerCrash(
                    f"worker {pid} pipe failed: {exc}") from exc
            except Exception as exc:
                # The payload didn't pickle — that is this task's fault,
                # not the worker's; the worker stays idle and alive.
                raise WorkerTaskError(describe_error(exc)) from exc
            try:
                message = worker.reply(timeout_s)
            except (EOFError, OSError) as exc:
                healthy = False
                worker.kill()
                raise WorkerCrash(
                    f"worker {pid} crashed mid-task "
                    f"(exit code {worker.process.exitcode})") from exc
            if message is None:
                healthy = False
                raise WorkerTimeout(
                    f"execution exceeded {timeout_s:g}s; worker {pid} "
                    f"killed and replaced")
            kind, value = message
            if kind == _ERR:
                raise WorkerTaskError(value)
            return value
        finally:
            if healthy:
                self._checkin(slot)
            else:
                self._replace(slot, worker)

    # -- internals ------------------------------------------------------------

    def _boot(self, worker: _Worker | None = None) -> _Worker:
        """Handshake ``worker`` (or a fresh spawn), respawning until one
        boots; :data:`MAX_BOOT_FAILURES` consecutive deaths raise."""
        while True:
            if worker is None:
                worker = _Worker(self._ctx, *self._spawn_args)
            if self._handshake(worker):
                with self._cond:
                    self._boot_failures = 0
                return worker
            worker.kill()
            worker = None
            with self._cond:
                self._boot_failures += 1
                failures = self._boot_failures
            if failures >= MAX_BOOT_FAILURES:
                raise PoolBroken(
                    f"worker pool failed to boot: {failures} workers in a "
                    f"row died during warm-up (crashing initializer?)")

    def _handshake(self, worker: _Worker) -> bool:
        """Wait for readiness, then run the ``on_boot`` payload, if any."""
        try:
            message = worker.reply(self.BOOT_TIMEOUT)
            if message is None or message[0] != _READY:
                return False
            payload = self._on_boot() if self._on_boot is not None else None
            if payload is None:
                return True
            worker.conn.send((_TASK, payload))
            message = worker.reply(self.BOOT_TIMEOUT)
            return message is not None and message[0] == _OK
        except (EOFError, OSError):
            return False

    def _acquire(self, affinity: Any) -> tuple[int, _Worker]:
        with self._cond:
            while True:
                if self._closed:
                    raise PoolBroken("worker pool is closed")
                if (self._started
                        and all(worker is None for worker in self._slots)):
                    raise PoolBroken("no live workers remain")
                if self._idle:
                    preferred = (hash(affinity) % self.size
                                 if affinity is not None else None)
                    slot = (preferred if preferred in self._idle
                            else min(self._idle))
                    self._idle.remove(slot)
                    worker = self._slots[slot]
                    assert worker is not None
                    return slot, worker
                self._cond.wait(timeout=1.0)

    def _checkin(self, slot: int) -> None:
        with self._cond:
            if not self._closed and self._slots[slot] is not None:
                self._idle.add(slot)
                self._cond.notify()

    def _replace(self, slot: int, worker: _Worker) -> None:
        """Kill a wedged/dead worker and boot a replacement into its slot.

        The pool is repaired, never rebuilt: only this slot changes, the
        other workers keep running (and keep their warm caches).  If the
        replacement cannot boot, the slot is marked dead rather than
        raising — the original task's failure is the caller's error.
        """
        worker.kill()
        with self._cond:
            self.restarts += 1
            if self._closed:
                return
        try:
            replacement = self._boot()
        except PoolBroken:
            with self._cond:
                self._slots[slot] = None
                self._cond.notify_all()
            return
        with self._cond:
            if not self._closed:
                self._slots[slot] = replacement
                self._idle.add(slot)
                self._cond.notify()
                return
        replacement.kill()


class ShardRunner:
    """Executes shards on a persistent worker pool with warm boot, a
    start-anchored deadline watchdog, and exact retry/degrade semantics.

    Args:
        workers: pool size; ``1`` (the default) runs shards inline in the
            calling process, byte-identical to the historical serial path.
            Any larger value pools — even for a single shard, so timeout
            enforcement and process isolation never silently disappear.
        shard_timeout: wall-clock seconds allowed per shard, measured from
            the moment the shard starts executing on a worker (None =
            unbounded).  :attr:`Shard.timeout` overrides it per shard.
            Only enforceable with ``workers > 1`` — an in-process shard
            cannot be interrupted.
        retries: extra attempts granted after a crash/timeout/exception.
        initializer: warm-boot callable run once in each worker process
            before it accepts shards (and once in the calling process for
            the inline path, which *is* the worker).  Must be picklable
            under the ``spawn`` start method.
        initargs: arguments for ``initializer``.
        start_method: multiprocessing start method; defaults to
            :func:`pool_start_method` (fork where available, else spawn).
    """

    def __init__(self, workers: int = 1, shard_timeout: float | None = None,
                 retries: int = 1,
                 initializer: Callable[..., None] | None = None,
                 initargs: Sequence[Any] = (),
                 start_method: str | None = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.workers = workers
        self.shard_timeout = shard_timeout
        self.retries = retries
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self.start_method = start_method or pool_start_method()

    # -- public API ---------------------------------------------------------

    def map(self, worker: Callable[[Any], Any],
            shards: Sequence[Shard]) -> list[ShardOutcome]:
        """Run ``worker(shard.payload)`` for every shard.

        Returns one :class:`ShardOutcome` per shard **in input order**,
        regardless of completion order or worker count.  ``worker`` must be
        a module-level (picklable) callable when ``workers > 1``.
        """
        shards = list(shards)
        if not shards:
            return []
        if self.workers == 1:
            if self.initializer is not None:
                self.initializer(*self.initargs)
            return [self._run_inline(worker, shard) for shard in shards]
        return self._run_pooled(worker, shards)

    # -- serial path --------------------------------------------------------

    def _run_inline(self, worker, shard: Shard) -> ShardOutcome:
        attempts = 0
        while True:
            attempts += 1
            try:
                return ShardOutcome(key=shard.key,
                                    value=worker(shard.payload),
                                    attempts=attempts)
            except Exception as exc:
                if attempts > self.retries:
                    return ShardOutcome(
                        key=shard.key, attempts=attempts,
                        error=describe_error(exc))

    # -- pooled path --------------------------------------------------------

    def _run_pooled(self, worker, shards: list[Shard]) -> list[ShardOutcome]:
        """One dispatcher thread per pool worker, all pulling shard indices
        from one shared queue."""
        outcomes: dict[int, ShardOutcome] = {}
        attempts = [0] * len(shards)
        pending = deque(range(len(shards)))
        errors: list[BaseException] = []
        size = min(self.workers, len(shards))
        pool = WorkerPool(size, worker, self.initializer, self.initargs,
                          self.start_method)
        try:
            pool.start()
            threads = [threading.Thread(
                target=self._dispatch_loop,
                args=(pool, shards, pending, attempts, outcomes, errors),
                daemon=True) for _ in range(size)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            pool.close()
        if errors:
            raise errors[0]
        return [outcomes[i] for i in range(len(shards))]

    def _dispatch_loop(self, pool: WorkerPool, shards: list[Shard],
                       pending: deque, attempts: list[int],
                       outcomes: dict[int, ShardOutcome],
                       errors: list[BaseException]) -> None:
        """Run pending shards until the queue is empty; a thread that
        re-queues a retry loops back for it, so none is stranded."""
        try:
            while True:
                try:
                    index = pending.popleft()
                except IndexError:
                    return
                shard = shards[index]
                budget = self._budget(shard)
                attempts[index] += 1
                try:
                    value = pool.execute(shard.payload, timeout_s=budget)
                except WorkerCrash:
                    error = "worker process crashed"
                except WorkerTimeout:
                    error = f"timed out after {budget:g}s"
                except WorkerTaskError as exc:
                    error = str(exc)
                else:
                    outcomes[index] = ShardOutcome(
                        key=shard.key, value=value, attempts=attempts[index])
                    continue
                self._settle(index, shards, attempts, outcomes, pending,
                             error)
        except BaseException as exc:
            errors.append(exc)

    def _budget(self, shard: Shard) -> float | None:
        return (shard.timeout if shard.timeout is not None
                else self.shard_timeout)

    def _settle(self, index: int, shards, attempts: list[int],
                outcomes: dict[int, ShardOutcome], pending: deque,
                error: str) -> None:
        """Retry the failed shard if it has budget left, else degrade it."""
        if attempts[index] <= self.retries:
            pending.append(index)
        else:
            outcomes[index] = ShardOutcome(
                key=shards[index].key, attempts=attempts[index], error=error)


def run_sharded(worker: Callable[[Any], Any], shards: Sequence[Shard],
                workers: int = 1, shard_timeout: float | None = None,
                retries: int = 1,
                initializer: Callable[..., None] | None = None,
                initargs: Sequence[Any] = ()) -> list[ShardOutcome]:
    """One-call convenience wrapper over :class:`ShardRunner`."""
    return ShardRunner(workers=workers, shard_timeout=shard_timeout,
                       retries=retries, initializer=initializer,
                       initargs=initargs).map(worker, shards)


def describe_error(exc: BaseException) -> str:
    """One-line error description with the innermost frame for context."""
    frames = traceback.extract_tb(exc.__traceback__)
    location = f" at {frames[-1].filename}:{frames[-1].lineno}" if frames else ""
    return f"{type(exc).__name__}: {exc}{location}"
