"""The offload service's multi-process backend.

One asyncio process tops out at ~1 core of simulation (the GIL serializes
the thread-pool executors), so ``execution="process"`` runs
``MesaController.execute`` in N long-lived worker *processes*.
:class:`ProcessWorkerPool` binds the service's worker function to the
harness's supervisor, :class:`repro.harness.parallel.WorkerPool`, which
provides deadlines anchored at dispatch, exact crash blame, in-place
kill-and-replace repair, the boot-failure cap and pickling containment.

Each worker owns its own per-chip controllers (process memory is not
shared), so warm-cache behavior is preserved two ways: *sticky affinity*
routes identical regions to the same worker when it is idle, and every
freshly booted worker (initial or replacement) restores the service's
:class:`~repro.service.checkpoint.RegionStore` records — the pool's
``on_boot`` payload — before its first request, so a replacement rejoins
warm instead of cold.

Results cross the pipe as compact summary dicts (a
:class:`~repro.core.controller.MesaResult` holds closures and traces and
is deliberately not pickled); freshly configured regions come back as
exported bitstream records for the parent's store.

:class:`CircuitBreaker` lives here too: the per-(config, region)
consecutive-failure counter the server consults before dispatching, with
half-open probing so a recovered region closes the circuit again.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable

from ..harness.parallel import (
    PoolBroken,
    WorkerCrash,
    WorkerPool,
    WorkerTaskError,
    WorkerTimeout,
    warm_boot_imports,
)

__all__ = ["ProcessWorkerPool", "WorkerCrash", "WorkerTimeout",
           "WorkerTaskError", "PoolBroken", "CircuitBreaker"]


def result_summary(result) -> dict:
    """The picklable summary of a ``MesaResult`` that both backends return."""
    return {"accelerated": result.accelerated,
            "cache_hit": result.config_cache_hit,
            "reason": result.reason,
            "speedup": result.speedup_vs_single_core,
            "total_cycles": result.total_cycles,
            "phase_seconds": dict(result.phase_seconds)}


def cpu_baseline_summary(program, state_factory, cpu_config=None) -> dict:
    """CPU-only execution summary: the circuit breaker's degraded path,
    shared by the thread and the process backend."""
    from ..cpu import CpuConfig, OutOfOrderCore, collect_trace
    from ..mem import MemoryHierarchy

    config = cpu_config if cpu_config is not None else CpuConfig()
    trace = collect_trace(program, state_factory())
    core = OutOfOrderCore(config, MemoryHierarchy(config.memory)).run(trace)
    return {"accelerated": False, "cache_hit": False,
            "reason": "cpu baseline", "speedup": 1.0,
            "total_cycles": float(core.cycles), "phase_seconds": {}}


# -- worker process side ------------------------------------------------------

#: Worker-process state, set by :func:`_boot_worker` in each worker (the
#: parent never touches it): the controller settings and one controller
#: per chip, kept warm across requests.
_options: Any = None
_cpu_config: Any = None
_controllers: dict[str, Any] = {}


def _boot_worker(options, cpu_config) -> None:
    """Worker initializer: keep the controller settings, import the stack."""
    global _options, _cpu_config
    _options, _cpu_config = options, cpu_config
    _controllers.clear()
    warm_boot_imports()


def _controller_for(name: str):
    """This worker's controller for chip ``name``, built on first use."""
    controller = _controllers.get(name)
    if controller is None:
        from ..accel import mesa_config
        from ..core import MesaController

        controller = MesaController(mesa_config(name), _cpu_config, _options)
        _controllers[name] = controller
    return controller


def _restore_regions(records: list[dict]) -> int:
    """Seed this worker's controllers; records for unknown chips are
    skipped."""
    seeded = 0
    for record in records:
        try:
            controller = _controller_for(record["config"])
        except Exception:
            continue
        seeded += controller.restore_cache_regions([record])
    return seeded


def _serve(payload: dict) -> Any:
    """The service's worker function: a boot-time ``{"seed": records}``,
    or one request payload run to a summary dict."""
    if "seed" in payload:
        return _restore_regions(payload["seed"])
    fault = payload.get("fault")
    if fault == "crash":
        # Injected fault: die exactly the way a segfaulting worker would —
        # no exception crosses the pipe, the parent sees EOF.
        os._exit(13)
    if fault == "hang":
        # Injected fault: wedge until the supervisor's deadline kills us.
        time.sleep(float(payload.get("hang_s", 3600.0)))

    from ..workloads import build_kernel

    kernel = build_kernel(payload["kernel"],
                          iterations=int(payload["iterations"]))
    if payload.get("mode") == "cpu":
        summary = cpu_baseline_summary(kernel.program, kernel.state_factory,
                                       _cpu_config)
    else:
        controller = _controller_for(payload.get("config", "M-128"))
        result = controller.execute(kernel.program, kernel.state_factory,
                                    parallelizable=bool(
                                        payload.get("parallelizable", False)))
        tally = result.cache_stats
        summary = result_summary(result)
        summary["cache_stats"] = (tally.hits, tally.misses, tally.evictions,
                                  tally.insertions)
        # Fresh insertions mean this worker configured something the
        # parent's store may not know yet; the full export is small
        # (bitstream words) and the store deduplicates by key.
        summary["new_regions"] = (controller.export_cache_regions()
                                  if tally.insertions else [])
    summary["pid"] = os.getpid()
    return summary


# -- parent side --------------------------------------------------------------


class ProcessWorkerPool(WorkerPool):
    """Fixed-size supervised pool of simulation worker processes.

    The server calls ``execute`` from executor threads with its
    ``(config, digest)`` coalescing key as ``affinity``, so identical
    regions tend to land on an already-warm process without serializing
    the pool behind one hot key.  ``seed_source`` returns the region
    records every freshly booted worker restores.
    """

    def __init__(self, workers: int, options=None, cpu_config=None,
                 start_method: str | None = None,
                 seed_source: Callable[[], list[dict]] | None = None) -> None:
        def seed() -> dict | None:
            records = list(seed_source())
            return {"seed": records} if records else None

        super().__init__(workers, _serve, initializer=_boot_worker,
                         initargs=(options, cpu_config),
                         start_method=start_method,
                         on_boot=seed if seed_source is not None else None)


class CircuitBreaker:
    """Per-key consecutive-failure circuit with half-open probing.

    A key (the server uses ``(config, region digest)``) whose last
    ``threshold`` requests all failed has its circuit *opened*: further
    requests are told to degrade to the CPU baseline instead of burning a
    worker on a region that keeps crashing or timing out.  Every
    ``probe_interval``-th request while open is let through as a probe —
    one success closes the circuit again.

    Single-threaded by design: the asyncio server consults it from the
    event loop only.
    """

    def __init__(self, threshold: int = 3, probe_interval: int = 8) -> None:
        if threshold < 1:
            raise ValueError("threshold must be positive")
        self.threshold = threshold
        self.probe_interval = max(0, probe_interval)
        self._failures: dict[Any, int] = {}
        self._last_error: dict[Any, str] = {}
        self._skipped: dict[Any, int] = {}

    def check(self, key: Any) -> str | None:
        """None = dispatch normally; a string = degrade, with the reason."""
        failures = self._failures.get(key, 0)
        if failures < self.threshold:
            return None
        skipped = self._skipped.get(key, 0) + 1
        self._skipped[key] = skipped
        if self.probe_interval and skipped % self.probe_interval == 0:
            return None  # half-open probe
        last = self._last_error.get(key, "repeated failures")
        return (f"circuit open after {failures} consecutive failures "
                f"({last}); served CPU baseline")

    def record(self, key: Any, ok: bool, error: str = "") -> None:
        if ok:
            self._failures.pop(key, None)
            self._last_error.pop(key, None)
            self._skipped.pop(key, None)
        else:
            self._failures[key] = self._failures.get(key, 0) + 1
            if error:
                self._last_error[key] = error

    def open_keys(self) -> list[Any]:
        return [key for key, failures in self._failures.items()
                if failures >= self.threshold]
