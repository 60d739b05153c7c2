"""Per-layer spans recorded from outside the program.

The benchmark does not instrument ``src/``.  Instead :class:`LayerTracer`
replaces each layer's public entry point with a wrapper that records a
:class:`Span` around the original call, and puts the original back on
:meth:`LayerTracer.uninstall`.  A span's parent is the innermost span open
on the same thread, so work that two threads interleave is never charged to
the wrong parent.  Coroutine spans (``MesaService.offload``) interleave on
one event-loop thread, so they are recorded as roots and open no scope.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable


@dataclass
class Span:
    name: str
    start: float
    end: float
    thread: int
    index: int
    parent: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for span in spans:
        covered = union_length(
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.index, ())
            if end > span.start and start < span.end)
        result.append(span.seconds - covered)
    return result


class SpanRecorder:
    """Keeps spans in memory, plus named counts taken at the same points."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, scoped: bool = True) -> Span:
        stack = self._stack()
        with self._lock:
            span = Span(name, time.perf_counter(), 0.0,
                        threading.get_ident(), len(self.spans),
                        stack[-1] if stack and scoped else None)
            self.spans.append(span)
        if scoped:
            stack.append(span.index)
        return span

    def close(self, span: Span, scoped: bool = True) -> None:
        span.end = time.perf_counter()
        if scoped:
            self._stack().pop()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def reset(self) -> None:
        with self._lock:
            self.spans = []
            self.counts = {}


# Layer entry points: (span name, module, attribute path, counter hook).
# A hook receives (recorder, args, result) after the original returns.

def _count_trace(recorder, args, result):
    recorder.count("cpu.trace.instr", len(result))


def _count_ooo(recorder, args, result):
    recorder.count("cpu.ooo.instr", len(args[1]))


def _count_execute(recorder, args, result):
    stats = result.cache_stats
    recorder.count("core.config_cache.hits", stats.hits)
    recorder.count("core.config_cache.misses", stats.misses)
    recorder.count("core.config_cache.evictions", stats.evictions)


def _count_engine(recorder, args, result):
    recorder.count("accel.engine.iterations", result.iterations)
    recorder.count("accel.engine.path." + result.drive_path)


ENTRY_POINTS = (
    ("cpu.trace", "repro.cpu.trace", "collect_trace", _count_trace),
    ("cpu.ooo", "repro.cpu.core", "OutOfOrderCore.run", _count_ooo),
    ("mem.hierarchy", "repro.mem.hierarchy", "MemoryHierarchy.__init__",
     None),
    ("core.detect", "repro.core.region", "CodeRegionDetector.detect", None),
    ("core.translate", "repro.core.ldfg", "build_ldfg", None),
    ("core.translate", "repro.core.memopt", "apply_memory_optimizations",
     None),
    ("core.map", "repro.core.mapping", "InstructionMapper.map", None),
    ("core.configure", "repro.core.configure", "build_program", None),
    ("core.configure", "repro.accel.bitstream", "encode_bitstream", None),
    ("core.execute", "repro.core.controller", "MesaController.execute",
     _count_execute),
    ("accel.engine", "repro.accel.engine", "DataflowEngine.run",
     _count_engine),
    ("service.offload", "repro.service.server", "MesaService.offload", None),
    ("harness.fig11", "repro.harness.figures", "fig11_rodinia", None),
)


def _wrap(recorder: SpanRecorder, name: str, original: Callable,
          hook) -> Callable:
    if inspect.iscoroutinefunction(original):
        @functools.wraps(original)
        async def traced_async(*args, **kwargs):
            span = recorder.open(name, scoped=False)
            try:
                result = await original(*args, **kwargs)
            finally:
                recorder.close(span, scoped=False)
            recorder.count(name + ".calls")
            return result
        return traced_async

    @functools.wraps(original)
    def traced(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(span)
        recorder.count(name + ".calls")
        if hook is not None:
            hook(recorder, args, result)
        return result
    return traced


class LayerTracer:
    """Installs and removes the span wrappers on every entry point.

    A module-level function is replaced in every loaded ``repro`` module
    that imported it by name, so ``from ..cpu import collect_trace`` call
    sites are traced too; a method is replaced on its class.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._patches: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._patches:
            return
        for name, module_name, path, hook in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = _wrap(self.recorder, name, original, hook)
            if outer:
                self._patch(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attr, None) is original):
                    self._patch(module, attr, wrapper)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
