"""Unit tests for the benchmark's helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import sys
import threading
from pathlib import Path

import pytest

from measure import TAIL_SAMPLES, percentile
from tracing import (LayerTracer, Span, SpanRecorder, self_seconds,
                     union_length)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


# -- percentile ---------------------------------------------------------------

def test_p90_of_100_samples_leaves_ten_beyond():
    samples = [float(value) for value in range(1, 101)]
    assert percentile(samples, 0.9) == 90.0
    assert sum(1 for s in samples if s > 90.0) == TAIL_SAMPLES


def test_p90_refused_with_fewer_than_ten_beyond():
    with pytest.raises(ValueError, match="need 10"):
        percentile([float(value) for value in range(99)], 0.9)


def test_percentile_ignores_input_order():
    samples = [float(value) for value in range(200)]
    assert percentile(samples[::-1], 0.5) == percentile(samples, 0.5) == 99.0


# -- spans --------------------------------------------------------------------

def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4


def test_self_time_counts_only_own_thread_children():
    # Two threads interleave: each parent's child overlaps the other
    # thread's parent in wall time, but belongs to its own parent only.
    spans = [
        Span("core.execute", 0.0, 10.0, thread=1, index=0),
        Span("core.execute", 1.0, 11.0, thread=2, index=1),
        Span("cpu.trace", 2.0, 5.0, thread=1, index=2, parent=0),
        Span("cpu.trace", 4.0, 10.0, thread=2, index=3, parent=1),
        Span("cpu.ooo", 6.0, 8.0, thread=1, index=4, parent=0),
    ]
    assert self_seconds(spans) == [5.0, 4.0, 3.0, 6.0, 2.0]


def test_self_time_clips_overlapping_children():
    spans = [Span("core.execute", 0.0, 4.0, 1, 0),
             Span("accel.engine", 1.0, 3.0, 1, 1, parent=0),
             Span("mem.hierarchy", 2.0, 5.0, 1, 2, parent=0)]
    assert self_seconds(spans)[0] == 1.0


def test_recorder_parents_spans_per_thread():
    recorder = SpanRecorder()
    barrier = threading.Barrier(2, timeout=10)

    def worker():
        outer = recorder.open("core.execute")
        barrier.wait()  # both parents open before either child
        inner = recorder.open("cpu.trace")
        barrier.wait()
        recorder.close(inner)
        recorder.close(outer)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_index = {span.index: span for span in recorder.spans}
    children = [span for span in recorder.spans if span.name == "cpu.trace"]
    assert len(children) == 2
    for child in children:
        parent = by_index[child.parent]
        assert parent.name == "core.execute"
        assert parent.thread == child.thread


def test_tracer_wraps_and_restores_entry_points():
    import repro.core.controller as controller
    import repro.cpu as cpu

    original = cpu.collect_trace
    recorder = SpanRecorder()
    tracer = LayerTracer(recorder)
    tracer.install()
    try:
        assert controller.collect_trace is not original
        assert cpu.collect_trace is controller.collect_trace
    finally:
        tracer.uninstall()
    assert cpu.collect_trace is original
    assert controller.collect_trace is original
