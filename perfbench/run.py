"""The repository benchmark: one workload, its end-to-end or per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload fig11 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
alternates untraced and traced windows, reports the per-layer metrics of the
traced ones, and their overhead against the untraced ones.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with its
unit, the error rate, and the host.  ``--workload all`` runs the three
workloads one after another and prints one such block for each.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Where a traced run writes its spans.
OUT = HERE / "out"

#: Setups per run (this process plus fresh interpreters); setup_s is their
#: median.
SETUP_SAMPLES = 3
#: Samples a p90 needs for ten of them to lie beyond it.
MIN_SAMPLES = 100
#: Untraced/traced window pairs in a traced run of a service workload.
TRACE_PAIRS = 2
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "req_per_s": "1/s",
                    "latency_p50_ms": "ms", "latency_p90_ms": "ms",
                    "peak_rss_mb": "MiB"}
LAYERS = ("cpu.trace", "cpu.ooo", "mem.hierarchy", "core.detect",
          "core.translate", "core.map", "core.configure", "core.execute",
          "accel.engine", "service.offload")
DRIVE_PATHS = {"batched": "batched", "compiled": "compiled",
               "batched+compiled": "batched_compiled",
               "interpreted": "interpreted"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def enter_checkout() -> None:
    """Import the package from this checkout's ``src``, writing no bytecode."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'repro'}; run from a "
                 f"checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


# ------------------------------------------------------------ end to end --

def setup_samples(args, first: float) -> list[float]:
    """``first`` plus setups timed in fresh interpreters."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def end_to_end(scenario, window, setup_s: float, rss: float) -> dict:
    from measure import percentile

    served = len(window.latencies)
    wall_s = (statistics.median(window.passes) if window.passes
              else window.wall / served)
    values = {"setup_s": setup_s,
              "wall_s": wall_s,
              "req_per_s": served / window.wall,
              "latency_p50_ms": 1e3 * percentile(window.latencies, 0.5),
              "latency_p90_ms": 1e3 * percentile(window.latencies, 0.9),
              "peak_rss_mb": rss}
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def measure(scenario, seconds: float):
    window = scenario.window(seconds)
    while len(window.latencies) < MIN_SAMPLES:
        window.add(scenario.window(seconds / 4))
    return window


# -------------------------------------------------------------- per layer --

def layer_totals(recorder, wall: float) -> dict[str, float]:
    """Seconds and counts per layer over one traced window."""
    from tracing import self_seconds, union_length

    spans = recorder.spans
    totals = dict(recorder.counts)
    for layer in LAYERS:
        totals[layer + ".s"] = sum(span.seconds for span in spans
                                   if span.name == layer)
    selfs = self_seconds(spans)
    totals["core.execute.self_s"] = sum(
        value for span, value in zip(spans, selfs)
        if span.name == "core.execute")
    totals["harness.other_s"] = wall - union_length(
        (span.start, span.end) for span in spans
        if not span.name.startswith("harness."))
    totals["seen"] = {span.name for span in spans}
    return totals


def per_layer(totals: dict, ops: int) -> dict:
    """The per-layer metrics, per operation, from summed window totals."""
    def get(key):
        return totals.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    hits, misses = get("core.config_cache.hits"), get("core.config_cache.misses")
    seconds = {
        "cpu.trace.s": get("cpu.trace.s"),
        "cpu.ooo.s": get("cpu.ooo.s"),
        "mem.hierarchy.build_s": get("mem.hierarchy.s"),
        "core.detect.s": get("core.detect.s"),
        "core.translate.s": get("core.translate.s"),
        "core.map.s": get("core.map.s"),
        "core.configure.s": get("core.configure.s"),
        "core.execute.s": get("core.execute.s"),
        "core.execute.self_s": get("core.execute.self_s"),
        "accel.engine.s": get("accel.engine.s"),
        "service.offload.s": get("service.offload.s"),
        "service.queue_wait.s": (get("service.offload.s")
                                 - get("service.execute.s")),
        "service.execute.s": get("service.execute.s"),
        "harness.other_s": get("harness.other_s"),
    }
    counts = {
        "cpu.trace.calls": get("cpu.trace.calls"),
        "cpu.trace.instr": get("cpu.trace.instr"),
        "cpu.ooo.calls": get("cpu.ooo.calls"),
        "mem.hierarchy.builds": get("mem.hierarchy.calls"),
        "core.map.calls": get("core.map.calls"),
        "core.config_cache.hits": hits,
        "core.config_cache.misses": misses,
        "core.config_cache.evictions": get("core.config_cache.evictions"),
        "accel.engine.runs": get("accel.engine.calls"),
        "accel.engine.iterations": get("accel.engine.iterations"),
        "service.coalesced": get("service.coalesced"),
        "service.worker_restarts": get("service.worker_restarts"),
    }
    for path, suffix in DRIVE_PATHS.items():
        counts["accel.engine.runs." + suffix] = get("accel.engine.path." + path)
    metrics = {name: {"value": value / ops, "unit": "s/op"}
               for name, value in seconds.items()}
    metrics.update({name: {"value": value / ops, "unit": "count/op"}
                    for name, value in counts.items()})
    metrics["cpu.trace.instr_per_s"] = {
        "value": ratio(get("cpu.trace.instr"), get("cpu.trace.s")),
        "unit": "instr/s"}
    metrics["cpu.ooo.instr_per_s"] = {
        "value": ratio(get("cpu.ooo.instr"), get("cpu.ooo.s")),
        "unit": "instr/s"}
    metrics["accel.engine.iter_per_s"] = {
        "value": ratio(get("accel.engine.iterations"), get("accel.engine.s")),
        "unit": "iter/s"}
    metrics["core.config_cache.hit_ratio"] = {
        "value": ratio(hits, hits + misses), "unit": "ratio"}
    return metrics


def service_totals(window) -> dict:
    """Layer counters the service reports itself over one window."""
    delta = window.service_delta
    return {"core.config_cache.hits": delta.cache.hits,
            "core.config_cache.misses": delta.cache.misses,
            "core.config_cache.evictions": delta.cache.evictions,
            "service.coalesced": delta.coalesced,
            "service.worker_restarts": delta.worker_restarts,
            "service.execute.s": window.execute_seconds}


def traced(scenario, seconds: float):
    """Alternate untraced and traced windows; per-layer metrics per op."""
    from scenarios import Window
    from tracing import LayerTracer, SpanRecorder

    recorder = SpanRecorder()
    tracer = LayerTracer(recorder)
    total, problems = Window(), []
    per_op_walls: list[dict[bool, float]] = []
    per_window, spans = [], []
    is_fig11 = scenario.name == "fig11"
    begin = time.perf_counter()
    pairs = 0
    while pairs < TRACE_PAIRS or time.perf_counter() - begin < seconds:
        per_op_walls.append({})
        for tracing_on in (False, True):
            recorder.reset()
            if tracing_on:
                tracer.install()
            try:
                # A fig11 window of 0 s is exactly one pass.
                window = scenario.window(
                    0 if is_fig11 else seconds / (2 * TRACE_PAIRS))
            finally:
                tracer.uninstall()
            total.add(window)
            ops = len(window.passes) or len(window.latencies)
            per_op_walls[-1][tracing_on] = window.wall / ops
            if tracing_on:
                totals = layer_totals(recorder, window.wall)
                if not is_fig11:
                    totals.update(service_totals(window))
                per_window.append((totals, ops))
                spans.append([[span.name, span.start, span.end, span.thread,
                               span.parent] for span in recorder.spans])
        pairs += 1

    seen = set().union(*(totals.pop("seen") for totals, _ in per_window))
    if is_fig11:
        # One pass per window: seconds are the median pass, and the work
        # counts must repeat exactly.
        passes = [per_layer(totals, ops) for totals, ops in per_window]
        problems += exact_count_problems(scenario, passes)
        metrics = {name: {"value": statistics.median(
                              p[name]["value"] for p in passes),
                          "unit": metric["unit"]}
                   for name, metric in passes[0].items()}
    else:
        summed: dict = {}
        for totals, _ in per_window:
            for key, value in totals.items():
                summed[key] = summed.get(key, 0) + value
        metrics = per_layer(summed, sum(ops for _, ops in per_window))
    # Each traced window is compared with the untraced one just before it,
    # so a drift in host speed between pairs cancels.
    metrics["tracing.overhead"] = {
        "value": statistics.median(pair[True] / pair[False]
                                   for pair in per_op_walls) - 1.0,
        "unit": "ratio"}
    missing = [layer for layer in scenario.expected_layers
               if layer not in seen]
    if missing:
        problems.append(f"traced layers recorded no span: {missing}")
    return total, metrics, problems, spans


def exact_count_problems(scenario, passes: list[dict]) -> list[str]:
    from scenarios import load_reference

    expected = load_reference()["fig11"]["counts"]
    problems = []
    for name in scenario.exact_counts:
        seen = sorted({p[name]["value"] for p in passes})
        if seen != [expected[name]]:
            problems.append(f"{name} per pass {seen} != {expected[name]}")
    return problems


# ------------------------------------------------------------------ main --

def run(args) -> bool:
    from measure import host_record, peak_rss_mb
    from scenarios import SCENARIOS

    if args.workload not in SCENARIOS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose "
                 f"from {', '.join(SCENARIOS)} or all")
    scenario = SCENARIOS[args.workload](args.seed)
    scenario.setup()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        scenario.close()
        print(json.dumps({"setup_s": setup_s}))
        return True
    try:
        if args.trace:
            window, metrics, problems, spans = traced(scenario, args.seconds)
        else:
            window = measure(scenario, args.seconds)
            problems = []
    finally:
        scenario.close()
    if not args.trace:
        rss = peak_rss_mb(scenario.worker_processes)
        samples = setup_samples(args, setup_s)
        metrics = end_to_end(scenario, window, statistics.median(samples),
                             rss)
    # Warm-up outputs are checked too: a wrong one is a failed operation.
    window.attempted += scenario.warmup.attempted
    window.failed += scenario.warmup.failed
    problems = scenario.warmup.failures + window.failures + problems
    correct = window.failed == 0 and not problems
    host = host_record(ROOT)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        (OUT / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"host": host, "metrics": metrics,
                        "span_fields": ["name", "start", "end", "thread",
                                        "parent"],
                        "traced_windows": spans}))

    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace} window {args.seconds:g}s")
    print("host " + json.dumps(host, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    if not args.trace:
        print(f"  {'latency samples':34s} {len(window.latencies):14d}")
    print(f"  {'error_rate':34s} "
          f"{window.failed / max(1, window.attempted):14.6g} ratio "
          f"({window.failed} of {window.attempted})")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": window.attempted,
                      "failed": window.failed, "metrics": metrics}))
    return correct


def main(argv=None) -> int:
    args = parse_args(argv)
    enter_checkout()
    if args.workload != "all":
        return 0 if run(args) else 1
    from scenarios import SCENARIOS

    ok = True
    for name in SCENARIOS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        ok = ok and done.returncode == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
