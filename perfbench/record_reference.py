"""Record ``reference.json``, the outputs the benchmark checks against.

Run from the repository root on a commit whose outputs are known good::

    python3 perfbench/record_reference.py

* ``fig11.rows`` — one whole ``fig11_rodinia(iterations=384)`` call;
* ``fig11.counts`` — the exact per-pass work counts of a traced pass, which
  also checks that the benchmark's per-kernel calls reproduce those rows;
* ``service`` — ``[accelerated, cache_hit, total_cycles]`` per
  ``chip/kernel/hit|miss``, from direct ``MesaController.execute`` runs: a
  first execute on a fresh controller is the miss, a second one the hit.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.enter_checkout()
    from repro.harness import fig11_rodinia
    from repro.service import ControllerPool
    from repro.workloads import FIG11_SET, build_kernel

    import scenarios
    from tracing import LayerTracer, SpanRecorder

    rows = fig11_rodinia(iterations=scenarios.FIG11_ITERATIONS,
                         workers=1).rows
    service = {}
    for chip in ("M-128", "M-512"):
        for name in FIG11_SET:
            kernel = build_kernel(name, iterations=scenarios.SERVE_ITERATIONS)
            controller = ControllerPool().controller(chip)
            for _ in ("miss", "hit"):
                result = controller.execute(
                    kernel.program, kernel.state_factory,
                    parallelizable=kernel.parallelizable)
                outcome = "hit" if result.config_cache_hit else "miss"
                service[f"{chip}/{name}/{outcome}"] = [
                    result.accelerated, result.config_cache_hit,
                    result.total_cycles]
    reference = {"fig11": {"rows": rows, "counts": {}}, "service": service}
    scenarios.REFERENCE.write_text(json.dumps(reference))

    fig11 = scenarios.Fig11(seed=0)
    fig11.setup()
    recorder = SpanRecorder()
    tracer = LayerTracer(recorder)
    tracer.install()
    try:
        window = fig11.window(0)  # one pass
    finally:
        tracer.uninstall()
    if window.failed:
        sys.exit(f"per-kernel calls differ from the whole figure: "
                 f"{window.failures}")
    metrics = run.per_layer(run.layer_totals(recorder, window.wall), 1)
    reference["fig11"]["counts"] = {name: metrics[name]["value"]
                                    for name in fig11.exact_counts}

    scenarios.REFERENCE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {scenarios.REFERENCE.name}: {len(rows)} rows, "
          f"{len(service)} service outcomes, "
          f"counts {reference['fig11']['counts']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
