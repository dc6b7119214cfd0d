"""Layered benchmark of the Pro-Temp reproduction: one command, four workloads.

Run from the root of a checkout (no install needed; ``src`` is put on the
path)::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the same inputs twice, untraced and then with every
layer's public call wrapped in spans, and reports the per-layer metrics,
the tracing overhead and the share of request time no layer span covers.

Earlier lines of standard output are for people: provenance (git SHA
when available, a hash of ``src``, CPU count, Python and numpy versions),
every metric with its unit, the oracle's verdict.  The last line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Exit status is 0 when the run completed, whether or not outputs were
correct (``correct`` says which), and 2 when the program under test is
missing.  See ``perfbench/README.md`` for workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics, with their units, in BENCHMARK.json order.
END_TO_END = {
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in BENCHMARK.json order."""
    from harness.layers import metric_names

    units = {}
    for name in metric_names():
        if name.endswith("_s"):
            units[name] = "s"
        elif ".decide_us." in name or name.endswith("us_per_step"):
            units[name] = "us"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    units.update(
        {
            "request.latency_p50_s": "s",
            "request.latency_tail_s": "s",
            "request.tail_percentile": "%",
            "request.samples": "count",
            "serving.queued_s": "s",
            "serving.replay_pass_s": "s",
            "serving.journal_writes": "count",
            "serving.rejected": "count",
            "serving.reconcile_mismatches": "count",
            "setup.platform_s": "s",
            "setup.table_build_s": "s",
            "setup.server_boot_s": "s",
            "setup.prefill_s": "s",
            "trace.wall_s": "s",
            "trace.overhead_s": "s",
            "trace.overhead_pct": "%",
            "trace.unattributed_share": "ratio",
        }
    )
    return units


def end_to_end(outcome) -> dict[str, float]:
    from harness.stats import best_pace, median

    return {
        "cells_per_s": best_pace(outcome.untraced.rounds),
        "peak_rss_mb": outcome.peak_rss_mb,
        "setup_s": median(outcome.setup_s),
    }


def per_layer(outcome) -> dict[str, float]:
    from harness.layers import layer_metrics
    from harness.stats import LatencySummary, median

    traced = outcome.traced
    metrics: dict[str, float] = {name: 0.0 for name in per_layer_units()}
    latency = LatencySummary.of(outcome.untraced.latencies)
    metrics.update(
        {
            "request.latency_p50_s": latency.p50,
            "request.latency_tail_s": latency.tail,
            "request.tail_percentile": latency.tail_percentile,
            "request.samples": latency.samples,
        }
    )
    metrics.update(layer_metrics(traced.spans))
    for key, value in traced.extra.items():
        if key in metrics:
            metrics[key] = value
    for key, value in outcome.setup_parts.items():
        metrics[f"setup.{key}"] = value
    untraced_p50 = median(outcome.untraced.latencies)
    traced_p50 = median(traced.latencies)
    request_s = sum(total for total, _ in traced.coverage)
    covered_s = sum(covered for _, covered in traced.coverage)
    metrics.update(
        {
            "trace.wall_s": traced.wall_s,
            "trace.overhead_s": traced_p50 - untraced_p50,
            "trace.overhead_pct": 100.0 * (traced_p50 / untraced_p50 - 1.0),
            "trace.unattributed_share": (
                1.0 - covered_s / request_s if request_s else 0.0
            ),
        }
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=["paper-grid", "table-sweep", "zoo-tournament", "service-mix"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program under test at {src / 'repro'}; run from "
            "the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    from harness.stats import LatencySummary, provenance
    from harness.workloads import WORKLOADS, Context, work_dir

    work = work_dir(ROOT, args.workload)
    ctx = Context(
        root=ROOT,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        work=work,
    )
    print(
        f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print("provenance " + json.dumps(provenance(ROOT), sort_keys=True))
    try:
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = outcome.tally
    latency = LatencySummary.of(outcome.untraced.latencies)
    print(
        f"request: {outcome.request}; {len(outcome.untraced.rounds)} rounds, "
        f"{outcome.untraced.cells} cells in {outcome.untraced.wall_s:.2f} s"
    )
    print(
        f"latency p50 {latency.p50:.6g} s, tail {latency.tail:.6g} s: "
        f"{latency.samples} samples; tail is p{latency.tail_percentile:.2f} "
        "(at least ten samples beyond it from 21 samples up, else the median)"
    )
    print(
        f"setup: {len(outcome.setup_s)} repeats, parts "
        + json.dumps(outcome.setup_parts, sort_keys=True)
    )
    if args.trace:
        metrics = per_layer(outcome)
        units = per_layer_units()
    else:
        metrics = end_to_end(outcome)
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:<40s} {value:>16.6g} {units[name]}")
    print(
        f"failed_fraction {tally.failed_fraction:g} "
        f"({tally.failed} of {tally.attempted} attempted; by kind "
        f"{json.dumps(tally.failures, sort_keys=True)})"
    )
    for line in outcome.notes + tally.messages:
        print(line)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
