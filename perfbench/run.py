"""Benchmark driver: one workload, one seed, one JSON line of metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload retailer-replay --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that wraps each layer's entry points and
reports the per-layer metrics, the tracing overhead and any hook whose
target is missing.  Metric names and units come from ``BENCHMARK.json``
at the checkout root.  Host provenance is printed before the result, and
traced runs write their spans to ``perfbench/results/``.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return _fail(f"no repro sources under {src}; run from a source checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)

    from perfbench.host import provenance
    from perfbench.workloads import WORKLOADS, run_replay, run_serve

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(WORKLOADS)}")
    host = provenance(ROOT)
    print("host " + json.dumps(host, sort_keys=True))
    runner = run_replay if workload.kind == "replay" else run_serve
    outcome = runner(workload, args.seed, args.seconds, bool(args.trace))

    wanted = manifest["per_layer"] if args.trace else manifest["end_to_end"]
    values = outcome.per_layer if args.trace else outcome.end_to_end
    if {m["name"] for m in wanted} != set(values):
        return _fail("BENCHMARK.json and the benchmark disagree on metric names: "
                     f"{sorted({m['name'] for m in wanted} ^ set(values))}")
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }
    for name, value in sorted(outcome.notes.items()):
        print(f"note {name} {json.dumps(value)}")
    if outcome.tracer is not None:
        for path, reason in sorted(outcome.tracer.unattached.items()):
            print(f"unattached {path} ({reason})")
        results = os.path.join(HERE, "results")
        os.makedirs(results, exist_ok=True)
        trace_path = os.path.join(
            results, f"trace-{args.workload}-seed{args.seed}.jsonl"
        )
        outcome.tracer.write(trace_path, {
            "workload": args.workload, "seed": args.seed, "host": host,
            "unattached": outcome.tracer.unattached, "notes": outcome.notes,
        })
        print(f"spans {os.path.relpath(trace_path, ROOT)}")
    for error in outcome.errors[:20]:
        print(f"error {error}", file=sys.stderr)
    correct = not outcome.errors and outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
