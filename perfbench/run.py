"""Run one workload of the benchmark and print its result.

    python3 perfbench/run.py --workload tpcc-split --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from
``src/``; nothing is built.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it gives the operations
attempted and failed per phase, with failures by error class, and any
failed check.  A failed check also makes the exit code 1.  A traced
run also writes every per-layer metric to
``perfbench-out/trace-<workload>-seed<seed>.json``.

The work is fixed (see ``workloads.PLANS``), not a time window:
``--seconds`` is part of the command line (``run_seconds`` in
``BENCHMARK.json``) and does not change what a run does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("tpcc-split", "tpcc-join", "router-split")
END_TO_END_ORDER = (
    "setup_s", "base_tps", "tps", "new_order_p50_ms", "new_order_p95_ms",
    "payment_p50_ms", "drain_s", "scatter_p50_ms", "peak_rss_mb",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # One CPU for the run and the cluster process it starts.  On a VM, a
    # request that hops between vCPUs waits for the hypervisor to wake
    # the idle one: unpinned on a 2-vCPU VM, router-split ran half as
    # fast, with seconds of steal time per run, in spells of minutes.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import selftest
    from router_split import run_router
    from workloads import run_embedded

    problems = [f"check self-test: {p}" for p in selftest.run()]
    trace = bool(args.trace)
    if args.workload == "router-split":
        outcome = run_router(args.seed, trace)
    else:
        outcome = run_embedded(args.workload, args.seed, trace)
    problems += outcome.problems

    phases = {name: phase.summary() for name, phase in outcome.phases.items()}
    attempted = sum(phase.attempted for phase in outcome.phases.values())
    failed = sum(phase.failed for phase in outcome.phases.values())
    end_to_end = {
        name: {"value": outcome.metrics[name][0], "unit": outcome.metrics[name][1]}
        for name in END_TO_END_ORDER if name in outcome.metrics
    }
    detail = {"workload": args.workload, "seed": args.seed, "phases": phases,
              "problems": problems}
    if trace:
        detail["traced_end_to_end"] = end_to_end
        os.makedirs(os.path.join(ROOT, "perfbench-out"), exist_ok=True)
        path = os.path.join(
            ROOT, "perfbench-out",
            f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({**detail, "per_layer": outcome.layers,
                       "per_layer_by_process": outcome.layers_by_process},
                      fh, indent=2)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": outcome.layers if trace else end_to_end,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
