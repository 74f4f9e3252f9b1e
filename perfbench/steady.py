"""Steadiness check: two sets of runs of the same commit must agree.

    python3 perfbench/steady.py --first-seed 600

Runs every workload ten times in each of two sets, each run with its
own seed, the workloads interleaved so a slow spell of the host falls
on all of them.  For every end-to-end metric it prints each set's
median and quartiles, the spread (interquartile distance over the
median) and how much worse the second set's median is than the first,
with each workload's mean wall time per run, then whether the sets
agree within the bounds in ``BENCHMARK.json``:

* each set's spread is within the metric's bound;
* the two medians differ by at most the bound, in either direction,
  since which set runs first is arbitrary;
* both sets fail the same share of operations.

A run whose checks fail stops the command.  Raw results go to
``perfbench-out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SETS, RUNS = 2, 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def summarize(sets: list[list[dict]], bounds: dict[str, dict]) -> bool:
    agree = True
    shares = [
        sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        for runs in sets
    ]
    for name, spec in bounds.items():
        cells, medians = [], []
        for runs in sets:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            medians.append(median)
            ok = spread <= spec["bound"]
            agree &= ok
            cells.append(f"{median:10.4g} [{q1:.4g}, {q3:.4g}] "
                         f"{100 * spread:5.1f}%{'' if ok else '!'}")
        worse = (medians[1] - medians[0]) / medians[0]
        if spec["better"] == "higher":
            worse = -worse
        ok = abs(worse) <= spec["bound"]
        agree &= ok
        print(f"  {name:18s} " + " | ".join(cells)
              + f" | worse by {100 * worse:+5.1f}%{'' if ok else '!'}"
              f" (bound {100 * spec['bound']:.0f}%)")
    same_share = shares[0] == shares[1]
    agree &= same_share
    print(f"  failed share per set: {shares}")
    return agree


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    results: dict[str, list[list[dict]]] = {
        w["name"]: [[], []] for w in bench["workloads"]}
    seed = args.first_seed
    for set_index in range(SETS):
        for _run in range(RUNS):
            for workload, sets in results.items():
                sets[set_index].append(
                    run_once(workload, seed, bench["run_seconds"]))
            seed += 1
    os.makedirs(os.path.join(ROOT, "perfbench-out"), exist_ok=True)
    with open(os.path.join(ROOT, "perfbench-out", "steady.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    agree = True
    for workload, sets in results.items():
        walls = [r["wall_s"] for runs in sets for r in runs]
        print(f"{workload}: {SETS} sets x {RUNS} runs, "
              f"{statistics.mean(walls):.1f} s of wall time per run; "
              "median [q1, q3] spread per set")
        agree &= summarize(sets, bounds)
    print("sets agree within BENCHMARK.json bounds:", "yes" if agree else "NO")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
