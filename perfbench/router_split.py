"""router-split: one terminal over the wire to a router and two shards.

The cluster runs in a child process (``cluster_child.py``) so the
terminal's own Python work does not share a GIL with the servers.  The
terminal reaches the router through ``repro.net.connect``; the
benchmark also holds one direct connection per shard, which it uses to
read the state the checks need and to send each wide read to every
shard itself.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any

from repro.net import connect
from repro.tpcc import SCENARIOS

import checks
from stream import TOP_LIMIT, Terminal, phase_metrics
from tracer import Tracer, layer_metrics, merge_totals
from workloads import (
    PLANS,
    SETUPS,
    Outcome,
    client_seed,
    router_scale,
    settle,
    split_key_problems,
)

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "cluster_child.py")


class Child:
    """The cluster process, driven over its stdin/stdout."""

    def __init__(self, seed: int, trace: bool) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, CHILD, "--seed", str(seed),
             "--trace", "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            ready = self._read()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started
        self.router_port: int = ready["router"]
        self.shard_ports: list[int] = ready["shards"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"cluster process exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        """Ask the cluster to shut down and wait until the process has
        ended; kill it if it does not."""
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def run_router(seed: int, trace: bool) -> Outcome:
    plan = PLANS["router-split"]
    scenario = SCENARIOS[plan.scenario]
    scale = router_scale(seed)
    tracer = Tracer().install() if trace else None
    child = Child(seed, trace)
    conns: list[Any] = []
    try:
        terminal_conn = connect("127.0.0.1", child.router_port,
                                client_name="perfbench-terminal",
                                auto_prepare=128)
        conns.append(terminal_conn)
        shards = [connect("127.0.0.1", port, client_name="perfbench-check")
                  for port in child.shard_ports]
        conns += shards

        def query(sql: str) -> list[tuple]:
            return [tuple(row) for shard in shards
                    for row in shard.execute(sql).rows]

        def verify_scatter(sql: str, got: list[tuple]) -> list[str]:
            per_shard = [[tuple(row) for row in shard.execute(sql).rows]
                         for shard in shards]
            return checks.scatter_answer(
                f"router vs shards: {sql}", got,
                checks.merge_shards(sql, per_shard, TOP_LIMIT))

        start = checks.read_state(query, join_schema=False)
        problems = checks.consistency(start)
        terminal = Terminal(
            terminal_conn, scale, client_seed(seed),
            {key: next_o_id for key, (_ytd, next_o_id) in start.districts.items()},
            verify_scatter=verify_scatter,
        )
        phases = {"warmup": terminal.run_phase(
            "warmup", plan.deck(seed, "warmup"))}
        child.ask("collect")
        settle()
        if tracer is not None:
            child.ask("mark")
            tracer.enabled = True
        phases["base"] = terminal.run_phase("base", plan.deck(seed, "base"))
        child.ask("watch")
        child.ask("collect")
        settle()
        flipped = time.monotonic()
        switched = time.perf_counter()
        terminal_conn.meta(f"cluster migrate {plan.scenario}")
        terminal.client.variant = scenario["variant"]
        phases["migrating"] = terminal.run_phase(
            "migrating", plan.deck(seed, "migrating"), started=switched)
        if tracer is not None:
            tracer.enabled = False
        completion = child.ask("complete")
        report = child.ask("report")
        layers = by_process = None
        if tracer is not None:
            mine, server = tracer.totals(), report["totals"]
            layers = layer_metrics(merge_totals(mine, server))
            by_process = {"benchmark": layer_metrics(mine),
                          "server": layer_metrics(server)}
        if not completion["complete"] or completion["at"] is None:
            problems.append("cluster migration did not complete")
            drain_s = 0.0
        else:
            drain_s = completion["at"] - flipped
        end = checks.read_state(query, join_schema=False)
        problems += checks.consistency(end)
        problems += checks.ledger_deltas(start, end, terminal.ledger)
        problems += terminal.problems
        problems += split_key_problems(query, end, scale)
        metrics = phase_metrics(phases["base"], phases["migrating"])
        metrics["drain_s"] = (drain_s, "s")
        metrics["peak_rss_mb"] = (report["peak_rss_mb"], "MiB")
    finally:
        for conn in conns:
            conn.close()
        child.close()
        if tracer is not None:
            tracer.uninstall()
    if not trace:
        setups = [child.setup_s]
        for _ in range(SETUPS - 1):
            extra = Child(seed, trace=False)
            extra.close()
            setups.append(extra.setup_s)
        metrics["setup_s"] = (statistics.median(setups), "s")
    return Outcome(phases, metrics, problems, layers, by_process)
