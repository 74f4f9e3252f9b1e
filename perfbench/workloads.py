"""The three workloads: their fixed phase lengths, scales, and runs.

A phase length is a number of stream blocks (100 TPC-C transactions
each, plus the plan's wide reads outside the base phase; see
``stream.py``).  The lengths are constants, not time windows, so every
run does the same work and only the host's speed changes the figures.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any

from repro.core import BackgroundConfig, MigrationController
from repro.core.background import BackgroundMigrator
from repro.db import Database
from repro.tpcc import SCENARIOS, ScaleConfig, create_schema, load_tpcc

import checks
from stream import Terminal, deck, phase_metrics
from tracer import Tracer, layer_metrics, version_walk

SETUPS = 3  # set-ups per run; setup_s is their median
DRAINS = 5  # timed drains per run, all but the last in a forked copy; drain_s is their median
DRAIN_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Plan:
    scenario: str
    warmup_blocks: int
    base_blocks: int
    migrating_blocks: int
    # Wide reads per warm-up and migrating block: 60 or more in the
    # migrating phase, whose reads give scatter_p50_ms.  Base blocks
    # have none; no metric reads them.
    wide_reads: int

    def deck(self, seed: int, phase: str) -> list[str]:
        blocks = {"warmup": self.warmup_blocks, "base": self.base_blocks,
                  "migrating": self.migrating_blocks}[phase]
        return deck(seed, phase, blocks,
                    0 if phase == "base" else self.wide_reads)


PLANS: dict[str, Plan] = {
    "tpcc-split": Plan("split", warmup_blocks=2, base_blocks=12,
                       migrating_blocks=20, wide_reads=3),
    # Six migrating blocks leave items for the drain on every seed
    # tried.  After ten, some seeds left none of the 1,000, and their
    # drain was one clean sweep, half the time of the others.
    "tpcc-join": Plan("join", warmup_blocks=2, base_blocks=12,
                      migrating_blocks=6, wide_reads=10),
    "router-split": Plan("split", warmup_blocks=1, base_blocks=8,
                         migrating_blocks=8, wide_reads=8),
}


def embedded_scale(seed: int) -> ScaleConfig:
    """The default scale: 1 warehouse, 3,000 customers, 1,000 items."""
    return ScaleConfig(seed=seed)


def router_scale(seed: int) -> ScaleConfig:
    """Two warehouses, one per shard, with a third of the default
    customers and orders per district so a set-up stays near 2 s."""
    return ScaleConfig(warehouses=2, customers_per_district=100,
                       initial_orders_per_district=100, seed=seed)


def settle() -> None:
    """A full collection before each timed phase.  Loading leaves
    millions of young objects; without this, whether a full collection
    (up to ~0.9 s on the default-scale heap) lands inside a phase varies
    from run to run.  Collections the phase's own work triggers still
    count."""
    gc.collect()


def drain(engine: Any, handle: Any) -> float | None:
    """Finish the migration with no foreground load, no start delay and
    the default pacing; the seconds it took, or None if it timed out."""
    migrator = BackgroundMigrator(engine, BackgroundConfig(delay=0.0))
    settle()
    started = time.perf_counter()
    migrator.start()
    complete = handle.await_completion(DRAIN_TIMEOUT_S)
    elapsed = time.perf_counter() - started
    migrator.stop()
    return elapsed if complete else None


def forked_drain(engine: Any, handle: Any) -> float | None:
    """:func:`drain` in a forked copy of this process, so the same
    leftover work can be drained, and timed, more than once; the run's
    own drain, last, is timed too.  A single
    drain of tpcc-split is ~0.2 s, short enough that the host's speed
    at that moment moved it by up to 30 % between runs.  The child
    collects its heap before the clock starts.  That writes to every
    object and so copies the pages it shares with the parent up front:
    the timed drain pays no copy-on-write faults that an in-process
    drain would not pay.  Without it, drain_s read 0.08-0.2 s higher."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            os.write(write_fd, json.dumps(drain(engine, handle)).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        reply = fh.read()
    os.waitpid(pid, 0)
    return json.loads(reply) if reply else None


def client_seed(seed: int) -> int:
    return 2 * seed + 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one run measured and found."""

    phases: dict[str, Any]
    metrics: dict[str, tuple[float, str]]
    problems: list[str]
    layers: dict[str, Any] | None = None
    # router-split's traced run: the same metrics for each process alone
    layers_by_process: dict[str, Any] | None = None


def split_key_problems(query, state: checks.State, scale: ScaleConfig) -> list[str]:
    """After the drain, both halves of the customer split hold every
    customer exactly once."""
    expected = {
        (w, d, c)
        for (w, d) in state.districts
        for c in range(1, scale.customers_per_district + 1)
    }
    problems: list[str] = []
    for table in ("customer_private", "customer_public"):
        keys = [tuple(row) for row in query(
            f"SELECT c_w_id, c_d_id, c_id FROM {table}")]
        problems += checks.migrated_keys(table, keys, expected, len(expected))
    return problems


def join_key_problems(start: checks.State, end: checks.State,
                      ledger: Any) -> list[str]:
    """After the drain, ``orderline_stock`` holds each order line once
    per stocking warehouse (every warehouse stocks every item): the
    loaded lines plus the lines the terminal committed."""
    warehouses = len(end.w_ytd)
    expected_rows = warehouses * (len(start.lines) + sum(ledger.lines.values()))
    return checks.migrated_keys(
        "orderline_stock", end.lines, None, expected_rows
    ) + checks.order_lines_complete(end)


def load(seed: int) -> tuple[Database, float]:
    started = time.perf_counter()
    db = Database()
    session = db.connect()
    create_schema(session)
    session.close()
    load_tpcc(db, embedded_scale(seed))
    return db, time.perf_counter() - started


def run_embedded(name: str, seed: int, trace: bool) -> Outcome:
    plan = PLANS[name]
    scenario = SCENARIOS[plan.scenario]
    scale = embedded_scale(seed)
    tracer = Tracer().install() if trace else None
    try:
        db, setup_s = load(seed)
        reader = db.connect()

        def query(sql: str) -> list[tuple]:
            return reader.execute(sql).rows

        start = checks.read_state(query, join_schema=False)
        problems = checks.consistency(start)
        terminal = Terminal(
            db.connect(), scale, client_seed(seed),
            {key: next_o_id for key, (_ytd, next_o_id) in start.districts.items()},
        )
        phases = {"warmup": terminal.run_phase(
            "warmup", plan.deck(seed, "warmup"))}
        settle()
        if tracer is not None:
            tracer.enabled = True
        phases["base"] = terminal.run_phase("base", plan.deck(seed, "base"))
        controller = MigrationController(db)
        settle()
        switched = time.perf_counter()
        handle = controller.submit(
            plan.scenario, scenario["ddl"], big_flip=scenario["big_flip"],
            background=BackgroundConfig(enabled=False),
        )
        terminal.client.variant = scenario["variant"]
        phases["migrating"] = terminal.run_phase(
            "migrating", plan.deck(seed, "migrating"), started=switched)
        drains = [forked_drain(controller.engine, handle)
                  for _ in range(DRAINS - 1)]
        # The last drain runs here and leaves the state the checks read.
        drains.append(drain(controller.engine, handle))
        rss_mb = peak_rss_mb()
        layers = None
        if tracer is not None:
            tracer.enabled = False
            totals = tracer.totals()
            totals["counts"].update(version_walk([db]))
            layers = layer_metrics(totals)
        if None in drains:
            problems.append(f"migration incomplete {DRAIN_TIMEOUT_S}s into a drain")
        end = checks.read_state(query, join_schema=plan.scenario == "join")
        problems += checks.consistency(end)
        problems += checks.ledger_deltas(start, end, terminal.ledger)
        problems += terminal.problems
        if plan.scenario == "split":
            problems += split_key_problems(query, end, scale)
        else:
            problems += join_key_problems(start, end, terminal.ledger)
        metrics = phase_metrics(phases["base"], phases["migrating"])
        if None not in drains:
            metrics["drain_s"] = (statistics.median(drains), "s")
        metrics["peak_rss_mb"] = (rss_mb, "MiB")
    finally:
        if tracer is not None:
            tracer.uninstall()
    # The extra set-ups must load next to an empty heap, as the first did.
    del db, reader, terminal, controller, handle, query
    gc.collect()
    if not trace:
        setups = [setup_s] + [load(seed)[1] for _ in range(SETUPS - 1)]
        metrics["setup_s"] = (statistics.median(setups), "s")
    return Outcome(phases, metrics, problems, layers)
