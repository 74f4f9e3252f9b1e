"""Per-layer ledger for the traced run.

The program has no spans of its own at these boundaries yet, so the
benchmark wraps the public entry points of each layer from outside:
every wrapped call is a frame on a per-thread stack, and a frame's self
time is its duration minus the time of the wrapped frames it called.
Counts are taken at the same boundaries.  Nothing here is installed in
an untraced run.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable

from repro import db as db_module
from repro.cluster.router import RouterDatabase
from repro.core.background import BackgroundMigrator
from repro.core.controller import MigrationController
from repro.core.engine import LazyMigrationEngine
from repro.core.stats import MigrationStats
from repro.db import Database, Session
from repro.exec.executor import Executor
from repro.exec.planner import Planner
from repro.net import protocol
from repro.net.client import Connection
from repro.storage.heap import HeapTable
from repro.storage.index import HashIndex, OrderedIndex
from repro.txn.locks import LockManager
from repro.txn.manager import Transaction

# (metric, unit, how): how is ("self"|"incl", frame keys joined by "+")
# for a time,
# ("calls", frame key) or ("count", counter) for a count, and
# ("p50", sample list) for a latency median.  Order is the output order.
LAYER_METRICS: tuple[tuple[str, str, tuple[str, str]], ...] = (
    ("sql.parse_ms", "ms", ("self", "sql.parse+sql.parse_statement")),
    ("sql.parse_misses", "count", ("calls", "sql.parse_statement")),
    ("db.execute_ms", "ms", ("self", "db.execute+db.execute_statement")),
    ("db.plan_cache_misses", "count", ("count", "plan_cache_misses")),
    ("exec.plan_ms", "ms", ("self", "exec.plan")),
    ("exec.plan_calls", "count", ("calls", "exec.plan")),
    ("exec.run_ms", "ms", ("self", "exec.run")),
    ("exec.run_calls", "count", ("calls", "exec.run")),
    ("storage.heap_ms", "ms", ("self", "storage.heap")),
    ("storage.rows_scanned", "count", ("count", "rows_scanned")),
    ("storage.index_probes", "count", ("calls", "storage.index")),
    ("storage.max_chain_depth", "count", ("count", "max_chain_depth")),
    ("storage.versions", "count", ("count", "versions")),
    ("txn.lock_ms", "ms", ("self", "txn.lock")),
    ("txn.lock_calls", "count", ("calls", "txn.lock")),
    ("txn.commit_ms", "ms", ("self", "txn.commit+txn.abort")),
    ("txn.commits", "count", ("calls", "txn.commit")),
    ("txn.aborts", "count", ("calls", "txn.abort")),
    ("txn.wal_records", "count", ("count", "wal_records")),
    ("core.switch_ms", "ms", ("incl", "core.switch")),
    ("core.intercept_ms", "ms", ("self", "core.intercept")),
    ("core.intercept_calls", "count", ("calls", "core.intercept")),
    ("core.migrate_ms", "ms", ("incl", "core.migrate")),
    ("core.granules_on_access", "count", ("count", "granules_on_access")),
    ("core.tuples_on_access", "count", ("count", "tuples_on_access")),
    ("core.skip_waits", "count", ("count", "skip_waits")),
    ("core.drain_granules", "count", ("count", "background_granules")),
    ("core.background_ms", "ms", ("incl", "core.background")),
    ("net.frames", "count", ("calls", "net.encode")),
    ("net.bytes", "count", ("count", "net_bytes")),
    ("net.roundtrip_p50_us", "us", ("p50", "net.roundtrip")),
    ("net.server_stmt_p50_us", "us", ("p50", "net.server_stmt")),
    ("cluster.route_ms", "ms", ("self", "cluster.route")),
    ("cluster.route_calls", "count", ("calls", "cluster.route")),
    ("cluster.shard_roundtrip_p50_us", "us", ("p50", "cluster.shard_roundtrip")),
    ("cluster.scatter_ms", "ms", ("self", "cluster.scatter")),
    ("cluster.scatter_calls", "count", ("calls", "cluster.scatter")),
    ("cluster.flip_ms", "ms", ("incl", "cluster.flip")),
    ("obs.statement_ms", "ms", ("self", "obs.statement")),
)


class _ThreadLedger:
    __slots__ = ("stack", "depth", "self_s", "incl_s", "calls", "counts",
                 "samples")

    def __init__(self) -> None:
        self.stack: list[float] = []
        self.depth: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)


class Tracer:
    """Wraps layer entry points; records only while ``enabled``.

    Each thread writes its own :class:`_ThreadLedger`, so the hot path
    takes no lock; :meth:`totals` merges them.
    """

    def __init__(self, server: bool = False) -> None:
        self.enabled = False
        # True in the process that serves the router and the shards:
        # there a plain ``Session.execute_statement`` is a shard's
        # statement and a wire ``Connection`` is a router-to-shard link.
        self.server = server
        self._local = threading.local()
        self._ledgers: list[_ThreadLedger] = []
        self._ledgers_latch = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _ledger(self) -> _ThreadLedger:
        ledger = getattr(self._local, "ledger", None)
        if ledger is None:
            ledger = self._local.ledger = _ThreadLedger()
            with self._ledgers_latch:
                self._ledgers.append(ledger)
        return ledger

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self._ledger().counts[name] += amount

    def _server_statement(self, session: Any, *_args: Any) -> bool:
        # RouterSession overrides execute_statement; a plain Session in
        # the server process is a shard executing a routed statement.
        return self.server and type(session) is Session

    def in_frame(self, key: str) -> bool:
        return self._ledger().depth[key] > 0

    def timed(self, fn: Callable, key: str, sample: str | None = None,
              keep: Callable[..., bool] | None = None) -> Callable:
        """``fn`` as a frame named ``key``.  ``sample`` also records the
        outermost call's wall time (µs) for a median; ``keep`` filters
        which calls are sampled."""
        tracer = self
        perf_counter = time.perf_counter

        def frame(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            ledger = tracer._ledger()
            stack = ledger.stack
            depth = ledger.depth
            outermost = depth[key] == 0
            depth[key] += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                depth[key] -= 1
                ledger.self_s[key] += elapsed - children
                ledger.calls[key] += 1
                if outermost:
                    ledger.incl_s[key] += elapsed
                    if sample is not None and (keep is None or keep(*args)):
                        ledger.samples[sample].append(elapsed * 1e6)
                if stack:
                    stack[-1] += elapsed

        frame.__wrapped__ = fn
        return frame

    def timed_iter(self, fn: Callable, key: str, rows: str | None) -> Callable:
        """A generator function as one frame per ``next``; ``rows``
        counts the items it yields."""
        tracer = self

        def generator(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            if not tracer.enabled:
                yield from iterator
                return
            step = tracer.timed(iterator.__next__, key)
            counts = tracer._ledger().counts
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                if rows is not None:
                    counts[rows] += 1
                yield item

        generator.__wrapped__ = fn
        return generator

    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every layer boundary the per-layer table names."""
        p, t = self.patch, self.timed
        p(Database, "parse", t(Database.parse, "sql.parse"))
        p(db_module, "parse_statement",
          t(db_module.parse_statement, "sql.parse_statement"))

        p(Session, "execute", t(Session.execute, "db.execute"))
        p(Session, "execute_statement",
          t(Session.execute_statement, "db.execute_statement",
            sample="net.server_stmt", keep=self._server_statement))
        cached_plan = Database.cached_plan

        def counted_cached_plan(database, key, builder):
            def build():
                self.count("plan_cache_misses")
                return builder()
            return cached_plan(database, key, build)
        p(Database, "cached_plan", counted_cached_plan)

        p(Planner, "plan_select", t(Planner.plan_select, "exec.plan"))
        p(Planner, "plan_dml_scan", t(Planner.plan_dml_scan, "exec.plan"))
        for name in ("run_select", "run_select_for_update", "run_insert",
                     "run_update", "run_delete"):
            p(Executor, name, t(getattr(Executor, name), "exec.run"))

        for name in ("insert", "read", "read_version", "update", "delete",
                     "restore"):
            p(HeapTable, name, t(getattr(HeapTable, name), "storage.heap"))
        for name in ("scan", "scan_snapshot", "scan_range"):
            p(HeapTable, name, self.timed_iter(
                getattr(HeapTable, name), "storage.heap", "rows_scanned"))
        for cls in (HashIndex, OrderedIndex):
            p(cls, "lookup", t(cls.lookup, "storage.index"))
            p(cls, "contains", t(cls.contains, "storage.index"))
        for name in ("range_scan", "prefix_scan"):
            p(OrderedIndex, name, self.timed_iter(
                getattr(OrderedIndex, name), "storage.index", None))

        p(LockManager, "acquire", t(LockManager.acquire, "txn.lock"))
        p(Transaction, "commit", t(Transaction.commit, "txn.commit"))
        p(Transaction, "abort", t(Transaction.abort, "txn.abort"))

        p(MigrationController, "submit",
          t(MigrationController.submit, "core.switch"))
        p(LazyMigrationEngine, "_intercept",
          t(LazyMigrationEngine._intercept, "core.intercept"))
        p(LazyMigrationEngine, "migrate_scope",
          t(LazyMigrationEngine.migrate_scope, "core.migrate"))
        p(BackgroundMigrator, "_bitmap_pass",
          t(BackgroundMigrator._bitmap_pass, "core.background"))
        p(BackgroundMigrator, "_hashmap_pass",
          t(BackgroundMigrator._hashmap_pass, "core.background"))
        stats_add = MigrationStats.add

        def add(stats, granules=0, tuples=0):
            if self.in_frame("core.background"):
                self.count("background_granules", granules)
            elif self.in_frame("core.intercept"):
                self.count("granules_on_access", granules)
                self.count("tuples_on_access", tuples)
            return stats_add(stats, granules, tuples)
        p(MigrationStats, "add", add)
        add_skip_wait = MigrationStats.add_skip_wait

        def skip_wait(stats, count=1):
            self.count("skip_waits", count)
            return add_skip_wait(stats, count)
        p(MigrationStats, "add_skip_wait", skip_wait)

        encode_frame = protocol.encode_frame

        def encode(ftype, payload=b""):
            frame = encode_frame(ftype, payload)
            self.count("net_bytes", len(frame))
            return frame
        p(protocol, "encode_frame", t(encode, "net.encode"))
        # A wire client is the terminal in the benchmark process and the
        # router's shard connections in the server process.
        roundtrip = "cluster.shard_roundtrip" if self.server else "net.roundtrip"
        p(Connection, "execute",
          t(Connection.execute, "net.client", sample=roundtrip))
        p(Connection, "execute_prepared",
          t(Connection.execute_prepared, "net.client", sample=roundtrip))

        p(RouterDatabase, "route_plan",
          t(RouterDatabase.route_plan, "cluster.route"))
        p(RouterDatabase, "scatter",
          t(RouterDatabase.scatter, "cluster.scatter"))
        p(RouterDatabase, "cluster_migrate",
          t(RouterDatabase.cluster_migrate, "cluster.flip"))
        return self

    def wrap_observability(self, obs: Any) -> Any:
        """``Observability`` installs its statement hooks per instance,
        so they are wrapped on each instance the benchmark creates."""
        obs.statement_begin = self.timed(obs.statement_begin, "obs.statement")
        obs.statement_done = self.timed(obs.statement_done, "obs.statement")
        return obs

    # ------------------------------------------------------------------
    def totals(self) -> dict[str, Any]:
        """Merged raw ledgers: plain dicts, so a child process can send
        them as JSON and the parent can add them to its own."""
        with self._ledgers_latch:
            ledgers = list(self._ledgers)
        return merge_totals(*(
            {key: getattr(ledger, key) for key in _TOTALS} for ledger in ledgers
        ))


_TOTALS = ("self_s", "incl_s", "calls", "counts", "samples")


def merge_totals(*parts: dict[str, Any]) -> dict[str, Any]:
    merged: dict[str, Any] = {key: Counter() for key in _TOTALS}
    merged["samples"] = defaultdict(list)
    for part in parts:
        for key in ("self_s", "incl_s", "calls", "counts"):
            merged[key].update(part.get(key, {}))
        for name, values in part.get("samples", {}).items():
            merged["samples"][name].extend(values)
    return {key: dict(value) for key, value in merged.items()}


def layer_metrics(totals: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """The per-layer metrics named in ``BENCHMARK.json`` from merged
    totals.  A layer the workload never crosses reads 0."""
    metrics: dict[str, dict[str, Any]] = {}
    for name, unit, (how, key) in LAYER_METRICS:
        if how in ("self", "incl"):
            value = 1000.0 * sum(
                totals[f"{how}_s"].get(part, 0.0) for part in key.split("+")
            )
        elif how == "calls":
            value = totals["calls"].get(key, 0)
        elif how == "count":
            value = totals["counts"].get(key, 0)
        else:
            samples = totals["samples"].get(key, [])
            value = statistics.median(samples) if samples else 0.0
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def version_walk(databases: list[Database]) -> dict[str, int]:
    """End-of-run walk of every tuple's version chain through
    ``HeapTable.read_version``, plus the REDO log length."""
    deepest = versions = wal_records = 0
    for database in databases:
        for table in database.catalog.tables():
            heap = table.heap
            for ordinal in range(heap.max_ordinal):
                head = heap.read_version(heap.tid_from_ordinal(ordinal))
                depth = 0
                while head is not None:
                    depth += 1
                    head = head.prev
                versions += depth
                deepest = max(deepest, depth)
        wal_records += len(database.txns.wal.records())
    return {"max_chain_depth": deepest, "versions": versions,
            "wal_records": wal_records}
