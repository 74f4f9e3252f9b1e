"""The fixed, seeded operation stream and the one terminal that runs it.

A stream is a deck of blocks.  Each block holds exactly the paper's
TPC-C mix per 100 transactions (NewOrder 45, Payment 43, Delivery 4,
OrderStatus 4, StockLevel 4) plus the phase's number of wide reads,
shuffled by the seed.  Fixing the counts per block keeps the work of a
phase the same on every seed; the seed chooses the order and every
transaction's parameters.

The terminal's session is wrapped in :class:`RecordingSession`, which
books the effects of each *committed* transaction in a :class:`Ledger`
from the statements and parameters the terminal itself sent.  The
output checks compare the database against that ledger.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Any, Callable

from repro.errors import ReproError, StorageError
from repro.tpcc import TRANSACTION_MIX, TpccClient

import checks

TPCC_BLOCK = tuple(
    name for name, weight in TRANSACTION_MIX for _ in range(weight)
)

# The two cross-warehouse reads.  On router-split both fan out to every
# shard; embedded they are the same whole-table reads over one
# partition.  The ORDER BY is total, so the merge is well defined.
COUNT_SQL = "SELECT COUNT(*) FROM orders"
TOP_SQL = (
    "SELECT o_id, o_w_id, o_d_id FROM orders "
    "ORDER BY o_id DESC, o_w_id, o_d_id LIMIT 10"
)
TOP_LIMIT = 10


def deck(seed: int, phase: str, blocks: int, wide_reads: int) -> list[str]:
    """``blocks`` blocks of the TPC-C mix, each with ``wide_reads``
    wide reads shuffled in."""
    rng = random.Random(f"perfbench-deck-{seed}-{phase}")
    ops: list[str] = []
    for _ in range(blocks):
        block = list(TPCC_BLOCK) + ["scatter"] * wide_reads
        rng.shuffle(block)
        ops.extend(block)
    return ops


# ----------------------------------------------------------------------
# The ledger of committed effects
# ----------------------------------------------------------------------
_KINDS = (
    ("UPDATE district SET d_next_o_id", "new_order"),
    ("UPDATE warehouse SET w_ytd", "payment"),
    ("INSERT INTO history", "history"),
    ("INSERT INTO order_line", "line"),
    ("INSERT INTO orderline_stock", "line"),
)


def _kind(sql: str) -> str | None:
    for prefix, kind in _KINDS:
        if sql.startswith(prefix):
            return kind
    return None


@dataclass
class Ledger:
    new_orders: Counter = field(default_factory=Counter)  # (w, d) -> n
    lines: Counter = field(default_factory=Counter)  # (w, d) -> n
    payments: defaultdict = field(
        default_factory=lambda: defaultdict(Decimal))  # w -> amount
    history_rows: Counter = field(default_factory=Counter)  # w -> n
    history_amounts: defaultdict = field(
        default_factory=lambda: defaultdict(Decimal))  # w -> amount

    def apply(self, kind: str, params: Any) -> None:
        if kind == "new_order":
            self.new_orders[(params[0], params[1])] += 1
        elif kind == "payment":
            self.payments[params[1]] += params[0]
        elif kind == "history":
            self.history_rows[params[4]] += 1
            self.history_amounts[params[4]] += params[6]
        else:
            self.lines[(params[0], params[1])] += 1


class RecordingSession:
    """The terminal's session: forwards every call and books the
    watched statements of a transaction into the ledger at COMMIT."""

    def __init__(self, inner: Any, ledger: Ledger) -> None:
        self.inner = inner
        self.ledger = ledger
        self._pending: list[tuple[str, Any]] = []
        self._kinds: dict[str, str | None] = {}

    @property
    def in_transaction(self) -> bool:
        return self.inner.in_transaction

    def begin(self) -> Any:
        self._pending.clear()
        return self.inner.begin()

    def execute(self, sql: str, params: Any = ()) -> Any:
        result = self.inner.execute(sql, params)
        kinds = self._kinds
        kind = kinds[sql] if sql in kinds else kinds.setdefault(sql, _kind(sql))
        if kind is not None:
            self._pending.append((kind, params))
        return result

    def commit(self) -> None:
        self.inner.commit()
        for kind, params in self._pending:
            self.ledger.apply(kind, params)
        self._pending.clear()

    def rollback(self) -> None:
        self._pending.clear()
        self.inner.rollback()

    def reset(self) -> None:
        self._pending.clear()
        self.inner.reset()


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
@dataclass
class PhaseResult:
    name: str
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    seconds: float = 0.0
    transactions: int = 0  # completed TPC-C transactions
    latencies: defaultdict = field(default_factory=lambda: defaultdict(list))

    def summary(self) -> dict[str, Any]:
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": dict(self.errors)}


def error_name(exc: BaseException) -> str:
    """Failure class for the per-phase breakdown.  The read-committed
    dirty-write fault (a rolled-back insert under a concurrent update)
    surfaces as a StorageError naming an already-deleted tuple; it gets
    its own name so it cannot hide among other storage errors."""
    if isinstance(exc, StorageError) and "already deleted" in str(exc):
        return "StorageError:already-deleted"
    return type(exc).__name__


class Terminal:
    """One TPC-C terminal plus the wide reads, over any session with
    the ``Session`` statement API (embedded or a wire connection).

    ``next_o_ids`` is each district's D_NEXT_O_ID when the ledger
    started; with the ledger it predicts every wide read's answer.
    ``verify_scatter`` (router-split) compares a read with the
    benchmark's own merge of the same query sent to each shard."""

    def __init__(
        self,
        session: Any,
        scale: Any,
        seed: int,
        next_o_ids: dict[tuple[int, int], int],
        verify_scatter: Callable[[str, list[tuple]], list[str]] | None = None,
    ) -> None:
        self.ledger = Ledger()
        self.session = RecordingSession(session, self.ledger)
        self.client = TpccClient(None, scale, seed=seed, session=self.session)
        self.next_o_ids = next_o_ids
        self.verify_scatter = verify_scatter
        self.problems: list[str] = []

    def scatter(self) -> float:
        """Both wide reads; returns their time.  The checks that follow
        are not part of the operation."""
        session = self.session.inner
        started = time.perf_counter()
        count = [tuple(row) for row in session.execute(COUNT_SQL).rows]
        top = [tuple(row) for row in session.execute(TOP_SQL).rows]
        elapsed = time.perf_counter() - started
        expected_count, expected_top = checks.expected_scatter(
            self.next_o_ids, self.ledger.new_orders, TOP_LIMIT)
        self.problems += checks.scatter_answer(
            COUNT_SQL, count, [(expected_count,)])
        self.problems += checks.scatter_answer(TOP_SQL, top, expected_top)
        if self.verify_scatter is not None:
            self.problems += self.verify_scatter(COUNT_SQL, count)
            self.problems += self.verify_scatter(TOP_SQL, top)
        return elapsed

    def run_phase(self, name: str, ops: list[str],
                  started: float | None = None) -> PhaseResult:
        """Run ``ops`` in order; the clock starts at ``started`` when
        the caller has already begun the phase (the migration switch).
        The phase's seconds are TPC-C time: they leave out the wide
        reads and their checks, which have their own latency."""
        result = PhaseResult(name)
        latencies = result.latencies
        client = self.client
        perf_counter = time.perf_counter
        wide = 0.0
        begin = perf_counter() if started is None else started
        for op in ops:
            result.attempted += 1
            t0 = perf_counter()
            try:
                if op == "scatter":
                    latencies[op].append(self.scatter())
                    wide += perf_counter() - t0
                    continue
                if not client.run(op):
                    result.failed += 1
                    result.errors["TransactionAborted"] += 1
                    continue
            except ReproError as exc:
                result.failed += 1
                result.errors[error_name(exc)] += 1
                self.session.reset()
                continue
            latencies[op].append(perf_counter() - t0)
        result.seconds = perf_counter() - begin - wide
        result.transactions = sum(
            len(values) for op, values in latencies.items() if op != "scatter"
        )
        return result


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def phase_metrics(base: PhaseResult, migrating: PhaseResult) -> dict:
    """The end-to-end metrics the phases give (ms and txn/s)."""
    lat = migrating.latencies
    return {
        "base_tps": (base.transactions / base.seconds, "txn/s"),
        "tps": (migrating.transactions / migrating.seconds, "txn/s"),
        "new_order_p50_ms": (1e3 * percentile(lat["new_order"], 50), "ms"),
        "new_order_p95_ms": (1e3 * percentile(lat["new_order"], 95), "ms"),
        "payment_p50_ms": (1e3 * percentile(lat["payment"], 50), "ms"),
        "scatter_p50_ms": (1e3 * percentile(lat["scatter"], 50), "ms"),
    }
