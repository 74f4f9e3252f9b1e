"""Self-test of the output checks: each check must pass an intact
result and flag a deliberately damaged one.

    python3 perfbench/selftest.py

Every benchmark run also runs it first and reports a failure as a
failed check.  The damaged results are a customer duplicated by the
split, an order line missing from ``orderline_stock``, a committed
Payment amount missing from W_YTD, and a scatter reply that lacks one
shard's rows.
"""

from __future__ import annotations

import copy
import os
import sys
from decimal import Decimal

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

import checks  # noqa: E402
from stream import Ledger  # noqa: E402


def _state(orders_per_district: int, paid: Decimal, join: bool) -> checks.State:
    """A small database that meets the consistency conditions: one
    warehouse, two districts, two lines per order, the newest two
    orders undelivered."""
    state = checks.State()
    for d in (1, 2):
        state.districts[(1, d)] = (paid / 2, orders_per_district + 1)
        for o in range(1, orders_per_district + 1):
            state.orders[(1, d, o)] = 2
            for n in (1, 2):
                state.lines.append((1, d, o, n, 1 if join else None))
        state.new_orders[(1, d)] = [orders_per_district - 1,
                                    orders_per_district]
    state.w_ytd[1] = paid
    state.history[1] = (2, paid)
    return state


def _expect(problems: list[str], flagged: bool, what: str) -> list[str]:
    if flagged and not problems:
        return [f"{what}: not flagged"]
    if not flagged and problems:
        return [f"{what}: flagged an intact result: {problems}"]
    return []


def run() -> list[str]:
    """Returns the self-test's failures (empty when every check works)."""
    failures: list[str] = []
    start = _state(3, Decimal("100.00"), join=False)
    end = _state(4, Decimal("130.50"), join=True)
    ledger = Ledger()
    for d in (1, 2):
        ledger.new_orders[(1, d)] += 1
        ledger.lines[(1, d)] += 2
    for amount in (Decimal("10.25"), Decimal("20.25")):
        ledger.payments[1] += amount
        ledger.history_rows[1] += 1
        ledger.history_amounts[1] += amount
    end.history[1] = (4, Decimal("130.50"))

    failures += _expect(checks.consistency(start), False, "consistency")
    failures += _expect(checks.consistency(end), False, "consistency")
    failures += _expect(checks.ledger_deltas(start, end, ledger), False,
                        "ledger")

    # A committed Payment amount missing from W_YTD (and from D_YTD, so
    # the consistency conditions still hold and only the ledger sees it).
    short = copy.deepcopy(end)
    short.w_ytd[1] -= Decimal("10.25")
    short.districts[(1, 1)] = (short.districts[(1, 1)][0] - Decimal("10.25"),
                               short.districts[(1, 1)][1])
    failures += _expect(checks.consistency(short), False, "consistency")
    failures += _expect(checks.ledger_deltas(start, short, ledger), True,
                        "Payment amount missing from W_YTD")

    # A customer duplicated by the split.
    customers = {(1, d, c) for d in (1, 2) for c in (1, 2, 3)}
    keys = sorted(customers)
    failures += _expect(
        checks.migrated_keys("customer_private", keys, customers,
                             len(customers)), False, "split keys")
    failures += _expect(
        checks.migrated_keys("customer_private", keys + [keys[2]], customers,
                             len(customers)), True,
        "customer duplicated by the split")

    # An order line missing from orderline_stock.
    predicted = len(start.lines) + sum(ledger.lines.values())
    failures += _expect(
        checks.migrated_keys("orderline_stock", end.lines, None, predicted)
        + checks.order_lines_complete(end), False, "join keys")
    missing = copy.deepcopy(end)
    del missing.lines[5]
    failures += _expect(
        checks.migrated_keys("orderline_stock", missing.lines, None, predicted)
        + checks.order_lines_complete(missing), True,
        "order line missing from orderline_stock")

    # A scatter reply that lacks one shard's rows.
    count_sql = "SELECT COUNT(*) FROM orders"
    top_sql = "SELECT o_id, o_w_id, o_d_id FROM orders ORDER BY o_id DESC"
    counts = [[(7,)], [(5,)]]
    tops = [[(9, 1, 1), (8, 1, 2)], [(9, 2, 1), (7, 2, 2)]]
    for sql, per_shard, intact in (
        (count_sql, counts, [(12,)]),
        (top_sql, tops, [(9, 1, 1), (9, 2, 1), (8, 1, 2)]),
    ):
        merged = checks.merge_shards(sql, per_shard, 3)
        failures += _expect(checks.scatter_answer(sql, intact, merged), False,
                            "scatter merge")
        lacking = checks.merge_shards(sql, per_shard[:1], 3)
        failures += _expect(checks.scatter_answer(sql, lacking, merged), True,
                            "scatter reply lacking one shard's rows")
    return failures


if __name__ == "__main__":
    result = run()
    for failure in result:
        print(failure)
    print("check self-test:", "FAILED" if result else "ok")
    sys.exit(1 if result else 0)
