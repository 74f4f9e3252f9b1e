"""Output checks: the database against computations made apart from it.

Each check is a pure function over plain data and returns a list of
problems (empty when the check passes), so ``selftest.py`` can feed it
deliberately damaged results.  :func:`read_state` is the only code here
that talks to the program: it reads the tables the checks need through
a ``query`` callable that returns the union of every partition's rows.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Any, Callable, Iterable

Query = Callable[[str], list[tuple]]


@dataclass
class State:
    w_ytd: dict[int, Decimal] = field(default_factory=dict)
    # (w, d) -> (d_ytd, d_next_o_id)
    districts: dict[tuple[int, int], tuple[Decimal, int]] = field(
        default_factory=dict)
    # (w, d, o) -> o_ol_cnt
    orders: dict[tuple[int, int, int], int] = field(default_factory=dict)
    # (w, d) -> [no_o_id]
    new_orders: dict[tuple[int, int], list[int]] = field(
        default_factory=lambda: defaultdict(list))
    # w -> (rows, SUM(h_amount))
    history: dict[int, tuple[int, Decimal]] = field(default_factory=dict)
    # order-line keys (w, d, o, number, s_w_id); s_w_id is None on the
    # base schema, where a line is not joined to stock
    lines: list[tuple] = field(default_factory=list)


def read_state(query: Query, join_schema: bool) -> State:
    """Read what the checks need.  ``join_schema``: order lines live in
    ``orderline_stock`` (after the join migration's switch)."""
    state = State()
    for w, ytd in query("SELECT w_id, w_ytd FROM warehouse"):
        state.w_ytd[w] = ytd
    for w, d, ytd, next_o_id in query(
        "SELECT d_w_id, d_id, d_ytd, d_next_o_id FROM district"
    ):
        state.districts[(w, d)] = (ytd, next_o_id)
    for w, d, o, count in query(
        "SELECT o_w_id, o_d_id, o_id, o_ol_cnt FROM orders"
    ):
        state.orders[(w, d, o)] = count
    for w, d, o in query("SELECT no_w_id, no_d_id, no_o_id FROM new_order"):
        state.new_orders[(w, d)].append(o)
    totals: dict[int, list] = defaultdict(lambda: [0, Decimal("0.00")])
    for w, amount in query("SELECT h_w_id, h_amount FROM history"):
        totals[w][0] += 1
        totals[w][1] += amount
    state.history = {w: (n, total) for w, (n, total) in totals.items()}
    if join_schema:
        state.lines = [tuple(row) for row in query(
            "SELECT ol_w_id, ol_d_id, ol_o_id, ol_number, s_w_id "
            "FROM orderline_stock")]
    else:
        state.lines = [tuple(row) + (None,) for row in query(
            "SELECT ol_w_id, ol_d_id, ol_o_id, ol_number FROM order_line")]
    return state


# ----------------------------------------------------------------------
# TPC-C consistency conditions (clause 3.3.2, conditions 1-4)
# ----------------------------------------------------------------------
def consistency(state: State) -> list[str]:
    problems: list[str] = []
    d_ytd: dict[int, Decimal] = defaultdict(Decimal)
    for (w, _d), (ytd, _next) in state.districts.items():
        d_ytd[w] += ytd
    for w, ytd in state.w_ytd.items():
        if ytd != d_ytd[w]:
            problems.append(f"W_YTD {ytd} != sum(D_YTD) {d_ytd[w]} (w={w})")
    max_o: dict[tuple, int] = defaultdict(int)
    ol_cnt: Counter = Counter()
    for (w, d, o), count in state.orders.items():
        max_o[(w, d)] = max(max_o[(w, d)], o)
        ol_cnt[(w, d)] += count
    lines: Counter = Counter()
    for w, d, _o, _n in {row[:4] for row in state.lines}:
        lines[(w, d)] += 1
    for key, (_ytd, next_o_id) in state.districts.items():
        new_orders = state.new_orders.get(key, [])
        max_no = max(new_orders, default=0)
        if not next_o_id - 1 == max_o[key] == max_no:
            problems.append(
                f"D_NEXT_O_ID-1={next_o_id - 1}, max(O_ID)={max_o[key]}, "
                f"max(NO_O_ID)={max_no} differ (district {key})")
        if new_orders and (
            max_no - min(new_orders) + 1 != len(new_orders)
        ):
            problems.append(
                f"NEW_ORDER ids {min(new_orders)}..{max_no} are not "
                f"{len(new_orders)} contiguous rows (district {key})")
        if ol_cnt[key] != lines[key]:
            problems.append(
                f"sum(O_OL_CNT)={ol_cnt[key]} != {lines[key]} order lines "
                f"(district {key})")
    return problems


# ----------------------------------------------------------------------
# The ledger: what the terminal recorded as committed
# ----------------------------------------------------------------------
def ledger_deltas(start: State, end: State, ledger: Any) -> list[str]:
    problems: list[str] = []
    for key, (_ytd, next_o_id) in end.districts.items():
        grew = next_o_id - start.districts[key][1]
        if grew != ledger.new_orders.get(key, 0):
            problems.append(
                f"D_NEXT_O_ID advanced by {grew}, the terminal committed "
                f"{ledger.new_orders.get(key, 0)} NewOrders (district {key})")
    for w, ytd in end.w_ytd.items():
        paid = ledger.payments.get(w, Decimal("0.00"))
        if ytd - start.w_ytd[w] != paid:
            problems.append(
                f"W_YTD grew by {ytd - start.w_ytd[w]}, the terminal "
                f"committed Payments of {paid} (w={w})")
        rows, amount = end.history.get(w, (0, Decimal("0.00")))
        rows0, amount0 = start.history.get(w, (0, Decimal("0.00")))
        expected_rows = ledger.history_rows.get(w, 0)
        expected_amount = ledger.history_amounts.get(w, Decimal("0.00"))
        if rows - rows0 != expected_rows or amount - amount0 != expected_amount:
            problems.append(
                f"HISTORY grew by {rows - rows0} rows / {amount - amount0}, "
                f"the terminal committed {expected_rows} / {expected_amount} "
                f"(w={w})")
    return problems


def migrated_keys(table: str, keys: Iterable[tuple],
                  expected: set[tuple] | None, expected_rows: int) -> list[str]:
    """A migrated table holds every key exactly once: no duplicates,
    the predicted row count, and (when known) exactly the expected key
    set."""
    counts = Counter(keys)
    problems = [
        f"{table}: key {key} present {n} times"
        for key, n in sorted(counts.items()) if n > 1
    ][:5]
    rows = sum(counts.values())
    if rows != expected_rows:
        problems.append(
            f"{table}: {rows} rows, the tally predicts {expected_rows}")
    if expected is not None and set(counts) != expected:
        missing = sorted(expected - set(counts))[:5]
        extra = sorted(set(counts) - expected)[:5]
        problems.append(f"{table}: missing keys {missing}, extra keys {extra}")
    return problems


def order_lines_complete(state: State) -> list[str]:
    """Every order has exactly lines 1..O_OL_CNT."""
    numbers: dict[tuple, list[int]] = defaultdict(list)
    for w, d, o, n in {row[:4] for row in state.lines}:
        numbers[(w, d, o)].append(n)
    problems = []
    for key, count in state.orders.items():
        if sorted(numbers.get(key, ())) != list(range(1, count + 1)):
            problems.append(
                f"order {key}: lines {sorted(numbers.get(key, ()))}, "
                f"O_OL_CNT={count}")
            if len(problems) == 5:
                break
    return problems


# ----------------------------------------------------------------------
# Wide reads
# ----------------------------------------------------------------------
def expected_scatter(next_o_ids: dict[tuple[int, int], int],
                     new_orders: Counter, limit: int) -> tuple[int, list]:
    """COUNT(*) of orders and the top ``limit`` (o_id DESC, w, d), from
    the D_NEXT_O_ID each district started with plus the NewOrders the
    terminal committed: order ids run 1..D_NEXT_O_ID-1 per district."""
    total = 0
    candidates = []
    for (w, d), start in next_o_ids.items():
        last = start - 1 + new_orders.get((w, d), 0)
        total += last
        candidates += [(o, w, d) for o in range(last, max(last - limit, 0), -1)]
    candidates.sort(key=lambda row: (-row[0], row[1], row[2]))
    return total, candidates[:limit]


def scatter_answer(sql: str, got: list[tuple], expected: list[tuple]) -> list[str]:
    if got != expected:
        return [f"{sql!r} returned {got[:10]}, expected {expected[:10]}"]
    return []


def merge_shards(sql: str, per_shard: list[list[tuple]], limit: int) -> list[tuple]:
    """The benchmark's own merge of one wide read sent to each shard:
    COUNT(*) adds up; the ORDER BY ... LIMIT re-sorts and cuts."""
    if sql.startswith("SELECT COUNT(*)"):
        return [(sum(rows[0][0] for rows in per_shard),)]
    rows = [row for shard in per_shard for row in shard]
    rows.sort(key=lambda row: (-row[0], row[1], row[2]))
    return rows[:limit]
