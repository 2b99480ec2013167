"""A plain differential loop, the reference for compacthash.run_differential.

reference_differential applies each op to a compact table, a tombstone
table and a set through the tables' public insert, contains and remove,
looked up anew for every op, and runs check_invariants on both tables
after every check_every-th op. The set knows the compact table's
occupancy cap, and a tombstone table refusing a key at its own cap is
saturated: its answers count no more. tests/test_harness.py requires
run_differential to return a verdict with exactly the same JSON.
"""

from compacthash import (ADD, CONTAINS, REMOVE, CompactTable, Divergence, InvariantFailure,
                         TableFullError, TableParams, TombstoneTable, Verdict, check_invariants)

TABLE_METHOD = {ADD: "insert", CONTAINS: "contains", REMOVE: "remove"}


def table_result(table, op):
    """The table's answer to op, or "TableFull" if the table refused it."""
    kind, key = op
    try:
        return getattr(table, TABLE_METHOD[kind])(key)
    except TableFullError:
        return "TableFull"


def oracle_result(model: set, op, params: TableParams):
    """The set's answer to op, applying it: an add of an absent key that would
    leave no empty slot is "TableFull", unless the table may grow."""
    kind, key = op
    present = key in model
    if kind == ADD:
        if not present and not params.growth_enabled and len(model) == params.capacity - 1:
            return "TableFull"
        model.add(key)
        return not present
    if kind == REMOVE:
        model.discard(key)
    return present


def reference_differential(ops, params: TableParams, check_every: int = 1) -> Verdict:
    """The verdict of ops on both tables and the set oracle.

    Stops at the first op whose three answers disagree, before checking
    the tables after it; otherwise checks both tables after ops
    check_every - 1, 2 * check_every - 1, ... (counting from 0). From the
    first TableFull of the tombstone table that the set also answers, or
    that it raises with capacity - 1 non-FREE slots, only the compact
    table's answers are compared.
    """
    tables = {"compact": CompactTable(params), "tombstone": TombstoneTable(params)}
    model: set[int] = set()
    failures = []
    saturated_at = None
    for idx, op in enumerate(ops):
        o = oracle_result(model, op, params)
        c = table_result(tables["compact"], op)
        t = table_result(tables["tombstone"], op)
        if (t == "TableFull" and saturated_at is None
                and (o == "TableFull" or not params.growth_enabled
                     and tables["tombstone"].non_free_count == params.capacity - 1)):
            saturated_at = idx
        if not (c == o and (t == o or saturated_at is not None)):
            return Verdict(Divergence(idx, op, c, t, o), failures, saturated_at)
        if (idx + 1) % check_every == 0:
            for kind, table in tables.items():
                report = check_invariants(table)
                if not report.passed:
                    failures.append(InvariantFailure(idx, kind, report))
    return Verdict(None, failures, saturated_at)
