"""A plain differential loop, the reference for compacthash.run_differential.

reference_differential applies each op to a compact table, a tombstone
table and a set through the tables' public insert, contains and remove,
looked up anew for every op, and runs check_invariants on both tables
after every check_every-th op. tests/test_harness.py requires
run_differential to return a verdict with exactly the same JSON.
"""

from compacthash import (ADD, CONTAINS, REMOVE, CompactTable, Divergence, InvariantFailure,
                         TableFullError, TableParams, TombstoneTable, Verdict, check_invariants)

TABLE_METHOD = {ADD: "insert", CONTAINS: "contains", REMOVE: "remove"}


def table_result(table, op):
    """The table's answer to op, or "TableFull" if the table refused it."""
    try:
        return getattr(table, TABLE_METHOD[op.kind])(op.key)
    except TableFullError:
        return "TableFull"


def oracle_result(model: set, op) -> bool:
    """The set's answer to op, applying it: an add counts as new even when a table is full."""
    present = op.key in model
    if op.kind == ADD:
        model.add(op.key)
        return not present
    if op.kind == REMOVE:
        model.discard(op.key)
    return present


def reference_differential(ops, params: TableParams, check_every: int = 1) -> Verdict:
    """The verdict of ops on both tables and the set oracle.

    Stops at the first op whose three answers disagree, before checking
    the tables after it; otherwise checks both tables after ops
    check_every - 1, 2 * check_every - 1, ... (counting from 0).
    """
    tables = {"compact": CompactTable(params), "tombstone": TombstoneTable(params)}
    model: set[int] = set()
    failures = []
    for idx, op in enumerate(ops):
        o = oracle_result(model, op)
        c = table_result(tables["compact"], op)
        t = table_result(tables["tombstone"], op)
        if not (c == o and t == o):
            return Verdict(Divergence(idx, op, c, t, o), failures)
        if (idx + 1) % check_every == 0:
            for kind, table in tables.items():
                report = check_invariants(table)
                if not report.passed:
                    failures.append(InvariantFailure(idx, kind, report))
    return Verdict(None, failures)
