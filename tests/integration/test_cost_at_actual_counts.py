"""Each operator's cost formula, evaluated at the counts an execution
actually saw, against the work the meter charged for it (§3.1's premise:
calibration assumes the estimates are honest).

Every executed plan of QT1-QT5 and of the SQLite-oracle grammar's
pinned statements runs under the operator profiler.  Bottom-up, each
node is re-costed with its ``_cost`` formula at the reference profile,
with every estimated count replaced by the actual one: the table's row
count, each child's ``rows_out``, the node's own ``rows_out`` and the
groups an aggregate formed.  The re-cost
must equal the node's inclusive ``meter_ms`` once the differences
docs/cost_model.md lists ("Cost at actual counts") are taken out, and
those differences must all still occur: a new one, or one that is gone,
fails here until the list is updated.
"""

from __future__ import annotations

import math
from pathlib import Path

from repro.obs.profile import profiling
from repro.sqlengine import execute_plan
from repro.sqlengine import physical as P
from repro.sqlengine.cost import pages_for
from repro.workload import EXTENDED_QUERY_TYPES

PINNED = [
    line
    for line in (Path(__file__).parent / "pinned_statements.sql").read_text().splitlines()
    if line and not line.startswith("--")
]

#: Every (operator, constant) on which the cost formula and the meter
#: disagree at actual counts, as docs/cost_model.md lists them.
DIFFERENCES = {
    ("HashJoin", "CPU_TUPLE_COST"),
}


def _pre_order(node):
    yield node
    for child in node.children():
        yield from _pre_order(child)


def _keys(rows, schema, names):
    positions = [schema.index_of(name) for name in names]
    return [tuple(row[i] for i in positions) for row in rows]


def _examined(node, storage):
    """Build rows a hash join's probe rows matched on a non-NULL key,
    counted from its children's full outputs."""
    build = {}
    right = execute_plan(node.right, storage).rows
    for key in _keys(right, node.right.output_schema, node.right_keys):
        if None not in key:
            build[key] = build.get(key, 0) + 1
    left = execute_plan(node.left, storage).rows
    return sum(
        build.get(key, 0)
        for key in _keys(left, node.left.output_schema, node.left_keys)
    )


def _groups(node, storage):
    """The groups an aggregate forms before its HAVING filters them."""
    if node.having is None:
        return None
    unfiltered = P.HashAggregate(
        node.child, node.group_by, node.items, node.output_schema
    )
    return len(execute_plan(unfiltered, storage).rows)


def _recost(node, rows, storage):
    """{constant name: (formula's charge, the meter's charge)} of *node*'s
    own work at actual counts, reference-machine milliseconds.

    Each unit is restated here from the cost constants on purpose: this
    is the independent reference.  Reading the node's ``_per_row`` /
    ``_per_pair`` / ``_per_update`` / ``_per_group`` would compare the
    node with itself; ``test_shared_units.py`` covers those attributes."""
    out = rows[node]
    if isinstance(node, P.SeqScan):
        scanned = len(storage.table(node.table.name))
        width = node.output_schema.row_width_bytes()
        io = pages_for(scanned, width) * P.SEQ_PAGE_COST
        ops = P._count_operators(node.predicate)
        per_row = scanned * (P.CPU_TUPLE_COST + ops * P.CPU_OPERATOR_COST)
        return {
            "io": (io, io),
            "CPU_TUPLE_COST": (per_row, per_row),
        }
    if isinstance(node, P.Filter):
        charge = rows[node.child] * P._count_operators(node.predicate) * (
            P.CPU_OPERATOR_COST
        )
        return {"CPU_OPERATOR_COST": (charge, charge)}
    if isinstance(node, P.Project):
        charge = rows[node.child] * len(node.items) * P.CPU_OPERATOR_COST
        return {"CPU_OPERATOR_COST": (charge, charge)}
    if isinstance(node, P.NestedLoopJoin):
        ops = max(P._count_operators(node.condition), 1)
        pairs = rows[node.left] * rows[node.right] * ops * P.CPU_OPERATOR_COST
        inner = rows[node.right] * P.MATERIALIZE_TUPLE_COST
        return {
            "CPU_OPERATOR_COST": (pairs, pairs),
            "MATERIALIZE_TUPLE_COST": (inner, inner),
        }
    if isinstance(node, P.HashJoin):
        build = rows[node.right] * P.HASH_BUILD_COST
        probe = rows[node.left] * P.HASH_PROBE_COST
        examined = out
        if node.outer or node.residual is not None:
            examined = _examined(node, storage)
        return {
            "HASH_BUILD_COST": (build, build),
            "HASH_PROBE_COST": (probe, probe),
            "CPU_TUPLE_COST": (
                out * P.CPU_TUPLE_COST,
                examined * P.CPU_TUPLE_COST,
            ),
        }
    if isinstance(node, P.HashAggregate):
        groups = _groups(node, storage)
        groups = out if groups is None else groups
        updates = rows[node.child] * max(len(node._agg_calls), 1) * (
            P.AGG_UPDATE_COST
        )
        emit = groups * len(node.items) * P.CPU_OPERATOR_COST
        return {
            "AGG_UPDATE_COST": (updates, updates),
            "CPU_OPERATOR_COST": (emit, emit),
        }
    if isinstance(node, P.Sort):
        n = max(rows[node.child], 1)
        compares = n * math.log2(n + 1.0) * P.SORT_COMPARE_COST
        return {"SORT_COMPARE_COST": (compares, compares)}
    if isinstance(node, P.Distinct):
        charge = rows[node.child] * P.HASH_BUILD_COST
        return {"HASH_BUILD_COST": (charge, charge)}
    if isinstance(node, P.Limit):
        # The formula scales its child's cost by the fraction of rows
        # taken; at actual counts the child's counts already stop there.
        return {}
    raise AssertionError(f"no re-cost for {type(node).__name__}")


def _executed_plans(sample_databases):
    database = sample_databases["S1"]
    texts = [t.instance(0).sql for t in EXTENDED_QUERY_TYPES] + PINNED
    for sql in texts:
        yield sql, database.explain(sql)[0].plan, database.storage


def test_cost_at_actual_counts_is_the_meter_but_for_the_listed_differences(
    sample_databases,
):
    seen = set()
    for sql, plan, storage in _executed_plans(sample_databases):
        with profiling() as profiler:
            execute_plan(plan, storage)
        profile = profiler.capture()
        executed = [n for n in _pre_order(plan) if profile.stats_for(n)]
        rows = {n: profile.stats_for(n).rows_out for n in executed}
        metered = {}
        for node in executed:
            charges = _recost(node, rows, storage)
            for constant, (formula, meter) in charges.items():
                if not math.isclose(formula, meter, rel_tol=1e-12, abs_tol=1e-12):
                    seen.add((type(node).__name__, constant))
            metered[node] = sum(meter for _, meter in charges.values())
        for node in executed:
            # Without the listed differences, the formula is the meter.
            assert math.isclose(
                sum(metered[n] for n in _pre_order(node) if n in metered),
                profile.stats_for(node).meter_ms,
                rel_tol=1e-9,
                abs_tol=1e-9,
            ), (sql, node.describe())
    assert seen == DIFFERENCES
