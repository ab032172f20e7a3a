"""What the cyclic collector has to walk: loaded data and join builds.

A full collection traverses every GC-tracked object in the process, and
a generation-0 collection starts every ``gc.get_threshold()[0]`` net
allocations of tracked objects.  Loaded tables and per-query hash-join
builds must therefore cost the collector a number of objects that grows
with tables x columns and with batches, not with rows: row tuples of
scalars and index buckets (tuples of ints) are untracked at their first
collection, a unique build allocates no container per key, and a build
kept across queries holds its buckets as tuples.
"""

from __future__ import annotations

import gc

from repro.sqlengine import (
    AggregateCall,
    Column,
    ColumnType,
    DEFAULT_BATCH_SIZE,
    Database,
    HashAggregate,
    HashJoin,
    Schema,
    SeqScan,
    execute_plan,
    populate,
)
from repro.sqlengine.parser import SelectItem
from repro.workload.schema import WorkloadScale, table_specs

SCALE = WorkloadScale(large_rows=12_000, small_rows=300)


def _loaded():
    database = Database(name="collector")
    populate(database, table_specs(SCALE), seed=7)
    return database


def test_loaded_database_is_not_walked_per_row():
    gc.collect()
    before = len(gc.get_objects())
    database = _loaded()
    gc.collect()
    grown = len(gc.get_objects()) - before
    rows = sum(
        len(database.storage.table(spec.name)) for spec in table_specs(SCALE)
    )
    assert rows == 2 * 12_000 + 3 * 300
    # Five tables, schemas, statistics: hundreds of objects.
    assert grown / rows < 0.1


def test_fk_pk_join_collects_per_batch_not_per_key():
    database = _loaded()
    plan = database.explain(
        "SELECT COUNT(*), SUM(o.totalprice) FROM lineitem l, orders o "
        "WHERE l.orderkey = o.orderkey"
    )[0].plan
    assert "HashJoin" in plan.explain()
    collections = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            collections[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(count)
    try:
        result = execute_plan(plan, database.storage)
    finally:
        gc.callbacks.remove(count)
    assert result.rows[0][0] == SCALE.large_rows
    # 12 000 unique build keys: one list per key alone would start
    # 12 000 / 700 = 17 young collections.  Allow each batch of either
    # side a hundred tracked objects instead.
    batches = 2 * -(-SCALE.large_rows // DEFAULT_BATCH_SIZE)
    assert collections[0] <= batches * 100 // gc.get_threshold()[0] + 1
    assert collections[1:] == [0, 0]


def test_a_kept_bucketed_build_adds_no_container_per_key():
    database = _loaded()
    orders, lineitem = (database.catalog.lookup(t) for t in ("orders", "lineitem"))
    join = HashJoin(
        SeqScan(orders, "o"), SeqScan(lineitem, "l"), ["o.orderkey"], ["l.orderkey"]
    )
    count = SelectItem(AggregateCall("COUNT", None))
    plan = HashAggregate(join, [], [count], Schema((Column("n", ColumnType.INT),)))
    execute_plan(plan, _loaded().storage)  # compiles the spine elsewhere
    gc.collect()
    before = len(gc.get_objects())
    result = execute_plan(plan, database.storage)
    gc.collect()
    grown = len(gc.get_objects()) - before
    (build,) = database.storage.builds.values()
    buckets = build.get.__self__
    assert not build.unique and result.rows == [(SCALE.large_rows,)]
    assert all(type(rids) is tuple for rids in buckets.values())
    # One bucket per order key; the build, its script and its columns
    # are a few dozen tracked objects.
    assert len(buckets) > 1_000 and grown < 100
