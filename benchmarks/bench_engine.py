"""SQLite over the columnar engine: a speed floor and differential checks.

The engine's only yardstick that is not this code is SQLite (stdlib
``sqlite3``, loaded with the same rows by
:class:`~repro.chaos.sqlite_answers.SqliteAnswers`): a host-relative
ratio that still fails on an engine regression, whatever the host.
Correctness is non-negotiable — the response-time simulation and QCC
calibration are driven by ``WorkMeter`` totals — so every shape's rows
must be SQLite's (``rows_close_unordered``) and its meters must match
their golden digest (``GOLDEN_METERS``, computed while a row-at-a-time
engine still confirmed them).

One gate: SQLite's total best-of-``REPS`` wall clock over the columnar
engine's on the seven numeric ``SHAPES`` must reach
``REPRO_BENCH_ENGINE_MIN`` (default 2x; three runs on a 2-vCPU x86-64
host under CPython 3.11.7 measured 2.89x, 2.95x and 3.21x, and 2.0-3.6x
per shape).

* ``SHAPES`` (numeric scan / filter / join / aggregate — the original
  acceptance shapes): the tuple-materialisation boundary and Python's
  per-batch overhead are most of the engine's time here.
* ``COLUMNAR_SHAPES`` (string predicates, grouping, DISTINCT — where
  selection vectors and whole-input grouping change the algorithm, not
  just the constant): timed and checked the same way, outside the gate
  (SQLite's ``LIKE`` runs in C and takes under half the engine's time;
  the grouping and DISTINCT shapes take SQLite 2-5x the engine's).

Per-shape timings, rows/sec, per-batch memory (the ``getsizeof`` of a
batch's column value lists, which point at the stored rows' own values
and so sit beside those rows, vs a deep ``getsizeof`` of the same rows
as tuples) and the GC-tracked objects a loaded database leaves for the cyclic
collector to walk (gated per row: docs/execution.md, "What the collector
walks") land in the JSON artifact for trend tracking (see BENCH_engine.json
for the committed baseline).  CI's smoke job relaxes the gate for
noisy shared runners.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import time
from sys import getsizeof

import pytest

from repro.chaos.sqlite_answers import SqliteAnswers
from repro.obs.profile import profiling
from repro.sqlengine import Database, execute_plan, populate, rows_close_unordered
from repro.sqlengine.types import Column, ColumnType, Schema
from repro.workload import BENCH_SCALE
from repro.workload.schema import table_specs

#: SQLite's time over the columnar engine's the numeric shapes must reach.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_ENGINE_MIN", "2.0"))
#: Timing repetitions per (shape, engine); best-of is reported.
REPS = int(os.environ.get("REPRO_BENCH_ENGINE_REPS", "7"))
#: GC-tracked objects a loaded database may add per stored row.
MAX_TRACKED_PER_ROW = 0.1
#: Optional path for the standalone JSON artifact.
ARTIFACT = os.environ.get("REPRO_BENCH_ENGINE_JSON", "")

#: The scan-filter-join-aggregate shapes of the original acceptance
#: criterion — numeric columns, unselective scans, tuple-heavy output.
SHAPES = (
    (
        "scan-filter",
        "SELECT l.linekey, l.extprice FROM lineitem l "
        "WHERE l.extprice > 300.0 AND l.quantity < 40",
    ),
    (
        "scan-project",
        "SELECT l.linekey, l.extprice * l.quantity, l.orderkey "
        "FROM lineitem l",
    ),
    (
        "join",
        "SELECT o.orderkey, c.nation, o.totalprice "
        "FROM orders o, customer c "
        "WHERE o.custkey = c.custkey AND o.totalprice > 100.0",
    ),
    (
        # Build side = orders, 6 000 unique keys: the build is classified
        # unique without a list per key (docs/execution.md).
        "fk-pk-join",
        "SELECT l.linekey, o.totalprice FROM lineitem l, orders o "
        "WHERE l.orderkey = o.orderkey",
    ),
    (
        "join-agg",
        "SELECT c.nation, COUNT(*), SUM(o.totalprice) "
        "FROM orders o, customer c "
        "WHERE o.custkey = c.custkey GROUP BY c.nation",
    ),
    (
        "aggregate",
        "SELECT l.quantity, COUNT(*), SUM(l.extprice), AVG(l.extprice), "
        "MIN(l.extprice), MAX(l.extprice) FROM lineitem l "
        "GROUP BY l.quantity",
    ),
    (
        # QT2's nine aggregates over lineitem x product: the join's probe
        # and every fold run in one generated loop (docs/execution.md).
        "join-agg-heavy",
        "SELECT p.category, COUNT(*), SUM(l.extprice), "
        "AVG(l.quantity * l.extprice), MAX(l.extprice), MIN(l.extprice), "
        "SUM(l.quantity), AVG(l.extprice - l.quantity), "
        "MAX(l.quantity * l.extprice), MIN(l.quantity * l.extprice) "
        "FROM lineitem l JOIN product p ON l.prodkey = p.prodkey "
        "WHERE p.price > 250.0 GROUP BY p.category",
    ),
)

#: Shapes where the columnar layout changes the algorithm: LIKE kernels
#: over a whole column, grouping and DISTINCT over a whole input at
#: once, COUNT(*) histograms.
#: These run over the bench-local ``tags`` table (the workload's
#: string columns only exist on the small tables) plus the workload's
#: own grouping / DISTINCT shapes.
COLUMNAR_SHAPES = (
    (
        "str-like-agg",
        "SELECT COUNT(*), SUM(val), AVG(val) FROM tags "
        "WHERE tag LIKE '%1%'",
    ),
    (
        "str-multi-like",
        "SELECT COUNT(*), AVG(val) FROM tags WHERE label LIKE '%1%' "
        "AND label NOT LIKE '%13%' AND tag LIKE 'tag%'",
    ),
    (
        "str-complex-like",
        "SELECT id FROM tags WHERE label LIKE '%ab%0%4%'",
    ),
    (
        "str-group",
        "SELECT tag, COUNT(*), SUM(val), MAX(val) FROM tags GROUP BY tag",
    ),
    (
        "count-group",
        "SELECT l.prodkey, COUNT(*) FROM lineitem l GROUP BY l.prodkey",
    ),
    (
        "str-count-group",
        "SELECT tag, COUNT(*) FROM tags GROUP BY tag",
    ),
    (
        "distinct",
        "SELECT DISTINCT o.custkey FROM orders o",
    ),
    (
        "str-distinct",
        "SELECT DISTINCT label FROM tags",
    ),
)


#: sha256 of each shape's meters at BENCH_SCALE (``meter_digest``).
#: Computed while the row-at-a-time engine confirmed every shape's rows
#: and totals; regenerate only with a change that means to move them.
GOLDEN_METERS = {
    "scan-filter": "63cc97ff9b5e24b235ffb88448b8e47bf10938c6ccf7cc1a3b8ad466a68c33d9",
    "scan-project": "ac0eecbb9f2d0d903ba7d230de912f5ce84c3eb2a3685c72e92746ce49835de9",
    "join": "6c9baff2f92ee1837bcf50b863b5b7bdb7821a6ca8dd8287b0df3ec758204594",
    "fk-pk-join": "b3f267134fbe61a98d2abfe50d5c9c446c32897c8bb59dff716126d88a1a7805",
    "join-agg": "ea2d6228a11391b9fac2187a229d0eeabc8c1eac5e16cabef581e414bb7ac6c6",
    "aggregate": "0b50ae236a45eaf79e2867c91727310e32365d197eb32727e6cae9a59495a1d9",
    "join-agg-heavy": "2490944d40304ed4b4329a29f9a630255116477829d2dc64b506e033d0867d38",
    "str-like-agg": "aae1256afde2692ad6faaa257b92c4bdd754cfc4414f6ecd6b0edf3516c3df0a",
    "str-multi-like": "f8df5e41c9cc991eb4c309e1648c4b2dd536594e36213fa4e9f94d1a06143e5c",
    "str-complex-like": "8b3169ef2fc3cde8b0a2e55e2961b321b61868656f9e35d4add3c74fa0f4a318",
    "str-group": "351301b324828abb6062527d36d7fa08096a1765c9c3435a096543b6c8d9db02",
    "count-group": "f0bf1ed35119803afd7862dd3c741a964764228488be8d193fed0e4777649594",
    "str-count-group": "c59b009e53a9c8a7a3e5ef958e254508bc4eaac406f4226f788526126c6811af",
    "distinct": "d0ba2e07f9402587d3a5faab93a1c4f8dd63b17c50a5fc6818b71788250b62ef",
    "str-distinct": "05f3be4328d39dec8c18ad88f5d6836b20b6b1ab8d3d97d66f636f90f681edd4",
}


def _pre_order(node):
    yield node
    for child in node.children():
        yield from _pre_order(child)


def meter_digest(plan, storage):
    """sha256 over *plan*'s operators in pre-order (``describe()``,
    ``rows_out`` and inclusive ``meter_ms`` as ``float.hex``) and its
    ``WorkMeter`` totals, as ``tests/integration/test_golden_meters.py``
    pins QT1-QT5."""
    with profiling() as profiler:
        meter = execute_plan(plan, storage).meter
    profile = profiler.capture()
    digest = hashlib.sha256()
    for node in _pre_order(plan):
        stats = profile.stats_for(node)
        digest.update(
            f"{node.describe()}|{stats.rows_out}|{stats.meter_ms.hex()}\n".encode()
        )
    digest.update(
        f"{meter.cpu_ms.hex()}|{meter.io_ms.hex()}|{meter.tuples_out}\n".encode()
    )
    return digest.hexdigest()


@pytest.fixture(scope="module")
def engine_db():
    database = Database(name="bench-engine")
    populate(database, table_specs(BENCH_SCALE), seed=7)

    # Bench-local string table: few distinct strings over many rows
    # (24 tags, 200 labels over BENCH_SCALE.large_rows rows).
    rng = random.Random(11)
    tags = [f"tag_{i:02d}" for i in range(24)]
    labels = [f"label_{i:04d}" for i in range(200)]
    database.create_table(
        "tags",
        Schema(
            [
                Column("id", ColumnType.INT),
                Column("tag", ColumnType.STR),
                Column("label", ColumnType.STR),
                Column("val", ColumnType.FLOAT),
            ]
        ),
    )
    database.load_rows(
        "tags",
        [
            (
                i,
                rng.choice(tags),
                rng.choice(labels),
                round(rng.uniform(0, 100), 2),
            )
            for i in range(BENCH_SCALE.large_rows)
        ],
    )
    database.analyze()
    return database


def _best_time(run):
    best = float("inf")
    result = None
    for _ in range(REPS):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def _measure_suite(database, sqlite, shapes):
    """Time every shape on the engine and on SQLite; hold the rows to
    SQLite's and the meters to their golden digest."""
    out = {}
    totals = {"sqlite": 0.0, "columnar": 0.0}
    for name, sql in shapes:
        plan = database.explain(sql)[0].plan
        col_s, result = _best_time(lambda: execute_plan(plan, database.storage))
        sqlite_s, expected = _best_time(
            lambda: sqlite.connection.execute(sql).fetchall()
        )
        totals["columnar"] += col_s
        totals["sqlite"] += sqlite_s

        assert rows_close_unordered(result.rows, expected), name
        assert meter_digest(plan, database.storage) == GOLDEN_METERS[name], name

        n = len(result.rows)
        out[name] = {
            "rows": n,
            "sqlite_s": sqlite_s,
            "columnar_s": col_s,
            "sqlite_rows_per_sec": n / sqlite_s if sqlite_s > 0 else None,
            "columnar_rows_per_sec": n / col_s if col_s > 0 else None,
            "sqlite_over_columnar": sqlite_s / col_s if col_s > 0 else None,
        }
    return out, totals


def _deep_row_bytes(rows):
    """Deep ``getsizeof`` of a row batch: list + tuples + boxed values."""
    total = getsizeof(rows)
    seen = set()
    for row in rows:
        total += getsizeof(row)
        for value in row:
            if id(value) not in seen:
                seen.add(id(value))
                total += getsizeof(value)
    return total


def _memory_metrics(database, batch_size=1024):
    """Per-batch memory: the batch's column value lists (pointer arrays
    into the stored rows' own values, held beside those rows, not
    instead of them) vs the same rows as deep tuples."""
    metrics = {}
    for table_name in ("lineitem", "tags"):
        table = database.storage.table(table_name)
        columns = table.columnar()
        count = min(batch_size, columns.n_rows)
        batch = columns.batch(0, count)
        rows = batch.materialize()
        list_bytes = sum(getsizeof(col.values()) for col in batch.cols)
        if batch.sel is not None:
            list_bytes += getsizeof(batch.sel)
        row_bytes = _deep_row_bytes(rows)
        metrics[table_name] = {
            "batch_rows": count,
            "column_list_bytes": list_bytes,
            "row_bytes": row_bytes,
            "row_over_list_bytes": (
                row_bytes / list_bytes if list_bytes else None
            ),
        }
    metrics["ru_maxrss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF
    ).ru_maxrss

    # What a second, identically loaded database adds to the heap the
    # cyclic collector traverses on every full collection.
    specs = table_specs(BENCH_SCALE)
    gc.collect()
    before = len(gc.get_objects())
    loaded = Database(name="bench-engine-gc")
    populate(loaded, specs, seed=7)
    gc.collect()
    tracked = len(gc.get_objects()) - before
    stored = sum(len(loaded.storage.table(spec.name)) for spec in specs)
    metrics["gc_tracked_objects"] = tracked
    metrics["gc_tracked_per_row"] = tracked / stored
    return metrics


def _measure(database):
    sqlite = SqliteAnswers([database])
    shapes, totals = _measure_suite(database, sqlite, SHAPES)
    col_shapes, col_totals = _measure_suite(database, sqlite, COLUMNAR_SHAPES)
    composite = (
        totals["sqlite"] / totals["columnar"]
        if totals["columnar"] > 0
        else float("inf")
    )
    return {
        "scale": {
            "large_rows": BENCH_SCALE.large_rows,
            "small_rows": BENCH_SCALE.small_rows,
        },
        "reps": REPS,
        "shapes": shapes,
        "columnar_shapes": col_shapes,
        "memory": _memory_metrics(database),
        "composite_sqlite_over_columnar": composite,
        "columnar_shapes_sqlite_over_columnar": (
            col_totals["sqlite"] / col_totals["columnar"]
            if col_totals["columnar"] > 0
            else None
        ),
    }


def _print_suite(title, shapes):
    print(f"\n=== {title} ===")
    for name, shape in shapes.items():
        print(
            f"{name:17s} rows={shape['rows']:6d} "
            f"sqlite={shape['sqlite_s'] * 1e3:7.1f}ms "
            f"col={shape['columnar_s'] * 1e3:7.1f}ms "
            f"sqlite/col={shape['sqlite_over_columnar']:5.2f}x"
        )


def test_engine_speedups(benchmark, engine_db):
    results = benchmark.pedantic(
        _measure, args=(engine_db,), rounds=1, iterations=1
    )
    benchmark.extra_info.update(results)

    _print_suite(
        "Engine benchmark: numeric shapes (BENCH_SCALE)",
        results["shapes"],
    )
    _print_suite(
        "Engine benchmark: columnar shapes (BENCH_SCALE)",
        results["columnar_shapes"],
    )
    print(
        f"numeric shapes, SQLite over columnar: "
        f"{results['composite_sqlite_over_columnar']:.2f}x "
        f"(required: {MIN_SPEEDUP:.1f}x); columnar shapes: "
        f"{results['columnar_shapes_sqlite_over_columnar']:.2f}x"
    )
    for table_name in ("lineitem", "tags"):
        mem = results["memory"][table_name]
        print(
            f"memory per {mem['batch_rows']}-row {table_name} batch: "
            f"column value lists={mem['column_list_bytes']} bytes "
            f"(pointers, beside the rows) vs "
            f"rows as deep tuples={mem['row_bytes']} bytes"
        )

    print(
        f"GC-tracked objects per loaded database: "
        f"{results['memory']['gc_tracked_objects']} "
        f"({results['memory']['gc_tracked_per_row']:.4f} per row, "
        f"allowed: {MAX_TRACKED_PER_ROW})"
    )

    if ARTIFACT:
        with open(ARTIFACT, "w") as handle:
            json.dump(results, handle, indent=2)
        print(f"artifact written to {ARTIFACT}")

    assert results["composite_sqlite_over_columnar"] >= MIN_SPEEDUP, results
    # A batch's column lists point at the stored values, never copy
    # them: one pointer list per column stays below the rows it reads.
    for table_name in ("lineitem", "tags"):
        mem = results["memory"][table_name]
        assert mem["column_list_bytes"] < mem["row_bytes"], mem
    # Loaded rows and index buckets must be invisible to the collector.
    assert results["memory"]["gc_tracked_per_row"] < MAX_TRACKED_PER_ROW
