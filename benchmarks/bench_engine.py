"""Row reference vs columnar engine: speedup and differential checks.

The columnar engine exists purely for throughput: operators stream
column batches with selection vectors through compiled kernels — no
row copies, tuples only at the output boundary (docs/execution.md) —
instead of pulling one tuple at a time through Python generators.  Correctness is non-negotiable — the
response-time simulation and QCC calibration are driven by
``WorkMeter`` totals, so both engines must produce identical rows *and*
bit-identical metered work on every shape here.

One composite gate, a total-wall-clock ratio over both suites: row over
columnar must reach ``REPRO_BENCH_ENGINE_MIN`` (default 4x).

* ``SHAPES`` (numeric scan / filter / join / aggregate — the original
  acceptance shapes): the final tuple-materialisation boundary caps the
  gain here around 5-7x.
* ``COLUMNAR_SHAPES`` (string predicates, grouping, DISTINCT — where
  selection vectors and whole-input grouping change the algorithm, not
  just the constant): 12-22x on grouping and DISTINCT.  LIKE tests
  each row's value, as the row engine does, so its shapes read 1.5-4x.

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
import json
import os
import random
import resource
import time
from sys import getsizeof

import pytest

from repro.sqlengine import Database, execute_plan, populate
from repro.sqlengine.types import Column, ColumnType, Schema
from repro.workload import BENCH_SCALE
from repro.workload.schema import table_specs

#: Composite row/columnar speedup the two suites together must demonstrate.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_ENGINE_MIN", "4.0"))
#: Timing repetitions per (shape, engine); best-of is reported.
REPS = int(os.environ.get("REPRO_BENCH_ENGINE_REPS", "7"))
#: GC-tracked objects a loaded database may add per stored row.
MAX_TRACKED_PER_ROW = 0.1
#: Optional path for the standalone JSON artifact.
ARTIFACT = os.environ.get("REPRO_BENCH_ENGINE_JSON", "")

ENGINES = ("row", "columnar")

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


def _best_time(database, plan, engine):
    best = float("inf")
    result = None
    for _ in range(REPS):
        start = time.perf_counter()
        result = execute_plan(plan, database.storage, engine=engine)
        best = min(best, time.perf_counter() - start)
    return best, result


def _measure_suite(database, shapes):
    """Time every shape on both engines; assert the differential."""
    out = {}
    totals = dict.fromkeys(ENGINES, 0.0)
    for name, sql in shapes:
        plan = database.explain(sql)[0].plan
        times, results = {}, {}
        for engine in ENGINES:
            times[engine], results[engine] = _best_time(
                database, plan, engine
            )
            totals[engine] += times[engine]

        # Differential invariant: identical rows, bit-identical meters
        # (none of these shapes has a LIMIT, the one construct where the
        # row engine meters less work).
        reference, columnar = results["row"], results["columnar"]
        assert columnar.rows == reference.rows, name
        meter, ref_meter = columnar.meter, reference.meter
        assert (meter.cpu_ms, meter.io_ms, meter.tuples_out) == (
            ref_meter.cpu_ms,
            ref_meter.io_ms,
            ref_meter.tuples_out,
        ), name

        n = len(reference.rows)
        row_s, col_s = times["row"], times["columnar"]
        out[name] = {
            "rows": n,
            "row_s": row_s,
            "columnar_s": col_s,
            "row_rows_per_sec": n / row_s if row_s > 0 else None,
            "columnar_rows_per_sec": n / col_s if col_s > 0 else None,
            "columnar_over_row": row_s / col_s if col_s > 0 else None,
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
    shapes, totals = _measure_suite(database, SHAPES)
    col_shapes, col_totals = _measure_suite(database, COLUMNAR_SHAPES)
    columnar_s = totals["columnar"] + col_totals["columnar"]
    composite = (
        (totals["row"] + col_totals["row"]) / columnar_s
        if columnar_s > 0
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
        "composite_speedup": composite,
    }


def _print_suite(title, shapes):
    print(f"\n=== {title} ===")
    for name, shape in shapes.items():
        print(
            f"{name:17s} rows={shape['rows']:6d} "
            f"row={shape['row_s'] * 1e3:7.1f}ms "
            f"col={shape['columnar_s'] * 1e3:7.1f}ms "
            f"row/col={shape['columnar_over_row']:5.2f}x"
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
        f"composite row/columnar speedup: "
        f"{results['composite_speedup']:.2f}x "
        f"(required: {MIN_SPEEDUP:.1f}x)"
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

    assert results["composite_speedup"] >= MIN_SPEEDUP, results
    # A batch's column lists point at the stored values, never copy
    # them: one pointer list per column stays below the rows it reads.
    for table_name in ("lineitem", "tags"):
        mem = results["memory"][table_name]
        assert mem["column_list_bytes"] < mem["row_bytes"], mem
    # Loaded rows and index buckets must be invisible to the collector.
    assert results["memory"]["gc_tracked_per_row"] < MAX_TRACKED_PER_ROW
