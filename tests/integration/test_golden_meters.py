"""Golden meters: QT1–QT5's work at test scale, pinned per server, and
the work of 120 statements of the SQLite-oracle grammar.

For instance 0 of each query type, on each of S1–S3's sample databases,
the server's best plan runs under the operator
profiler.  One sha256 covers, for every operator of the plan in
pre-order, its ``describe()``, its ``rows_out`` and its inclusive
``meter_ms`` (as ``float.hex``), then the plan's ``WorkMeter`` totals.
The meters are what a server's load turns into response time and what
QCC calibrates against, so a change that moves any of them moves the
digest.

The grammar pin runs the statements of ``pinned_statements.sql`` (drawn
once from ``test_sqlite_oracle.statements`` and committed, so no
generator change can move them) on S1's sample database and folds, per
statement, its rows in order and the same per-operator and total meters
into one sha256.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.harness import DEFAULT_SERVER_SPECS
from repro.obs.profile import profiling
from repro.sqlengine import execute_plan
from repro.workload import EXTENDED_QUERY_TYPES

#: sha256 per query type.  Meters are
#: in reference-machine milliseconds and every server picks the same
#: plan at test scale, so S1–S3 share each query's digest.
GOLDEN = {
    "QT1": "d44914ec0c37f4ea64e6615e30dc99b34fd721397e1e4103a567a77fb6325d41",
    "QT2": "d9c1d373f0df6270f4a29f9130cf23c2caa535e12d422fd2d3d6bb79bcc95bae",
    "QT3": "50b605d9901103dd6deae2e2dd0c602fcc063b7d4b4a02c905940a08c68c3373",
    "QT4": "3bf8ca5ce7cdc6ebac0e708b7c659f41c207160ff54d5092f944370f5be1ec9d",
    "QT5": "05866e01561a78357df345cd8bcc89235e8593a56237433b6b3cbc1d616c68af",
}

#: The grammar's pinned statements, one per line.
PINNED = [
    line
    for line in (Path(__file__).parent / "pinned_statements.sql").read_text().splitlines()
    if line and not line.startswith("--")
]

#: sha256 over every pinned statement's rows and meters.
GRAMMAR_GOLDEN = "db3cbae8c8de5340cf9b7edcf064631131f92023af0c82f139d08915ee4ce481"


def _pre_order(node):
    yield node
    for child in node.children():
        yield from _pre_order(child)


def _totals(meter):
    return (meter.cpu_ms, meter.io_ms, meter.tuples_out)


def meter_digest(plan, storage):
    """(sha256 of the plan's per-operator meters and totals, result)."""
    with profiling() as profiler:
        result = execute_plan(plan, storage)
    profile = profiler.capture()
    digest = hashlib.sha256()
    for node in _pre_order(plan):
        stats = profile.stats_for(node)
        rows_out, meter_ms = (
            (None, None) if stats is None else (stats.rows_out, stats.meter_ms.hex())
        )
        digest.update(f"{node.describe()}|{rows_out}|{meter_ms}\n".encode())
    cpu_ms, io_ms, tuples_out = _totals(result.meter)
    digest.update(f"{cpu_ms.hex()}|{io_ms.hex()}|{tuples_out}\n".encode())
    return digest.hexdigest(), result


@pytest.mark.parametrize("server", [spec.name for spec in DEFAULT_SERVER_SPECS])
@pytest.mark.parametrize(
    "template", EXTENDED_QUERY_TYPES, ids=[t.name for t in EXTENDED_QUERY_TYPES]
)
def test_meters_match_the_golden_digest(sample_databases, template, server):
    database = sample_databases[server]
    plan = database.explain(template.instance(0).sql)[0].plan
    digest, result = meter_digest(plan, database.storage)
    assert digest == GOLDEN[template.name], plan.explain()


def test_grammar_meters_match_the_golden_digest(sample_databases):
    database = sample_databases["S1"]
    assert len(PINNED) >= 100
    digest = hashlib.sha256()
    for sql in PINNED:
        plan = database.explain(sql)[0].plan
        meters, result = meter_digest(plan, database.storage)
        digest.update(f"{sql}|{result.rows!r}|{meters}\n".encode())
    assert digest.hexdigest() == GRAMMAR_GOLDEN
