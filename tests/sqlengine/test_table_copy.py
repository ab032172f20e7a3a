"""Loading a replicated table as a copy of another host's.

``build_databases`` generates, validates and analyses each table once,
at its first host, and every later host loads it with
``Database.load_copy``: its own row list over the same tuples, and the
same registered ``TableDef``.  These tests hold a copy equal to a fresh
``populate`` of its spec, every host's writes to that host alone, the
build to one generation and one validation per table, and a copy to a
handful of collector-tracked objects per table.
"""

from __future__ import annotations

import copy
import gc

import pytest

from repro.fed import ReplicaManager
from repro.harness import (
    DEFAULT_SERVER_SPECS,
    build_databases,
    build_federation,
    build_replica_federation,
)
from repro.harness.deployment import REPLICA_PLACEMENT, REPLICA_SERVER_SPECS
from repro.sim import UpdateStormDriver
from repro.sqlengine import (
    Column,
    ColumnType,
    Database,
    Schema,
    StorageError,
    TableSpec,
    populate,
)
from repro.workload import TEST_SCALE, WorkloadScale, table_specs

SPECS = {spec.name: spec for spec in table_specs(TEST_SCALE)}

#: topology -> (its databases, its federation)
TOPOLOGIES = {
    "triple": (
        lambda: build_databases(DEFAULT_SERVER_SPECS, TEST_SCALE, seed=7),
        lambda: build_federation(scale=TEST_SCALE),
    ),
    "replica": (
        lambda: build_databases(
            REPLICA_SERVER_SPECS, TEST_SCALE, seed=7,
            placement=REPLICA_PLACEMENT,
        ),
        lambda: build_replica_federation(scale=TEST_SCALE),
    ),
}


def _hosted(database):
    """The tables *database* holds, in registration order."""
    return [table.name for table in database.catalog]


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
class TestCopiesEqualAFreshLoad:
    @pytest.fixture()
    def databases(self, topology):
        return TOPOLOGIES[topology][0]()

    def test_rows_and_catalog(self, databases):
        for database in databases.values():
            fresh = Database(name="fresh")
            populate(fresh, [SPECS[name] for name in _hosted(database)], seed=7)
            assert _hosted(database) == _hosted(fresh)
            assert database.catalog.content() == fresh.catalog.content()
            for name in _hosted(database):
                rows = database.storage.table(name).rows
                expected = fresh.storage.table(name).rows
                assert rows == expected
                assert [tuple(map(type, row)) for row in rows] == [
                    tuple(map(type, row)) for row in expected
                ]
                assert database.run(f"SELECT * FROM {name}").rows == (
                    fresh.run(f"SELECT * FROM {name}").rows
                )

    def test_hosts_share_tuples_and_definitions_not_containers(
        self, databases
    ):
        first = {}
        for database in databases.values():
            for name in _hosted(database):
                source = first.setdefault(name, database)
                if source is database:
                    continue
                table = database.storage.table(name)
                original = source.storage.table(name)
                assert table.rows is not original.rows
                assert all(a is b for a, b in zip(table.rows, original.rows))
                assert database.catalog.lookup(name) is (
                    source.catalog.lookup(name)
                )


def _sql_literal(value):
    return f"'{value}'" if isinstance(value, str) else repr(value)


def _key(database, name):
    """*name*'s serial first column."""
    return database.storage.table(name).schema.columns[0].name.rpartition(".")[2]


def _dml(database, name):
    """An UPDATE of the second (an INT, not the key) column, an INSERT and
    a DELETE on *name*, keyed on its serial first column."""
    schema = database.storage.table(name).schema
    key = _key(database, name)
    other = schema.columns[1].name.rpartition(".")[2]
    row = list(database.storage.table(name).rows[0])
    row[0] = 900_001
    values = ", ".join(_sql_literal(v) for v in row)
    return [
        f"UPDATE {name} SET {other} = {other} + 100000 WHERE {key} <= 5",
        f"INSERT INTO {name} VALUES ({values})",
        f"DELETE FROM {name} WHERE {key} > 700",
    ]


def _state(database):
    """Everything a write could leak into: rows, the registered
    definitions (deep-copied, so an in-place change shows) and scan and
    key-lookup answers."""
    state = {}
    for name in _hosted(database):
        state[name] = (
            list(database.storage.table(name).rows),
            copy.deepcopy(database.catalog.lookup(name)),
            database.run(f"SELECT * FROM {name}").rows,
            database.run(
                f"SELECT * FROM {name} WHERE {_key(database, name)} = 3"
            ).rows,
        )
    return state


def _others_unchanged(deployment, host, before):
    for name, server in deployment.servers.items():
        if name != host:
            assert _state(server.database) == before[name], name


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
class TestWritesStayOnTheirHost:
    """Each write, on a table's first host or on a host that copied it,
    leaves every other host's data, statistics and answers alone."""

    @pytest.fixture()
    def deployment(self, topology):
        return TOPOLOGIES[topology][1]()

    def _snapshot(self, deployment):
        return {
            name: _state(server.database)
            for name, server in deployment.servers.items()
        }

    @pytest.mark.parametrize("which", ["first", "copy"])
    def test_dml(self, deployment, which):
        host = "S1" if which == "first" else deployment.specs[1].name
        database = deployment.servers[host].database
        for sql in _dml(database, _hosted(database)[-1]):
            before = self._snapshot(deployment)
            database.run_dml(sql)
            assert _state(database) != before[host], sql
            _others_unchanged(deployment, host, before)

    @pytest.mark.parametrize("which", ["first", "copy"])
    def test_update_storm(self, deployment, which):
        host = "S1" if which == "first" else deployment.specs[1].name
        before = self._snapshot(deployment)
        UpdateStormDriver(deployment.servers[host], seed=7).burst(0.0)
        assert _state(deployment.servers[host].database) != before[host]
        _others_unchanged(deployment, host, before)

    def test_sync_then_write(self, deployment):
        origin, replica = "S1", deployment.specs[1].name
        manager = ReplicaManager(deployment.registry)
        name = _hosted(deployment.servers[origin].database)[-1]
        for sql in _dml(deployment.servers[origin].database, name):
            deployment.servers[origin].database.run_dml(sql)
        manager.note_write(name, 0.0)
        before = self._snapshot(deployment)
        copied = manager.sync(name, replica, deployment.servers, 1.0)
        replica_db = deployment.servers[replica].database
        origin_table = deployment.servers[origin].database.storage.table(name)
        assert copied == len(origin_table)
        assert replica_db.storage.table(name).rows == origin_table.rows
        _others_unchanged(deployment, replica, before)
        # The synced copy is the replica's own: writing it leaves the
        # origin (and everyone else) alone.
        before = self._snapshot(deployment)
        for sql in _dml(replica_db, name):
            replica_db.run_dml(sql)
        _others_unchanged(deployment, replica, before)


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_each_table_is_generated_and_validated_once(topology, monkeypatch):
    generated, checked, coerced = [], [], [0]
    generate_rows = TableSpec.generate_rows
    validate_rows, validate_row = Schema.validate_rows, Schema.validate_row

    def counting_generate(spec, seed):
        generated.append(spec.name)
        return generate_rows(spec, seed)

    def counting_check(schema, rows):
        checked.append(len(rows))
        return validate_rows(schema, rows)

    def counting_validate(schema, row):
        coerced[0] += 1
        return validate_row(schema, row)

    monkeypatch.setattr(TableSpec, "generate_rows", counting_generate)
    monkeypatch.setattr(Schema, "validate_rows", counting_check)
    monkeypatch.setattr(Schema, "validate_row", counting_validate)
    databases = TOPOLOGIES[topology][0]()
    assert sorted(generated) == sorted(SPECS)
    # One bulk check per table, over all of its rows; generated values
    # already have their columns' types, so none is coerced one by one.
    assert sorted(checked) == sorted(spec.row_count for spec in SPECS.values())
    assert coerced[0] == 0
    assert len(databases) == (3 if topology == "triple" else 4)


def test_a_copy_needs_an_equal_schema():
    source = Database(name="source")
    populate(source, [SPECS["supplier"]], seed=7)
    other = Database(name="other")
    other.create_table(
        "supplier", Schema((Column("suppkey", ColumnType.INT),))
    )
    with pytest.raises(StorageError):
        other.load_copy("supplier", source)
    with pytest.raises(StorageError):
        Database(name="empty").load_copy("supplier", source)


def test_a_copy_is_walked_per_table_not_per_row():
    """A copy adds the collector a row list per table (plus its owners
    and schemas), however many rows."""
    scale = WorkloadScale(large_rows=12_000, small_rows=300)
    specs = table_specs(scale)
    source = Database(name="source")
    populate(source, specs, seed=7)
    gc.collect()
    before = len(gc.get_objects())
    replica = Database(name="replica")
    for spec in specs:
        replica.create_table(spec.name, spec.schema())
        replica.load_copy(spec.name, source)
    gc.collect()
    grown = len(gc.get_objects()) - before
    rows = sum(len(replica.storage.table(spec.name)) for spec in specs)
    assert rows == 2 * 12_000 + 3 * 300
    assert grown <= 12 * len(specs)
