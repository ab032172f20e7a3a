"""Unit tests for the Database facade."""

import pytest

from repro.sqlengine import (
    Column,
    ColumnType,
    Database,
    Schema,
    ServerProfile,
    SqlError,
    populate,
)


class TestDatabaseFacade:
    def test_run_simple_query(self, tiny_db):
        result = tiny_db.run("SELECT COUNT(*) FROM dept")
        assert result.rows == [(20,)]
        assert result.meter.total_ms > 0

    def test_engine_names_are_the_frozen_shim(self, tiny_db, tiny_specs):
        # benchmarks/e2e/answers.py builds Database(engine="row"): every
        # accepted name runs the one engine, any other name is an error.
        sql = "SELECT deptno, COUNT(*) FROM emp GROUP BY deptno"
        expected = tiny_db.run(sql)
        for name in (None, "columnar", "row"):
            database = Database(name="reference", engine=name)
            populate(database, tiny_specs, seed=42)
            result = database.run(sql)
            assert result.rows == expected.rows
            assert result.meter.total_ms == expected.meter.total_ms
        for retired in ("vector", "turbo"):
            with pytest.raises(SqlError, match=retired):
                Database(name="reference", engine=retired)

    def test_explain_does_not_execute(self, tiny_db):
        before = tiny_db.row_count("dept")
        plans = tiny_db.explain("SELECT * FROM dept")
        assert plans
        assert tiny_db.row_count("dept") == before

    def test_create_and_load(self):
        db = Database("fresh")
        schema = Schema((Column("x", ColumnType.INT),))
        db.create_table("nums", schema)
        assert db.load_rows("nums", [(1,), (2,)]) == 2
        assert db.run("SELECT SUM(x) FROM nums").rows == [(3,)]

    def test_analyze_refreshes_stats(self):
        db = Database("fresh")
        db.create_table("nums", Schema((Column("x", ColumnType.INT),)))
        db.storage.table("nums").insert_many([(i,) for i in range(10)])
        assert db.catalog.lookup("nums").stats.row_count == 0
        db.analyze("nums")
        assert db.catalog.lookup("nums").stats.row_count == 10

    def test_profile_attached(self):
        profile = ServerProfile("fast", cpu_speed=3.0)
        db = Database("p", profile=profile)
        assert db.profile.cpu_speed == 3.0
        assert db.optimizer.profile is profile


def _signatures(db, sql):
    return [candidate.signature for candidate in db.explain(sql)]


class TestExplainTracksCatalog:
    """``explain`` answers for the catalog as it is *now*: every mutation
    an optimizer can see goes through the catalog and bumps its version."""

    JOIN = "SELECT COUNT(*) FROM dept d JOIN emp e ON d.deptno = e.deptno"

    def test_every_visible_mutation_bumps_the_version(self, tiny_db):
        catalog = tiny_db.catalog
        seen = [catalog.version]
        tiny_db.analyze("emp")
        seen.append(catalog.version)
        tiny_db.create_table("extra", Schema((Column("x", ColumnType.INT),)))
        seen.append(catalog.version)
        assert seen == sorted(set(seen))

    def test_load_rows_changes_the_cheapest_join_order(self, tiny_db):
        before = tiny_db.explain(self.JOIN)[0]
        assert "HashJoin(e.deptno=d.deptno)" in before.signature
        tiny_db.load_rows("dept", [(i, 50) for i in range(100, 5100)])
        after = tiny_db.explain(self.JOIN)[0]
        assert "HashJoin(d.deptno=e.deptno)" in after.signature
        assert after.cost.total > before.cost.total

    def test_dml_without_analyze_keeps_serving(self, tiny_db):
        before = tiny_db.explain(self.JOIN)
        version = tiny_db.catalog.version
        tiny_db.run_dml("DELETE FROM emp WHERE empno > 10")
        assert tiny_db.catalog.version == version
        after = tiny_db.explain(self.JOIN)
        assert [c.signature for c in after] == [c.signature for c in before]
        assert [c.cost for c in after] == [c.cost for c in before]
        tiny_db.analyze("emp")
        assert tiny_db.explain(self.JOIN)[0].cost != before[0].cost
