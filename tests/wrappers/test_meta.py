"""Unit tests for the meta-wrapper: MW's records and QCC hooks."""

import pytest

from repro.core import Calibration
from repro.fed import decompose
from repro.harness import build_federation
from repro.wrappers import DEFAULT_UNKNOWN_ESTIMATE, MetaWrapper
from repro.workload import TEST_SCALE


class RecordingQcc:
    """Duck-typed QCC stub that logs every MW interaction."""

    def __init__(self, factor=2.0, available=None):
        self.factor = factor
        self.available = available or {}
        self.calls = []
        self.compiled = []

    def bind_meta_wrapper(self, mw):
        self.calls.append(("bind", mw))

    def is_available(self, server, t_ms):
        return self.available.get(server, True)

    def calibrate(self, server, fragment_signature, cost):
        self.calls.append(("calibrate", server))
        return cost.scaled(self.factor)

    def record_compile(self, server, fragment_signature, option):
        self.calls.append(("compile", server))
        self.compiled.append((server, fragment_signature, option))

    def record_execution(self, **kwargs):
        self.calls.append(("execute", kwargs["server"], kwargs["observed_ms"]))

    def record_error(self, server, t_ms):
        self.calls.append(("error", server))

    def substitute(self, option, siblings, t_ms):
        self.calls.append(("substitute", option.server, len(siblings)))
        return option


@pytest.fixture()
def deployment(sample_databases):
    return build_federation(
        scale=TEST_SCALE, with_qcc=False, prebuilt_databases=sample_databases
    )


def _fragment(deployment, sql="SELECT COUNT(*) FROM customer"):
    decomposed = decompose(sql, deployment.registry)
    return decomposed.fragments[0]


class TestCompileFragment:
    def test_options_cover_candidate_servers(self, deployment):
        fragment = _fragment(deployment)
        options = deployment.meta_wrapper.compile_fragment(fragment, 0.0)
        assert {o.server for o in options} == {"S1", "S2", "S3"}

    def test_compile_records_every_option(self, deployment):
        qcc = RecordingQcc(factor=1.0)
        deployment.meta_wrapper.attach_qcc(qcc)
        fragment = _fragment(deployment)
        options = deployment.meta_wrapper.compile_fragment(fragment, 5.0)
        assert options
        assert qcc.compiled == [
            (option.server, fragment.signature, option) for option in options
        ]
        assert all(option.estimated.total > 0 for option in options)

    def test_without_qcc_calibrated_equals_estimated(self, deployment):
        fragment = _fragment(deployment)
        options = deployment.meta_wrapper.compile_fragment(fragment, 0.0)
        for option in options:
            assert option.calibrated.total == option.estimated.total

    def test_qcc_calibration_applied(self, deployment):
        qcc = RecordingQcc(factor=3.0)
        deployment.meta_wrapper.attach_qcc(qcc)
        fragment = _fragment(deployment)
        options = deployment.meta_wrapper.compile_fragment(fragment, 0.0)
        for option in options:
            assert option.calibrated.total == pytest.approx(
                option.estimated.total * 3.0
            )
        assert ("compile", "S1") in qcc.calls

    def test_unavailable_server_skipped(self, deployment):
        qcc = RecordingQcc(available={"S3": False})
        deployment.meta_wrapper.attach_qcc(qcc)
        fragment = _fragment(deployment)
        options = deployment.meta_wrapper.compile_fragment(fragment, 0.0)
        assert {o.server for o in options} == {"S1", "S2"}



class TestExecuteOption:
    def test_runtime_log_and_qcc_report(self, deployment):
        qcc = RecordingQcc(factor=1.0)
        deployment.meta_wrapper.attach_qcc(qcc)
        fragment = _fragment(deployment)
        options = deployment.meta_wrapper.compile_fragment(fragment, 0.0)
        option, result = deployment.meta_wrapper.execute_option(
            options[0], 0.0, options
        )
        assert result.observed_ms > 0
        # Executing reports nothing: the caller settles, then reports.
        log = deployment.meta_wrapper.runtime_log
        assert not log
        assert not any(c[0] == "execute" for c in qcc.calls)
        assert any(c[0] == "substitute" for c in qcc.calls)
        deployment.meta_wrapper.note_execution(option, result, 0.0)
        assert log and log[0].observed_ms == result.observed_ms
        assert qcc.calls[-1] == ("execute", option.server, result.observed_ms)

    def test_failure_is_reported_by_note_failure(self, deployment):
        from repro.sim import OutageSchedule, ServerUnavailable

        qcc = RecordingQcc()
        deployment.meta_wrapper.attach_qcc(qcc)
        fragment = _fragment(deployment)
        options = deployment.meta_wrapper.compile_fragment(fragment, 0.0)
        option = options[0]
        deployment.servers[option.server].availability = OutageSchedule(
            [(0.0, 100.0)]
        )
        with pytest.raises(ServerUnavailable):
            deployment.meta_wrapper.execute_option(option, 0.0)
        assert not any(c[0] == "error" for c in qcc.calls)
        deployment.meta_wrapper.note_failure(option.server, 0.0)
        assert qcc.calls[-1] == ("error", option.server)
        assert not deployment.meta_wrapper.runtime_log

    def test_substitution_can_be_disabled(self, deployment):
        qcc = RecordingQcc()
        deployment.meta_wrapper.attach_qcc(qcc)
        fragment = _fragment(deployment)
        options = deployment.meta_wrapper.compile_fragment(fragment, 0.0)
        deployment.meta_wrapper.execute_option(options[0], 0.0)
        assert not any(c[0] == "substitute" for c in qcc.calls)


class RecordingCalibration(RecordingQcc, Calibration):
    """The same stub as a subclass of the seam's base class."""


@pytest.mark.parametrize("stub", [RecordingQcc, RecordingCalibration])
def test_duck_typed_and_subclassed_stubs_see_the_same_calls(deployment, stub):
    qcc = stub(factor=2.0, available={"S3": False})
    deployment.meta_wrapper.attach_qcc(qcc)
    assert qcc.calls == [("bind", deployment.meta_wrapper)]
    fragment = _fragment(deployment)
    options = deployment.meta_wrapper.compile_fragment(fragment, 0.0)
    assert {o.server for o in options} == {"S1", "S2"}
    option, result = deployment.meta_wrapper.execute_option(
        options[0], 0.0, options
    )
    deployment.meta_wrapper.note_execution(option, result, 0.0)
    deployment.meta_wrapper.note_failure("S3", 0.0)
    assert [call[0] for call in qcc.calls[1:]] == (
        ["calibrate", "compile"] * len(options)
        + ["substitute", "execute", "error"]
    )


class TestUnknownCostSubstitution:
    def test_default_estimate_for_file_wrapper(self, deployment):
        from repro.sqlengine import Column, ColumnType, Schema
        from repro.wrappers import FileSource, FileWrapper
        from repro.fed import NicknameRegistry

        schema = Schema((Column("id", ColumnType.INT),))
        source = FileSource("files1", "events", schema, [(1,), (2,)])
        registry = NicknameRegistry()
        registry.register(
            "events",
            "files1",
            table_def=source.database.catalog.lookup("events"),
        )
        mw = MetaWrapper({"files1": FileWrapper(source)})
        decomposed = decompose("SELECT id FROM events", registry)
        options = mw.compile_fragment(decomposed.fragments[0], 0.0)
        assert len(options) == 1
        assert options[0].estimated == DEFAULT_UNKNOWN_ESTIMATE

    def test_zero_cost_estimate_is_not_unknown(self, deployment):
        """Regression: only ``cost is None`` means "the wrapper withheld
        its estimate".  A zero-valued PlanCost — what an empty table
        legitimately estimates to — must pass through untouched instead
        of being inflated to the 100ms unknown default."""
        from repro.sqlengine import PlanCost
        from repro.fed import NicknameRegistry

        zero = PlanCost(
            first_tuple=0.0, total=0.0, rows=0.0, width_bytes=0.0
        )
        relational = deployment.meta_wrapper.wrappers["S1"]
        reference = relational.plans("SELECT COUNT(*) FROM customer", 0.0)[0]

        class ZeroCostWrapper:
            source_type = "relational"
            server_name = "Z1"

            def plans(self, fragment_sql, t_ms):
                from repro.sqlengine import PlanCandidate

                return [PlanCandidate(plan=reference.plan, cost=zero)]

        registry = NicknameRegistry()
        registry.register(
            "customer",
            "Z1",
            table_def=deployment.servers["S1"].database.catalog.lookup(
                "customer"
            ),
        )
        mw = MetaWrapper({"Z1": ZeroCostWrapper()})
        decomposed = decompose("SELECT COUNT(*) FROM customer", registry)
        options = mw.compile_fragment(decomposed.fragments[0], 0.0)
        assert len(options) == 1
        assert options[0].estimated == zero
        assert options[0].estimated != DEFAULT_UNKNOWN_ESTIMATE

    def test_empty_table_estimate_survives(self):
        """An empty relational table estimates to a tiny (near-zero)
        cost with ``rows == 0``; the old zero-heuristic would have been
        one startup-cost tweak away from misreading it as unknown."""
        from repro.fed import NicknameRegistry
        from repro.sim.server import RemoteServer
        from repro.sqlengine import (
            ColumnType,
            Database,
            Serial,
            TableSpec,
            populate,
        )
        from repro.wrappers import RelationalWrapper

        spec = TableSpec(
            "events",
            (("id", ColumnType.INT, Serial()),),
            row_count=0,
        )
        database = Database()
        populate(database, (spec,), seed=1)
        server = RemoteServer("E1", database)
        registry = NicknameRegistry()
        registry.register(
            "events", "E1", table_def=database.catalog.lookup("events")
        )
        mw = MetaWrapper({"E1": RelationalWrapper(server)})
        decomposed = decompose("SELECT id FROM events", registry)
        options = mw.compile_fragment(decomposed.fragments[0], 0.0)
        assert len(options) == 1
        assert options[0].estimated.rows == 0.0
        assert options[0].estimated != DEFAULT_UNKNOWN_ESTIMATE
        assert options[0].estimated.total < 1.0


class TestProbes:
    def test_probe_unknown_server(self, deployment):
        from repro.sim import ServerUnavailable

        with pytest.raises(ServerUnavailable):
            deployment.meta_wrapper.probe("S9", 0.0)

    def test_probe_and_ratio(self, deployment):
        rtt = deployment.meta_wrapper.probe("S1", 0.0)
        assert rtt > 0
        estimated, observed = deployment.meta_wrapper.probe_ratio("S1", 0.0)
        assert observed > estimated > 0

    def test_server_names(self, deployment):
        assert deployment.meta_wrapper.server_names() == ["S1", "S2", "S3"]
