"""The explain bound (docs/cost_model.md, "The explain bound") changes
which servers the meta-wrapper explains, never what routing sees.

A QCC skips a server's explain when a lower bound on its calibrated
best cost already lies above the routing band.  The property below
draws server profiles, per-server calibration factors, reliability and
a whole-query fragment (QT1-QT5 and the SQLite-oracle grammar's pinned
statements), and holds the skip path to the same QCC state with
``routing_band() -> None`` (every server explained): the same best
global plan, the same fragment band, the same ranked cluster for the
chosen option, and no skipped server whose true best calibrated cost
lies below the bound it was skipped on.  The regressions after it pin
that only admissible servers are compared.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import QueryCostCalibrator
from repro.fed import (
    FederationError,
    NicknameRegistry,
    ReplicaManager,
    decompose,
    enumerate_global_plans,
)
from repro.harness import build_federation
from repro.harness.deployment import REPLICA_PLACEMENT
from repro.sim import RemoteServer
from repro.sqlengine import Catalog, Database, ServerProfile, TableStats
from repro.workload import EXTENDED_QUERY_TYPES, QT1, TEST_SCALE
from repro.wrappers import MetaWrapper, RelationalWrapper

PINNED = [
    line
    for line in (
        Path(__file__).parents[1] / "integration" / "pinned_statements.sql"
    ).read_text().splitlines()
    if line and not line.startswith("--")
]

STATEMENTS = [
    template.instance(index).sql
    for template in EXTENDED_QUERY_TYPES
    for index in range(2)
] + PINNED

#: Speeds drawn from a grid, so equal profiles come up often.
SPEEDS = (0.5, 0.9, 1.0, 1.1, 1.2, 2.0, 2.2, 2.5, 3.0)

NAMES = ("A", "B", "C", "D")

T_MS = 10.0


class ExhaustiveQcc(QueryCostCalibrator):
    """The same QCC with no band: MW explains every server."""

    def routing_band(self):
        return None


class Events:
    """A query trace that keeps only its events, in order."""

    def __init__(self):
        self.events = []

    def begin(self, name, t_ms, **attributes):
        return None

    def end(self, span, t_ms, **attributes):
        pass

    def event(self, name, t_ms, **attributes):
        self.events.append((name, attributes))

    def of(self, name, **match):
        return [
            attributes
            for event, attributes in self.events
            if event == name
            and all(attributes.get(k) == v for k, v in match.items())
        ]


def _servers(source, profiles, moved, placement=None):
    """Relational wrappers over stats-only servers with *profiles*; all
    share *source*'s catalog, or hold the tables *placement* gives them,
    but server *moved*, whose statistics for its first table differ."""
    wrappers = {}
    names = NAMES if placement is None else tuple(placement)
    for index, (cpu, io) in enumerate(profiles):
        name = names[index]
        database = Database(name=name, profile=ServerProfile(name, cpu, io))
        database.catalog = source.catalog
        if placement is not None:
            database.catalog = Catalog()
            for table in placement[name]:
                database.catalog.register(source.catalog.lookup(table))
        if index == moved:
            catalog = database.catalog.stats_only_clone()
            table = "customer" if placement is None else placement[name][0]
            stats = catalog.lookup(table).stats
            catalog.update_stats(
                table,
                TableStats(
                    row_count=stats.row_count * 3,
                    column_stats=dict(stats.column_stats),
                ),
            )
            database.catalog = catalog
        wrappers[name] = RelationalWrapper(RemoteServer(name, database))
    registry = NicknameRegistry()
    for name, wrapper in wrappers.items():
        catalog = wrapper.server.database.catalog
        for table in catalog.table_names():
            registry.register(table, name, table_def=catalog.lookup(table))
    return wrappers, registry


def _primed(cls, names, factors, failures):
    """A QCC of class *cls* with server *factors* and, per server, a
    number of failed requests each followed by a success (reliability
    below 1), or left down (None)."""
    qcc = cls(names)
    for name, factor in zip(names, factors):
        qcc.calibrator.set_initial_factor(name, factor)
    for name, failed in zip(names, failures):
        if failed is None:
            qcc.availability.record_error(name, 0.0)
            continue
        for step in range(failed):
            qcc.availability.record_error(name, float(step))
            qcc.availability.record_success(name, float(step) + 0.5)
    return qcc


def _route(cls, wrappers, decomposed, factors, failures):
    """Compile every fragment through MW as *cls* would, and rank the
    global plans: (qcc, options per fragment id, plans or the error,
    trace events)."""
    qcc = _primed(cls, list(wrappers), factors, failures)
    meta_wrapper = MetaWrapper(wrappers, qcc=qcc)
    events = Events()
    options = {
        fragment.fragment_id: meta_wrapper.compile_fragment(fragment, T_MS, events)
        for fragment in decomposed.fragments
    }
    try:
        plans = enumerate_global_plans(
            decomposed, options, ServerProfile(), ii_calibration_factor=qcc.ii_factor()
        )
    except FederationError as error:
        plans = str(error)
    return qcc, options, plans, events


def _key(option):
    return (
        option.server,
        option.plan_signature,
        option.estimated.total,
        option.calibrated.total,
    )


@st.composite
def federations(draw):
    count = draw(st.integers(2, 4))
    speeds = st.tuples(st.sampled_from(SPEEDS), st.sampled_from(SPEEDS))
    first = draw(speeds)
    # A profile proportional to the first one makes the bound tight: it
    # is then exact but for the unscaled startup of the plan's leaves.
    proportional = st.sampled_from((0.5, 1.0, 2.0, 2.5)).map(
        lambda k: (first[0] * k, first[1] * k)
    )
    profiles = [first] + draw(
        st.lists(
            st.one_of(speeds, proportional),
            min_size=count - 1,
            max_size=count - 1,
        )
    )
    factors = draw(
        st.lists(
            st.one_of(
                st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0)),
                st.floats(0.2, 6.0),
            ),
            min_size=count,
            max_size=count,
        )
    )
    failures = draw(
        st.lists(
            st.sampled_from((0, 0, 0, 1, 2, None)),
            min_size=count,
            max_size=count,
        )
    )
    moved = draw(st.one_of(st.none(), st.integers(0, count - 1)))
    sql = draw(st.sampled_from(STATEMENTS))
    return profiles, factors, failures, moved, sql


@settings(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(federation=federations())
def test_the_bound_skips_only_what_routing_never_sees(
    sample_databases, federation
):
    profiles, factors, failures, moved, sql = federation
    wrappers, registry = _servers(sample_databases["S1"], profiles, moved)
    decomposed = decompose(sql, registry)
    assert decomposed.fragments[0].full_pushdown

    _assert_routing_unchanged(wrappers, decomposed, factors, failures)


def _assert_routing_unchanged(wrappers, decomposed, factors, failures):
    """The skip path against the exhaustive one, fragment by fragment."""
    qcc, options, plans, events = _route(
        QueryCostCalibrator, wrappers, decomposed, factors, failures
    )
    _, every, every_plan, _ = _route(
        ExhaustiveQcc, wrappers, decomposed, factors, failures
    )
    band = qcc.routing_band()
    for fragment_id, every_options in every.items():
        _assert_skips_only_out_of_band(
            options[fragment_id],
            every_options,
            events.of("server_skipped", reason="bound", fragment=fragment_id),
            band,
        )
    if isinstance(plans, str):
        assert plans == every_plan
        return
    best, every_best = plans[0], every_plan[0]
    assert best.total_cost == every_best.total_cost
    assert [_key(c) for c in best.choices] == [_key(c) for c in every_best.choices]
    for choice, every_choice in zip(best.choices, every_best.choices):
        assert [
            _key(o) for o in qcc.ranked_cluster(choice, best.siblings_of(choice))
        ] == [
            _key(o)
            for o in qcc.ranked_cluster(
                every_choice, every_best.siblings_of(every_choice)
            )
        ]


def _assert_skips_only_out_of_band(options, every, skipped, band):
    # The skip path's options are the exhaustive path's, minus whole
    # servers, in candidate order.
    explained = {o.server for o in options}
    assert [_key(o) for o in options] == [
        _key(o) for o in every if o.server in explained
    ]
    assert {e["server"] for e in skipped} == {o.server for o in every} - explained

    # No skipped server's true best calibrated cost undercuts its bound,
    # and the bound lies above the band of the cheapest option.
    for event in skipped:
        truth = min(
            o.calibrated.total for o in every if o.server == event["server"]
        )
        assert truth >= event["bound"] > event["threshold"], event
        assert event["reference"] not in {e["server"] for e in skipped}
    if not every:
        return
    cheapest = min(o.calibrated.total for o in every)
    in_band = [
        _key(o) for o in every if o.calibrated.total <= (1.0 + band) * cheapest
    ]
    assert [
        _key(o)
        for o in options
        if o.calibrated.total <= (1.0 + band) * cheapest
    ] == in_band


#: The inner joins (an outer join cannot cross servers): S1/R1/S2/R2
#: splits one in two fragments when it crosses the table groups.
JOINS = [
    sql
    for sql in STATEMENTS
    if "LEFT JOIN" not in sql and (" JOIN " in sql or ", " in sql.split(" FROM ")[1])
]


@st.composite
def replica_federations(draw):
    speeds = st.tuples(st.sampled_from(SPEEDS), st.sampled_from(SPEEDS))
    count = len(REPLICA_PLACEMENT)
    profiles = draw(st.lists(speeds, min_size=count, max_size=count))
    factors = draw(
        st.lists(
            st.one_of(
                st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0)),
                st.floats(0.2, 6.0),
            ),
            min_size=count,
            max_size=count,
        )
    )
    failures = draw(
        st.lists(st.sampled_from((0, 0, 0, 1, 2, None)), min_size=count, max_size=count)
    )
    moved = draw(st.one_of(st.none(), st.integers(0, count - 1)))
    return profiles, factors, failures, moved, draw(st.sampled_from(JOINS))


@settings(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(federation=replica_federations())
def test_the_bound_on_every_fragment_of_the_replica_topology(
    sample_databases, federation
):
    # S1/R1 hold orders and customer, S2/R2 the other three tables: a
    # join across the groups has two fragments, each on two servers.
    # The merge prices the fragments' rows, which every candidate of a
    # fragment shares (one estimate per relation set), so the bound
    # holds on every fragment, not only on a whole query.
    profiles, factors, failures, moved, sql = federation
    wrappers, registry = _servers(
        sample_databases["S1"], profiles, moved, REPLICA_PLACEMENT
    )
    _assert_routing_unchanged(wrappers, decompose(sql, registry), factors, failures)


def _explains(monkeypatch):
    """Server name -> explain calls, counted from now on."""
    calls = {}
    explain = RemoteServer.explain

    def counting(self, sql, t_ms=0.0):
        calls[self.name] = calls.get(self.name, 0) + 1
        return explain(self, sql, t_ms)

    monkeypatch.setattr(RemoteServer, "explain", counting)
    return calls


@pytest.fixture()
def deployment(sample_databases):
    deployment = build_federation(
        scale=TEST_SCALE, prebuilt_databases=sample_databases
    )
    deployment.qcc.tick(0.0)
    return deployment


def test_the_fastest_server_bounds_the_others_out(deployment, monkeypatch):
    calls = _explains(monkeypatch)
    events = Events()
    _, plans = deployment.integrator.compile(QT1.instance(0).sql, trace=events)
    assert calls == {"S3": 1}
    assert plans[0].servers == frozenset({"S3"})
    assert [(e["server"], e["reference"]) for e in events.of(
        "server_skipped", reason="bound"
    )] == [("S1", "S3"), ("S2", "S3")]


def test_a_retry_that_excludes_the_reference_compares_the_rest(
    deployment, monkeypatch
):
    # The first attempt failed at S3, and a daemon probe has marked it
    # up again: the retry still excludes it.  S3 must not be the
    # reference that bounds S1 and S2 out, or nothing is left.
    assert deployment.qcc.is_available("S3", 0.0)
    calls = _explains(monkeypatch)
    _, plans = deployment.integrator.compile(
        QT1.instance(1).sql, excluded_servers={"S3"}
    )
    assert "S3" not in calls
    assert plans and all("S3" not in plan.servers for plan in plans)


def test_a_stale_replica_on_the_fastest_profile_is_not_the_reference(
    deployment, monkeypatch
):
    manager = ReplicaManager(deployment.registry, tolerance_ms=100.0)
    deployment.integrator.replica_manager = manager
    manager.note_write("customer", 0.0)  # S1, the origin, is current
    calls = _explains(monkeypatch)
    sql = "SELECT c.nation, COUNT(*) AS n FROM customer c GROUP BY c.nation"
    _, plans = deployment.integrator.compile(sql, t_ms=1_000.0)
    assert calls == {"S1": 1}
    assert plans[0].servers == frozenset({"S1"})
