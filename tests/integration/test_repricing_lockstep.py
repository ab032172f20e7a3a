"""Re-pricing a kept decomposition must equal recompiling from SQL text.

A cached integrator and an ``enable_plan_cache=False`` twin are driven
in lockstep through a random interleaving of everything that ends a
priced plan's life — recalibrations, bare epoch bumps, an outage opening
on a candidate server, a new placement, replica writes under a staleness
tolerance, the clock crossing a freshness horizon — and must agree on
every query and on every book at the end.

A *hit* skips compilation by design (no compile log entry, no explain to
discover an outage with); that is ``test_plan_cache_equivalence``'s
subject.  Here the driver bumps the epoch before a repeat it would
serve, so every lookup of the cached twin is a miss or a re-pricing and
the two must match record for record.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.obs as obs
from repro.fed import FederationError, ReplicaManager, plan_key
from repro.harness import DEFAULT_SERVER_SPECS, build_databases, build_federation
from repro.sim.failures import OutageSchedule
from repro.workload import TEST_SCALE, build_workload
from tests.executions import noted_executions

TABLES = ("customer", "lineitem", "orders", "product", "supplier")
#: S3 starts with one table group; the rest is registered mid-run.
START_PLACEMENT = {"S1": TABLES, "S2": TABLES, "S3": ("orders", "customer")}
LATE_PLACEMENTS = ("lineitem", "supplier", "product")
SERVERS = tuple(START_PLACEMENT)
SQLS = tuple(
    instance.sql for instance in build_workload(instances_per_type=1, seed=7)
)
TOLERANCE_MS = 200.0

SUBMIT = st.tuples(
    st.just("submit"),
    st.integers(0, len(SQLS) - 1),
    st.sampled_from((None, TOLERANCE_MS)),
)
EVENT = st.one_of(
    st.tuples(st.just("recalibrate")),
    st.tuples(st.just("bump")),
    st.tuples(st.just("probe")),
    st.tuples(
        st.just("outage"),
        st.sampled_from(SERVERS),
        st.sampled_from((40.0, 400.0, 4_000.0)),
    ),
    st.tuples(st.just("register")),
    st.tuples(st.just("write"), st.sampled_from(TABLES)),
    st.tuples(st.just("advance"), st.sampled_from((50.0, 150.0, 2_500.0))),
)
#: Two submissions for every event, so most events are followed by
#: lookups that find what they ended.
OPS = st.lists(st.one_of(SUBMIT, SUBMIT, EVENT), min_size=20, max_size=60)


@pytest.fixture(scope="module")
def twin_databases():
    """One set per twin, so neither sees the other's statement caches."""
    return tuple(
        build_databases(DEFAULT_SERVER_SPECS, TEST_SCALE, seed=7)
        for _ in range(2)
    )


class Twin:
    def __init__(self, databases, enable_plan_cache):
        self.deployment = build_federation(
            scale=TEST_SCALE,
            prebuilt_databases=databases,
            placement=START_PLACEMENT,
            enable_plan_cache=enable_plan_cache,
        )
        self.integrator = self.deployment.integrator
        self.noted = noted_executions(self.deployment.meta_wrapper)
        self.manager = ReplicaManager(self.deployment.registry)
        self.integrator.replica_manager = self.manager
        self.late = list(LATE_PLACEMENTS)

    @property
    def now(self):
        return self.deployment.clock.now

    def apply(self, op):
        kind, *args = op
        deployment = self.deployment
        if kind == "recalibrate":
            deployment.qcc.recalibrate(self.now)
        elif kind == "bump":
            self.integrator.calibration_epoch.bump()
        elif kind == "probe":
            deployment.qcc.probe_servers(self.now)
        elif kind == "outage":
            server, duration = args
            deployment.servers[server].availability = OutageSchedule(
                [(self.now, self.now + duration)]
            )
        elif kind == "register" and self.late:
            deployment.registry.register(self.late.pop(0), "S3")
        elif kind == "write":
            self.manager.note_write(args[0], self.now)
        elif kind == "advance":
            deployment.clock.advance(args[0])

    def submit(self, sql, tolerance):
        """What one query looked like from outside, failure included."""
        try:
            result = self.integrator.submit(sql, staleness_tolerance_ms=tolerance)
        except FederationError as error:
            return ("failed", str(error)), None
        seen = (
            result.describe(),
            result.total_cost.hex(),
            result.response_ms,
            result.retries,
            result.rows,
            [
                (
                    fragment_id,
                    f.server,
                    f.plan_signature,
                    f.estimated_total.hex(),
                    f.calibrated_total.hex(),
                )
                for fragment_id, f in result.fragments.items()
            ],
            # Where each fragment was priced: its candidate servers
            # that answered.
            sorted(
                (e.attributes["fragment"], e.attributes["server"])
                for e in result.trace.find("calibration_lookup")
            ),
        )
        return seen, result.trace

    def books(self):
        qcc = self.deployment.qcc
        return {
            "status": qcc.status(),
            "noted": self.noted,
            "patrol": self.integrator.patroller.records(),
            "clock": self.now,
        }


def span_names(trace, without=("plan_cache",)):
    """Pre-order span names, minus the subtrees named in *without*."""

    def walk(span):
        if span.name in without:
            return
        yield span.name
        for child in span.children:
            yield from walk(child)

    return [name for root in trace.spans for name in walk(root)]


@given(ops=OPS)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_repricing_is_recompiling(twin_databases, ops):
    obs.configure(metrics=False, tracing=True, log_level=None)
    try:
        cached = Twin(twin_databases[0], enable_plan_cache=True)
        oracle = Twin(twin_databases[1], enable_plan_cache=False)
        cache = cached.integrator.plan_cache
        for op in ops:
            if op[0] != "submit":
                cached.apply(op)
                oracle.apply(op)
                continue
            _, index, tolerance = op
            key = plan_key(SQLS[index], staleness_tolerance_ms=tolerance)
            entry = cache._entries.get(key)
            if entry is not None and cache._is_live(entry, cached.now):
                cached.apply(("bump",))
                oracle.apply(("bump",))
            seen, trace = cached.submit(SQLS[index], tolerance)
            expected, oracle_trace = oracle.submit(SQLS[index], tolerance)
            assert seen == expected, op
            if trace is not None:
                assert span_names(trace) == span_names(oracle_trace), op
            assert cached.books() == oracle.books(), op
        assert cached.books() == oracle.books()  # after trailing events
        # Every lookup was a miss or a re-pricing, as the driver intends.
        assert cache.hits == 0
    finally:
        obs.disable()


def test_new_placement_drops_the_kept_decomposition(twin_databases):
    """The compiled half has its own horizon: a topology change."""
    twin = Twin(twin_databases[0], enable_plan_cache=True)
    sql = "SELECT COUNT(*) FROM supplier"
    decomposed, _ = twin.integrator.compile(sql)
    assert decomposed.fragments[0].candidate_servers == ("S1", "S2")
    twin.integrator.calibration_epoch.bump()
    kept, _ = twin.integrator.compile(sql)
    assert kept is decomposed
    twin.deployment.registry.register("supplier", "S3")
    widened, plans = twin.integrator.compile(sql)
    assert widened.fragments[0].candidate_servers == ("S1", "S2", "S3")
    assert any("S3" in plan.servers for plan in plans)
    stats = twin.integrator.plan_cache.stats()
    assert (stats["hits"], stats["misses"], stats["invalidations"]) == (0, 3, 2)
    assert stats["entries"] == 1
