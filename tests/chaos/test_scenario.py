"""Scenario generation: determinism, serialisation, validity."""

import pytest

from repro.chaos import (
    ARRIVAL_PROCESSES,
    ArrivalSpec,
    FAULT_KINDS,
    FaultEvent,
    QuerySpec,
    ScenarioSpec,
    TOPOLOGY_SERVERS,
    generate_scenario,
    generate_scenarios,
)
from repro.chaos import scenario
from repro.chaos.scenario import (
    CHAOS_CLASS_NAMES,
    HORIZON_MS,
    QUERY_TYPE_NAMES,
    fault_window_steps,
)


class TestGeneratorDeterminism:
    def test_same_seed_index_is_byte_identical(self):
        for index in range(10):
            a = generate_scenario(42, index)
            b = generate_scenario(42, index)
            assert a == b
            assert a.canonical_json() == b.canonical_json()

    def test_generate_scenarios_matches_pointwise(self):
        batch = generate_scenarios(7, 8)
        for index, spec in enumerate(batch):
            assert spec == generate_scenario(7, index)

    def test_different_seeds_differ(self):
        a = [generate_scenario(1, i).canonical_json() for i in range(5)]
        b = [generate_scenario(2, i).canonical_json() for i in range(5)]
        assert a != b

    def test_component_streams_are_independent(self, monkeypatch):
        """Fault sampling must not perturb the workload stream.

        Halving the horizon changes every fault window but draws from
        the ``faults`` stream only — topology and queries are sampled
        from their own derived streams and must not move.
        """
        spec = generate_scenario(42, 0)
        monkeypatch.setattr(scenario, "HORIZON_MS", HORIZON_MS / 2)
        narrow = generate_scenario(42, 0)
        assert narrow.faults != spec.faults
        assert narrow.topology == spec.topology
        assert narrow.queries == spec.queries
        assert narrow.staleness_tolerance_ms == spec.staleness_tolerance_ms


class TestSerialisation:
    @pytest.mark.parametrize("index", range(8))
    def test_json_round_trip(self, index):
        spec = generate_scenario(42, index)
        assert ScenarioSpec.from_json(spec.canonical_json()) == spec

    def test_dict_round_trip_preserves_tolerance(self):
        spec = ScenarioSpec(
            seed=1,
            index=0,
            topology="replica",
            queries=(QuerySpec("QT1", 0, 50.0),),
            staleness_tolerance_ms=500.0,
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_canonical_json_is_key_sorted(self):
        payload = generate_scenario(3, 0).canonical_json()
        assert payload.index('"faults"') < payload.index('"queries"')

    def test_arrival_round_trip(self):
        spec = ScenarioSpec(
            seed=1,
            index=0,
            topology="triple",
            queries=(QuerySpec("QT1", 0, 12.5, klass="gold"),),
            arrival=ArrivalSpec(process="bursty", rate_qps=40.0),
        )
        clone = ScenarioSpec.from_json(spec.canonical_json())
        assert clone == spec
        assert clone.arrival.describe() == "bursty@40qps"
        assert clone.queries[0].klass == "gold"

    def test_sampled_concurrent_scenario_round_trips(self):
        spec = next(
            generate_scenario(42, index)
            for index in range(20)
            if generate_scenario(42, index).arrival is not None
        )
        assert ScenarioSpec.from_json(spec.canonical_json()) == spec

    def test_legacy_dict_without_concurrency_keys_parses(self):
        # Verdict JSON written before the concurrency dimension existed
        # has no ``arrival`` key and no per-query ``klass`` — it must
        # keep deserialising as a sequential scenario.
        spec = generate_scenario(42, 0)
        payload = spec.to_dict()
        payload.pop("arrival", None)
        for query in payload["queries"]:
            query.pop("klass", None)
        legacy = ScenarioSpec.from_dict(payload)
        assert legacy.arrival is None
        assert all(q.klass == "" for q in legacy.queries)

    def test_unknown_arrival_process_rejected(self):
        with pytest.raises(ValueError):
            ArrivalSpec(process="lockstep", rate_qps=10.0)

    def test_hedge_round_trip(self):
        spec = ScenarioSpec(
            seed=1,
            index=0,
            topology="replica",
            queries=(QuerySpec("QT1", 0, 12.5, klass="gold"),),
            arrival=ArrivalSpec(process="poisson", rate_qps=40.0),
            hedge_after_ms=75.0,
        )
        clone = ScenarioSpec.from_json(spec.canonical_json())
        assert clone == spec
        assert clone.hedge_after_ms == 75.0

    def test_hedge_key_absent_when_disabled(self):
        """hedge_after_ms=None must not appear in the serialised dict at
        all — pre-hedging verdict JSONL stays byte-identical, and old
        payloads without the key keep parsing."""
        spec = generate_scenario(42, 0)
        assert spec.hedge_after_ms is None
        payload = spec.to_dict()
        assert "hedge_after_ms" not in payload
        assert ScenarioSpec.from_dict(payload).hedge_after_ms is None

    def test_generator_never_samples_hedging(self):
        # Opt-in only (--hedge-after): sampled sweeps keep exact bytes.
        for index in range(20):
            assert generate_scenario(42, index).hedge_after_ms is None

    def test_reroute_round_trip(self):
        spec = ScenarioSpec(
            seed=1,
            index=0,
            topology="replica",
            queries=(QuerySpec("QT1", 0, 12.5, klass="gold"),),
            arrival=ArrivalSpec(process="poisson", rate_qps=40.0),
            reroute_batch_rows=16,
        )
        clone = ScenarioSpec.from_json(spec.canonical_json())
        assert clone == spec
        assert clone.reroute_batch_rows == 16

    def test_reroute_key_absent_when_disabled(self):
        # Same byte-compat contract as hedging: the key only appears
        # when the dimension is on, so pre-rerouting verdict JSONL is
        # unchanged and old payloads keep parsing.
        spec = generate_scenario(42, 0)
        assert spec.reroute_batch_rows is None
        payload = spec.to_dict()
        assert "reroute_batch_rows" not in payload
        assert ScenarioSpec.from_dict(payload).reroute_batch_rows is None

    def test_hedge_and_reroute_combine_and_round_trip(self):
        spec = ScenarioSpec(
            seed=1,
            index=0,
            topology="replica",
            queries=(QuerySpec("QT1", 0, 12.5, klass="gold"),),
            arrival=ArrivalSpec(process="poisson", rate_qps=40.0),
            hedge_after_ms=75.0,
            reroute_batch_rows=16,
        )
        clone = ScenarioSpec.from_json(spec.canonical_json())
        assert clone == spec
        assert (clone.hedge_after_ms, clone.reroute_batch_rows) == (75.0, 16)

    def test_default_sweep_never_samples_rerouting(self):
        for index in range(20):
            spec = generate_scenario(42, index)
            assert spec.reroute_batch_rows is None
            # Opting out explicitly is byte-identical to the default.
            assert (
                generate_scenario(42, index, reroute_rate=0.0)
                .canonical_json()
                == spec.canonical_json()
            )

    def test_reroute_rate_touches_only_concurrent_specs(self):
        from repro.chaos.scenario import REROUTE_BATCH_CHOICES

        sampled = 0
        for index in range(20):
            base = generate_scenario(42, index)
            spec = generate_scenario(42, index, reroute_rate=1.0)
            if base.arrival is None:
                assert spec == base
                continue
            assert spec.reroute_batch_rows in REROUTE_BATCH_CHOICES
            sampled += 1
            # Only the reroute field moves; every other stream is
            # untouched by the new dimension's RNG draw.
            assert spec.queries == base.queries
            assert spec.faults == base.faults
            assert spec.arrival == base.arrival
            assert spec.topology == base.topology
        assert sampled > 0


class TestValidity:
    @pytest.mark.parametrize("index", range(20))
    def test_sampled_scenarios_are_well_formed(self, index):
        spec = generate_scenario(99, index)
        servers = TOPOLOGY_SERVERS[spec.topology]
        assert 4 <= len(spec.queries) <= 8
        assert 1 <= len(spec.faults) <= 6
        for query in spec.queries:
            assert query.query_type in QUERY_TYPE_NAMES
            assert 0 <= query.instance_id <= 9
            if spec.arrival is None:
                # Sequential scenarios keep the paper's think-time band
                # and carry no priority class.
                assert 20.0 <= query.gap_ms <= 200.0
                assert query.klass == ""
            else:
                # Concurrent scenarios draw exponential interarrival
                # gaps and tag every query with a priority class.
                assert query.gap_ms >= 0.0
                assert query.klass in CHAOS_CLASS_NAMES
            assert query.sql(7).startswith("SELECT")
        if spec.arrival is not None:
            assert spec.arrival.process in ARRIVAL_PROCESSES
            assert spec.arrival.rate_qps > 0.0
        for fault in spec.faults:
            assert fault.kind in FAULT_KINDS
            assert fault.server in servers
            assert 0.0 <= fault.start_ms <= fault.end_ms
            assert fault.end_ms <= HORIZON_MS * 1.2
        if spec.topology == "triple":
            assert all(f.kind != "replica_lag" for f in spec.faults)
            assert spec.staleness_tolerance_ms is None

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(seed=1, index=0, topology="mesh", queries=())

    def test_fault_outside_topology_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(
                seed=1,
                index=0,
                topology="triple",
                queries=(),
                faults=(FaultEvent("outage", "R1", 0.0, 100.0),),
            )

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("meteor", "S1", 0.0, 100.0)

    def test_without_faults_strips_schedule_only(self):
        spec = generate_scenario(42, 1)
        oracle = spec.without_faults()
        assert oracle.faults == ()
        assert oracle.queries == spec.queries
        assert oracle.topology == spec.topology


class TestFaultWindowSteps:
    def test_overlap_takes_max_level(self):
        steps = fault_window_steps(
            [
                FaultEvent("storm", "S1", 100.0, 300.0, magnitude=0.4),
                FaultEvent("storm", "S1", 200.0, 400.0, magnitude=0.8),
            ]
        )
        assert steps == [
            (100.0, 0.4),
            (200.0, 0.8),
            (400.0, 0.0),
        ]

    def test_disjoint_windows_return_to_zero(self):
        steps = fault_window_steps(
            [
                FaultEvent("latency", "S1", 100.0, 200.0, magnitude=0.5),
                FaultEvent("latency", "S1", 300.0, 400.0, magnitude=0.7),
            ]
        )
        assert steps == [
            (100.0, 0.5),
            (200.0, 0.0),
            (300.0, 0.7),
            (400.0, 0.0),
        ]
