"""Hedged fragment dispatch: policy unit tests + runtime equivalence.

The contract under test has two halves.  *Disabled* (``hedge_after_ms is
None``) the concurrent runtime must be bit-identical to the pre-hedging
dispatch path — same rows, same times, same calibrator feedback.
*Enabled*, results stay correct (backup replicas return the same rows)
and the whole run remains a pure function of the seed.
"""

import pytest

from repro.core import Calibration
from repro.fed import ConcurrentRuntime, HedgePolicy, hedging
from repro.fed.concurrent import RacedDispatch
from repro.fed.hedging import MAX_TRACKED
from repro.harness import build_federation, build_replica_federation
from repro.workload import TEST_SCALE, build_workload
from tests.executions import noted_executions


@pytest.fixture(scope="module")
def replica_databases():
    """Loaded S1/R1/S2/R2 databases, shared across this module."""
    deployment = build_replica_federation(
        scale=TEST_SCALE, seed=7, calibration=Calibration()
    )
    return {
        name: server.database
        for name, server in deployment.servers.items()
    }


@pytest.fixture()
def make_deployment(replica_databases):
    def factory():
        return build_replica_federation(
            scale=TEST_SCALE, seed=7, prebuilt_databases=replica_databases
        )

    return factory


def _drive(
    deployment,
    hedge_after_ms,
    spacing_ms=1.0,
    reroute_batch_rows=None,
    bumps=0,
):
    runtime = ConcurrentRuntime(
        deployment.integrator,
        hedge_after_ms=hedge_after_ms,
        reroute_batch_rows=reroute_batch_rows,
    )
    handles = [
        runtime.submit_at(index * spacing_ms, instance.sql, klass="gold")
        for index, instance in enumerate(
            build_workload(instances_per_type=2)
        )
    ]
    epoch = deployment.integrator.calibration_epoch
    for tick in range(bumps):
        runtime.scheduler.call_at(5.0 * (tick + 1), epoch.bump)
    runtime.run()
    return runtime, handles


def _observables(handles):
    rows = []
    for handle in handles:
        result = handle.result
        assert result is not None, handle.error
        rows.append(
            (
                tuple(result.rows),
                result.response_ms,
                result.remote_ms,
                result.merge_ms,
                result.retries,
                result.servers,
            )
        )
    return rows


class TestHedgePolicy:
    def test_static_fallback_until_min_samples(self, monkeypatch):
        monkeypatch.setattr(hedging, "MIN_SAMPLES", 4)
        policy = HedgePolicy(50.0)
        for latency in (1.0, 2.0, 3.0):
            policy.observe("sig", latency)
        assert policy.hedge_after("sig") == 50.0
        policy.observe("sig", 4.0)
        assert policy.hedge_after("sig") != 50.0

    def test_quantile_takeover_tracks_tail(self):
        assert (hedging.MIN_SAMPLES, hedging.QUANTILE) == (8, 0.95)
        policy = HedgePolicy(50.0)
        # 19 fast observations and one 100ms straggler: p95 of the
        # sorted window lands on the straggler.
        for _ in range(19):
            policy.observe("sig", 10.0)
        policy.observe("sig", 100.0)
        assert policy.hedge_after("sig") == 100.0
        # An unknown signature still gets the static fallback.
        assert policy.hedge_after("other") == 50.0

    def test_window_is_sliding(self, monkeypatch):
        monkeypatch.setattr(hedging, "MIN_SAMPLES", 2)
        monkeypatch.setattr(hedging, "WINDOW", 4)
        policy = HedgePolicy(50.0)
        for latency in (100.0, 100.0, 1.0, 1.0, 1.0, 1.0):
            policy.observe("sig", latency)
        # The two 100ms samples have slid out of the 4-wide window.
        assert policy.hedge_after("sig") == 1.0

    def test_history_is_lru_bounded(self):
        policy = HedgePolicy(50.0)
        for index in range(MAX_TRACKED + 32):
            policy.observe(f"sig-{index}", 1.0)
        assert len(policy._history) <= MAX_TRACKED
        # The most recent signatures survive, the oldest are evicted.
        assert policy.samples(f"sig-{MAX_TRACKED + 31}") == 1
        assert policy.samples("sig-0") == 0

    def test_depth_cap_gates_backup(self, monkeypatch):
        monkeypatch.setattr(hedging, "DEPTH_CAP", 2)
        policy = HedgePolicy(50.0)
        assert policy.allow_backup(0)
        assert policy.allow_backup(2)
        assert not policy.allow_backup(3)

    def test_outcome_bookkeeping(self):
        policy = HedgePolicy(50.0)
        assert policy.fired == 0
        policy.note_outcome(winner="backup", wasted_ms=3.0)
        policy.note_outcome(winner="primary", wasted_ms=2.0)
        assert policy.fired == 2
        assert policy.backup_wins == 1
        assert policy.primary_wins == 1
        assert policy.wasted_ms == pytest.approx(5.0)

    def test_runtime_knob_none_disables(self, make_deployment):
        assert ConcurrentRuntime(make_deployment().integrator).hedging is None
        runtime = ConcurrentRuntime(
            make_deployment().integrator, hedge_after_ms=25.0
        )
        assert runtime.hedging.static_after_ms == 25.0

    def test_rejects_invalid_configuration(self):
        with pytest.raises(ValueError):
            HedgePolicy(-1.0)


class TestDisabledEquivalence:
    def test_disabled_matches_plain_runtime_bit_for_bit(
        self, make_deployment
    ):
        plain_runtime, plain = _drive(make_deployment(), None)
        assert plain_runtime.hedging is None

        # hedge_after_ms=None must take the *identical* dispatch path:
        # every observable, including float residue, matches.
        _, disabled = _drive(make_deployment(), hedge_after_ms=None)
        assert _observables(disabled) == _observables(plain)

    def test_unreachable_timeout_matches_disabled(self, make_deployment):
        """A hedge timer that never fires changes nothing: rows and
        routing match the disabled run exactly (scheduling floats may
        carry residue from the wrapped dispatch path, rows may not)."""
        _, disabled = _drive(make_deployment(), None)
        runtime, armed = _drive(make_deployment(), hedge_after_ms=1e9)
        assert runtime.hedging is not None
        assert runtime.hedging.fired == 0
        for lazy, eager in zip(
            _observables(armed), _observables(disabled)
        ):
            assert lazy[0] == eager[0]  # rows
            assert lazy[5] == eager[5]  # chosen servers

    def test_idle_rerouting_beside_hedging_changes_nothing(
        self, make_deployment
    ):
        """With both knobs on but no calibration-epoch bump the
        interrupt never fires: bit-identical to hedging alone."""
        hedged_rt, hedged = _drive(make_deployment(), hedge_after_ms=1.0)
        both_rt, both = _drive(
            make_deployment(), hedge_after_ms=1.0, reroute_batch_rows=4
        )
        assert hedged_rt.hedging.fired > 0
        assert both_rt.rerouting.fired == 0
        assert _observables(both) == _observables(hedged)
        assert both_rt.hedging.stats() == hedged_rt.hedging.stats()

    def test_disabled_calibrator_feedback_identical(self, make_deployment):
        plain_dep = make_deployment()
        plain = noted_executions(plain_dep.meta_wrapper)
        _drive(plain_dep, None)
        disabled_dep = make_deployment()
        disabled = noted_executions(disabled_dep.meta_wrapper)
        _drive(disabled_dep, hedge_after_ms=None)
        assert plain and disabled == plain


class TestHedgedRuns:
    def test_aggressive_hedging_preserves_rows(self, make_deployment):
        """hedge_after_ms=1 fires backups constantly; every query must
        still return exactly the rows of the unhedged run."""
        _, plain = _drive(make_deployment(), None)
        runtime, hedged = _drive(make_deployment(), hedge_after_ms=1.0)
        assert runtime.hedging is not None
        assert runtime.hedging.fired > 0
        for hedged_obs, plain_obs in zip(
            _observables(hedged), _observables(plain)
        ):
            assert hedged_obs[0] == plain_obs[0]

    def test_hedged_run_is_deterministic(self, make_deployment):
        first_rt, first = _drive(make_deployment(), hedge_after_ms=1.0)
        second_rt, second = _drive(make_deployment(), hedge_after_ms=1.0)
        assert _observables(first) == _observables(second)
        assert first_rt.hedging.fired == second_rt.hedging.fired
        assert first_rt.hedging.backup_wins == second_rt.hedging.backup_wins
        assert (
            first_rt.hedging.wasted_ms == second_rt.hedging.wasted_ms
        )

    def test_only_winner_reaches_runtime_log(self, make_deployment):
        """Cancelled losers must not feed the calibrator: the meta-
        wrapper notes exactly one execution per fragment dispatch, and
        every loser shows up in the hedge-cancelled counter instead."""
        deployment = make_deployment()
        noted = noted_executions(deployment.meta_wrapper)
        runtime, handles = _drive(deployment, hedge_after_ms=1.0)
        policy = runtime.hedging
        assert policy.fired > 0

        fragments = 0
        for handle in handles:
            result = handle.result
            assert result is not None
            fragments += len(result.servers)
        assert len(noted) == fragments

    def test_depth_cap_zero_suppresses_every_backup(
        self, make_deployment, monkeypatch
    ):
        """DEPTH_CAP=0 refuses any backup whose queue holds even one
        in-flight job; under overlapping load that suppresses hedges
        that a permissive cap would fire."""
        monkeypatch.setattr(hedging, "DEPTH_CAP", 100)
        permissive_rt, _ = _drive(make_deployment(), hedge_after_ms=1.0)
        monkeypatch.setattr(hedging, "DEPTH_CAP", 0)
        strict_rt, handles = _drive(make_deployment(), hedge_after_ms=1.0)
        assert strict_rt.hedging.suppressed >= permissive_rt.hedging.suppressed
        for handle in handles:  # suppression never breaks a query
            assert handle.result is not None, handle.error


class TestCombinedRuns:
    def test_both_legs_in_one_run_preserve_rows_and_replay(
        self, make_deployment
    ):
        """Hedging and re-routing on together, with calibration-epoch
        bumps landing mid-flight: some fragments take a hedge backup,
        others migrate (never both — one second-leg slot each), every
        query returns the plain run's rows, and a rerun is
        bit-identical."""
        _, plain = _drive(make_deployment(), None)

        def combined():
            return _drive(
                make_deployment(),
                hedge_after_ms=1.0,
                reroute_batch_rows=4,
                bumps=40,
            )

        first_rt, first = combined()
        assert first_rt.hedging.fired > 0
        assert first_rt.rerouting.fired > 0
        for combined_obs, plain_obs in zip(
            _observables(first), _observables(plain)
        ):
            assert combined_obs[0] == plain_obs[0]
        second_rt, second = combined()
        assert _observables(second) == _observables(first)
        assert second_rt.hedging.stats() == first_rt.hedging.stats()
        assert second_rt.rerouting.stats() == first_rt.rerouting.stats()


class TestTripleFederation:
    def test_timers_that_find_no_backup_change_nothing(
        self, sample_databases, monkeypatch
    ):
        """In the three-server federation each fragment's ranked cluster
        holds only its primary: the other servers' options lie outside
        the band.  Timers fire, ``_target`` finds no backup, and the run
        equals the unhedged one bit for bit."""
        targets = []
        find = RacedDispatch._target

        def counted(self, slot, t_fire):
            targets.append(find(self, slot, t_fire))
            return targets[-1]

        monkeypatch.setattr(RacedDispatch, "_target", counted)

        def run(hedge_after_ms):
            deployment = build_federation(
                scale=TEST_SCALE, prebuilt_databases=sample_databases
            )
            noted = noted_executions(deployment.meta_wrapper)
            runtime, handles = _drive(deployment, hedge_after_ms)
            return runtime, _observables(handles), noted

        _, plain, plain_noted = run(None)
        runtime, hedged, hedged_noted = run(1.0)
        assert len(targets) > 0 and set(targets) == {None}
        assert (runtime.hedging.fired, runtime.hedging.suppressed) == (0, 0)
        assert hedged == plain
        assert hedged_noted == plain_noted
