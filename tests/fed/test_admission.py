"""Admission control: classes, token buckets, arrivals, shed evidence."""

import itertools
import math

import pytest

from repro.fed.admission import (
    AdmissionController,
    AdmissionDecision,
    BurstyArrivals,
    DEFAULT_CLASSES,
    PoissonArrivals,
    PriorityClass,
    TokenBucket,
    make_arrivals,
    parse_class_spec,
    shed_violations,
)


class TestPriorityClasses:
    def test_defaults_are_ordered_and_weighted(self):
        ranks = [spec.rank for spec in DEFAULT_CLASSES]
        assert ranks == sorted(ranks)
        assert sum(spec.weight for spec in DEFAULT_CLASSES) == pytest.approx(
            1.0
        )
        # Exactly the lowest class is budget/rate limited by default.
        limited = [
            spec for spec in DEFAULT_CLASSES if math.isfinite(spec.budget_ms)
        ]
        assert [spec.name for spec in limited] == ["batch"]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PriorityClass("x", rank=0, weight=-1.0)
        with pytest.raises(ValueError):
            PriorityClass("x", rank=0, budget_ms=0.0)
        with pytest.raises(ValueError):
            PriorityClass("x", rank=0, rate_qps=0.0)
        with pytest.raises(ValueError):
            PriorityClass("x", rank=0, burst=0.5)

    def test_parse_class_spec(self):
        classes = parse_class_spec(
            "gold=0.2:inf:inf,silver=0.5:3000:inf,batch=0.3:800:10:5"
        )
        assert [spec.name for spec in classes] == ["gold", "silver", "batch"]
        assert [spec.rank for spec in classes] == [0, 1, 2]
        assert classes[0].budget_ms == math.inf
        assert classes[1].budget_ms == 3000.0
        assert classes[2].rate_qps == 10.0 and classes[2].burst == 5.0

    @pytest.mark.parametrize(
        "spec", ["", "gold", "gold=0.2", "a=1:inf:inf,a=1:inf:inf"]
    )
    def test_parse_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            parse_class_spec(spec)


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate_qps=10.0, burst=2.0, t0_ms=0.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)  # burst exhausted
        # 10 q/s refills one token every 100 ms.
        assert not bucket.try_take(50.0)
        assert bucket.try_take(100.0)
        assert not bucket.try_take(100.0)

    def test_tokens_cap_at_burst(self):
        bucket = TokenBucket(rate_qps=1000.0, burst=3.0, t0_ms=0.0)
        assert bucket.available(60_000.0) == 3.0


class TestArrivals:
    @pytest.mark.parametrize("process", ["poisson", "bursty"])
    def test_same_seed_is_byte_identical(self, process):
        a = make_arrivals(process, 50.0, 7, "test").gaps()
        b = make_arrivals(process, 50.0, 7, "test").gaps()
        assert list(itertools.islice(a, 200)) == list(
            itertools.islice(b, 200)
        )

    def test_streams_with_different_paths_differ(self):
        a = make_arrivals("poisson", 50.0, 7, "one").gaps()
        b = make_arrivals("poisson", 50.0, 7, "two").gaps()
        assert list(itertools.islice(a, 20)) != list(
            itertools.islice(b, 20)
        )

    def test_poisson_mean_gap_matches_rate(self):
        gaps = itertools.islice(PoissonArrivals(40.0, 3).gaps(), 4000)
        gaps = list(gaps)
        assert sum(gaps) / len(gaps) == pytest.approx(25.0, rel=0.1)

    def test_bursty_long_run_rate_matches_and_clusters(self):
        process = BurstyArrivals(40.0, 3)
        gaps = list(itertools.islice(process.gaps(), 6000))
        # Long-run average rate is the nominal one...
        assert sum(gaps) / len(gaps) == pytest.approx(25.0, rel=0.15)
        # ...but arrivals cluster: within-burst gaps are much shorter
        # than the memoryless equivalent, so gap variance is higher.
        mean = sum(gaps) / len(gaps)
        variance = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        assert variance > 2.0 * mean**2  # Poisson would give ~= mean^2

    def test_unknown_process_rejected(self):
        with pytest.raises(ValueError):
            make_arrivals("lockstep", 10.0, 7)


class _StubQueue:
    def __init__(self, backlog):
        self._backlog = backlog

    def backlog_ms(self, t_ms):
        return self._backlog


class TestAdmissionController:
    def _controller(self, **backlogs):
        classes = (
            PriorityClass("gold", rank=0),
            PriorityClass(
                "batch",
                rank=1,
                budget_ms=100.0,
                rate_qps=10.0,
                burst=2.0,
            ),
        )
        sources = {
            name: _StubQueue(value) for name, value in backlogs.items()
        }
        return AdmissionController(classes, backlog_sources=sources)

    def test_predicted_sojourn_is_worst_remote_plus_ii(self):
        controller = self._controller(S1=40.0, S2=70.0, II=15.0)
        assert controller.predicted_sojourn_ms(0.0) == pytest.approx(85.0)

    def test_admits_with_headroom(self):
        controller = self._controller(S1=10.0, II=0.0)
        decision = controller.decide("batch", 0.0)
        assert decision.admitted and decision.reason == ""

    def test_sheds_over_budget_without_spending_a_token(self):
        controller = self._controller(S1=150.0, II=0.0)
        decision = controller.decide("batch", 0.0)
        assert not decision.admitted
        assert decision.reason == "budget-exhausted"
        # The doomed query must not have consumed a token: both burst
        # tokens are still there for the next (viable) arrival.
        assert controller._buckets["batch"].available(0.0) == 2.0

    def test_sheds_on_empty_bucket(self):
        controller = self._controller(S1=0.0, II=0.0)
        assert controller.decide("batch", 0.0).admitted
        assert controller.decide("batch", 0.0).admitted
        decision = controller.decide("batch", 0.0)
        assert not decision.admitted and decision.reason == "no-tokens"

    def test_unbudgeted_class_never_budget_sheds(self):
        controller = self._controller(S1=10_000.0, II=10_000.0)
        assert controller.decide("gold", 0.0).admitted

    def test_unknown_class_rejected(self):
        controller = self._controller()
        with pytest.raises(KeyError):
            controller.decide("platinum", 0.0)

    def test_recorded_decisions_pass_the_audit(self):
        controller = self._controller(S1=150.0, II=0.0)
        controller.decide("gold", 0.0)
        controller.decide("batch", 0.0)  # budget shed
        assert shed_violations(controller.decisions) == []


class TestShedViolationsAudit:
    def _decision(self, **overrides):
        base = dict(
            klass="batch",
            t_ms=0.0,
            admitted=False,
            tokens_before=0.0,
            predicted_ms=500.0,
            budget_ms=100.0,
            reason="budget-exhausted",
        )
        base.update(overrides)
        return AdmissionDecision(**base)

    def test_legitimate_sheds_pass(self):
        assert shed_violations([self._decision()]) == []
        assert (
            shed_violations(
                [
                    self._decision(
                        predicted_ms=10.0, reason="no-tokens"
                    )
                ]
            )
            == []
        )

    def test_headroom_shed_is_flagged(self):
        flagged = shed_violations(
            [
                self._decision(
                    tokens_before=3.0,
                    predicted_ms=10.0,
                    reason="no-tokens",
                )
            ]
        )
        assert flagged and "headroom" in flagged[0]

    def test_unknown_reason_is_flagged(self):
        flagged = shed_violations([self._decision(reason="felt-like-it")])
        assert any("unknown reason" in message for message in flagged)

    def test_admitted_decisions_are_ignored(self):
        admitted = self._decision(
            admitted=True, tokens_before=5.0, predicted_ms=0.0, reason=""
        )
        assert shed_violations([admitted]) == []
