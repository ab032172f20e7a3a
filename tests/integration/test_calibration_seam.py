"""The II-MW-QCC seam: there is always a calibration, and the identity
one is indistinguishable from the ``qcc=None`` wiring it replaced."""

import hashlib

import pytest

import repro.obs as obs
from repro.core import Calibration, QueryCostCalibrator
from repro.core.whatif import _CalibrationOnlyView
from repro.fed import InformationIntegrator
from repro.harness import build_federation, build_replica_federation
from repro.workload import TEST_SCALE
from repro.workload.queries import EXTENDED_QUERY_TYPES, QT1
from repro.wrappers import MetaWrapper
from tests.executions import noted_executions

#: sha256 prefixes of :func:`result_digest` over QT1-QT5 (instance 0,
#: submitted in order to one fresh federation built with the identity
#: calibration).  First pinned at the commit before the identity
#: calibration existed, where such a federation held ``qcc=None``
#: behind 25 guards; re-pinned when the result stopped keeping its
#: plan and executions, by digesting the fields that remain over the
#: results of the commit before, which still matched the first pins.
#: The replica QT2 digest moved once more when each operator's unit got
#: one definition: its one fragment's cost (estimated, calibrated and
#: total, one number under the identity) moved in the last bit.
#: All ten moved when the per-leaf startup constant left the cost
#: formula; with ``merge_cost``, ``total_cost``, each fragment's
#: estimated and calibrated totals and the costs ``describe()`` prints
#: blanked, every digest equals the one before, so only costs moved.
PARENT_DIGESTS = {
    "triple": [
        "285acd7ac3d39e19",
        "96835b00c205ce11",
        "9dd00069e5ef6c6d",
        "110d69a49df16555",
        "75ea265a97fd6546",
    ],
    "replica": [
        "99bce5784928e67f",
        "1d59dfb76a02267b",
        "84426828f90ac994",
        "aa0ec434de2fca5e",
        "cb41262b2add2863",
    ],
}


def result_digest(result) -> str:
    """Every field of a FederatedResult that is data, floats as hex."""
    parts = [
        repr(result.rows),
        repr([c.name for c in result.schema.columns]),
        result.response_ms.hex(),
        result.merge_ms.hex(),
        result.remote_ms.hex(),
        repr((result.retries, result.reroutes, result.record.query_id)),
        result.describe(),
        repr(sorted(result.servers)),
        result.merge_cost.hex(),
        result.total_cost.hex(),
    ]
    for fragment_id, fragment in sorted(result.fragments.items()):
        parts.append(
            repr(
                (
                    fragment_id,
                    fragment.server,
                    fragment.plan_signature,
                    fragment.estimated_total.hex(),
                    fragment.calibrated_total.hex(),
                    fragment.observed_ms.hex(),
                    fragment.row_count,
                )
            )
        )
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@pytest.mark.parametrize(
    "topology, build",
    [("triple", build_federation), ("replica", build_replica_federation)],
)
def test_uncalibrated_federation_matches_the_parents_none_wiring(
    topology, build
):
    deployment = build(scale=TEST_SCALE, calibration=Calibration())
    digests = [
        result_digest(
            deployment.integrator.submit(
                template.instance(0).sql, label=template.name
            )
        )[:16]
        for template in EXTENDED_QUERY_TYPES
    ]
    assert digests == PARENT_DIGESTS[topology]


class TestIdentityCalibration:
    def test_answers_are_the_objects_that_came_in(self, sample_databases):
        deployment = build_federation(
            scale=TEST_SCALE,
            calibration=Calibration(),
            prebuilt_databases=sample_databases,
        )
        qcc = deployment.qcc
        assert type(qcc) is Calibration
        decomposed, plans = deployment.integrator.compile(QT1.instance(0).sql)
        option = plans[0].choices[0]
        assert qcc.calibrate("S1", "sig", option.estimated) is option.estimated
        assert option.calibrated is option.estimated
        siblings = plans[0].siblings_of(option)
        assert qcc.substitute(option, siblings, 0.0) is option
        assert qcc.recommend_global(decomposed, plans, "QT1", 0.0) is plans[0]
        assert qcc.ii_factor() == 1.0 and qcc.factor("S1") == 1.0
        assert qcc.is_available("S9", 0.0)
        before = qcc.epoch.value
        qcc.record_error("S1", 0.0)
        qcc.tick(1e9)
        qcc.recalibrate(1e9)
        qcc.probe_servers(1e9)
        assert qcc.epoch.value == before

    def test_each_federation_gets_a_fresh_one(self, sample_databases):
        first, second = (
            build_federation(
                scale=TEST_SCALE,
                calibration=Calibration(),
                prebuilt_databases=sample_databases,
            )
            for _ in range(2)
        )
        assert first.qcc is not second.qcc
        assert first.qcc.epoch is not second.qcc.epoch
        assert MetaWrapper({}).qcc is not MetaWrapper({}).qcc

    def test_every_calibration_is_one(self, sample_databases):
        deployment = build_federation(
            scale=TEST_SCALE, prebuilt_databases=sample_databases
        )
        assert isinstance(deployment.qcc, QueryCostCalibrator)
        for cls in (QueryCostCalibrator, _CalibrationOnlyView):
            assert issubclass(cls, Calibration)
            assert "__getattr__" not in vars(cls)


def _route_qt1_under(calibration, sample_databases):
    """QT1 through a federation whose only non-default part is
    *calibration*: (its integrator, its traced result, the result of the
    identity-calibration federation the wrappers came from, the
    executions its meta-wrapper noted)."""
    plain = build_federation(
        scale=TEST_SCALE,
        calibration=Calibration(),
        prebuilt_databases=sample_databases,
    )
    meta_wrapper = MetaWrapper(plain.meta_wrapper.wrappers, qcc=calibration)
    integrator = InformationIntegrator(plain.registry, meta_wrapper)
    noted = noted_executions(meta_wrapper)
    sql = QT1.instance(0).sql
    obs.configure(metrics=False, tracing=True, log_level=None)
    try:
        result = integrator.submit(sql, label="QT1")
    finally:
        obs.disable()
    reference = plain.integrator.submit(sql, label="QT1")
    return integrator, result, reference, noted


class TestOverridingOnlyCalibrate:
    """A subclass that prices and does nothing else routes a query end
    to end: every other call of the seam has a default."""

    class Repricing(Calibration):
        def calibrate(self, server, fragment_signature, cost):
            return cost.scaled(8.0 if server == "S3" else 2.0)

    def test_routes_qt1_through_mw_and_ii(self, sample_databases):
        integrator, result, reference, noted = _route_qt1_under(
            self.Repricing(), sample_databases
        )
        meta_wrapper = integrator.meta_wrapper
        assert integrator.qcc is meta_wrapper.qcc
        assert integrator.calibration_epoch is meta_wrapper.qcc.epoch
        assert result.rows == reference.rows
        # S3 is the un-calibrated winner; pricing it 4x up moves the query.
        assert reference.servers == {"S3"}
        assert "S3" not in result.servers
        for fragment in result.fragments.values():
            assert fragment.calibrated_total == fragment.estimated_total * 2.0
        lookups = result.trace.find("calibration_lookup")
        assert {e.attributes["server"] for e in lookups} == {"S1", "S2", "S3"}
        assert {e.attributes["calibration_factor"] for e in lookups} == {
            2.0,
            8.0,
        }
        # The execution was reported through the seam's defaults.
        assert [e.server for e in noted] == [
            f.server for f in result.fragments.values()
        ]


class TestOverridingOnlySubstitute:
    """A subclass that only diverts the dispatch routes a query end to
    end: compilation, plan choice and reporting run on the defaults."""

    class Diverting(Calibration):
        def substitute(self, option, siblings, t_ms):
            return next(o for o in siblings if o.server == "S1")

    def test_routes_qt1_through_mw_and_ii(self, sample_databases):
        _, result, reference, noted = _route_qt1_under(
            self.Diverting(), sample_databases
        )
        assert result.rows == reference.rows
        # Identity pricing compiles the reference's plan; only the
        # dispatch leaves it.
        assert result.servers == reference.servers == {"S3"}
        (fragment,) = result.fragments.values()
        assert fragment.server == "S1"
        (event,) = result.trace.find("substitution")
        assert event.attributes["from_server"] == "S3"
        assert event.attributes["to_server"] == "S1"
        assert [e.server for e in noted] == ["S1"]
