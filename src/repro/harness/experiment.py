"""Experiment runners implementing Section 5's procedure.

The central abstraction is the *phase sweep*: one deployment processes
the same workload under each of Table 1's load phases, with a warm-up
pass per phase so QCC (when present) adapts to the new conditions before
the measured pass — mirroring how the paper's system observes a phase
before benefiting from calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from ..fed import FederationError
from ..sim import ServerUnavailable
from ..workload import (
    LOAD_LEVEL,
    PHASES,
    Phase,
    QueryInstance,
)
from .deployment import Deployment
from .metrics import ResponseStats, mean, percent_gain


@dataclass(frozen=True)
class QueryOutcome:
    """One query's measured execution."""

    instance: QueryInstance
    response_ms: float
    servers: Tuple[str, ...]
    retries: int
    failed: bool = False

    @property
    def query_type(self) -> str:
        return self.instance.query_type


@dataclass
class PhaseOutcome:
    """All measured executions of one phase."""

    phase: Phase
    outcomes: List[QueryOutcome] = field(default_factory=list)

    @property
    def mean_response_ms(self) -> float:
        return mean([o.response_ms for o in self.outcomes if not o.failed])

    def stats(self) -> ResponseStats:
        return ResponseStats.from_samples(
            [o.response_ms for o in self.outcomes if not o.failed]
        )

    def by_type(self) -> Dict[str, float]:
        grouped: Dict[str, List[float]] = {}
        for outcome in self.outcomes:
            if outcome.failed:
                continue
            grouped.setdefault(outcome.query_type, []).append(
                outcome.response_ms
            )
        return {qt: mean(samples) for qt, samples in grouped.items()}

    def server_usage(self) -> Dict[str, int]:
        usage: Dict[str, int] = {}
        for outcome in self.outcomes:
            for server in outcome.servers:
                usage[server] = usage.get(server, 0) + 1
        return usage

    @property
    def failure_count(self) -> int:
        return sum(1 for o in self.outcomes if o.failed)


def run_query(deployment: Deployment, instance: QueryInstance) -> QueryOutcome:
    """Submit one workload query through the integrator."""
    try:
        result = deployment.integrator.submit(instance.sql, label=instance.label)
    except (FederationError, ServerUnavailable) as exc:
        return QueryOutcome(
            instance=instance,
            response_ms=0.0,
            servers=(),
            retries=0,
            failed=True,
        )
    servers = tuple(
        sorted({o.option.server for o in result.fragments.values()})
    )
    return QueryOutcome(
        instance=instance,
        response_ms=result.response_ms,
        servers=servers,
        retries=result.retries,
    )


def run_workload_once(
    deployment: Deployment, workload: Sequence[QueryInstance]
) -> List[QueryOutcome]:
    """One sequential pass over the workload (clock advances per query)."""
    return [run_query(deployment, instance) for instance in workload]


def run_phase(
    deployment: Deployment,
    workload: Sequence[QueryInstance],
    phase: Phase,
    load_level: float = LOAD_LEVEL,
    warmup_passes: int = 2,
    phase_gap_ms: float = 3_000.0,
) -> PhaseOutcome:
    """Apply *phase*'s load conditions, warm up, then measure one pass.

    ``phase_gap_ms`` models the idle time between load regimes: the
    clock advances so QCC's daemons probe the servers under the *new*
    conditions before the warm-up traffic arrives.
    """
    deployment.set_load(
        phase.levels(tuple(deployment.server_names()), load_level)
    )
    deployment.clock.advance(phase_gap_ms)
    for _ in range(warmup_passes):
        if deployment.qcc is not None:
            deployment.qcc.probe_servers(deployment.clock.now)
        run_workload_once(deployment, workload)
        if deployment.qcc is not None:
            # Close the calibration cycle so the measured pass routes on
            # factors learned under the current phase.
            deployment.qcc.recalibrate(deployment.clock.now)
    outcome = PhaseOutcome(phase=phase)
    outcome.outcomes = run_workload_once(deployment, workload)
    return outcome


def run_phase_sweep(
    deployment: Deployment,
    workload: Sequence[QueryInstance],
    phases: Sequence[Phase] = PHASES,
    load_level: float = LOAD_LEVEL,
    warmup_passes: int = 2,
) -> Dict[str, PhaseOutcome]:
    """Run the workload under every phase with one persistent deployment."""
    return {
        phase.name: run_phase(
            deployment, workload, phase, load_level, warmup_passes
        )
        for phase in phases
    }


def gains_by_phase(
    baseline: Mapping[str, PhaseOutcome],
    treatment: Mapping[str, PhaseOutcome],
) -> Dict[str, float]:
    """Percent performance gain of treatment over baseline per phase."""
    gains: Dict[str, float] = {}
    for phase_name, base_outcome in baseline.items():
        treat_outcome = treatment.get(phase_name)
        if treat_outcome is None:
            continue
        gains[phase_name] = percent_gain(
            base_outcome.mean_response_ms, treat_outcome.mean_response_ms
        )
    return gains


# ---------------------------------------------------------------------------
# Direct per-server probes (Figure 9) and routing inspection (Table 2)
# ---------------------------------------------------------------------------


def observe_on_servers(
    deployment: Deployment,
    instance: QueryInstance,
) -> Dict[str, float]:
    """Execute the query's best local plan directly at every server.

    This bypasses global routing — it is the paper's Figure 9
    measurement: the same fragment's response time at S1/S2/S3 under the
    currently configured load conditions.
    """
    observations: Dict[str, float] = {}
    t = deployment.clock.now
    for name in deployment.server_names():
        server = deployment.servers[name]
        try:
            best = server.explain(instance.sql, t)[0]
            execution = server.execute_plan(best.plan, t)
        except ServerUnavailable:
            continue
        observations[name] = execution.observed_ms
    return observations


def estimate_on_servers(
    deployment: Deployment,
    instance: QueryInstance,
) -> Dict[str, float]:
    """Each server's load-blind estimated cost for the query (step 2)."""
    estimates: Dict[str, float] = {}
    t = deployment.clock.now
    for name in deployment.server_names():
        try:
            best = deployment.servers[name].explain(instance.sql, t)[0]
        except ServerUnavailable:
            continue
        estimates[name] = best.cost.total
    return estimates


def dynamic_assignment(
    deployment: Deployment, instance: QueryInstance
) -> Tuple[str, ...]:
    """The server(s) the deployment would route *instance* to right now.

    Used to build Table 2: after warm-up under a phase, this is QCC's
    dynamic assignment for each query type.
    """
    decomposed, plans = deployment.integrator.compile(instance.sql)
    chosen = deployment.integrator.router.choose(
        decomposed, plans, instance.label, deployment.clock.now
    )
    return tuple(sorted(chosen.servers))


# ---------------------------------------------------------------------------
# The seven-step procedure of Section 5.1
# ---------------------------------------------------------------------------


@dataclass
class ProcedureReport:
    """Artifacts from one run of the Section 5.1 procedure."""

    fragments: Dict[str, List[str]]
    estimates: Dict[str, Dict[str, float]]
    baseline_observations: Dict[str, Dict[str, float]]
    loaded_observations: Dict[str, Dict[str, float]]
    fixed_mean_ms: float
    calibrated_mean_ms: float

    @property
    def gain_percent(self) -> float:
        return percent_gain(self.fixed_mean_ms, self.calibrated_mean_ms)

    def load_monotonic(self) -> Dict[str, bool]:
        """Per query: did every server's cost rise from base to loaded?

        Step 4's check that "cost-factors monotonically increase as the
        load to the remote servers change."
        """
        verdicts: Dict[str, bool] = {}
        for key, base in self.baseline_observations.items():
            loaded = self.loaded_observations.get(key, {})
            verdicts[key] = all(
                loaded.get(server, 0.0) >= observed
                for server, observed in base.items()
            )
        return verdicts


def run_procedure(
    make_fixed: Callable[[], Deployment],
    make_calibrated: Callable[[], Deployment],
    workload: Sequence[QueryInstance],
    load_level: float = LOAD_LEVEL,
    warmup_passes: int = 1,
) -> ProcedureReport:
    """Execute steps 1-6 of Section 5.1 and collect the artifacts.

    Step 7 (selective loading) is the full phase sweep; see
    :func:`run_phase_sweep`.
    """
    probe = make_calibrated()

    # Step 1: query fragment generation.
    from ..fed import decompose

    fragments: Dict[str, List[str]] = {}
    for instance in workload:
        decomposed = decompose(instance.sql, probe.registry)
        fragments[f"{instance.query_type}#{instance.instance_id}"] = [
            f.sql for f in decomposed.fragments
        ]

    # Step 2: estimated costs per server (explain mode, load-blind).
    estimates = {
        f"{i.query_type}#{i.instance_id}": estimate_on_servers(probe, i)
        for i in workload
    }

    # Step 3: baseline observations (no load).
    probe.set_load({name: 0.0 for name in probe.server_names()})
    baseline = {
        f"{i.query_type}#{i.instance_id}": observe_on_servers(probe, i)
        for i in workload
    }

    # Step 4: heavy-load observations.
    probe.set_load({name: load_level for name in probe.server_names()})
    loaded = {
        f"{i.query_type}#{i.instance_id}": observe_on_servers(probe, i)
        for i in workload
    }

    # Step 5: workload execution on estimated costs under load (no QCC).
    fixed = make_fixed()
    fixed.set_load({name: load_level for name in fixed.server_names()})
    fixed_outcomes = run_workload_once(fixed, workload)

    # Step 6: workload execution on calibrated costs under load.
    calibrated = make_calibrated()
    calibrated.set_load(
        {name: load_level for name in calibrated.server_names()}
    )
    for _ in range(warmup_passes):
        if calibrated.qcc is not None:
            calibrated.qcc.probe_servers(calibrated.clock.now)
        run_workload_once(calibrated, workload)
        if calibrated.qcc is not None:
            calibrated.qcc.recalibrate(calibrated.clock.now)
    calibrated_outcomes = run_workload_once(calibrated, workload)

    return ProcedureReport(
        fragments=fragments,
        estimates=estimates,
        baseline_observations=baseline,
        loaded_observations=loaded,
        fixed_mean_ms=mean(
            [o.response_ms for o in fixed_outcomes if not o.failed]
        ),
        calibrated_mean_ms=mean(
            [o.response_ms for o in calibrated_outcomes if not o.failed]
        ),
    )
