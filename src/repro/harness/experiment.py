"""The experiment module: Section 5's procedure and every paper artefact.

The central abstraction is the *phase sweep*: one deployment processes
the same workload under each of Table 1's load phases, with a warm-up
per phase so QCC (when present) adapts to the new conditions before the
measured pass — mirroring how the paper's system observes a phase before
benefiting from calibration.  The warm-up cycle (probe → pass →
recalibrate) is written once, in :func:`warm_up` / :func:`calibrated_pass`.

On top of it, :class:`Evaluation` produces Figure 9, Table 2,
Figures 10/11, the systems' routing regret and QCC's cost residual as
structured results, :func:`run_timeline` the availability/calibration
timeline and :func:`run_procedure` the seven-step procedure.  The CLI
(``python -m repro experiment ...``), the benchmark suite and notebooks
all take their numbers from these runners; only the rendering differs
between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import obs
from ..baselines import (
    fixed_assignment_deployment,
    preferred_server_deployment,
    qcc_deployment,
    uncalibrated_deployment,
)
from ..fed import FederationError, decompose
from ..numeric import left_sum
from ..obs.timeline import NULL_TIMELINE, Timeline
from ..sim import AvailabilitySchedule, ServerUnavailable
from ..sqlengine import Database
from ..workload import (
    BENCH_SCALE,
    FIXED_ASSIGNMENT_1,
    LOAD_LEVEL,
    PHASES,
    QUERY_TYPES,
    Phase,
    QueryInstance,
    WorkloadScale,
    build_workload,
)
from .deployment import (
    DEFAULT_SERVER_SPECS,
    Deployment,
    build_databases,
    build_federation,
)
from .metrics import ResponseStats, mean, percent_gain
from .report import ascii_table, bar_chart, grouped_series, markdown_table

#: Idle virtual time between load regimes: the clock advances so QCC's
#: daemons probe the servers under the *new* conditions before the
#: warm-up traffic arrives.
PHASE_GAP_MS = 3_000.0


@dataclass(frozen=True)
class QueryOutcome:
    """One query's measured execution."""

    instance: QueryInstance
    response_ms: float
    servers: Tuple[str, ...]
    retries: int
    failed: bool = False
    #: (estimated, calibrated, observed) cost of every fragment that ran
    fragment_costs: Tuple[Tuple[float, float, float], ...] = ()

    @property
    def query_type(self) -> str:
        return self.instance.query_type


def _mean_completed_ms(outcomes: Sequence[QueryOutcome]) -> float:
    return mean([o.response_ms for o in outcomes if not o.failed])


@dataclass
class PhaseOutcome:
    """All measured executions of one phase."""

    phase: Phase
    outcomes: List[QueryOutcome] = field(default_factory=list)

    @property
    def mean_response_ms(self) -> float:
        return _mean_completed_ms(self.outcomes)

    def stats(self) -> ResponseStats:
        return ResponseStats.from_samples(
            [o.response_ms for o in self.outcomes if not o.failed]
        )

    @property
    def failure_count(self) -> int:
        return sum(1 for o in self.outcomes if o.failed)


def run_query(deployment: Deployment, instance: QueryInstance) -> QueryOutcome:
    """Submit one workload query through the integrator."""
    try:
        result = deployment.integrator.submit(instance.sql, label=instance.label)
    except (FederationError, ServerUnavailable):
        return QueryOutcome(instance, 0.0, (), 0, failed=True)
    fragments = result.fragments.values()
    servers = tuple(sorted({o.option.server for o in fragments}))
    costs = tuple(
        (o.option.estimated.total, o.option.calibrated.total, o.execution.observed_ms)
        for o in fragments
    )
    return QueryOutcome(
        instance, result.response_ms, servers, result.retries, fragment_costs=costs
    )


def run_workload_once(
    deployment: Deployment, workload: Sequence[QueryInstance]
) -> List[QueryOutcome]:
    """One sequential pass over the workload (clock advances per query)."""
    return [run_query(deployment, instance) for instance in workload]


def calibrated_pass(
    deployment: Deployment, workload: Sequence[QueryInstance]
) -> List[QueryOutcome]:
    """One pass over the workload, then close the calibration cycle so
    the next pass routes on factors learned from this one."""
    outcomes = run_workload_once(deployment, workload)
    deployment.qcc.recalibrate(deployment.clock.now)
    return outcomes


def warm_up(
    deployment: Deployment, workload: Sequence[QueryInstance], passes: int
) -> None:
    """*passes* calibration cycles under the current load conditions:
    probe the servers, run the workload, recalibrate."""
    for _ in range(passes):
        deployment.qcc.probe_servers(deployment.clock.now)
        calibrated_pass(deployment, workload)


def _set_all_loads(deployment: Deployment, level: float) -> None:
    deployment.set_load(dict.fromkeys(deployment.server_names(), level))


def run_phase(
    deployment: Deployment,
    workload: Sequence[QueryInstance],
    phase: Phase,
) -> PhaseOutcome:
    """Apply *phase*'s load conditions, warm up, then measure one pass."""
    deployment.set_load(
        phase.levels(tuple(deployment.server_names()), LOAD_LEVEL)
    )
    deployment.clock.advance(PHASE_GAP_MS)
    warm_up(deployment, workload, 2)
    return PhaseOutcome(phase, run_workload_once(deployment, workload))


def run_phase_sweep(
    deployment: Deployment,
    workload: Sequence[QueryInstance],
    phases: Sequence[Phase] = PHASES,
) -> Dict[str, PhaseOutcome]:
    """Run the workload under every phase with one persistent deployment."""
    return {
        phase.name: run_phase(deployment, workload, phase) for phase in phases
    }


def _mean_by_phase(sweep: Mapping[str, PhaseOutcome]) -> Dict[str, float]:
    return {name: outcome.mean_response_ms for name, outcome in sweep.items()}


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
    chosen = deployment.qcc.recommend_global(
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
) -> ProcedureReport:
    """Execute steps 1-6 of Section 5.1 and collect the artifacts.

    Step 7 (selective loading) is the full phase sweep; see
    :func:`run_phase_sweep`.
    """
    probe = make_calibrated()
    keyed = [(f"{i.query_type}#{i.instance_id}", i) for i in workload]

    # Step 1: query fragment generation.
    fragments = {
        key: [f.sql for f in decompose(i.sql, probe.registry).fragments]
        for key, i in keyed
    }

    # Step 2: estimated costs per server (explain mode, load-blind).
    estimates = {key: estimate_on_servers(probe, i) for key, i in keyed}

    # Step 3: baseline observations (no load).
    _set_all_loads(probe, 0.0)
    baseline = {key: observe_on_servers(probe, i) for key, i in keyed}

    # Step 4: heavy-load observations.
    _set_all_loads(probe, LOAD_LEVEL)
    loaded = {key: observe_on_servers(probe, i) for key, i in keyed}

    # Step 5: workload execution on estimated costs under load (no QCC).
    fixed = make_fixed()
    _set_all_loads(fixed, LOAD_LEVEL)
    fixed_outcomes = run_workload_once(fixed, workload)

    # Step 6: workload execution on calibrated costs under load.
    calibrated = make_calibrated()
    _set_all_loads(calibrated, LOAD_LEVEL)
    warm_up(calibrated, workload, 1)
    calibrated_outcomes = run_workload_once(calibrated, workload)

    return ProcedureReport(
        fragments=fragments,
        estimates=estimates,
        baseline_observations=baseline,
        loaded_observations=loaded,
        fixed_mean_ms=_mean_completed_ms(fixed_outcomes),
        calibrated_mean_ms=_mean_completed_ms(calibrated_outcomes),
    )


# ---------------------------------------------------------------------------
# The paper's tables and figures
# ---------------------------------------------------------------------------


@dataclass
class Figure9Result:
    """Per-type, per-condition, per-server response times (ms)."""

    measurements: Dict[str, Dict[str, Dict[str, float]]]

    def to_dict(self) -> Dict:
        return {"experiment": "figure9", "measurements": self.measurements}

    def render(self) -> str:
        parts = ["=== Figure 9: response time (ms) per server, per query type ==="]
        for name, data in self.measurements.items():
            parts.append(
                grouped_series(
                    ["S1", "S2", "S3"],
                    {
                        "Base (all idle)": data["base"],
                        "Load (all loaded)": data["loaded"],
                        "Only S3 loaded": data["s3_loaded"],
                    },
                    title=f"\n{name}",
                    unit="ms",
                )
            )
        return "\n".join(parts)

    def markdown(self) -> str:
        """One row per type and condition; the winner is bold where it
        is not the type's winner at base."""
        labels = {"base": "base", "loaded": "all loaded", "s3_loaded": "only S3 loaded"}
        rows = []
        for name, data in self.measurements.items():
            base = data["base"]
            for condition, label in labels.items():
                times = data[condition]
                winner = min(times, key=times.get)
                if winner != min(base, key=base.get):
                    winner = f"**{winner}**"
                ratio = times["S3"] / base["S3"]
                rows.append(
                    [name, label]
                    + [f"{ms:.1f}" for ms in times.values()]
                    + [winner, "" if condition == "base" else f"{ratio:.1f}x"]
                )
        servers = list(next(iter(self.measurements.values()))["base"])
        return markdown_table(
            ["Type", "Condition", *servers, "Winner", "S3 / base"], rows
        )


@dataclass
class Table2Result:
    """QCC's per-phase dynamic assignment plus the phase response sweep."""

    assignments: Dict[str, List[str]]
    sweep: Dict[str, PhaseOutcome]
    #: phase name -> workload instance -> its response at every server
    #: (:func:`observe_on_servers`), taken right after the phase's
    #: measured pass: what :meth:`Evaluation.regret` measures against.
    observed: Dict[str, Dict[QueryInstance, Dict[str, float]]]

    def to_dict(self) -> Dict:
        return {
            "experiment": "table2",
            "assignments": self.assignments,
            "mean_response_ms": _mean_by_phase(self.sweep),
        }

    def render(self) -> str:
        parts = ["=== Table 1: combinations of server load conditions ==="]
        rows = [
            [server] + [phase.condition(server) for phase in PHASES]
            for server in ("S1", "S2", "S3")
        ]
        parts.append(ascii_table(["Server"] + [p.name for p in PHASES], rows))
        parts.append("")
        parts.append("=== Table 2: dynamic assignment per phase ===")
        rows = [[name] + values for name, values in self.assignments.items()]
        parts.append(ascii_table(["Type"] + [p.name for p in PHASES], rows))
        return "\n".join(parts)

    def markdown(self) -> str:
        """Fixed Assignment 1 beside QCC's assignment per phase, bold
        where it differs from the all-idle first phase."""
        rows = [
            [name, FIXED_ASSIGNMENT_1[name]]
            + [s if s == servers[0] else f"**{s}**" for s in servers]
            for name, servers in self.assignments.items()
        ]
        return markdown_table(
            ["Type", "Fixed"] + [p.name for p in PHASES], rows
        )


@dataclass
class GainResult:
    """A per-phase comparison of a baseline system against QCC."""

    title: str
    baseline_ms: Dict[str, float]
    qcc_ms: Dict[str, float]
    gains: Dict[str, float]

    @property
    def average_gain(self) -> float:
        return mean(list(self.gains.values()))

    def to_dict(self) -> Dict:
        return {
            "experiment": self.title.strip("= ").strip(),
            "baseline_ms": self.baseline_ms,
            "qcc_ms": self.qcc_ms,
            "gains_percent": self.gains,
            "average_gain_percent": self.average_gain,
        }

    def render(self) -> str:
        rows = [
            [
                phase,
                self.baseline_ms[phase],
                self.qcc_ms[phase],
                self.gains[phase],
            ]
            for phase in self.baseline_ms
        ]
        table = ascii_table(
            ["Phase", "Baseline (ms)", "QCC (ms)", "Gain (%)"],
            rows,
            title=self.title,
        )
        chart = bar_chart(self.gains, unit="%", title="Gain per phase")
        return (
            f"{table}\n\n{chart}\n\nAverage gain: {self.average_gain:.1f}%"
        )

    def markdown(self) -> str:
        rows = [
            [p, f"{self.baseline_ms[p]:.1f}", f"{self.qcc_ms[p]:.1f}", f"{g:.1f}%"]
            for p, g in self.gains.items()
        ]
        rows.append(["**avg**", "", "", f"**{self.average_gain:.1f}%**"])
        gained = [gain for gain in self.gains.values() if gain > 0]
        if 0 < len(gained) < len(self.gains):
            label = f"**avg of the {len(gained)} with a gain**"
            rows.append([label, "", "", f"**{mean(gained):.1f}%**"])
        return markdown_table(["Phase", "Baseline (ms)", "QCC (ms)", "Gain"], rows)


def _regret_ms(
    outcome: QueryOutcome, observed: Mapping[str, float]
) -> float:
    """The response observed at the one server *outcome* ran on, minus
    the best response observed at any server."""
    if len(outcome.servers) != 1:
        raise ValueError(
            f"{outcome.instance.label}#{outcome.instance.instance_id} ran "
            f"on {outcome.servers}: regret needs exactly one server"
        )
    (server,) = outcome.servers
    return observed[server] - min(observed.values())


@dataclass
class RegretResult:
    """Routing regret per system and phase: against the hindsight-best
    server, what each query's routing cost it."""

    #: system -> phase -> mean regret (ms) over the measured pass
    mean_ms: Dict[str, Dict[str, float]]
    #: system -> phase -> share of the pass's queries with zero regret
    zero_share: Dict[str, Dict[str, float]]

    def to_dict(self) -> Dict:
        return {
            "experiment": "regret",
            "mean_regret_ms": self.mean_ms,
            "zero_regret_share": self.zero_share,
        }

    def _rows(self) -> List[List[str]]:
        """One row per phase, then the mean over the phases."""
        columns = []
        for system, by_phase in self.mean_ms.items():
            means = list(by_phase.values())
            shares = list(self.zero_share[system].values())
            columns.append([f"{ms:.1f}" for ms in means + [mean(means)]])
            columns.append(
                [f"{100 * s:.0f}%" for s in shares + [mean(shares)]]
            )
        phases = list(next(iter(self.mean_ms.values()))) + ["avg"]
        return [list(row) for row in zip(phases, *columns)]

    def _headers(self) -> List[str]:
        return ["Phase"] + [
            heading
            for system in self.mean_ms
            for heading in (f"{system} (ms)", f"{system} zero-regret")
        ]

    def render(self) -> str:
        return ascii_table(
            self._headers(),
            self._rows(),
            title="=== Routing regret against the hindsight-best server ===",
        )

    def markdown(self) -> str:
        rows = self._rows()
        rows[-1] = [f"**{cell}**" for cell in rows[-1]]
        return markdown_table(self._headers(), rows)


def _routed_cost(outcome: QueryOutcome) -> Tuple[float, float, float]:
    """The (estimated, calibrated, observed) cost of *outcome*'s one
    fragment."""
    if len(outcome.fragment_costs) != 1:
        raise ValueError(
            f"{outcome.instance.label}#{outcome.instance.instance_id} ran "
            f"{len(outcome.fragment_costs)} fragments: the residual needs "
            "exactly one"
        )
    return outcome.fragment_costs[0]


def _residual(ratios: Sequence[float]) -> Tuple[float, float]:
    """The geometric mean of *ratios* and their worst q-error,
    ``max(r, 1/r)``."""
    log_mean = left_sum(math.log(r) for r in ratios) / len(ratios)
    return math.exp(log_mean), max(max(r, 1.0 / r) for r in ratios)


@dataclass
class ResidualResult:
    """QCC's cost residual per phase: the observed cost of each routed
    fragment over its load-blind estimate (raw) and over the calibrated
    cost QCC routed on."""

    #: phase -> (geometric mean of observed / estimated, worst q-error)
    raw: Dict[str, Tuple[float, float]]
    #: phase -> (geometric mean of observed / calibrated, worst q-error)
    calibrated: Dict[str, Tuple[float, float]]

    def to_dict(self) -> Dict:
        return {
            "experiment": "residual",
            **{
                kind: {
                    phase: {"geomean_ratio": ratio, "worst_q_error": q}
                    for phase, (ratio, q) in by_phase.items()
                }
                for kind, by_phase in (
                    ("raw", self.raw), ("calibrated", self.calibrated)
                )
            },
        }

    def _rows(self) -> List[List[str]]:
        """One row per phase, then the phases' geometric mean ratio and
        worst q-error."""
        rows = [[phase] for phase in self.raw] + [["all"]]
        for by_phase in (self.raw, self.calibrated):
            ratios = [ratio for ratio, _ in by_phase.values()]
            worst = [q for _, q in by_phase.values()]
            overall = (_residual(ratios)[0], max(worst))
            for row, (ratio, q) in zip(rows, [*by_phase.values(), overall]):
                row += [f"{ratio:.3f}", f"{q:.2f}"]
        return rows

    _HEADERS = [
        "Phase",
        "raw obs/est",
        "raw worst q-error",
        "QCC obs/cal",
        "QCC worst q-error",
    ]

    def render(self) -> str:
        return ascii_table(
            self._HEADERS,
            self._rows(),
            title="=== Cost residual before and after calibration ===",
        )

    def markdown(self) -> str:
        rows = self._rows()
        rows[-1] = [f"**{cell}**" for cell in rows[-1]]
        return markdown_table(self._HEADERS, rows)


class Evaluation:
    """Section 5's evaluation of the systems over one loaded dataset.

    Every artefact method returns a structured result with ``render()``
    and ``to_dict()``.  Each system's phase sweep — the QCC one behind
    Table 2, the fixed assignments' behind Figures 10/11 — runs at most
    once per evaluation, however many artefacts are asked for.
    """

    def __init__(
        self,
        scale: WorkloadScale = BENCH_SCALE,
        databases: Optional[Mapping[str, Database]] = None,
        instances_per_type: int = 5,
    ) -> None:
        self.scale = scale
        if databases is None:
            databases = build_databases(DEFAULT_SERVER_SPECS, scale)
        self.databases = databases
        self.workload = build_workload(instances_per_type=instances_per_type)
        self._table2: Optional[Table2Result] = None
        self._sweeps: Dict[Callable, Dict[str, PhaseOutcome]] = {}

    def _deploy(self, factory: Callable[..., Deployment]) -> Deployment:
        return factory(scale=self.scale, prebuilt_databases=self.databases)

    def figure9(self) -> Figure9Result:
        """Each query type observed directly at every server under
        Base, Load and the paper's crossover case, only S3 loaded."""
        deployment = self._deploy(uncalibrated_deployment)
        conditions = {
            "base": {},
            "loaded": dict.fromkeys(deployment.server_names(), LOAD_LEVEL),
            "s3_loaded": {"S3": LOAD_LEVEL},
        }
        measurements: Dict[str, Dict[str, Dict[str, float]]] = {}
        for template in QUERY_TYPES:
            observed = measurements[template.name] = {}
            for condition, levels in conditions.items():
                _set_all_loads(deployment, 0.0)
                deployment.set_load(levels)
                observed[condition] = observe_on_servers(
                    deployment, template.instance(0)
                )
        _set_all_loads(deployment, 0.0)
        return Figure9Result(measurements=measurements)

    def table2(self) -> Table2Result:
        """The QCC system swept over Table 1's phases, sampling its
        dynamic assignment of each query type after every phase."""
        if self._table2 is None:
            deployment = self._deploy(qcc_deployment)
            sweep: Dict[str, PhaseOutcome] = {}
            observed: Dict[str, Dict[QueryInstance, Dict[str, float]]] = {}
            assignments: Dict[str, List[str]] = {
                t.name: [] for t in QUERY_TYPES
            }
            for phase in PHASES:
                sweep[phase.name] = run_phase(deployment, self.workload, phase)
                # Within a phase nothing an observation sees moves (the
                # load is the phase's, links are static, every server is
                # up and error-free), so one set serves every system.
                observed[phase.name] = {
                    instance: observe_on_servers(deployment, instance)
                    for instance in self.workload
                }
                for template in QUERY_TYPES:
                    servers = dynamic_assignment(
                        deployment, template.instance(0)
                    )
                    assignments[template.name].append("/".join(servers))
            self._table2 = Table2Result(
                assignments=assignments, sweep=sweep, observed=observed
            )
        return self._table2

    def _sweep(
        self, factory: Callable[..., Deployment]
    ) -> Dict[str, PhaseOutcome]:
        """*factory*'s system swept over every phase, once."""
        if factory not in self._sweeps:
            self._sweeps[factory] = run_phase_sweep(
                self._deploy(factory), self.workload
            )
        return self._sweeps[factory]

    def _gain_over(
        self, baseline_factory: Callable[..., Deployment], title: str
    ) -> GainResult:
        baseline = self._sweep(baseline_factory)
        calibrated = self.table2().sweep
        return GainResult(
            title=title,
            baseline_ms=_mean_by_phase(baseline),
            qcc_ms=_mean_by_phase(calibrated),
            gains=gains_by_phase(baseline, calibrated),
        )

    def figure10(self) -> GainResult:
        return self._gain_over(
            fixed_assignment_deployment,
            "=== Figure 10: QCC vs Fixed Assignment 1 ===",
        )

    def figure11(self) -> GainResult:
        return self._gain_over(
            preferred_server_deployment,
            "=== Figure 11: QCC vs Fixed Assignment 2 (always S3) ===",
        )

    def regret(self) -> RegretResult:
        """Each system's routing regret per phase: for every query of
        the phase's measured pass, the response observed at the server
        it ran on minus the best one observed at any server."""
        table2 = self.table2()
        systems = {
            "QCC": table2.sweep,
            "Fixed 1": self._sweep(fixed_assignment_deployment),
            "Fixed 2": self._sweep(preferred_server_deployment),
        }
        mean_ms: Dict[str, Dict[str, float]] = {}
        zero_share: Dict[str, Dict[str, float]] = {}
        for system, sweep in systems.items():
            mean_ms[system], zero_share[system] = {}, {}
            for name, phase in sweep.items():
                regrets = [
                    _regret_ms(o, table2.observed[name][o.instance])
                    for o in phase.outcomes
                ]
                mean_ms[system][name] = mean(regrets)
                zero_share[system][name] = sum(
                    r == 0.0 for r in regrets
                ) / len(regrets)
        return RegretResult(mean_ms=mean_ms, zero_share=zero_share)

    def residual(self) -> ResidualResult:
        """QCC's cost residual per phase: for every query of the phase's
        measured pass, its routed fragment's observed cost over the
        load-blind estimate and over the calibrated cost."""
        raw: Dict[str, Tuple[float, float]] = {}
        calibrated: Dict[str, Tuple[float, float]] = {}
        for name, phase in self.table2().sweep.items():
            costs = [_routed_cost(o) for o in phase.outcomes]
            raw[name] = _residual([obs / est for est, _, obs in costs])
            calibrated[name] = _residual([obs / cal for _, cal, obs in costs])
        return ResidualResult(raw=raw, calibrated=calibrated)


# ---------------------------------------------------------------------------
# The availability / calibration timeline
# ---------------------------------------------------------------------------


class _ManualOutage(AvailabilitySchedule):
    """A schedule flipped by the experiment loop, not by the clock.

    Virtual-time outage windows would have to guess how long each phase
    runs; a manual switch makes the down interval exactly one phase long
    regardless of scale, while still exercising the *real* detection
    path (failed requests and probes through the meta-wrapper).
    """

    def __init__(self) -> None:
        self.down = False

    def is_up(self, t_ms: float) -> bool:
        return not self.down


@dataclass
class TimelineResult:
    """The federation timeline of a Figure-9-style load/outage sweep."""

    timeline: Timeline
    #: (phase name, start t_ms, end t_ms), in run order
    phases: List[Tuple[str, float, float]]

    def to_dict(self) -> Dict:
        return {
            "experiment": "timeline",
            "phases": [
                {"name": name, "start_ms": start, "end_ms": end}
                for name, start, end in self.phases
            ],
            **self.timeline.to_dict(),
        }

    def samples_csv(self) -> str:
        return self.timeline.samples_csv()

    def events_csv(self) -> str:
        return self.timeline.events_csv()

    def render(self) -> str:
        parts = ["=== Federation timeline (Figure-9-style sweep) ==="]
        rows = [
            [name, f"{start:.0f}", f"{end:.0f}"]
            for name, start, end in self.phases
        ]
        parts.append(ascii_table(["Phase", "Start (ms)", "End (ms)"], rows))
        parts.append("")
        parts.append("Per-server calibration-factor series:")
        server_rows = []
        for server in self.timeline.servers():
            series = self.timeline.server_series(server, "calibration_factor")
            availability = self.timeline.server_series(server, "available")
            downs = sum(1 for _, up in availability if not up)
            server_rows.append(
                [
                    server,
                    len(series),
                    f"{series[0][1]:.2f}" if series else "-",
                    f"{series[-1][1]:.2f}" if series else "-",
                    downs,
                ]
            )
        parts.append(
            ascii_table(
                ["Server", "Samples", "First factor", "Last factor",
                 "Down samples"],
                server_rows,
            )
        )
        kinds: Dict[str, int] = {}
        for event in self.timeline.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        summary = ", ".join(
            f"{kind}: {count}" for kind, count in sorted(kinds.items())
        )
        parts.append(f"\nEvents ({len(self.timeline.events)}): {summary}")
        for event in self.timeline.events:
            if event.kind in ("server-down", "server-up"):
                parts.append(
                    f"  [{event.t_ms:.0f}ms] {event.kind} {event.server}"
                    f" ({event.detail})"
                )
        return "\n".join(parts)


def run_timeline(
    scale: WorkloadScale = BENCH_SCALE,
    databases: Optional[Mapping[str, Database]] = None,
) -> TimelineResult:
    """A Figure-9-style sweep recorded on the federation timeline.

    Four phases — all idle, all loaded, S3 down, S3 recovered — with a
    recalibration at every phase boundary, so the timeline captures both
    the calibration factors absorbing the load shift and the
    availability transitions around the outage.  The table data (unless
    ``databases`` is prebuilt) and the workload interleaving are seeded,
    so two invocations produce identical timelines.
    """
    sink = obs.get_obs()
    if sink.timeline is NULL_TIMELINE:
        sink = obs.configure(
            metrics=False, tracing=False, timeline=True, log_level=None
        )
    outage = _ManualOutage()
    deployment = build_federation(
        scale=scale,
        prebuilt_databases=databases,
        availability={"S3": outage},
    )
    workload = build_workload(instances_per_type=2)
    phases: List[Tuple[str, float, float]] = []

    def run_phase_named(name: str) -> None:
        # An unroutable query during the outage phase is itself a data
        # point; the availability events already recorded why.
        start = deployment.clock.now
        calibrated_pass(deployment, workload)
        phases.append((name, start, deployment.clock.now))

    run_phase_named("base")
    _set_all_loads(deployment, LOAD_LEVEL)
    run_phase_named("loaded")
    _set_all_loads(deployment, 0.0)
    outage.down = True
    run_phase_named("s3-outage")
    outage.down = False
    # Recovery is probe-driven, exactly as in the paper's daemon design.
    deployment.qcc.probe_servers(deployment.clock.now)
    run_phase_named("recovered")
    return TimelineResult(timeline=sink.timeline, phases=phases)
