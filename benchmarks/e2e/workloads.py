"""The four benchmark workloads: sizes, traffic generation, set-up, run.

Every workload is sized by a fixed query count, never by wall time, so
its virtual-time results and counters repeat exactly for a seed.  Table
data always uses :data:`DATA_SEED`; ``--seed`` drives only the traffic
(arrival gaps, template order, instance ids, priority classes), and the
program sees nothing but the generated SQL texts and arrival times.

The timed region of a pass is cut into *slices* that hold the same work
in every pass of one (workload, seed) — two ``submit`` calls of the
closed loop, one step of virtual time of the open loops — and each slice
is timed on its own, with a reading of :func:`host_probe` at each border.
The reference host runs everything up to 1.9x slower for seconds to
minutes at a time; the probe slows down with the program, so run.py can
discount the host's slowdown slice by slice (see README.md).

Why each workload exists is recorded in ``BENCHMARK.json`` (``run.py
--list`` prints it); the sizes here were chosen so one untraced pass
takes 4-6 s on the 2-core reference host.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Union

from repro.baselines import qcc_deployment
from repro.core import CycleConfig, QCCConfig
from repro.fed import FederationError
from repro.fed.admission import DEFAULT_CLASSES
from repro.fed.concurrent import ConcurrentRuntime
from repro.harness import Deployment, build_federation, run_phase_sweep
from repro.sim import ServerUnavailable
from repro.sim.rng import derive_rng
from repro.workload import (
    BENCH_SCALE,
    PHASES,
    QUERY_TYPES,
    TEST_SCALE,
    WorkloadScale,
    build_workload,
)

#: Seed of the table data and of the query-instance parameters behind an
#: instance id: the dataset is shared, the traffic varies.
DATA_SEED = 7


@dataclass(frozen=True)
class PhaseSweep:
    """Closed loop, one client: the paper's Table 1 phase sweep driven
    through sequential ``InformationIntegrator.submit``."""

    name: str
    scale: WorkloadScale
    instances_per_type: int
    phases: int = len(PHASES)

    @property
    def offered(self) -> int:
        # Two warm-up passes and one measured pass per phase.
        return self.phases * 3 * self.instances_per_type * len(QUERY_TYPES)


@dataclass(frozen=True)
class OpenLoop:
    """Open loop on the virtual clock through ``ConcurrentRuntime``
    (processor sharing): arrivals keep their schedule whatever the
    backlog, so an overloaded run sheds instead of slowing the client."""

    name: str
    scale: WorkloadScale
    #: "poisson", or "bursty": Poisson bursts in fixed on/off windows.
    arrival: str
    #: Long-run arrival rate in queries per *virtual* second.
    rate_qps: float
    #: Instance ids are drawn from ``range(instance_ids)`` per template;
    #: times four templates this is the SQL working set the plan cache
    #: (128 entries) faces.
    instance_ids: int
    offered: int
    #: Draw a priority class per query from ``DEFAULT_CLASSES``; without
    #: it every query is top class and nothing is shed.
    classed: bool = False
    hedge_after_ms: Optional[float] = None
    #: Pin QCC's calibration cycle to this many virtual ms.  By default
    #: the cycle follows the volatility of the observed ratios, which at
    #: overload turns one seed into 5 recalibrations and the next into
    #: 39, each throwing the plan cache away: compile work, and with it
    #: wall time, then differs by half between seeds.
    calibration_cycle_ms: Optional[float] = None


Spec = Union[PhaseSweep, OpenLoop]

WORKLOADS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        PhaseSweep("paper_phases", BENCH_SCALE, instances_per_type=6),
        OpenLoop(
            "steady_engine",
            WorkloadScale(large_rows=24_000, small_rows=1_200),
            arrival="poisson",
            rate_qps=1.5,
            instance_ids=10,
            offered=260,
        ),
        OpenLoop(
            "wide_compile",
            # Half of TEST_SCALE: there the engine, with the garbage
            # collections that fall into it, took 19 % of the wall time.
            WorkloadScale(large_rows=400, small_rows=40),
            arrival="poisson",
            rate_qps=40.0,
            instance_ids=1000,
            offered=750,
        ),
        OpenLoop(
            "overload_hedged",
            TEST_SCALE,
            arrival="bursty",
            rate_qps=140.0,
            instance_ids=10,
            offered=3000,
            classed=True,
            hedge_after_ms=150.0,
            calibration_cycle_ms=8_000.0,
        ),
    )
}


def smoke(spec: Spec) -> Spec:
    """*spec* cut to about fifty queries on test-scale data (``--smoke``
    and the tests)."""
    if isinstance(spec, PhaseSweep):
        return replace(spec, scale=TEST_SCALE, instances_per_type=1, phases=4)
    return replace(spec, scale=TEST_SCALE, offered=50)


# -- traffic -----------------------------------------------------------------


@dataclass(frozen=True)
class Arrival:
    t_ms: float
    sql: str
    klass: Optional[str]
    label: str


#: Burst shape of "bursty" arrivals, in virtual ms.
BURST_ON_MS, BURST_OFF_MS = 400.0, 600.0


def _gaps(arrival: str, rate_qps: float, rng) -> Iterator[float]:
    """Interarrival gaps in virtual ms with long-run rate *rate_qps*.

    ``bursty`` emits Poisson arrivals at ``rate / duty`` during on
    windows and nothing during off windows.  The windows have fixed
    lengths: with random dwell times the load offered in one run moved
    by a fifth between seeds, and wall time with it.  The benchmark keeps
    its own generators so that a change to the program's load generator
    cannot move the benchmark's inputs.
    """
    if arrival == "poisson":
        while True:
            yield rng.expovariate(rate_qps / 1000.0)
    if arrival != "bursty":
        raise ValueError(f"unknown arrival process {arrival!r}")
    duty = BURST_ON_MS / (BURST_ON_MS + BURST_OFF_MS)
    burst_rate = rate_qps / duty / 1000.0
    into_window = 0.0
    while True:
        gap = rng.expovariate(burst_rate)
        silent = 0.0
        while into_window + gap > BURST_ON_MS:
            gap -= BURST_ON_MS - into_window
            silent += BURST_ON_MS - into_window + BURST_OFF_MS
            into_window = 0.0
        into_window += gap
        yield silent + gap


def generate_stream(spec: OpenLoop, seed: int) -> List[Arrival]:
    """The open-loop arrival stream of *spec* for *seed*.

    Templates are dealt in equal numbers and shuffled, not drawn one by
    one: the four query types differ several-fold in cost, and a drawn
    mix would move wall time by whole percents between seeds.
    """
    gaps = _gaps(
        spec.arrival, spec.rate_qps, derive_rng(seed, "e2e", spec.name, "gaps")
    )
    rng = derive_rng(seed, "e2e", spec.name, "mix")
    templates = [
        QUERY_TYPES[i % len(QUERY_TYPES)] for i in range(spec.offered)
    ]
    rng.shuffle(templates)
    names = [c.name for c in DEFAULT_CLASSES]
    weights = [c.weight for c in DEFAULT_CLASSES]
    stream: List[Arrival] = []
    t_ms = 0.0
    for template in templates:
        t_ms += next(gaps)
        instance = template.instance(
            rng.randrange(spec.instance_ids), DATA_SEED
        )
        klass = rng.choices(names, weights)[0] if spec.classed else None
        stream.append(Arrival(t_ms, instance.sql, klass, instance.label))
    return stream


# -- sessions ----------------------------------------------------------------

#: Steps of virtual time the arrival window of an open loop is cut into
#: (draining the backlog after the last arrival adds more of the same).
OPEN_LOOP_SLICES = 250
#: Submits per slice of the closed loop.
SUBMITS_PER_SLICE = 2


def _second(row: tuple) -> int:
    return row[1]


def host_probe() -> float:
    """Seconds a small fixed kernel takes right now: the host's speed.

    It builds, aggregates and sorts a few hundred tuples — allocation,
    hashing and comparison, like the program — because a bare arithmetic
    loop followed the host's slowdowns less closely.  It must never call
    the program: a faster program has to leave it alone.
    """
    start = perf_counter()
    rows = [(i, i % 13, i * 0.5) for i in range(600)]
    totals: Dict[int, float] = {}
    for _, key, value in rows:
        totals[key] = totals.get(key, 0.0) + value
    rows.sort(key=_second)
    return perf_counter() - start


#: What :func:`read_probe` reads between slices on the reference host
#: when it is quiet (lower quartile of the per-pass median reading over
#: the 96 passes of steady_seconds_aa.json).  Only a unit: it makes a
#: pass's steady seconds equal its wall seconds on a quiet reference
#: host, and cancels between two commits measured on one host.
PROBE_REFERENCE_S = 1.05e-4


def read_probe() -> float:
    """The faster of two probe runs, so that a stall which hits one of
    them is not taken for the host's speed."""
    return min(host_probe(), host_probe())


class Stopwatch:
    """Times slices and reads the host probe at every border."""

    def __init__(self) -> None:
        self.slices_s: List[float] = []
        #: One reading per border: one more than there are slices.
        self.probes_s: List[float] = []
        #: Wall time spent reading the probe; belongs to no slice.
        self.probing_s = 0.0
        self._slice_start = 0.0

    def start(self) -> None:
        begun = perf_counter()
        self.probes_s.append(read_probe())
        self._slice_start = perf_counter()
        self.probing_s += self._slice_start - begun

    def border(self) -> None:
        """End the running slice, read the probe, start the next one."""
        self.slices_s.append(perf_counter() - self._slice_start)
        self.start()


@dataclass(frozen=True)
class Verdict:
    """What one offered query came to."""

    index: int
    sql: str
    #: "completed", "shed" or "failed" (raised an error).
    status: str
    response_ms: Optional[float] = None
    rows: Optional[list] = None
    retries: int = 0


class _RecordingClient:
    """The closed-loop client: forwards ``submit`` and keeps every
    answer, which ``run_phase_sweep`` itself throws away."""

    def __init__(self, integrator, stopwatch: Stopwatch):
        self._integrator = integrator
        self._stopwatch = stopwatch
        self.verdicts: List[Verdict] = []

    def submit(self, sql: str, label: Optional[str] = None):
        index = len(self.verdicts)
        if index and index % SUBMITS_PER_SLICE == 0:
            self._stopwatch.border()
        try:
            result = self._integrator.submit(sql, label=label)
        except (FederationError, ServerUnavailable):
            # The errors run_query turns into a failed outcome.
            self.verdicts.append(Verdict(index, sql, "failed"))
            raise
        self.verdicts.append(
            Verdict(
                index, sql, "completed",
                result.response_ms, result.rows, result.retries,
            )
        )
        return result


class PhaseSweepSession:
    def __init__(self, spec: PhaseSweep, seed: int):
        self.spec = spec
        self.deployment: Deployment = qcc_deployment(
            scale=spec.scale, seed=DATA_SEED
        )
        self.integrator = self.deployment.integrator
        self.runtime = None
        # The SQL texts are those of the data seed, as in the open loops;
        # the traffic seed deals the order they are submitted in.  Texts
        # drawn per seed moved the engine's work, and wall time, by a
        # tenth between seeds.
        self._workload = build_workload(
            instances_per_type=spec.instances_per_type,
            seed=DATA_SEED,
            shuffle=False,
        )
        derive_rng(seed, "e2e", spec.name, "order").shuffle(self._workload)
        self.stopwatch = Stopwatch()
        self._client = _RecordingClient(self.integrator, self.stopwatch)

    def run(self) -> float:
        """The timed region; returns the virtual makespan in ms.  A slice
        runs from one submit to the one two later, so the probing and
        recalibration between passes of the sweep land in a slice too."""
        clock = self.deployment.clock
        start_ms = clock.now
        self.stopwatch.start()
        run_phase_sweep(
            replace(self.deployment, integrator=self._client),
            self._workload,
            phases=PHASES[: self.spec.phases],
        )
        self.stopwatch.border()
        return clock.now - start_ms

    def verdicts(self) -> List[Verdict]:
        return self._client.verdicts


class OpenLoopSession:
    def __init__(self, spec: OpenLoop, seed: int):
        self.spec = spec
        qcc_config = None
        if spec.calibration_cycle_ms is not None:
            cycle_ms = spec.calibration_cycle_ms
            qcc_config = QCCConfig(
                cycle=CycleConfig(
                    base_interval_ms=cycle_ms,
                    min_interval_ms=cycle_ms,
                    max_interval_ms=cycle_ms,
                )
            )
        deployment = build_federation(
            scale=spec.scale, seed=DATA_SEED, qcc_config=qcc_config
        )
        self.integrator = deployment.integrator
        self.runtime = ConcurrentRuntime(
            self.integrator,
            classes=DEFAULT_CLASSES,
            discipline="ps",
            hedge_after_ms=spec.hedge_after_ms,
        )
        stream = generate_stream(spec, seed)
        for arrival in stream:
            self.runtime.submit_at(
                arrival.t_ms, arrival.sql, klass=arrival.klass,
                label=arrival.label,
            )
        self._step_ms = stream[-1].t_ms / OPEN_LOOP_SLICES
        self.stopwatch = Stopwatch()

    def run(self) -> float:
        """The timed region; returns the virtual makespan in ms.  The
        event loop is run in equal steps of virtual time until it
        drains; stopping it at a step border changes no event, only
        where the stopwatch is read."""
        runtime = self.runtime
        scheduler = runtime.scheduler
        until_ms = scheduler.now
        self.stopwatch.start()
        while scheduler.pending_events:
            until_ms += self._step_ms
            runtime.run(until_ms=until_ms)
            self.stopwatch.border()
        # The clock now stands at the last step border; the makespan ends
        # where the last query did.
        return max(
            h.submitted_ms + (h.response_ms or 0.0) for h in runtime.handles
        )

    def verdicts(self) -> List[Verdict]:
        verdicts = []
        for handle in self.runtime.handles:
            if handle.result is not None:
                verdicts.append(
                    Verdict(
                        handle.index, handle.sql, "completed",
                        handle.result.response_ms, handle.result.rows,
                        handle.result.retries,
                    )
                )
            else:
                status = "shed" if handle.shed is not None else "failed"
                verdicts.append(Verdict(handle.index, handle.sql, status))
        return verdicts


def open_session(spec: Spec, seed: int):
    """Set *spec* up for *seed*: databases, federation, traffic."""
    if isinstance(spec, PhaseSweep):
        return PhaseSweepSession(spec, seed)
    return OpenLoopSession(spec, seed)
