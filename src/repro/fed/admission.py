"""Admission control: arrivals, priority classes, budgets, shedding.

The paper's patroller logs every query; a production patroller also has
to *refuse* some.  This module supplies the overload-protection layer
the concurrent runtime (:mod:`repro.fed.concurrent`) consults before a
query is allowed to consume capacity:

* **open-loop arrival generators** — :class:`PoissonArrivals` and the
  bursty two-state :class:`BurstyArrivals` (an on/off Markov-modulated
  Poisson process), both drawing only from a seeded ``random.Random``
  (``derive_rng``), so a load test replays byte-identically;
* **priority classes** (:class:`PriorityClass`) with per-class latency
  budgets and per-class :class:`TokenBucket` admission rates;
* an :class:`AdmissionController` implementing *shed on exhausted
  budget*: a query is rejected iff its class is out of tokens or the
  backlog-predicted sojourn already exceeds the class latency budget —
  and every rejection carries the evidence (:class:`AdmissionDecision`)
  the ``shed-only-over-budget`` chaos checker audits.

Shed queries receive a :class:`ShedVerdict`, shaped like a
:class:`~repro.fed.integrator.FederatedResult` (``rows``/``row_count``/
``response_ms``/``record``) so harness code can treat "shed" as one more
query outcome rather than an exception path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..obs import get_obs
from ..sim.rng import derive_rng
from .patroller import PatrolRecord

#: Token-count slack: a bucket holding 1 - 1e-9 tokens is "empty" only
#: by floating-point accident, never by policy.
_TOKEN_EPS = 1e-9

#: Sentinel rate meaning "this class is never token-limited".
UNLIMITED_QPS = 1e12


# -- priority classes --------------------------------------------------------


@dataclass(frozen=True)
class PriorityClass:
    """One SLO class: who it is, what it is promised, what it may use.

    ``rank`` orders classes (0 = highest priority); ``weight`` is the
    share of generated traffic the load generator assigns to the class;
    ``budget_ms`` is the per-query latency budget (``inf`` = no budget
    shedding); ``rate_qps``/``burst`` parameterise the class's admission
    token bucket.
    """

    name: str
    rank: int
    weight: float = 1.0
    budget_ms: float = math.inf
    rate_qps: float = UNLIMITED_QPS
    burst: float = 1000.0

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"negative class weight {self.weight}")
        if self.budget_ms <= 0:
            raise ValueError(f"non-positive budget {self.budget_ms}")
        if self.rate_qps <= 0 or self.burst < 1.0:
            raise ValueError(
                f"class {self.name!r}: rate must be positive and burst >= 1"
            )


#: Default three-class mix: interactive traffic is protected, batch
#: traffic is the first to go when the federation saturates.
DEFAULT_CLASSES: Tuple[PriorityClass, ...] = (
    PriorityClass("gold", rank=0, weight=0.2),
    PriorityClass("silver", rank=1, weight=0.5),
    PriorityClass(
        "batch", rank=2, weight=0.3, budget_ms=800.0, rate_qps=10.0, burst=5.0
    ),
)


def parse_class_spec(spec: str) -> Tuple[PriorityClass, ...]:
    """Parse the CLI ``--classes`` syntax into priority classes.

    Format: comma-separated ``NAME=WEIGHT:BUDGET_MS:RATE_QPS[:BURST]``,
    priority given by position (first = highest).  ``inf`` is accepted
    for budget and rate::

        gold=0.2:inf:inf,silver=0.5:3000:inf,batch=0.3:800:10:5
    """
    classes: List[PriorityClass] = []
    for rank, chunk in enumerate(part for part in spec.split(",") if part):
        name, _, rest = chunk.partition("=")
        fields = rest.split(":")
        if not name or len(fields) < 3:
            raise ValueError(
                f"bad class spec {chunk!r}; expected "
                "NAME=WEIGHT:BUDGET_MS:RATE_QPS[:BURST]"
            )
        weight = float(fields[0])
        budget = float(fields[1])
        rate = float(fields[2])
        burst = float(fields[3]) if len(fields) > 3 else 1000.0
        classes.append(
            PriorityClass(
                name=name,
                rank=rank,
                weight=weight,
                budget_ms=budget,
                rate_qps=min(rate, UNLIMITED_QPS),
                burst=burst,
            )
        )
    if not classes:
        raise ValueError(f"empty class spec {spec!r}")
    names = [c.name for c in classes]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate class names in {spec!r}")
    return tuple(classes)


# -- token bucket ------------------------------------------------------------


class TokenBucket:
    """A token bucket refilled continuously on the virtual clock."""

    def __init__(self, rate_qps: float, burst: float, t0_ms: float = 0.0):
        if rate_qps <= 0 or burst < 1.0:
            raise ValueError("rate must be positive and burst >= 1")
        self.rate_per_ms = rate_qps / 1000.0
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last_ms = t0_ms

    def _refill(self, t_ms: float) -> None:
        if t_ms > self._last_ms:
            self._tokens = min(
                self.burst,
                self._tokens + (t_ms - self._last_ms) * self.rate_per_ms,
            )
            self._last_ms = t_ms

    def available(self, t_ms: float) -> float:
        self._refill(t_ms)
        return self._tokens

    def try_take(self, t_ms: float) -> bool:
        """Consume one token if present; returns whether it was."""
        self._refill(t_ms)
        if self._tokens >= 1.0 - _TOKEN_EPS:
            self._tokens -= 1.0
            return True
        return False


# -- arrival processes -------------------------------------------------------


class ArrivalProcess:
    """Yields successive interarrival gaps (virtual milliseconds)."""

    def gaps(self) -> Iterator[float]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Memoryless open-loop arrivals at ``rate_qps`` queries/second."""

    def __init__(self, rate_qps: float, seed: int, *path: object):
        if rate_qps <= 0:
            raise ValueError(f"rate must be positive, got {rate_qps}")
        self.rate_qps = rate_qps
        self._rng = derive_rng(seed, "arrivals", "poisson", rate_qps, *path)

    def gaps(self) -> Iterator[float]:
        rate_per_ms = self.rate_qps / 1000.0
        while True:
            yield self._rng.expovariate(rate_per_ms)

    def describe(self) -> str:
        return f"poisson(rate={self.rate_qps:g}qps)"


#: Mean dwell times (virtual ms) of the bursty source's on and off states.
BURST_ON_MS = 400.0
BURST_OFF_MS = 600.0


class BurstyArrivals(ArrivalProcess):
    """On/off Markov-modulated Poisson process (MMPP-2).

    The source alternates between an *on* state emitting Poisson
    arrivals at ``rate_qps / duty`` and a silent *off* state; state
    dwell times are exponential with means :data:`BURST_ON_MS` and
    :data:`BURST_OFF_MS` (``duty = on / (on + off)``).  The long-run
    average rate is
    ``rate_qps``, but arrivals cluster into bursts — the overload shape
    that actually breaks latency SLOs in production.
    """

    def __init__(self, rate_qps: float, seed: int, *path: object):
        if rate_qps <= 0:
            raise ValueError(f"rate must be positive, got {rate_qps}")
        self.rate_qps = rate_qps
        self._rng = derive_rng(seed, "arrivals", "bursty", rate_qps, *path)

    def gaps(self) -> Iterator[float]:
        duty = BURST_ON_MS / (BURST_ON_MS + BURST_OFF_MS)
        burst_rate_per_ms = (self.rate_qps / duty) / 1000.0
        rng = self._rng
        remaining_on = rng.expovariate(1.0 / BURST_ON_MS)
        while True:
            elapsed = 0.0
            gap = rng.expovariate(burst_rate_per_ms)
            # Walk the gap across on/off boundaries: off-state dwell
            # time stretches the interarrival gap without producing
            # arrivals.
            while gap > remaining_on:
                gap -= remaining_on
                elapsed += remaining_on + rng.expovariate(1.0 / BURST_OFF_MS)
                remaining_on = rng.expovariate(1.0 / BURST_ON_MS)
            remaining_on -= gap
            yield elapsed + gap

    def describe(self) -> str:
        return (
            f"bursty(rate={self.rate_qps:g}qps, on={BURST_ON_MS:g}ms, "
            f"off={BURST_OFF_MS:g}ms)"
        )


def make_arrivals(
    process: str, rate_qps: float, seed: int, *path: object
) -> ArrivalProcess:
    """Factory used by the CLI / chaos scenarios (``poisson`` | ``bursty``)."""
    if process == "poisson":
        return PoissonArrivals(rate_qps, seed, *path)
    if process == "bursty":
        return BurstyArrivals(rate_qps, seed, *path)
    raise ValueError(
        f"unknown arrival process {process!r}; expected poisson or bursty"
    )


# -- admission ---------------------------------------------------------------


@dataclass(frozen=True)
class AdmissionDecision:
    """One admit/shed verdict with the evidence that justified it."""

    klass: str
    t_ms: float
    admitted: bool
    #: Tokens in the class bucket *before* this decision.
    tokens_before: float
    #: Backlog-predicted sojourn (ms) at decision time.
    predicted_ms: float
    #: The class's latency budget (``inf`` = unbudgeted).
    budget_ms: float
    #: "" when admitted, else "no-tokens" or "budget-exhausted".
    reason: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "class": self.klass,
            "t_ms": self.t_ms,
            "admitted": self.admitted,
            "tokens_before": self.tokens_before,
            "predicted_ms": self.predicted_ms,
            "budget_ms": (
                None if math.isinf(self.budget_ms) else self.budget_ms
            ),
            "reason": self.reason,
        }


@dataclass
class ShedVerdict:
    """A ``FederatedResult``-shaped answer for a query that was shed."""

    record: PatrolRecord
    decision: AdmissionDecision
    rows: List[tuple] = field(default_factory=list)
    schema = None
    response_ms: float = 0.0

    @property
    def row_count(self) -> int:
        return 0

    @property
    def klass(self) -> str:
        return self.decision.klass

    @property
    def reason(self) -> str:
        return self.decision.reason


class AdmissionController:
    """Token-bucket + budget admission at the patroller's front door.

    A query of class *c* arriving at *t* is shed iff:

    * predicted sojourn (the worst per-server drain time plus the
      integrator's own backlog) exceeds ``c.budget_ms`` — the query
      would blow its SLO before it even started; or
    * ``c``'s token bucket is empty — the class is over its admission
      rate.

    Otherwise one token is consumed and the query is admitted.  Budget
    shedding is checked *first* so a doomed query does not waste a
    token.  Every decision is recorded; the chaos checker
    ``shed-only-over-budget`` proves no query was shed while its class
    still had headroom on both axes.
    """

    def __init__(
        self,
        classes: Sequence[PriorityClass],
        backlog_sources: Optional[
            Mapping[str, "object"]
        ] = None,
        t0_ms: float = 0.0,
    ):
        if not classes:
            raise ValueError("at least one priority class is required")
        self.classes: Dict[str, PriorityClass] = {
            c.name: c for c in classes
        }
        if len(self.classes) != len(classes):
            raise ValueError("duplicate priority class names")
        self._buckets: Dict[str, TokenBucket] = {
            c.name: TokenBucket(c.rate_qps, c.burst, t0_ms)
            for c in classes
        }
        #: name -> object with ``backlog_ms(t_ms)`` (ServerQueues).
        self.backlog_sources = dict(backlog_sources or {})
        self.decisions: List[AdmissionDecision] = []

    def predicted_sojourn_ms(self, t_ms: float) -> float:
        """Backlog-derived sojourn floor for a query admitted at *t_ms*.

        Fragments go to the most backlogged candidate in the worst case
        and every query then pays the integrator's merge backlog, so the
        prediction is max over remote queues plus the II queue.
        """
        remote = 0.0
        ii = 0.0
        for name, queue in self.backlog_sources.items():
            backlog = queue.backlog_ms(t_ms)
            if name == "II":
                ii = backlog
            else:
                remote = max(remote, backlog)
        return remote + ii

    def decide(self, klass: str, t_ms: float) -> AdmissionDecision:
        spec = self.classes.get(klass)
        if spec is None:
            raise KeyError(
                f"unknown priority class {klass!r}; "
                f"configured: {sorted(self.classes)}"
            )
        bucket = self._buckets[klass]
        tokens_before = bucket.available(t_ms)
        predicted = self.predicted_sojourn_ms(t_ms)
        if math.isfinite(spec.budget_ms) and predicted > spec.budget_ms:
            decision = AdmissionDecision(
                klass=klass,
                t_ms=t_ms,
                admitted=False,
                tokens_before=tokens_before,
                predicted_ms=predicted,
                budget_ms=spec.budget_ms,
                reason="budget-exhausted",
            )
        elif not bucket.try_take(t_ms):
            decision = AdmissionDecision(
                klass=klass,
                t_ms=t_ms,
                admitted=False,
                tokens_before=tokens_before,
                predicted_ms=predicted,
                budget_ms=spec.budget_ms,
                reason="no-tokens",
            )
        else:
            decision = AdmissionDecision(
                klass=klass,
                t_ms=t_ms,
                admitted=True,
                tokens_before=tokens_before,
                predicted_ms=predicted,
                budget_ms=spec.budget_ms,
            )
        self.decisions.append(decision)
        metrics = get_obs().metrics
        metrics.counter(
            "admission_decisions_total",
            klass=klass,
            outcome=decision.reason or "admitted",
        ).inc()
        metrics.gauge("admission_tokens", klass=klass).set(
            bucket.available(t_ms)
        )
        metrics.histogram("admission_predicted_ms", klass=klass).observe(
            predicted
        )
        return decision


def shed_violations(
    decisions: Sequence[AdmissionDecision],
) -> List[str]:
    """Audit shed decisions: flag any shed with headroom on both axes.

    This is the single source of truth for the *shed-only-over-budget*
    invariant — the chaos checker and the load benchmark both call it.
    """
    problems: List[str] = []
    for d in decisions:
        if d.admitted:
            continue
        had_tokens = d.tokens_before >= 1.0 - _TOKEN_EPS
        within_budget = (
            not math.isfinite(d.budget_ms) or d.predicted_ms <= d.budget_ms
        )
        if had_tokens and within_budget:
            problems.append(
                f"class {d.klass!r} query shed at t={d.t_ms:.1f}ms with "
                f"headroom: tokens={d.tokens_before:.3f}, "
                f"predicted={d.predicted_ms:.1f}ms within budget "
                f"{d.budget_ms:g}ms ({d.reason or 'no reason'})"
            )
        if not d.admitted and d.reason not in (
            "no-tokens",
            "budget-exhausted",
        ):
            problems.append(
                f"class {d.klass!r} query shed at t={d.t_ms:.1f}ms with "
                f"unknown reason {d.reason!r}"
            )
    return problems
