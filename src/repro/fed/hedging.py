"""Hedged-dispatch policy: when to fire a backup.

Tail-latency insurance for fragment dispatch (Dean & Barroso's "tail at
scale" hedged requests, adapted to the paper's replica clusters): if no
completion arrives within ``hedge_after_ms`` a backup fires at the next
replica of the fragment's Section 4.1 cluster (the rule is
:meth:`repro.core.load_balance.FragmentLoadBalancer.ranked_cluster`),
the first result wins and the loser is cancelled, releasing its
remaining service back to the queue — the timer leg of
:class:`repro.fed.concurrent.RacedDispatch`.

:class:`HedgePolicy` owns the two adaptive pieces:

* **Timeout derivation** — per generalized fragment signature (literals
  folded to ``?`` so instances pool), the hedge delay is the ``QUANTILE``
  (p95) of the observed fragment latencies in a sliding window.  Until
  ``MIN_SAMPLES`` observations exist the static ``static_after_ms``
  fallback applies.  Hedging at ~p95 bounds the extra load at ~5% of
  dispatches while cutting exactly the tail.

* **Adaptive fanout cap** — no backup is fired when the candidate
  queue's in-flight depth (the ``sched_queue_depth`` gauge's source)
  already exceeds ``DEPTH_CAP``: hedging into an overloaded replica
  only feeds the congestion it is trying to dodge.

Determinism: the policy consumes no randomness and no wall-clock; all
state is a pure function of the observation sequence, so hedged runs
remain byte-reproducible from the seed.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

#: LRU bound on distinct signatures whose latency window is tracked.
MAX_TRACKED = 1024

#: Latency quantile that arms the hedge timer once history exists.
QUANTILE = 0.95

#: Observations required before the quantile replaces the static
#: fallback.
MIN_SAMPLES = 8

#: Sliding window of latency observations kept per signature.
WINDOW = 64

#: Suppress the backup when its queue depth (in-flight jobs at the
#: backup) exceeds this.
DEPTH_CAP = 4


class HedgePolicy:
    """Derives hedge timeouts from observed latency; caps the fanout.

    *static_after_ms* is the hedge delay (virtual ms) until a signature
    has history.
    """

    def __init__(self, static_after_ms: float):
        if static_after_ms < 0:
            raise ValueError(f"negative hedge delay {static_after_ms}")
        self.static_after_ms = static_after_ms
        self._history: Dict[str, Deque[float]] = {}
        # -- lifetime counters (mirrored into obs by the runtime) -------
        self.fired = 0
        self.suppressed = 0
        self.backup_wins = 0
        self.primary_wins = 0
        self.wasted_ms = 0.0

    # -- timeout derivation ----------------------------------------------

    def observe(self, signature: str, latency_ms: float) -> None:
        """Feed one completed fragment latency into the signature's
        sliding window (LRU-bounded across signatures)."""
        window = self._history.pop(signature, None)
        if window is None:
            window = deque(maxlen=WINDOW)
        self._history[signature] = window
        window.append(latency_ms)
        while len(self._history) > MAX_TRACKED:
            del self._history[next(iter(self._history))]

    def hedge_after(self, signature: str) -> float:
        """Hedge delay for *signature*: the ``QUANTILE`` of its window,
        or the static fallback while history is thin."""
        window = self._history.get(signature)
        if window is None or len(window) < MIN_SAMPLES:
            return self.static_after_ms
        ordered = sorted(window)
        index = min(len(ordered) - 1, max(0, int(QUANTILE * len(ordered))))
        return ordered[index]

    def samples(self, signature: str) -> int:
        window = self._history.get(signature)
        return 0 if window is None else len(window)

    # -- fanout cap ------------------------------------------------------

    def allow_backup(self, backup_depth: int) -> bool:
        """Whether a backup may fire given the candidate queue's current
        in-flight depth."""
        return backup_depth <= DEPTH_CAP

    # -- bookkeeping -----------------------------------------------------

    def note_outcome(self, winner: str, wasted_ms: float) -> None:
        """Book one settled race: *winner* is ``"primary"`` or
        ``"backup"``, *wasted_ms* what the cancelled loser consumed."""
        self.fired += 1
        self.wasted_ms += wasted_ms
        if winner == "backup":
            self.backup_wins += 1
        else:
            self.primary_wins += 1

    def stats(self) -> Dict[str, float]:
        """Lifetime hedge counters in report shape (the single source
        the load generator and CLI surface)."""
        return {
            "fired": float(self.fired),
            "suppressed": float(self.suppressed),
            "backup_wins": float(self.backup_wins),
            "primary_wins": float(self.primary_wins),
            "wasted_ms": round(self.wasted_ms, 3),
        }

