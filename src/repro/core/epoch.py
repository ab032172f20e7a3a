"""The calibration epoch: a version number for QCC's cost surface.

Section 3.1 folds live observations into active factors only at
recalibration-cycle boundaries, "so the optimizer sees a stable cost
surface between cycles".  The epoch makes that stability explicit and
machine-checkable: every event that can change the calibrated costs the
global optimizer would see — a recalibration folding new factors, an
initial probe-derived factor, an availability transition, a
reliability-rate change, a replica write or sync — bumps a single
monotonically increasing counter.  Anything derived from the cost
surface (compiled plans, cached routing decisions) records the epoch it
was computed under and is valid exactly while the counter still matches.
"""

from __future__ import annotations


class CalibrationEpoch:
    """Monotonically increasing counter marking cost-surface changes.

    One instance is shared by everything feeding a deployment's cost
    surface (calibrator, availability monitor, replica manager), so a
    single integer comparison answers "could a fresh compilation differ
    from this cached one?".
    """

    __slots__ = ("value", "_listeners")

    def __init__(self) -> None:
        self.value = 0
        self._listeners = []

    def bump(self) -> int:
        """Advance the epoch; returns the new value.

        Subscribers are notified synchronously, in subscription order,
        *after* the counter has advanced — a listener reading
        ``epoch.value`` sees the new epoch.
        """
        self.value += 1
        for listener in tuple(self._listeners):
            listener(self.value)
        return self.value

    def subscribe(self, listener) -> "callable":
        """Call ``listener(new_value)`` after every bump.

        Returns an unsubscribe callable (idempotent).  Mid-query
        re-routing uses this to observe cost-surface changes the moment
        they land instead of polling the counter: one subscription covers
        both recalibrations and availability flips, because availability
        transitions already bump the shared epoch.
        """
        self._listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CalibrationEpoch({self.value})"
