"""The federation timeline: why routing shifted, not just that it did.

Figure 9/10-style experiments show response times moving when load
moves, but the *mechanism* — calibration factors absorbing the new
observed/estimated ratios, availability transitions gating servers in
and out — is invisible in the end numbers.  The :class:`Timeline` is a
bounded recorder of exactly that mechanism:

* **samples** — one per server per calibration-cycle boundary, carrying
  the active calibration factor, the live observed/estimated ratio the
  cycle folded, availability and reliability state, the number of
  pending (un-folded) history samples, and replica staleness where a
  replica manager is attached;
* **events** — availability transitions (up/down with cause),
  recalibrations (with the adapted cycle interval), and replica
  write/sync activity.

Like every ``repro.obs`` half, the default is :data:`NULL_TIMELINE`, a
null object that accepts calls and records nothing.
"""

from __future__ import annotations

import io
import json
from collections import deque
from dataclasses import asdict, dataclass
from typing import Deque, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class TimelineSample:
    """Per-server state captured at one calibration-cycle boundary."""

    t_ms: float
    server: str
    #: active calibration factor after the cycle folded its histories
    calibration_factor: float
    #: live observed/estimated ratio the cycle saw (None: no samples)
    live_ratio: Optional[float]
    #: availability gate state
    available: bool
    #: reliability cost multiplier (>= 1.0)
    reliability_factor: float
    #: history samples that were pending (un-folded) entering the cycle
    pending_samples: int
    #: worst replica staleness across this server's placements (ms);
    #: None when no replica manager is attached
    replica_staleness_ms: Optional[float] = None


@dataclass(frozen=True)
class TimelineEvent:
    """A discrete federation state transition."""

    t_ms: float
    kind: str
    server: str
    detail: str
    value: Optional[float] = None


_SAMPLE_FIELDS = (
    "t_ms",
    "server",
    "calibration_factor",
    "live_ratio",
    "available",
    "reliability_factor",
    "pending_samples",
    "replica_staleness_ms",
)

_EVENT_FIELDS = ("t_ms", "kind", "server", "detail", "value")

#: How many samples, and how many events, a :class:`Timeline` keeps.
CAPACITY = 4096


class Timeline:
    """Bounded recorder of federation samples and events."""

    def __init__(self) -> None:
        self.samples: Deque[TimelineSample] = deque(maxlen=CAPACITY)
        self.events: Deque[TimelineEvent] = deque(maxlen=CAPACITY)

    # -- recording -------------------------------------------------------

    def sample(
        self,
        t_ms: float,
        server: str,
        calibration_factor: float,
        live_ratio: Optional[float],
        available: bool,
        reliability_factor: float,
        pending_samples: int,
        replica_staleness_ms: Optional[float] = None,
    ) -> None:
        self.samples.append(
            TimelineSample(
                t_ms=t_ms,
                server=server,
                calibration_factor=calibration_factor,
                live_ratio=live_ratio,
                available=available,
                reliability_factor=reliability_factor,
                pending_samples=pending_samples,
                replica_staleness_ms=replica_staleness_ms,
            )
        )

    def event(
        self,
        t_ms: float,
        kind: str,
        server: str = "",
        detail: str = "",
        value: Optional[float] = None,
    ) -> None:
        self.events.append(
            TimelineEvent(
                t_ms=t_ms, kind=kind, server=server, detail=detail, value=value
            )
        )

    # -- querying --------------------------------------------------------

    def server_series(
        self, server: str, field: str = "calibration_factor"
    ) -> List[Tuple[float, object]]:
        """Time series of one sample field for one server."""
        if field not in _SAMPLE_FIELDS:
            raise ValueError(f"unknown sample field {field!r}")
        return [
            (s.t_ms, getattr(s, field))
            for s in self.samples
            if s.server == server
        ]

    def servers(self) -> List[str]:
        return sorted({s.server for s in self.samples})

    # -- export ----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "samples": [asdict(s) for s in self.samples],
            "events": [asdict(e) for e in self.events],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def samples_csv(self) -> str:
        """The samples as CSV (header + one row per sample)."""
        return _csv(_SAMPLE_FIELDS, (asdict(s) for s in self.samples))

    def events_csv(self) -> str:
        """The events as CSV (header + one row per event)."""
        return _csv(_EVENT_FIELDS, (asdict(e) for e in self.events))


def _csv(fields, records) -> str:
    out = io.StringIO()
    out.write(",".join(fields) + "\n")
    for record in records:
        cells = []
        for field in fields:
            value = record[field]
            if value is None:
                cells.append("")
            elif isinstance(value, bool):
                cells.append("1" if value else "0")
            elif isinstance(value, str):
                escaped = value.replace('"', '""')
                cells.append(
                    f'"{escaped}"' if any(c in value for c in ',"\n') else value
                )
            else:
                cells.append(f"{value:g}" if isinstance(value, float) else str(value))
        out.write(",".join(cells) + "\n")
    return out.getvalue()


class NullTimeline(Timeline):
    """The disabled timeline: accepts every call, records nothing."""

    def sample(self, *args, **kwargs) -> None:
        pass

    def event(self, *args, **kwargs) -> None:
        pass


NULL_TIMELINE = NullTimeline()
