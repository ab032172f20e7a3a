"""The eight load phases of Table 1.

========  ====  ====  ====
Phase     S1    S2    S3
========  ====  ====  ====
Phase1    Base  Base  Base
Phase2    Base  Base  Load
Phase3    Base  Load  Base
Phase4    Base  Load  Load
Phase5    Load  Base  Base
Phase6    Load  Base  Load
Phase7    Load  Load  Base
Phase8    Load  Load  Load
========  ====  ====  ====
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Tuple

#: Load levels for "Base" and "Load" conditions.
BASE_LEVEL = 0.0
LOAD_LEVEL = 0.85

SERVER_NAMES = ("S1", "S2", "S3")


@dataclass(frozen=True)
class Phase:
    """One load-condition combination across the remote servers."""

    name: str
    loaded: FrozenSet[str]

    def level_for(self, server: str, load_level: float = LOAD_LEVEL) -> float:
        return load_level if server in self.loaded else BASE_LEVEL

    def levels(
        self,
        servers: Tuple[str, ...] = SERVER_NAMES,
        load_level: float = LOAD_LEVEL,
    ) -> Dict[str, float]:
        return {s: self.level_for(s, load_level) for s in servers}

    def condition(self, server: str) -> str:
        return "Load" if server in self.loaded else "Base"


def _phase(index: int, loaded: Tuple[str, ...]) -> Phase:
    return Phase(name=f"Phase{index}", loaded=frozenset(loaded))


#: Table 1, verbatim.
PHASES: Tuple[Phase, ...] = (
    _phase(1, ()),
    _phase(2, ("S3",)),
    _phase(3, ("S2",)),
    _phase(4, ("S2", "S3")),
    _phase(5, ("S1",)),
    _phase(6, ("S1", "S3")),
    _phase(7, ("S1", "S2")),
    _phase(8, ("S1", "S2", "S3")),
)


#: The paper's Fixed Assignment 1 (Section 5.3): routing registered at
#: nickname-definition time — QT1, QT3 to S1; QT2 to S2; QT4 to S3.
FIXED_ASSIGNMENT_1: Mapping[str, str] = {
    "QT1": "S1",
    "QT2": "S2",
    "QT3": "S1",
    "QT4": "S3",
}

#: Fixed Assignment 2: always the most powerful server, S3.
PREFERRED_SERVER = "S3"
