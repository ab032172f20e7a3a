"""The simulated federated system: what-if global plan derivation.

Section 4.2: II's explain table stores only the winner plan, so QCC
cannot see the alternatives it needs for global-level load balancing.
QCC therefore re-runs compilation in explain mode against a *simulated*
federated system, masking all but one candidate server per fragment each
time ("the implementation is done by adjusting cost functions of [the
other servers] to infinity"), collecting the winner of each masked
compilation — 4 explain calls for the paper's 2×2 example instead of
enumerating all 9 combinations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..sqlengine import Database, ServerProfile
from ..fed.decomposer import decompose
from ..fed.global_optimizer import (
    FragmentOption,
    GlobalPlan,
    enumerate_global_plans,
)
from ..fed.nicknames import NicknameRegistry
from .calibration import Calibration


class _CalibrationOnlyView(Calibration):
    """Read-only view of a calibration for what-if compilation.

    What-if planning must use *calibrated* costs (Section 4.2 costs the
    alternative plans with the calibration factors) but must not pollute
    QCC's compile records or load-balance workload counters: only the
    two reads go through, every record stays the base class's no-op.
    """

    def __init__(self, qcc: Calibration):
        super().__init__()
        self._qcc = qcc

    def is_available(self, server, t_ms):
        return self._qcc.is_available(server, t_ms)

    def calibrate(self, server, fragment_signature, cost):
        return self._qcc.calibrate(server, fragment_signature, cost)


def build_simulated_meta_wrapper(deployment, use_calibration: bool = True):
    """A meta-wrapper over *virtual* copies of the deployment's servers.

    Each simulated server carries the real server's catalog statistics
    and hardware profile but **no data** — the paper's "simulated
    catalog and virtual tables".  Explain-mode compilation against it
    yields exactly the real servers' estimates; execution is impossible
    by construction.
    """
    from ..sim import RemoteServer
    from ..wrappers import MetaWrapper, RelationalWrapper

    wrappers = {}
    for name, server in deployment.servers.items():
        virtual = RemoteServer(
            name=name,
            database=Database.stats_only_copy(server.database),
            contention=server.contention,
            link=server.link,
        )
        wrappers[name] = RelationalWrapper(virtual)
    return MetaWrapper(
        wrappers,
        qcc=(
            _CalibrationOnlyView(deployment.qcc)
            if use_calibration
            else Calibration()
        ),
    )


@dataclass
class WhatIfResult:
    """Outcome of a what-if derivation."""

    plans: List[GlobalPlan]
    explain_calls: int
    masked_combinations: List[Tuple[str, ...]]


class WhatIfPlanner:
    """Derives alternative global plans via masked explain-mode compiles."""

    def __init__(
        self,
        registry: NicknameRegistry,
        meta_wrapper,
        ii_profile: ServerProfile,
    ):
        self.registry = registry
        self.meta_wrapper = meta_wrapper
        self.ii_profile = ii_profile

    def derive_global_plans(self, sql: str, t_ms: float) -> WhatIfResult:
        """Enumerate distinct winner plans across server-mask combinations."""
        decomposed = decompose(sql, self.registry)
        options: Dict[str, List[FragmentOption]] = {}
        server_sets: List[Tuple[str, List[str]]] = []
        for fragment in decomposed.fragments:
            fragment_options = self.meta_wrapper.compile_fragment(
                fragment, t_ms
            )
            options[fragment.fragment_id] = fragment_options
            servers = sorted({o.server for o in fragment_options})
            server_sets.append((fragment.fragment_id, servers))

        winners: List[GlobalPlan] = []
        seen: set = set()
        combinations: List[Tuple[str, ...]] = []
        explain_calls = 0
        for combo in itertools.product(*(s for _, s in server_sets)):
            combinations.append(combo)
            masked = {
                fragment_id: [
                    o
                    for o in options[fragment_id]
                    if o.server == combo[index]
                ]
                for index, (fragment_id, _) in enumerate(server_sets)
            }
            if any(not opts for opts in masked.values()):
                continue
            explain_calls += 1
            plans = enumerate_global_plans(
                decomposed,
                masked,
                self.ii_profile,
                keep=1,
            )
            winner = plans[0]
            key = tuple(
                (c.fragment.fragment_id, c.server, c.plan_signature)
                for c in winner.choices
            )
            if key in seen:
                continue
            seen.add(key)
            winners.append(winner)

        winners.sort(key=lambda p: p.total_cost)
        winners = [
            GlobalPlan(
                plan_id=f"p{i + 1}",
                choices=p.choices,
                merge_cost=p.merge_cost,
                total_cost=p.total_cost,
            )
            for i, p in enumerate(winners)
        ]
        return WhatIfResult(
            plans=winners,
            explain_calls=explain_calls,
            masked_combinations=combinations,
        )
