"""Execution-time bid solicitation (the paper's Mariposa-inspired
future direction).

Section 6: "While Mariposa did such negotiation at optimization-time,
one future direction for our project is to dynamically solicit bids
during query-execution, rather than simply calibrate the
optimizer-estimated [cost] with runtime load conditions."

A *bid* follows Mariposa's seller semantics: just before dispatching a
fragment, every candidate server re-costs the fragment's plan under a
**load-adjusted** version of its own hardware profile (the server knows
its own load, even though the integrator does not) and adds its current
network cost.  The fragment runs at the lowest bidder.  Compared to
pure calibration this trades per-dispatch quoting overhead for immunity
to stale factors — a load spike that happened *after* the last
calibration cycle is caught before the fragment commits to the wrong
server, and the quote prices the fragment's own CPU/IO mix rather than
a generic probe's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..sim import ServerUnavailable
from ..fed.global_optimizer import FragmentOption
from .calibration import Calibration


@dataclass(frozen=True)
class Bid:
    """One server's quote for a fragment."""

    option: FragmentOption
    amount_ms: float

    def describe(self) -> str:
        return (
            f"{self.option.server}: load-blind estimate "
            f"{self.option.estimated.total:.1f} -> live quote "
            f"{self.amount_ms:.1f} ms"
        )


@dataclass
class Auction:
    """The bids collected for one fragment dispatch."""

    fragment_id: str
    bids: List[Bid]
    winner: Bid

    @property
    def losers(self) -> List[Bid]:
        return [b for b in self.bids if b is not self.winner]


class BidBroker:
    """Runs execution-time auctions over a fragment's sibling options.

    Used via :class:`~repro.wrappers.meta.MetaWrapper`'s substitution
    hook: instead of (or after) round-robin balancing, the broker
    re-quotes every candidate server with a live probe and hands the
    fragment to the cheapest.  Probe overhead is charged to the query:
    the integrator's failure-penalty machinery is untouched, but each
    auction adds ``probe_cost_ms`` per solicited server to the winner's
    observed path via the returned overhead.
    """

    def __init__(self, meta_wrapper, quote_cost_ms: float = 0.0):
        self.meta_wrapper = meta_wrapper
        self.quote_cost_ms = quote_cost_ms
        self.auctions: List[Auction] = []

    def solicit(
        self,
        chosen: FragmentOption,
        siblings: Sequence[FragmentOption],
        t_ms: float,
    ) -> Tuple[FragmentOption, float]:
        """Auction the fragment; returns (winning option, overhead_ms).

        Only the cheapest option per server participates (a server's bid
        is its best plan).  Servers that cannot be reached — or cannot
        quote — are excluded from the auction.
        """
        best_per_server: Dict[str, FragmentOption] = {}
        for option in list(siblings) + [chosen]:
            if not option.is_viable:
                continue
            current = best_per_server.get(option.server)
            if current is None or option.calibrated.total < (
                current.calibrated.total
            ):
                best_per_server[option.server] = option

        bids: List[Bid] = []
        overhead = 0.0
        for server, option in sorted(best_per_server.items()):
            try:
                quote = self.meta_wrapper.quote(server, option.plan, t_ms)
            except ServerUnavailable:
                continue
            overhead += self.quote_cost_ms
            if quote is None:
                continue
            bids.append(Bid(option=option, amount_ms=quote))

        if not bids:
            return chosen, overhead
        winner = min(bids, key=lambda b: b.amount_ms)
        self.auctions.append(
            Auction(
                fragment_id=chosen.fragment.fragment_id,
                bids=bids,
                winner=winner,
            )
        )
        return winner.option, overhead


class BiddingQcc(Calibration):
    """A calibration whose substitution hook runs auctions.

    Every other call goes to the wrapped QCC, whose epoch and replica-
    choice rule it shares.  Drop-in: build the deployment normally, then
    ``deployment.meta_wrapper.attach_qcc(BiddingQcc(deployment.qcc,
    broker))``.
    """

    def __init__(self, qcc: Calibration, broker: BidBroker):
        self._qcc = qcc
        self.broker = broker
        self.epoch = qcc.epoch
        self.fragment_balancer = qcc.fragment_balancer

    def substitute(self, option, siblings, t_ms):
        winner, _ = self.broker.solicit(option, siblings, t_ms)
        return winner

    def bind_meta_wrapper(self, meta_wrapper):
        self._qcc.bind_meta_wrapper(meta_wrapper)

    def is_available(self, server, t_ms):
        return self._qcc.is_available(server, t_ms)

    def calibrate(self, server, fragment_signature, cost):
        return self._qcc.calibrate(server, fragment_signature, cost)

    def record_compile(self, server, fragment_signature, option):
        self._qcc.record_compile(server, fragment_signature, option)

    def record_execution(self, **record):
        self._qcc.record_execution(**record)

    def record_error(self, server, t_ms):
        self._qcc.record_error(server, t_ms)

    def recommend_global(self, decomposed, plans, t_ms):
        return self._qcc.recommend_global(decomposed, plans, t_ms)

    def ii_factor(self):
        return self._qcc.ii_factor()

    def record_ii_execution(self, estimated_total, observed_ms, t_ms):
        self._qcc.record_ii_execution(estimated_total, observed_ms, t_ms)

    def tick(self, t_ms):
        self._qcc.tick(t_ms)

    def probe_servers(self, t_ms):
        return self._qcc.probe_servers(t_ms)

    def recalibrate(self, t_ms):
        self._qcc.recalibrate(t_ms)

    def factor(self, server, fragment_signature=None):
        return self._qcc.factor(server, fragment_signature)
