"""The rebuild-on-churn system, kept as a test oracle.

Before incremental churn, :class:`~repro.core.system.CoronaSystem`
handled membership one node at a time.  Each join or failure ran the
announcement-based overlay protocol (:mod:`tests.oracles.overlay`),
rebuilt the aggregator from a fresh copy of the routing tables, and
rescanned every channel's anchor.  :class:`RebuildChurnSystem` is
that system.  The churn equivalence suite checks it against the
incremental splice, and ``benchmarks/test_churn_incremental.py`` times
the two.

Node ids come from addresses, so the oracle replaces the overlay and
the aggregator after the product constructor ran without changing any
id.  The aggregator keeps its class: a test that also swaps in
:class:`tests.oracles.aggregation.EagerAggregator` gets eager rounds on
every rebuilt aggregator too.
"""

from __future__ import annotations

from repro.core.system import CoronaSystem
from repro.overlay.nodeid import NodeId
from tests.oracles.overlay import LegacyOverlayNetwork


class RebuildChurnSystem(CoronaSystem):
    """Legacy overlay, full aggregator rebuild and anchor rescan."""

    def __init__(self, n_nodes: int, config, fetcher, seed: int = 0, **kw):
        super().__init__(n_nodes, config, fetcher, seed=seed, **kw)
        self.overlay = LegacyOverlayNetwork.build(
            n_nodes,
            base=config.base,
            leaf_size=config.replicas + 1,
            seed=seed,
        )
        self.aggregator = type(self.aggregator).for_overlay(
            self.overlay,
            bins=config.tradeoff_bins,
            registry=self.obs.registry,
        )

    def _join_wave(self, addresses: list[str], now: float) -> list[NodeId]:
        joined: list[NodeId] = []
        for address in addresses:
            node_id = self.overlay.add_node(address).node_id
            self.nodes[node_id] = self._make_node(node_id, len(self.nodes))
            joined.append(node_id)
            self._rebuild_aggregator()
            self._rehome_by_rescan(node_id, now)
        self.counters.joins += len(joined)
        return joined

    def _rehome_by_rescan(self, joined: NodeId, now: float) -> None:
        """Recompute every channel's anchor; move those ``joined`` won."""
        for url in list(self.managers):
            cid = self._cid(url)
            winner = self.overlay.anchor_of(cid)
            if winner != joined or winner == self.managers[url]:
                continue
            self._transfer_channel(url, cid, winner, now)
            self.counters.rehomed_channels += 1

    def _fail_wave(self, victims: list[NodeId], now: float) -> int:
        for node_id in victims:
            if node_id not in self.nodes:
                raise KeyError(f"unknown node {node_id!r}")
        return sum(
            self._fail_single_rebuild(node_id, now) for node_id in victims
        )

    def _fail_single_rebuild(self, node_id: NodeId, now: float) -> int:
        """Fail one node, then rebuild the aggregator from scratch."""
        dying = self.nodes[node_id]
        state = dying.registry.export_state()
        orphaned_urls = list(dying.managed)
        self._crashed_pool.append(
            (node_id, self.overlay.nodes[node_id].address)
        )
        self.overlay.remove_node(node_id)
        del self.nodes[node_id]
        # Aggregation state is rebuilt over the surviving population
        # (the overlay's self-healing already repaired routing tables).
        self._rebuild_aggregator()
        rehomed = 0
        for url in orphaned_urls:
            self._adopt_orphan(url, state.get(url, set()), now)
            rehomed += 1
        self.counters.crashes += 1
        self.counters.rehomed_channels += rehomed
        return rehomed

    def _rebuild_aggregator(self) -> None:
        """Reconstruct aggregation state over a copy of the tables."""
        self.aggregator = type(self.aggregator)(
            tables=dict(self.overlay.routing_tables()),
            rows=self.overlay.aggregation_rows(),
            bins=self.config.tradeoff_bins,
            base=self.config.base,
            registry=self.obs.registry,
        )
