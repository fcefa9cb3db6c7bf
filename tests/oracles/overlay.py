"""The announcement-based overlay churn paths, kept as a test oracle.

Before the sorted identifier index, a join routed toward the
newcomer's own id, learned routing state from every node on the route
and then announced itself to the whole population, and a failure wave
made every survivor forget each victim and re-observe a random sample
of the live population.  :class:`LegacyOverlayNetwork` is that
overlay: the product :class:`~repro.overlay.network.OverlayNetwork`
with its join, removal and ``aggregation_rows`` replaced.  The churn
benchmarks and the rebuild oracle system (:mod:`tests.oracles.system`)
compare the incremental paths against it.
"""

from __future__ import annotations

import random
from collections.abc import Iterable

from repro.overlay.network import OverlayNetwork
from repro.overlay.node import PastryNode
from repro.overlay.nodeid import NodeId


class LegacyOverlayNetwork(OverlayNetwork):
    """Announcement joins and sampled repair, seeded by ``rng``."""

    def __init__(
        self,
        base: int = 16,
        leaf_size: int = 8,
        rng: random.Random | None = None,
    ) -> None:
        super().__init__(base=base, leaf_size=leaf_size)
        self.rng = rng or random.Random(0)

    @classmethod
    def build(
        cls,
        n_nodes: int,
        base: int = 16,
        leaf_size: int = 8,
        seed: int = 0,
        address_prefix: str = "node",
    ) -> "LegacyOverlayNetwork":
        """Construct a legacy overlay of ``n_nodes`` synthetic addresses."""
        network = cls(
            base=base, leaf_size=leaf_size, rng=random.Random(seed)
        )
        for index in range(n_nodes):
            network.add_node(f"{address_prefix}-{index}")
        return network

    def _join(self, joining: PastryNode) -> None:
        """Pastry join: learn state from the route toward our own id.

        The joining node routes to its own identifier; every node on
        the route contributes its routing state.  With the synchronous
        container we additionally let the affected peers observe the
        newcomer, which stands in for Pastry's join announcements.
        """
        if not self.nodes:
            return
        seed = self.rng.choice(list(self.nodes.values()))
        route = self._trace_route(seed, joining.node_id)
        teachers = set(route)
        # The numerically closest node shares its leaf set — the join
        # protocol's final step — which seeds the newcomer's leaves.
        closest = route[-1]
        teachers.update(self.nodes[closest].leaves.members())
        for teacher_id in teachers:
            teacher = self.nodes.get(teacher_id)
            if teacher is None:
                continue
            joining.observe(teacher.node_id)
            for contact in teacher.known_nodes():
                if contact in self.nodes:
                    joining.observe(contact)
            teacher.observe(joining.node_id)
        # Announce to everyone whose state the newcomer should appear
        # in, and vice versa.  A real deployment reaches the same state
        # through join announcements and background gossip; the
        # synchronous container short-circuits it so routing tables are
        # as complete as the population allows (a slot is empty only
        # when no node with the required prefix exists) — the property
        # both wedge floods and cluster aggregation rely on.
        for other in self.nodes.values():
            other.observe(joining.node_id)
            joining.observe(other.node_id)

    def remove_nodes(self, node_ids: Iterable[NodeId]) -> None:
        """Forget each victim everywhere, then repair by sampling."""
        victims = list(node_ids)
        for node_id in victims:
            if node_id not in self.nodes:
                raise KeyError(f"unknown node {node_id!r}")
        if len(set(victims)) != len(victims):
            raise ValueError("duplicate node in removal wave")
        for node_id in victims:
            self._drop_from_index(node_id)
            for survivor in self.nodes.values():
                survivor.forget(node_id)
            self._repair()

    def _repair(self) -> None:
        """Refill empty routing slots and thin leaf sets from live peers.

        Mirrors Pastry's property that *any* node with the right prefix
        can occupy a slot: each node re-observes a sample of the live
        population.  Sampling keeps repair O(N·sample) instead of O(N²).
        """
        population = list(self.nodes)
        if not population:
            return
        sample_size = min(len(population), max(16, 4 * self.base))
        for node in self.nodes.values():
            for candidate in self.rng.sample(population, sample_size):
                node.observe(candidate)

    def aggregation_rows(self) -> int:
        """The original routing-table scan.

        After sampled repair a table may transiently miss its deepest
        entry, and the rebuild reference must reproduce that answer
        exactly, so the pair-depth histogram is not consulted.
        """
        deepest = 0
        for node in self.nodes.values():
            rows = node.table.occupied_rows()
            if rows:
                deepest = max(deepest, rows[-1])
        return deepest + 1
