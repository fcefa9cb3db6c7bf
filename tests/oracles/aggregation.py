"""The recompute-everything aggregation sweep, kept as a test oracle.

Before delta-driven rounds, every maintenance phase reloaded every
node's local summary and recomputed every radius of every node from the
previous round's snapshot.  :class:`EagerAggregator` is that sweep.  It
shares the product aggregator's state, churn splicing and
value-change counters, so the delta-round suite can drive both through
identical events and compare states and work counters after every
round, and ``benchmarks/test_round_delta.py`` times the two.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.honeycomb.aggregation import DecentralizedAggregator
from repro.honeycomb.clusters import ClusterSummary
from repro.overlay.nodeid import NodeId


class EagerAggregator(DecentralizedAggregator):
    """Reloads every local and recomputes every radius, every round."""

    def refresh_locals(
        self, local_channels: Callable[[NodeId], list]
    ) -> None:
        self.load_local(local_channels)

    def run_round(self) -> None:
        self._clock += 1
        snapshot: dict[NodeId, dict[int, ClusterSummary]] = {
            node_id: dict(state.summaries)
            for node_id, state in self.states.items()
        }
        remote_snapshot: dict[NodeId, dict[int, ClusterSummary]] = {
            node_id: dict(state.remote)
            for node_id, state in self.states.items()
        }
        work = self.work
        dirtied = 0
        for node_id, state in self.states.items():
            table = self.tables[node_id]
            known = snapshot[node_id]
            node_changed = False
            for radius in range(self.rows - 1, -1, -1):
                inner = known.get(radius + 1)
                if inner is None:
                    break  # cannot widen past a missing inner radius
                inner_remote = remote_snapshot[node_id].get(
                    radius + 1, ClusterSummary(bins=self.bins)
                )
                combined = inner.copy()
                combined_remote = inner_remote.copy()
                complete = True
                merges = 0
                for contact in table.row(radius).values():
                    contribution = snapshot.get(contact, {}).get(radius + 1)
                    if contribution is None:
                        complete = False
                        continue
                    combined.merge(contribution)
                    combined_remote.merge(contribution)
                    merges += 1
                if (
                    state.summaries.get(radius) != combined
                    or state.remote.get(radius) != combined_remote
                ):
                    work.summaries_rebuilt += 1
                    work.cluster_merges += merges
                    node_changed = True
                state.summaries[radius] = combined
                state.remote[radius] = combined_remote
                if not complete:
                    # Partial coverage still improves the estimate, but
                    # do not build wider radii on incomplete data this
                    # round; they would systematically undercount.
                    break
            if node_changed:
                dirtied += 1
        work.nodes_dirtied += dirtied
