"""The dict-of-clusters summary, kept as a test oracle.

:class:`~repro.honeycomb.clusters.ClusterSummary` stores its clusters
as fixed-size parallel arrays.  :class:`ObjectClusterSummary` is the
representation it replaced: one :class:`TradeoffCluster` per ratio bin
in a dict, plus a slack cluster.  The binning helpers are imported from
the product module, so both sides cluster channels identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.honeycomb.clusters import (
    ChannelFactors,
    TradeoffCluster,
    default_ratio,
    ratio_bin,
)


@dataclass
class ObjectClusterSummary:
    """The original dict-of-:class:`TradeoffCluster` representation.

    Semantically identical to :class:`ClusterSummary`; the
    micro-kernel benchmarks compare the flat-array representation
    against it (``benchmarks/test_micro_kernels.py``).
    """

    bins: int = 16
    clusters: dict[int, TradeoffCluster] = field(default_factory=dict)
    slack: TradeoffCluster = field(default_factory=TradeoffCluster)

    def add_channel(
        self,
        factors: ChannelFactors,
        orphan: bool = False,
        ratio: float | None = None,
    ) -> None:
        """Fold one channel into the summary (slack if it is an orphan)."""
        if orphan:
            self.slack.add(factors)
            return
        key = ratio_bin(
            default_ratio(factors) if ratio is None else ratio, self.bins
        )
        cluster = self.clusters.get(key)
        if cluster is None:
            cluster = TradeoffCluster()
            self.clusters[key] = cluster
        cluster.add(factors)

    def merge(self, other: "ObjectClusterSummary") -> None:
        """Fold another summary into this one, preserving the bin cap."""
        if other.bins != self.bins:
            raise ValueError("summaries must use the same bin count")
        for key, cluster in other.clusters.items():
            mine = self.clusters.get(key)
            if mine is None:
                self.clusters[key] = cluster.copy()
            else:
                mine.merge(cluster)
        self.slack.merge(other.slack)

    def copy(self) -> "ObjectClusterSummary":
        """Deep-enough copy for exchange without aliasing."""
        duplicate = ObjectClusterSummary(bins=self.bins)
        duplicate.merge(self)
        return duplicate

    def total_channels(self) -> int:
        """Channels summarized, excluding the slack cluster."""
        return sum(cluster.count for cluster in self.clusters.values())
