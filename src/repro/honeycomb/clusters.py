"""Tradeoff clusters: coarse-grained summaries of many channels.

Running the global optimization requires the tradeoff functions of
*all* channels, but shipping per-channel data to every node is
impractical.  Honeycomb instead aggregates channels with similar
tradeoff factors into *tradeoff clusters* (paper §3.2): each cluster
records how many channels it stands for and their average factors, and
the number of clusters per polling level is capped at a constant
(``tradeoff_bins``; 16 in the paper's implementation, §4).

Channels are assigned to bins by the ratio of their performance and
cost factors ``f_i/g_i`` — e.g. channels with comparable ``q_i/(u_i
s_i)`` cluster together in Corona-Fair — on a logarithmic scale, since
web workload factors span orders of magnitude.

A special *slack cluster* absorbs orphan channels (paper §4): channels
whose wedge cannot grow keep polling at the baselevel no matter what,
so their fixed cost is used to correct the optimization target rather
than entering the optimization itself.

Representation
--------------
:class:`ClusterSummary` — the unit merged thousands of times per
aggregation round — stores its clusters as fixed-size parallel arrays
keyed by ratio bin (slot ``bins`` is the slack cluster), so ``merge``
is an in-place array walk with no per-cluster object allocation and
``copy``/``replace_with`` are flat list copies.  The per-cluster
object API survives as materialized :class:`TradeoffCluster` views
(the ``clusters``/``slack`` properties) for the optimizer and the
tests.  The original dict-of-dataclasses representation lives on as
the test oracle ``tests/oracles/clusters.py``, which the micro-kernel
benchmarks compare the flat arrays against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

#: Bits reserved for the polling level inside a flattened histogram key
#: (``slot << LEVEL_KEY_SHIFT | level`` in :class:`ClusterSummary`).
#: Levels are prefix depths (≤ identifier digit count, ≤ 160), far
#: under the bound; :class:`ChannelFactors` enforces it at creation so
#: keys stay collision-free.
LEVEL_KEY_SHIFT = 20


@dataclass(frozen=True)
class ChannelFactors:
    """The per-channel quantities the optimization consumes (Table 1).

    ``subscribers`` is q_i, ``size`` is s_i (content size in bytes),
    ``update_interval`` is u_i (seconds between content changes), and
    ``level`` the channel's current polling level.
    """

    subscribers: float
    size: float
    update_interval: float
    level: int

    def __post_init__(self) -> None:
        if self.subscribers < 0:
            raise ValueError("subscriber count cannot be negative")
        if self.size <= 0:
            raise ValueError("content size must be positive")
        if self.update_interval <= 0:
            raise ValueError("update interval must be positive")
        if self.level < 0:
            raise ValueError("polling level cannot be negative")
        if self.level >= 1 << LEVEL_KEY_SHIFT:
            raise ValueError("polling level out of range")


@dataclass
class TradeoffCluster:
    """Aggregate of ``count`` channels with similar tradeoff factors.

    Factor sums (not means) are stored so that merging two clusters is
    exact; means are derived on demand.  ``levels`` histograms the
    current polling levels of the member channels — the aggregate view
    every node has of the system's realized polling state.
    """

    count: int = 0
    sum_subscribers: float = 0.0
    sum_size: float = 0.0
    sum_log_update_interval: float = 0.0
    levels: dict[int, int] = field(default_factory=dict)

    def add(self, factors: ChannelFactors) -> None:
        """Fold one channel into the cluster."""
        self.count += 1
        self.sum_subscribers += factors.subscribers
        self.sum_size += factors.size
        self.sum_log_update_interval += math.log(factors.update_interval)
        self.levels[factors.level] = self.levels.get(factors.level, 0) + 1

    def merge(self, other: "TradeoffCluster") -> None:
        """Fold another cluster (same ratio bin) into this one."""
        self.count += other.count
        self.sum_subscribers += other.sum_subscribers
        self.sum_size += other.sum_size
        self.sum_log_update_interval += other.sum_log_update_interval
        for level, count in other.levels.items():
            self.levels[level] = self.levels.get(level, 0) + count

    # ------------------------------------------------------------------
    def majority_level(self) -> int:
        """The most common current level among member channels.

        Ties break toward the shallower level — a canonical rule, so
        two value-equal histograms always agree regardless of the
        order their entries were inserted in (delta rounds keep old
        summary objects where the eager sweep would rebuild equal
        ones; an order-dependent tie-break would let the two modes
        diverge).
        """
        if not self.levels:
            return 0
        return max(
            self.levels.items(), key=lambda item: (item[1], -item[0])
        )[0]

    def mean_factors(self) -> ChannelFactors:
        """The representative (mean) channel this cluster stands for.

        Update intervals are averaged geometrically: they span many
        orders of magnitude and the ratio metrics (Corona-Fair) are
        multiplicative in u_i.
        """
        if self.count == 0:
            raise ValueError("empty cluster has no representative")
        return ChannelFactors(
            subscribers=self.sum_subscribers / self.count,
            size=self.sum_size / self.count,
            update_interval=math.exp(
                self.sum_log_update_interval / self.count
            ),
            level=self.majority_level(),
        )

    def copy(self) -> "TradeoffCluster":
        """An independent copy (merging mutates in place)."""
        duplicate = replace(self, levels=dict(self.levels))
        return duplicate


def default_ratio(factors: ChannelFactors) -> float:
    """Fallback binning metric: the Corona-Fair ratio ``q/(u·s)``.

    The paper's example (§3.2): "channels with comparable values for
    q_i/(u_i s_i) are combined into a cluster in Corona-Fair."  Other
    schemes supply their own ratio (e.g. plain ``q_i`` for Corona-Lite
    under the polls metric) through the ``ratio`` argument of
    :meth:`ClusterSummary.add_channel`.
    """
    return max(factors.subscribers, 1e-9) / (
        factors.update_interval * factors.size
    )


def ratio_bin(ratio: float, bins: int) -> int:
    """Assign a performance/cost ratio to one of ``bins`` log buckets.

    Web workload factors are heavy-tailed, so bins are spaced on log10
    of the ratio; twelve decades centred on 1 cover every metric the
    Corona schemes use, and out-of-range ratios clamp to the edge bins.
    """
    if bins < 1:
        raise ValueError("need at least one bin")
    log_ratio = math.log10(max(ratio, 1e-30))
    low, high = -6.0, 6.0
    position = (log_ratio - low) / (high - low)
    return min(bins - 1, max(0, int(position * bins)))


class ClusterSummary:
    """Capped set of tradeoff clusters, plus the slack cluster.

    This is the unit exchanged between nodes during the aggregation
    phase.  Channels land in a ratio bin (the per-level composition
    lives in each bin's level histogram: channels at different levels
    with the same ratio have identical tradeoff *curves*, so binning by
    ratio alone loses nothing for the solver while keeping the summary
    within the paper's per-level state cap).  The slack slot aggregates
    orphan channels whose levels are frozen (§4).

    Internally the factor sums live in one ``(4, bins + 1)`` float
    array — rows are channel count, Σq, Σs, Σlog u; columns are ratio
    bins with the slack cluster at column ``bins`` — so ``merge`` is a
    single vectorized in-place add and ``copy`` one C-level array copy.
    The per-bin level histograms are flattened into one dict keyed
    ``slot << LEVEL_SHIFT | level`` so merging them folds a single
    dict.  ``clusters`` and ``slack`` materialize read-only
    :class:`TradeoffCluster` views for consumers that want the object
    API; mutating a view does not write back.
    """

    __slots__ = ("bins", "_sums", "_levels", "_fp")

    #: See :data:`LEVEL_KEY_SHIFT` — shared with the
    #: :class:`ChannelFactors` level bound.
    LEVEL_SHIFT = LEVEL_KEY_SHIFT

    #: Row indices of the packed sums array.
    _COUNT, _SUBS, _SIZE, _LOGU = 0, 1, 2, 3

    def __init__(self, bins: int = 16) -> None:
        self.bins = bins
        self._sums = np.zeros((4, bins + 1), dtype=np.float64)
        #: Flattened (slot, level) → channel count histogram.
        self._levels: dict[int, int] = {}
        #: Cached :meth:`fingerprint`; every mutator resets it.
        self._fp: tuple | None = None

    def add_channel(
        self,
        factors: ChannelFactors,
        orphan: bool = False,
        ratio: float | None = None,
    ) -> None:
        """Fold one channel into the summary (slack if it is an orphan).

        ``ratio`` is the scheme's f/g binning metric; when omitted the
        Corona-Fair default ``q/(u·s)`` is used.
        """
        if orphan:
            slot = self.bins
        else:
            slot = ratio_bin(
                default_ratio(factors) if ratio is None else ratio, self.bins
            )
        column = self._sums[:, slot]
        column[0] += 1.0
        column[1] += factors.subscribers
        column[2] += factors.size
        column[3] += math.log(factors.update_interval)
        key = (slot << self.LEVEL_SHIFT) | factors.level
        levels = self._levels
        levels[key] = levels.get(key, 0) + 1
        self._fp = None

    def merge(self, other: "ClusterSummary") -> None:
        """Fold another summary into this one, preserving the bin cap."""
        if other.bins != self.bins:
            raise ValueError("summaries must use the same bin count")
        self._sums += other._sums
        levels = self._levels
        get = levels.get
        for key, count in other._levels.items():
            levels[key] = get(key, 0) + count
        self._fp = None

    def copy(self) -> "ClusterSummary":
        """Deep-enough copy for exchange without aliasing."""
        duplicate = ClusterSummary.__new__(ClusterSummary)
        duplicate.bins = self.bins
        duplicate._sums = self._sums.copy()
        duplicate._levels = dict(self._levels)
        duplicate._fp = self._fp  # same value ⇒ same fingerprint
        return duplicate

    def replace_with(self, other: "ClusterSummary") -> "ClusterSummary":
        """Overwrite this summary with ``other``'s contents, in place.

        The aggregation rounds use this to recycle scratch summaries
        instead of allocating a fresh copy per rebuilt radius.
        """
        if other.bins != self.bins:
            raise ValueError("summaries must use the same bin count")
        self._sums[:] = other._sums
        self._levels.clear()
        self._levels.update(other._levels)
        self._fp = other._fp
        return self

    def fingerprint(self) -> tuple:
        """Cheap, hashable value identity of this summary.

        Equal fingerprints ⇔ equal summaries (the packed sums compared
        byte for byte plus the canonicalized level histogram), so the
        optimization phase can detect "my inputs did not move" and
        "our combined problems collide" with one tuple hash instead of
        re-solving — the solve-memo analogue of the delta rounds'
        epoch stamps.  Cached until the next mutation: a converged
        cloud fingerprints each remote summary once, not once per
        round.
        """
        if self._fp is None:
            self._fp = (
                self.bins,
                self._sums.tobytes(),
                tuple(sorted(self._levels.items())),
            )
        return self._fp

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterSummary):
            return NotImplemented
        return (
            self.bins == other.bins
            and self._levels == other._levels
            and bool(np.array_equal(self._sums, other._sums))
        )

    __hash__ = None  # mutable, like the dataclass it replaced

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ClusterSummary(bins={self.bins}, "
            f"channels={self.total_channels()}, "
            f"slack={int(self._sums[0, self.bins])})"
        )

    # ------------------------------------------------------------------
    # object-API views
    # ------------------------------------------------------------------
    def _cluster_view(self, slot: int) -> TradeoffCluster:
        shift = self.LEVEL_SHIFT
        mask = (1 << shift) - 1
        column = self._sums[:, slot]
        return TradeoffCluster(
            count=int(column[0]),
            sum_subscribers=float(column[1]),
            sum_size=float(column[2]),
            sum_log_update_interval=float(column[3]),
            levels={
                key & mask: count
                for key, count in self._levels.items()
                if key >> shift == slot
            },
        )

    @property
    def clusters(self) -> dict[int, TradeoffCluster]:
        """Materialized bin → cluster view (read-only snapshot)."""
        shift = self.LEVEL_SHIFT
        mask = (1 << shift) - 1
        by_slot: dict[int, dict[int, int]] = {}
        for key, count in self._levels.items():
            by_slot.setdefault(key >> shift, {})[key & mask] = count
        sums = self._sums
        return {
            slot: TradeoffCluster(
                count=int(sums[0, slot]),
                sum_subscribers=float(sums[1, slot]),
                sum_size=float(sums[2, slot]),
                sum_log_update_interval=float(sums[3, slot]),
                levels=levels,
            )
            for slot, levels in sorted(by_slot.items())
            if slot < self.bins
        }

    @property
    def slack(self) -> TradeoffCluster:
        """Materialized view of the slack (orphan) cluster."""
        return self._cluster_view(self.bins)

    # ------------------------------------------------------------------
    def total_channels(self) -> int:
        """Channels summarized, excluding the slack cluster."""
        return int(self._sums[0, : self.bins].sum())

    def total_subscribers(self) -> float:
        """Sum of q_i over summarized channels (excluding slack)."""
        return float(self._sums[1, : self.bins].sum())

    def cluster_count(self) -> int:
        """Number of distinct ratio-bin clusters currently held."""
        return int(np.count_nonzero(self._sums[0, : self.bins]))

    def state_size(self) -> int:
        """Bin-cap check: distinct clusters never exceed ``bins``.

        (The paper caps clusters *per level*; ratio-only binning is
        strictly tighter — at most ``bins`` clusters total.)
        """
        return self.cluster_count()
