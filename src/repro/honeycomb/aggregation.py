"""Decentralized aggregation of tradeoff clusters over the overlay.

Honeycomb nodes periodically exchange cluster summaries with the
contacts in their routing tables (paper §3.2).  The exchange exploits
the same prefix structure Corona's wedges are built on: the channels
*owned* by nodes sharing ``r`` prefix digits with node X form a
shrinking family of sets

    S_X(K) ⊆ S_X(K-1) ⊆ ... ⊆ S_X(0) = all channels,

and each can be computed recursively:

    S_X(r) = S_X(r+1)  ∪  ⋃_j  S_{contact(r, j)}(r+1)

where ``contact(r, j)`` is X's routing-table entry at row ``r`` column
``j``.  Because routing-row contacts cover *disjoint* identifier
regions, every channel is counted exactly once — the aggregation is a
partition, not a gossip average.  One exchange round extends each
node's horizon by one prefix digit; after ``K = log_b N`` rounds every
node holds a summary of all channels in the system, with memory and
bandwidth bounded by ``bins × levels × routing-table size``.

The simulators drive this with explicit rounds so that the propagation
delay of global knowledge — and the transient mis-allocation it causes
(paper Figure 3's brief overshoot) — is reproduced rather than assumed
away.

Delta-driven rounds
-------------------
The recursion above makes each radius a pure function of the previous
round's radius-``r+1`` summaries, so a converged system would
recompute the same values forever.  Rounds are therefore delta-driven:
the aggregator stamps every per-radius summary with the epoch (round
clock) at which its *value* last changed, and a node rebuilds radius
``r`` only when its own radius-``r+1`` epoch or some row-``r``
contact's radius-``r+1`` epoch advanced since the node last built
``r`` (or the radius is missing outright — after churn trimmed it).
Rebuilds read the previous round's values and are committed after the
sweep (a double buffer), preserving the one-maintenance-interval staleness of
piggy-backed aggregation data bit for bit: a skipped radius is exactly
the value the eager recomputation would have produced, and dirt still
propagates one prefix digit per round.  A fully converged round does
no summary work at all.  The original recompute-everything sweep
lives on as the test oracle ``tests/oracles/aggregation.py``
(``benchmarks/test_round_delta.py`` gates the speedup against it).

The :class:`AggregationWork` counters deliberately count *value
changes* rather than raw recomputation, so the eager oracle reports
the same numbers on identical runs (the delta-round equivalence suite
asserts this).  That makes the counters a deterministic CI gate for
"work the protocol caused" that is independent of how cleverly the
round is executed.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field

from repro.honeycomb.clusters import ClusterSummary
from repro.obs.metrics import CounterStruct
from repro.overlay.nodeid import NodeId
from repro.overlay.routing import RoutingTable


class AggregationWork(CounterStruct):
    """Deterministic value-change counters for aggregation rounds.

    ``summaries_rebuilt`` counts per-radius (and local) summaries whose
    committed value actually changed; ``cluster_merges`` counts the
    contact contributions folded into those changed builds;
    ``nodes_dirtied`` accumulates, per round (and per local-load pass),
    the number of nodes with at least one changed summary.  All three
    measure change flowing through the system, not instructions
    executed — an eager sweep over the same run counts the same
    numbers — so scenario baselines can gate on them exactly while
    wall-clock timings stay report-only.

    Backed by ``repro.obs`` counter cells; constructing a new
    aggregator re-registers the series, replacing the prior ones.
    """

    SERIES = (
        (
            "summaries_rebuilt",
            "work_summaries_rebuilt",
            "per-radius summaries whose committed value changed",
        ),
        (
            "cluster_merges",
            "work_cluster_merges",
            "contact contributions folded into changed summary builds",
        ),
        (
            "nodes_dirtied",
            "work_nodes_dirtied",
            "nodes with at least one changed summary, per round",
        ),
    )


@dataclass
class AggregationState:
    """Per-node aggregation memory: one summary per prefix radius.

    ``summaries[r]`` approximates the channels owned by nodes sharing
    ``r`` prefix digits with this node; radius ``rows`` (= digits) is
    the node's own channels, radius 0 is the whole system.

    The trailing fields are delta-round bookkeeping (excluded from
    equality, which compares protocol state only): ``changed[r]`` is
    the round clock at which the radius-``r`` summary pair last changed
    value (or was dropped by churn trimming), ``built[r]`` the clock at
    which this node last rebuilt radius ``r``, and ``complete[r]``
    whether that rebuild saw contributions from every row-``r``
    contact.
    """

    node_id: NodeId
    rows: int
    bins: int = 16
    summaries: dict[int, ClusterSummary] = field(default_factory=dict)
    #: Like ``summaries`` but excluding this node's own channels; the
    #: local optimizer combines fine-grained own-channel data with
    #: ``remote[0]`` so nothing is counted twice.
    remote: dict[int, ClusterSummary] = field(default_factory=dict)
    changed: dict[int, int] = field(default_factory=dict, compare=False)
    built: dict[int, int] = field(default_factory=dict, compare=False)
    complete: dict[int, bool] = field(default_factory=dict, compare=False)

    def local_summary(self) -> ClusterSummary:
        """The radius-``rows`` summary: this node's own channels."""
        return self.summaries.setdefault(
            self.rows, ClusterSummary(bins=self.bins)
        )

    def set_local(self, summary: ClusterSummary) -> None:
        """Replace the own-channel summary (rebuilt on factor changes)."""
        self.summaries[self.rows] = summary
        self.remote[self.rows] = ClusterSummary(bins=self.bins)

    def global_summary(self) -> ClusterSummary:
        """Best current approximation of the whole system's channels."""
        return self.summaries.get(0, self.best_summary())

    def best_summary(self) -> ClusterSummary:
        """The widest-radius summary available so far."""
        for radius in sorted(self.summaries):
            return self.summaries[radius]
        return ClusterSummary(bins=self.bins)

    def best_remote(self) -> ClusterSummary:
        """Widest remote-channel summary (own channels excluded)."""
        for radius in sorted(self.remote):
            return self.remote[radius]
        return ClusterSummary(bins=self.bins)

    def horizon(self) -> int:
        """Smallest radius (widest coverage) currently known."""
        return min(self.summaries, default=self.rows)


class DecentralizedAggregator:
    """Runs aggregation rounds across a population of nodes.

    ``local_channels`` supplies, per node, the factors of the channels
    that node currently owns; :meth:`load_local` rebuilds
    radius-``rows`` summaries from it for every node,
    :meth:`refresh_locals` only for the nodes marked dirty via
    :meth:`mark_local_dirty`, and :meth:`run_round` extends horizons
    one digit.

    Churn is handled **incrementally** (paper §3.3): a joining or
    failing node is spliced into/out of ``states`` in place via
    :meth:`add_nodes`/:meth:`remove_nodes`, and survivors keep every
    summary whose prefix region the event did not touch.  Their
    horizons shrink only where membership actually changed — matching
    the protocol's one-interval staleness — and because every round
    recomputes each stale radius from the previous round's values, the
    spliced state reconverges to exactly what a from-scratch rebuild
    would compute within ``rows`` rounds (the churn-equivalence test
    suite asserts this bit for bit).  ``tables`` should be a live view
    (see :meth:`repro.overlay.network.OverlayNetwork.routing_tables`)
    so membership changes never require re-materializing it.  The
    tables must only change through :meth:`add_nodes`/
    :meth:`remove_nodes` events: the epoch stamps learn about contact
    changes from the horizon trimming those perform.
    """

    def __init__(
        self,
        tables: Mapping[NodeId, RoutingTable],
        rows: int,
        bins: int = 16,
        base: int | None = None,
        registry=None,
    ) -> None:
        self.tables = tables
        self.rows = rows
        self.bins = bins
        if base is None:
            base = next(
                (table.base for table in tables.values()), 16
            )
        self.base = base
        self.states: dict[NodeId, AggregationState] = {
            node_id: AggregationState(node_id=node_id, rows=rows, bins=bins)
            for node_id in tables
        }
        self.work = AggregationWork(registry)
        #: Monotone round clock the delta epoch stamps are drawn from.
        self._clock = 0
        #: Nodes whose owned-channel factors changed since their local
        #: summary was last rebuilt.  Everyone starts dirty so the
        #: first load covers the whole population.
        self._dirty_local: set[NodeId] = set(self.states)
        #: True when the previous round committed nothing and rebuilt
        #: nothing — the next delta round is then a guaranteed no-op.
        self._quiescent = False
        #: Scratch summaries recycled across delta rebuilds whose
        #: result turned out unchanged (bounded pool).
        self._scratch: list[ClusterSummary] = []

    @classmethod
    def for_overlay(
        cls,
        overlay,
        bins: int = 16,
        registry=None,
    ) -> "DecentralizedAggregator":
        """Build over an overlay's live routing-table view."""
        return cls(
            tables=overlay.routing_tables(),
            rows=overlay.aggregation_rows(),
            bins=bins,
            base=overlay.base,
            registry=registry,
        )

    # ------------------------------------------------------------------
    # incremental churn (§3.3)
    # ------------------------------------------------------------------
    def add_nodes(
        self, node_ids: Iterable[NodeId], rows: int | None = None
    ) -> None:
        """Splice a wave of joined nodes into the aggregation state.

        Each newcomer starts with empty summaries (its horizon grows
        one digit per round, like any node's); each survivor drops only
        the summaries whose prefix region now contains a newcomer —
        those undercount until the next rounds repair them, and serving
        them would misreport the region.  ``rows`` re-keys the state
        when the join deepened the overlay's collision depth (pass the
        overlay's current ``aggregation_rows()``).
        """
        joined = list(node_ids)
        for node_id in joined:
            if node_id in self.states:
                raise ValueError(f"node {node_id!r} already aggregated")
            self.states[node_id] = AggregationState(
                node_id=node_id, rows=self.rows, bins=self.bins
            )
            self._dirty_local.add(node_id)
        self._quiescent = False
        self._trim_changed_regions(joined, skip=set(joined))
        if rows is not None:
            self.set_rows(rows)

    def remove_nodes(
        self, node_ids: Iterable[NodeId], rows: int | None = None
    ) -> None:
        """Splice a wave of failed nodes out of the aggregation state.

        Survivors keep every summary of an untouched prefix region;
        radii whose region contained a victim are dropped (they count
        channels the victims' successors now re-announce).  One wave ⇒
        one repair pass, however many nodes failed.
        """
        victims = list(node_ids)
        for node_id in victims:
            if node_id not in self.states:
                raise KeyError(f"node {node_id!r} not aggregated")
        for node_id in victims:
            del self.states[node_id]
            self._dirty_local.discard(node_id)
        self._quiescent = False
        self._trim_changed_regions(victims, skip=frozenset())
        if rows is not None:
            self.set_rows(rows)

    def _trim_changed_regions(
        self, changed: list[NodeId], skip: frozenset[NodeId] | set[NodeId]
    ) -> None:
        """Shrink survivors' horizons only where membership changed.

        A survivor's radius-``r`` summary covers the nodes sharing
        ``r`` prefix digits with it; a membership event at shared
        prefix ``p`` therefore staled exactly the radii ``r <= p``.
        The local (radius-``rows``) summary is never dropped — it is
        rebuilt from owned channels when the owner's factors change.
        Every dropped radius is epoch-stamped so delta rounds at the
        dependents (radius ``r-1`` here and at nodes holding this one
        as a row-``r-1`` contact) rebuild from the trimmed state.
        """
        if not changed:
            return
        for state in self.states.values():
            if state.node_id in skip:
                continue
            horizon = min(state.summaries, default=state.rows)
            if horizon >= state.rows:
                continue  # only the local summary left — nothing stale
            deepest = max(
                state.node_id.shared_prefix_len(node_id, self.base)
                for node_id in changed
            )
            for radius in range(horizon, min(deepest, state.rows - 1) + 1):
                dropped = state.summaries.pop(radius, None)
                state.remote.pop(radius, None)
                state.built.pop(radius, None)
                state.complete.pop(radius, None)
                if dropped is not None:
                    self._stamp(state, radius)

    def set_rows(self, rows: int) -> None:
        """Adjust the aggregation depth after a collision-depth change.

        Rare: only when churn changes the deepest shared prefix in the
        overlay.  Local summaries move to the new local radius; wider
        radii are dropped (their meaning shifted) and regrow one digit
        per round.
        """
        if rows == self.rows:
            return
        self._quiescent = False
        for state in self.states.values():
            local = state.summaries.get(state.rows)
            local_remote = state.remote.get(state.rows)
            state.summaries = {} if local is None else {rows: local}
            state.remote = {} if local_remote is None else {rows: local_remote}
            state.rows = rows
            # All other radii are gone (absent radii always rebuild),
            # so only the re-keyed local needs a fresh epoch stamp for
            # the dependents' triggers; stale build records go with it.
            state.changed = {rows: self._clock}
            state.built = {}
            state.complete = {}
        self.rows = rows

    def _stamp(self, state: AggregationState, radius: int) -> None:
        """Record a value change of ``radius`` at the current clock."""
        state.changed[radius] = self._clock
        self._quiescent = False

    # ------------------------------------------------------------------
    # local summaries
    # ------------------------------------------------------------------
    def mark_local_dirty(self, node_id: NodeId) -> None:
        """Flag a node whose owned-channel factors changed.

        The drivers call this on every event that can move a factor a
        local summary is built from — subscribe/unsubscribe, channel
        re-homes, detected updates (interval/size estimators), level
        steps — so :meth:`refresh_locals` touches only those nodes.
        """
        if node_id in self.states:
            self._dirty_local.add(node_id)

    def load_local(
        self,
        local_channels: Callable[[NodeId], list],
        node_ids: Iterable[NodeId] | None = None,
    ) -> None:
        """Rebuild own-channel summaries (all nodes, or ``node_ids``).

        ``local_channels(node)`` yields ``(factors, is_orphan)`` or
        ``(factors, is_orphan, binning_ratio)`` tuples for the channels
        the node owns; the optional ratio is the scheme-specific f/g
        metric channels are clustered by.  A rebuilt summary equal in
        value to the stored one is discarded (no epoch advance), so a
        reload of unchanged factors leaves the rounds quiescent.
        """
        if node_ids is None:
            targets = list(self.states)
            self._dirty_local.clear()
        else:
            targets = [nid for nid in node_ids if nid in self.states]
            self._dirty_local.difference_update(targets)
        dirtied = 0
        for node_id in targets:
            state = self.states[node_id]
            summary = ClusterSummary(bins=self.bins)
            for entry in local_channels(node_id):
                factors, orphan = entry[0], entry[1]
                ratio = entry[2] if len(entry) > 2 else None
                summary.add_channel(factors, orphan=orphan, ratio=ratio)
            if self._install_local(state, summary):
                dirtied += 1
        self.work.nodes_dirtied += dirtied

    def refresh_locals(
        self, local_channels: Callable[[NodeId], list]
    ) -> None:
        """Rebuild locals only for nodes marked dirty since last load.

        The one entry point every driver calls before its rounds.
        """
        if not self._dirty_local:
            return
        order = sorted(self._dirty_local, key=lambda node_id: node_id.value)
        self.load_local(local_channels, node_ids=order)

    def _install_local(
        self, state: AggregationState, summary: ClusterSummary
    ) -> bool:
        """Commit a rebuilt local summary; returns True if it changed."""
        changed = state.summaries.get(state.rows) != summary
        if changed:
            state.set_local(summary)
            self.work.summaries_rebuilt += 1
            self._stamp(state, state.rows)
        elif state.rows not in state.remote:
            state.remote[state.rows] = ClusterSummary(bins=self.bins)
        return changed

    # ------------------------------------------------------------------
    # rounds
    # ------------------------------------------------------------------
    def run_round(self) -> None:
        """One aggregation round: every node widens its horizon by one.

        For radius ``r`` (from ``rows - 1`` down to 0) a node needs its
        own radius-``r+1`` summary plus the radius-``r+1`` summaries of
        its row-``r`` contacts.  We compute one new radius per round
        from the *previous* round's state, which models the one
        maintenance-interval staleness of piggy-backed aggregation
        data.

        The sweep is epoch-driven (see module docstring): it walks
        every node's radii like a recompute-everything sweep would
        (same break conditions, same contribution order, reading only
        pre-round values) but rebuilds a radius only when its epoch
        trigger fires.  Rebuilt pairs are committed after the sweep so
        within-round reads stay double-buffered.  A rebuild whose value
        did not change keeps the stored objects and advances no epoch,
        so change waves die out exactly as fast as the values converge.
        """
        self._clock += 1
        if self._quiescent:
            return
        clock = self._clock
        states = self.states
        get_state = states.get
        empty = ClusterSummary(bins=self.bins)
        commits: list[
            tuple[AggregationState, int, ClusterSummary, ClusterSummary, int]
        ] = []
        built_any = False
        for node_id, state in states.items():
            table = self.tables[node_id]
            summaries = state.summaries
            remote = state.remote
            changed_map = state.changed
            built_map = state.built
            for radius in range(self.rows - 1, -1, -1):
                inner = summaries.get(radius + 1)
                if inner is None:
                    break  # cannot widen past a missing inner radius
                row = table.row(radius)
                built_at = built_map.get(radius, -1)
                need = (
                    radius not in summaries
                    or changed_map.get(radius + 1, -1) >= built_at
                )
                if not need:
                    for contact in row.values():
                        contact_state = get_state(contact)
                        if (
                            contact_state is not None
                            and contact_state.changed.get(radius + 1, -1)
                            >= built_at
                        ):
                            need = True
                            break
                if not need:
                    if not state.complete.get(radius, True):
                        break  # a full recompute would stop here too
                    continue
                built_any = True
                inner_remote = remote.get(radius + 1)
                combined = self._borrow(inner)
                combined_remote = self._borrow(
                    empty if inner_remote is None else inner_remote
                )
                complete = True
                merges = 0
                for contact in row.values():
                    contact_state = get_state(contact)
                    contribution = (
                        None
                        if contact_state is None
                        else contact_state.summaries.get(radius + 1)
                    )
                    if contribution is None:
                        complete = False
                        continue
                    combined.merge(contribution)
                    combined_remote.merge(contribution)
                    merges += 1
                built_map[radius] = clock
                state.complete[radius] = complete
                commits.append(
                    (state, radius, combined, combined_remote, merges)
                )
                if not complete:
                    break
        work = self.work
        dirtied: set[NodeId] = set()
        for state, radius, combined, combined_remote, merges in commits:
            if (
                state.summaries.get(radius) == combined
                and state.remote.get(radius) == combined_remote
            ):
                # Value-identical rebuild: keep the stored objects, no
                # epoch advance, recycle the buffers.
                if len(self._scratch) < 32:
                    self._scratch.append(combined)
                    self._scratch.append(combined_remote)
                continue
            state.summaries[radius] = combined
            state.remote[radius] = combined_remote
            self._stamp(state, radius)
            work.summaries_rebuilt += 1
            work.cluster_merges += merges
            dirtied.add(state.node_id)
        work.nodes_dirtied += len(dirtied)
        if not built_any:
            # Nothing was even triggered: with no new epochs the next
            # round cannot trigger anything either.
            self._quiescent = True

    def _borrow(self, source: ClusterSummary) -> ClusterSummary:
        """A copy of ``source``, recycling a pooled scratch summary."""
        if self._scratch:
            return self._scratch.pop().replace_with(source)
        return source.copy()

    def run_to_convergence(self) -> int:
        """Run rounds until every node covers radius 0; return rounds."""
        rounds = 0
        while any(state.horizon() > 0 for state in self.states.values()):
            self.run_round()
            rounds += 1
            if rounds > self.rows * 4 + 8:
                break  # safety: sparse tables may never cover some region
        return rounds

    # ------------------------------------------------------------------
    def summary_at(self, node_id: NodeId) -> ClusterSummary:
        """The widest summary node ``node_id`` currently holds."""
        return self.states[node_id].best_summary()

    def horizon_at(self, node_id: NodeId) -> int:
        """How far node ``node_id`` currently sees (0 = whole system)."""
        return self.states[node_id].horizon()
