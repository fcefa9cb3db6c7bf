"""Delta-round property suite: epoch-skipped rounds == eager rounds.

The product aggregator replaced the recompute-everything sweep (kept
as the oracle :class:`tests.oracles.aggregation.EagerAggregator`) with
epoch-stamped rebuilds of only the radii whose inputs changed.
The paper's §3.3 one-interval-staleness semantics must survive **bit
for bit**: after every single round — not just at convergence — the
delta aggregator's states must equal what the eager reference computes
from the same inputs, under any interleaving of churn splices,
local-factor changes and rounds.  The work counters must agree too
(they count value changes, not recomputations), which doubles as the
proof that the dirty-local tracking misses nothing.
"""

import random

import pytest

from repro.honeycomb.aggregation import DecentralizedAggregator
from repro.honeycomb.clusters import ChannelFactors
from repro.overlay.network import OverlayNetwork
from tests.oracles.aggregation import EagerAggregator


def factors_for(node_id, boost: int = 0):
    """Deterministic per-node channel factors, scalable by ``boost``."""
    value = node_id.value
    if value % 3 == 0 and not boost:
        return []
    q = 1 + value % 13 + 10 * boost
    return [
        (
            ChannelFactors(
                subscribers=float(q),
                size=100.0 + value % 900,
                update_interval=60.0 * (1 + value % 7),
                level=(value + boost) % 4,
            ),
            value % 5 == 0,
            float(q % 11 + 1),
        )
    ]


class MirroredPair:
    """A delta and an eager aggregator driven through identical events."""

    def __init__(self, overlay, bins=8):
        self.overlay = overlay
        self.delta = DecentralizedAggregator.for_overlay(overlay, bins=bins)
        self.eager = EagerAggregator.for_overlay(overlay, bins=bins)
        self.boosts: dict = {}

    def local_channels(self, node_id):
        return factors_for(node_id, self.boosts.get(node_id, 0))

    def load(self):
        # The delta aggregator reloads the dirty set, the eager one
        # the whole population; value-identical rebuilds advance no
        # epoch either way.
        self.delta.refresh_locals(self.local_channels)
        self.eager.refresh_locals(self.local_channels)

    def bump_factors(self, node_id):
        self.boosts[node_id] = self.boosts.get(node_id, 0) + 1
        self.delta.mark_local_dirty(node_id)

    def round(self):
        self.delta.run_round()
        self.eager.run_round()

    def join(self, address):
        joined = self.overlay.add_node(address).node_id
        rows = self.overlay.aggregation_rows()
        self.delta.add_nodes([joined], rows=rows)
        self.eager.add_nodes([joined], rows=rows)
        return joined

    def crash(self, victims):
        self.overlay.remove_nodes(victims)
        rows = self.overlay.aggregation_rows()
        self.delta.remove_nodes(victims, rows=rows)
        self.eager.remove_nodes(victims, rows=rows)

    def assert_identical(self):
        assert self.delta.states == self.eager.states
        assert self.delta.work.as_dict() == self.eager.work.as_dict()


class TestPerRoundEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_random_interleavings_bit_identical_every_round(self, seed):
        """Any mix of churn, factor changes and rounds: equal states
        and equal work counters after *every* round."""
        rng = random.Random(seed)
        overlay = OverlayNetwork.build(20, base=4, leaf_size=3)
        pair = MirroredPair(overlay)
        minted = 0
        for _step in range(40):
            action = rng.random()
            if action < 0.15 and len(overlay) > 5:
                count = rng.randint(1, 2)
                pair.crash(rng.sample(overlay.node_ids(), count))
            elif action < 0.3:
                minted += 1
                pair.join(f"delta-{seed}-{minted}")
            elif action < 0.55:
                # A factor wave: one or several owners change factors
                # (the flash-crowd shape: many managers dirty at once).
                for node_id in rng.sample(
                    overlay.node_ids(), rng.randint(1, 4)
                ):
                    pair.bump_factors(node_id)
            else:
                pair.load()
                pair.round()
                pair.assert_identical()
        # Drain to convergence and compare once more.
        for _ in range(pair.delta.rows + 2):
            pair.load()
            pair.round()
        pair.assert_identical()

    def test_steady_state_rounds_do_no_summary_work(self):
        """Once converged with stable factors, delta rounds are free
        and commit nothing — yet stay equal to the eager sweep."""
        overlay = OverlayNetwork.build(32, base=4, leaf_size=3)
        pair = MirroredPair(overlay)
        pair.load()
        for _ in range(pair.delta.rows + 2):
            pair.round()
        pair.assert_identical()
        before = dict(pair.delta.work.as_dict())
        for _ in range(5):
            pair.load()
            pair.round()
        pair.assert_identical()
        assert pair.delta.work.as_dict() == before  # zero value changes

    def test_factor_change_propagates_one_digit_per_round(self):
        """A single dirty owner re-dirties exactly the §3.3 wave: its
        change reaches wider radii one digit per round, and the
        per-round dirtied counts match the eager reference."""
        overlay = OverlayNetwork.build(24, base=4, leaf_size=3)
        pair = MirroredPair(overlay)
        pair.load()
        for _ in range(pair.delta.rows + 2):
            pair.round()
        pair.assert_identical()
        victim = overlay.node_ids()[1]
        pair.bump_factors(victim)
        rounds_until_quiet = 0
        for _ in range(pair.delta.rows + 3):
            before = pair.delta.work.summaries_rebuilt
            pair.load()
            pair.round()
            pair.assert_identical()
            if pair.delta.work.summaries_rebuilt == before:
                break
            rounds_until_quiet += 1
        # The wave dies within rows+1 rounds (one digit per round).
        assert rounds_until_quiet <= pair.delta.rows + 1
        after = dict(pair.delta.work.as_dict())
        pair.load()
        pair.round()
        pair.assert_identical()
        assert pair.delta.work.as_dict() == after


class TestDirtyLocalBookkeeping:
    def test_unmarked_equal_rebuild_advances_no_epoch(self):
        """Reloading identical factors dirties nothing in either mode."""
        overlay = OverlayNetwork.build(12, base=4, leaf_size=2)
        agg = DecentralizedAggregator.for_overlay(overlay, bins=8)
        agg.load_local(factors_for)
        rebuilt = agg.work.summaries_rebuilt
        agg.load_local(factors_for)  # same values again
        assert agg.work.summaries_rebuilt == rebuilt

    def test_mark_local_dirty_scopes_the_reload(self):
        overlay = OverlayNetwork.build(12, base=4, leaf_size=2)
        agg = DecentralizedAggregator.for_overlay(overlay, bins=8)
        agg.refresh_locals(factors_for)  # everyone starts dirty
        boost = {}

        def channels(node_id):
            return factors_for(node_id, boost.get(node_id, 0))

        target = overlay.node_ids()[0]
        boost[target] = 1
        agg.mark_local_dirty(target)
        rebuilt = agg.work.summaries_rebuilt
        agg.refresh_locals(channels)
        assert agg.work.summaries_rebuilt == rebuilt + 1
        # The dirty set drained: a second pass rebuilds nothing.
        agg.refresh_locals(channels)
        assert agg.work.summaries_rebuilt == rebuilt + 1

    def test_mark_unknown_node_is_ignored(self):
        overlay = OverlayNetwork.build(6, base=4, leaf_size=2)
        agg = DecentralizedAggregator.for_overlay(overlay, bins=8)
        ghost = overlay.add_node("ghost").node_id
        overlay.remove_nodes([ghost])
        agg.mark_local_dirty(ghost)  # never aggregated: no-op
        agg.refresh_locals(factors_for)
        assert ghost not in agg.states
