"""Honeycomb's numerical optimization algorithm.

The problem — minimize ``Σ f_i(l_i)`` subject to ``Σ g_i(l_i) ≤ T``
with integral levels — is NP-hard, so Honeycomb computes the Lagrangian
relaxation exactly (paper §3.2):

    L* = argmin  Σ f_i(l_i) − λ [Σ g_i(l_i) − T]

For a fixed multiplier the minimization decomposes per channel, and for
each channel only the vertices of the lower convex hull of the
``(g(l), f(l))`` point set can ever be selected.  Sweeping λ from 0
upward applies per-channel *exchange moves* (hull edges) in order of
their marginal rate ``Δf/Δg``; the solver sorts all moves globally and
binary-searches the prefix whose cumulative cost reduction reaches the
constraint — the paper's "bracketing" over a pre-computed discrete
iteration space of ``M·log N`` multiplier values, ``O(M log M log N)``
overall.

The result is a bracketing pair: ``L*_d`` (feasible, returned) and
``L*_u`` (one exchange move earlier, infeasible), which differ in the
level of at most one channel — Honeycomb's accuracy guarantee.

Weighted entries (tradeoff clusters standing for ``w`` identical remote
channels) participate natively: a cluster's move can be applied to only
part of its population, which is exactly how the solution stays
accurate "within the granularity of one channel" even when most
channels are only known in aggregate.

Delta-driven solving
--------------------
Because every manager poses its instance over the *same* discrete
ratio-bin space, successive and concurrent instances are overwhelmingly
identical.  :class:`HoneycombSolver` (the production solver) therefore
adds two things on top of the algorithm:

* **input-hash memoization**: a canonical fingerprint of the
  :class:`~repro.honeycomb.problem.TradeoffProblem` — the budget plus
  every channel's ``(key, levels, f, g, weight)`` tuple — keys an LRU
  of full :class:`BracketingSolution`\\ s, so re-solving an unchanged
  instance is one hash lookup;
* a **vectorized kernel**: hull construction runs over one flat,
  lexsorted point array (no per-vertex objects) and the global move
  sort / prefix-scan / bracket search are single numpy
  ``lexsort``/``accumulate``/``searchsorted`` calls.  Accumulations
  are seeded, strictly sequential ``np.add.accumulate`` chains, so
  every float is associated exactly as the reference loop associates
  it — the kernel is **bit-identical** to the object implementation
  it replaced, which lives on as the test oracle
  ``tests/oracles/solver.py`` (the micro-kernel benchmarks compare the
  two, and ``tests/honeycomb/test_solve_memo_equivalence.py`` asserts
  the equality).

The solver reports :class:`SolverWork` counters (problems actually
solved, memo hits, shared-solution hits); the drivers aggregate them
into the scenario metrics the CI baselines gate on.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.honeycomb.problem import ChannelTradeoff, TradeoffProblem
from repro.obs.metrics import CounterStruct


class SolverWork(CounterStruct):
    """Deterministic counters for the optimization phase.

    ``problems_solved`` counts bracketing solves actually executed;
    ``memo_hits`` counts solves avoided by input-hash memoization —
    both the solver's own LRU hits and the managers' whole-phase
    short-circuits (an unchanged remote summary + own contribution
    skips the solve outright); ``shared_hits`` counts solves avoided
    by the round-scoped shared-solution cache (managers whose combined
    problem fingerprints collide reuse one solution per round).
    """

    SERIES = (
        (
            "problems_solved",
            "solver_work_problems_solved",
            "bracketing solves actually executed",
        ),
        (
            "memo_hits",
            "solver_work_memo_hits",
            "solves avoided by input-hash memoization",
        ),
        (
            "shared_hits",
            "solver_work_shared_hits",
            "solves avoided by the round-scoped shared-solution cache",
        ),
    )


@dataclass
class ClusterSplit:
    """A cluster whose population straddles two adjacent levels.

    ``count_low`` members sit at ``level_low`` (the cheaper-cost,
    higher-objective level — the "demoted" side) and the remaining
    ``count_high`` at ``level_high``.  The objective values at both
    levels are included so consumers can tell the demoted side apart
    without re-deriving the curves.
    """

    key: Hashable
    level_low: int
    count_low: int
    level_high: int
    count_high: int
    f_low: float = 0.0
    f_high: float = 0.0

    @property
    def demoted_level(self) -> int:
        """The level with the worse (larger) objective value."""
        return self.level_low if self.f_low >= self.f_high else self.level_high

    @property
    def kept_level(self) -> int:
        """The level with the better (smaller) objective value."""
        return self.level_high if self.f_low >= self.f_high else self.level_low

    @property
    def demoted_count(self) -> int:
        """Members assigned to the demoted level."""
        return (
            self.count_low
            if self.demoted_level == self.level_low
            else self.count_high
        )


@dataclass
class Solution:
    """A complete level assignment with its objective and cost."""

    levels: dict[Hashable, int]
    objective: float
    cost: float
    feasible: bool
    splits: dict[Hashable, ClusterSplit] = field(default_factory=dict)

    def level_of(self, key: Hashable) -> int:
        """The assigned level (majority level for split clusters)."""
        return self.levels[key]

    def copy(self) -> "Solution":
        """A consumer-safe copy (fresh dicts; split records shared).

        The memo and shared-solution caches store and hand out copies
        so no two consumers — or a consumer and the cache — ever alias
        the same mutable assignment dicts.
        """
        return Solution(
            levels=dict(self.levels),
            objective=self.objective,
            cost=self.cost,
            feasible=self.feasible,
            splits=dict(self.splits),
        )


@dataclass
class BracketingSolution:
    """The L*_d / L*_u pair bracketing the true optimum (paper §3.2)."""

    lower: Solution  # L*_d — satisfies the constraint strictly; returned
    upper: Solution  # L*_u — one move earlier; infeasible unless equal
    lambda_star: float  # multiplier at the bracket
    iterations: int  # bracketing iterations performed


def _copy_bracket(bracket: BracketingSolution) -> BracketingSolution:
    lower = bracket.lower.copy()
    upper = (
        lower if bracket.upper is bracket.lower else bracket.upper.copy()
    )
    return BracketingSolution(
        lower, upper, bracket.lambda_star, bracket.iterations
    )


class HoneycombSolver:
    """The production solver: memoized, flat-array bracketing.

    The solver keeps an input-hash memo of full bracketing solutions
    (see the module docstring) and otherwise runs the vectorized
    kernel.  The kernel is bit-identical to the object-graph reference
    in ``tests/oracles/solver.py``, which is what makes the memo sound:
    a cached solution *is* the solution the kernel would recompute.
    ``validate`` controls whether monotonicity of the inputs is checked
    (cheap, but skippable in inner simulation loops).
    """

    def __init__(
        self,
        validate: bool = True,
        work: SolverWork | None = None,
        memo_capacity: int = 512,
    ) -> None:
        self.validate = validate
        self.work = work if work is not None else SolverWork()
        self._memo: OrderedDict[object, BracketingSolution] = OrderedDict()
        self._memo_capacity = memo_capacity

    def solve(self, problem: TradeoffProblem) -> Solution:
        """Return the feasible bracket solution ``L*_d``."""
        return self.solve_bracketing(problem).lower

    def solve_bracketing(self, problem: TradeoffProblem) -> BracketingSolution:
        """Full bracketing solve returning both ``L*_d`` and ``L*_u``."""
        if self.validate:
            problem.validate()
        key = problem.fingerprint()
        hit = self._memo.get(key)
        if hit is not None:
            self._memo.move_to_end(key)
            self.work.memo_hits += 1
            return _copy_bracket(hit)
        result = self._solve_bracketing_flat(problem)
        self.work.problems_solved += 1
        # Store a private copy: callers may mutate what we return.
        self._memo[key] = _copy_bracket(result)
        while len(self._memo) > self._memo_capacity:
            self._memo.popitem(last=False)
        return result

    # ------------------------------------------------------------------
    # the flat kernel
    # ------------------------------------------------------------------
    def _solve_bracketing_flat(
        self, problem: TradeoffProblem
    ) -> BracketingSolution:
        """Vectorized bracketing, bit-identical to the object oracle.

        Float accumulations are seeded sequential
        ``np.add.accumulate`` chains (never pairwise ``np.sum``), so
        each partial total is associated exactly as the reference
        loops associate it; sorts are stable lexsorts on the same
        keys.  The scalar tail (final partial move, split record) runs
        on Python floats pulled out of the arrays.
        """
        channels = problem.channels
        if not channels:
            empty = Solution(levels={}, objective=0.0, cost=0.0, feasible=True)
            return BracketingSolution(empty, empty, lambda_star=0.0, iterations=0)

        n = len(channels)
        hull_level, hull_f, hull_g, hull_start = _flat_hulls(channels)
        starts = hull_start[:-1]
        last = hull_start[1:] - 1  # each channel's min-f (max-g) vertex
        weights = np.fromiter(
            (ch.weight for ch in channels), dtype=np.float64, count=n
        )

        positions = last - starts  # local hull positions, unconstrained
        total_f = _chain_sum(0.0, weights * hull_f[last])
        total_g = _chain_sum(0.0, weights * hull_g[last])

        if total_g <= problem.target:
            solution = self._materialize_flat(
                channels, hull_level, starts, positions, total_f, total_g,
                feasible=True,
            )
            return BracketingSolution(solution, solution, 0.0, iterations=0)

        # Moves: every hull edge, over the concatenated arrays.  Edge
        # (j, j+1) within a channel moves dst=j (lower g) from src=j+1.
        chan_of = np.repeat(np.arange(n), np.diff(hull_start))
        edge = np.arange(len(hull_f) - 1) if len(hull_f) > 1 else np.empty(0, np.int64)
        if len(edge):
            edge = edge[chan_of[edge] == chan_of[edge + 1]]
        df = hull_f[edge] - hull_f[edge + 1]
        dg = hull_g[edge + 1] - hull_g[edge]
        keep = dg > 0.0  # degenerate edges: no cost reduction
        edge, df, dg = edge[keep], df[keep], dg[keep]
        rate = df / dg
        chan = chan_of[edge]
        vtx = edge - starts[chan]  # destination vertex, channel-local

        # Global move order: (rate, channel_index) — strict convexity
        # makes the order unique, so the stable lexsort reproduces the
        # reference sort exactly.
        order = np.lexsort((chan, rate))
        df, dg, rate = df[order], dg[order], rate[order]
        chan, vtx = chan[order], vtx[order]
        n_moves = len(rate)
        move_w = weights[chan]

        dgw = dg * move_w
        dfw = df * move_w
        reductions = np.add.accumulate(np.concatenate(([0.0], dgw)))
        acc_f = np.add.accumulate(np.concatenate(([total_f], dfw)))
        acc_g = np.add.accumulate(np.concatenate(([total_g], -dgw)))
        needed = total_g - problem.target
        cut = int(np.searchsorted(reductions, needed, side="left"))
        iterations = max(1, (n_moves + 1).bit_length())

        if cut > n_moves:
            # Constraint unsatisfiable even at the cheapest-cost corner.
            all_pos = positions.copy()
            if n_moves:
                np.minimum.at(all_pos, chan, vtx)
            solution = self._materialize_flat(
                channels, hull_level, starts, all_pos,
                float(acc_f[-1]), float(acc_g[-1]), feasible=False,
            )
            lam = float(rate[-1]) if n_moves else 0.0
            return BracketingSolution(solution, solution, lam, iterations)

        # L*_u: apply cut-1 full moves (still infeasible).  A channel's
        # moves appear in decreasing-vertex order (convexity), so the
        # last applied move per channel is its minimum vertex.
        upper_pos = positions.copy()
        if cut > 1:
            np.minimum.at(upper_pos, chan[: cut - 1], vtx[: cut - 1])
        upper_f = float(acc_f[cut - 1])
        upper_g = float(acc_g[cut - 1])
        upper = self._materialize_flat(
            channels, hull_level, starts, upper_pos, upper_f, upper_g,
            feasible=upper_g <= problem.target,
        )

        # L*_d: additionally apply the cut-th move — possibly to only
        # part of a cluster, the "one channel" accuracy granularity.
        move_index = cut - 1
        mv_chan = int(chan[move_index])
        mv_vtx = int(vtx[move_index])
        mv_df = float(df[move_index])
        mv_dg = float(dg[move_index])
        channel = channels[mv_chan]
        excess = upper_g - problem.target
        count_moved = min(
            channel.weight, max(1, -(-excess // mv_dg) if mv_dg else 1)
        )
        count_moved = int(count_moved)
        lower_pos = upper_pos.copy()
        lower_pos[mv_chan] = mv_vtx
        lower_f = upper_f + mv_df * count_moved
        lower_g = upper_g - mv_dg * count_moved
        lower = self._materialize_flat(
            channels, hull_level, starts, lower_pos, lower_f, lower_g,
            feasible=lower_g <= problem.target,
        )
        if 0 < count_moved < channel.weight:
            low_idx = int(starts[mv_chan]) + mv_vtx
            low_level = int(hull_level[low_idx])
            high_level = int(hull_level[low_idx + 1])
            lower.splits[channel.key] = ClusterSplit(
                key=channel.key,
                level_low=low_level,
                count_low=count_moved,
                level_high=high_level,
                count_high=channel.weight - count_moved,
                f_low=float(hull_f[low_idx]),
                f_high=float(hull_f[low_idx + 1]),
            )
            # Majority level for the scalar assignment.
            majority = (
                low_level
                if count_moved * 2 >= channel.weight
                else high_level
            )
            lower.levels[channel.key] = majority
        return BracketingSolution(
            lower, upper, float(rate[move_index]), iterations
        )

    @staticmethod
    def _materialize_flat(
        channels: list[ChannelTradeoff],
        hull_level: np.ndarray,
        starts: np.ndarray,
        positions: np.ndarray,
        total_f: float,
        total_g: float,
        feasible: bool,
    ) -> Solution:
        assigned = hull_level[starts + positions]
        levels = {
            channel.key: int(assigned[index])
            for index, channel in enumerate(channels)
        }
        return Solution(
            levels=levels,
            objective=float(total_f),
            cost=float(total_g),
            feasible=feasible,
        )


def _chain_sum(seed: float, values: np.ndarray) -> float:
    """Strictly sequential ``seed + v0 + v1 + ...`` (reference order)."""
    if not len(values):
        return float(seed)
    return float(np.add.accumulate(np.concatenate(([seed], values)))[-1])


def _flat_hulls(
    channels: list[ChannelTradeoff],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All channels' lower hulls as concatenated flat arrays.

    Returns ``(level, f, g, hull_start)`` where channel ``i``'s hull
    occupies ``[hull_start[i], hull_start[i+1])``, vertices by
    ascending g — the same contents as the object oracle's
    per-channel lower hulls, without per-vertex objects.  Points are
    lexsorted globally; the fused Pareto filter + monotone-chain scan
    walks each channel's slice with the reference's exact comparisons
    (the pop condition is the same cross product on the same float64
    values).
    """
    n = len(channels)
    counts = np.fromiter(
        (len(ch.levels) for ch in channels), dtype=np.int64, count=n
    )
    total = int(counts.sum())
    level = np.fromiter(
        chain.from_iterable(ch.levels for ch in channels),
        dtype=np.int64,
        count=total,
    )
    f = np.fromiter(
        chain.from_iterable(ch.f for ch in channels),
        dtype=np.float64,
        count=total,
    )
    g = np.fromiter(
        chain.from_iterable(ch.g for ch in channels),
        dtype=np.float64,
        count=total,
    )
    chan = np.repeat(np.arange(n), counts)
    order = np.lexsort((f, g, chan))  # per channel: ascending (g, f)
    level, f, g = level[order], f[order], g[order]
    point_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=point_start[1:])

    f_list = f.tolist()
    g_list = g.tolist()
    kept: list[int] = []
    hull_start = np.zeros(n + 1, dtype=np.int64)
    infinity = float("inf")
    for index in range(n):
        begin = int(point_start[index])
        end = int(point_start[index + 1])
        base = len(kept)
        best_f = infinity
        for point in range(begin, end):
            point_f = f_list[point]
            if point_f >= best_f:
                continue  # Pareto-dominated: never optimal for any λ
            best_f = point_f
            point_g = g_list[point]
            # Keep the chain convex: slope(a→b) must be ≤ slope(b→point).
            while len(kept) - base >= 2:
                a, b = kept[-2], kept[-1]
                cross = (g_list[b] - g_list[a]) * (point_f - f_list[a]) - (
                    point_g - g_list[a]
                ) * (f_list[b] - f_list[a])
                if cross <= 0:
                    kept.pop()
                else:
                    break
            kept.append(point)
        hull_start[index + 1] = len(kept)
    keep_index = np.asarray(kept, dtype=np.int64)
    return level[keep_index], f[keep_index], g[keep_index], hull_start

