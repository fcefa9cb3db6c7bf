"""The object-graph Honeycomb solver, kept as a test oracle.

This is the solver the optimization phase shipped before the flat
kernel in :mod:`repro.honeycomb.solver`: one :class:`_HullVertex` per
hull point, one :class:`_Move` per exchange step, and plain Python
loops for the global sort, the prefix sums and the bracket search.
The vectorized kernel must equal it bit for bit
(``tests/honeycomb/test_solve_memo_equivalence.py``), and the
micro-kernel and ablation benchmarks time the two against each other.
:meth:`ObjectHoneycombSolver.solve_scan` is the move-at-a-time
baseline the ablation contrasts with bracketing.

:class:`EagerHoneycombSolver` is the product solver with its
input-hash memo taken out: every call runs the flat kernel.  The eager
optimization oracle (:mod:`tests.oracles.node`) and the kernel
benchmarks use it.

The result types are imported from the product module, so both sides
of every comparison build the same dataclasses.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from repro.honeycomb.problem import ChannelTradeoff, TradeoffProblem
from repro.honeycomb.solver import (
    BracketingSolution,
    ClusterSplit,
    HoneycombSolver,
    Solution,
    SolverWork,
)


@dataclass(frozen=True)
class _HullVertex:
    """One selectable point on a channel's tradeoff hull."""

    level: int
    f: float
    g: float


@dataclass(frozen=True)
class _Move:
    """An exchange step from hull vertex ``src`` to vertex ``dst``.

    Applying the move trades an objective increase ``df`` for a cost
    reduction ``dg`` at marginal rate ``rate = df/dg``.
    """

    rate: float
    channel_index: int
    vertex_index: int  # destination vertex (one step toward lower g)
    df: float
    dg: float
    weight: int


class ObjectHoneycombSolver:
    """The reference object-graph implementation of the solver.

    Semantically (and bit-for-bit) identical to
    :class:`HoneycombSolver`'s vectorized kernel; retained as the
    reference the micro-kernel benchmarks compare the flat arrays
    against and the equivalence suite asserts identity with.  The
    solver is stateless; construct once and reuse.  ``validate``
    controls whether monotonicity of the inputs is checked (cheap, but
    skippable in inner simulation loops).
    """

    def __init__(
        self, validate: bool = True, work: SolverWork | None = None
    ) -> None:
        self.validate = validate
        self.work = work if work is not None else SolverWork()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def solve(self, problem: TradeoffProblem) -> Solution:
        """Return the feasible bracket solution ``L*_d``."""
        return self.solve_bracketing(problem).lower

    def solve_bracketing(self, problem: TradeoffProblem) -> BracketingSolution:
        """Full bracketing solve returning both ``L*_d`` and ``L*_u``."""
        if self.validate:
            problem.validate()
        self.work.problems_solved += 1
        return self._solve_bracketing_objects(problem)

    def _solve_bracketing_objects(
        self, problem: TradeoffProblem
    ) -> BracketingSolution:
        if not problem.channels:
            empty = Solution(levels={}, objective=0.0, cost=0.0, feasible=True)
            return BracketingSolution(empty, empty, lambda_star=0.0, iterations=0)

        hulls = [_lower_hull(channel) for channel in problem.channels]

        # Start every channel at its unconstrained optimum: the hull
        # vertex with minimum f (largest-g end of the hull).
        positions = [len(hull) - 1 for hull in hulls]
        total_f = 0.0
        total_g = 0.0
        for channel, hull, pos in zip(problem.channels, hulls, positions):
            total_f += channel.weight * hull[pos].f
            total_g += channel.weight * hull[pos].g

        if total_g <= problem.target:
            solution = self._materialize(
                problem, hulls, positions, total_f, total_g, feasible=True
            )
            return BracketingSolution(solution, solution, 0.0, iterations=0)

        moves = self._collect_moves(problem, hulls)
        moves.sort(key=lambda move: (move.rate, move.channel_index))

        # Bracketing: binary-search the shortest prefix of moves whose
        # cumulative weighted cost reduction makes the assignment
        # feasible.  Prefix sums make each probe O(1); the search is
        # O(log(M log N)) probes — the paper's O(log M) iterations.
        reductions = [0.0]
        for move in moves:
            reductions.append(reductions[-1] + move.dg * move.weight)
        needed = total_g - problem.target
        cut = bisect_left(reductions, needed)
        iterations = max(1, len(reductions).bit_length())

        if cut > len(moves):
            # Constraint unsatisfiable even at the cheapest-cost corner.
            positions, total_f, total_g = self._apply_moves(
                problem, hulls, moves, len(moves), total_f, total_g
            )[0:3]
            solution = self._materialize(
                problem, hulls, positions, total_f, total_g, feasible=False
            )
            return BracketingSolution(
                solution, solution, moves[-1].rate if moves else 0.0, iterations
            )

        # L*_u: apply cut-1 full moves (still infeasible).
        upper_positions, upper_f, upper_g = self._apply_moves(
            problem, hulls, moves, cut - 1, total_f, total_g
        )
        upper = self._materialize(
            problem, hulls, upper_positions, upper_f, upper_g,
            feasible=upper_g <= problem.target,
        )

        # L*_d: additionally apply the cut-th move — possibly to only
        # part of a cluster, the "one channel" accuracy granularity.
        lower = self._apply_final_move(
            problem, hulls, moves, cut, upper_positions, upper_f, upper_g
        )
        lambda_star = moves[cut - 1].rate if cut >= 1 else 0.0
        return BracketingSolution(lower, upper, lambda_star, iterations)

    def solve_scan(self, problem: TradeoffProblem) -> Solution:
        """Naive baseline: apply exchange moves one at a time.

        Semantically identical to :meth:`solve` but re-evaluates the
        constraint after every single move instead of binary-searching
        pre-computed prefix sums.  Kept for the ablation benchmark
        contrasting the paper's bracketing strategy with a linear scan.
        """
        if self.validate:
            problem.validate()
        if not problem.channels:
            return Solution(levels={}, objective=0.0, cost=0.0, feasible=True)
        hulls = [_lower_hull(channel) for channel in problem.channels]
        positions = [len(hull) - 1 for hull in hulls]
        total_f = sum(
            ch.weight * hull[pos].f
            for ch, hull, pos in zip(problem.channels, hulls, positions)
        )
        total_g = sum(
            ch.weight * hull[pos].g
            for ch, hull, pos in zip(problem.channels, hulls, positions)
        )
        moves = self._collect_moves(problem, hulls)
        moves.sort(key=lambda move: (move.rate, move.channel_index))
        applied = 0
        while total_g > problem.target and applied < len(moves):
            move = moves[applied]
            positions[move.channel_index] = move.vertex_index
            total_f += move.df * move.weight
            total_g -= move.dg * move.weight
            applied += 1
        return self._materialize(
            problem, hulls, positions, total_f, total_g,
            feasible=total_g <= problem.target,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _collect_moves(
        problem: TradeoffProblem, hulls: list[list[_HullVertex]]
    ) -> list[_Move]:
        moves: list[_Move] = []
        for index, (channel, hull) in enumerate(zip(problem.channels, hulls)):
            # Walk from the min-f end toward lower cost; each edge is a move.
            for vertex_index in range(len(hull) - 2, -1, -1):
                src = hull[vertex_index + 1]
                dst = hull[vertex_index]
                df = dst.f - src.f
                dg = src.g - dst.g
                if dg <= 0.0:
                    continue  # degenerate edge: no cost reduction
                moves.append(
                    _Move(
                        rate=df / dg,
                        channel_index=index,
                        vertex_index=vertex_index,
                        df=df,
                        dg=dg,
                        weight=channel.weight,
                    )
                )
        return moves

    @staticmethod
    def _apply_moves(
        problem: TradeoffProblem,
        hulls: list[list[_HullVertex]],
        moves: list[_Move],
        count: int,
        total_f: float,
        total_g: float,
    ) -> tuple[list[int], float, float]:
        positions = [len(hull) - 1 for hull in hulls]
        for move in moves[:count]:
            positions[move.channel_index] = move.vertex_index
            total_f += move.df * move.weight
            total_g -= move.dg * move.weight
        return positions, total_f, total_g

    def _apply_final_move(
        self,
        problem: TradeoffProblem,
        hulls: list[list[_HullVertex]],
        moves: list[_Move],
        cut: int,
        upper_positions: list[int],
        upper_f: float,
        upper_g: float,
    ) -> Solution:
        move = moves[cut - 1]
        channel = problem.channels[move.channel_index]
        excess = upper_g - problem.target
        # How many of the cluster's members must take the move for
        # feasibility?  Weight-1 channels always move entirely.
        count_moved = min(
            channel.weight, max(1, -(-excess // move.dg) if move.dg else 1)
        )
        count_moved = int(count_moved)
        positions = list(upper_positions)
        positions[move.channel_index] = move.vertex_index
        total_f = upper_f + move.df * count_moved
        total_g = upper_g - move.dg * count_moved
        solution = self._materialize(
            problem,
            hulls,
            positions,
            total_f,
            total_g,
            feasible=total_g <= problem.target,
        )
        if 0 < count_moved < channel.weight:
            hull = hulls[move.channel_index]
            low = hull[move.vertex_index]
            high = hull[move.vertex_index + 1]
            solution.splits[channel.key] = ClusterSplit(
                key=channel.key,
                level_low=low.level,
                count_low=count_moved,
                level_high=high.level,
                count_high=channel.weight - count_moved,
                f_low=low.f,
                f_high=high.f,
            )
            # Majority level for the scalar assignment.
            majority = (
                low.level
                if count_moved * 2 >= channel.weight
                else high.level
            )
            solution.levels[channel.key] = majority
        return solution

    @staticmethod
    def _materialize(
        problem: TradeoffProblem,
        hulls: list[list[_HullVertex]],
        positions: list[int],
        total_f: float,
        total_g: float,
        feasible: bool,
    ) -> Solution:
        levels = {
            channel.key: hull[pos].level
            for channel, hull, pos in zip(problem.channels, hulls, positions)
        }
        return Solution(
            levels=levels,
            objective=total_f,
            cost=total_g,
            feasible=feasible,
        )


def _pareto_frontier(channel: ChannelTradeoff) -> list[_HullVertex]:
    """Non-dominated (g, f) points, ordered by ascending cost g."""
    points = sorted(
        (
            _HullVertex(level=level, f=f, g=g)
            for level, f, g in zip(channel.levels, channel.f, channel.g)
        ),
        key=lambda vertex: (vertex.g, vertex.f),
    )
    frontier: list[_HullVertex] = []
    best_f = float("inf")
    for vertex in points:
        if vertex.f < best_f:
            frontier.append(vertex)
            best_f = vertex.f
    return frontier


def _lower_hull(channel: ChannelTradeoff) -> list[_HullVertex]:
    """Lower convex hull of the Pareto frontier in the (g, f) plane.

    Only hull vertices can be selected by any Lagrangian multiplier;
    interior frontier points are never optimal for any λ.  Vertices are
    returned by ascending g (descending f), so index ``len-1`` is the
    unconstrained (min-f) optimum.
    """
    frontier = _pareto_frontier(channel)
    if len(frontier) <= 2:
        return frontier
    hull: list[_HullVertex] = []
    for vertex in frontier:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # Keep the chain convex: slope(a→b) must be ≤ slope(b→vertex).
            cross = (b.g - a.g) * (vertex.f - a.f) - (vertex.g - a.g) * (
                b.f - a.f
            )
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(vertex)
    return hull


class EagerHoneycombSolver(HoneycombSolver):
    """The flat kernel without the memo: every call solves."""

    def solve_bracketing(self, problem: TradeoffProblem) -> BracketingSolution:
        if self.validate:
            problem.validate()
        self.work.problems_solved += 1
        return self._solve_bracketing_flat(problem)
