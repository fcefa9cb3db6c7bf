"""Ablation — Honeycomb's solution strategy (DESIGN.md §5.1).

The paper stresses that pre-computing the discrete λ iteration space
and bracketing over it gives O(M log M log N) total work with O(log M)
iterations.  This bench times the bracketing solver against the naive
move-at-a-time scan on a paper-sized instance (M = 20 000 channels),
and checks they agree.
"""

import random

import pytest

from repro.honeycomb.problem import ChannelTradeoff, TradeoffProblem
from tests.oracles.solver import EagerHoneycombSolver, ObjectHoneycombSolver


def paper_sized_problem(m=20_000, k=3, seed=3) -> TradeoffProblem:
    rng = random.Random(seed)
    channels = []
    for index in range(m):
        q = rng.paretovariate(0.5)
        s = rng.uniform(1.0, 16.0)
        levels = tuple(range(k + 1))
        channels.append(
            ChannelTradeoff(
                key=index,
                levels=levels,
                f=tuple(q * 16**level for level in levels),
                g=tuple(s * 1024.0 / 16**level for level in levels),
            )
        )
    budget = sum(channel.g[1] for channel in channels) * 0.8
    return TradeoffProblem(channels=channels, target=budget)


@pytest.fixture(scope="module")
def problem() -> TradeoffProblem:
    return paper_sized_problem()


def test_solver_bracketing(benchmark, problem):
    # No memo: the ablation times the bracketing kernel itself, not
    # an LRU replay of the first iteration's solution.
    solver = EagerHoneycombSolver(validate=False)
    solution = benchmark(lambda: solver.solve(problem))
    assert solution.feasible


def test_solver_scan_baseline(benchmark, problem):
    solver = ObjectHoneycombSolver(validate=False)
    solution = benchmark(lambda: solver.solve_scan(problem))
    assert solution.feasible


def test_strategies_agree(benchmark, problem):
    solver = EagerHoneycombSolver(validate=False)
    scan = ObjectHoneycombSolver(validate=False)

    def both():
        return solver.solve(problem), scan.solve_scan(problem)

    fast, slow = benchmark.pedantic(both, rounds=1, iterations=1)
    assert abs(fast.objective - slow.objective) <= 1e-6 * slow.objective
    assert abs(fast.cost - slow.cost) <= 1e-6 * slow.cost
