"""The eager optimization phase, kept as a test oracle.

The product :class:`~repro.core.node.CoronaNode` skips a whole
optimization phase when its inputs did not move, shares one solution
per round among managers whose instances collide, and memoizes
solutions inside its solver.  :class:`EagerCoronaNode` turns all three
off: every :meth:`run_optimization` call rebuilds its instance and
runs the flat kernel.  Outputs must stay bit-identical; only the
``solver_work`` counters differ.

Drivers build their nodes internally, so tests swap this class in by
monkeypatching the module-level ``CoronaNode`` name of
:mod:`repro.core.system` or :mod:`repro.simulation.macro`.
"""

from __future__ import annotations

from repro.core.node import CoronaNode
from repro.honeycomb.clusters import ClusterSummary
from tests.oracles.solver import EagerHoneycombSolver


class EagerCoronaNode(CoronaNode):
    """Re-solves every instance, every round, without any cache."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.solver = EagerHoneycombSolver(
            validate=False, work=self.solver.work
        )

    def run_optimization(
        self,
        remote: ClusterSummary,
        n_nodes: int,
        solve_cache: dict | None = None,
    ) -> dict[str, int]:
        # A forgotten fingerprint never matches, so the phase always
        # runs; no cache means every manager solves its own instance.
        self._opt_fingerprint = None
        return super().run_optimization(remote, n_nodes, solve_cache=None)
