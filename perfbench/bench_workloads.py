"""The benchmark's three scenario workloads.

Each is a :class:`~repro.scenarios.spec.ScenarioSpec` built from the
public spec and event types; none is added to the scenario registry.
Why each exists, and which layer it loads, is in ``DESIGN.md``.
"""

from __future__ import annotations

import dataclasses

from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import (
    ChurnWave,
    MessageLoss,
    ScenarioSpec,
    WorkloadSpec,
)

HORIZON = 3600.0


def steady_state() -> ScenarioSpec:
    """The registered built-in, unchanged: the poll path almost alone."""
    return get_scenario("steady-state")


def churn_2048() -> ScenarioSpec:
    """Membership writes next to steady routing reads on 2048 nodes."""
    return ScenarioSpec(
        name="churn-2048",
        description="8 manager crashes and 8 joins every minute",
        n_nodes=2048,
        horizon=HORIZON,
        poll_tick=300.0,
        config={"maintenance_interval": 300.0},
        workload=WorkloadSpec(
            n_channels=64,
            n_subscriptions=640,
            update_interval_scale=0.05,
            content_size_scale=0.02,
        ),
        events=(
            ChurnWave(
                at=300.0,
                duration=3000.0,
                interval=60.0,
                crashes_per_tick=8,
                joins_per_tick=8,
                target="managers",
            ),
        ),
    )


def lossy_updates() -> ScenarioSpec:
    """Fast-changing feeds over a lossy, duplicating overlay."""
    return ScenarioSpec(
        name="lossy-updates",
        description="5% loss and 1% duplicates over the whole hour",
        n_nodes=32,
        horizon=HORIZON,
        workload=WorkloadSpec(
            n_channels=40,
            n_subscriptions=800,
            update_interval_scale=0.002,
        ),
        events=(
            MessageLoss(
                at=0.0, duration=HORIZON, rate=0.05, duplicate_rate=0.01
            ),
        ),
    )


WORKLOADS = {
    "steady-state": steady_state,
    "churn-2048": churn_2048,
    "lossy-updates": lossy_updates,
}


def build(name: str, horizon: float | None = None) -> ScenarioSpec:
    """The named workload's spec, optionally cut to a shorter horizon."""
    spec = WORKLOADS[name]()
    if horizon is not None:
        spec = dataclasses.replace(spec, horizon=horizon)
    spec.validate()
    return spec
