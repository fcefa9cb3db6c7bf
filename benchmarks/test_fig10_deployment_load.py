"""Figure 10 — Deployment: total polling load on servers vs time.

Paper: "The total load generated by Corona is well below the load
generated by clients using legacy RSS" — Corona ramps up from the
owner-only start and plateaus at or below the legacy rate (~1000
polls/min at paper scale).
"""

import numpy as np

from benchmarks.conftest import write_artifact
from repro.analysis.stats import steady_state_mean
from repro.analysis.tables import format_series


def test_fig10_deployment_load(deployment_run, scale):
    result = deployment_run

    artifact = format_series(
        result.bucket_times,
        {
            "Corona": result.corona_polls_per_min,
            "Legacy RSS": np.full(
                len(result.bucket_times), result.legacy_polls_per_min
            ),
        },
        unit="polls/min",
    )
    write_artifact(f"fig10_deployment_load_{scale.name}.txt", artifact)

    # Shape 1: the ramp — load grows from near zero as subscriptions
    # arrive and wedges widen.
    assert result.corona_polls_per_min[0] < result.corona_polls_per_min[
        len(result.corona_polls_per_min) // 2
    ]

    # Shape 2: steady state at or below the legacy rate (tolerance for
    # small-N level granularity at CI scale).
    steady = steady_state_mean(result.corona_polls_per_min[:-1], 0.4)
    cap = 1.2 if scale.name == "paper" else 1.8
    assert steady <= result.legacy_polls_per_min * cap

    # Shape 3: the poll budget is actually being used — cooperation,
    # not inactivity, explains the low latency of Figure 9.
    assert steady > result.legacy_polls_per_min * 0.1
