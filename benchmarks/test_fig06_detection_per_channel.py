"""Figure 6 — Update detection time per channel vs popularity rank.

Paper: "Popular channels gain greater decrease in update detection
time than less popular channels" — the Corona line starts far below
legacy at the head of the ranking and approaches it toward the tail.
"""

import numpy as np

from benchmarks.conftest import write_artifact
from repro.analysis.tables import format_scatter_summary


def test_fig06_detection_per_channel(runner, scale):
    lite = runner.run("lite")

    tau = 1800.0
    lite_latency = tau / 2.0 / np.maximum(1, lite.final_pollers)
    legacy_latency = np.full(scale.n_channels, tau / 2.0)
    ranks = np.arange(1, scale.n_channels + 1)
    artifact = format_scatter_summary(
        ranks,
        {
            "Legacy RSS": legacy_latency,
            "Corona Lite": lite_latency,
        },
        n_bands=10,
        value_name="s",
    )
    write_artifact(f"fig06_detection_per_channel_{scale.name}.txt", artifact)

    head = slice(0, max(1, scale.n_channels // 100))
    tail = slice(scale.n_channels - scale.n_channels // 10, scale.n_channels)

    # Shape 1: every non-orphan channel beats legacy's tau/2.
    non_orphan = lite.final_levels < lite.final_levels.max()
    if non_orphan.any():
        assert (lite_latency[non_orphan] < tau / 2.0).all()

    # Shape 2: the popular head gains about an order of magnitude more
    # than the tail (paper: "an order of magnitude better improvement").
    head_improvement = (tau / 2.0) / lite_latency[head].mean()
    tail_improvement = (tau / 2.0) / lite_latency[tail].mean()
    assert head_improvement > tail_improvement * 3

    # Shape 3: the measured (sampled) per-channel delays track the
    # analytic curve where updates were observed.  The paper's τ/(2n)
    # estimate understates the exact min-of-n-uniform-residuals mean
    # τ/(n+1) by a factor approaching 2 at large n, so the geometric
    # mean of measured/analytic sits between 1 and ~2.
    measured = lite.per_channel_delay
    seen = ~np.isnan(measured)
    if seen.sum() > 50:
        ratio = measured[seen] / lite_latency[seen]
        geo = float(np.exp(np.log(np.maximum(ratio, 1e-9)).mean()))
        assert 0.6 < geo < 2.6
