"""Figure 5 — Number of polling nodes per channel vs popularity rank.

Paper (log-log): legacy RSS is the straight Zipf line (pollers =
subscribers); Corona-Lite shows discrete level plateaus — "channels
clustered around [N/b] at level 1, channels with less than 10 clients
at level 2, and orphan channels close to the X-axis" — with a sharp
level change deep in the ranking.
"""

import numpy as np

from benchmarks.conftest import write_artifact
from repro.analysis.tables import format_scatter_summary


def test_fig05_pollers_per_channel(runner, scale):
    lite = runner.run("lite")
    legacy = runner.run("legacy")

    ranks = np.arange(1, scale.n_channels + 1)
    artifact = format_scatter_summary(
        ranks,
        {
            "Legacy RSS": legacy.final_pollers.astype(float),
            "Corona Lite": lite.final_pollers.astype(float),
        },
        n_bands=10,
        value_name="pollers",
    )
    write_artifact(f"fig05_pollers_{scale.name}.txt", artifact)

    # Shape 1: legacy pollers equal subscriber counts (the Zipf line).
    assert (legacy.final_pollers == runner.trace.subscribers).all()

    # Shape 2: Corona polls the most popular channels with far fewer
    # nodes than they have subscribers (the load-shedding headline).
    head = slice(0, max(1, scale.n_channels // 100))
    assert (
        lite.final_pollers[head].mean()
        < legacy.final_pollers[head].mean() / 2
    )

    # Shape 3: discrete plateaus — few distinct poller counts relative
    # to the number of channels (levels, not a continuum).
    distinct_levels = len(np.unique(lite.final_levels))
    assert distinct_levels <= 5

    # Shape 4: cooperation reaches the unpopular tail — surplus load
    # recruits multiple pollers even for channels with few clients
    # ("distributes the surplus load to other, less popular channels",
    # §3.1); orphans are the only single-poller channels.
    tail = slice(scale.n_channels // 2, scale.n_channels)
    cooperative = (lite.final_pollers[tail] > 1).mean()
    assert cooperative > 0.5

    # Shape 5: orphans sit on the x-axis with exactly one poller.
    if lite.orphan_count:
        orphan_level = lite.final_levels.max()
        orphans = lite.final_levels == orphan_level
        assert lite.final_pollers[orphans].max() <= max(
            1, int(scale.n_nodes / 16 ** (orphan_level))
        )
