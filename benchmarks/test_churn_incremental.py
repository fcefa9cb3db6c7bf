"""Churn at scale: incremental maintenance vs the per-event rebuild.

Replays the heavy-churn scenario's membership timeline (15 one-minute
crash+join ticks followed by a 6-manager simultaneous failure) on a
512-node cloud, once with incremental churn maintenance and once with
the pre-incremental rebuild oracle (``tests/oracles/system.py``: full
aggregator reconstruction + anchor rescan per event, sampled overlay
repair).  The ratio is the PR's headline claim — the rebuild path is
quadratic-per-wave in population/channels, the incremental path
touches only the affected prefix regions — and is recorded in
``BENCH_churn_scale_512.json`` / ``BENCH_timings_*.json`` so CI can
track it across PRs.
"""

import random
import time

from benchmarks.conftest import write_artifact

from repro.core.config import CoronaConfig
from repro.core.system import CoronaSystem
from repro.simulation.webserver import WebServerFarm
from tests.oracles.system import RebuildChurnSystem

N_NODES = 512
N_CHANNELS = 24
SUBSCRIBERS_PER_CHANNEL = 20
#: The heavy-churn acceptance floor; measured locally at ~35-40x.
MIN_SPEEDUP = 10.0


def build_system(incremental: bool) -> tuple[CoronaSystem, WebServerFarm]:
    config = CoronaConfig(
        polling_interval=300.0,
        maintenance_interval=600.0,
        base=4,
        scheme="lite",
    )
    farm = WebServerFarm(seed=1)
    system_class = CoronaSystem if incremental else RebuildChurnSystem
    system = system_class(
        n_nodes=N_NODES, config=config, fetcher=farm, seed=0
    )
    client = 0
    for rank in range(N_CHANNELS):
        url = f"http://churn{rank}.example/rss"
        farm.host(url, update_interval=120.0, target_bytes=600)
        for _ in range(SUBSCRIBERS_PER_CHANNEL):
            system.subscribe(url, f"client-{client}", now=0.0)
            client += 1
    return system, farm


def replay_heavy_churn_timeline(system: CoronaSystem) -> None:
    """The heavy-churn membership events, identical across modes."""
    rng = random.Random(42)
    now = 900.0
    for _tick in range(15):
        now += 60.0
        system.crash_nodes(1, now=now, rng=rng)
        system.join_nodes(1, now=now)
    system.crash_nodes(6, now=now, rng=rng, target="managers")


def timed_replay(incremental: bool, repeats: int = 3) -> float:
    """Best-of-N wall clock of the churn path in one mode."""
    best = float("inf")
    for _ in range(repeats):
        system, _farm = build_system(incremental)
        start = time.perf_counter()
        replay_heavy_churn_timeline(system)
        best = min(best, time.perf_counter() - start)
    return best


def test_heavy_churn_512_speedup(benchmark):
    """Incremental churn must beat the rebuild path >= 10x at 512 nodes."""
    rebuild_seconds = timed_replay(incremental=False, repeats=2)
    # The incremental run is the timed benchmark, so the fleet-tracked
    # BENCH_timings artifact records the post-PR churn-path cost.
    state: dict[str, CoronaSystem] = {}

    def setup():
        system, _farm = build_system(incremental=True)
        state["system"] = system
        return (), {}

    benchmark.pedantic(
        lambda: replay_heavy_churn_timeline(state["system"]),
        setup=setup,
        rounds=3,
        iterations=1,
    )
    incremental_seconds = benchmark.stats.stats.min
    speedup = rebuild_seconds / incremental_seconds
    lines = [
        "Churn-path wall clock, heavy-churn timeline at "
        f"{N_NODES} nodes / {N_CHANNELS} channels",
        f"  rebuild path     : {rebuild_seconds * 1000:8.1f} ms",
        f"  incremental path : {incremental_seconds * 1000:8.1f} ms",
        f"  speedup          : {speedup:8.1f} x  (floor {MIN_SPEEDUP:.0f}x)",
    ]
    write_artifact(
        "churn_scale_512.txt",
        "\n".join(lines),
        data={
            "n_nodes": N_NODES,
            "n_channels": N_CHANNELS,
            "rebuild_seconds": rebuild_seconds,
            "incremental_seconds": incremental_seconds,
            "speedup": speedup,
            "min_speedup": MIN_SPEEDUP,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"incremental churn only {speedup:.1f}x faster than the rebuild "
        f"path (floor {MIN_SPEEDUP}x): "
        f"{rebuild_seconds:.3f}s vs {incremental_seconds:.3f}s"
    )


def test_churn_equivalence_at_scale(benchmark):
    """End state sanity at 512 nodes: state intact, aggregator in sync.

    (The bit-for-bit incremental == rebuild aggregation equivalence is
    asserted by tests/honeycomb/test_churn_equivalence.py; this bench
    keeps the scale path honest while timing a maintenance round after
    heavy churn.)
    """
    system, _farm = build_system(incremental=True)
    replay_heavy_churn_timeline(system)
    benchmark.pedantic(
        lambda: system.run_maintenance_round(2000.0), rounds=2, iterations=1
    )
    registered = sum(
        system.nodes[manager].registry.count(url)
        for url, manager in system.managers.items()
    )
    assert registered == N_CHANNELS * SUBSCRIBERS_PER_CHANNEL
    assert set(system.aggregator.states) == set(system.nodes)
    assert system.aggregator.rows == system.overlay.aggregation_rows()
