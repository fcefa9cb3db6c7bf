"""Shared infrastructure for the figure/table benchmarks.

Every file in this directory regenerates one table or figure from the
paper's evaluation (§5).  Scale is controlled by the
``CORONA_BENCH_SCALE`` environment variable:

* ``ci`` (default) — a reduced workload (128 nodes, 2 000 channels,
  100 000 subscriptions) that preserves every qualitative shape and
  finishes in seconds per scheme;
* ``paper`` — the paper's full §5.1 setup (1024 nodes, 20 000
  channels, 1 000 000 subscriptions, 6 h) and §5.2 deployment (80
  nodes, 3 000 channels, 30 000 subscriptions).

Simulation results are cached per scheme for the whole benchmark
session so comparison lines (legacy, Lite as baseline for Fair, …)
do not recompute.  A benchmark that owns a scheme times that scheme's
full run once via ``benchmark.pedantic``; the figures that only read
cached runs (Figures 5, 6, 9 and 10, Table 2) check shapes without
the ``benchmark`` fixture, so they record no timing.

Rendered series/tables are also written to ``benchmarks/results/`` so
a run leaves the paper-comparable artifacts on disk.  Alongside the
human-readable ``*_ci.txt`` artifacts, machine-readable
``BENCH_*.json`` files record key metrics (via the ``data`` argument
of :func:`write_artifact`) and the session's benchmark timings (via
``pytest_sessionfinish``) so the performance trajectory can be
tracked across PRs by tooling.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import pytest

from repro.core.config import CoronaConfig
from repro.simulation.deployment import DeploymentSimulator
from repro.simulation.macro import MacroResult, MacroSimulator, run_legacy
from repro.workload.trace import generate_trace

RESULTS_DIR = Path(__file__).parent / "results"


@dataclass(frozen=True)
class BenchScale:
    """One benchmark scale profile."""

    name: str
    n_nodes: int
    n_channels: int
    n_subscriptions: int
    horizon: float
    bucket_width: float
    deploy_nodes: int
    deploy_channels: int
    deploy_subscriptions: int
    deploy_horizon: float
    #: Overlay base for the deployment run.  The paper uses b = 16 at
    #: 80 nodes (level-1 wedges of ~5 nodes); the CI profile keeps the
    #: same wedge-granularity ratio N/b with its smaller population.
    deploy_base: int = 16


SCALES = {
    "ci": BenchScale(
        name="ci",
        n_nodes=128,
        n_channels=2000,
        n_subscriptions=100_000,
        horizon=6 * 3600.0,
        bucket_width=1800.0,
        deploy_nodes=24,
        deploy_channels=150,
        deploy_subscriptions=1500,
        deploy_horizon=2 * 3600.0,
        deploy_base=4,
    ),
    "paper": BenchScale(
        name="paper",
        n_nodes=1024,
        n_channels=20_000,
        n_subscriptions=1_000_000,
        horizon=6 * 3600.0,
        bucket_width=600.0,
        deploy_nodes=80,
        deploy_channels=3000,
        deploy_subscriptions=30_000,
        deploy_horizon=6 * 3600.0,
    ),
}


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    name = os.environ.get("CORONA_BENCH_SCALE", "ci")
    if name not in SCALES:
        raise ValueError(
            f"CORONA_BENCH_SCALE must be one of {sorted(SCALES)}, got {name!r}"
        )
    return SCALES[name]


@pytest.fixture(scope="session")
def sim_trace(scale):
    """The §5.1 simulation workload (subscriptions issued at once)."""
    return generate_trace(
        n_channels=scale.n_channels,
        n_subscriptions=scale.n_subscriptions,
        seed=5,
    )


class SchemeRunner:
    """Session-wide cache of one macro run per scheme."""

    def __init__(self, trace, scale: BenchScale) -> None:
        self.trace = trace
        self.scale = scale
        self._cache: dict[str, MacroResult] = {}

    def config_for(self, scheme: str) -> CoronaConfig:
        return CoronaConfig(scheme=scheme) if scheme != "legacy" else CoronaConfig()

    def run(self, scheme: str) -> MacroResult:
        """Run (or fetch the cached run of) one scheme."""
        cached = self._cache.get(scheme)
        if cached is not None:
            return cached
        result = self.run_fresh(scheme)
        self._cache[scheme] = result
        return result

    def run_fresh(self, scheme: str) -> MacroResult:
        """Always execute — the callable each benchmark times."""
        if scheme == "legacy":
            result = run_legacy(
                self.trace,
                CoronaConfig(),
                horizon=self.scale.horizon,
                bucket_width=self.scale.bucket_width,
                seed=7,
            )
        else:
            simulator = MacroSimulator(
                self.trace,
                CoronaConfig(scheme=scheme),
                n_nodes=self.scale.n_nodes,
                seed=7,
                horizon=self.scale.horizon,
                bucket_width=self.scale.bucket_width,
            )
            result = simulator.run()
        self._cache[scheme] = result
        return result


@pytest.fixture(scope="session")
def runner(sim_trace, scale) -> SchemeRunner:
    return SchemeRunner(sim_trace, scale)


@pytest.fixture(scope="session")
def deployment_run(scale):
    """The §5.2 deployment experiment (cached once per session)."""
    trace = generate_trace(
        n_channels=scale.deploy_channels,
        n_subscriptions=scale.deploy_subscriptions,
        seed=9,
        subscription_window=3600.0,
    )
    config = CoronaConfig(
        polling_interval=1800.0,
        maintenance_interval=1800.0,
        base=scale.deploy_base,
    )
    simulator = DeploymentSimulator(
        trace,
        config,
        n_nodes=scale.deploy_nodes,
        seed=4,
        horizon=scale.deploy_horizon,
        bucket_width=scale.bucket_width,
        poll_tick=30.0,
    )
    return simulator.run()


def write_artifact(
    name: str, text: str, data: dict[str, Any] | None = None
) -> Path:
    """Persist a rendered figure/table under benchmarks/results/.

    ``data``, when given, is additionally written as
    ``BENCH_<stem>.json`` next to the text artifact — the
    machine-readable counterpart tooling diffs across PRs.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    if data is not None:
        json_path = RESULTS_DIR / f"BENCH_{Path(name).stem}.json"
        json_path.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n"
        )
    return path


_TIMING_FIELDS = ("min", "max", "mean", "stddev", "median", "rounds")


def _test_file_exists(session, fullname: str) -> bool:
    """Whether the file part of a ``path::test`` id is still on disk."""
    return (session.config.rootpath / fullname.split("::", 1)[0]).is_file()


@pytest.hookimpl(trylast=True)
def pytest_sessionfinish(session, exitstatus):  # noqa: ARG001
    """Dump per-benchmark timings as BENCH_timings_<scale>.json."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    scale_name = os.environ.get("CORONA_BENCH_SCALE", "ci")
    entries = []
    for bench in bench_session.benchmarks:
        entry: dict[str, Any] = {
            "name": bench.name,
            "fullname": bench.fullname,
            "group": bench.group,
        }
        stats = getattr(bench, "stats", None)
        if stats is not None:
            # A benchmark that errored mid-run leaves Stats with no
            # data; its min/max/... properties then raise rather than
            # return None, and this hook must not mask the failure.
            try:
                for field_name in _TIMING_FIELDS:
                    value = getattr(stats, field_name, None)
                    if value is not None:
                        entry[field_name] = value
            except ValueError:
                pass
        entries.append(entry)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_timings_{scale_name}.json"
    # Merge with any existing file so partial runs (pytest -k, a
    # single benchmark file) update their entries without clobbering
    # the rest of the recorded session.  A record whose test file no
    # longer exists is dropped: nothing can ever refresh it.
    merged: dict[str, dict[str, Any]] = {}
    if path.exists():
        try:
            merged = {
                item["fullname"]: item
                for item in json.loads(path.read_text())
                if _test_file_exists(session, item["fullname"])
            }
        except (json.JSONDecodeError, KeyError, TypeError):
            merged = {}
    for entry in entries:
        merged[entry["fullname"]] = entry
    ordered = sorted(merged.values(), key=lambda item: item["fullname"])
    path.write_text(json.dumps(ordered, indent=2, sort_keys=True) + "\n")
