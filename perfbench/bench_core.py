"""Scenario jobs, output checks and metric reduction for ``run.py``.

One job is one ``ScenarioRunner.run`` call.  A run executes jobs one
after another from one thread (a closed loop): every scenario seed of
its seed set once, then repeats until the time budget is spent.  The
untraced job takes two timestamps around ``EventEngine.run_until`` and
nothing else; the traced job records a span around every call in
:data:`bench_trace.TARGETS`.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from bench_trace import ROOT, SpanRecorder, percentile_ms
from repro.obs import Observability
from repro.obs.provenance import ProvenanceTracker
from repro.scenarios.runner import ScenarioMetrics, ScenarioRunner
from repro.simulation.engine import EventEngine

REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "ci" / "baselines" / "steady-state.json"

#: Scenario seeds per benchmark seed.  Freshness and server load are
#: deterministic per scenario seed but spread ~25% between seeds, so
#: a run averages them over several.  Ten keep an untraced run near
#: 25 s on a 2-CPU host, so the whole benchmark fits its time budget
#: with room for a host 1.7 times slower.
SEEDS_PER_RUN = 10

#: The scenario seed whose ``steady-state`` output is pinned by
#: ``ci/baselines/steady-state.json``.
BASELINE_SEED = 0


def scenario_seeds(seed: int) -> list[int]:
    """The scenario seeds of benchmark seed ``seed`` (0 → 0..9)."""
    return [seed * SEEDS_PER_RUN + offset for offset in range(SEEDS_PER_RUN)]


def calibrate() -> float:
    """Milliseconds a fixed pure-Python loop takes on this host now.

    Collects the previous job's garbage first, so no job pays for
    the one before it.
    """
    gc.collect()
    start = perf_counter()
    total = 0
    for value in range(600_000):
        total += value * value % 7
    return (perf_counter() - start) * 1e3


class EngineProbe:
    """Timestamps the entry and exit of ``EventEngine.run_until``."""

    def __init__(self) -> None:
        self.start = math.nan
        self.end = math.nan
        self._original = None

    def started(self) -> None:
        self.start = perf_counter()

    def __enter__(self) -> EngineProbe:
        original = self._original = EventEngine.run_until
        probe = self

        def run_until(engine, horizon):
            probe.started()
            try:
                return original(engine, horizon)
            finally:
                probe.end = perf_counter()

        EventEngine.run_until = run_until
        return self

    def __exit__(self, *exc) -> None:
        EventEngine.run_until = self._original


@dataclass
class Job:
    seed: int
    wall_s: float
    setup_s: float
    engine_s: float
    calib_ms: float
    metrics: ScenarioMetrics


def run_untraced(spec, seed: int) -> Job:
    calib_ms = calibrate()
    runner = ScenarioRunner(spec, seed=seed)
    with EngineProbe() as probe:
        start = perf_counter()
        metrics = runner.run()
        end = perf_counter()
    return Job(
        seed=seed,
        wall_s=end - start,
        setup_s=probe.start - start,
        engine_s=probe.end - probe.start,
        calib_ms=calib_ms,
        metrics=metrics,
    )


@dataclass
class TracedJob:
    calib_ms: float
    metrics: ScenarioMetrics
    recorder: SpanRecorder
    provenance: ProvenanceTracker


def run_traced(spec, seed: int) -> TracedJob:
    calib_ms = calibrate()
    provenance = ProvenanceTracker(seed=seed)
    runner = ScenarioRunner(
        spec,
        seed=seed,
        obs=Observability(provenance=provenance),
        check_invariants=True,
    )
    with SpanRecorder() as recorder:
        metrics = recorder.call(ROOT, runner.run)
    return TracedJob(calib_ms, metrics, recorder, provenance)


# ----------------------------------------------------------------------
def check(workload: str, seed: int, metrics: ScenarioMetrics) -> list[str]:
    """What is wrong with one job's output (empty when nothing is)."""
    problems = []
    if metrics.final_registered_subscriptions != metrics.total_subscriptions:
        problems.append(
            f"{metrics.final_registered_subscriptions} subscriptions "
            f"registered at the end, {metrics.total_subscriptions} made"
        )
    if workload == "churn-2048" and metrics.n_nodes_final != 2048:
        problems.append(f"ended at {metrics.n_nodes_final} nodes, not 2048")
    if not math.isfinite(metrics.mean_detection_delay):
        problems.append("no detection delay (no update was detected)")
    if metrics.violations:
        problems.append(f"invariant violations: {metrics.violations[:3]}")
    if workload == "steady-state" and seed == BASELINE_SEED:
        expected = json.loads(BASELINE.read_text())["base"]
        actual = metrics.to_dict()
        for key in sorted(expected):
            if actual.get(key) != expected[key]:
                problems.append(
                    f"{key} = {actual.get(key)!r}, baseline "
                    f"{expected[key]!r}"
                )
    return problems


class Tally:
    """Jobs attempted and failed; every failure is reported on stderr."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reference: dict[int, dict] = {}

    def job(self, run, spec, seed: int):
        self.attempted += 1
        try:
            return run(spec, seed)
        except Exception:
            self.failed += 1
            print(f"scenario seed {seed} raised:", file=sys.stderr)
            traceback.print_exc()
            return None

    def check(self, seed: int, metrics, label: str) -> None:
        """Check one job's output; a failed check counts as a failure."""
        problems = check(self.workload, seed, metrics)
        output = metrics.to_dict()
        first = self.reference.setdefault(seed, output)
        if output != first:
            problems.append(f"{label} output differs from the first run")
        for problem in problems:
            print(f"check failed, scenario seed {seed}: {problem}",
                  file=sys.stderr)
        if problems:
            self.failed += 1


def per_seed(jobs: list[Job], name: str) -> list[float]:
    """Each scenario seed's median ``name`` over its repeats.

    Taking each seed's median first keeps the result independent of
    how many repeats of which seed the time budget allowed.
    """
    by_seed: dict[int, list[float]] = {}
    for job in jobs:
        by_seed.setdefault(job.seed, []).append(job_value(job, name))
    return [statistics.median(values) for values in by_seed.values()]


def job_value(job: Job, name: str) -> float:
    """One job's value of end-to-end metric ``name``."""
    metrics = job.metrics
    if name == "polls_per_s":
        return metrics.polls / job.engine_s
    if name == "detect_delay_s":
        return metrics.mean_detection_delay
    if name == "polls_per_min":
        return metrics.mean_polls_per_min
    return getattr(job, name)


def end_to_end(jobs: list[Job], peak_rss_mb: float) -> dict[str, float]:
    """Timings take the median over seeds, which sheds a slow job on a
    busy host.  Freshness and load are exact per seed, so they take
    the mean, the steadier estimate of the workload's average."""
    values = {
        name: statistics.median(per_seed(jobs, name))
        for name in ("wall_s", "setup_s", "polls_per_s")
    }
    for name in ("detect_delay_s", "polls_per_min"):
        values[name] = statistics.fmean(per_seed(jobs, name))
    values["peak_rss_mb"] = peak_rss_mb
    return values


def per_layer(traced: TracedJob, untraced_wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced job."""
    recorder = traced.recorder
    layers = recorder.reduce()
    metrics = traced.metrics
    empty = {"calls": 0, "s": 0.0, "total_s": 0.0, "durations": []}

    def layer(name: str) -> dict:
        return layers.get(name, empty)

    root = layer(ROOT)
    wall = root["total_s"]
    root_end = max(
        span[2] for span in recorder.spans if recorder.names[span[0]] == ROOT
    )
    engine_end = max(
        (
            span[2]
            for span in recorder.spans
            if recorder.names[span[0]] == "simulation.engine"
        ),
        default=root_end,
    )
    collate = root_end - engine_end
    self_total = sum(
        entry["s"] for name, entry in layers.items() if name != ROOT
    )
    core = layer("diffengine.core_lines")
    polls = layer("core.execute_poll")
    at_manager = recorder.counts["handle_diff.at_manager"]
    transmits = layer("faults.transmit")
    solves = metrics.solver_work_problems_solved
    hits = metrics.solver_work_memo_hits + metrics.solver_work_shared_hits
    freshness = traced.provenance.percentiles()["freshness"]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out = {
        "trace.wall_s": wall,
        "workload.generate_trace.s": layer("workload.generate_trace")["s"],
        "overlay.build.s": layer("overlay.build")["s"],
        "honeycomb.refresh_locals.s": layer("honeycomb.refresh_locals")["s"],
        "honeycomb.summaries_rebuilt": metrics.work_summaries_rebuilt,
        "honeycomb.optimize.s": layer("honeycomb.optimize")["s"],
        "honeycomb.solve_hit_ratio": ratio(hits, hits + solves),
        "diffengine.core_lines.mb": recorder.counts["core_lines.bytes"] / 1e6,
        "diffengine.core_lines.distinct_ratio": ratio(
            recorder.distinct_core_outputs(), core["calls"]
        ),
        "simulation.advance_to.s": layer("simulation.advance_to")["s"],
        "simulation.engine.events": recorder.counts["engine.events"],
        "simulation.engine.s": layer("simulation.engine")["s"],
        "core.poll_due.p50_ms": percentile_ms(
            layer("core.poll_due")["durations"], 50
        ),
        "core.poll_due.p90_ms": percentile_ms(
            layer("core.poll_due")["durations"], 90
        ),
        "core.execute_poll.s": polls["s"],
        "core.fresh_poll_ratio": ratio(
            recorder.counts["execute_poll.fresh"], polls["calls"]
        ),
        "core.maintenance_round.p50_ms": percentile_ms(
            layer("core.maintenance_round")["durations"], 50
        ),
        "core.maintenance_round.max_ms": 1e3 * max(
            layer("core.maintenance_round")["durations"], default=0.0
        ),
        "core.setup.s": layer("core.setup")["s"],
        "core.redundant_diff_ratio": ratio(
            recorder.counts["handle_diff.redundant"], at_manager
        ),
        "faults.retransmit_ratio": ratio(
            metrics.retransmissions, transmits["calls"]
        ),
        "faults.repair_diffs": metrics.repair_diffs,
        "py.gc.s": layer("py.gc")["s"],
        "py.gc.collections": recorder.counts["py.gc.collections"],
        "scenarios.collate_s": collate,
        "scenarios.unattributed_s": wall - self_total - collate,
        "trace.overhead_s": wall - untraced_wall_s,
        "scenarios.freshness_p50_s": freshness["p50"],
        "scenarios.freshness_p95_s": freshness["p95"],
        "scenarios.invariant_violations": len(metrics.violations),
        "host.calib_ms": traced.calib_ms,
    }
    for name in (
        "honeycomb.run_round",
        "honeycomb.solve",
        "diffengine.core_lines",
        "diffengine.diff_lines",
        "diffengine.apply_diff",
        "feeds.render",
        "simulation.fetch",
        "core.poll_due",
        "core.maintenance_round",
        "core.handle_diff",
        "core.dissemination",
    ):
        out[f"{name}.calls"] = layer(name)["calls"]
        out[f"{name}.s"] = layer(name)["s"]
    # Layers that only one workload runs: elsewhere their self time is
    # exactly 0 on every run, and a time that never changes measures
    # nothing, so only their calls are metrics.  Every layer's self
    # time is in the run record (see ``layer_table``).
    for name in ("overlay.add_node", "overlay.remove_nodes", "faults.transmit"):
        out[f"{name}.calls"] = layer(name)["calls"]
    return out


def layer_table(recorder: SpanRecorder) -> dict[str, dict]:
    """Calls and self seconds of every traced layer, for the record."""
    return {
        name: {"calls": entry["calls"], "s": entry["s"]}
        for name, entry in sorted(recorder.reduce().items())
    }
