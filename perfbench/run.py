#!/usr/bin/env python3
"""Scenario benchmark: end-to-end and per-layer numbers for one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload steady-state --seed 0 \\
        --seconds 25 --trace 0

``--trace 0`` runs untraced scenario jobs one after another: each of
the seed's scenario seeds once plus one repeat, then more repeats
until ``--seconds`` have passed, and reports the end-to-end metrics.
``--trace 1`` alternates an untraced and a traced job on the seed's
first scenario seed, at least once and then until ``--seconds`` have
passed, and reports the per-layer metrics.  So ``--seconds`` is a
minimum: a run takes at least its mandatory jobs.  A ``steady-state``
run also runs scenario seed 0 once, whatever ``--seed`` is, to check
it against ``ci/baselines/steady-state.json``; that job counts in
``attempted`` and ``failed`` but not in the metrics.  Every job's
output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The spans of the reported traced job and the per-job records are
written under ``.perfbench_out/``.  Metric names, units and the
workloads' reasons are in ``BENCHMARK.json``; ``perfbench/DESIGN.md``
maps each layer metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = REPO / ".perfbench_out"


def fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def declared_units(section: str) -> dict[str, str]:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def measure_end_to_end(args, spec, seeds, tally, record) -> dict:
    import bench_core

    jobs = []
    started = perf_counter()
    count = 0
    # Every scenario seed once, then at least one repeat (the
    # determinism check), then repeats until the time is spent.
    while count <= len(seeds) or perf_counter() - started < args.seconds:
        seed = seeds[count % len(seeds)]
        count += 1
        job = tally.job(bench_core.run_untraced, spec, seed)
        if job is None:
            continue
        record["jobs"].append(
            {"seed": seed, "wall_s": job.wall_s, "setup_s": job.setup_s,
             "engine_s": job.engine_s, "calib_ms": job.calib_ms,
             "polls": job.metrics.polls,
             "detect_delay_s": job.metrics.mean_detection_delay,
             "polls_per_min": job.metrics.mean_polls_per_min}
        )
        tally.check(seed, job.metrics, "repeat")
        jobs.append(job)
    if not jobs:
        return {}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = bench_core.end_to_end(jobs, peak_rss_mb)
    metrics["calib_ms"] = statistics.median(job.calib_ms for job in jobs)
    return metrics


def measure_layers(args, spec, seeds, tally, record) -> dict:
    import bench_core

    seed = seeds[0]
    layer_runs = []
    untraced_walls = []
    started = perf_counter()
    while not layer_runs or perf_counter() - started < args.seconds:
        job = tally.job(bench_core.run_untraced, spec, seed)
        traced = tally.job(bench_core.run_traced, spec, seed)
        if job is None or traced is None:
            if not layer_runs and tally.attempted >= 4:
                break
            continue
        tally.check(seed, job.metrics, "untraced")
        tally.check(seed, traced.metrics, "traced")
        values = bench_core.per_layer(traced, job.wall_s)
        record["jobs"].append({
            "seed": seed, "untraced_wall_s": job.wall_s, "metrics": values,
            "layers": bench_core.layer_table(traced.recorder),
        })
        layer_runs.append((values, traced.recorder))
        untraced_walls.append(job.wall_s)
    if not layer_runs:
        return {}
    # Report one whole traced job, the one of median wall time, so its
    # self times still add up to its wall time.
    layer_runs.sort(key=lambda run: run[0]["trace.wall_s"])
    values, recorder = layer_runs[(len(layer_runs) - 1) // 2]
    recorder.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    metrics = dict(values)
    metrics["trace.overhead_s"] = (
        metrics["trace.wall_s"] - statistics.median(untraced_walls)
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {REPO / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(bench_workloads.WORKLOADS)}"
        )
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import bench_core

    spec = bench_workloads.build(args.workload)
    seeds = bench_core.scenario_seeds(args.seed)
    tally = bench_core.Tally(args.workload)
    record = {"fingerprint": fingerprint(), "jobs": []}
    if args.workload == "steady-state":
        # The check against a reference from outside the benchmark,
        # made in every run whatever its seed, on the registered spec.
        job = tally.job(bench_core.run_untraced,
                        bench_workloads.steady_state(),
                        bench_core.BASELINE_SEED)
        if job is not None:
            tally.check(job.seed, job.metrics, "baseline")
    measure = measure_layers if args.trace else measure_end_to_end
    values = measure(args, spec, seeds, tally, record)
    if not values:
        print("perfbench: no job completed", file=sys.stderr)
        return 1
    units = declared_units("per_layer" if args.trace else "end_to_end")
    record["metrics"] = values
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{tally.attempted} jobs, {tally.failed} failed "
          f"(error_rate {tally.failed / tally.attempted:.4f} ratio)")
    print(f"# host {json.dumps(record['fingerprint'])}")
    if "calib_ms" in values:
        print(f"# calibration loop {values.pop('calib_ms'):.3f} ms (median)")
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        print(f"perfbench: metrics {missing} missing, {extra} undeclared",
              file=sys.stderr)
        return 1
    for name in units:
        print(f"{name:40s} {values[name]:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
