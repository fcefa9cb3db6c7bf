"""Smoke tests for the scenario benchmark, on shortened horizons.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_core  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402
from bench_trace import ROOT, TARGETS, resolve  # noqa: E402

#: Long enough for churn-2048's first churn ticks (they start at 300 s).
SHORT_HORIZON = 600.0
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def current_targets() -> dict[tuple, object]:
    return {
        (module, cls, attr): vars(resolve(module, cls))[attr]
        for module, cls, attr, _name in TARGETS
    }


@pytest.fixture
def short_horizon(monkeypatch):
    full = bench_workloads.build
    monkeypatch.setattr(
        bench_workloads,
        "build",
        lambda name, horizon=None: full(name, horizon=SHORT_HORIZON),
    )


def run_cli(capsys, workload: str, trace: int) -> dict:
    code = run.main([
        "--workload", workload, "--seed", "1", "--seconds", "0",
        "--trace", str(trace),
    ])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_untraced_run_executes_unwrapped_code(monkeypatch):
    originals = current_targets()
    seen = {}

    class SnapshotProbe(bench_core.EngineProbe):
        def started(self) -> None:
            seen.update(current_targets())
            super().started()

    monkeypatch.setattr(bench_core, "EngineProbe", SnapshotProbe)
    spec = bench_workloads.build("lossy-updates", horizon=SHORT_HORIZON)
    bench_core.run_untraced(spec, seed=1)
    engine = ("repro.simulation.engine", "EventEngine", "run_until")
    wrapped = [key for key in originals if seen[key] is not originals[key]]
    # Only the probe's two timestamps around run_until are added.
    assert wrapped == [engine]

    traced = bench_core.run_traced(spec, seed=1)
    assert traced.recorder.spans
    assert current_targets() == originals


@pytest.mark.parametrize("workload", list(bench_workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(
    workload, short_horizon, capsys
):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = run_cli(capsys, workload, trace)
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {entry["name"]: entry["unit"] for entry in DECLARED[section]}
        emitted = {
            name: metric["unit"] for name, metric in result["metrics"].items()
        }
        assert emitted == declared
        for metric in result["metrics"].values():
            assert math.isfinite(metric["value"])


@pytest.mark.parametrize("workload", list(bench_workloads.WORKLOADS))
def test_self_times_add_up_to_the_traced_wall_time(workload):
    spec = bench_workloads.build(workload, horizon=SHORT_HORIZON)
    traced = bench_core.run_traced(spec, seed=1)
    layers = bench_core.per_layer(traced, 0.0)
    table = bench_core.layer_table(traced.recorder)
    self_times = sum(
        entry["s"] for name, entry in table.items() if name != ROOT
    )
    # Every declared self time is one layer's self time from the table.
    for name, value in layers.items():
        if name.endswith(".s"):
            assert value == table.get(name[:-2], {"s": 0.0})["s"]
    wall = layers["trace.wall_s"]
    accounted = (
        self_times
        + layers["scenarios.collate_s"]
        + layers["scenarios.unattributed_s"]
    )
    assert accounted == pytest.approx(wall, rel=1e-9)
    assert 0.0 <= layers["scenarios.unattributed_s"] < 0.05 * wall


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady-state",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
