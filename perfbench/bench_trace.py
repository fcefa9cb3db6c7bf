"""In-memory span tracing of one scenario run, installed from outside.

The benchmark measures the program as shipped, so nothing under
``src/`` knows about this module.  :class:`SpanRecorder` swaps a timing
wrapper in for each public call listed in :data:`TARGETS`, at the
place its caller looks the name up (a class attribute, or the module
global a caller imported by name), and puts every original back when
the ``with`` block ends.  An untraced run therefore executes the
original function objects; ``test_perfbench.py`` checks that.

A span is ``(name id, start, end, parent span index)``.  Spans stay in
a list while the run executes and are reduced afterwards: a span's
self time is its duration minus the durations of its direct children,
so the self times of all spans add up to the root span's duration.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = "scenarios.run"

#: (module, class or None, attribute, span name).  ``None`` as class
#: means a module global: the callers below import these by name, so
#: the wrapper must replace the caller's own binding.
TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.scenarios.runner", None, "generate_trace",
     "workload.generate_trace"),
    ("repro.overlay.network", "OverlayNetwork", "build", "overlay.build"),
    ("repro.overlay.network", "OverlayNetwork", "add_node",
     "overlay.add_node"),
    ("repro.overlay.network", "OverlayNetwork", "remove_nodes",
     "overlay.remove_nodes"),
    ("repro.core.system", "CoronaSystem", "__init__", "core.setup"),
    ("repro.core.system", "CoronaSystem", "subscribe", "core.setup"),
    ("repro.core.system", "CoronaSystem", "join_nodes", "core.churn"),
    ("repro.core.system", "CoronaSystem", "crash_nodes", "core.churn"),
    ("repro.core.system", "CoronaSystem", "poll_due", "core.poll_due"),
    ("repro.core.system", "CoronaSystem", "run_maintenance_round",
     "core.maintenance_round"),
    ("repro.core.system", None, "wedge_recipients", "core.dissemination"),
    ("repro.core.system", None, "deliver_plan", "core.dissemination"),
    ("repro.core.node", "CoronaNode", "execute_poll", "core.execute_poll"),
    ("repro.core.node", "CoronaNode", "handle_diff", "core.handle_diff"),
    ("repro.core.node", "CoronaNode", "run_optimization",
     "honeycomb.optimize"),
    ("repro.core.node", None, "diff_lines", "diffengine.diff_lines"),
    ("repro.core.node", None, "apply_diff", "diffengine.apply_diff"),
    ("repro.diffengine.extractor", "CoreContentExtractor", "core_lines",
     "diffengine.core_lines"),
    ("repro.honeycomb.aggregation", "DecentralizedAggregator",
     "run_round", "honeycomb.run_round"),
    ("repro.honeycomb.aggregation", "DecentralizedAggregator",
     "add_nodes", "honeycomb.splice"),
    ("repro.honeycomb.aggregation", "DecentralizedAggregator",
     "remove_nodes", "honeycomb.splice"),
    ("repro.honeycomb.aggregation", "DecentralizedAggregator",
     "refresh_locals", "honeycomb.refresh_locals"),
    ("repro.honeycomb.solver", "HoneycombSolver", "solve_bracketing",
     "honeycomb.solve"),
    ("repro.feeds.generator", "FeedGenerator", "render", "feeds.render"),
    ("repro.simulation.webserver", "WebServerFarm", "fetch",
     "simulation.fetch"),
    ("repro.simulation.webserver", "WebServerFarm", "advance_to",
     "simulation.advance_to"),
    ("repro.simulation.engine", "EventEngine", "run_until",
     "simulation.engine"),
    ("repro.faults.plane", "FaultPlane", "transmit", "faults.transmit"),
)


def resolve(module: str, cls: str | None):
    """The object whose attribute a target replaces."""
    owner = importlib.import_module(module)
    return owner if cls is None else getattr(owner, cls)


class SpanRecorder:
    """Spans plus the counters that turn them into ratios."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int] | None] = []
        #: Open spans as ``(span index, name id)``, innermost last.
        self.stack: list[tuple[int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._distinct_core: set[int] = set()
        self._restore: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- span recording ------------------------------------------------
    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn, after=None, skip_inside: str | None = None):
        name_id = self.name_id(name)
        skip_id = None if skip_inside is None else self.name_id(skip_inside)
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip_id is not None and stack and stack[-1][1] == skip_id:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((index, name_id))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if after is not None:
                after(result, args)
            return result

        return traced

    def _gc_callback(self, phase: str, info: dict) -> None:
        # A collection interrupts whatever span is open; recording it
        # as that span's child keeps the self times additive.
        if phase == "start":
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append((index, self.name_id("py.gc")))
            self._gc_start = perf_counter()
        elif self.stack and self.names[self.stack[-1][1]] == "py.gc":
            end = perf_counter()
            index, name_id = self.stack.pop()
            parent = self.stack[-1][0] if self.stack else -1
            self.spans[index] = (name_id, self._gc_start, end, parent)
            self.counts["py.gc.collections"] += 1

    # -- counters taken at the wrapped boundaries ----------------------
    def _after_core_lines(self, lines, args) -> None:
        _extractor, document = args
        self.counts["core_lines.bytes"] += len(document)
        self._distinct_core.add(hash(tuple(lines)))

    def _after_run_until(self, executed, args) -> None:
        self.counts["engine.events"] += executed

    def _after_execute_poll(self, diff_msg, args) -> None:
        if diff_msg is not None:
            self.counts["execute_poll.fresh"] += 1

    def _after_handle_diff(self, event, args) -> None:
        # A manager's handle_diff returns None only when it dropped
        # the diff as a duplicate of content it already accepted.
        node, msg = args[0], args[1]
        if msg.url in node.managed:
            self.counts["handle_diff.at_manager"] += 1
            if event is None:
                self.counts["handle_diff.redundant"] += 1

    # -- installation --------------------------------------------------
    def __enter__(self) -> SpanRecorder:
        after = {
            "diffengine.core_lines": self._after_core_lines,
            "core.execute_poll": self._after_execute_poll,
            "core.handle_diff": self._after_handle_diff,
            "simulation.engine": self._after_run_until,
        }
        # Resolve every target before replacing any, so a missing one
        # raises with the program still unwrapped.
        resolved = [
            (owner, attr, vars(owner)[attr], name)
            for module, cls, attr, name in TARGETS
            for owner in (resolve(module, cls),)
        ]
        for owner, attr, raw, name in resolved:
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            # Joins inside the initial build belong to the build.
            skip = "overlay.build" if name == "overlay.add_node" else None
            wrapped = self._wrap(name, fn, after.get(name), skip)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        gc.callbacks.append(self._gc_callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._gc_callback)
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- reduction -----------------------------------------------------
    def reduce(self) -> dict[str, dict]:
        """Per name: calls, total and self seconds, and durations."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        layers: dict[str, dict] = {}
        for index, span in enumerate(spans):
            if span is None:
                continue  # still open: only if reduced mid-run
            name_id, start, end, _parent = span
            entry = layers.setdefault(
                self.names[name_id],
                {"calls": 0, "s": 0.0, "total_s": 0.0, "durations": []},
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["s"] += end - start - child_time[index]
            entry["durations"].append(end - start)
        return layers

    def distinct_core_outputs(self) -> int:
        return len(self._distinct_core)

    def dump(self, path: Path) -> None:
        """Write the spans as JSON: names plus [name, start, end, parent]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(
                {
                    "names": self.names,
                    "spans": self.spans,
                },
                handle,
                separators=(",", ":"),
            )


def percentile_ms(durations: list[float], q: int) -> float:
    """The ``q``-th percentile of ``durations`` in milliseconds."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[
        q - 1
    ] * 1e3
