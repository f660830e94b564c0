"""Span tracing around each simulator layer, from outside the library.

:func:`install` wraps the public entry points of every layer (listed in
:data:`LAYER_ENTRY_POINTS`) so that each call records one span: its
name, start, end and parent span. Wrappers are installed on the class
(or module) the name is looked up on, before the simulator is built, so
bound methods the simulator hoists into locals are the wrapped ones.
Spans are kept in flat in-memory arrays and aggregated (or written)
when the run ends; nothing under ``src/`` knows it is being traced, and
the simulated outputs must not change (the benchmark checks that).
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (span name, module, owner, attribute names). ``owner`` is a class
#: name (every subclass defining one of the attributes is wrapped too) or
#: ``None`` for module-level functions, which are patched in every module
#: of :data:`LOOKUP_MODULES` that imported them by name.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("cluster.run", "repro.cluster.cluster", "ClusterSimulator", ("run",)),
    ("fleetstate.probe", "repro.cluster.fleetstate", "FleetState", (
        "probe_steps", "probe_min_batch", "probe_completions",
        "probe_min_completion", "route_min_cost", "route_slo_slack",
        "price_run",
    )),
    ("replica.step", "repro.cluster.replica", "Replica",
     ("on_step_done", "compress_run")),
    ("router.select", "repro.cluster.router", "Router",
     ("select", "select_path")),
    ("admission.decide", "repro.cluster.admission", "SLOAdmissionController",
     ("decide",)),
    ("prefixcache", "repro.cluster.prefixcache", "PrefixCache",
     ("peek", "lookup", "insert")),
    ("clock", "repro.serving.clock", "EventCalendar",
     ("push", "push_arrival_after", "pop", "pop_arrival")),
    ("clock", "repro.serving.clock", "EventQueue", ("push", "pop")),
    ("engine.price", "repro.serving.engine", "StepPricer", (
        "price", "price_contexts", "price_mean_total", "run_pricer",
    )),
    ("engine.run", "repro.serving.engine", "ServingEngine",
     ("run", "run_trace", "run_with_batcher")),
    ("systems.step", "repro.systems.base", "ServingSystem",
     ("execute_step",)),
    ("systems.grid", "repro.systems.base", "ServingSystem",
     ("price_steps",)),
    ("systems.prefill", "repro.systems.base", "ServingSystem",
     ("execute_prefill",)),
    ("models", "repro.models.workload", None,
     ("build_decode_step", "build_step_grid", "prefill_cost")),
    ("devices", "repro.devices.gpu", "GPUGroup",
     ("execute", "execute_batch")),
    ("devices", "repro.devices.pim", "PIMDeviceGroup",
     ("execute", "execute_batch")),
    ("scheduler", "repro.core.scheduler", "PAPIScheduler",
     ("observe_outputs", "observe_counts", "observe_steady")),
    ("speculative", "repro.serving.speculative", "SpeculativeSampler",
     ("accepted_tokens",)),
    ("metrics", "repro.serving.metrics", "RunSummary",
     ("fold_iteration", "fold_run", "fold_run_segments")),
)

#: Modules whose globals may hold a by-name import of a wrapped
#: module-level function (``from repro.models.workload import ...``).
LOOKUP_MODULES = (
    "repro.models.workload",
    "repro.serving.engine",
    "repro.serving.slo",
    "repro.systems.base",
    "repro.systems.batch",
    "repro.cluster.fleetstate",
    "repro.cluster.replica",
    "repro.cluster.router",
    "repro.cluster.admission",
    "repro.cluster.cluster",
)


class Tracer:
    """Records nested spans into flat arrays (one process, one thread).

    Span ``i`` has ``names[name_ids[i]]``, ``starts[i]``, ``ends[i]`` and
    ``parents[i]`` (-1 for a root span). Spans are appended when they
    open, so the children of any span appear in start order.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.starts)

    def name_id(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one ``name`` span per call."""
        name_id = self.name_id(name)
        name_ids = self.name_ids
        parents = self.parents
        starts = self.starts
        ends = self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    A child's interval is clipped to its parent's, and overlapping or
    back-to-back children count their shared time once.
    """
    n = len(starts)
    covered = [0.0] * n
    reach: Dict[int, float] = {}
    for i in sorted(range(n), key=starts.__getitem__):
        parent = parents[i]
        if parent < 0:
            continue
        lo = max(starts[i], starts[parent], reach.get(parent, -math.inf))
        hi = min(ends[i], ends[parent])
        if hi > lo:
            covered[parent] += hi - lo
            reach[parent] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, self seconds, inclusive seconds, per-call
    p50/p99 (microseconds, inclusive) over the outermost calls.

    A call is *outermost* when its parent is not a span of the same name
    (a subclass method calling its base, or ``fold_run`` calling
    ``fold_run_segments``, is one call).
    """
    names = tracer.names
    name_ids = tracer.name_ids
    parents = tracer.parents
    starts = tracer.starts
    ends = tracer.ends
    selfs = self_times(starts, ends, parents)
    stats: Dict[str, Dict[str, float]] = {
        name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in names
    }
    durations: Dict[str, List[float]] = {name: [] for name in names}
    for i in range(len(starts)):
        name = names[name_ids[i]]
        entry = stats[name]
        entry["self_s"] += selfs[i]
        parent = parents[i]
        if parent >= 0 and name_ids[parent] == name_ids[i]:
            continue
        entry["calls"] += 1
        duration = ends[i] - starts[i]
        entry["total_s"] += duration
        durations[name].append(duration)
    for name, sample in durations.items():
        sample.sort()
        stats[name]["p50_us"] = _percentile(sample, 50) * 1e6
        stats[name]["p99_us"] = _percentile(sample, 99) * 1e6
    return stats


def _subclasses(cls) -> Iterable[type]:
    seen = [cls]
    index = 0
    while index < len(seen):
        for sub in seen[index].__subclasses__():
            if sub not in seen:
                seen.append(sub)
        index += 1
    return seen


def _import_all_systems() -> None:
    """Import every module defining a subclass the wrappers must reach."""
    for module in (
        "repro.cluster.cluster", "repro.cluster.fleetstate",
        "repro.systems.registry", "repro.analysis.evaluation",
    ):
        importlib.import_module(module)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer entry point; returns a function undoing it."""
    _import_all_systems()
    undo: List[Tuple[object, str, object]] = []

    for name, module_name, owner_name, attrs in LAYER_ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if owner_name is None:
            owners = [importlib.import_module(m) for m in LOOKUP_MODULES]
        else:
            owners = _subclasses(getattr(module, owner_name))
        for attr in attrs:
            reference = getattr(module, attr) if owner_name is None else None
            wrapped = {}
            for owner in owners:
                original = vars(owner).get(attr)
                if original is None or (
                    reference is not None and original is not reference
                ):
                    continue
                # One wrapper per function, shared by every module that
                # imported it by name.
                if id(original) not in wrapped:
                    wrapped[id(original)] = tracer.wrap(name, original)
                setattr(owner, attr, wrapped[id(original)])
                undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def write_spans(tracer: Tracer, path: Path) -> None:
    """Write every span (name table plus flat arrays) as a ``.npz``."""
    import numpy as np

    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        name_ids=np.frombuffer(tracer.name_ids, dtype=np.int32),
        parents=np.frombuffer(tracer.parents, dtype=np.int32),
        starts=np.frombuffer(tracer.starts, dtype=np.float64),
        ends=np.frombuffer(tracer.ends, dtype=np.float64),
    )
