"""Metric names, units and how each is computed from operation records.

An *operation record* is the JSON line one worker prints (see
:mod:`perfbench.worker`). End-to-end metrics are medians over a run's
untraced operations; per-layer metrics are medians over its traced
operations. ``BENCHMARK.json`` lists the same names (a test keeps the
two in step).
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
from typing import Dict, Sequence, Tuple

#: (name, unit, better). Host-side: what a user of the simulator waits
#: for and pays in memory.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("wall_s", "s", "lower"),
    ("sim_req_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Timed layers: (metric prefix, span names, call-count metric name,
#: self-time metric name, per-call percentile stem). Percentiles are of
#: the first span name's outermost calls; the call count is their sample
#: count.
TIMED_LAYERS: Tuple[Tuple[str, Tuple[str, ...], str, str, str], ...] = (
    ("fleetstate", ("fleetstate.probe",), "probe_calls", "probe_self_s",
     "probe"),
    ("replica", ("replica.step",), "step_calls", "step_self_s", "step"),
    ("router", ("router.select",), "select_calls", "self_s", "select"),
    ("admission", ("admission.decide",), "decide_calls", "self_s", "decide"),
    ("prefixcache", ("prefixcache",), "calls", "self_s", "call"),
    ("clock", ("clock",), "events", "self_s", "event"),
    ("engine", ("engine.price",), "price_calls", "price_self_s", "price"),
    ("systems", ("systems.step", "systems.grid", "systems.prefill"),
     "calls", "self_s", "step"),
    ("scheduler", ("scheduler",), "observe_calls", "self_s", "observe"),
    ("speculative", ("speculative",), "draws", "self_s", "draw"),
    ("metrics", ("metrics",), "fold_calls", "self_s", "fold"),
)

#: Simulated counters (repeat exactly for a seed), read from the
#: library's own stats and summaries.
COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("fleetstate.memo_hit_rate", "ratio"),
    ("fleetstate.runs_coalesced", "count"),
    ("replica.iterations", "count"),
    ("replica.macro_attempts", "count"),
    ("replica.macro_take_rate", "ratio"),
    ("replica.macro_share", "ratio"),
    ("router.cache_hit_rate", "ratio"),
    ("admission.defer_share", "ratio"),
    ("admission.reject_share", "ratio"),
    ("prefixcache.hit_rate", "ratio"),
    ("interconnect.transfers", "count"),
    ("interconnect.transfer_wait_p99_s", "s"),
    ("stepcache.lookups", "count"),
    ("stepcache.hit_rate", "ratio"),
    ("stepcache.fill", "ratio"),
    ("scheduler.reschedules", "count"),
    ("scheduler.fc_pim_share", "ratio"),
)

#: Metrics derived from several spans at once.
DERIVED: Tuple[Tuple[str, str], ...] = (
    ("scenario.build_s", "s"),
    ("cluster.run_self_s", "s"),
    ("engine.run_self_s", "s"),
    ("systems.steps_priced", "count"),
    ("systems.steps_per_s", "1/s"),
    ("models.self_s", "s"),
    ("devices.self_s", "s"),
    ("costmodel.self_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead", "ratio"),
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units: Dict[str, str] = {}
    for prefix, _, calls, self_s, stem in TIMED_LAYERS:
        units[f"{prefix}.{calls}"] = "count"
        units[f"{prefix}.{self_s}"] = "s"
        units[f"{prefix}.{stem}_p50_us"] = "us"
        units[f"{prefix}.{stem}_p99_us"] = "us"
    units.update(COUNTERS)
    units.update(DERIVED)
    return units


def _layer_values(record: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced operation record."""
    spans = record["layers"]

    def stat(name: str, key: str) -> float:
        return float(spans.get(name, {}).get(key, 0.0))

    values: Dict[str, float] = {}
    for prefix, names, calls, self_s, stem in TIMED_LAYERS:
        values[f"{prefix}.{calls}"] = sum(stat(n, "calls") for n in names)
        values[f"{prefix}.{self_s}"] = sum(stat(n, "self_s") for n in names)
        values[f"{prefix}.{stem}_p50_us"] = stat(names[0], "p50_us")
        values[f"{prefix}.{stem}_p99_us"] = stat(names[0], "p99_us")
    for name, _ in COUNTERS:
        values[name] = float(record["counters"].get(name, 0.0))
    steps = stat("systems.step", "calls")
    step_time = stat("systems.step", "total_s")
    cost_model = (
        values["systems.self_s"] + stat("models", "self_s")
        + stat("devices", "self_s")
    )
    values.update({
        "scenario.build_s": record["build_s"],
        "cluster.run_self_s": stat("cluster.run", "self_s"),
        "engine.run_self_s": stat("engine.run", "self_s"),
        "systems.steps_priced": steps,
        "systems.steps_per_s": steps / step_time if step_time else 0.0,
        "models.self_s": stat("models", "self_s"),
        "devices.self_s": stat("devices", "self_s"),
        "costmodel.self_share": cost_model / record["sim_s"],
        "trace.spans": float(record["spans"]),
    })
    return values


def end_to_end_metrics(records: Sequence[dict]) -> Dict[str, dict]:
    """Medians over untraced operation records, with units."""
    values = {
        "wall_s": [r["wall_s"] for r in records],
        "sim_req_per_s": [r["served"] / r["sim_s"] for r in records],
        "setup_s": [r["setup_s"] for r in records],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
    }
    return {
        name: {"value": statistics.median(values[name]), "unit": unit}
        for name, unit, _ in END_TO_END
    }


def per_layer_metrics(traced: Sequence[dict],
                      untraced: Sequence[dict]) -> Dict[str, dict]:
    """Medians over traced operation records, with units.

    ``trace.overhead`` is the traced median ``wall_s`` over the untraced
    median ``wall_s`` of the same run.
    """
    per_record = [_layer_values(r) for r in traced]
    overhead = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced)
    )
    out: Dict[str, dict] = {}
    for name, unit in per_layer_units().items():
        if name == "trace.overhead":
            value = overhead
        else:
            value = statistics.median(v[name] for v in per_record)
        out[name] = {"value": value, "unit": unit}
    return out


def machine_fingerprint() -> Dict[str, object]:
    """What the timings depend on: cores, CPU model, Python, numpy."""
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "platform": platform.platform(),
    }
