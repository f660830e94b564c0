"""The benchmark's three workloads: specs, one checked operation each.

Each workload is built from a seed alone, runs one of the simulator's
three execution paths, and returns an :class:`OpResult` holding its
host-side timings, its served-request count, the output checks that
failed, and a fingerprint of every simulated output (full-precision
``repr`` of each float, so two runs agree only when they agree
bit-for-bit).

* ``fleet-slo`` — the vectorized colocated cluster loop (fleet probes,
  replica stepping and macro-steps, the event calendar, admission).
* ``sessions-disagg`` — the vectorized disaggregated loop (affinity
  routing, prefix caches, the interconnect, the scalar cost model).
* ``paper-fig8`` — the single-replica engine behind the paper's Fig. 8
  (the PAPI scheduler, speculative draws, cold per-system pricing).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

WORKLOADS = ("fleet-slo", "sessions-disagg", "paper-fig8")

#: The seed each workload's pinned fingerprint was recorded at.
DEFAULT_SEEDS = {"fleet-slo": 17, "sessions-disagg": 29, "paper-fig8": 11}

#: ``fleet-slo`` size: the ROADMAP headline family at 1/20 scale.
FLEET_SLO_REQUESTS = 50_000
FLEET_SLO_REPLICAS = 64
FLEET_SLO_RATE_PER_TENANT = 3200.0

#: ``paper-fig8`` batches: the paper's creative-writing samples. A grid's
#: host cost follows the longest request of each static batch, so
#: re-sampling lengths per seed moved one grid's cost by an interquartile
#: range of 35% of its median over ten seeds; the seed drives the
#: speculative-acceptance samplers instead.
FIG8_CATEGORY = "creative-writing"
FIG8_SAMPLE_SEED = 11

#: ``sessions-disagg`` size: 4-turn chat sessions plus single-shot batch
#: requests, 5k requests in all. The trace is always the seed-29 one and
#: the seed drives the replicas' speculative-acceptance samplers: with
#: the trace re-drawn per seed, peak RSS split into two modes (143-164
#: vs 192-214 MB over ten seeds), set by the first request's prompt
#: length through FleetState's dense price table, which doubles every
#: axis whenever one overflows.
SESSIONS_CHAT_SESSIONS = 1000
SESSIONS_TURNS = 4
SESSIONS_BATCH_REQUESTS = 1000
SESSIONS_TRACE_SEED = 29


@dataclass
class OpResult:
    """One checked operation unit set (a scenario run, or a Fig. 8 grid).

    Attributes:
        setup_s: Host seconds for spec validation and building the
            simulator's inputs (or request sampling for ``paper-fig8``).
        build_s: The ``build_*`` share of ``setup_s`` (scenario layer).
        sim_s: Host seconds of the simulation call alone.
        served: Simulated requests served.
        attempted: Checked operations (1 per scenario, 1 per Fig. 8 cell).
        failures: One message per failed output check.
        fingerprint: Full-precision ``repr`` of every pinned output.
        counters: Simulated counters read from the library's own stats.
    """

    setup_s: float = 0.0
    build_s: float = 0.0
    sim_s: float = 0.0
    served: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    fingerprint: Dict[str, str] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        """Operations with at least one failed check."""
        return len({message.split(":", 1)[0] for message in self.failures})


def digest(fingerprint: Dict[str, str]) -> str:
    """A stable SHA-256 of a fingerprint (for logs and equality)."""
    text = "\n".join(f"{key}={fingerprint[key]}" for key in sorted(fingerprint))
    return hashlib.sha256(text.encode()).hexdigest()


# -- specs ---------------------------------------------------------------


def fleet_slo_spec(seed: int, requests: int = FLEET_SLO_REQUESTS,
                   replicas: int = FLEET_SLO_REPLICAS):
    """``fleet-slo``: the headline scenario, pinned to the vectorized core.

    64 PAPI replicas under ``slo-slack`` routing; an interactive tenant
    with ``defer`` admission and a best-effort batch tenant, each an
    open-loop Poisson stream at 3200 requests/s, past the fleet's
    capacity. Equal (under ``to_dict``) to
    ``benchmarks/bench_cluster.headline_scenario(requests)`` after
    ``apply_core_mode(..., "vectorized")`` at seed 17.
    """
    from repro.scenario.spec import (
        FleetSpec, ReplicaSpec, RoutingSpec, ScenarioSpec, SLOSpec,
        TenantSpec, TrafficSpec, WorkloadSpec,
    )

    def traffic() -> TrafficSpec:
        return TrafficSpec(
            category="general-qa",
            requests=requests // 2,
            rate_per_s=FLEET_SLO_RATE_PER_TENANT,
        )

    return ScenarioSpec(
        name="bench-cluster",
        seed=seed,
        workload=WorkloadSpec(
            speculation_length=1, context_mode="mean", acceptance_rate=0.8
        ),
        fleet=FleetSpec(
            replicas=(ReplicaSpec(count=replicas, max_batch_size=64),),
            detail="aggregate",
            load_accounting="incremental",
            core_mode="vectorized",
        ),
        tenants=(
            TenantSpec(
                name="interactive",
                traffic=traffic(),
                slo=SLOSpec(
                    p99_seconds=8.0,
                    admission="defer",
                    defer_seconds=0.25,
                    max_defers=8,
                ),
            ),
            TenantSpec(name="batch", traffic=traffic()),
        ),
        routing=RoutingSpec(policy="slo-slack", batched=True),
    )


def sessions_disagg_spec(seed: int, chat_sessions: int = SESSIONS_CHAT_SESSIONS,
                         batch_requests: int = SESSIONS_BATCH_REQUESTS,
                         prefill: int = 4, decode: int = 12):
    """``sessions-disagg``: multi-turn chat over a disaggregated fleet.

    ``chat`` opens 4-turn sessions in bursts (open loop); each follow-up
    turn arrives a think time after its predecessor finished (closed
    loop). ``batch`` is an open-loop Poisson stream. 4 prefill and 12
    decode replicas share an interconnect; each replica holds a 64 GB
    prefix cache. Per-request contexts and speculation (s=2, acceptance
    0.8) latch macro-stepping off.
    """
    from repro.scenario.spec import (
        ArrivalProcessSpec, FleetSpec, InterconnectSpec, PrefixCacheSpec,
        ReplicaSpec, RoutingSpec, ScenarioSpec, SessionSpec, SLOSpec,
        TenantSpec, TrafficSpec, WorkloadSpec,
    )

    return ScenarioSpec(
        name="bench-sessions-disagg",
        seed=seed,
        workload=WorkloadSpec(
            speculation_length=2,
            acceptance_rate=0.8,
            context_mode="per-request",
        ),
        fleet=FleetSpec(
            replicas=(
                ReplicaSpec(count=prefill, max_batch_size=16, role="prefill"),
                ReplicaSpec(count=decode, max_batch_size=16, role="decode"),
            ),
            detail="aggregate",
            load_accounting="incremental",
            core_mode="vectorized",
            interconnect=InterconnectSpec(),
            prefix_cache=PrefixCacheSpec(capacity_gb=64.0),
        ),
        tenants=(
            TenantSpec(
                name="chat",
                traffic=TrafficSpec(
                    category="general-qa",
                    requests=chat_sessions,
                    rate_per_s=36.0,
                    arrival=ArrivalProcessSpec(kind="bursty", burst_size=4.0),
                    session=SessionSpec(
                        turns=SESSIONS_TURNS, think_time_s=1.0
                    ),
                ),
                slo=SLOSpec(p99_seconds=30.0),
            ),
            TenantSpec(
                name="batch",
                traffic=TrafficSpec(
                    category="creative-writing",
                    requests=batch_requests,
                    rate_per_s=18.0,
                ),
            ),
        ),
        routing=RoutingSpec(policy="session-affinity", batched=True),
    )


#: Reduced sizes for the smoke tests: same paths, seconds not minutes.
SMOKE_SIZES = {
    "fleet-slo": {"requests": 600, "replicas": 8},
    "sessions-disagg": {"chat_sessions": 24, "batch_requests": 24,
                        "prefill": 2, "decode": 3},
    "paper-fig8": {"models": ("llama-65b",), "batch_sizes": (4,),
                   "speculation_lengths": (1, 2)},
}


# -- operations ----------------------------------------------------------


def run_workload(name: str, seed: int, smoke: bool = False,
                 started: Optional[float] = None) -> OpResult:
    """Run one operation set of ``name`` at ``seed`` and check it.

    ``started`` is the ``perf_counter`` reading set-up is timed from
    (default: now); a fresh process passes its own start so the import
    of the simulator counts as set-up.
    """
    if started is None:
        started = time.perf_counter()
    sizes = SMOKE_SIZES[name] if smoke else {}
    if name == "fleet-slo":
        return _run_scenario(fleet_slo_spec(seed, **sizes), started)
    if name == "sessions-disagg":
        return _run_scenario(
            sessions_disagg_spec(seed, **sizes), started,
            trace_spec=sessions_disagg_spec(SESSIONS_TRACE_SEED, **sizes),
        )
    if name == "paper-fig8":
        return _run_fig8(seed, started, **sizes)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def _run_scenario(spec, started: float, trace_spec=None) -> OpResult:
    """``run_scenario``'s single-process path, with set-up timed apart.

    The fleet (and its speculative samplers) comes from ``spec``; the
    request trace from ``trace_spec`` when given, else from ``spec``.
    """
    from repro.cluster.cluster import (
        ClusterSimulator, VectorizedClusterSimulator,
    )
    from repro.scenario.build import (
        build_admission, build_interconnect, build_replicas,
        build_requests, build_routing,
    )

    spec.validate()
    t_build = time.perf_counter()
    router = build_routing(spec)
    simulator_cls = (
        VectorizedClusterSimulator
        if spec.fleet.core_mode == "vectorized"
        else ClusterSimulator
    )
    simulator = simulator_cls(
        build_replicas(spec),
        router,
        admission=build_admission(spec, price_cache=router.price_cache),
        interconnect=build_interconnect(spec),
    )
    requests = build_requests(trace_spec or spec)
    t_sim = time.perf_counter()
    summary = simulator.run(requests)
    t_done = time.perf_counter()

    result = OpResult(
        setup_s=t_sim - started,
        build_s=t_sim - t_build,
        sim_s=t_done - t_sim,
        served=summary.total_requests,
        attempted=1,
    )
    result.failures = check_cluster(spec.name, summary, requests)
    result.fingerprint = cluster_fingerprint(summary)
    result.counters = cluster_counters(summary, simulator)
    return result


def _run_fig8(seed: int, started: float,
              models: Optional[Sequence[str]] = None,
              batch_sizes: Optional[Sequence[int]] = None,
              speculation_lengths: Optional[Sequence[int]] = None) -> OpResult:
    """The paper's Fig. 8 grid; set-up is import plus request sampling.

    The loop is ``analysis.evaluation.fig8_end_to_end``'s, with one
    change: the batches are always the paper's seed-11 samples, and
    ``seed`` drives only the engines' speculative-acceptance samplers.
    At ``seed=11`` the cells are ``fig8_end_to_end(seed=11)``'s exactly.
    """
    from repro.analysis import evaluation
    from repro.models.config import get_model
    from repro.serving.dataset import sample_requests
    from repro.serving.engine import ServingEngine
    from repro.serving.metrics import energy_efficiency, speedup
    from repro.serving.speculative import SpeculationConfig
    from repro.systems.registry import build_system

    models = tuple(models or evaluation.MODELS)
    batch_sizes = tuple(batch_sizes or evaluation.BATCH_SIZES)
    speculation_lengths = tuple(
        speculation_lengths or evaluation.SPECULATION_LENGTHS
    )
    sampled = {
        batch: sample_requests(FIG8_CATEGORY, batch, seed=FIG8_SAMPLE_SEED)
        for batch in batch_sizes
    }

    def run_one(system: str, model: str, batch: int, spec: int):
        engine = ServingEngine(
            system=build_system(system),
            model=get_model(model),
            speculation=SpeculationConfig(speculation_length=spec),
            seed=seed,
            context_mode="mean",
        )
        requests = sample_requests(FIG8_CATEGORY, batch, seed=FIG8_SAMPLE_SEED)
        return engine.run(requests)

    t_sim = time.perf_counter()
    cells = []
    for model in models:
        for spec in speculation_lengths:
            for batch in batch_sizes:
                baseline = run_one(evaluation.BASELINE, model, batch, spec)
                for system in evaluation.FOUR_SYSTEMS:
                    summary = (
                        baseline if system == evaluation.BASELINE
                        else run_one(system, model, batch, spec)
                    )
                    cells.append(evaluation.EndToEndCell(
                        model=model,
                        system=system,
                        batch_size=batch,
                        speculation_length=spec,
                        summary=summary,
                        speedup=speedup(baseline, summary),
                        energy_efficiency=energy_efficiency(baseline, summary),
                    ))
    t_done = time.perf_counter()

    result = OpResult(
        setup_s=t_sim - started,
        sim_s=t_done - t_sim,
        served=sum(cell.batch_size for cell in cells),
        attempted=len(cells),
    )
    for cell in cells:
        label = (
            f"{cell.model}/{cell.system}/b{cell.batch_size}"
            f"/s{cell.speculation_length}"
        )
        outputs = [r.output_len for r in sampled[cell.batch_size]]
        result.failures.extend(check_cell(label, cell, outputs))
        result.fingerprint[f"{label}.speedup"] = repr(cell.speedup)
        result.fingerprint[f"{label}.energy_efficiency"] = repr(
            cell.energy_efficiency
        )
        result.fingerprint[f"{label}.decode_seconds"] = repr(
            cell.summary.decode_seconds
        )
    if set(evaluation.FOUR_SYSTEMS) <= {cell.system for cell in cells}:
        for key, value in evaluation.headline_numbers(cells).items():
            result.fingerprint[f"headline.{key}"] = repr(value)
    result.counters = fig8_counters(cells)
    return result


# -- output checks -------------------------------------------------------


#: Relative slack for comparing two simulated times that the simulator
#: sums in different orders (the engine's makespan is the sum of its
#: component totals; a finish time is the running clock). Both are exact
#: to within float rounding, a few ulps apart.
TIME_RTOL = 1e-12


def _finite_nonneg(values) -> bool:
    return all(math.isfinite(v) and v >= 0.0 for v in values)


def _ends_before(last_finish: float, makespan: float) -> bool:
    return last_finish <= makespan * (1.0 + TIME_RTOL)


def check_run_summary(label: str, summary, expected_tokens: int,
                      last_finish: float) -> List[str]:
    """Seed-independent invariants of one engine or replica summary."""
    failures = []
    placed = sum(summary.fc_target_iterations.values())
    if placed != summary.iterations:
        failures.append(
            f"{label}: fc_target_iterations sum {placed} != "
            f"iterations {summary.iterations}"
        )
    if summary.tokens_generated != expected_tokens:
        failures.append(
            f"{label}: generated {summary.tokens_generated} tokens, "
            f"expected {expected_tokens}"
        )
    if not _finite_nonneg(summary.request_latencies):
        failures.append(f"{label}: a latency is negative or not finite")
    if not _ends_before(last_finish, summary.makespan_seconds):
        failures.append(
            f"{label}: makespan {summary.makespan_seconds!r} < last finish "
            f"{last_finish!r}"
        )
    return failures


def check_cell(label: str, cell, output_lens: Sequence[int]) -> List[str]:
    """Invariants of one Fig. 8 cell: a static batch served to the end."""
    summary = cell.summary
    failures = check_run_summary(
        label, summary, sum(output_lens), max(summary.request_latencies)
    )
    if len(summary.request_latencies) != len(output_lens):
        failures.append(
            f"{label}: served {len(summary.request_latencies)} of "
            f"{len(output_lens)} requests"
        )
    if not (math.isfinite(cell.speedup) and cell.speedup > 0):
        failures.append(f"{label}: speedup {cell.speedup!r}")
    if not (math.isfinite(cell.energy_efficiency)
            and cell.energy_efficiency > 0):
        failures.append(
            f"{label}: energy efficiency {cell.energy_efficiency!r}"
        )
    return failures


def _trace_with_followups(requests) -> List:
    """Every request of a built trace, follow-up turns included."""
    out = []
    for request in requests:
        node = request
        while node is not None:
            out.append(node)
            node = node.followup
    return out


def check_cluster(label: str, summary, requests) -> List[str]:
    """Invariants of one cluster run, independent of the core and seed."""
    from repro.serving.request import RequestState

    failures = []
    for name, tenant in summary.tenants.items():
        if tenant.submitted != tenant.admitted + tenant.rejected:
            failures.append(
                f"{label}: tenant {name} submitted {tenant.submitted} != "
                f"admitted {tenant.admitted} + rejected {tenant.rejected}"
            )
        if tenant.served > tenant.admitted:
            failures.append(
                f"{label}: tenant {name} served {tenant.served} > "
                f"admitted {tenant.admitted}"
            )
    served = [
        r for r in _trace_with_followups(requests)
        if r.state is RequestState.FINISHED
    ]
    expected_tokens = sum(r.output_len for r in served)
    if summary.tokens_generated != expected_tokens:
        failures.append(
            f"{label}: generated {summary.tokens_generated} tokens, "
            f"served requests asked for {expected_tokens}"
        )
    if len(served) != sum(t.served for t in summary.tenants.values()):
        failures.append(f"{label}: finished requests != tenant served sum")
    if not _finite_nonneg(summary.request_latencies):
        failures.append(f"{label}: a latency is negative or not finite")
    last_finish = max((r.finish_s for r in served), default=0.0)
    if not _ends_before(last_finish, summary.makespan_seconds):
        failures.append(
            f"{label}: makespan {summary.makespan_seconds!r} < last finish "
            f"{last_finish!r}"
        )
    for report in summary.replicas:
        placed = sum(report.summary.fc_target_iterations.values())
        if placed != report.iterations:
            failures.append(
                f"{label}: replica {report.replica_id} fc_target_iterations "
                f"sum {placed} != iterations {report.iterations}"
            )
    return failures


# -- fingerprints and counters --------------------------------------------


def cluster_fingerprint(summary) -> Dict[str, str]:
    """Every simulated output of a cluster run, as full-precision repr."""
    fp = {
        "makespan_seconds": repr(summary.makespan_seconds),
        "total_requests": repr(summary.total_requests),
        "tokens_generated": repr(summary.tokens_generated),
        "p50_latency_s": repr(summary.latency_percentile(50)),
        "p99_latency_s": repr(summary.latency_percentile(99)),
        "mean_latency_s": repr(summary.mean_latency),
        "total_reschedules": repr(summary.total_reschedules),
        "replicas": repr([
            (r.requests_served, r.requests_transferred, r.tokens_generated,
             r.iterations, r.reschedules, r.busy_seconds,
             sorted(r.summary.fc_target_iterations.items()))
            for r in summary.replicas
        ]),
        "latencies": hashlib.sha256(
            repr(sorted(summary.request_latencies)).encode()
        ).hexdigest(),
    }
    for name, tenant in summary.tenants.items():
        fp[f"tenant.{name}"] = repr(dataclasses.astuple(tenant))
    for key in ("ttft", "transfer_wait", "prefix_cache", "sessions",
                "step_macro"):
        value = getattr(summary, key)
        if value:
            fp[key] = repr(sorted(value.items()))
    return fp


def cluster_counters(summary, simulator) -> Dict[str, float]:
    """Simulated counters of a cluster run, from the library's stats."""
    counters: Dict[str, float] = {}
    counters["replica.iterations"] = sum(r.iterations for r in summary.replicas)
    macro = summary.step_macro
    compressed = macro.get("iterations_compressed", 0.0)
    taken = macro.get("macro_steps", 0.0)
    declined = sum(v for k, v in macro.items() if k.startswith("fallback_"))
    counters["replica.macro_attempts"] = taken + declined
    counters["replica.macro_take_rate"] = (
        taken / (taken + declined) if taken + declined else 0.0
    )
    counters["replica.macro_share"] = (
        compressed / counters["replica.iterations"]
        if counters["replica.iterations"] else 0.0
    )
    memo = summary.probe_memo
    counters["fleetstate.memo_hit_rate"] = float(memo.get("hit_rate", 0.0))
    counters["fleetstate.runs_coalesced"] = float(
        memo.get("runs_coalesced", 0.0)
    )
    counters["router.cache_hit_rate"] = float(
        summary.router_cache.get("hit_rate", 0.0)
    )
    submitted = sum(t.submitted for t in summary.tenants.values())
    counters["admission.defer_share"] = (
        sum(t.deferrals for t in summary.tenants.values()) / submitted
    )
    counters["admission.reject_share"] = (
        sum(t.rejected for t in summary.tenants.values()) / submitted
    )
    counters["prefixcache.hit_rate"] = float(
        summary.prefix_cache.get("hit_rate", 0.0)
    )
    counters["interconnect.transfers"] = float(
        sum(r.requests_transferred for r in summary.replicas)
    )
    counters["interconnect.transfer_wait_p99_s"] = float(
        summary.transfer_wait.get("p99_s", 0.0)
    )
    counters.update(_stepcache_counters(
        [replica.pricer.step_cache for replica in simulator.replicas]
    ))
    counters.update(
        _scheduler_counters([report.summary for report in summary.replicas])
    )
    return counters


def fig8_counters(cells) -> Dict[str, float]:
    """Simulated counters of the Fig. 8 grid (its engines run no cluster
    layer and no step cache; those counters read 0)."""
    return _scheduler_counters([cell.summary for cell in cells])


def _scheduler_counters(summaries) -> Dict[str, float]:
    placed = sum(sum(s.fc_target_iterations.values()) for s in summaries)
    on_pim = sum(s.fc_target_iterations.get("fc-pim", 0) for s in summaries)
    return {
        "scheduler.reschedules": float(sum(s.reschedules for s in summaries)),
        "scheduler.fc_pim_share": on_pim / placed if placed else 0.0,
    }


def _stepcache_counters(caches) -> Dict[str, float]:
    unique = {id(cache): cache for cache in caches if cache is not None}
    lookups = sum(cache.lookups for cache in unique.values())
    hits = sum(cache.stats()["hits"] for cache in unique.values())
    entries = sum(cache.entries for cache in unique.values())
    # The entry cap is per scope (one scope per distinct system).
    capacity = sum(
        cache.max_entries * max(1, cache.stats()["systems"])
        for cache in unique.values()
    )
    return {
        "stepcache.lookups": float(lookups),
        "stepcache.hit_rate": hits / lookups if lookups else 0.0,
        "stepcache.fill": entries / capacity if capacity else 0.0,
    }
