"""Scalar/vectorized cluster equivalence: the optimization contract.

The vectorized core (``fleet.core_mode="vectorized"``: array-backed
fleet probes, O(1) incremental load accounting, streaming metrics)
promises *bit-identical* cluster outputs to the scalar reference
(event-queue core, per-replica reference probes, load rescans, full
per-iteration records). This suite pins that promise across a matrix of
workloads: routers x admission policies x dense/MoE x speculation
depths, plus a seeded fuzz harness that samples the cross-product at
random. If an optimization ever
reorders a routing decision, drifts a float, or drops a tenant counter,
the mismatch surfaces here (and in the ``bench_cluster`` equivalence
gate) instead of silently skewing a study.
"""

import dataclasses
import random

import pytest

from repro.errors import ConfigurationError
from repro.scenario.spec import (
    FleetSpec,
    InterconnectSpec,
    MoESpec,
    ReplicaSpec,
    RoutingSpec,
    ScenarioSpec,
    SLOSpec,
    TenantSpec,
    TrafficSpec,
    WorkloadSpec,
)
from repro.scenario import run as scenario_run
from repro.scenario.run import apply_core_mode, run_scenario
from repro.systems.papi import PAPISystem


def _scenario(
    policy: str,
    admission: str = "admit",
    moe: bool = False,
    speculation_length: int = 2,
    context_mode: str = "per-request",
    requests: int = 48,
    replicas: int = 3,
    acceptance_rate: float = 0.8,
    disaggregated: bool = False,
    systems: tuple = ("papi",),
) -> ScenarioSpec:
    tenants = [
        TenantSpec(
            name="interactive",
            traffic=TrafficSpec(requests=requests, rate_per_s=24.0),
            slo=SLOSpec(
                p99_seconds=20.0,
                admission=admission,
            ) if admission != "admit" else SLOSpec(p99_seconds=20.0),
        ),
        TenantSpec(
            name="batch",
            traffic=TrafficSpec(
                category="general-qa", requests=requests, rate_per_s=24.0
            ),
        ),
    ]
    workload = WorkloadSpec(
        speculation_length=speculation_length,
        acceptance_rate=acceptance_rate,
        context_mode=context_mode,
        moe=MoESpec(num_experts=8, experts_per_token=2) if moe else None,
    )
    if disaggregated:
        # Decode replicas admit transferred requests mid-life: their
        # slots start with tokens already generated.
        fleet = FleetSpec(
            replicas=(
                ReplicaSpec(count=1, max_batch_size=8, role="prefill"),
                ReplicaSpec(count=replicas, max_batch_size=8, role="decode"),
            ),
            interconnect=InterconnectSpec(),
        )
    else:
        # One group of ``replicas`` per system: a mixed fleet when
        # several systems are named.
        fleet = FleetSpec(
            replicas=tuple(
                ReplicaSpec(system=system, count=replicas, max_batch_size=8)
                for system in systems
            )
        )
    return ScenarioSpec(
        name="equivalence",
        seed=11,
        workload=workload,
        fleet=fleet,
        tenants=tuple(tenants),
        routing=RoutingSpec(policy=policy),
    )


def _scalar(spec: ScenarioSpec) -> ScenarioSpec:
    """The reference: event-queue core, scalar probes, scans, records."""
    return apply_core_mode(spec, "scalar")


def _vectorized(spec: ScenarioSpec) -> ScenarioSpec:
    """The array-backed core: fleet probes, counters, aggregates."""
    return apply_core_mode(spec, "vectorized")


def aggregate_fields(result) -> dict:
    """Every output of a cluster run except instrumentation counters.

    ``router_cache`` statistics are deliberately excluded: scope-shared
    caches count hits/misses differently from per-system ones. Everything
    a study reads — latencies, throughput, placement, energy, per-tenant
    SLO accounting — is compared exactly.
    """
    summary = result.summary
    return {
        "router": summary.router,
        "makespan": summary.makespan_seconds,
        "total_requests": summary.total_requests,
        "tokens": summary.tokens_generated,
        "latencies": sorted(summary.request_latencies),
        "p50": summary.latency_percentile(50),
        "p99": summary.latency_percentile(99),
        "mean": summary.mean_latency,
        "reschedules": summary.total_reschedules,
        "replicas": [
            {
                "served": report.requests_served,
                "tokens": report.tokens_generated,
                "iterations": report.iterations,
                "busy": report.busy_seconds,
                "utilization": report.utilization,
                "reschedules": report.reschedules,
                "acceptance": report.acceptance_rate,
                "expert_visits": report.expert_token_visits,
                "active_experts": report.mean_active_experts,
                "decode_seconds": report.summary.decode_seconds,
                "decode_energy": report.summary.decode_energy,
                "prefill_seconds": report.summary.prefill_seconds,
                "queueing_seconds": report.summary.queueing_seconds,
                "fc_targets": dict(report.summary.fc_target_iterations),
                "time_breakdown": dict(report.summary.time_breakdown),
                "energy_breakdown": dict(report.summary.energy_breakdown),
            }
            for report in summary.replicas
        ],
        "tenants": {
            name: dataclasses.asdict(report)
            for name, report in summary.tenants.items()
        },
    }


def _case(policy, admission, moe, spec_len, chunks, id, **workload):
    """One matrix row; ``workload`` overrides further ``_scenario``
    inputs (acceptance rate, context mode, disaggregated pools)."""
    return pytest.param(
        policy, admission, moe, spec_len, chunks, workload, id=id
    )


CASES = [
    _case("min-cost", "admit", False, 2, 1, "min-cost-dense"),
    _case("min-cost", "admit", True, 2, 1, "min-cost-moe"),
    _case("intensity", "admit", False, 2, 1, "intensity-dense"),
    _case("intensity", "defer", False, 1, 1, "intensity-defer-serial"),
    _case("slo-slack", "admit", False, 2, 1, "slo-slack-dense"),
    _case("slo-slack", "reject", False, 2, 1, "slo-slack-reject"),
    _case("slo-slack", "defer", False, 4, 1, "slo-slack-defer-spec4"),
    _case("slo-slack", "defer", True, 2, 1, "slo-slack-defer-moe"),
    _case("least-outstanding", "reject", False, 2, 1, "least-reject"),
    # Per-request contexts on a two-chunk pipelined system: step prices
    # key by one context total per chunk.
    _case("slo-slack", "defer", False, 2, 2, "slo-slack-pipelined"),
    _case("min-cost", "admit", True, 2, 2, "min-cost-moe-pipelined"),
    # Steady decode-slot ledgers: every slot accepts a constant per
    # step with no draw (s=3 at acceptance 1.0, in both context modes).
    _case("slo-slack", "defer", False, 3, 1, "slo-slack-steady-spec3",
          acceptance_rate=1.0),
    _case("min-cost", "admit", False, 3, 1, "min-cost-steady-spec3-mean",
          acceptance_rate=1.0, context_mode="mean"),
    # Steady serial slots priced from their per-request contexts: the
    # pipelined key reads every slot's context through the ledger.
    _case("min-cost", "reject", False, 1, 2, "min-cost-serial-pipelined"),
    # Disaggregated decode pools: slots admitted mid-life, both modes.
    _case("least-outstanding", "admit", False, 2, 1, "disagg-sampled",
          disaggregated=True),
    _case("min-cost", "admit", False, 1, 1, "disagg-steady-mean",
          context_mode="mean", disaggregated=True),
    # Replicas without a load signal (A100+AttAcc places FC statically):
    # intensity ranks them through the reference step probe, on the
    # vectorized core's replicas too.
    _case("intensity", "admit", False, 2, 1, "intensity-papi-attacc",
          replicas=2, systems=("papi", "a100-attacc")),
]


class TestCoreEquivalence:
    @pytest.mark.parametrize(
        "policy,admission,moe,spec_len,chunks,workload", CASES
    )
    def test_bit_identical_outputs(
        self, monkeypatch, policy, admission, moe, spec_len, chunks, workload
    ):
        monkeypatch.setattr(PAPISystem, "pipeline_chunks", chunks)
        spec = _scenario(
            policy, admission=admission, moe=moe, speculation_length=spec_len,
            **workload,
        )
        scalar = aggregate_fields(run_scenario(_scalar(spec)))
        vectorized = aggregate_fields(run_scenario(_vectorized(spec)))
        assert vectorized == scalar
        pipelined = any(
            "overlap" in replica["time_breakdown"]
            for replica in scalar["replicas"]
        )
        assert pipelined == (chunks > 1)

    def test_mean_context_mode_equivalent(self):
        spec = _scenario("slo-slack", admission="defer", context_mode="mean")
        scalar = aggregate_fields(run_scenario(_scalar(spec)))
        vectorized = aggregate_fields(run_scenario(_vectorized(spec)))
        assert vectorized == scalar

    def test_mixed_fleet_groups_split_by_workload(self):
        """A mixed MoE + dense fleet on identical hardware must not let
        fleet price groups collapse different workloads into one table."""
        base = _scenario("min-cost")
        moe_group = ReplicaSpec(
            count=2,
            max_batch_size=8,
            workload=dataclasses.replace(
                base.workload, moe=MoESpec(num_experts=8, experts_per_token=2)
            ),
        )
        dense_group = ReplicaSpec(count=2, max_batch_size=8)
        spec = dataclasses.replace(
            base,
            fleet=dataclasses.replace(
                base.fleet, replicas=(moe_group, dense_group)
            ),
        )
        scalar = aggregate_fields(run_scenario(_scalar(spec)))
        vectorized = aggregate_fields(run_scenario(_vectorized(spec)))
        assert vectorized == scalar

    def test_aggregate_detail_drops_records_only(self):
        spec = _scenario("min-cost")
        full = run_scenario(spec)
        aggregate = run_scenario(
            dataclasses.replace(
                spec, fleet=dataclasses.replace(spec.fleet, detail="aggregate")
            )
        )
        for full_report, agg_report in zip(
            full.summary.replicas, aggregate.summary.replicas
        ):
            assert full_report.summary.records, "full mode keeps records"
            assert agg_report.summary.records == []
            assert agg_report.summary.rlp_trace() == []
            assert (
                full_report.summary.request_latencies
                == agg_report.summary.request_latencies
            )
        assert aggregate_fields(full) == aggregate_fields(aggregate)

    def test_load_accounting_counters_match_scans(self):
        """The incremental counters answer exactly what a rescan would."""
        from repro.scenario.build import (
            build_replicas,
            build_requests,
            build_routing,
        )
        from repro.cluster.cluster import ClusterSimulator
        from repro.serving.clock import EventKind

        # Scalar-core replicas: the scan below reads Request.generated,
        # which vectorized replicas keep in their decode-slot ledger.
        spec = _scenario("min-cost", requests=32, replicas=2)
        spec = dataclasses.replace(
            spec, fleet=dataclasses.replace(spec.fleet, core_mode="event")
        )
        replicas = build_replicas(spec)
        probed = []

        class ProbingSimulator(ClusterSimulator):
            def run(self, requests):  # pragma: no cover - thin shim
                return super().run(requests)

        simulator = ProbingSimulator(replicas, build_routing(spec))
        # Interpose on the router to cross-check counters mid-run.
        original_select = simulator.router.select

        def checking_select(request, fleet, now):
            for replica in fleet:
                incremental = replica.outstanding_remaining_tokens()
                scan = sum(
                    r.output_len - r.generated for r in replica.active
                ) + sum(r.output_len for r in replica.waiting)
                assert incremental == scan
                rlp_fast, mean_fast = replica.projected_admission_load(
                    request.input_len
                )
                replica.load_accounting = "scan"
                rlp_scan, mean_scan = replica.projected_admission_load(
                    request.input_len
                )
                replica.load_accounting = "incremental"
                assert (rlp_fast, mean_fast) == (rlp_scan, mean_scan)
                probed.append(replica.replica_id)
            return original_select(request, fleet, now)

        simulator.router.select = checking_select
        simulator.run(build_requests(spec))
        assert probed, "router probes exercised the counters"

    @pytest.mark.parametrize(
        "policy,context_mode",
        [("min-cost", "per-request"), ("slo-slack", "mean")],
    )
    def test_reference_probes_match_fleet_lanes(self, policy, context_mode):
        """Mid-run on the vectorized core, the reference probes on each
        replica price exactly the FleetState lane for that replica."""
        from repro.cluster.router import (
            projected_completion_seconds,
            projected_step_seconds,
        )
        from repro.cluster.cluster import VectorizedClusterSimulator
        from repro.scenario.build import (
            build_replicas,
            build_requests,
            build_routing,
        )

        spec = _vectorized(
            _scenario(policy, requests=48, context_mode=context_mode)
        )
        simulator = VectorizedClusterSimulator(
            build_replicas(spec), build_routing(spec)
        )
        original_select = simulator.router.select
        lanes = []

        def checking_select(request, fleet, now):
            steps = fleet.fleet_step_seconds(request)
            completions = fleet.fleet_completion_seconds(request)
            assert steps == [
                projected_step_seconds(replica, request) for replica in fleet
            ]
            assert completions == [
                projected_completion_seconds(replica, request)
                for replica in fleet
            ]
            lanes.extend(steps)
            return original_select(request, fleet, now)

        simulator.router.select = checking_select
        simulator.run(build_requests(spec))
        assert len(lanes) == 96 * len(simulator.replicas)


class TestBucketedContextEquivalence:
    """Bucketed per-request contexts: the vectorized core's group memo
    keys by the pricer's context key, not the O(1) active-context sum."""

    @pytest.mark.parametrize("chunks", [1, 2], ids=["serial", "chunks2"])
    def test_cores_agree(self, monkeypatch, chunks):
        monkeypatch.setattr(PAPISystem, "pipeline_chunks", chunks)
        build_replicas = scenario_run.build_replicas

        def bucketed(spec):
            replicas = build_replicas(spec)
            for replica in replicas:
                replica.pricer.context_bucket = 32
            return replicas

        monkeypatch.setattr(scenario_run, "build_replicas", bucketed)
        spec = _scenario("min-cost")
        scalar = aggregate_fields(run_scenario(_scalar(spec)))
        assert aggregate_fields(run_scenario(_vectorized(spec))) == scalar


FUZZ_ROUTERS = (
    "round-robin", "least-outstanding", "intensity", "min-cost", "slo-slack"
)
FUZZ_ADMISSIONS = ("admit", "defer", "reject")
FUZZ_TLP_POLICIES = ("fixed", "acceptance", "utilization")


class TestVectorizedCoreFuzz:
    """Seeded random sampling of the configuration cross-product.

    Each case draws a router, admission policy, dense/MoE workload,
    speculation depth, context mode, TLP policy, detail mode, trace
    seed, and fleet shape from a deterministic RNG, then demands the
    vectorized and scalar cores agree bit-for-bit. The cases
    are reproducible (fixed base seed per case index) so a failure here
    is a regression, never flakiness.
    """

    @pytest.mark.parametrize("case_seed", range(6))
    def test_cores_agree(self, case_seed):
        rng = random.Random(9000 + case_seed)
        spec = _scenario(
            rng.choice(FUZZ_ROUTERS),
            admission=rng.choice(FUZZ_ADMISSIONS),
            moe=rng.random() < 0.4,
            speculation_length=rng.choice((1, 2, 4)),
            context_mode=rng.choice(("per-request", "mean")),
            requests=rng.randrange(16, 33),
            replicas=rng.choice((2, 3)),
        )
        spec = dataclasses.replace(
            spec,
            seed=rng.randrange(1, 10_000),
            workload=dataclasses.replace(
                spec.workload, tlp_policy=rng.choice(FUZZ_TLP_POLICIES)
            ),
        )
        vec_spec = _vectorized(spec)
        if rng.random() < 0.5:
            # The vectorized core must match under full detail too.
            vec_spec = dataclasses.replace(
                vec_spec,
                fleet=dataclasses.replace(vec_spec.fleet, detail="full"),
            )
        scalar = aggregate_fields(run_scenario(_scalar(spec)))
        vectorized = aggregate_fields(run_scenario(vec_spec))
        assert vectorized == scalar


class TestCoreModeSpec:
    def test_vectorized_is_the_default_core(self):
        assert FleetSpec().core_mode == "vectorized"
        assert scenario_run.CORE_CHOICES == ("scalar", "vectorized")

    def test_unknown_core_mode_rejected(self):
        spec = _scenario("min-cost")
        spec = dataclasses.replace(
            spec, fleet=dataclasses.replace(spec.fleet, core_mode="turbo")
        )
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_vectorized_requires_incremental_accounting(self):
        spec = _scenario("min-cost")
        spec = dataclasses.replace(
            spec,
            fleet=dataclasses.replace(
                spec.fleet, core_mode="vectorized", load_accounting="scan"
            ),
        )
        with pytest.raises(ConfigurationError):
            spec.validate()


def _many_tenant_spec(tenants: int = 5, requests: int = 12) -> ScenarioSpec:
    """A spec with several independent tenants for sharding tests."""
    categories = ("creative-writing", "general-qa")
    tenant_specs = tuple(
        TenantSpec(
            name=f"tenant-{index}",
            traffic=TrafficSpec(
                category=categories[index % len(categories)],
                requests=requests,
                rate_per_s=16.0 + 4.0 * index,
            ),
            slo=(
                SLOSpec(p99_seconds=20.0, admission="defer")
                if index % 2
                else SLOSpec(p99_seconds=20.0)
            ),
        )
        for index in range(tenants)
    )
    return ScenarioSpec(
        name="sharded",
        seed=23,
        workload=WorkloadSpec(speculation_length=2),
        fleet=FleetSpec(replicas=(ReplicaSpec(count=2, max_batch_size=8),)),
        tenants=tenant_specs,
        routing=RoutingSpec(policy="slo-slack"),
    )


def _traces_by_tenant(spec: ScenarioSpec) -> dict:
    """Tenant name -> the trace facts that define the stream."""
    from repro.scenario.build import build_requests

    traces: dict = {}
    for request in build_requests(spec):
        traces.setdefault(request.tenant, []).append(
            (
                request.arrival_s,
                request.input_len,
                request.output_len,
                request.deadline_s,
            )
        )
    return traces


class TestShardedScenarios:
    """``run_scenario(spec, shards=N)``: trace determinism and merging."""

    @pytest.mark.parametrize("shards", [2, 3, 5, 8])
    def test_per_tenant_traces_bit_identical(self, shards):
        """Every tenant's stream is the single-process stream, any N.

        The pinned ``seed_offset`` keeps tenant ``i`` drawing from
        ``spec.seed + i`` no matter which shard serves it or how many
        tenants share that shard.
        """
        from repro.scenario.run import _shard_specs

        spec = _many_tenant_spec()
        baseline = _traces_by_tenant(spec)
        seen: dict = {}
        for sub_spec in _shard_specs(spec, shards):
            seen.update(_traces_by_tenant(sub_spec))
        assert seen == baseline

    def test_sharded_run_merges_shard_results(self):
        from repro.scenario.run import _shard_specs

        spec = _many_tenant_spec(tenants=4, requests=8)
        merged = run_scenario(spec, shards=2)
        parts = [run_scenario(sub) for sub in _shard_specs(spec, 2)]
        assert merged.summary.total_requests == sum(
            part.summary.total_requests for part in parts
        )
        assert merged.summary.makespan_seconds == max(
            part.summary.makespan_seconds for part in parts
        )
        assert [r.replica_id for r in merged.summary.replicas] == list(
            range(sum(len(part.summary.replicas) for part in parts))
        )
        assert list(merged.summary.tenants) == [
            tenant.name for tenant in spec.tenants
        ]
        for part in parts:
            for name, report in part.summary.tenants.items():
                assert merged.summary.tenants[name] == report

    def test_sharded_vectorized_matches_sharded_scalar_core(self):
        spec = _many_tenant_spec(tenants=4, requests=8)
        scalar = run_scenario(_scalar(spec), shards=2)
        vectorized = run_scenario(_vectorized(spec), shards=2)
        assert aggregate_fields(vectorized) == aggregate_fields(scalar)

    def test_more_shards_than_tenants_drops_empty_shards(self):
        from repro.scenario.run import _shard_specs

        spec = _many_tenant_spec(tenants=3)
        sub_specs = _shard_specs(spec, 8)
        assert len(sub_specs) == 3
        assert all(len(sub.tenants) == 1 for sub in sub_specs)

    def test_single_tenant_spec_ignores_sharding(self):
        spec = _many_tenant_spec(tenants=1)
        assert aggregate_fields(run_scenario(spec, shards=4)) == (
            aggregate_fields(run_scenario(spec))
        )

    def test_non_positive_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scenario(_many_tenant_spec(), shards=0)
