"""Fleet-version probe memoization: the coalesced-admission contract.

The vectorized core's arrival-run optimizations all hang off one
invariant: the fleet version bumps on every router-visible state change
(``mark_dirty``) and on nothing else, so any verdict memoized at a
version is safely reusable while that version holds still. This suite
pins the invariant directly (version bumps, memo hits/misses across
invalidation, batch-row bit-identity) and end to end: a deferral-storm
scenario — offered load far above capacity, bounded defer/retry — run
through both cores with bit-identical outputs, a floor on the
memo hit rate, and live coalescing counters.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster.fleetstate import FleetState, _PriceGroup
from repro.errors import ConfigurationError
from repro.scenario.build import build_replicas, build_requests
from repro.scenario.run import CORE_CHOICES, apply_core_mode, run_scenario
from repro.scenario.spec import (
    FleetSpec,
    ReplicaSpec,
    RoutingSpec,
    ScenarioSpec,
    SLOSpec,
    TenantSpec,
    TrafficSpec,
    WorkloadSpec,
)


def _storm_scenario(requests: int = 400) -> ScenarioSpec:
    """Offered load far above two replicas' capacity: a deferral storm.

    The interactive tenant's tight deadline plus bounded defer/retry
    keeps rejected/deferred arrivals hammering the admission probe while
    the fleet state holds still — the regime the fleet-version verdict
    memo exists for.
    """
    return ScenarioSpec(
        name="memo-storm",
        seed=23,
        workload=WorkloadSpec(speculation_length=1, context_mode="mean"),
        fleet=FleetSpec(replicas=(ReplicaSpec(count=2, max_batch_size=8),)),
        tenants=(
            TenantSpec(
                name="interactive",
                traffic=TrafficSpec(
                    category="general-qa",
                    requests=requests,
                    rate_per_s=200.0,
                ),
                slo=SLOSpec(
                    p99_seconds=6.0,
                    admission="defer",
                    defer_seconds=0.05,
                    max_defers=4,
                ),
            ),
            TenantSpec(
                name="batch",
                traffic=TrafficSpec(
                    category="general-qa",
                    requests=requests,
                    rate_per_s=200.0,
                ),
            ),
        ),
        routing=RoutingSpec(policy="slo-slack"),
    )


def _comparable(result) -> dict:
    """Everything a study reads, minus instrumentation counters."""
    summary = result.summary
    return {
        "makespan": summary.makespan_seconds,
        "total_requests": summary.total_requests,
        "tokens": summary.tokens_generated,
        "latencies": sorted(summary.request_latencies),
        "reschedules": summary.total_reschedules,
        "replicas": [
            (
                report.requests_served,
                report.tokens_generated,
                report.iterations,
                report.busy_seconds,
                report.summary.decode_energy,
            )
            for report in summary.replicas
        ],
        "tenants": {
            name: dataclasses.asdict(report)
            for name, report in summary.tenants.items()
        },
    }


class TestDeferralStormEquivalence:
    def test_cores_bit_identical_under_storm(self):
        spec = _storm_scenario()
        results = {
            core: run_scenario(apply_core_mode(spec, core))
            for core in CORE_CHOICES
        }
        scalar = _comparable(results["scalar"])
        assert _comparable(results["vectorized"]) == scalar
        # The storm must actually have stormed (deferrals happened).
        interactive = results["scalar"].summary.tenants["interactive"]
        assert interactive.deferrals > 0

    def test_memo_hit_rate_floor_under_storm(self):
        summary = run_scenario(
            apply_core_mode(_storm_scenario(), "vectorized")
        ).summary
        memo = summary.probe_memo
        total = memo["probe_hits"] + memo["probe_misses"]
        assert total > 0
        # Back-to-back storm probes against a frozen fleet version must
        # overwhelmingly answer from the memo. The measured rate on this
        # trace is ~0.9; 0.5 is the contract's floor (the bench pins the
        # same bar at the million-request scale).
        assert memo["hit_rate"] > 0.5
        assert memo["runs_coalesced"] > 0
        assert memo["version_bumps"] > 0


def _fleet_and_requests(count: int = 8):
    spec = apply_core_mode(_storm_scenario(), "vectorized")
    replicas = build_replicas(spec)
    fleet = FleetState(replicas)
    return fleet, build_requests(spec)[:count]


class TestFleetVersion:
    def test_mark_dirty_bumps_version_exactly_once(self):
        fleet, _ = _fleet_and_requests()
        version = fleet.version
        fleet.mark_dirty(0)
        assert fleet.version == version + 1
        fleet.mark_dirty(1)
        assert fleet.version == version + 2
        # Re-marking the same replica within a segment still bumps: the
        # version counts state changes, not distinct dirty lanes.
        fleet.mark_dirty(1)
        assert fleet.version == version + 3

    def test_probes_never_bump_version(self):
        fleet, requests = _fleet_and_requests()
        version = fleet.version
        for request in requests:
            fleet.probe_min_completion(request)
            fleet.route_min_cost(request)
            fleet.route_slo_slack(request, now=request.arrival_s)
        assert fleet.version == version

    def test_query_counters_across_invalidation(self):
        fleet, requests = _fleet_and_requests(count=1)
        request = requests[0]
        assert (fleet.probe_hits, fleet.probe_misses) == (0, 0)
        fleet.probe_min_completion(request)
        assert (fleet.probe_hits, fleet.probe_misses) == (0, 1)
        fleet.probe_min_completion(request)
        assert (fleet.probe_hits, fleet.probe_misses) == (1, 1)
        fleet.mark_dirty(0)  # invalidates every version-keyed memo
        fleet.probe_min_completion(request)
        assert (fleet.probe_hits, fleet.probe_misses) == (1, 2)
        fleet.probe_min_completion(request)
        assert (fleet.probe_hits, fleet.probe_misses) == (2, 2)

    def test_batch_rows_bit_identical_to_scalar_probe(self):
        fleet, requests = _fleet_and_requests(count=30)
        # Saturate both replicas (full batch + backlog) first: with free
        # slots every lane's projection depends on the candidate's input
        # length (the probe-sensitive set) and the batch correctly
        # declines; a saturated fleet is the storm regime it serves.
        cursor = 0
        for index, replica in enumerate(fleet._replicas):
            for _ in range(replica.max_batch_size + 4):
                replica.enqueue(requests[cursor])
                cursor += 1
            replica.poke(0.0)
            fleet.mark_dirty(index)
        members = requests[cursor:]
        mins = fleet.probe_min_batch(members)
        assert mins is not None
        for row, request in zip(mins.tolist(), members):
            assert row == fleet.probe_min_completion(request)

    def test_batch_declines_idle_fleet(self):
        fleet, requests = _fleet_and_requests(count=4)
        # Free slots everywhere: projections are input-sensitive, so the
        # one-pass batch must refuse rather than misprice.
        assert fleet.probe_min_batch(requests) is None

    def test_batch_declines_heterogeneous_fleet(self):
        spec = apply_core_mode(_storm_scenario(), "vectorized")
        spec = dataclasses.replace(
            spec,
            fleet=dataclasses.replace(
                spec.fleet,
                replicas=(
                    ReplicaSpec(count=1, max_batch_size=8),
                    ReplicaSpec(count=1, max_batch_size=4),
                ),
            ),
        )
        fleet = FleetState(build_replicas(spec))
        requests = build_requests(spec)[:4]
        assert fleet.probe_min_batch(requests) is None


class TestApplyCoreMode:
    def test_presets(self):
        spec = _storm_scenario()
        scalar = apply_core_mode(spec, "scalar")
        assert scalar.fleet.detail == "full"
        assert scalar.fleet.load_accounting == "scan"
        assert scalar.fleet.core_mode == "event"
        vectorized = apply_core_mode(spec, "vectorized")
        assert vectorized.fleet.detail == "aggregate"
        assert vectorized.fleet.load_accounting == "incremental"
        assert vectorized.fleet.core_mode == "vectorized"
        # The routing spec is left alone: its ``batched`` field is a
        # schema leftover no core reads.
        assert scalar.routing == vectorized.routing == spec.routing

    # ``event`` names the deleted fleet-batched preset.
    @pytest.mark.parametrize("core", ["warp", "event"])
    def test_rejects_unknown_core(self, core):
        with pytest.raises(ConfigurationError, match="core must be one of"):
            apply_core_mode(_storm_scenario(), core)


class TestPriceTableGrowth:
    """Dense price tables grow only along the axis that overflows."""

    @staticmethod
    def _filled_group():
        group = _PriceGroup(None, None)
        group.ensure(16, 2, 5)
        table = group.table
        # Fill a scatter of entries, leave the rest unpriced (NaN).
        scatter = table[0, ::3, 1, ::2]  # a view: writes land in table
        scatter[...] = np.arange(scatter.size).reshape(scatter.shape) + 0.5
        table[1, 16, 2, 5] = 7.25
        return group, table.copy()

    def test_context_overflow_leaves_rlp_and_tlp_axes(self):
        group, before = self._filled_group()
        group.ensure(3, 1, 40)
        grown = group.table
        assert grown.shape[:3] == before.shape[:3]
        assert grown.shape[3] == 41
        np.testing.assert_array_equal(grown[..., : before.shape[3]], before)
        assert np.isnan(grown[..., before.shape[3]:]).all()

    def test_each_axis_grows_geometrically_and_alone(self):
        group, before = self._filled_group()
        rlp, tlp, ctx = before.shape[1:]
        group.ensure(rlp, 0, 0)
        assert group.table.shape[1:] == (2 * rlp, tlp, ctx)
        group.ensure(0, tlp, 0)
        assert group.table.shape[1:] == (2 * rlp, 2 * tlp, ctx)
        np.testing.assert_array_equal(
            group.table[:, :rlp, :tlp, :ctx], before
        )

    def test_in_range_indices_keep_the_table(self):
        group, _ = self._filled_group()
        table = group.table
        group.ensure(*(size - 1 for size in table.shape[1:]))
        assert group.table is table


class TestPipelineDepthGroups:
    """Systems that differ only in ``pipeline_chunks`` must not share a
    price group: no shared step memo, no dense table priced on the other
    system."""

    @staticmethod
    def _run(vectorized: bool) -> dict:
        from repro.cluster.cluster import (
            ClusterSimulator,
            VectorizedClusterSimulator,
        )
        from repro.cluster.fleetstate import VectorReplica
        from repro.cluster.replica import Replica
        from repro.cluster.router import build_router
        from repro.models.config import get_model
        from repro.serving.arrivals import poisson_arrivals
        from repro.serving.dataset import sample_requests
        from repro.systems.registry import build_system

        replicas = []
        for replica_id, chunks in enumerate((1, 2)):
            system = build_system("papi")
            system.pipeline_chunks = chunks
            cls = VectorReplica if vectorized else Replica
            replicas.append(
                cls(
                    replica_id=replica_id,
                    system=system,
                    model=get_model("llama-65b"),
                    max_batch_size=8,
                    context_mode="mean",
                    detail="aggregate",
                )
            )
        simulator_cls = (
            VectorizedClusterSimulator if vectorized else ClusterSimulator
        )
        requests = poisson_arrivals(
            sample_requests("general-qa", 48, seed=3), rate_per_s=40.0, seed=3
        )
        summary = simulator_cls(replicas, build_router("min-cost")).run(
            requests
        )
        return {
            "makespan": repr(summary.makespan_seconds),
            "replicas": [
                (
                    report.requests_served,
                    report.iterations,
                    repr(report.summary.decode_seconds),
                    repr(report.summary.decode_energy),
                    [repr(v) for v in report.summary.request_latencies],
                )
                for report in summary.replicas
            ],
        }

    def test_groups_split_by_pipeline_depth(self):
        from repro.cluster.fleetstate import VectorReplica
        from repro.models.config import get_model
        from repro.systems.registry import build_system

        replicas = []
        for replica_id, chunks in enumerate((1, 2, 1)):
            system = build_system("papi")
            system.pipeline_chunks = chunks
            replicas.append(
                VectorReplica(
                    replica_id=replica_id,
                    system=system,
                    model=get_model("llama-65b"),
                    max_batch_size=8,
                )
            )
        fleet = FleetState(replicas)
        groups = sorted(group.indices.tolist() for group in fleet._groups)
        assert groups == [[0, 2], [1]]
        assert replicas[0]._price_memo is replicas[2]._price_memo
        assert replicas[0]._price_memo is not replicas[1]._price_memo

    def test_vectorized_fleet_matches_unshared_reference(self):
        vectorized = self._run(vectorized=True)
        reference = self._run(vectorized=False)
        assert vectorized == reference
        # Both replicas served traffic, so the pipelined one's prices
        # were actually exercised.
        assert all(row[0] > 0 for row in reference["replicas"])
