"""The benchmark's workloads: pinned to the repo's own scenarios, seeded."""

import os

import pytest

from perfbench import workloads
from repro.scenario.build import build_requests


def _trace_key(spec):
    return [
        (r.request_id, r.tenant, r.input_len, r.output_len, r.arrival_s,
         r.followup.output_len if r.followup is not None else None)
        for r in build_requests(spec)
    ]


@pytest.mark.skipif(
    "BENCH_CLUSTER_REQUESTS" in os.environ
    or "BENCH_CLUSTER_REPLICAS" in os.environ,
    reason="bench_cluster's headline shape is overridden from the environment",
)
def test_fleet_slo_is_the_headline_family():
    from benchmarks.bench_cluster import headline_scenario
    from repro.scenario.run import apply_core_mode

    expected = apply_core_mode(headline_scenario(50_000), "vectorized")
    spec = workloads.fleet_slo_spec(workloads.DEFAULT_SEEDS["fleet-slo"])
    assert spec.to_dict() == expected.to_dict()


def test_fleet_slo_trace_is_drawn_from_the_seed():
    def build(seed):
        return workloads.fleet_slo_spec(seed, **workloads.SMOKE_SIZES["fleet-slo"])

    assert _trace_key(build(3)) == _trace_key(build(3))
    assert _trace_key(build(3)) != _trace_key(build(4))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_outputs_are_deterministic_per_seed_and_differ_across_seeds(name):
    first = workloads.run_workload(name, 3, smoke=True)
    again = workloads.run_workload(name, 3, smoke=True)
    other = workloads.run_workload(name, 4, smoke=True)
    assert first.failures == [] and other.failures == []
    assert first.fingerprint == again.fingerprint
    assert first.fingerprint != other.fingerprint
    if name == "paper-fig8":
        assert first.attempted == 8  # 1 model x 1 batch x 2 specs x 4 systems


def test_sessions_spec_is_valid_and_sized():
    spec = workloads.sessions_disagg_spec(1)
    spec.validate()
    turns = spec.tenants[0].traffic.session.turns
    total = (
        spec.tenants[0].traffic.requests * turns
        + spec.tenants[1].traffic.requests
    )
    assert total == 5000


def test_fig8_matches_the_paper_path_at_its_seed():
    from repro.analysis.evaluation import fig8_end_to_end

    sizes = workloads.SMOKE_SIZES["paper-fig8"]
    ours = workloads.run_workload("paper-fig8", 11, smoke=True)
    for cell in fig8_end_to_end(seed=11, **sizes):
        label = (
            f"{cell.model}/{cell.system}/b{cell.batch_size}"
            f"/s{cell.speculation_length}"
        )
        assert ours.fingerprint[f"{label}.speedup"] == repr(cell.speedup)
        assert ours.fingerprint[f"{label}.energy_efficiency"] == repr(
            cell.energy_efficiency
        )


def test_checks_catch_a_broken_summary():
    result = workloads.run_workload("fleet-slo", 5, smoke=True)
    assert result.failures == []

    class Tenant:
        submitted, admitted, rejected, served = 10, 7, 2, 8

    class Summary:
        tenants = {"t": Tenant()}
        tokens_generated = 1
        request_latencies = [0.5, float("nan")]
        makespan_seconds = 0.0
        replicas = []

    failures = workloads.check_cluster("broken", Summary(), [])
    text = "\n".join(failures)
    assert "submitted 10 != admitted 7 + rejected 2" in text
    assert "served 8 > admitted 7" in text
    assert "generated 1 tokens" in text
    assert "latency" in text
