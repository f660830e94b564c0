"""Span recording, self-time arithmetic, and trace transparency."""

import pytest

from perfbench import tracing, workloads


def test_self_time_subtracts_nested_children():
    # root [0, 10] > child [2, 6] > grandchild [3, 5]
    starts, ends, parents = [0.0, 2.0, 3.0], [10.0, 6.0, 5.0], [-1, 0, 1]
    assert tracing.self_times(starts, ends, parents) == [6.0, 2.0, 2.0]


def test_self_time_back_to_back_and_overlapping_children():
    # Back-to-back children [1, 3] and [3, 4]; a third overlapping [3.5, 5]
    # counts only its uncovered half-second.
    starts = [0.0, 1.0, 3.0, 3.5]
    ends = [6.0, 3.0, 4.0, 5.0]
    parents = [-1, 0, 0, 0]
    selfs = tracing.self_times(starts, ends, parents)
    assert selfs[0] == pytest.approx(6.0 - 4.0)
    assert selfs[1:] == [2.0, 1.0, 1.5]


def test_self_time_clips_children_to_the_parent():
    assert tracing.self_times([0.0, -1.0], [2.0, 1.0], [-1, 0])[0] == 1.0


def test_tracer_records_nesting_and_outermost_calls():
    tracer = tracing.Tracer()

    def leaf():
        return 1

    traced_leaf = tracer.wrap("leaf", leaf)

    def recurse(depth):
        return traced_leaf() + (traced_recurse(depth - 1) if depth else 0)

    traced_recurse = tracer.wrap("node", recurse)
    assert traced_recurse(2) == 3
    assert len(tracer) == 6
    assert list(tracer.parents) == [-1, 0, 0, 2, 2, 4]
    stats = tracing.summarize(tracer)
    assert stats["node"]["calls"] == 1  # nested same-name spans are one call
    assert stats["leaf"]["calls"] == 3
    total = stats["node"]["self_s"] + stats["leaf"]["self_s"]
    root = tracer.ends[0] - tracer.starts[0]
    assert total == pytest.approx(root)


def test_install_reaches_every_layer_and_uninstalls():
    from repro.cluster.fleetstate import FleetState
    from repro.serving import engine

    original_probe = FleetState.__dict__["probe_steps"]
    original_build = engine.build_decode_step
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert FleetState.__dict__["probe_steps"] is not original_probe
        assert engine.build_decode_step is not original_build
        wrapped = {name for name, *_ in tracing.LAYER_ENTRY_POINTS}
        assert set(tracer.names) == wrapped
    finally:
        uninstall()
    assert FleetState.__dict__["probe_steps"] is original_probe
    assert engine.build_decode_step is original_build


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tracing_does_not_perturb_outputs(name):
    plain = workloads.run_workload(name, 5, smoke=True)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced = workloads.run_workload(name, 5, smoke=True)
    finally:
        uninstall()
    assert traced.fingerprint == plain.fingerprint
    stats = tracing.summarize(tracer)
    assert stats["systems.step"]["calls"] > 0
    if name == "paper-fig8":
        assert stats["cluster.run"]["calls"] == 0
        assert stats["fleetstate.probe"]["calls"] == 0
    else:
        assert stats["cluster.run"]["calls"] == 1
        assert stats["clock"]["calls"] > 0
