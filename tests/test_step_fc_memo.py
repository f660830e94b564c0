"""The FC-half memo: a decode step's context-free price is reused exactly.

``ServingSystem.execute_step`` prices the three FC kernels, the attention
I/O over the link and the background power once per (placement, model,
MoE config, rlp, tlp) and re-prices only attention per step. These tests
pin that reuse as bit-identical:

* against a fresh system (empty memo) and against a reference that
  re-prices all four kernels per step the way the per-step loop did,
  across every registered system, serial and pipelined dispatch, dense
  and MoE, mean and per-request contexts;
* after a device or link field is reassigned (the step is re-priced);
* by counting FC device calls (one FC half per distinct key).
"""

import pytest

from repro.core.placement import PlacementTarget
from repro.devices.gpu import GPUGroup
from repro.devices.interconnect import CXL, NVLINK
from repro.devices.pim import ATTN_PIM_CONFIG, FC_PIM_CONFIG, PIMDeviceGroup
from repro.models.config import get_model
from repro.models.kernels import projection_cost, qkv_cost
from repro.models.moe import MoEModelConfig
from repro.models.workload import DecodeStep, build_decode_step, step_ffn_cost
from repro.systems.base import IterationResult, attention_io_bytes
from repro.systems.baselines import A100AttAccSystem
from repro.systems.papi import PAPISystem
from repro.systems.registry import available_systems, build_system

MODEL = get_model("llama-65b")
MOE = MoEModelConfig(
    base=MODEL, num_experts=16, experts_per_token=2,
    expert_ffn_dim=MODEL.ffn_dim // 16,
)

#: (rlp, tlp, contexts): repeated (rlp, tlp) at varying contexts, both
#: sides of PAPI's default alpha, odd and even pipeline splits.
POINTS = (
    (4, 2, (100, 250, 31, 700)),
    (4, 2, (120, 90, 64, 2048)),
    (4, 2, (1, 1, 1, 1)),
    (7, 1, (10, 20, 30, 40, 50, 60, 70)),
    (7, 1, (500,) * 7),
    (33, 4, tuple(range(100, 133))),
    (33, 4, tuple(range(900, 933))),
    (4, 2, (3000, 5, 5, 5)),
)


def steps(moe, per_request):
    for rlp, tlp, contexts in POINTS:
        mean = max(1, round(sum(contexts) / rlp))
        yield build_decode_step(
            MODEL, rlp, tlp, mean,
            context_lens=contexts if per_request else None, moe=moe,
        )


def make_system(name, chunks):
    system = build_system(name)
    system.pipeline_chunks = chunks
    return system


def reference_serial(system, step: DecodeStep) -> IterationResult:
    """All four kernels, the link and background power priced per step."""
    fc_target = system.plan_fc_target(step.rlp, step.tlp)
    fc_device = system.fc_unit_for(fc_target)
    attn_device = system.attention_unit()
    fc_seconds = fc_energy = attn_seconds = attn_energy = 0.0
    for invocation in step.invocations:
        layers = invocation.num_layers
        if invocation.kind.is_fc:
            result = fc_device.execute(invocation.per_layer)
            fc_seconds += result.seconds * layers
            fc_energy += result.energy_joules * layers
        else:
            result = attn_device.execute(invocation.per_layer)
            attn_seconds += result.seconds * layers
            attn_energy += result.energy_joules * layers
    comm_seconds, comm_energy = reference_link(system, step)
    other = system.host_overhead_s
    total = fc_seconds + attn_seconds + comm_seconds + other
    background = system.background_power_watts() * total
    return IterationResult(
        seconds=total,
        energy_joules=fc_energy + attn_energy + comm_energy + background,
        time_breakdown={
            "fc": fc_seconds, "attention": attn_seconds,
            "communication": comm_seconds, "other": other,
        },
        energy_breakdown={
            "fc": fc_energy, "attention": attn_energy,
            "communication": comm_energy, "other": background,
        },
        fc_target=fc_target,
        rlp=step.rlp,
        tlp=step.tlp,
    )


def reference_link(system, step):
    link = system.attention_link()
    io_bytes = attention_io_bytes(step.model, step.rlp * step.tlp)
    return (
        link.transfer_time(io_bytes, messages=2 * step.model.num_layers),
        link.transfer_energy(io_bytes),
    )


def reference_pipelined(system, step: DecodeStep, chunks) -> IterationResult:
    """Each chunk rebuilt as a full step and priced kernel by kernel."""
    base, extra = divmod(step.rlp, chunks)
    sizes = [s for s in (base + (i < extra) for i in range(chunks)) if s]
    fc_target = system.plan_fc_target(step.rlp, step.tlp)
    fc_device = system.fc_unit_for(fc_target)
    attn_device = system.attention_unit()
    fc_done = attn_done = 0.0
    fc_seconds = attn_seconds = comm_seconds = 0.0
    fc_energy = attn_energy = comm_energy = 0.0
    offset = 0
    for size in sizes:
        lens = None
        mean = step.mean_context_len
        if step.context_lens is not None:
            lens = step.context_lens[offset:offset + size]
            mean = max(1, round(sum(lens) / size))
        offset += size
        sub = build_decode_step(
            step.model, size, step.tlp, mean, context_lens=lens, moe=step.moe
        )
        chunk_fc = chunk_attn = 0.0
        for invocation in sub.invocations:
            layers = invocation.num_layers
            if invocation.kind.is_fc:
                result = fc_device.execute(invocation.per_layer)
                chunk_fc += result.seconds * layers
                fc_energy += result.energy_joules * layers
            else:
                result = attn_device.execute(invocation.per_layer)
                chunk_attn += result.seconds * layers
                attn_energy += result.energy_joules * layers
        chunk_comm, chunk_comm_energy = reference_link(system, sub)
        fc_seconds += chunk_fc
        attn_seconds += chunk_attn
        comm_seconds += chunk_comm
        comm_energy += chunk_comm_energy
        fc_done += chunk_fc
        attn_done = max(attn_done, fc_done) + chunk_attn + chunk_comm
    other = system.host_overhead_s
    total = attn_done + other
    background = system.background_power_watts() * total
    return IterationResult(
        seconds=total,
        energy_joules=fc_energy + attn_energy + comm_energy + background,
        time_breakdown={
            "fc": fc_seconds, "attention": attn_seconds,
            "communication": comm_seconds, "other": other,
            "overlap": -max(0.0, fc_seconds + attn_seconds + comm_seconds
                            + other - total),
        },
        energy_breakdown={
            "fc": fc_energy, "attention": attn_energy,
            "communication": comm_energy, "other": background,
        },
        fc_target=fc_target,
        rlp=step.rlp,
        tlp=step.tlp,
    )


def reference(system, step):
    chunks = system.pipeline_chunks
    if chunks > 1 and step.rlp >= chunks:
        return reference_pipelined(system, step, chunks)
    return reference_serial(system, step)


def assert_bit_equal(got: IterationResult, want: IterationResult):
    assert got == want
    assert got.seconds.hex() == want.seconds.hex()
    assert got.energy_joules.hex() == want.energy_joules.hex()
    for key, value in want.time_breakdown.items():
        assert got.time_breakdown[key].hex() == value.hex(), key
    for key, value in want.energy_breakdown.items():
        assert got.energy_breakdown[key].hex() == value.hex(), key


class TestWarmMemoIsBitIdentical:
    @pytest.mark.parametrize("name", available_systems())
    @pytest.mark.parametrize("chunks", [1, 2], ids=["serial", "chunks2"])
    @pytest.mark.parametrize("moe", [None, MOE], ids=["dense", "moe"])
    @pytest.mark.parametrize("per_request", [False, True],
                             ids=["mean", "per-request"])
    def test_matches_fresh_system_and_reference(
        self, name, chunks, moe, per_request
    ):
        warm = make_system(name, chunks)
        for step in steps(moe, per_request):
            got = warm.execute_step(step)
            assert_bit_equal(got, make_system(name, chunks).execute_step(step))
            assert_bit_equal(got, reference(make_system(name, chunks), step))

    def test_placement_is_part_of_the_key(self):
        """The same (rlp, tlp) on another placement — here the scheduler's
        standing decision, which no system field records — gets its own
        FC half."""
        system = PAPISystem()
        step = build_decode_step(MODEL, 16, 1, 256)
        stateless = system.execute_step(step)
        system.scheduler.alpha = 4.0
        system.begin_batch(batch_size=16, speculation_length=1)
        standing = system.execute_step(step)
        assert (stateless.fc_target, standing.fc_target) == (
            PlacementTarget.FC_PIM, PlacementTarget.PU
        )
        assert_bit_equal(standing, reference(system, step))


class TestReassignmentReprices:
    STEP = build_decode_step(MODEL, 16, 2, 512)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("link", CXL),
            ("link", NVLINK),
            ("gpus", GPUGroup(count=3)),
            ("fc_pim", PIMDeviceGroup(FC_PIM_CONFIG, 15)),
            ("attn_pim", PIMDeviceGroup(ATTN_PIM_CONFIG, 30)),
        ],
    )
    @pytest.mark.parametrize("rlp", [2, 16], ids=["fc-pim", "pu"])
    def test_field_reassignment(self, field, value, rlp):
        step = build_decode_step(MODEL, rlp, 2, 512)
        system = PAPISystem()
        before = system.execute_step(step)
        setattr(system, field, value)
        after = system.execute_step(step)
        assert_bit_equal(after, PAPISystem(**{field: value}).execute_step(step))
        assert after != before

    def test_pipelined_chunks_see_the_new_link(self):
        system = PAPISystem()
        system.pipeline_chunks = 2
        system.execute_step(self.STEP)
        system.link = CXL
        fresh = PAPISystem(link=CXL)
        fresh.pipeline_chunks = 2
        assert_bit_equal(
            system.execute_step(self.STEP), fresh.execute_step(self.STEP)
        )


class CountingDevice:
    """Forwards to a real device and counts scalar executions."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def execute(self, cost):
        self.calls += 1
        return self._inner.execute(cost)


class TestFCHalfPricedOncePerKey:
    def test_fc_device_runs_three_kernels_per_distinct_key(self):
        system = A100AttAccSystem()
        system.gpus = CountingDevice(system.gpus)
        keys = set()
        for per_request in (False, True):
            for moe in (None, MOE):
                for step in steps(moe, per_request):
                    system.execute_step(step)
                    keys.add((moe, step.rlp, step.tlp))
        assert system.gpus.calls == 3 * len(keys)

    def test_pipelined_chunks_share_keys_by_size(self):
        system = A100AttAccSystem()
        system.gpus = CountingDevice(system.gpus)
        system.pipeline_chunks = 2
        # rlp 7 splits into chunks of 4 and 3; rlp 8 into 4 and 4.
        for rlp in (7, 8, 7, 8):
            system.execute_step(build_decode_step(MODEL, rlp, 1, 300 + rlp))
        assert system.gpus.calls == 3 * len({4, 3})


class TestFCInvocationsShared:
    def test_same_objects_across_contexts(self):
        a = build_decode_step(MODEL, 5, 3, 100, moe=MOE)
        b = build_decode_step(MODEL, 5, 3, 4000, moe=MOE)
        assert [inv is other for inv, other in
                zip(a.fc_invocations, b.fc_invocations)] == [True] * 3
        assert a.attention_invocation != b.attention_invocation

    @pytest.mark.parametrize("moe", [None, MOE], ids=["dense", "moe"])
    def test_values_match_the_kernel_constructors(self, moe):
        step = build_decode_step(MODEL, 6, 2, 128, moe=moe)
        qkv, projection, ffn = step.fc_invocations
        assert qkv.per_layer == qkv_cost(MODEL, 6, 2)
        assert projection.per_layer == projection_cost(MODEL, 6, 2)
        assert ffn.per_layer == step_ffn_cost(MODEL, moe, 6, 2)
        assert {inv.num_layers for inv in step.invocations} == {
            MODEL.num_layers
        }
