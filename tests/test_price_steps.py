"""Vectorized-vs-scalar pricing equivalence: the batch path contract.

``price_steps`` must be bit-equal to ``execute_step`` lane by lane —
across every registered system, FC placements, device classes (GPU, NPU,
PIM pools), link technologies, and the sub-batch pipelined dispatch.
These are the grid property tests the batch pricing layer is pinned by.
"""

import dataclasses

import numpy as np
import pytest

from repro.devices.gpu import GPUGroup
from repro.devices.interconnect import CXL, NVLINK, PCIE_GEN5
from repro.devices.npu import npu_group, tpu_group
from repro.devices.pim import ATTN_PIM_CONFIG, FC_PIM_CONFIG, PIMDeviceGroup
from repro.errors import ConfigurationError
from repro.models.config import get_model
from repro.models.kernels import attention_cost_array, fc_cost_array
from repro.models.workload import (
    StepGrid,
    build_decode_step,
    build_step_grid,
    cartesian_step_grid,
)
from repro.systems.papi import PAPISystem
from repro.systems.registry import available_systems, build_system

MODEL = get_model("llama-65b")

#: A grid that crosses the alpha boundary (PU vs FC-PIM placements),
#: covers odd/even pipeline splits, and spans short to long contexts.
GRID = cartesian_step_grid(
    MODEL, [1, 2, 5, 7, 16, 33, 64], [1, 2, 4], [1, 100, 2048]
)


def prewarm(system, grid=GRID):
    """Fill the scalar path's FC-half memo at every grid point's (rlp,
    tlp), at a context no grid point uses, so the equality below is
    served from a warm memo."""
    for i in range(len(grid)):
        system.execute_step(build_decode_step(
            grid.model, int(grid.rlp[i]), int(grid.tlp[i]), 4999,
            moe=grid.moe,
        ))


def assert_grid_equivalent(system, grid=GRID):
    batch = system.price_steps(grid)
    assert len(batch) == len(grid)
    for i in range(len(grid)):
        scalar = system.execute_step(grid.step_at(i))
        lane = batch.at(i)
        assert lane == scalar, f"lane {i} diverged on {system.name}"
        # IterationResult equality covers the breakdown dicts; pin the
        # headline floats at bit level too.
        assert lane.seconds.hex() == scalar.seconds.hex()
        assert lane.energy_joules.hex() == scalar.energy_joules.hex()


class TestDeviceBatchExecution:
    DEVICES = (
        PIMDeviceGroup(FC_PIM_CONFIG, 30),
        PIMDeviceGroup(ATTN_PIM_CONFIG, 60),
        GPUGroup(count=6),
        npu_group(4),
        tpu_group(8),
    )

    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
    def test_execute_batch_matches_execute(self, device):
        costs = fc_cost_array(MODEL, [1, 2, 16, 64], [1, 2, 4, 8])
        batch = device.execute_batch(costs)
        for i in range(len(costs)):
            scalar = device.execute(costs.at(i))
            lane = batch.at(i)
            assert lane == scalar

    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
    def test_attention_batch_matches_execute(self, device):
        costs = attention_cost_array(
            MODEL, [1, 4, 32], [2, 2, 2], [64, 512, 4096]
        )
        batch = device.execute_batch(costs)
        for i in range(len(costs)):
            assert batch.at(i) == device.execute(costs.at(i))


class TestPriceStepsEquivalence:
    @pytest.mark.parametrize("name", available_systems())
    def test_serial_systems(self, name):
        assert_grid_equivalent(build_system(name))

    @pytest.mark.parametrize("name", available_systems())
    @pytest.mark.parametrize("chunks", [2, 3])
    def test_pipelined_systems(self, name, chunks):
        system = build_system(name)
        system.pipeline_chunks = chunks
        assert_grid_equivalent(system)

    @pytest.mark.parametrize("name", available_systems())
    @pytest.mark.parametrize("chunks", [1, 2, 3])
    def test_prewarmed_memo(self, name, chunks):
        """The scalar side served from a warm FC-half memo."""
        system = build_system(name)
        system.pipeline_chunks = chunks
        prewarm(system)
        assert_grid_equivalent(system)

    @pytest.mark.parametrize("link", [PCIE_GEN5, CXL, NVLINK],
                             ids=lambda l: l.name)
    def test_links(self, link):
        assert_grid_equivalent(PAPISystem(link=link))

    def test_npu_backed_papi(self):
        assert_grid_equivalent(PAPISystem(gpus=npu_group(4)))

    @pytest.mark.parametrize("alpha", [2.0, 24.0, 4096.0])
    def test_alpha_moves_the_placement_boundary(self, alpha):
        system = PAPISystem(alpha=alpha)
        batch = system.price_steps(GRID)
        for i in range(len(GRID)):
            assert batch.fc_targets[i] == system.plan_fc_target(
                int(GRID.rlp[i]), int(GRID.tlp[i])
            )

    def test_respects_scheduler_standing_decision(self):
        """PAPI's stateful fast path must flow through the batch route."""
        system = PAPISystem()
        system.begin_batch(batch_size=8, speculation_length=2)
        grid = build_step_grid(MODEL, [8, 9], [2, 2], [256, 256])
        batch = system.price_steps(grid)
        for i in range(len(grid)):
            assert batch.at(i) == system.execute_step(grid.step_at(i))


class TestScalarDeviceFallback:
    def test_price_steps_on_device_without_execute_batch(self):
        """A ComputeDevice that only implements the scalar protocol must
        still price grids (per-lane fallback), bit-equal as ever."""

        class ScalarOnlyGPUs:
            def __init__(self, inner):
                self._inner = inner
                self.name = inner.name
                self.count = inner.count
                self.memory_bytes = inner.memory_bytes

            def execute(self, cost):
                return self._inner.execute(cost)

            def peak_flops(self):
                return self._inner.peak_flops()

            def peak_bandwidth(self):
                return self._inner.peak_bandwidth()

        system = PAPISystem()
        system.gpus = ScalarOnlyGPUs(GPUGroup(count=6))
        grid = build_step_grid(MODEL, [1, 64], [1, 2], [128, 2048])
        batch = system.price_steps(grid)
        for i in range(len(grid)):
            assert batch.at(i) == system.execute_step(grid.step_at(i))


class TestIterationResultArray:
    def test_overlap_only_on_pipelined_lanes(self):
        system = PAPISystem()
        system.pipeline_chunks = 4
        grid = build_step_grid(MODEL, [2, 16], [1, 1], [128, 128])
        batch = system.price_steps(grid)
        assert not batch.pipelined[0] and batch.pipelined[1]
        assert "overlap" not in batch.at(0).time_breakdown
        assert "overlap" in batch.at(1).time_breakdown

    def test_tokens_per_second(self):
        system = PAPISystem()
        grid = build_step_grid(MODEL, [4], [2], [256])
        batch = system.price_steps(grid)
        expected = (4 * 2) / batch.seconds[0]
        assert batch.tokens_per_second()[0] == expected

    def test_rejects_non_grid(self):
        with pytest.raises(ConfigurationError):
            PAPISystem().price_steps(GRID.step_at(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("field", ["seconds", "energy_joules"])
    def test_non_finite_or_negative_lane_rejected(self, field, bad):
        grid = build_step_grid(MODEL, [4, 8], [2, 2], [256, 256])
        batch = PAPISystem().price_steps(grid)
        values = getattr(batch, field).copy()
        values[1] = bad
        with pytest.raises(ConfigurationError, match="finite"):
            dataclasses.replace(batch, **{field: values})


class TestStepGrid:
    def test_step_at_round_trip(self):
        grid = build_step_grid(MODEL, [3], [2], [77])
        step = grid.step_at(0)
        assert (step.rlp, step.tlp, step.mean_context_len) == (3, 2, 77)

    def test_cartesian_order_last_axis_fastest(self):
        grid = cartesian_step_grid(MODEL, [1, 2], [1], [10, 20])
        assert grid.rlp.tolist() == [1, 1, 2, 2]
        assert grid.context_len.tolist() == [10, 20, 10, 20]

    def test_broadcasting(self):
        grid = build_step_grid(MODEL, [1, 2, 3], 2, 512)
        assert grid.tlp.tolist() == [2, 2, 2]
        assert grid.context_len.tolist() == [512, 512, 512]

    @pytest.mark.parametrize("rlp,tlp,ctx", [
        ([0], [1], [1]), ([1], [0], [1]), ([1], [1], [0]), ([], [], []),
    ])
    def test_validation(self, rlp, tlp, ctx):
        with pytest.raises(ConfigurationError):
            build_step_grid(MODEL, rlp, tlp, ctx)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            StepGrid(
                model=MODEL,
                rlp=np.array([1, 2]),
                tlp=np.array([1]),
                context_len=np.array([1, 1]),
            )
