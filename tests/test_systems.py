"""Tests for the system layer: baselines, PAPI, registry, capacity."""

import math

import pytest

from repro.core.placement import PlacementTarget
from repro.errors import CapacityError, ConfigurationError, UnknownSystemError
from repro.models.config import get_model
from repro.models.workload import build_decode_step
from repro.systems.base import IterationResult
from repro.systems.baselines import (
    A100AttAccSystem,
    A100HBMPIMSystem,
    AttAccOnlySystem,
)
from repro.systems.papi import PAPISystem, PIMOnlyPAPISystem
from repro.systems.registry import available_systems, build_system


class TestRegistry:
    def test_all_paper_systems_available(self):
        names = available_systems()
        for expected in (
            "a100-attacc", "a100-hbm-pim", "attacc-only", "papi", "papi-pim-only",
        ):
            assert expected in names

    def test_build_by_name(self):
        assert isinstance(build_system("papi"), PAPISystem)
        assert isinstance(build_system("A100-AttAcc"), A100AttAccSystem)

    def test_kwargs_forwarded(self):
        system = build_system("papi", alpha=42.0)
        assert system.alpha == 42.0

    def test_unknown_system_raises(self):
        with pytest.raises(UnknownSystemError, match="papi"):
            build_system("tpu-only")


class TestStaticPlacement:
    def test_a100_attacc_pins_fc_to_gpu(self):
        system = A100AttAccSystem()
        for rlp, tlp in ((1, 1), (64, 8)):
            assert system.plan_fc_target(rlp, tlp) is PlacementTarget.PU

    def test_attacc_only_pins_fc_to_pim(self):
        system = AttAccOnlySystem()
        for rlp, tlp in ((1, 1), (64, 8)):
            assert system.plan_fc_target(rlp, tlp) is PlacementTarget.FC_PIM

    def test_wrong_unit_request_rejected(self):
        with pytest.raises(ConfigurationError):
            A100AttAccSystem().fc_unit_for(PlacementTarget.FC_PIM)
        with pytest.raises(ConfigurationError):
            AttAccOnlySystem().fc_unit_for(PlacementTarget.PU)

    def test_hbm_pim_differs_only_in_attention_unit(self):
        a = A100AttAccSystem()
        b = A100HBMPIMSystem()
        assert a.attention_unit().config.xpyb == "1P1B"
        assert b.attention_unit().config.xpyb == "1P2B"


class TestPAPIPlacement:
    def test_dynamic_decision_follows_estimate(self):
        system = PAPISystem(alpha=20.0)
        assert system.plan_fc_target(4, 2) is PlacementTarget.FC_PIM
        assert system.plan_fc_target(64, 4) is PlacementTarget.PU

    def test_standing_decision_used_during_serving(self):
        system = PAPISystem(alpha=20.0)
        system.begin_batch(64, 1)
        assert system.plan_fc_target(64, 1) is PlacementTarget.PU
        # RLP decay below alpha flips the standing decision.
        from repro.core.scheduler import EOS_TOKEN

        system.observe_outputs([EOS_TOKEN] * 50 + [0] * 14)
        assert system.plan_fc_target(14, 1) is PlacementTarget.FC_PIM

    def test_prefill_runs_on_pus(self):
        assert PAPISystem().prefill_target() is PlacementTarget.PU

    def test_pim_only_prefill_runs_on_fc_pim(self):
        assert PIMOnlyPAPISystem().prefill_target() is PlacementTarget.FC_PIM

    def test_calibrate_updates_scheduler(self):
        system = PAPISystem()
        alpha = system.calibrate(get_model("llama-65b"))
        assert system.scheduler.alpha == alpha
        assert 8 <= alpha <= 64


class TestCapacity:
    def test_gpt3_175b_fits_papi_fc_pim(self):
        """Paper Section 7.1: 30 x 12 GB = 360 GB holds the 350 GB model."""
        system = PAPISystem()
        system.check_capacity(get_model("gpt3-175b"), batch_size=4, max_seq_len=512)

    def test_kv_capacity_limits_batch(self):
        """Paper Section 3.2(b): longer sequences shrink the max batch."""
        system = PAPISystem()
        model = get_model("gpt3-175b")
        short = system.max_batch_size(model, 128)
        long = system.max_batch_size(model, 2048)
        assert short > long > 0

    def test_oversized_kv_raises(self):
        system = PAPISystem()
        model = get_model("gpt3-175b")
        too_many = system.max_batch_size(model, 2048) + 1
        with pytest.raises(CapacityError):
            system.check_capacity(model, too_many, 2048)

    def test_oversized_model_raises(self):
        system = PAPISystem(
            fc_pim=__import__("repro.devices.pim", fromlist=["PIMDeviceGroup"])
            .PIMDeviceGroup(
                __import__("repro.devices.pim", fromlist=["FC_PIM_CONFIG"]).FC_PIM_CONFIG,
                num_stacks=2,
            )
        )
        with pytest.raises(CapacityError):
            system.check_capacity(get_model("gpt3-175b"), 1, 128)


class TestIterationExecution:
    @pytest.fixture
    def step(self):
        return build_decode_step(get_model("llama-65b"), rlp=8, tlp=2,
                                 mean_context_len=256)

    def test_breakdown_sums_to_total(self, step):
        for name in available_systems():
            system = build_system(name)
            if hasattr(system, "begin_batch"):
                system.begin_batch(8, 2)
            result = system.execute_step(step)
            assert isinstance(result, IterationResult)
            assert sum(result.time_breakdown.values()) == pytest.approx(
                result.seconds
            )
            assert sum(result.energy_breakdown.values()) == pytest.approx(
                result.energy_joules
            )

    def test_fc_dominates_iteration_time(self, step):
        """Paper Figure 12: FC kernels dominate decode time."""
        system = AttAccOnlySystem()
        result = system.execute_step(step)
        assert result.time_breakdown["fc"] > result.time_breakdown["attention"]

    def test_papi_pim_only_has_visible_communication(self, step):
        """Disaggregated Attn-PIM pays PCIe communication (Figure 12:
        ~28% of decode time)."""
        result = PIMOnlyPAPISystem().execute_step(step)
        share = result.time_breakdown["communication"] / result.seconds
        assert 0.05 < share < 0.5

    def test_background_power_ordering(self):
        """GPU-bearing systems idle hotter than PIM-only platforms."""
        assert (
            PAPISystem().background_power_watts()
            > AttAccOnlySystem().background_power_watts()
        )
        assert AttAccOnlySystem().background_power_watts() > 0

    def test_prefill_compute_bound_on_gpu_systems(self):
        from repro.devices.base import BoundKind

        result = A100AttAccSystem().execute_prefill(
            get_model("llama-65b"), batch_size=8, input_len=512
        )
        assert result.bound is BoundKind.COMPUTE


class TestIterationResultValidation:
    @staticmethod
    def result(seconds, energy_joules):
        return IterationResult(
            seconds=seconds,
            energy_joules=energy_joules,
            time_breakdown={},
            energy_breakdown={},
            fc_target=PlacementTarget.PU,
            rlp=1,
            tlp=1,
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-12])
    @pytest.mark.parametrize("field", ["seconds", "energy_joules"])
    def test_non_finite_or_negative_rejected(self, field, bad):
        values = {"seconds": 1.0, "energy_joules": 1.0, field: bad}
        with pytest.raises(ConfigurationError, match="finite"):
            self.result(**values)

    def test_zero_and_finite_accepted(self):
        assert self.result(0.0, 0.0).seconds == 0.0
        assert self.result(1e-3, 2.5).energy_joules == 2.5
