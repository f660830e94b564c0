"""DecodeSlots against the ``Request.advance`` reference, property-based.

The ledger is the closed form of advancing every active request each
step, in slot order, with ``Request.advance``. These properties drive
both ledger modes (steady where the config allows it, sampled always)
through random programs of mid-run admissions — fresh and mid-life
requests — steps and, for steady batches, macro advances, and demand
that every observable matches a reference batch of request objects:
accepted totals, retired requests and their order, the stamps on them,
contexts, the running context total, the finish-free count, and the
sampler's stream position.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.serving.request import Request, RequestState
from repro.serving.slots import DecodeSlots
from repro.serving.speculative import SpeculationConfig, SpeculativeSampler
from repro.serving.tlp_policy import AcceptanceAdaptiveTLP, FixedTLP


def _reference_step(active, tlp, sampler, iteration):
    """One step of the request-object loop every decode core used."""
    accepted_total = 0
    finished = []
    still = []
    for request in active:
        accepted = 1 if tlp == 1 else sampler.accepted_tokens(tlp)
        accepted_total += request.advance(accepted, iteration)
        (finished if request.is_finished else still).append(request)
    return accepted_total, finished, still


def _same_stream(a: SpeculativeSampler, b: SpeculativeSampler) -> bool:
    """Both samplers sit at the same position of the same draw stream."""
    return (
        a._pos == b._pos
        and np.array_equal(a._buffer, b._buffer)
        and a._rng.random() == b._rng.random()
    )


request_specs = st.tuples(
    st.integers(1, 4000),  # input_len
    st.integers(1, 40),  # output_len
    st.integers(0, 100),  # generated, as a percentage of output_len
)


class _Pair:
    """A ledger and the reference batch it must match, step for step."""

    def __init__(self, config, steady, seed):
        self.ledger = DecodeSlots(steady)
        self.active = []
        self.ledger_sampler = SpeculativeSampler(config, seed=seed)
        self.ref_sampler = SpeculativeSampler(config, seed=seed)
        self.steady = steady
        self.iteration = 0
        self.next_id = 0

    def admit(self, specs):
        ledger_side, ref_side = [], []
        for input_len, output_len, percent in specs:
            # Mid-life requests (a decode pool's transfers) owe less
            # than their full output; at least one token stays owed.
            generated = min(output_len - 1, output_len * percent // 100)
            for side in (ledger_side, ref_side):
                side.append(
                    Request(
                        request_id=self.next_id,
                        input_len=input_len,
                        output_len=output_len,
                        generated=generated,
                        state=RequestState.DECODING,
                    )
                )
            self.next_id += 1
        self.ledger.admit(ledger_side)
        self.active.extend(ref_side)

    def step(self, tlp):
        expected, finished, self.active = _reference_step(
            self.active, tlp, self.ref_sampler, self.iteration
        )
        accepted, retired = self.ledger.step(
            tlp, self.ledger_sampler, self.iteration
        )
        self.iteration += 1
        assert accepted == expected
        assert [r.request_id for r in retired] == [
            r.request_id for r in finished
        ]
        for mine, theirs in zip(retired, finished):
            assert mine.generated == theirs.generated == theirs.output_len
            assert mine.state is RequestState.FINISHED
            assert mine.finish_iteration == theirs.finish_iteration
        self.check()

    def macro(self, steps, tlp):
        self.ledger.advance(steps)
        for _ in range(steps):
            _, finished, self.active = _reference_step(
                self.active, tlp, self.ref_sampler, self.iteration
            )
            assert not finished
            self.iteration += 1
        self.check()

    def check(self):
        ledger = self.ledger
        contexts = [r.input_len + r.generated for r in self.active]
        assert len(ledger) == len(self.active)
        assert [r.request_id for r in ledger] == [
            r.request_id for r in self.active
        ]
        assert ledger.contexts() == contexts
        assert ledger.context_total == sum(contexts)
        assert ledger.max_final_length() == max(
            (r.input_len + r.output_len for r in self.active), default=0
        )
        if self.steady is not None and self.active:
            min_remaining = min(r.remaining for r in self.active)
            assert ledger.finish_free() == (min_remaining - 1) // self.steady


@settings(max_examples=250, deadline=None)
@given(
    speculation_length=st.sampled_from((1, 2, 3, 4)),
    acceptance=st.sampled_from((0.6, 0.8, 1.0)),
    steady_mode=st.booleans(),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_ledger_matches_request_advance(
    speculation_length, acceptance, steady_mode, seed, data
):
    config = SpeculationConfig(
        speculation_length=speculation_length, acceptance_rate=acceptance
    )
    steady = config.steady_slot_tokens() if steady_mode else None
    pair = _Pair(config, steady, seed)
    pair.admit(data.draw(st.lists(request_specs, min_size=1, max_size=8)))
    tlp = speculation_length
    for _ in range(data.draw(st.integers(1, 60))):
        action = data.draw(st.sampled_from(("step", "step", "admit", "macro")))
        if action == "admit":
            pair.admit(
                data.draw(st.lists(request_specs, min_size=1, max_size=4))
            )
        elif action == "macro" and steady is not None and pair.active:
            free = pair.ledger.finish_free()
            if free > 0:
                pair.macro(data.draw(st.integers(1, free)), tlp)
        elif pair.active:
            pair.step(tlp)
    # Drain, then the samplers must sit at the same stream position.
    while pair.active:
        pair.step(tlp)
    assert not pair.ledger
    assert pair.ledger.context_total == 0
    assert _same_stream(pair.ledger_sampler, pair.ref_sampler)


@settings(max_examples=100, deadline=None)
@given(
    tlps=st.lists(st.sampled_from((1, 2, 3, 4)), min_size=1, max_size=40),
    seed=st.integers(0, 2**16),
    specs=st.lists(request_specs, min_size=1, max_size=8),
)
def test_sampled_ledger_follows_a_varying_tlp(tlps, seed, specs):
    """Dynamic TLP policies: a sampled ledger stepped at a different
    speculation length each iteration (tlp 1 draws nothing)."""
    config = SpeculationConfig(speculation_length=4, acceptance_rate=0.7)
    pair = _Pair(config, None, seed)
    pair.admit(specs)
    for tlp in tlps:
        if not pair.active:
            break
        pair.step(tlp)
    assert _same_stream(pair.ledger_sampler, pair.ref_sampler)


class TestSteadyLedger:
    def test_retirement_follows_the_closed_form(self):
        # Joins at step 0 owing 7 at k=3: credited 3, 3, 1 — retires at
        # step (7 - 1) // 3 = 2.
        ledger = DecodeSlots(3)
        request = Request(request_id=0, input_len=10, output_len=7)
        ledger.admit([request])
        assert ledger.finish_free() == 2
        sampler = SpeculativeSampler(SpeculationConfig(3, 1.0))
        assert ledger.step(3, sampler, 0) == (3, [])
        assert ledger.step(3, sampler, 1) == (3, [])
        assert ledger.step(3, sampler, 2) == (1, [request])
        assert request.finish_iteration == 2
        assert request.generated == 7

    def test_late_joiner_counts_from_its_admission_step(self):
        ledger = DecodeSlots(1)
        sampler = SpeculativeSampler(SpeculationConfig())
        early = Request(request_id=0, input_len=5, output_len=10)
        late = Request(request_id=1, input_len=5, output_len=2)
        ledger.admit([early])
        ledger.advance(4)
        ledger.admit([late])
        # The late slot owes 2 from step 4: retires at step 5, while the
        # early one (6 owed) retires at step 9.
        assert ledger.finish_free() == 1
        assert ledger.contexts() == [9, 5]
        assert ledger.step(1, sampler, 4) == (2, [])
        assert ledger.step(1, sampler, 5) == (2, [late])
        assert ledger.finish_free() == 9 - 6

    def test_advance_past_a_retirement_is_refused(self):
        ledger = DecodeSlots(2)
        ledger.admit([Request(request_id=0, input_len=5, output_len=5)])
        assert ledger.finish_free() == 2
        with pytest.raises(SimulationError):
            ledger.advance(3)


class TestModeSelection:
    @pytest.mark.parametrize(
        "speculation_length,acceptance,steady",
        [(1, 0.8, 1), (3, 1.0, 3), (2, 0.8, None), (4, 0.6, None)],
    )
    def test_fixed_policy_follows_the_speculation_config(
        self, speculation_length, acceptance, steady
    ):
        config = SpeculationConfig(speculation_length, acceptance)
        ledger = DecodeSlots.for_policy(config, FixedTLP(speculation_length))
        assert ledger.steady == steady

    def test_other_policies_always_sample(self):
        """A dynamic policy, or a FixedTLP subclass (which could vary its
        answer), never gets a steady ledger."""

        class Shifty(FixedTLP):
            pass

        config = SpeculationConfig(1, 1.0)
        for policy in (AcceptanceAdaptiveTLP(), Shifty(1)):
            assert DecodeSlots.for_policy(config, policy).steady is None
