"""Engine goldens: ``run_with_batcher`` outputs, pinned bit for bit.

Every registered system x speculation length x acceptance rate x context
accounting x batching policy, plus an MoE case, a dynamic-TLP case and a
pipelined case, each on a small deterministic batch. Each case's outputs
are stored as full-precision ``repr`` strings in
``tests/data/engine_goldens.json``; any change to the engine loop that
moves one float by one ulp, reorders a latency or shifts the sampler's
draw stream fails here.

To re-record after an intended semantic change (never to make a
refactor pass)::

    PYTHONPATH=src python tests/test_engine_goldens.py
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.models.config import get_model
from repro.models.moe import MoEModelConfig
from repro.serving.batching import ContinuousBatcher, StaticBatcher
from repro.serving.engine import ServingEngine
from repro.serving.request import Request
from repro.serving.speculative import SpeculationConfig
from repro.serving.stepcache import StepCostCache
from repro.serving.tlp_policy import build_tlp_policy
from repro.systems.registry import available_systems, build_system

GOLDEN_PATH = Path(__file__).parent / "data" / "engine_goldens.json"

MODEL = "llama-65b"

#: (input_len, output_len) of the batch every case serves: mixed prompt
#: lengths (so per-request contexts differ from their mean) and output
#: lengths that finish requests at different iterations.
BATCH = (
    (128, 9), (1900, 23), (640, 4), (77, 31), (1024, 17), (333, 12),
    (2048, 6), (512, 27),
)

CONTEXT_MODES = (
    ("mean", 1),
    ("per-request", 1),
    ("per-request", 32),
)
BATCHERS = ("static", "continuous4")


def _requests() -> List[Request]:
    return [
        Request(request_id=index, input_len=input_len, output_len=output_len)
        for index, (input_len, output_len) in enumerate(BATCH)
    ]


def _cases() -> Dict[str, dict]:
    cases: Dict[str, dict] = {}
    for system in available_systems():
        for spec in (1, 2, 4):
            for acceptance in (0.8, 1.0):
                for mode, bucket in CONTEXT_MODES:
                    for batcher in BATCHERS:
                        name = (
                            f"{system}/s{spec}/a{acceptance}/{mode}"
                            f"/b{bucket}/{batcher}"
                        )
                        cases[name] = dict(
                            system=system, spec=spec, acceptance=acceptance,
                            mode=mode, bucket=bucket, batcher=batcher,
                        )
    cases["moe/papi/s2/a0.8/per-request/b1/continuous4"] = dict(
        system="papi", spec=2, acceptance=0.8, mode="per-request", bucket=1,
        batcher="continuous4", moe=True,
    )
    cases["dynamic-tlp/papi/s4/a0.8/mean/b1/static"] = dict(
        system="papi", spec=4, acceptance=0.8, mode="mean", bucket=1,
        batcher="static", tlp_policy="acceptance",
    )
    cases["pipelined2/papi/s2/a0.8/per-request/b1/continuous4"] = dict(
        system="papi", spec=2, acceptance=0.8, mode="per-request", bucket=1,
        batcher="continuous4", chunks=2, step_cache=True,
    )
    return cases


def _run(case: dict) -> Tuple[ServingEngine, object, List[Request]]:
    model = get_model(MODEL)
    system = build_system(case["system"])
    if case.get("chunks"):
        system.pipeline_chunks = case["chunks"]
    moe = (
        MoEModelConfig(
            base=model, num_experts=8, experts_per_token=2,
            expert_ffn_dim=model.ffn_dim // 8,
        )
        if case.get("moe")
        else None
    )
    engine = ServingEngine(
        system=system,
        model=model,
        speculation=SpeculationConfig(
            speculation_length=case["spec"],
            acceptance_rate=case["acceptance"],
        ),
        tlp_policy=(
            build_tlp_policy(case["tlp_policy"])
            if case.get("tlp_policy")
            else None
        ),
        seed=7,
        context_mode=case["mode"],
        context_bucket=case["bucket"],
        step_cache=StepCostCache() if case.get("step_cache") else None,
        moe=moe,
    )
    requests = _requests()
    batcher = (
        StaticBatcher(requests)
        if case["batcher"] == "static"
        else ContinuousBatcher(requests, max_batch_size=4)
    )
    return engine, engine.run_with_batcher(batcher), requests


def engine_outputs(case: dict) -> Dict[str, object]:
    """Every output of one case, floats as full-precision ``repr``."""
    engine, summary, requests = _run(case)
    return {
        "decode_seconds": repr(summary.decode_seconds),
        "decode_energy": repr(summary.decode_energy),
        "prefill_seconds": repr(summary.prefill_seconds),
        "prefill_energy": repr(summary.prefill_energy),
        "draft_seconds": repr(summary.draft_seconds),
        "makespan_seconds": repr(summary.makespan_seconds),
        "tokens_generated": summary.tokens_generated,
        "iterations": summary.iterations,
        "latencies": [repr(value) for value in summary.request_latencies],
        "fc_target_iterations": dict(sorted(
            summary.fc_target_iterations.items()
        )),
        "time_breakdown": {
            key: repr(value)
            for key, value in sorted(summary.time_breakdown.items())
        },
        "energy_breakdown": {
            key: repr(value)
            for key, value in sorted(summary.energy_breakdown.items())
        },
        "reschedules": summary.reschedules,
        "tlp_trace": list(engine.tlp_trace.values),
        "rlp_trace": summary.rlp_trace(),
        "tokens_per_iteration": [
            record.tokens_accepted for record in summary.records
        ],
        "finish_iterations": [r.finish_iteration for r in requests],
        "generated": [r.generated for r in requests],
    }


@functools.lru_cache(maxsize=1)
def _load_goldens() -> Dict[str, dict]:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


CASES = _cases()


def test_golden_cases_cover_the_matrix():
    goldens = _load_goldens()
    assert sorted(goldens) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_matches_golden(name):
    expected = _load_goldens()[name]
    # Round-trip through JSON so tuples/int keys compare as stored.
    actual = json.loads(json.dumps(engine_outputs(CASES[name])))
    assert actual == expected


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    recorded = {name: engine_outputs(case) for name, case in CASES.items()}
    # One case per line keeps the fixture diffable.
    lines = ",\n".join(
        f"{json.dumps(name)}: {json.dumps(recorded[name], sort_keys=True)}"
        for name in sorted(recorded)
    )
    GOLDEN_PATH.write_text("{\n" + lines + "\n}\n")
    print(f"recorded {len(recorded)} cases to {GOLDEN_PATH}")
