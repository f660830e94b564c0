"""Per-request step prices keyed by the context total of each chunk.

Attention is the only context-dependent kernel of a decode step, and its
cost reads nothing of the per-request contexts but their sum. A step
executes as the sub-batch chunks of ``ServingSystem.step_chunk_sizes``
— one chunk when serial, the pipelined split of the sorted, bucketized
contexts otherwise — so ``StepPricer`` keys per-request prices by the
tuple of chunk context totals. These tests pin that key as exact:

* every price served under it (including cache hits recorded by another
  context vector) is bit-equal to building and executing the step from
  the sorted, bucketized contexts, across every registered system,
  serial and pipelined dispatch, dense and MoE, buckets 1 and 32, and
  TLP 1, 2 and 4;
* vectors with equal totals share one entry on a serial system, and do
  not on a pipelined one whose chunk totals differ;
* reassigning ``pipeline_chunks`` can never serve a serial entry for a
  pipelined step;
* a non-positive context is rejected before any lookup, even when its
  total matches a cached one.
"""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.models.config import get_model
from repro.models.moe import MoEModelConfig
from repro.models.workload import build_decode_step
from repro.serving.engine import StepPricer
from repro.serving.request import Request
from repro.serving.stepcache import StepCostCache
from repro.systems.registry import available_systems, build_system

MODEL = get_model("llama-65b")
MOE = MoEModelConfig(
    base=MODEL, num_experts=16, experts_per_token=2,
    expert_ffn_dim=MODEL.ffn_dim // 16,
)

#: Context vectors in groups of one size. Within a group, vectors share
#: a total (bucketized at 32 for the first pair), and some also share
#: their two-chunk totals — permuted or re-shuffled across the split —
#: while others do not, so prices served from an entry another vector
#: recorded are checked as well as fresh ones.
BATCHES = (
    (700,),
    (690,),
    (100, 260),
    (260, 100),
    (64, 128, 320),
    (320, 96, 96),
    (128, 64, 320),
    (64, 64, 384),
    (10, 20, 30, 40, 50, 60, 70),
    (70, 60, 50, 40, 30, 20, 10),
    (40, 40, 40, 40, 40, 40, 40),
    tuple(range(100, 133)),
    tuple(range(132, 99, -1)),
    (116,) * 33,
)


def bucketize(context, bucket):
    """The engine's bucket rule, restated: nearest multiple, at least one
    bucket."""
    if bucket <= 1:
        return context
    return max(bucket, round(context / bucket) * bucket)


def direct(system, contexts, tlp, bucket, moe):
    """The step the old sorted-vector key priced, built and executed."""
    context_lens = tuple(sorted(bucketize(c, bucket) for c in contexts))
    mean = max(1, round(sum(context_lens) / len(context_lens)))
    step = build_decode_step(
        MODEL, len(context_lens), tlp, mean,
        context_lens=context_lens, moe=moe,
    )
    return system.execute_step(step)


def assert_bit_equal(got, want):
    assert got == want
    assert got.seconds.hex() == want.seconds.hex()
    assert got.energy_joules.hex() == want.energy_joules.hex()
    for key, value in want.time_breakdown.items():
        assert got.time_breakdown[key].hex() == value.hex(), key
    for key, value in want.energy_breakdown.items():
        assert got.energy_breakdown[key].hex() == value.hex(), key


def make_pricer(name="papi", chunks=1, bucket=1, moe=None):
    system = build_system(name)
    system.pipeline_chunks = chunks
    return StepPricer(
        system=system, model=MODEL, context_bucket=bucket,
        step_cache=StepCostCache(), moe=moe,
    )


def requests_with(contexts):
    """Requests whose current context lengths are ``contexts``."""
    return [
        Request(request_id=index, input_len=context, output_len=8)
        for index, context in enumerate(contexts)
    ]


class TestTotalKeyedPricesAreExact:
    @pytest.mark.parametrize("name", available_systems())
    @pytest.mark.parametrize("chunks", [1, 2], ids=["serial", "chunks2"])
    @pytest.mark.parametrize("moe", [None, MOE], ids=["dense", "moe"])
    @pytest.mark.parametrize("bucket", [1, 32], ids=["exact", "bucket32"])
    @pytest.mark.parametrize("tlp", [1, 2, 4])
    def test_matches_the_sorted_context_step(
        self, name, chunks, moe, bucket, tlp
    ):
        pricer = make_pricer(name, chunks, bucket, moe)
        cache = pricer.step_cache
        for contexts in BATCHES:
            got = pricer.price_contexts(contexts, tlp)
            want = direct(pricer.system, contexts, tlp, bucket, moe)
            assert_bit_equal(got, want)
            assert_bit_equal(pricer.price(requests_with(contexts), tlp), want)
        assert cache.hits > len(BATCHES), "shared keys were served"

    @pytest.mark.parametrize("chunks", [1, 2], ids=["serial", "chunks2"])
    def test_uncached_pricer_matches_too(self, chunks):
        pricer = make_pricer(chunks=chunks)
        pricer.step_cache = None
        for contexts in BATCHES:
            assert_bit_equal(
                pricer.price_contexts(contexts, 2),
                direct(pricer.system, contexts, 2, 1, None),
            )


class TestKeySharing:
    SAME_CHUNKS = ((64, 128, 320), (320, 96, 96))
    OTHER_CHUNKS = (64, 64, 384)

    def test_equal_totals_share_one_entry_when_serial(self):
        pricer = make_pricer(chunks=1)
        a, b = self.SAME_CHUNKS[0], self.OTHER_CHUNKS
        assert pricer.context_key(a) == pricer.context_key(b) == (512,)
        first = pricer.price_contexts(a, 2)
        second = pricer.price_contexts(b, 2)
        assert second is first
        assert pricer.step_cache.entries == 1
        assert pricer.step_cache.hits == 1

    def test_differing_chunk_totals_do_not_share_when_pipelined(self):
        pricer = make_pricer(chunks=2)
        a, b = self.SAME_CHUNKS[0], self.OTHER_CHUNKS
        # Sorted and split 2 + 1: (64 + 128, 320) vs (64 + 64, 384).
        assert pricer.context_key(a) == (192, 320)
        assert pricer.context_key(b) == (128, 384)
        pricer.price_contexts(a, 2)
        pricer.price_contexts(b, 2)
        assert pricer.step_cache.entries == 2
        assert pricer.step_cache.hits == 0

    def test_equal_chunk_totals_share_when_pipelined(self):
        pricer = make_pricer(chunks=2)
        a, b = self.SAME_CHUNKS
        assert pricer.context_key(a) == pricer.context_key(b)
        assert pricer.price_contexts(b, 2) is pricer.price_contexts(a, 2)
        assert pricer.step_cache.entries == 1

    def test_bucket_applies_before_the_total(self):
        pricer = make_pricer(bucket=32)
        # 40 -> 32 and 50 -> 64; a context under half a bucket clamps up
        # to one bucket.
        assert pricer.context_key((40, 50)) == (96,)
        assert pricer.context_key((1, 1)) == (64,)


class TestPipelineReassignment:
    CONTEXTS = (100, 200, 300, 400)

    def test_serial_entry_never_serves_a_pipelined_step(self):
        pricer = make_pricer(chunks=1)
        serial = pricer.price_contexts(self.CONTEXTS, 2)
        serial_key = pricer.context_key(self.CONTEXTS)
        pricer.system.pipeline_chunks = 2
        pipelined_key = pricer.context_key(self.CONTEXTS)
        assert len(serial_key) == 1 and len(pipelined_key) == 2
        pipelined = pricer.price_contexts(self.CONTEXTS, 2)
        assert pipelined is not serial
        assert "overlap" in pipelined.time_breakdown
        assert_bit_equal(
            pipelined, direct(pricer.system, self.CONTEXTS, 2, 1, None)
        )
        # And back: the serial entry is still the serial price.
        pricer.system.pipeline_chunks = 1
        assert pricer.price_contexts(self.CONTEXTS, 2) is serial

    def test_batch_smaller_than_the_depth_stays_serial(self):
        pricer = make_pricer(chunks=4)
        assert pricer.system.step_chunk_sizes(3) == (3,)
        assert pricer.context_key((5, 6, 7)) == (18,)
        assert pricer.system.step_chunk_sizes(7) == (2, 2, 2, 1)
        assert pricer.context_key(tuple(range(1, 8))) == (3, 7, 11, 7)


class TestValidationBeforeLookup:
    @pytest.mark.parametrize("chunks", [1, 2], ids=["serial", "chunks2"])
    @pytest.mark.parametrize("bad", [(0, 300), (-1, 301)],
                             ids=["zero", "negative"])
    def test_non_positive_context_hits_no_cached_total(self, chunks, bad):
        pricer = make_pricer(chunks=chunks)
        pricer.price_contexts((100, 200), 2)
        pricer.price_contexts((150, 150), 2)
        hits = pricer.step_cache.hits
        with pytest.raises(ConfigurationError, match="positive"):
            pricer.price_contexts(bad, 2)
        with pytest.raises(ConfigurationError, match="positive"):
            pricer.context_key(bad)
        assert pricer.step_cache.hits == hits

    def test_empty_batch_rejected(self):
        pricer = make_pricer()
        with pytest.raises(SimulationError):
            pricer.context_key(())
        with pytest.raises(SimulationError):
            pricer.price_contexts((), 2)
