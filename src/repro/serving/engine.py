"""The serving engine: drives a system through prefill + decoding.

The engine is the discrete simulator of the paper's evaluation: it admits
requests through a batching policy, charges prefill on the system's
compute-bound unit, then iterates decoding steps. Every iteration it

1. asks the TLP policy for the speculation length (fixed in the paper's
   main experiments; dynamic policies model its references [28]/[38]) and
   notifies the system when it changes,
2. builds the :class:`~repro.models.workload.DecodeStep` for the current
   (RLP, TLP) and the active requests' contexts,
3. asks the system to price it (the system consults its scheduler),
4. credits accepted tokens to the batch's decode slots
   (:class:`~repro.serving.slots.DecodeSlots`, plain ints in admission
   order): sampled per slot under speculative decoding, a constant per
   slot when no draw is needed, in which case a step that retires no
   slot is two list comprehensions,
5. reports how many requests emitted ``<eos>`` to the system's runtime
   monitor (:meth:`~repro.systems.base.ServingSystem.observe_finished`),
   the count the token-level monitoring loop of Section 5.2.2 consumes.

Two pricing refinements sit behind engine knobs:

* ``context_mode`` — ``"per-request"`` (default) prices attention as the
  exact sum of per-request KV-cache costs; ``"mean"`` reproduces the
  original rounded-mean approximation bit-for-bit (the paper-figure
  drivers pin this mode so their outputs stay stable).
* ``context_bucket`` / ``step_cache`` — quantize context lengths to a
  bucket and memoize priced steps in a
  :class:`~repro.serving.stepcache.StepCostCache`, which removes most of
  the cost-model work from design-space sweeps (identical steps are
  re-priced thousands of times).

Arrival-driven serving (requests admitted at their trace timestamps,
latency measured from arrival) lives in :meth:`ServingEngine.run_trace`,
which runs the single-replica case of the cluster event loop in
``repro.cluster``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, SimulationError
from repro.models.config import ModelConfig
from repro.models.moe import MoEModelConfig
from repro.models.workload import (
    _validate_moe,
    build_decode_step,
    workload_name,
)
from repro.serving.batching import ContinuousBatcher, StaticBatcher
from repro.serving.metrics import DETAIL_MODES, IterationRecord, RunSummary
from repro.serving.request import Request, RequestState
from repro.serving.slots import DecodeSlots
from repro.serving.speculative import SpeculationConfig, SpeculativeSampler
from repro.serving.stepcache import StepCostCache
from repro.serving.tlp_policy import FixedTLP, TLPPolicy, TLPTrace
from repro.systems.base import IterationResult, ServingSystem

Batcher = Union[StaticBatcher, ContinuousBatcher]

#: Safety valve against runaway simulations.
MAX_ITERATIONS = 1_000_000

#: Supported context-accounting modes.
CONTEXT_MODES = ("per-request", "mean")


@dataclass
class StepPricer:
    """Prices decoding iterations for a batch of active requests.

    Encapsulates the context-accounting mode, optional context bucketing,
    and the optional step-cost cache, so the blocking engine loop and the
    event-driven cluster replicas share one pricing path.

    Per-request prices are cached by :meth:`context_key` — the context
    total of each sub-batch chunk the step executes as, ``(total,)`` for
    a serial step — rather than by the sorted context vector: attention
    cost depends on a chunk's contexts only through their sum, so every
    batch with the same chunk totals prices bit-identically.

    Attributes:
        system: The platform pricing the steps.
        model: The model being decoded.
        context_mode: ``"per-request"`` for exact per-request attention
            accounting, ``"mean"`` for the rounded-mean approximation.
        context_bucket: Quantize context lengths to multiples of this
            bucket before pricing (1 = exact). Coarser buckets trade a
            bounded pricing error for step-cache hit rate.
        step_cache: Optional shared LRU of priced steps.
        moe: Optional sparse-expert configuration (must wrap ``model``).
            When set, every priced step's FFN is the routed expert bank.
    """

    system: ServingSystem
    model: ModelConfig
    context_mode: str = "per-request"
    context_bucket: int = 1
    step_cache: Optional[StepCostCache] = None
    moe: Optional[MoEModelConfig] = None

    def __post_init__(self) -> None:
        if self.context_mode not in CONTEXT_MODES:
            raise ConfigurationError(
                f"context_mode must be one of {CONTEXT_MODES}, "
                f"got {self.context_mode!r}"
            )
        if self.context_bucket < 1:
            raise ConfigurationError("context_bucket must be >= 1")
        _validate_moe(self.model, self.moe)

    @property
    def workload_name(self) -> str:
        """Model name as priced (see
        :func:`~repro.models.workload.workload_name`)."""
        return workload_name(self.model, self.moe)

    def _bucketize(self, context_len: int) -> int:
        bucket = self.context_bucket
        if bucket <= 1:
            return context_len
        # Clamp to one full bucket: rounding a short context down to zero
        # would underprice its attention by up to bucket/2 x, while one
        # bucket overprices it by at most 2x (and only transiently — the
        # context grows past the bucket within a few iterations).
        return max(bucket, round(context_len / bucket) * bucket)

    def price(self, active: Sequence[Request], tlp: int) -> IterationResult:
        """Price one decoding iteration over the active requests."""
        rlp = len(active)
        if rlp == 0:
            raise SimulationError("cannot price a step with no active requests")
        # input_len + generated inline: context_len is a property and
        # this runs once per decoding iteration over the batch.
        contexts = [r.input_len + r.generated for r in active]
        if self.context_mode == "mean":
            return self.price_mean_total(rlp, tlp, sum(contexts))
        return self._price_exact(contexts, tlp)

    def price_contexts(
        self, context_lens_raw: Sequence[int], tlp: int
    ) -> IterationResult:
        """Price one iteration from raw per-request context lengths.

        The request-free twin of :meth:`price` for callers that track the
        batch's contexts as plain integers (the vectorized cluster
        replicas' slot state) instead of :class:`Request` objects.
        Bit-identical to :meth:`price` over a batch with the same
        contexts — the same bucketing, the same context key (see
        :meth:`context_key`), the same step built on a miss.
        """
        rlp = len(context_lens_raw)
        if rlp == 0:
            raise SimulationError("cannot price a step with no active requests")
        if self.context_mode == "mean":
            return self.price_mean_total(rlp, tlp, sum(context_lens_raw))
        return self._price_exact(context_lens_raw, tlp)

    def context_key(self, context_lens_raw: Sequence[int]) -> Tuple[int, ...]:
        """The per-request step-price key of a batch with these contexts.

        Attention is the only context-dependent kernel, and its cost is
        linear in context: ``attention_cost_batch`` reads nothing of the
        contexts but their count and their sum. A step executes as the
        sub-batch chunks of
        :meth:`~repro.systems.base.ServingSystem.step_chunk_sizes` — one
        chunk for a serial step, the pipelined split of the sorted,
        bucketized contexts otherwise — so its price is a pure function
        of ``(placement, rlp, tlp)`` and the context total of each chunk.
        The key is that tuple of chunk totals: ``(total,)`` for a serial
        step, one total per chunk for a pipelined one. Batches with equal
        keys price bit-identically; a serial key can never equal a
        pipelined one (they differ in length).

        Raises:
            ConfigurationError: A bucketized context is not positive —
                checked before any lookup, since a total can hide a
                context the cost model would reject.
            SimulationError: The batch is empty.
        """
        if not context_lens_raw:
            raise SimulationError("cannot price a step with no active requests")
        return self._exact_key(context_lens_raw)[0]

    def _exact_key(
        self, context_lens_raw: Sequence[int]
    ) -> Tuple[Tuple[int, ...], Sequence[int], Optional[Tuple[int, ...]]]:
        """``(context key, bucketized contexts, sorted contexts)``.

        The sorted tuple is only built when the key needs it (a pipelined
        step); otherwise it is ``None`` and left to a cache miss.
        """
        contexts = context_lens_raw
        if self.context_bucket > 1:
            bucketize = self._bucketize
            contexts = [bucketize(context) for context in contexts]
        smallest = min(contexts)
        if smallest <= 0:
            raise ConfigurationError(
                f"context_len must be positive, got {smallest}"
            )
        sizes = self.system.step_chunk_sizes(len(contexts))
        if len(sizes) == 1:
            return (sum(contexts),), contexts, None
        context_lens = tuple(sorted(contexts))
        totals = []
        offset = 0
        for size in sizes:
            totals.append(sum(context_lens[offset:offset + size]))
            offset += size
        return tuple(totals), contexts, context_lens

    def price_mean_total(
        self, rlp: int, tlp: int, context_total: int
    ) -> IterationResult:
        """Price one mean-mode iteration from a precomputed context sum.

        The O(1) twin of :meth:`price` for ``context_mode="mean"``:
        callers that already track the batch's total context (the cluster
        replicas' incremental load counters) skip the per-request sum.
        Bit-identical to :meth:`price` over the same batch — the mean is
        the same exact integer arithmetic on the same total.
        """
        if self.context_mode != "mean":
            raise SimulationError(
                "price_mean_total requires context_mode='mean'"
            )
        if rlp <= 0:
            raise SimulationError("cannot price a step with no active requests")
        mean_context = self._bucketize(max(1, round(context_total / rlp)))
        return self._price_mean(rlp, tlp, mean_context)

    def run_pricer(
        self, rlp: int, tlp: int
    ) -> Callable[[int], IterationResult]:
        """A mean-mode pricing closure with the invariant key hoisted.

        Over a frozen batch (no admissions, no finishes, constant TLP
        policy) every step of a macro-run prices at the same ``(rlp,
        tlp)`` and the same planned FC target, so the workload name, the
        placement plan, and the cache's per-system scope resolution are
        loop invariants. The returned ``price_mean(raw_mean)`` is
        bit-identical to ``price_mean_total(rlp, tlp, total)`` for
        ``raw_mean == max(1, round(total / rlp))`` — same bucketing, same
        cache key, same counters per lookup.
        """
        if self.context_mode != "mean":
            raise SimulationError("run_pricer requires context_mode='mean'")
        if rlp <= 0:
            raise SimulationError("cannot price a step with no active requests")
        model = self.model
        moe = self.moe
        system = self.system
        bucketize = self._bucketize
        cache = self.step_cache
        if cache is None:

            def price_uncached(raw_mean: int) -> IterationResult:
                mean_context = bucketize(raw_mean)
                step = build_decode_step(
                    model, rlp, tlp, mean_context, context_lens=None, moe=moe
                )
                return system.execute_step(step)

            return price_uncached
        name = self.workload_name
        fc_target = system.plan_fc_target(rlp, tlp)
        entries = cache.scope_entries(system)
        get_in = cache.get_in
        put_in = cache.put_in

        def price_mean(raw_mean: int) -> IterationResult:
            mean_context = bucketize(raw_mean)
            key = (name, fc_target, rlp, tlp, mean_context)
            cached = get_in(entries, key)
            if cached is not None:
                return cached
            step = build_decode_step(
                model, rlp, tlp, mean_context, context_lens=None, moe=moe
            )
            result = system.execute_step(step)
            put_in(entries, key, result)
            return result

        return price_mean

    def _price_exact(
        self, context_lens_raw: Sequence[int], tlp: int
    ) -> IterationResult:
        """Per-request pricing behind the context key (a non-empty batch).

        A miss builds and executes exactly the step the sorted-vector key
        used to: the sorted, bucketized contexts and their rounded mean.
        """
        context_key, contexts, context_lens = self._exact_key(context_lens_raw)
        rlp = len(contexts)
        cache = self.step_cache
        if cache is not None:
            key = (
                self.workload_name, self.system.plan_fc_target(rlp, tlp),
                rlp, tlp, context_key,
            )
            cached = cache.get(self.system, key)
            if cached is not None:
                return cached
        if context_lens is None:
            context_lens = tuple(sorted(contexts))
        mean_context = max(1, round(sum(context_lens) / rlp))
        step = build_decode_step(
            self.model, rlp, tlp, mean_context,
            context_lens=context_lens, moe=self.moe,
        )
        result = self.system.execute_step(step)
        if cache is not None:
            cache.put(self.system, key, result)
        return result

    def _price_mean(
        self, rlp: int, tlp: int, mean_context: int
    ) -> IterationResult:
        """Mean-mode pricing at an already bucketized mean context."""
        if self.step_cache is None:
            step = build_decode_step(
                self.model, rlp, tlp, mean_context, context_lens=None,
                moe=self.moe,
            )
            return self.system.execute_step(step)

        # The workload name is part of the key: a cache (and a system) may
        # be shared by engines serving different models, and an MoE
        # variant prices differently from its dense backbone.
        fc_target = self.system.plan_fc_target(rlp, tlp)
        key = (self.workload_name, fc_target, rlp, tlp, mean_context)
        cached = self.step_cache.get(self.system, key)
        if cached is not None:
            return cached
        step = build_decode_step(
            self.model, rlp, tlp, mean_context, context_lens=None, moe=self.moe,
        )
        result = self.system.execute_step(step)
        self.step_cache.put(self.system, key, result)
        return result


@dataclass
class ServingEngine:
    """Simulates serving a workload on a system.

    Attributes:
        system: The computing platform under evaluation.
        model: The LLM being served.
        speculation: Speculative-decoding configuration (acceptance model
            and default TLP).
        tlp_policy: Optional dynamic speculation-length policy. ``None``
            uses the fixed configured length.
        seed: Seed for the acceptance sampler.
        check_capacity: Validate weight/KV capacity before running.
        tlp_trace: TLP chosen each iteration (populated during a run).
        context_mode: Context accounting: ``"per-request"`` (exact) or
            ``"mean"`` (the original rounded-mean approximation, kept for
            bit-stable paper-figure reproduction).
        context_bucket: Context-length quantization bucket (1 = exact).
        step_cache: Optional :class:`StepCostCache` shared across runs.
        moe: Optional sparse-expert configuration (must wrap ``model`` as
            its base). When set, decoding steps price the routed MoE FFN
            and capacity checks account for all experts' weights.
        detail: Metric retention (see :attr:`RunSummary.detail`):
            ``"full"`` keeps per-iteration records, ``"aggregate"``
            streams them into running totals for long traces.
    """

    system: ServingSystem
    model: ModelConfig
    speculation: SpeculationConfig = SpeculationConfig()
    tlp_policy: Optional[TLPPolicy] = None
    seed: int = 0
    check_capacity: bool = True
    tlp_trace: TLPTrace = field(default_factory=TLPTrace)
    context_mode: str = "per-request"
    context_bucket: int = 1
    step_cache: Optional[StepCostCache] = None
    moe: Optional[MoEModelConfig] = None
    detail: str = "full"

    def __post_init__(self) -> None:
        # Fail on bad knobs at construction, not mid-run.
        self._make_pricer()
        if self.detail not in DETAIL_MODES:
            raise ConfigurationError(
                f"detail must be one of {DETAIL_MODES}, got {self.detail!r}"
            )

    @property
    def workload_name(self) -> str:
        """Model name as served (see
        :func:`~repro.models.workload.workload_name`)."""
        return workload_name(self.model, self.moe)

    def _make_pricer(self) -> StepPricer:
        return StepPricer(
            system=self.system,
            model=self.model,
            context_mode=self.context_mode,
            context_bucket=self.context_bucket,
            step_cache=self.step_cache,
            moe=self.moe,
        )

    def run(self, requests: Sequence[Request]) -> RunSummary:
        """Serve a static batch of requests to completion."""
        return self.run_with_batcher(StaticBatcher(requests))

    def run_trace(
        self, requests: Sequence[Request], max_batch_size: int
    ) -> RunSummary:
        """Serve an arrival-stamped trace with event-driven admission.

        Requests enter at their ``arrival_s`` timestamps and wait in a
        queue until a batch slot opens; per-request latency therefore
        covers queueing + prefill + decoding. This is the single-replica
        case of the cluster event loop (``repro.cluster``).

        Args:
            requests: Requests with ``arrival_s`` stamped (e.g. via
                :func:`~repro.serving.arrivals.poisson_arrivals`).
            max_batch_size: Continuous-batching slot count.

        Returns:
            The run summary, with ``makespan_seconds`` covering the whole
            trace and ``queueing_seconds`` aggregating admission waits.
        """
        from repro.cluster.replica import Replica

        replica = Replica(
            replica_id=0,
            system=self.system,
            model=self.model,
            max_batch_size=max_batch_size,
            speculation=self.speculation,
            tlp_policy=self.tlp_policy,
            seed=self.seed,
            check_capacity=self.check_capacity,
            context_mode=self.context_mode,
            context_bucket=self.context_bucket,
            step_cache=self.step_cache,
            moe=self.moe,
            detail=self.detail,
        )
        replica.serve_trace(requests)
        self.tlp_trace = replica.tlp_trace
        return replica.summary

    def run_with_batcher(self, batcher: Batcher) -> RunSummary:
        """Serve a workload under an arbitrary batching policy.

        The loop runs on a :class:`~repro.serving.slots.DecodeSlots`
        ledger rather than on :class:`Request` objects: mean mode prices
        from the ledger's running context total, per-request mode from
        its slot contexts, and requests are only written when they
        finish (in slot order, each latency read from the clock).
        Outputs are bit-identical to advancing every request each step
        (``tests/test_engine_goldens.py`` pins them).
        """
        sampler = SpeculativeSampler(self.speculation, seed=self.seed)
        summary = RunSummary(
            system=self.system.name, model=self.workload_name, detail=self.detail
        )
        policy = self.tlp_policy if self.tlp_policy is not None else FixedTLP(
            self.speculation.tlp
        )
        self.tlp_trace = TLPTrace()
        pricer = self._make_pricer()

        active = batcher.active()
        if self.check_capacity:
            # Validate the whole workload, not just the initial batch: a
            # queued request with a longer input+output must still fit KV
            # capacity once continuous batching admits it.
            everyone = batcher.all_requests()
            max_seq = max(r.input_len + r.output_len for r in everyone)
            self.system.check_capacity(
                self.model, batcher.initial_batch_size, max_seq, moe=self.moe
            )

        # Initial scheduling uses the system-configured speculation length
        # (Section 5.2.1: 'TLP is set to the system-defined speculation
        # length'); dynamic policies take over from the first iteration.
        clock = self._charge_prefill(summary, active)
        current_tlp = self.speculation.tlp
        self.system.begin_batch(len(active), current_tlp)

        # The batch's decode slots as plain ints (see DecodeSlots): an
        # exact FixedTLP whose slots accept a constant per step credits
        # it without a draw; otherwise each slot draws.
        slots = DecodeSlots.for_policy(self.speculation, policy)
        slots.admit(active)

        # Hot loop: bind the per-iteration callees once. The loop runs
        # hundreds of thousands of times in design-space sweeps, where
        # attribute lookups are a measurable slice of wall-clock.
        mean_mode = pricer.context_mode == "mean"
        price_mean_total = pricer.price_mean_total
        price_contexts = pricer.price_contexts
        next_tlp = policy.next_tlp
        trace_tlp = self.tlp_trace.record
        step_slots = slots.step
        latencies = summary.request_latencies
        draft_overhead = self.speculation.draft_overhead_s
        observe_finished = self.system.observe_finished
        add_iteration = summary.add_iteration

        iteration = 0
        accepted_fraction = 1.0
        while True:
            if iteration >= MAX_ITERATIONS:
                raise SimulationError("decoding did not converge (runaway loop)")
            if not slots:
                fresh = batcher.admit()
                if not fresh:
                    break
                clock += self._charge_prefill(summary, fresh)
                self.system.begin_batch(len(fresh), current_tlp)
                slots.admit(fresh)
                continue

            rlp = len(slots)
            tlp = next_tlp(iteration, rlp, accepted_fraction)
            if tlp != current_tlp:
                self.system.update_tlp(tlp)
                current_tlp = tlp
            trace_tlp(tlp)

            if mean_mode:
                result = price_mean_total(rlp, tlp, slots.context_total)
            else:
                result = price_contexts(slots.contexts(), tlp)
            draft_seconds = draft_overhead(tlp)
            summary.draft_seconds += draft_seconds
            clock += draft_seconds + result.seconds

            # Latency is the run-relative wall clock at finish time:
            # queueing (iterations spent waiting for a slot), prefill, and
            # decoding. The blocking loop starts its clock at admission of
            # the first batch — arrival stamps are the event-driven
            # run_trace path's job (dynamic batches launched via
            # form_dynamic_batches carry their own start_s offset).
            accepted_total, finished = step_slots(tlp, sampler, iteration)
            # ``record_request_latency`` inlined: the clock only grows,
            # so the non-negativity it validates always holds.
            latencies.extend([clock] * len(finished))
            accepted_fraction = self._accepted_fraction(
                accepted_total, rlp, tlp
            )

            observe_finished(len(finished), rlp)
            add_iteration(
                IterationRecord(
                    iteration=iteration,
                    result=result,
                    tokens_accepted=accepted_total,
                    rlp_before=rlp,
                    rlp_after=len(slots),
                )
            )
            iteration += 1

            fresh = batcher.admit()
            if fresh:
                clock += self._charge_prefill(summary, fresh)
                slots.admit(fresh)
                self.system.begin_batch(len(slots), current_tlp)

        summary.reschedules = self._reschedule_count()
        # The component totals and the running clock add the same terms
        # in different orders; the max keeps the makespan at or past the
        # last finish, which is stamped from the clock.
        summary.makespan_seconds = max(summary.total_seconds, clock)
        return summary

    @staticmethod
    def _accepted_fraction(accepted_total: int, rlp: int, tlp: int) -> float:
        """Fraction of drafted tokens accepted (bonus tokens excluded)."""
        if tlp <= 1:
            return 1.0
        drafted = rlp * (tlp - 1)
        accepted_drafts = max(0, accepted_total - rlp)
        return accepted_drafts / drafted

    def _charge_prefill(
        self, summary: RunSummary, requests: Sequence[Request]
    ) -> float:
        """Charge prefill for ``requests``; returns the seconds consumed."""
        if not requests:
            return 0.0
        mean_input = max(1, round(sum(r.input_len for r in requests) / len(requests)))
        result = self.system.execute_prefill(self.model, len(requests), mean_input)
        summary.prefill_seconds += result.seconds
        summary.prefill_energy += result.energy_joules
        for request in requests:
            request.state = RequestState.DECODING
        return result.seconds

    def _reschedule_count(self) -> int:
        scheduler = getattr(self.system, "scheduler", None)
        if scheduler is None:
            return 0
        return scheduler.reschedule_count
