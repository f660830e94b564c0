"""Abstract serving system and the per-iteration result type.

A serving system prices decoding iterations. The execution model within an
iteration is sequential across the four kernels (they are data-dependent
inside each layer), so iteration time is the sum of per-layer kernel times
scaled by the layer count, plus the communication time of shipping
Q/K/V vectors to the attention unit and attention outputs back, plus a
small host overhead (token gathering, sampling, scheduler bookkeeping —
the "Other" slice of the paper's Figure 12).

Scalar pricing follows the paper's kernel split (Sections 3 and 5). The
FC half of a step — the QKV, projection and FFN kernels on the planned
FC device, the attention I/O over the link, and the platform's
background power — depends on the batch shape alone, so
:meth:`ServingSystem._fc_half` prices it once per (FC placement, model,
MoE config, rlp, tlp) and keeps it in a per-system memo; only the
attention kernel, which depends on the KV context, is built and executed
per step. Reassigning any system field (a device, the link) drops the
memo. Reuse is bit-identical: each memoized value is the expression the
per-step loop evaluated, accumulated in the same order (the pipelined
path keeps each FC kernel's joules separately, so its running energy sum
adds them one by one as before).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.placement import PlacementTarget

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scheduler import LoadSignal
    from repro.models.moe import MoEModelConfig
    from repro.models.workload import StepGrid
    from repro.systems.batch import IterationResultArray
from repro.devices.base import ComputeDevice, KernelResult
from repro.devices.interconnect import Link
from repro.errors import CapacityError, ConfigurationError
from repro.models.config import ModelConfig
from repro.models.workload import (
    DecodeStep,
    fc_invocations,
    prefill_cost,
    step_attention_cost,
)
from repro.units import us


def attention_io_bytes(model: ModelConfig, tokens):
    """Link bytes for one iteration's attention I/O over all layers.

    Per layer: Q vectors plus fresh K/V entries travel to the attention
    unit; attention context vectors travel back. Polymorphic over an int
    token count (scalar pricing) and an int64 lane array (batch pricing)
    — one body, so the two paths cannot drift apart.
    """
    elem = model.dtype_bytes
    h = model.hidden_dim
    to_attn = tokens * 3 * h * elem  # Q + new K + new V
    from_attn = tokens * h * elem
    per_layer_bytes = to_attn + from_attn
    return per_layer_bytes * model.num_layers


@dataclass(frozen=True)
class IterationResult:
    """Time/energy accounting for one decoding iteration.

    Attributes:
        seconds: Wall-clock iteration time.
        energy_joules: Total energy.
        time_breakdown: Seconds by component: ``fc``, ``attention``,
            ``communication``, ``other``.
        energy_breakdown: Joules by the same components.
        fc_target: Where the FC kernels ran.
        rlp: Active requests this iteration.
        tlp: Speculation length this iteration.
    """

    seconds: float
    energy_joules: float
    time_breakdown: Dict[str, float]
    energy_breakdown: Dict[str, float]
    fc_target: PlacementTarget
    rlp: int
    tlp: int

    def __post_init__(self) -> None:
        # Written so NaN fails too: every comparison with NaN is false.
        if not (
            0.0 <= self.seconds < math.inf
            and 0.0 <= self.energy_joules < math.inf
        ):
            raise ConfigurationError(
                "iteration time/energy must be finite and non-negative, got "
                f"seconds={self.seconds!r}, energy_joules={self.energy_joules!r}"
            )


def same_configuration(a: "ServingSystem", b: "ServingSystem") -> bool:
    """Whether two systems price every step identically.

    Same type, same :attr:`ServingSystem.pipeline_chunks` — a plain
    attribute, so dataclass ``==`` does not compare it — and dataclass
    equality over devices, links and thresholds. Shared step-cost cache
    scopes and the vectorized core's price groups both decide
    interchangeability through this one test.
    """
    return (
        type(a) is type(b)
        and a.pipeline_chunks == b.pipeline_chunks
        and a == b
    )


class ServingSystem(abc.ABC):
    """A complete computing platform that executes LLM decoding.

    Subclasses define where FC kernels run (possibly dynamically) and which
    units/links compose the system. The serving engine drives a system via
    :meth:`begin_batch`, :meth:`execute_step`, and :meth:`observe_outputs`.
    """

    #: Registry/reporting name; subclasses override.
    name: str = "abstract"

    #: Host-side per-iteration cost: output gathering, sampling, and (for
    #: PAPI) the scheduler's RLP*TLP estimate — all cheap (Section 5.2).
    host_overhead_s: float = us(200.0)

    #: Sub-batch pipelining depth (SpecPIM-style overlap): the batch is
    #: split into this many chunks so one chunk's attention (on Attn-PIM,
    #: behind the link) overlaps the next chunk's FC (on PUs/FC-PIM).
    #: 1 = the paper's serial execution. Chunking re-streams FC weights per
    #: chunk, so it only pays off when FC is compute-bound and the
    #: attention+communication share is substantial.
    pipeline_chunks: int = 1

    def background_power_watts(self) -> float:
        """Idle power of every device held by the system while serving.

        Charged over wall-clock time for each iteration and the prefill,
        so slower systems pay for keeping the whole platform powered —
        the effect behind the paper's observation that PAPI edges out even
        the all-PIM design on energy despite using GPU cores part-time.
        """
        from repro.devices.energy import GPU_IDLE_WATTS, PIM_STACK_IDLE_WATTS

        watts = 0.0
        gpus = getattr(self, "gpus", None)
        if gpus is not None:
            watts += GPU_IDLE_WATTS * gpus.count
        for attr in ("fc_pim", "attn_pim"):
            pool = getattr(self, attr, None)
            if pool is not None:
                watts += PIM_STACK_IDLE_WATTS * pool.num_stacks
        return watts

    @abc.abstractmethod
    def fc_unit_for(self, target: PlacementTarget) -> ComputeDevice:
        """The device implementing ``target`` for FC kernels."""

    @abc.abstractmethod
    def attention_unit(self) -> ComputeDevice:
        """The device executing attention kernels."""

    @abc.abstractmethod
    def attention_link(self) -> Link:
        """Link carrying Q/K/V and attention outputs to/from the unit."""

    @abc.abstractmethod
    def plan_fc_target(self, rlp: int, tlp: int) -> PlacementTarget:
        """Decide where the next iteration's FC kernels run."""

    def begin_batch(self, batch_size: int, speculation_length: int) -> None:
        """Hook called when a new batch starts (PAPI runs initial scheduling)."""

    def observe_outputs(self, output_tokens: Sequence[int]) -> None:
        """Hook called with the gathered output-token vector (PAPI monitors)."""

    def observe_finished(self, finished: int, batch_size: int) -> None:
        """Count-based twin of :meth:`observe_outputs`.

        The vectorized cluster core reports each iteration as *how many
        of the batch's requests emitted ``<eos>``* instead of
        materializing a per-request output vector. The runtime monitors
        this repo models are count-based (PAPI counts ``<eos>`` tokens to
        decrement RLP), so the two hooks are informationally equivalent.
        The default reconstructs an equivalent vector for subclasses that
        only override :meth:`observe_outputs` — and skips even that when
        the subclass left the vector hook as the no-op default.
        """
        if type(self).observe_outputs is ServingSystem.observe_outputs:
            return
        from repro.core.scheduler import EOS_TOKEN

        self.observe_outputs(
            [EOS_TOKEN] * finished + [0] * (batch_size - finished)
        )

    def observe_steady(self, count: int, batch_size: int) -> None:
        """Observe ``count`` finish-free iterations in one call.

        The macro-stepping serving cores collapse a run of iterations in
        which no request finishes; this hook is the matching collapse of
        ``count`` back-to-back ``observe_finished(0, batch_size)`` calls.
        The default is exact for any subclass: systems that left both
        per-iteration hooks as no-ops skip entirely, and everything else
        replays the per-iteration calls so stateful monitors see the
        identical sequence. Systems whose monitor is provably
        steady-state-idempotent (PAPI) override this with a closed form.
        """
        if (
            type(self).observe_outputs is ServingSystem.observe_outputs
            and type(self).observe_finished is ServingSystem.observe_finished
        ):
            return
        for _ in range(count):
            self.observe_finished(0, batch_size)

    def update_tlp(self, tlp: int) -> None:
        """Hook called when system software changes the speculation length.

        PAPI forwards this to the scheduler's TLP register (Section 5.2.2's
        'the host CPU notifies the PAPI system to update the register').
        """

    def load_signal(self) -> Optional["LoadSignal"]:
        """Scheduler load snapshot for cluster routing, if the system has
        a dynamic scheduler (``None`` for statically placed systems)."""
        return None

    # -- capacity ------------------------------------------------------------

    def weight_capacity_bytes(self) -> float:
        """Bytes available to hold FC weights."""
        unit = self.fc_unit_for(self.plan_fc_target(1, 1))
        capacity = getattr(unit, "memory_bytes", None) or getattr(
            unit, "capacity_bytes", None
        )
        if capacity is None:
            raise ConfigurationError(f"{unit!r} exposes no capacity")
        return float(capacity)

    def kv_capacity_bytes(self) -> float:
        """Bytes available to hold KV caches."""
        unit = self.attention_unit()
        capacity = getattr(unit, "capacity_bytes", None) or getattr(
            unit, "memory_bytes", None
        )
        if capacity is None:
            raise ConfigurationError(f"{unit!r} exposes no capacity")
        return float(capacity)

    def check_capacity(
        self,
        model: ModelConfig,
        batch_size: int,
        max_seq_len: int,
        moe: Optional["MoEModelConfig"] = None,
    ) -> None:
        """Raise :class:`CapacityError` if the workload cannot fit.

        Weights must fit the FC unit's memory; the batch's worst-case KV
        cache must fit the attention unit's memory (Section 3.2's memory
        capacity limit on initial RLP). An MoE workload must fit *all*
        experts — sparsity cuts compute, not resident weight bytes, which
        is exactly the bank-capacity pressure expert placement sweeps
        probe.
        """
        name = model.name if moe is None else moe.name
        weight_need = model.weight_bytes if moe is None else moe.weight_bytes
        weight_have = self.weight_capacity_bytes()
        if weight_need > weight_have:
            raise CapacityError(
                f"{self.name}: {name} weights need {weight_need / 1e9:.0f} GB, "
                f"only {weight_have / 1e9:.0f} GB available"
            )
        kv_need = batch_size * model.kv_bytes(max_seq_len)
        kv_have = self.kv_capacity_bytes()
        if kv_need > kv_have:
            raise CapacityError(
                f"{self.name}: KV cache needs {kv_need / 1e9:.0f} GB for "
                f"batch {batch_size} x {max_seq_len} tokens, only "
                f"{kv_have / 1e9:.0f} GB available"
            )

    def max_batch_size(self, model: ModelConfig, max_seq_len: int) -> int:
        """Largest batch whose worst-case KV cache fits (Section 3.2b)."""
        per_request = model.kv_bytes(max_seq_len)
        return int(self.kv_capacity_bytes() // per_request)

    # -- execution -----------------------------------------------------------

    def step_chunk_sizes(self, rlp: int) -> Tuple[int, ...]:
        """Sub-batch sizes a decode step of ``rlp`` requests executes as.

        ``(rlp,)`` for a serial step: ``pipeline_chunks <= 1``, or a batch
        smaller than the pipeline depth. Otherwise the ``divmod`` split
        into ``pipeline_chunks`` near-even sub-batches, larger ones first,
        empty ones dropped. :meth:`execute_step` dispatches on this and
        the pipelined path slices the step's contexts by it; the step
        pricer keys per-request prices by the context total of each of
        these chunks, so the two can never disagree on the split.
        """
        chunks = self.pipeline_chunks
        if chunks <= 1 or rlp < chunks:
            return (rlp,)
        base, extra = divmod(rlp, chunks)
        sizes = (base + (1 if i < extra else 0) for i in range(chunks))
        return tuple(size for size in sizes if size > 0)

    def execute_step(self, step: DecodeStep) -> IterationResult:
        """Price one decoding iteration on this system.

        Dispatches to the pipelined path when :meth:`step_chunk_sizes`
        splits the batch into more than one sub-batch.
        """
        sizes = self.step_chunk_sizes(step.rlp)
        if len(sizes) > 1:
            return self._execute_step_pipelined(step, sizes)
        return self._execute_step_serial(step)

    def price_steps(self, grid: "StepGrid") -> "IterationResultArray":
        """Price a whole grid of decoding iterations in vectorized passes.

        The batch-first twin of :meth:`execute_step`: point ``i`` of the
        returned :class:`~repro.systems.batch.IterationResultArray` is
        bit-equal to ``execute_step(grid.step_at(i))`` — including the
        sub-batch pipelined dispatch when ``pipeline_chunks > 1`` — but a
        10k-point grid costs a few dozen numpy passes instead of 10k trips
        through the scalar cost model. Design-space sweeps and admission-
        cost projection route through here.
        """
        from repro.systems.batch import price_steps as _price_steps

        return _price_steps(self, grid)

    def __setattr__(self, name: str, value) -> None:
        # Reassigning any field (a device, the link) can change an FC
        # half's price or the background power: drop the memo, which
        # refills on the next step.
        super().__setattr__(name, value)
        self.__dict__.pop("_fc_halves", None)

    def _fc_half(
        self,
        fc_target: PlacementTarget,
        model: ModelConfig,
        moe: Optional["MoEModelConfig"],
        rlp: int,
        tlp: int,
    ) -> tuple:
        """The context-free half of a decode step's price, memoized.

        Returns ``(fc_seconds, fc_energy, fc_energy_terms, comm_seconds,
        comm_energy, background_watts)``: the three FC kernels on the
        ``fc_target`` device (their joules also per kernel, in execution
        order, for the pipelined path's running sum), the attention I/O
        over the link — Q/K/V to the attention unit and context vectors
        back, one message per direction per layer — and the platform's
        idle power. None of it depends on the KV context, so it is priced
        once per (placement, model, MoE config, rlp, tlp) and reused by
        every step at that point; the memo is dropped whenever a system
        field is reassigned. Each value is the expression the per-step
        loop computed, accumulated in the same order, so reuse is
        bit-identical.
        """
        key = (fc_target, model, moe, rlp, tlp)
        memo = self.__dict__.get("_fc_halves")
        if memo is None:
            memo = self.__dict__["_fc_halves"] = {}
        half = memo.get(key)
        if half is not None:
            return half
        fc_device = self.fc_unit_for(fc_target)
        fc_seconds = 0.0
        fc_energy = 0.0
        fc_energy_terms = []
        for invocation in fc_invocations(model, moe, rlp, tlp):
            result = fc_device.execute(invocation.per_layer)
            layers = invocation.num_layers
            fc_seconds += result.seconds * layers
            term = result.energy_joules * layers
            fc_energy += term
            fc_energy_terms.append(term)
        link = self.attention_link()
        io_bytes = attention_io_bytes(model, rlp * tlp)
        half = memo[key] = (
            fc_seconds,
            fc_energy,
            tuple(fc_energy_terms),
            link.transfer_time(io_bytes, messages=2 * model.num_layers),
            link.transfer_energy(io_bytes),
            self.background_power_watts(),
        )
        return half

    def _execute_step_serial(self, step: DecodeStep) -> IterationResult:
        rlp = step.rlp
        tlp = step.tlp
        fc_target = self.plan_fc_target(rlp, tlp)
        fc_seconds, fc_energy, _, comm_seconds, comm_energy, watts = (
            self._fc_half(fc_target, step.model, step.moe, rlp, tlp)
        )
        attention = step.attention_invocation
        result = self.attention_unit().execute(attention.per_layer)
        attn_seconds = result.seconds * attention.num_layers
        attn_energy = result.energy_joules * attention.num_layers

        other_seconds = self.host_overhead_s
        total_seconds = fc_seconds + attn_seconds + comm_seconds + other_seconds
        background_energy = watts * total_seconds
        total_energy = fc_energy + attn_energy + comm_energy + background_energy
        return IterationResult(
            seconds=total_seconds,
            energy_joules=total_energy,
            time_breakdown={
                "fc": fc_seconds,
                "attention": attn_seconds,
                "communication": comm_seconds,
                "other": other_seconds,
            },
            energy_breakdown={
                "fc": fc_energy,
                "attention": attn_energy,
                "communication": comm_energy,
                "other": background_energy,
            },
            fc_target=fc_target,
            rlp=rlp,
            tlp=tlp,
        )

    def _execute_step_pipelined(
        self, step: DecodeStep, sizes: Tuple[int, ...]
    ) -> IterationResult:
        """SpecPIM-style sub-batch pipelining across the FC and attention
        units.

        The batch is split into the near-even sub-batches ``sizes`` (see
        :meth:`step_chunk_sizes`). Chunk ``i``'s attention (+ link
        traffic) overlaps chunk ``i+1``'s FC, since the two run on
        different devices. Makespan follows the two-stage pipeline
        recurrence; weights are re-streamed per chunk, which is the real
        cost that makes this a trade-off rather than a free win. Each
        chunk's FC half comes from the memo at the chunk's size, on the
        placement planned for the whole batch.
        """
        model = step.model
        tlp = step.tlp
        layers = model.num_layers

        fc_done = 0.0
        attn_done = 0.0
        fc_seconds = 0.0
        attn_seconds = 0.0
        comm_seconds = 0.0
        fc_energy = 0.0
        attn_energy = 0.0
        comm_energy = 0.0
        fc_target = self.plan_fc_target(step.rlp, tlp)
        attn_device = self.attention_unit()
        offset = 0
        for size in sizes:
            chunk_fc, _, fc_energy_terms, chunk_comm, chunk_comm_energy, watts = (
                self._fc_half(fc_target, model, step.moe, size, tlp)
            )
            # Per-request accounting: each chunk prices its slice of the
            # real context lengths, so exact attention survives the split
            # (attention cost is linear in context, so the chunk sum equals
            # the whole-batch cost).
            chunk_lens = (
                None if step.context_lens is None
                else step.context_lens[offset:offset + size]
            )
            offset += size
            attention = step_attention_cost(
                model, size, tlp, step.mean_context_len, chunk_lens
            )
            result = attn_device.execute(attention)
            chunk_attn = result.seconds * layers
            for term in fc_energy_terms:
                fc_energy += term
            attn_energy += result.energy_joules * layers
            fc_seconds += chunk_fc
            attn_seconds += chunk_attn
            comm_seconds += chunk_comm
            comm_energy += chunk_comm_energy
            fc_done += chunk_fc
            attn_done = max(attn_done, fc_done) + chunk_attn + chunk_comm

        other_seconds = self.host_overhead_s
        total_seconds = attn_done + other_seconds
        background_energy = watts * total_seconds
        total_energy = fc_energy + attn_energy + comm_energy + background_energy
        overlap_saved = (
            fc_seconds + attn_seconds + comm_seconds + other_seconds
        ) - total_seconds
        return IterationResult(
            seconds=total_seconds,
            energy_joules=total_energy,
            time_breakdown={
                "fc": fc_seconds,
                "attention": attn_seconds,
                "communication": comm_seconds,
                "other": other_seconds,
                "overlap": -max(0.0, overlap_saved),
            },
            energy_breakdown={
                "fc": fc_energy,
                "attention": attn_energy,
                "communication": comm_energy,
                "other": background_energy,
            },
            fc_target=fc_target,
            rlp=step.rlp,
            tlp=tlp,
        )

    def execute_prefill(
        self, model: ModelConfig, batch_size: int, input_len: int
    ) -> KernelResult:
        """Price the prefill phase (compute-bound; runs on the FC unit).

        Background power over the prefill duration is folded into the
        returned energy so prefill and decode are accounted consistently.
        """
        cost = prefill_cost(model, batch_size, input_len)
        device = self.fc_unit_for(self.prefill_target())
        result = device.execute(cost)
        background = self.background_power_watts() * result.seconds
        breakdown = dict(result.energy_breakdown)
        breakdown["static"] = breakdown.get("static", 0.0) + background
        return KernelResult(
            device=result.device,
            seconds=result.seconds,
            energy_joules=result.energy_joules + background,
            bound=result.bound,
            energy_breakdown=breakdown,
        )

    def prefill_target(self) -> PlacementTarget:
        """Prefill is compute-bound: PUs when the system has them."""
        return self.plan_fc_target(rlp=10 ** 6, tlp=1)
