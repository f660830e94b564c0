"""One batch's decode slots as plain ints: the decode-loop ledger.

A decoding batch needs, per slot, exactly three numbers: the KV context
the next step attends over, the output tokens still owed, and the final
sequence length (for KV-capacity checks). A :class:`DecodeSlots` ledger
holds them as parallel int lists in admission order, next to the
:class:`Request` each slot serves, so the decode loops of
``ServingEngine.run_with_batcher`` and the vectorized cluster replicas
never walk request objects per step. A request object is only written
when its slot retires.

The ledger's mode follows from the speculation config alone
(:meth:`DecodeSlots.for_policy`, via
:meth:`~repro.serving.speculative.SpeculationConfig.steady_slot_tokens`):

* **steady** — an exact ``FixedTLP`` where every slot accepts the same
  ``k`` tokens per step without an RNG draw (``s == 1``, or acceptance
  ``>= 1``). While every slot owes more than ``k`` tokens a step is two
  C-speed list comprehensions; the steps that can run before the next
  retirement number ``(min(remaining) - 1) // k`` (the macro-steppers'
  finish-free run), and :meth:`DecodeSlots.advance` credits such a run
  in one pass.
* **sampled** — each slot draws its accepted tokens from the sampler,
  once per slot in slot order (the draw-stream order every core
  shares).

Both are the closed form of calling ``Request.advance`` on every active
request each step, in slot order: the same credited tokens (clipped at
the request's ``<eos>`` point), the same retirements in the same order,
the same sampler position.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.serving.request import Request, RequestState
from repro.serving.speculative import SpeculationConfig, SpeculativeSampler
from repro.serving.tlp_policy import FixedTLP, TLPPolicy


class DecodeSlots:
    """The active slots of one decoding batch, in admission order.

    Iterating yields the slots' requests in slot order; ``len`` is the
    batch's RLP. ``context_total`` is the exact sum of the slots'
    current contexts.

    Args:
        steady: The tokens every slot accepts per step when no draw is
            needed (positive), or ``None`` for a sampled batch.
    """

    __slots__ = (
        "steady", "context_total", "_requests", "_remaining", "_contexts",
        "_finals",
    )

    def __init__(self, steady: Optional[int] = None) -> None:
        if steady is not None and steady <= 0:
            raise SimulationError("steady slot tokens must be positive")
        self.steady = steady
        self.context_total = 0
        self._requests: List[Request] = []
        self._remaining: List[int] = []
        self._contexts: List[int] = []
        self._finals: List[int] = []

    @staticmethod
    def for_policy(
        speculation: SpeculationConfig, policy: TLPPolicy
    ) -> "DecodeSlots":
        """An empty ledger in the mode ``speculation`` and ``policy``
        allow: steady when the policy is exactly :class:`FixedTLP` (a
        subclass could vary its answer) and every slot accepts a
        constant without a draw, sampled otherwise."""
        steady = None
        if type(policy) is FixedTLP:
            steady = speculation.steady_slot_tokens(policy.tlp)
        return DecodeSlots(steady)

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    def admit(self, requests: Iterable[Request]) -> None:
        """Append slots for ``requests`` (mid-life ones included).

        A request's slot starts from its current state: context
        ``input_len + generated`` and ``output_len - generated`` tokens
        owed, so a decode pool can admit a transferred request.
        """
        for request in requests:
            generated = request.generated
            context = request.input_len + generated
            self._requests.append(request)
            self._remaining.append(request.output_len - generated)
            self._contexts.append(context)
            self._finals.append(request.input_len + request.output_len)
            self.context_total += context

    def contexts(self) -> List[int]:
        """Every slot's current context, in slot order."""
        return list(self._contexts)

    def max_final_length(self) -> int:
        """Largest ``input_len + output_len`` among the slots (0 if none)."""
        return max(self._finals, default=0)

    def finish_free(self) -> int:
        """Steady steps that can complete before any slot retires:
        ``(min remaining - 1) // k``."""
        if not self._remaining:
            raise SimulationError("finish_free of an empty batch")
        return (min(self._remaining) - 1) // self.steady

    def advance(self, steps: int) -> None:
        """Credit ``steps`` finish-free steady steps in one pass.

        The closed form of ``steps`` calls to :meth:`step` when none of
        them retires a slot (``steps <= finish_free()``).
        """
        if steps > self.finish_free():
            raise SimulationError("advance would skip a slot's retirement")
        credited = self.steady * steps
        self._remaining = [rem - credited for rem in self._remaining]
        self._contexts = [ctx + credited for ctx in self._contexts]
        self.context_total += credited * len(self._requests)

    def step(
        self, tlp: int, sampler: SpeculativeSampler, iteration: int
    ) -> Tuple[int, List[Request]]:
        """Credit one decoding step to every slot; retire finished ones.

        Returns ``(accepted tokens, retired requests in slot order)``.
        Retired requests are stamped as ``Request.advance`` would leave
        them (all tokens generated, ``FINISHED``, ``finish_iteration``)
        and leave the batch. A steady ledger ignores ``tlp`` and
        ``sampler`` (the owner guarantees the fixed speculation length).
        """
        remaining = self._remaining
        fixed = self.steady
        if fixed is not None and min(remaining) > fixed:
            # Nothing retires: every slot is credited exactly ``k``.
            accepted_total = fixed * len(remaining)
            self._remaining = [rem - fixed for rem in remaining]
            self._contexts = [ctx + fixed for ctx in self._contexts]
            self.context_total += accepted_total
            return accepted_total, []
        if fixed is None and tlp == 1:
            fixed = 1  # no draft model: one token per slot, no draw
        draw = sampler.accepted_tokens if fixed is None else None
        contexts = self._contexts
        done: List[int] = []
        accepted_total = 0
        for index, rem in enumerate(remaining):
            accepted = fixed if draw is None else draw(tlp)
            if accepted < rem:
                remaining[index] = rem - accepted
                contexts[index] += accepted
                accepted_total += accepted
            else:
                # The retiring slot is credited only what it still owed.
                accepted_total += rem
                done.append(index)
        if not done:
            self.context_total += accepted_total
            return accepted_total, []
        requests = self._requests
        finals = self._finals
        retired = [requests[index] for index in done]
        released = 0
        for index in reversed(done):
            released += finals[index]
            del requests[index], remaining[index], contexts[index]
            del finals[index]
        self.context_total += accepted_total - released
        finished = RequestState.FINISHED
        for request in retired:
            request.generated = request.output_len
            request.state = finished
            request.finish_iteration = iteration
        return accepted_total, retired
