"""Continuous-batching token-serving engine model.

One :class:`LlmReplica` is a serving instance (a model replica plus the
host threads driving it) running the standard continuous-batching loop:

* **Admission** — queued sequences join the running batch whenever a
  slot *and* enough KV-cache budget for their current context exist;
  otherwise they wait in arrival order.
* **Prefill** — newly admitted sequences pay a compute-bound cost
  proportional to their *uncached* prompt tokens (a prefix-cache hit
  discounts the shared head), charged in one burst through the
  harness's CPU scheduler.
* **Decode** — every resident sequence advances one token per engine
  step.  Decode is memory-bandwidth-bound, so a step's cost grows
  *sublinearly* with batch size: the weight streaming that dominates a
  step is shared by all resident sequences, which is exactly why
  continuous batching wins (``1 + eff * (n - 1)`` for ``n`` residents,
  against ``n`` for unbatched decode).
* **KV ledger** — each decoded token appends one KV-cache entry; when
  the replica's HBM budget is exhausted the youngest resident sequence
  is preempted (its KV freed, its context re-prefilled on resume),
  matching vLLM-style recompute preemption.

Everything is deterministic given the harness seed: sequence order is
submission order, victim selection is by sequence id, and the only
randomness (session shapes) happens upstream in
:mod:`repro.llm.sessions`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Generator, List, Optional

from repro.llm.catalog import LlmMix
from repro.sim.engine import Event

#: Serving-model cost constants.  These are *simulation-unit* costs
#: (instructions charged to the simulated host CPU per token) chosen so
#: a default run completes a few thousand turns in a couple of sim
#: seconds — the same scaled-down-but-mechanistically-faithful sizing
#: the storage and cache models use.
PREFILL_INSTR_PER_TOKEN = 9_000.0
DECODE_INSTR_PER_TOKEN = 133_000.0
#: Marginal step cost of one more resident sequence (the batched share
#: of weight streaming): step = base * (1 + eff * (n - 1)).
DECODE_BATCH_EFFICIENCY = 0.25
#: KV-cache bytes appended per resident token (fp16 K+V across layers
#: for a mid-size model).
KV_BYTES_PER_TOKEN = 160_000.0
#: Per-replica HBM budget available to the KV cache.
KV_BUDGET_BYTES = 2.0e9
#: Continuous-batching slots per replica.
MAX_BATCH_SLOTS = 12
#: Prefix-cache capacity, in distinct shared prefixes per replica.
PREFIX_CACHE_ENTRIES = 32


@dataclass(frozen=True)
class EngineParams:
    """Tunable serving-engine parameters (one instance per run)."""

    max_batch_slots: int = MAX_BATCH_SLOTS
    kv_budget_bytes: float = KV_BUDGET_BYTES
    kv_bytes_per_token: float = KV_BYTES_PER_TOKEN
    prefill_instr_per_token: float = PREFILL_INSTR_PER_TOKEN
    decode_instr_per_token: float = DECODE_INSTR_PER_TOKEN
    decode_batch_efficiency: float = DECODE_BATCH_EFFICIENCY
    prefix_cache_entries: int = PREFIX_CACHE_ENTRIES

    def __post_init__(self) -> None:
        if self.max_batch_slots < 1:
            raise ValueError("max_batch_slots must be >= 1")
        if self.kv_budget_bytes <= 0 or self.kv_bytes_per_token <= 0:
            raise ValueError("KV budget and bytes-per-token must be positive")
        if self.prefill_instr_per_token <= 0 or self.decode_instr_per_token <= 0:
            raise ValueError("per-token instruction costs must be positive")
        if not 0.0 <= self.decode_batch_efficiency <= 1.0:
            raise ValueError("decode_batch_efficiency must be in [0, 1]")
        if self.prefix_cache_entries < 1:
            raise ValueError("prefix_cache_entries must be >= 1")

    @property
    def kv_budget_tokens(self) -> int:
        return int(self.kv_budget_bytes / self.kv_bytes_per_token)

    def decode_step_instructions(self, residents: int) -> float:
        """Cost of one engine step with ``residents`` sequences."""
        if residents < 1:
            return 0.0
        return self.decode_instr_per_token * (
            1.0 + self.decode_batch_efficiency * (residents - 1)
        )


def expected_turn_instructions(mix: LlmMix, params: EngineParams) -> float:
    """Analytic mean instructions one turn costs the engine.

    Used to size offered load against replica capacity: prefill pays
    for the mean uncached prompt (shared prefixes discounted at their
    share), decode pays the *batched* per-token rate at full slots.
    """
    cached = mix.prefix_share * min(
        mix.prefix_tokens_mean, mix.prompt_tokens_mean
    )
    prefill = (mix.prompt_tokens_mean - cached) * params.prefill_instr_per_token
    per_token = params.decode_step_instructions(params.max_batch_slots) / (
        params.max_batch_slots
    )
    decode = mix.output_tokens_mean * per_token
    return prefill + decode


class KvLedger:
    """Token-granular KV-cache accounting against an HBM budget."""

    __slots__ = (
        "budget_tokens",
        "bytes_per_token",
        "resident_tokens",
        "peak_tokens",
        "overflow_tokens",
    )

    def __init__(self, budget_tokens: int, bytes_per_token: float) -> None:
        if budget_tokens < 1:
            raise ValueError("budget_tokens must be >= 1")
        self.budget_tokens = budget_tokens
        self.bytes_per_token = bytes_per_token
        self.resident_tokens = 0
        self.peak_tokens = 0
        #: Tokens force-admitted past the budget (a lone sequence whose
        #: context alone exceeds HBM must still make progress).
        self.overflow_tokens = 0

    def try_reserve(self, tokens: int) -> bool:
        if self.resident_tokens + tokens > self.budget_tokens:
            return False
        self.resident_tokens += tokens
        if self.resident_tokens > self.peak_tokens:
            self.peak_tokens = self.resident_tokens
        return True

    def force_reserve(self, tokens: int) -> None:
        overflow = max(0, self.resident_tokens + tokens - self.budget_tokens)
        self.overflow_tokens += overflow
        self.resident_tokens += tokens
        if self.resident_tokens > self.peak_tokens:
            self.peak_tokens = self.resident_tokens

    def release(self, tokens: int) -> None:
        if tokens > self.resident_tokens:
            raise ValueError("releasing more KV tokens than resident")
        self.resident_tokens -= tokens

    @property
    def peak_bytes(self) -> float:
        return self.peak_tokens * self.bytes_per_token


class Sequence:
    """One turn travelling through a replica."""

    __slots__ = (
        "seq_id",
        "prompt_tokens",
        "prefix_group",
        "prefix_tokens",
        "target_tokens",
        "submitted_at",
        "first_token_at",
        "last_token_at",
        "preempted_at",
        "decoded",
        "kv_tokens",
        "needs_prefill",
        "preemptions",
        "done",
    )

    def __init__(
        self,
        seq_id: int,
        prompt_tokens: int,
        output_tokens: int,
        prefix_group: int = -1,
        prefix_tokens: int = 0,
    ) -> None:
        if prompt_tokens < 1 or output_tokens < 1:
            raise ValueError("sequences need prompt and output tokens")
        self.seq_id = seq_id
        self.prompt_tokens = prompt_tokens
        self.prefix_group = prefix_group
        self.prefix_tokens = prefix_tokens
        self.target_tokens = output_tokens
        self.submitted_at = 0.0
        self.first_token_at: Optional[float] = None
        self.last_token_at = 0.0
        self.preempted_at: Optional[float] = None
        self.decoded = 0
        self.kv_tokens = 0
        self.needs_prefill = True
        self.preemptions = 0
        self.done: Optional[Event] = None

    @property
    def context_tokens(self) -> int:
        """Tokens that must be (re-)prefilled: prompt + decoded so far."""
        return self.prompt_tokens + self.decoded


@dataclass
class EngineStats:
    """Counters one replica accumulates (reset at the warmup edge)."""

    steps: int = 0
    completions: int = 0
    prefill_tokens: int = 0
    cached_prefix_tokens: int = 0
    decoded_tokens: int = 0
    preemptions: int = 0
    admission_blocked_steps: int = 0
    max_queue_depth: int = 0
    prefix_lookups: int = 0
    prefix_hits: int = 0

    def reset(self) -> None:
        self.steps = 0
        self.completions = 0
        self.prefill_tokens = 0
        self.cached_prefix_tokens = 0
        self.decoded_tokens = 0
        self.preemptions = 0
        self.admission_blocked_steps = 0
        self.max_queue_depth = 0
        self.prefix_lookups = 0
        self.prefix_hits = 0

    def merge_from(self, other: "EngineStats") -> None:
        self.steps += other.steps
        self.completions += other.completions
        self.prefill_tokens += other.prefill_tokens
        self.cached_prefix_tokens += other.cached_prefix_tokens
        self.decoded_tokens += other.decoded_tokens
        self.preemptions += other.preemptions
        self.admission_blocked_steps += other.admission_blocked_steps
        self.max_queue_depth = max(self.max_queue_depth, other.max_queue_depth)
        self.prefix_lookups += other.prefix_lookups
        self.prefix_hits += other.prefix_hits


class _PrefixCache:
    """Tiny LRU of shared-prefix group ids (per replica)."""

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        # Dicts preserve insertion order; re-inserting refreshes recency.
        self._entries: Dict[int, None] = {}

    def lookup(self, group: int) -> bool:
        if group in self._entries:
            del self._entries[group]
            self._entries[group] = None
            return True
        if len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[group] = None
        return False


class LlmReplica:
    """One serving instance running the continuous-batching loop."""

    def __init__(
        self,
        harness,
        params: EngineParams,
        stats: Optional[EngineStats] = None,
        on_first_token: Optional[Callable[[Sequence, float], None]] = None,
        on_token_gaps: Optional[Callable[[float, int], None]] = None,
        on_preempt_resume: Optional[Callable[[Sequence, float], None]] = None,
    ) -> None:
        self.harness = harness
        self.env = harness.env
        self.params = params
        self.stats = stats if stats is not None else EngineStats()
        self.kv = KvLedger(params.kv_budget_tokens, params.kv_bytes_per_token)
        self.pending: Deque[Sequence] = deque()
        self.active: List[Sequence] = []
        self._prefix_cache = _PrefixCache(params.prefix_cache_entries)
        self._wake: Optional[Event] = None
        #: ``on_first_token(seq, ttft_seconds)`` — TTFT observation;
        #: ``on_token_gaps(gap_seconds, count)`` — ``count`` consecutive
        #: inter-token latencies of one step that all equal
        #: ``gap_seconds`` (a step's gaps arrive as runs of equal values,
        #: in decode order); ``on_preempt_resume(seq, stall_seconds)`` —
        #: time the sequence spent evicted from the batch.
        self.on_first_token = on_first_token
        self.on_token_gaps = on_token_gaps
        self.on_preempt_resume = on_preempt_resume
        # A decode step's (user, kernel) seconds by batch size, with the
        # arithmetic of ``harness.burst`` (bit-identical durations).
        kernel_frac = harness.chars.kernel_frac
        batch = harness.config.batch
        self._decode_dispatches = batch
        self._decode_seconds = []
        for residents in range(params.max_batch_slots + 1):
            seconds = (
                harness.server.service_seconds(
                    params.decode_step_instructions(residents)
                )
                * batch
            )
            self._decode_seconds.append(
                (seconds * (1.0 - kernel_frac), seconds * kernel_frac)
            )
        self.env.process(self._loop())

    # --- client API -----------------------------------------------------------
    def submit(self, seq: Sequence) -> Event:
        """Queue a sequence; the returned event fires at its last token."""
        seq.submitted_at = self.env.now
        seq.done = Event(self.env)
        self.pending.append(seq)
        if len(self.pending) > self.stats.max_queue_depth:
            self.stats.max_queue_depth = len(self.pending)
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()
        return seq.done

    @property
    def resident(self) -> int:
        return len(self.active)

    # --- engine loop ----------------------------------------------------------
    def _admit(self) -> List[Sequence]:
        """Move queued sequences into free slots while KV budget allows.

        Returns the admitted sequences, in admission order: exactly the
        residents that need a prefill this step.
        """
        admitted: List[Sequence] = []
        while self.pending and len(self.active) < self.params.max_batch_slots:
            seq = self.pending[0]
            need = seq.context_tokens
            if not self.kv.try_reserve(need):
                if not self.active:
                    # A lone oversized context must still run: admit it
                    # past the budget rather than deadlock the replica.
                    self.kv.force_reserve(need)
                else:
                    self.stats.admission_blocked_steps += 1
                    break
            self.pending.popleft()
            seq.kv_tokens = need
            seq.needs_prefill = True
            if seq.preempted_at is not None:
                if self.on_preempt_resume is not None:
                    self.on_preempt_resume(seq, self.env.now - seq.preempted_at)
                seq.preempted_at = None
            self.active.append(seq)
            admitted.append(seq)
        return admitted

    def _prefill_discount(self, seq: Sequence) -> int:
        """Uncharged prompt tokens thanks to the prefix cache."""
        if seq.prefix_group < 0 or seq.prefix_tokens <= 0:
            return 0
        self.stats.prefix_lookups += 1
        if self._prefix_cache.lookup(seq.prefix_group):
            self.stats.prefix_hits += 1
            return seq.prefix_tokens
        return 0

    def _preempt(self, victim: Sequence) -> None:
        """Evict ``victim`` back to the queue, freeing its KV."""
        self.active.remove(victim)
        self.kv.release(victim.kv_tokens)
        victim.kv_tokens = 0
        victim.needs_prefill = True
        victim.preemptions += 1
        victim.preempted_at = self.env.now
        self.stats.preemptions += 1
        self.pending.append(victim)

    def _grow_kv(self, seq: Sequence) -> bool:
        """Reserve one more KV token for ``seq``, preempting if needed.

        Returns False when ``seq`` itself was the preemption victim
        (it lost its slot and decodes no token this step).
        """
        while not self.kv.try_reserve(1):
            # Youngest resident loses its KV first (recompute
            # preemption); deterministic via monotonic sequence ids.
            victim = max(self.active, key=lambda s: s.seq_id)
            if victim is seq:
                if len(self.active) == 1:
                    # Nothing left to evict: overflow rather than stall
                    # forever.
                    self.kv.force_reserve(1)
                    seq.kv_tokens += 1
                    return True
                self._preempt(seq)
                return False
            self._preempt(victim)
        seq.kv_tokens += 1
        return True

    def _loop(self) -> Generator:
        env = self.env
        params = self.params
        stats = self.stats
        kv = self.kv
        active = self.active
        execute = self.harness.scheduler.execute
        decode_seconds = self._decode_seconds
        dispatches = self._decode_dispatches
        on_first_token = self.on_first_token
        on_token_gaps = self.on_token_gaps
        while True:
            if not active and not self.pending:
                self._wake = Event(env)
                yield self._wake
                self._wake = None
            fresh = self._admit()
            if fresh:
                instructions = 0.0
                for seq in fresh:
                    tokens = seq.context_tokens
                    cached = self._prefill_discount(seq)
                    instructions += (tokens - cached) * (
                        params.prefill_instr_per_token
                    )
                    stats.prefill_tokens += tokens
                    stats.cached_prefix_tokens += cached
                    seq.needs_prefill = False
                if instructions > 0:
                    yield from self.harness.burst(instructions)
            if not active:
                continue
            user_seconds, kernel_seconds = decode_seconds[len(active)]
            yield from execute(user_seconds, kernel_seconds, dispatches)
            stats.steps += 1
            now = env.now
            decoded = 0
            # The step's inter-token gaps, delivered as runs of equal
            # values: ``gap_count`` gaps of ``gap`` seconds are pending.
            gap = 0.0
            gap_count = 0
            for seq in list(active):
                if seq.needs_prefill:
                    continue  # preempted by an earlier sequence's growth
                if kv.resident_tokens < kv.budget_tokens:
                    # Room for one more KV token: _grow_kv's common case.
                    kv.resident_tokens += 1
                    if kv.resident_tokens > kv.peak_tokens:
                        kv.peak_tokens = kv.resident_tokens
                    seq.kv_tokens += 1
                elif not self._grow_kv(seq):
                    continue
                seq.decoded += 1
                decoded += 1
                if seq.first_token_at is None:
                    seq.first_token_at = now
                    if on_first_token is not None:
                        on_first_token(seq, now - seq.submitted_at)
                elif on_token_gaps is not None:
                    seq_gap = now - seq.last_token_at
                    if seq_gap != gap and gap_count:
                        on_token_gaps(gap, gap_count)
                        gap_count = 0
                    gap = seq_gap
                    gap_count += 1
                seq.last_token_at = now
                if seq.decoded >= seq.target_tokens:
                    active.remove(seq)
                    kv.release(seq.kv_tokens)
                    seq.kv_tokens = 0
                    stats.completions += 1
                    assert seq.done is not None
                    seq.done.succeed()
            if gap_count:
                on_token_gaps(gap, gap_count)
            stats.decoded_tokens += decoded
