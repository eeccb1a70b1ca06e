"""The continuous-batching engine: KV ledger, preemption, prefix cache."""

import pytest

from repro.llm.catalog import get_mix
from repro.llm.engine import (
    EngineParams,
    EngineStats,
    KvLedger,
    LlmReplica,
    Sequence,
    expected_turn_instructions,
)
from repro.uarch.characteristics import WorkloadCharacteristics
from repro.workloads.base import RunConfig
from repro.workloads.profiles import BENCHMARK_PROFILES
from repro.workloads.runner import BenchmarkHarness


def _harness():
    chars = BENCHMARK_PROFILES["llmbench"]
    return BenchmarkHarness(RunConfig(), chars)


def _run_sequences(params, specs, until=60.0):
    """Submit (prompt, output) pairs to one replica; run to completion."""
    harness = _harness()
    replica = LlmReplica(harness, params)
    done = []
    for index, (prompt, output) in enumerate(specs):
        seq = Sequence(seq_id=index, prompt_tokens=prompt, output_tokens=output)
        done.append(replica.submit(seq))

    def waiter():
        for event in done:
            yield event
        harness.env.stop()

    harness.env.process(waiter())
    harness.env.run(until=until)
    return replica


class TestEngineParams:
    def test_defaults_valid(self):
        params = EngineParams()
        assert params.kv_budget_tokens == 12_500

    def test_validation(self):
        for bad in (
            {"max_batch_slots": 0},
            {"kv_budget_bytes": 0.0},
            {"kv_bytes_per_token": -1.0},
            {"prefill_instr_per_token": 0.0},
            {"decode_instr_per_token": 0.0},
            {"decode_batch_efficiency": 1.5},
            {"prefix_cache_entries": 0},
        ):
            with pytest.raises(ValueError):
                EngineParams(**bad)

    def test_decode_step_is_sublinear(self):
        params = EngineParams(decode_batch_efficiency=0.25)
        one = params.decode_step_instructions(1)
        eight = params.decode_step_instructions(8)
        assert one == params.decode_instr_per_token
        assert eight < 8 * one
        assert eight == one * (1 + 0.25 * 7)

    def test_expected_turn_instructions_positive(self):
        params = EngineParams()
        for name in ("chat", "codegen", "rag_summarize", "long_reasoning"):
            assert expected_turn_instructions(get_mix(name), params) > 0


class TestKvLedger:
    def test_reserve_release_accounting(self):
        ledger = KvLedger(100, 10.0)
        assert ledger.try_reserve(60)
        assert ledger.try_reserve(40)
        assert not ledger.try_reserve(1)
        assert ledger.peak_tokens == 100
        assert ledger.peak_bytes == 1000.0
        ledger.release(50)
        assert ledger.resident_tokens == 50
        assert ledger.peak_tokens == 100

    def test_force_reserve_counts_overflow(self):
        ledger = KvLedger(100, 10.0)
        ledger.force_reserve(130)
        assert ledger.resident_tokens == 130
        assert ledger.overflow_tokens == 30

    def test_forced_tokens_past_budget_count_once(self):
        ledger = KvLedger(100, 10.0)
        ledger.force_reserve(90)    # under budget: no overflow
        assert ledger.overflow_tokens == 0
        ledger.force_reserve(20)    # 10 of its tokens land past 100
        assert ledger.overflow_tokens == 10
        ledger.force_reserve(5)     # already over: all 5 are overflow
        assert ledger.overflow_tokens == 15
        assert ledger.resident_tokens == ledger.peak_tokens == 115
        ledger.release(20)
        ledger.force_reserve(3)     # back under budget after a release
        assert ledger.overflow_tokens == 15

    def test_over_release_raises(self):
        ledger = KvLedger(100, 10.0)
        with pytest.raises(ValueError):
            ledger.release(1)


class TestContinuousBatching:
    def test_all_sequences_complete(self):
        replica = _run_sequences(EngineParams(), [(64, 32)] * 8)
        assert replica.stats.completions == 8
        assert replica.stats.decoded_tokens == 8 * 32
        assert not replica.active and not replica.pending
        assert replica.kv.resident_tokens == 0

    def test_queue_beyond_slots(self):
        params = EngineParams(max_batch_slots=2)
        replica = _run_sequences(params, [(32, 16)] * 6)
        assert replica.stats.completions == 6
        assert replica.stats.max_queue_depth >= 4

    def test_batched_decode_cheaper_than_serial(self):
        # 4 sequences batched finish in fewer engine steps' worth of
        # sim time than 4 run through a slots=1 replica.
        def total_time(slots):
            harness = _harness()
            replica = LlmReplica(harness, EngineParams(max_batch_slots=slots))
            done = [
                replica.submit(Sequence(i, 32, 64)) for i in range(4)
            ]

            def waiter():
                for event in done:
                    yield event
                harness.env.stop()

            harness.env.process(waiter())
            harness.env.run(until=60.0)
            assert replica.stats.completions == 4
            return harness.env.now

        assert total_time(4) < total_time(1)


class TestKvExhaustion:
    """The pinned acceptance test: a tiny HBM budget must demonstrably
    queue and preempt sessions rather than over-admitting them."""

    def test_exhaustion_preempts_and_blocks(self):
        params = EngineParams(
            max_batch_slots=4,
            kv_budget_bytes=200.0 * 160_000.0,  # 200 tokens of KV
        )
        assert params.kv_budget_tokens == 200
        replica = _run_sequences(params, [(60, 80)] * 4, until=120.0)
        assert replica.stats.completions == 4
        assert replica.stats.preemptions > 0
        assert replica.stats.admission_blocked_steps > 0
        assert replica.kv.peak_tokens <= 200
        assert replica.kv.resident_tokens == 0

    def test_preempted_sequence_reprefills(self):
        params = EngineParams(
            max_batch_slots=2, kv_budget_bytes=150.0 * 160_000.0
        )
        replica = _run_sequences(params, [(50, 60)] * 2, until=120.0)
        assert replica.stats.completions == 2
        # A preemption forces its victim back through prefill, so
        # prefill charged more tokens than the prompts alone.
        assert replica.stats.preemptions > 0
        assert replica.stats.prefill_tokens > 2 * 50

    def test_lone_oversized_sequence_overflows_not_deadlocks(self):
        params = EngineParams(
            max_batch_slots=2, kv_budget_bytes=40.0 * 160_000.0
        )
        replica = _run_sequences(params, [(60, 30)], until=120.0)
        assert replica.stats.completions == 1
        assert replica.kv.overflow_tokens > 0


class TestTightKvStep:
    """Pins the parent implementation's counters for a tight-KV run in
    which a completion and a preemption land in the same engine step,
    so the decode-step fast path (inlined KV reservation, admitted list,
    batched gap recording) provably keeps the same bookkeeping."""

    def test_completion_and_preemption_in_one_step(self):
        params = EngineParams(
            max_batch_slots=3, kv_budget_bytes=60.0 * 160_000.0
        )
        harness = _harness()
        replica = LlmReplica(harness, params)
        preempted_at = []
        preempt = replica._preempt

        def recording_preempt(victim):
            preempted_at.append(harness.env.now)
            preempt(victim)

        replica._preempt = recording_preempt
        seqs = [
            Sequence(i, prompt, output)
            for i, (prompt, output) in enumerate(
                [(25, 5), (27, 32), (31, 58), (13, 43)]
            )
        ]
        done = [replica.submit(seq) for seq in seqs]

        def waiter():
            for event in done:
                yield event
            harness.env.stop()

        harness.env.process(waiter())
        harness.env.run(until=120.0)
        completed_at = {seq.last_token_at for seq in seqs}
        assert completed_at & set(preempted_at)
        assert replica.stats == EngineStats(
            steps=122, completions=4, prefill_tokens=173,
            cached_prefix_tokens=0, decoded_tokens=138, preemptions=3,
            admission_blocked_steps=86, max_queue_depth=4,
            prefix_lookups=0, prefix_hits=0,
        )
        assert replica.kv.peak_tokens == 89
        # Every token past the 60-token budget counted once: 89 - 60.
        assert replica.kv.overflow_tokens == 29
        assert replica.kv.resident_tokens == 0
        assert harness.env._seq == 260


class TestPrefixCache:
    def test_shared_prefix_discounts_prefill(self):
        harness = _harness()
        params = EngineParams()
        replica = LlmReplica(harness, params)
        done = [
            replica.submit(
                Sequence(i, 128, 8, prefix_group=3, prefix_tokens=96)
            )
            for i in range(4)
        ]

        def waiter():
            for event in done:
                yield event
            harness.env.stop()

        harness.env.process(waiter())
        harness.env.run(until=60.0)
        stats = replica.stats
        assert stats.prefix_lookups == 4
        # First lookup misses (installs the prefix), the rest hit.
        assert stats.prefix_hits == 3
        assert stats.cached_prefix_tokens == 3 * 96

    def test_unique_prompts_never_touch_the_cache(self):
        replica = _run_sequences(EngineParams(), [(64, 8)] * 3)
        assert replica.stats.prefix_lookups == 0


class TestEngineStats:
    def test_reset_zeroes_everything(self):
        stats = EngineStats(
            steps=5, completions=2, prefill_tokens=10, decoded_tokens=20,
            preemptions=1, admission_blocked_steps=3, max_queue_depth=4,
            prefix_lookups=2, prefix_hits=1, cached_prefix_tokens=6,
        )
        stats.reset()
        assert stats == EngineStats()

    def test_merge_sums_and_maxes(self):
        a = EngineStats(steps=5, max_queue_depth=2, decoded_tokens=10)
        b = EngineStats(steps=3, max_queue_depth=7, decoded_tokens=4)
        a.merge_from(b)
        assert a.steps == 8
        assert a.max_queue_depth == 7
        assert a.decoded_tokens == 14


class TestTokenCallbacks:
    def test_ttft_and_itl_observed(self):
        harness = _harness()
        ttft, gaps = [], []
        replica = LlmReplica(
            harness,
            EngineParams(),
            on_first_token=lambda seq, s: ttft.append(s),
            on_token_gaps=lambda s, count: gaps.extend([s] * count),
        )
        done = replica.submit(Sequence(0, 32, 16))

        def waiter():
            yield done
            harness.env.stop()

        harness.env.process(waiter())
        harness.env.run(until=60.0)
        assert len(ttft) == 1 and ttft[0] > 0
        assert len(gaps) == 15  # 16 tokens -> 15 inter-token gaps
        assert all(g > 0 for g in gaps)
