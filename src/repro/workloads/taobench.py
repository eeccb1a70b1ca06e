"""TaoBench: the TAO-style read-through in-memory cache benchmark.

Architecture (Section 3.2): a Memcached-based server whose requests are
dispatched to *fast* threads on cache hits (return the object) and to
*slow* threads on misses (simulate backend database lookup, create the
object, insert it with SET).  Object sizes, hit rates, and network
throughput are modeled after the TAO production workload.

This model runs a real :class:`~repro.cachelib.readthrough.ReadThroughCache`
over a real LRU store — hit rates emerge from Zipf key popularity vs
cache capacity, not from a configured constant — and dispatches to fast
and slow :class:`~repro.workloads.runner.ThreadPool` instances on a
simulated server.  Because TAO serves ~1M requests/s per server, one
simulated request stands for ``config.batch`` production requests; the
scheduler is charged the full production dispatch rate, which is what
makes the Section 5.3 kernel-contention case study (Figure 16)
reproducible here.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Generator, Optional

from repro.cachelib.memcached import MemcachedServer
from repro.cachelib.readthrough import ReadThroughCache
from repro.rpc.structs import ThriftField, ThriftStruct
from repro.loadgen.generators import Request
from repro.sim.rng import ZipfSampler, lognormal_sampler
from repro.uarch.characteristics import WorkloadCharacteristics
from repro.workloads.base import RunConfig, Workload, WorkloadResult
from repro.workloads.profiles import BENCHMARK_PROFILES
from repro.workloads.runner import BenchmarkHarness

#: Key popularity follows a Zipf law, as measured for TAO.
KEY_SPACE = 200_000
ZIPF_SKEW = 0.99
#: Object sizes: lognormal around TAO's small-object regime.
MEAN_OBJECT_BYTES = 150.0
OBJECT_SIZE_CV = 1.2
#: Cache sized so the steady-state hit rate lands in TAO's ~0.9 regime.
CACHE_CAPACITY_BYTES = 8 * 1024 * 1024
#: Simulated backend (database) latency on the miss path.
BACKEND_LATENCY_MEAN_S = 0.001
#: Instruction split: the miss path creates the object and inserts it.
HIT_INSTR_FRACTION = 0.85
MISS_INSTR_MULTIPLIER = 2.2
#: Production-side scheduling events per request (dispatch + wakeups).
DISPATCHES_PER_HIT = 1
DISPATCHES_PER_MISS = 3
#: TAO is read-dominated; a small write fraction invalidates cached
#: objects (write-invalidate, not write-through), creating the misses
#: the slow path then refills.
WRITE_FRACTION = 0.01
#: Default batching: one simulated request = 200 production requests.
DEFAULT_BATCH = 200
#: Offered load relative to unimpeded capacity (TAO servers run at
#: ~80-86% CPU, not saturation — Table 1 / Figure 9).
OFFERED_FRACTION = 0.92

#: Memoized pre-warm fills: ``(LruSnapshot, end RNG state)``.  A fill
#: builds its image in one pass (:func:`_warm_items` into
#: ``MemcachedServer.build_snapshot``) and every run, the first
#: included, restores it.  The fill is a pure function of the cache
#: geometry and the size-stream RNG state at entry, so repeat runs
#: (sweeps, best-of-N benches, repeated suite points in one process)
#: restore the recorded cache image with one C-level copy and
#: fast-forward the RNG to the recorded end state instead of
#: re-drawing ~54k object sizes — byte-identical by construction.  The
#: snapshot's nodes are shared with every restored cache; that is safe
#: because ``LruCache`` never mutates a node after installing it.  A
#: restored server starts with an empty key-validation memo, which only
#: saves time and never changes output.
_WARM_MEMO: dict = {}
_WARM_MEMO_MAX = 4


def _object_value(key: str, draw: float) -> bytes:
    """The backend's object for ``key`` at one object-size draw."""
    size = int(max(16, min(4096, draw)))
    return key.encode("utf-8").ljust(size, b"x")[:size]


def _warm_items(size_rng, size_sampler):
    """The pre-warm's ``(key, value)`` pairs: the most popular keys, in
    rank order, until the cache is ~full (97% of its bytes).

    Pair for pair the ``backend_fetch`` + ``MemcachedServer.set`` loop
    the fill replaces: the same size draw per key from ``size_rng``,
    in order, and the same byte count to stop at.  Stops at the key
    space's end if the budget is never reached.
    """
    limit = 0.97 * CACHE_CAPACITY_BYTES
    lognormvariate = size_rng.lognormvariate
    mu, sigma = size_sampler.mu, size_sampler.sigma
    used = 0
    for rank in range(1, KEY_SPACE + 1):
        if used >= limit:
            return
        key = f"tao:{rank}"
        value = _object_value(key, lognormvariate(mu, sigma))
        used += len(value)
        yield key, value


class TaoBench(Workload):
    """Read-through cache benchmark with fast/slow thread pools."""

    name = "taobench"
    category = "caching"
    metric_name = "peak RPS and cache hit rate"

    def __init__(self, chars: Optional[WorkloadCharacteristics] = None) -> None:
        self._chars = chars or BENCHMARK_PROFILES["taobench"]

    @property
    def characteristics(self) -> WorkloadCharacteristics:
        return self._chars

    def run(self, config: RunConfig) -> WorkloadResult:
        if config.batch == 1:
            config = dataclasses.replace(config, batch=DEFAULT_BATCH)
        harness = BenchmarkHarness(config, self._chars)
        env = harness.env
        cores = config.sku.cpu.logical_cores

        # Thread pools: thread-to-core ratio N(10) split across pools.
        fast_pool = harness.make_pool("fast", max(2, cores * 4))
        slow_pool = harness.make_pool("slow", max(2, cores * 4))

        # The real cache: keys sampled Zipf, objects sized lognormal.
        server = MemcachedServer(
            capacity_bytes=CACHE_CAPACITY_BYTES, clock=lambda: env.now
        )
        size_rng = harness.rng.stream("object-sizes")
        size_sampler = lognormal_sampler(MEAN_OBJECT_BYTES, OBJECT_SIZE_CV)

        def backend_fetch(key: str) -> bytes:
            return _object_value(key, size_sampler.sample(size_rng))

        cache = ReadThroughCache(server, backend_fetch)
        zipf = ZipfSampler(KEY_SPACE, ZIPF_SKEW)

        # Pre-warm: production caches run warm; fill with the most
        # popular keys until the byte budget is ~full so the measured
        # hit rate reflects steady state rather than a cold start.
        memo_key = (
            KEY_SPACE,
            CACHE_CAPACITY_BYTES,
            MEAN_OBJECT_BYTES,
            OBJECT_SIZE_CV,
            size_rng.getstate(),
        )
        warmed = _WARM_MEMO.get(memo_key)
        if warmed is None:
            snapshot = server.build_snapshot(_warm_items(size_rng, size_sampler))
            if len(_WARM_MEMO) >= _WARM_MEMO_MAX:
                _WARM_MEMO.clear()
            _WARM_MEMO[memo_key] = (snapshot, size_rng.getstate())
        else:
            snapshot, end_state = warmed
            size_rng.setstate(end_state)
        server.cache.restore(snapshot)
        key_rng = harness.rng.stream("keys")
        backend_rng = harness.rng.stream("backend")
        instr = self._chars.instructions_per_request
        hit_instr = instr * HIT_INSTR_FRACTION
        miss_instr = instr * MISS_INSTR_MULTIPLIER

        write_rng = harness.rng.stream("writes")
        writes = [0]

        def handler(request: Request) -> Generator:
            key = f"tao:{zipf.sample(key_rng)}"
            if write_rng.random() < WRITE_FRACTION:
                # Write path: update the backend, invalidate the cached
                # object (TAO's write-invalidate), burn the write cost.
                writes[0] += 1
                cache.invalidate(key)
                yield slow_pool.submit(
                    lambda: harness.burst(
                        miss_instr, dispatches_per_request=DISPATCHES_PER_MISS
                    )
                )
                return
            value = server.cache.peek(key)
            if value is not None:
                # Fast path: serve the cached object.
                server.get(key)  # updates recency + hit stats
                cache.stats.fast_path += 1
                done = fast_pool.submit(
                    lambda: harness.burst(hit_instr)
                )
                yield done
            else:
                # Slow path: dispatch to a slow thread, wait on the
                # backend, create and insert the object.
                cache.stats.slow_path += 1
                server.cache.stats.misses += 1

                def slow_work() -> Generator:
                    yield env.sleep(
                        backend_rng.expovariate(1.0 / BACKEND_LATENCY_MEAN_S)
                    )
                    fetched = backend_fetch(key)
                    server.set(key, fetched)
                    yield from harness.burst(
                        miss_instr,
                        dispatches_per_request=DISPATCHES_PER_MISS - 1,
                    )

                yield slow_pool.submit(slow_work)

        offered = (
            harness.server.capacity_rps() * OFFERED_FRACTION * config.load_scale
        )
        result = harness.run_open_loop(handler, offered_rps=offered)
        result.extra["cache_hit_rate"] = cache.stats.hit_rate
        result.extra["cache_items"] = float(len(server.cache))
        result.extra["offered_rps"] = offered
        result.extra["dispatches_per_request"] = (
            DISPATCHES_PER_HIT * cache.stats.hit_rate
            + DISPATCHES_PER_MISS * (1.0 - cache.stats.hit_rate)
        )
        # Measure real wire bytes for a representative response through
        # the Thrift codec (the RPC datacenter-tax path).
        sample_key = "tao:1"
        sample_value = server.cache.peek(sample_key) or backend_fetch(sample_key)
        result.extra["wire_bytes_per_response"] = float(
            response_wire_bytes(sample_key, sample_value, hit=True)
        )
        result.extra["writes"] = float(writes[0])
        return result


#: The TAO response schema: the real Thrift struct the benchmark's
#: client/server exchange, used to measure wire bytes per response.
TAO_RESPONSE_SCHEMA = ThriftStruct(
    "TaoGetResponse",
    [
        ThriftField(1, "key"),
        ThriftField(2, "value"),
        ThriftField(3, "flags"),
        ThriftField(4, "version"),
        ThriftField(5, "hit"),
    ],
)


def response_wire_bytes(key: str, value: bytes, hit: bool) -> int:
    """Serialized size of one TAO response over the Thrift codec."""
    return TAO_RESPONSE_SCHEMA.wire_size(
        {"key": key, "value": value, "flags": 0, "version": 1, "hit": hit}
    )


def expected_hit_rate() -> float:
    """Analytic hit-rate estimate: Zipf mass of keys the cache holds."""
    keys_held = CACHE_CAPACITY_BYTES / MEAN_OBJECT_BYTES
    zipf = ZipfSampler(KEY_SPACE, ZIPF_SKEW)
    return zipf.hit_fraction(int(min(KEY_SPACE, keys_held)))
