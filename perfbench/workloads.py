"""One repetition of a perfbench workload, run in a fresh process.

``run.py`` starts this file once per repetition, so per-process memos
start empty, as they do for a user's ``dcperf`` invocation:

    python3 perfbench/workloads.py --workload suite-cold --seed 7 \\
        --mode measure --tmp DIR --spawned-at T

The last line of standard output is one JSON object (see
:meth:`Rep.as_dict`).  The simulator is deterministic for a fixed
seed, so every report is hashed and must be identical across
repetitions and across execution paths; host time and memory are the
only measured quantities.

Modes:

* ``measure`` -- the workload as a user runs it, untraced.
* ``trace`` -- the same work under cProfile and method spans, for the
  per-layer table.  ``grid-pool`` runs its pool pass for the
  ``exec.pool.*`` numbers and then times the grid in-process, because
  worker processes are opaque to the profiler.
* ``baseline`` -- the pass ``trace`` times, untraced, so that
  ``trace.overhead`` compares like with like.
* ``setup`` -- ``measure`` stopped at the first call into its main
  pass: one more sample of ``setup_s`` for a fraction of the cost.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from layers import EventCounter, LedgerSeconds, Tracer

WORKLOADS = ("suite-cold", "grid-pool", "faults-control")
MODES = ("measure", "setup", "baseline", "trace")

#: suite-cold: what ``dcperf suite --no-cache`` runs on one SKU.
SUITE_SKU = "SKU2"
SUITE_MEASURE_S = 1.5

#: grid-pool: a SKU-selection sweep over the paper's benchmarks.
GRID_SKUS = ("SKU1", "SKU2", "SKU3", "SKU4")
GRID_KERNELS = ("6.4", "6.9")
GRID_MEASURE_S = 0.2
GRID_WARMUP_S = 0.1
GRID_MAX_WORKERS = 2
#: Host seconds of warm in-process sample passes behind grid-pool's
#: events_per_s (whole passes, at least one).
SAMPLE_WINDOW_S = 2.0

#: faults-control: one point per fault or control mechanism.  No llm
#: point, so an llm change should leave this workload flat.
FAULT_SKU = "SKU2"
FAULT_CASES = (
    ("taobench", "blackout"),
    ("taobench", "overload_shed"),
    ("storagebench", "flaky_network_compaction"),
    ("storagebench", "disk_degraded"),
    ("mediawiki", "brownout_degraded_disk"),
    ("feedsim", "flaky_network"),
    ("djangobench", "noisy_neighbor"),
)
FAULT_MEASURE_S = 1.5
FAULT_WARMUP_S = 0.5

#: Warm-cache replays per repetition; replay_s is their median.  An
#: untraced repetition keeps replaying for at least REPLAY_WINDOW_S, so
#: that its replays sample more than one moment of the host's speed.
REPLAYS = 21
REPLAY_WINDOW_S = 1.0


def digest(payload: object) -> str:
    """Stable hash of a report payload (floats hash by their repr)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def point_key(point) -> str:
    key = f"{point.benchmark}{point.variant}@{point.sku}/{point.kernel}"
    return f"{key}+{point.faults}" if point.faults else key


def windows(window: Optional[float], measure: float, warmup: float) -> Dict[str, float]:
    """Measure/warmup seconds, shortened to ``window`` for smoke runs."""
    if window is None:
        return {"measure_seconds": measure, "warmup_seconds": warmup}
    return {"measure_seconds": window, "warmup_seconds": min(warmup, window)}


class SetupDone(Exception):
    """A ``setup`` repetition reached its main pass."""


class Rep:
    """What one repetition measured and checked."""

    def __init__(self, workload: str, mode: str, spawned_at: float, tmp: str) -> None:
        self.workload = workload
        self.mode = mode
        self.spawned_at = spawned_at
        self.tmp = tmp
        self.counter = EventCounter()
        self.tracer = Tracer() if mode == "trace" else None
        self.setup_s: Optional[float] = None
        self.wall_s: Optional[float] = None
        #: Engine events and the host seconds that produced them.
        self.events = 0
        self.events_s = 0.0
        self.replays: List[float] = []
        #: Point key -> digest of the main pass's report.
        self.digests: Dict[str, str] = {}
        self.attempted = 0
        self.failed_keys: set = set()
        #: Points a pool recovered in-process (not identifiable by key).
        self.recovered = 0
        self.errors: List[str] = []
        self.meta: Dict[str, object] = {}
        self.point_s: Dict[str, float] = defaultdict(float)
        self.layers: Dict[str, float] = {}
        self._last = 0.0

    # -- timing ---------------------------------------------------------------
    @contextmanager
    def instrumented(self):
        """Event counting, and in trace mode spans, around in-process work."""
        with self.counter:
            if self.tracer is None:
                yield
            else:
                with self.tracer:
                    yield

    @contextmanager
    def main_pass(self):
        """Time the main pass; setup_s ends at its first call."""
        start = time.monotonic()
        self.setup_s = start - self.spawned_at
        if self.mode == "setup":
            raise SetupDone
        self._last = time.perf_counter()
        begin = self._last
        self._profile(True)
        try:
            yield
        finally:
            self._profile(False)
            self.wall_s = time.perf_counter() - begin

    def point_done(self, benchmark: str) -> None:
        """Per-benchmark point seconds (on_point deltas); fold events."""
        now = time.perf_counter()
        self.point_s[benchmark] += now - self._last
        self._last = now
        self.counter.collect()

    def replay(self, run: Callable[[], object], check: Callable[[object, bool], None]) -> None:
        """Time warm-cache replays; ``check`` runs untimed.

        A traced repetition makes exactly ``REPLAYS``, so its profile
        counts the same work on every commit.
        """
        window = 0.0 if self.tracer else REPLAY_WINDOW_S
        began = time.perf_counter()
        while len(self.replays) < REPLAYS or time.perf_counter() - began < window:
            self._profile(True)
            start = time.perf_counter()
            out = run()
            elapsed = time.perf_counter() - start
            self._profile(False)
            self.replays.append(elapsed)
            check(out, len(self.replays) == 1)

    def _profile(self, on: bool) -> None:
        if self.tracer is not None:
            if on:
                self.tracer.profile.enable()
            else:
                self.tracer.profile.disable()

    # -- checks ---------------------------------------------------------------
    def fail(self, key: str, message: str) -> None:
        self.failed_keys.add(key)
        self.errors.append(f"{key}: {message}")

    def compare(self, label: str, got: Dict[str, str], partial: bool = False) -> None:
        """Every point of another path must hash like the main pass."""
        for key, value in got.items():
            if key not in self.digests:
                self.fail(key, f"{label} adds this point")
            elif value != self.digests[key]:
                self.fail(key, f"{label} report differs from the main pass")
        if not partial:
            for key in self.digests.keys() - got.keys():
                self.fail(key, f"{label} is missing this point")

    def check_hits(self, stats, expected: int) -> None:
        self.meta["replay_hits"] = stats.cache_hits
        if stats.cache_hits != expected or stats.executed:
            self.fail(
                "replay",
                f"{stats.cache_hits} cache hits and {stats.executed} executed, "
                f"expected {expected} hits",
            )

    def as_dict(self) -> Dict[str, object]:
        usage = [resource.getrusage(who).ru_maxrss for who in
                 (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        return {
            "workload": self.workload,
            "mode": self.mode,
            "setup_s": self.setup_s,
            "wall_s": self.wall_s,
            "events": self.events,
            "events_s": self.events_s,
            "replays": self.replays,
            # ru_maxrss is in KiB on Linux; children are the pool workers.
            "peak_rss_mb": max(usage) / 1024.0,
            "attempted": self.attempted,
            "failed": min(self.attempted, len(self.failed_keys) + self.recovered),
            "errors": self.errors,
            "digests": self.digests,
            "meta": self.meta,
            "layers": self.layers,
        }


def hashed(points: Sequence, reports: Sequence) -> Dict[str, str]:
    from repro.exec import report_to_dict

    return {point_key(p): digest(report_to_dict(r)) for p, r in zip(points, reports)}


# -- workloads -----------------------------------------------------------------


def suite_cold(rep: Rep, seed: int, window: Optional[float]) -> List[dict]:
    """``DCPerfSuite(early_stop=True)`` in-process with no run cache."""
    from repro.core import DCPerfSuite
    from repro.exec import RunCache, SweepExecutor, report_to_dict, run_fingerprint

    measure = window or SUITE_MEASURE_S

    def suite(cache):
        executor = SweepExecutor(max_workers=1, cache=cache, use_cache=False)
        return DCPerfSuite(measure_seconds=measure, early_stop=True, executor=executor)

    cold = suite(None)
    streamed: List[Tuple[object, object]] = []

    def on_point(point, report) -> None:
        streamed.append((point, report))
        rep.point_done(point.benchmark)

    with rep.instrumented():
        with rep.main_pass():
            result = cold.run(SUITE_SKU, seed=seed, on_point=on_point)
        rep.events, rep.events_s = rep.counter.events, rep.wall_s
        points = [p for p, _ in streamed]
        payloads = [report_to_dict(r) for _, r in streamed]
        rep.attempted = len(points)
        rep.digests = {point_key(p): digest(d) for p, d in zip(points, payloads)}
        score = digest(result.as_dict())

        cache_dir = os.path.join(rep.tmp, "suite-cache")
        cache = RunCache(cache_dir)
        for point, payload in zip(points, payloads):
            cache.put(run_fingerprint(point), point, payload)

        def run():
            warm = suite(RunCache(cache_dir))
            again: List[Tuple[object, object]] = []
            scored = warm.run(SUITE_SKU, seed=seed, on_point=lambda p, r: again.append((p, r)))
            return warm.executor.last_stats, again, scored

        def check(out, first: bool) -> None:
            stats, again, scored = out
            rep.check_hits(stats, len(points))
            if first:
                rep.compare("cache replay", hashed([p for p, _ in again], [r for _, r in again]))
                if digest(scored.as_dict()) != score:
                    rep.fail("suite-score", "cache replay scores differ from the cold pass")

        rep.replay(run, check)
    return payloads


def grid_points(seed: int, window: Optional[float]) -> List:
    from repro.exec import expand_grid
    from repro.workloads.registry import dcperf_benchmarks

    return expand_grid(
        dcperf_benchmarks(),
        GRID_SKUS,
        kernels=GRID_KERNELS,
        seeds=(seed,),
        **windows(window, GRID_MEASURE_S, GRID_WARMUP_S),
    )


def grid_sample(points: Sequence) -> List:
    """One fixed point per benchmark, rotating over SKUs and kernels."""
    by_key = {point_key(p): p for p in points}
    benchmarks = list(dict.fromkeys(p.benchmark for p in points))
    sample = []
    for index, name in enumerate(benchmarks):
        sku = GRID_SKUS[index % len(GRID_SKUS)]
        kernel = GRID_KERNELS[index % len(GRID_KERNELS)]
        sample.append(by_key[f"{name}@{sku}/{kernel}"])
    return sample


def grid_pool(rep: Rep, seed: int, window: Optional[float]) -> List[dict]:
    """The grid through ``SweepExecutor`` on warm workers, then replays.

    While the pool runs, only the ledger wrapper (called in this
    process) is in place: workers forked from this process would
    inherit the others.
    """
    from repro.exec import (
        RunCache,
        SweepExecutor,
        auto_workers,
        execute_point,
        report_to_dict,
        shutdown_warm_pool,
    )

    points = grid_points(seed, window)
    workers = min(GRID_MAX_WORKERS, auto_workers())
    rep.attempted = len(points)
    replay_dir = os.path.join(rep.tmp, "grid-pool-cache")
    reports: List = []

    if rep.mode != "baseline":
        executor = SweepExecutor(max_workers=workers, cache=RunCache(replay_dir), warm_pool=True)
        with LedgerSeconds() as ledger:
            if rep.mode == "trace":
                result = executor.run_sweep(points)
            else:
                with rep.main_pass():
                    result = executor.run_sweep(points)
        shutdown_warm_pool()
        stats = result.stats
        reports = result.reports
        rep.recovered = stats.recovered
        rep.meta.update(
            workers=stats.workers,
            pool_mode=stats.pool_mode,
            pool_fallback=stats.pool_mode != "warm",
        )
        if stats.recovered:
            rep.errors.append(
                f"{stats.recovered} points recovered in-process ({stats.timeouts} timed out)"
            )
        rep.digests = hashed(points, reports)
        rep.layers.update({
            "exec.pool.idle_share": 1.0 - ledger.seconds / (stats.workers * stats.elapsed_seconds),
            "exec.pool.spawned": stats.spawned,
            "exec.pool.steals": stats.steals,
            "exec.pool.bytes_shipped": stats.bytes_shipped,
            "exec.pool.recovered": stats.recovered,
        })

    with rep.instrumented():
        if rep.mode in ("baseline", "trace"):
            # The in-process pass the traced run splits by layer.
            replay_dir = os.path.join(rep.tmp, "grid-inproc-cache")
            inproc = SweepExecutor(max_workers=1, cache=RunCache(replay_dir))
            with rep.main_pass():
                result = inproc.run_sweep(points, on_point=lambda p, r: rep.point_done(p.benchmark))
            rep.events, rep.events_s = rep.counter.events, rep.wall_s
            reports = result.reports
            got = hashed(points, reports)
            if rep.digests:
                rep.compare("in-process pass", got)
            else:
                rep.digests = got

        def run():
            executor = SweepExecutor(max_workers=workers, cache=RunCache(replay_dir))
            return executor.run_sweep(points)

        def check(out, first: bool) -> None:
            rep.check_hits(out.stats, len(points))
            if first:
                rep.compare("cache replay", hashed(points, out.reports))

        rep.replay(run, check)

        if rep.mode == "measure":
            # Cross-path identity: the sample re-run in-process.
            sample = grid_sample(points)
            got = {point_key(p): digest(report_to_dict(execute_point(p))) for p in sample}
            rep.compare("in-process sample", got, partial=True)
            # Pool workers cannot be counted, so events_per_s is taken
            # in-process on the sample once this process's memos are
            # warm; the cold pass above spends most of its time filling
            # them, which is no engine work.
            rep.counter.collect()
            before = rep.counter.events
            start = time.perf_counter()
            while time.perf_counter() - start < SAMPLE_WINDOW_S:
                for point in sample:
                    execute_point(point)
                    rep.counter.collect()
            rep.events_s = time.perf_counter() - start
            rep.events = rep.counter.events - before
    return [report_to_dict(r) for r in reports]


def faults_control(rep: Rep, seed: int, window: Optional[float]) -> List[dict]:
    """Seven in-process ``execute_point`` runs under fault scenarios."""
    from repro.exec import RunCache, RunPoint, SweepExecutor, execute_point
    from repro.exec import report_to_dict, run_fingerprint

    points = [
        RunPoint(benchmark=name, sku=FAULT_SKU, seed=seed, faults=faults,
                 **windows(window, FAULT_MEASURE_S, FAULT_WARMUP_S))
        for name, faults in FAULT_CASES
    ]
    rep.attempted = len(points)
    reports: List = []
    with rep.instrumented():
        with rep.main_pass():
            for point in points:
                reports.append(execute_point(point))
                rep.point_done(point.benchmark)
        rep.events, rep.events_s = rep.counter.events, rep.wall_s
        payloads = [report_to_dict(r) for r in reports]
        rep.digests = {point_key(p): digest(d) for p, d in zip(points, payloads)}

        cache_dir = os.path.join(rep.tmp, "faults-cache")
        cache = RunCache(cache_dir)
        for point, payload in zip(points, payloads):
            cache.put(run_fingerprint(point), point, payload)

        def run():
            return SweepExecutor(max_workers=1, cache=RunCache(cache_dir)).run_sweep(points)

        def check(out, first: bool) -> None:
            rep.check_hits(out.stats, len(points))
            if first:
                rep.compare("cache replay", hashed(points, out.reports))

        rep.replay(run, check)
    return payloads


RUNNERS = {
    "suite-cold": suite_cold,
    "grid-pool": grid_pool,
    "faults-control": faults_control,
}


# -- per-layer table -------------------------------------------------------------


def scored_benchmarks() -> List[str]:
    from repro.workloads.registry import dcperf_benchmarks, llm_serving_benchmarks

    return dcperf_benchmarks() + llm_serving_benchmarks()


def report_counts(payloads: Sequence[dict]) -> Dict[str, float]:
    """Per-layer counts read from the reports' extras and sections."""
    totals = dict.fromkeys((
        "llm.engine_steps", "llm.decoded_tokens", "storage.lsm_gets",
        "storage.compactions", "faults.retries", "faults.shed",
        "loadgen.slo_windows",
    ), 0.0)
    hit_rates: List[float] = []
    for payload in payloads:
        extra = payload["result"]["extra"]
        hooks = payload["hooks"]
        totals["llm.engine_steps"] += extra.get("llm_engine_steps", 0.0)
        totals["llm.decoded_tokens"] += extra.get("llm_decoded_tokens", 0.0)
        totals["storage.lsm_gets"] += extra.get("lsm_gets", 0.0)
        totals["storage.compactions"] += extra.get("io_compactions", 0.0)
        hit_rates += [v for k, v in extra.items() if k.endswith("cache_hit_rate")]
        if hooks["resilience"].get("enabled"):
            totals["faults.retries"] += hooks["resilience"]["retries"]
        if hooks["slo_control"].get("enabled"):
            totals["faults.shed"] += hooks["slo_control"]["shed"]
            totals["loadgen.slo_windows"] += hooks["slo_control"]["windows"]
    totals["cachelib.hit_rate"] = statistics.fmean(hit_rates) if hit_rates else 0.0
    return totals


def fill_layers(rep: Rep, payloads: Sequence[dict]) -> None:
    tracer = rep.tracer
    rep.layers.update(tracer.self_times())
    events = rep.counter.events
    rep.layers["sim.events"] = events
    rep.layers["sim.environments"] = rep.counter.environments
    rep.layers["sim.us_per_event"] = rep.layers["sim.self_s"] / events * 1e6 if events else 0.0
    for name in scored_benchmarks():
        rep.layers[f"workloads.{name}.point_s"] = rep.point_s.get(name, 0.0)
    rep.layers["uarch.solve_s"] = tracer.span("uarch.solve").seconds
    rep.layers["core.hooks_s"] = tracer.span("core.hooks").seconds
    rep.layers["core.hooks_calls"] = tracer.span("core.hooks").calls
    rep.layers.update(report_counts(payloads))
    rep.layers["exec.cache.hits"] = rep.meta.get("replay_hits", 0)
    for name in ("idle_share", "spawned", "steals", "bytes_shipped", "recovered"):
        rep.layers.setdefault(f"exec.pool.{name}", 0)


# -- entry point ---------------------------------------------------------------


def run_rep(workload: str, seed: int, mode: str, tmp: str, spawned_at: float,
            window: Optional[float] = None) -> Dict[str, object]:
    from repro.exec import auto_workers, shutdown_warm_pool

    rep = Rep(workload, mode, spawned_at, tmp)
    rep.meta["auto_workers"] = auto_workers()
    try:
        payloads = RUNNERS[workload](rep, seed, window)
    except SetupDone:
        return rep.as_dict()
    finally:
        shutdown_warm_pool()
    if rep.tracer is not None:
        fill_layers(rep, payloads)
    return rep.as_dict()


def _check_source(root: str) -> None:
    import repro

    source = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(repro.__file__).startswith(source + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {source}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--window", type=float, default=None)
    args = parser.parse_args(argv)
    _check_source(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    result = run_rep(args.workload, args.seed, args.mode, args.tmp,
                     args.spawned_at, args.window)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
