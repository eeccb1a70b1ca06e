#!/bin/sh
# Tier-1 verification: the full unit suite, the paper-figure gates and
# a parallel smoke sweep.
#
# The run cache is pointed at a throwaway directory so CI results can
# never leak into (or be served from) a developer's ~/.cache, and the
# smoke sweep exercises the real multi-process path end to end.
#
# Usage: tools/ci.sh   (or: make verify)
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH=src
export PYTHONPATH

CACHE_TMP="$(mktemp -d "${TMPDIR:-/tmp}/dcperf-ci-cache.XXXXXX")"
DCPERF_CACHE_DIR="$CACHE_TMP"
export DCPERF_CACHE_DIR
trap 'rm -rf "$CACHE_TMP"' EXIT INT TERM

echo "== tier-1 tests (cache dir: $CACHE_TMP) =="
python -m pytest -x -q

echo "== paper-figure gates (Tables 1/3/4, Figures 2-16, ablations) =="
# The shape assertions in benchmarks/ with timing off (~2 min): a
# speed-up that moves a paper figure fails here.
python -m pytest -x -q benchmarks --benchmark-disable

echo "== parallel smoke sweep (2 points, 2 workers) =="
python - <<'EOF'
from repro.exec.executor import SweepExecutor
from repro.exec.spec import RunPoint

points = [
    RunPoint(benchmark="taobench", sku="SKU1",
             measure_seconds=0.5, warmup_seconds=0.2),
    RunPoint(benchmark="taobench", sku="SKU2",
             measure_seconds=0.5, warmup_seconds=0.2),
]
executor = SweepExecutor(max_workers=2)
reports = executor.run(points)
stats = executor.last_stats
assert len(reports) == 2 and all(r.metric_value > 0 for r in reports)
assert stats.executed == 2 and stats.workers == 2

# Rerun must be served entirely from the cache just written.
warm = SweepExecutor(max_workers=2)
warm_reports = warm.run(points)
assert warm.last_stats.cache_hits == 2 and warm.last_stats.executed == 0
assert [r.as_dict() for r in warm_reports] == [r.as_dict() for r in reports]
print(f"smoke sweep ok: {stats.executed} executed in "
      f"{stats.elapsed_seconds:.1f}s, warm rerun fully cached")
EOF

echo "== warm-pool smoke (reuse + byte-identity + clean teardown) =="
python - <<'EOF'
import json
import os

from repro.exec.executor import SweepExecutor
from repro.exec.spec import RunPoint
from repro.exec.workerpool import get_warm_pool, shutdown_warm_pool

points = [
    RunPoint(benchmark="taobench", sku="SKU1",
             measure_seconds=0.5, warmup_seconds=0.2),
    RunPoint(benchmark="feedsim", sku="SKU2",
             measure_seconds=0.5, warmup_seconds=0.2),
]

def sweep():
    executor = SweepExecutor(max_workers=2, use_cache=False, warm_pool=True)
    reports = executor.run(points)
    return [json.dumps(r.as_dict(), sort_keys=True) for r in reports], \
        executor.last_stats

first, first_stats = sweep()
assert first_stats.pool_mode == "warm" and first_stats.spawned == 2

# The same sweep again through the same process-global pool: every
# worker is reused and the reports are byte-identical.
second, second_stats = sweep()
assert second_stats.reused > 0 and second_stats.spawned == 0
assert second == first, "warm rerun diverged from first warm run"

pids = get_warm_pool().worker_pids()
assert len(pids) == 2
shutdown_warm_pool()
for pid in pids:  # clean teardown: no orphaned workers
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        pass
    else:
        raise AssertionError(f"worker {pid} survived shutdown")
print(f"warm-pool smoke ok: {second_stats.reused} workers reused, "
      f"{second_stats.bytes_shipped}B shipped, reports byte-identical, "
      "teardown left no orphans")
EOF

echo "== fault-scenario smoke (deterministic replay) =="
python - <<'EOF'
import json

from repro.exec.executor import SweepExecutor
from repro.exec.spec import RunPoint

point = RunPoint(benchmark="taobench", sku="SKU2", seed=11,
                 measure_seconds=0.5, warmup_seconds=0.2,
                 faults="blackout")

def sweep(workers, use_cache):
    executor = SweepExecutor(max_workers=workers, use_cache=use_cache)
    # Two points so the pooled path actually engages at workers=2.
    clean = RunPoint(benchmark="taobench", sku="SKU2", seed=11,
                     measure_seconds=0.5, warmup_seconds=0.2)
    reports = executor.run([point, clean])
    return [json.dumps(r.as_dict(), sort_keys=True) for r in reports]

first = sweep(1, use_cache=False)
replay = sweep(1, use_cache=False)
pooled = sweep(2, use_cache=False)
assert first == replay, "fault scenario replay is not deterministic"
assert first == pooled, "parallel fault run diverged from serial"

faulted = json.loads(first[0])
section = faulted["hooks"]["resilience"]
assert section["enabled"] and section["scenario"] == "blackout"
assert section["requests"] > 0 and section["fault_events_applied"] >= 1
assert json.loads(first[1])["hooks"]["resilience"] == {"enabled": False}
print("fault smoke ok: blackout replay byte-identical "
      f"(serial x2 + 2-worker pool), error_rate={section['error_rate']:.3f}, "
      f"slo={section['slo_compliance_pct']:.1f}%")
EOF

echo "== SLO control-plane smoke (compound scenario, shed replay) =="
python - <<'EOF'
import json

from repro.exec.executor import SweepExecutor, execute_point
from repro.exec.spec import RunPoint

point = RunPoint(benchmark="taobench", sku="SKU2", seed=11,
                 measure_seconds=0.5, warmup_seconds=0.2,
                 faults="overload_shed")

# Replaying a compound scenario twice must reproduce every byte,
# including each window's shed decisions and the window series itself.
first = execute_point(point).as_dict()
replay = execute_point(point).as_dict()
assert first == replay, "overload_shed replay is not deterministic"

# The warm-pool transport must carry the control section unchanged.
pooled = SweepExecutor(max_workers=2, use_cache=False, warm_pool=True).run(
    [point, RunPoint(benchmark="taobench", sku="SKU2", seed=11,
                     measure_seconds=0.5, warmup_seconds=0.2)])
assert json.dumps(pooled[0].as_dict(), sort_keys=True) \
    == json.dumps(first, sort_keys=True), "pooled shed run diverged"

section = first["hooks"]["slo_control"]
assert section["enabled"] and section["scenario"] == "overload_shed"
assert section["windows"] >= 1 and section["shed"] > 0
assert len(section["window_series"]) == section["windows"]
assert pooled[1].as_dict()["hooks"]["slo_control"] == {"enabled": False}
print("slo control smoke ok: overload_shed replay byte-identical "
      f"(in-proc x2 + warm pool), shed_fraction={section['shed_fraction']:.2f}, "
      f"goodput_fraction={section['goodput_fraction']:.2f}, "
      f"{section['windows']:.0f} windows")
EOF

echo "== early-stop smoke (convergence on/off) =="
python - <<'EOF'
import json

from repro.exec.executor import execute_point
from repro.exec.spec import RunPoint

base = dict(benchmark="taobench", sku="SKU2", seed=11,
            measure_seconds=0.6, warmup_seconds=0.2)

# Under fault injection the convergence monitor is skipped entirely:
# the report must be byte-identical whether early_stop is set or not.
faulted = json.dumps(execute_point(
    RunPoint(faults="blackout", **base)).as_dict(), sort_keys=True)
faulted_es = json.dumps(execute_point(
    RunPoint(faults="blackout", early_stop=True, **base)).as_dict(),
    sort_keys=True)
assert faulted == faulted_es, "early_stop changed a fault-injection report"

# A clean early-stop run is deterministic and says so in the report.
fast = RunPoint(early_stop=True, **dict(base, measure_seconds=3.0))
first = execute_point(fast).as_dict()
second = execute_point(fast).as_dict()
assert first == second, "early-stop replay is not deterministic"
extra = first["result"]["extra"]
assert extra["early_stopped"] == 1.0 and extra["measured_seconds"] < 3.0
print("early-stop smoke ok: fault reports unchanged, clean run "
      f"converged at {extra['measured_seconds']:.2f}s of 3.0s "
      f"({extra['convergence_windows']:.0f} windows), replay identical")
EOF

echo "== storagebench smoke (run + fault replay + cache round-trip) =="
python - <<'EOF'
import json

from repro.exec.executor import SweepExecutor, execute_point
from repro.exec.spec import RunPoint

base = dict(benchmark="storagebench", sku="SKU2", seed=11,
            measure_seconds=0.5, warmup_seconds=0.2)
plain = RunPoint(**base)
degraded = RunPoint(faults="disk_degraded", **base)

# The device-channel fault must replay deterministically and show up
# in foreground behavior (stalls, p99) and the iostat section.
first = execute_point(degraded).as_dict()
replay = execute_point(degraded).as_dict()
assert first == replay, "disk_degraded replay is not deterministic"
clean = execute_point(plain).as_dict()
iostat = first["hooks"]["iostat"]
assert iostat["enabled"] and iostat["flushes"] >= 1
assert iostat["stall_seconds"] > clean["hooks"]["iostat"]["stall_seconds"]
assert (first["result"]["latency"]["p99"]
        > clean["result"]["latency"]["p99"])

# Cold sweep executes both points; warm rerun is fully cached.
points = [plain, degraded]
cold = SweepExecutor(max_workers=2)
cold_reports = cold.run(points)
assert cold.last_stats.executed == 2
warm = SweepExecutor(max_workers=2)
warm_reports = warm.run(points)
assert warm.last_stats.cache_hits == 2 and warm.last_stats.executed == 0
assert ([json.dumps(r.as_dict(), sort_keys=True) for r in warm_reports]
        == [json.dumps(r.as_dict(), sort_keys=True) for r in cold_reports])
print("storagebench smoke ok: disk_degraded replay byte-identical, "
      f"stall {iostat['stall_seconds']:.2f}s vs "
      f"{clean['hooks']['iostat']['stall_seconds']:.2f}s clean, "
      "cold sweep cached + warm rerun fully served")
EOF

echo "== storage bench smoke (device, LSM put/get, storagebench point) =="
python tools/bench_storage.py --smoke

echo "== warm-start snapshot smoke (restored memos vs fresh processes) =="
python - <<'EOF'
import json
import os
import subprocess
import sys

from repro.exec.executor import execute_point
from repro.exec.spec import RunPoint

def point(benchmark, sku, measure):
    return RunPoint(benchmark=benchmark, sku=sku, seed=11,
                    measure_seconds=measure, warmup_seconds=0.05,
                    early_stop=False)

def in_process(p):
    return json.dumps(execute_point(p).as_dict(), sort_keys=True)

FRESH = """
import json, sys
from repro.exec.executor import execute_point
from repro.exec.spec import RunPoint
point = RunPoint(**json.loads(sys.argv[1]))
print(json.dumps(execute_point(point).as_dict(), sort_keys=True))
"""

def fresh_process(p):
    fields = dict(benchmark=p.benchmark, sku=p.sku, seed=p.seed,
                  measure_seconds=p.measure_seconds,
                  warmup_seconds=p.warmup_seconds, early_stop=p.early_stop)
    out = subprocess.run([sys.executable, "-c", FRESH, json.dumps(fields)],
                         env=dict(os.environ, DCPERF_CACHE="0"),
                         capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]

# The warm runs fill the taobench and storagebench memos and then run
# on restored images, mutating their caches and trees (misses,
# invalidations, evictions, flushes, compactions).  Each checked point
# restores an image those runs shared and must match a new process.
warmers = [point("taobench", "SKU2", 0.3), point("taobench", "SKU4", 1.0),
           point("storagebench", "SKU1", 0.6),
           point("storagebench", "SKU2", 0.6)]
checked = [point("taobench", "SKU4", 1.0), point("storagebench", "SKU3", 0.6),
           point("storagebench", "SKU2", 0.6)]
for p in warmers:
    in_process(p)
for p in checked:
    assert in_process(p) == fresh_process(p), \
        f"{p.benchmark}@{p.sku} on a restored image diverged from a fresh process"
print(f"snapshot smoke ok: {len(checked)} points on restored images "
      f"byte-identical to fresh processes after {len(warmers)} warm runs")
EOF

echo "== llmbench smoke (cross-path byte-identity + cache round-trip) =="
python - <<'EOF'
import json

from repro.exec.executor import SweepExecutor, execute_point
from repro.exec.spec import RunPoint

base = dict(benchmark="llmbench-chat", sku="SKU2", seed=11,
            measure_seconds=0.5, warmup_seconds=0.2, early_stop=False)
point = RunPoint(**base)

# A fixed-seed serving run must replay byte-identically in process...
first = json.dumps(execute_point(point).as_dict(), sort_keys=True)
replay = json.dumps(execute_point(point).as_dict(), sort_keys=True)
assert first == replay, "llmbench in-proc replay diverged"

# ...through the warm worker pool...
warm_ex = SweepExecutor(max_workers=2, use_cache=False, warm_pool=True)
warm = warm_ex.run(
    [point, RunPoint(**dict(base, benchmark="llmbench-codegen"))])
assert warm_ex.last_stats.pool_mode == "warm"
assert json.dumps(warm[0].as_dict(), sort_keys=True) == first, \
    "llmbench warm-pool run diverged from in-proc"

# ...and through a cache round-trip (write then fully served).
cold_ex = SweepExecutor(max_workers=1)
cold = json.dumps(cold_ex.run([point])[0].as_dict(), sort_keys=True)
rerun_ex = SweepExecutor(max_workers=1)
rerun = json.dumps(rerun_ex.run([point])[0].as_dict(), sort_keys=True)
assert cold == rerun == first, "llmbench cache round-trip changed bytes"
assert rerun_ex.last_stats.cache_hits == 1 and rerun_ex.last_stats.executed == 0

section = json.loads(first)["hooks"]["llm_serving"]
assert section["enabled"] and section["tokens_per_second"] > 0
assert section["ttft_p99_ms"] > 0 and section["turns_completed"] > 0
print("llmbench smoke ok: byte-identical across in-proc x2, warm pool, "
      f"cache round-trip; {section['tokens_per_second']:.0f} tok/s, "
      f"ttft p99 {section['ttft_p99_ms']:.2f}ms")
EOF

echo "== shard smoke (shards=1 identity + shards=2 cross-path replay) =="
python - <<'EOF'
import json

from repro.core.benchmark import Benchmark
from repro.exec.executor import SweepExecutor, execute_point
from repro.exec.spec import RunPoint

base = dict(benchmark="taobench", sku="SKU2", seed=11,
            measure_seconds=0.5, warmup_seconds=0.2, early_stop=False)

# shards=1 must be bit-identical to the plain in-process runner.
plain = RunPoint(**base)
direct = json.dumps(
    Benchmark.by_name("taobench").run(plain.run_config()).as_dict(),
    sort_keys=True)
via_executor = json.dumps(
    SweepExecutor(max_workers=1, cache=None, use_cache=False)
    .run([plain])[0].as_dict(), sort_keys=True)
assert direct == via_executor, "shards=1 diverged from the in-proc runner"

# A fixed shards=2 run replays byte-identically across the in-process
# and warm-pool paths...
sharded = RunPoint(shards=2, **base)
inproc_ex = SweepExecutor(max_workers=1, cache=None, use_cache=False)
inproc = json.dumps(inproc_ex.run([sharded])[0].as_dict(), sort_keys=True)
assert inproc_ex.last_stats.shard_points == 2
assert inproc_ex.last_stats.merged_runs == 1
warm_ex = SweepExecutor(max_workers=2, cache=None, use_cache=False,
                        warm_pool=True)
warm = json.dumps(warm_ex.run([sharded])[0].as_dict(), sort_keys=True)
assert warm_ex.last_stats.pool_mode == "warm"
assert warm == inproc, "sharded warm-pool run diverged from in-proc"
assert json.dumps(execute_point(sharded).as_dict(), sort_keys=True) == inproc

# ...and round-trips the run cache: first sweep writes 2 shard entries
# + the merged parent, the rerun is served entirely from the parent hit.
cached_ex = SweepExecutor(max_workers=1)
first = json.dumps(cached_ex.run([sharded])[0].as_dict(), sort_keys=True)
rerun_ex = SweepExecutor(max_workers=1)
rerun = json.dumps(rerun_ex.run([sharded])[0].as_dict(), sort_keys=True)
assert rerun == first == inproc, "cached shard rerun changed bytes"
assert rerun_ex.last_stats.cache_hits == 1
assert rerun_ex.last_stats.executed == 0
merged = json.loads(inproc)
assert merged["system"]["shards"] == 2
assert merged["hooks"]["sharding"]["role"] == "merged"
print("shard smoke ok: shards=1 identical to in-proc runner, shards=2 "
      "byte-identical across in-proc/warm/execute_point + cache round-trip")
EOF

echo "== schedule smoke (cold vs warm ledger, byte-identity) =="
python - <<'EOF'
import json
import os

from repro.exec.cache import LEDGER_FILENAME
from repro.exec.executor import SweepExecutor
from repro.exec.spec import RunPoint
from repro.exec.workerpool import shutdown_warm_pool

# An imbalanced sweep: two short points and one long straggler, the
# straggler last in spec order (the FIFO worst case LPT reorders).
points = [
    RunPoint(benchmark="djangobench", sku="SKU1",
             measure_seconds=0.4, warmup_seconds=0.1),
    RunPoint(benchmark="feedsim", sku="SKU2",
             measure_seconds=0.4, warmup_seconds=0.1),
    RunPoint(benchmark="taobench", sku="SKU2",
             measure_seconds=0.8, warmup_seconds=0.2),
]

def sweep():
    executor = SweepExecutor(max_workers=2, cache=None, use_cache=False,
                             warm_pool=True, schedule="lpt")
    reports = executor.run(points)
    return [json.dumps(r.as_dict(), sort_keys=True) for r in reports], \
        executor.last_stats

# First pass schedules from the seed cost table (cold ledger) and
# records every measured wall time; the second schedules from that
# recorded history.  Both must merge to the same bytes.
cold, cold_stats = sweep()
assert cold_stats.ledger_recorded == 3, cold_stats.ledger_recorded
warm, warm_stats = sweep()
assert warm == cold, "warm-ledger sweep diverged from cold-ledger sweep"
shutdown_warm_pool()

# The sweeps above ran cache-less (in-memory ledger); a cached sweep
# must persist a non-empty ledger sidecar next to the run cache.
cached = SweepExecutor(max_workers=1)
cached.run(points[:1])
ledger_path = os.path.join(os.environ["DCPERF_CACHE_DIR"], LEDGER_FILENAME)
assert os.path.exists(ledger_path), "cost ledger sidecar was not written"
sidecar = json.load(open(ledger_path))
assert sidecar["by_fingerprint"], "persisted cost ledger is empty"
print("schedule smoke ok: cold and warm-ledger LPT sweeps byte-identical, "
      f"{warm_stats.ledger_recorded} timings re-recorded, persistent "
      f"ledger holds {len(sidecar['by_fingerprint'])} fingerprint(s)")
EOF

echo "== engine perf smoke (vs BENCH_engine.json quick baseline) =="
python tools/bench_engine.py --quick --repeat 3 --check BENCH_engine.json

echo "== golden traces with workload fast path (byte-identity gate) =="
python -m pytest -x -q tests/test_golden_traces.py

echo "== workload bench smoke (all six benchmarks + fault scenario) =="
python tools/bench_workloads.py --smoke

echo "== llm bench smoke (sessions + engine + end-to-end chat mix) =="
python tools/bench_llm.py --smoke

echo "== verify ok =="
