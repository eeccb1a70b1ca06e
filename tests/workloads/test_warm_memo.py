"""Memoized setup phases must be invisible in results.

TaoBench memoizes its cache pre-warm and StorageBench its LSM prefill;
FeedSim applies the same pattern to its SLO-search operating point.
Any memo replaying instead of recomputing must leave the report
byte-identical, and a run on a restored image must never write
through into the shared snapshot.
"""

import json
import os
import subprocess
import sys

import repro
from repro.cachelib.lru import LruCache
from repro.exec.executor import execute_point
from repro.exec.spec import RunPoint
from repro.hw.blockdev import NVME_FLASH, BlockDevice
from repro.sim.engine import Environment
from repro.storage.lsm import LsmConfig, LsmTree
from repro.workloads import feedsim, storagebench, taobench


def _point(seed=11, benchmark="taobench"):
    return RunPoint(
        benchmark=benchmark,
        sku="SKU2",
        seed=seed,
        measure_seconds=0.05,
        warmup_seconds=0.02,
        early_stop=False,
    )


class TestWarmMemo:
    def test_memo_hit_is_byte_identical(self):
        taobench._WARM_MEMO.clear()
        first = execute_point(_point())   # records the fill
        assert taobench._WARM_MEMO
        second = execute_point(_point())  # replays it
        assert first.metric_value == second.metric_value
        assert first.as_dict() == second.as_dict()

    def test_different_seed_is_a_different_fill(self):
        taobench._WARM_MEMO.clear()
        execute_point(_point(seed=11))
        execute_point(_point(seed=12))  # different size-stream state
        assert len(taobench._WARM_MEMO) == 2


def _report_json(point):
    return json.dumps(execute_point(point).as_dict(), sort_keys=True)


def _fresh_process_report(point):
    """The same point's report from a new interpreter (empty memos)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    script = (
        "import json, sys\n"
        "from repro.exec.executor import execute_point\n"
        "from repro.exec.spec import RunPoint\n"
        "point = RunPoint(**json.loads(sys.argv[1]))\n"
        "print(json.dumps(execute_point(point).as_dict(), sort_keys=True))\n"
    )
    fields = {
        name: getattr(point, name)
        for name in ("benchmark", "sku", "seed", "measure_seconds",
                     "warmup_seconds", "early_stop")
    }
    out = subprocess.run(
        [sys.executable, "-c", script, json.dumps(fields)],
        env=dict(os.environ, PYTHONPATH=src, DCPERF_CACHE="0"),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip().splitlines()[-1]


def _counting(monkeypatch, cls, names):
    """Count calls to ``cls`` methods (behaviour unchanged)."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(cls, name)

        def wrapper(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)
    return counts


class TestTaoSnapshotAliasing:
    def test_mutating_restored_run_leaves_the_snapshot_intact(self, monkeypatch):
        taobench._WARM_MEMO.clear()
        # SKU4's miss traffic outgrows the ~3% headroom the fill leaves,
        # so the restored run evicts snapshot entries.
        point = RunPoint(
            benchmark="taobench", sku="SKU4", seed=11,
            measure_seconds=1.0, warmup_seconds=0.05, early_stop=False,
        )
        _report_json(point)  # fill: records the snapshot
        (snapshot, _), = taobench._WARM_MEMO.values()
        frozen = [(k, e.value, e.size, e.expires_at) for k, e in snapshot.entries]

        counts = _counting(monkeypatch, LruCache, ("set", "delete", "_evict_lru"))
        second = _report_json(point)  # restore, then mutate the cache
        monkeypatch.undo()
        assert counts["set"] > 0, "the run inserted nothing on miss"
        assert counts["delete"] > 0, "the run invalidated nothing"
        assert counts["_evict_lru"] > 0, "the run evicted nothing"
        assert [
            (k, e.value, e.size, e.expires_at) for k, e in snapshot.entries
        ] == frozen

        third = _report_json(point)  # restore again
        assert third == second
        assert third == _fresh_process_report(point)


def _storage_tree(config):
    env = Environment()
    device = BlockDevice(env, NVME_FLASH)
    return LsmTree(env, device, LruCache(1 << 20), config=config)


def _table_image(image):
    return [
        [(t.table_id, list(t.keys), list(t.sizes), bytes(t.bloom._bits))
         for t in tables]
        for tables in image.levels
    ]


class TestStoragePrefillMemo:
    def test_memo_hit_is_byte_identical(self):
        storagebench._PREFILL_MEMO.clear()
        point = _point(benchmark="storagebench")
        first = _report_json(point)  # builds the prefill
        assert len(storagebench._PREFILL_MEMO) == 1
        assert _report_json(point) == first  # restores it

    def test_run_with_compactions_leaves_memoized_tables_intact(self):
        storagebench._PREFILL_MEMO.clear()
        point = RunPoint(
            benchmark="storagebench", sku="SKU2", seed=11,
            measure_seconds=0.6, warmup_seconds=0.05, early_stop=False,
        )
        _report_json(point)
        (image,) = storagebench._PREFILL_MEMO.values()
        before = _table_image(image)
        second = json.loads(_report_json(point))
        assert second["hooks"]["iostat"]["compactions"] >= 1
        assert _table_image(image) == before

    def test_different_config_gets_its_own_prefill(self):
        storagebench._PREFILL_MEMO.clear()
        small = LsmConfig(base_level_bytes=256 * 1024, table_target_bytes=64 * 1024)
        large = LsmConfig(base_level_bytes=512 * 1024, table_target_bytes=128 * 1024)
        a = _storage_tree(small)
        storagebench.StorageBench._prefill(a, small)
        b = _storage_tree(large)
        storagebench.StorageBench._prefill(b, large)
        assert len(storagebench._PREFILL_MEMO) == 2
        assert _table_image(a.snapshot()) != _table_image(b.snapshot())
        restored = _storage_tree(small)
        storagebench.StorageBench._prefill(restored, small)
        assert len(storagebench._PREFILL_MEMO) == 2
        assert _table_image(restored.snapshot()) == _table_image(a.snapshot())
        assert restored.levels[1] is not a.levels[1]  # lists are copies


class TestFeedsimSearchMemo:
    def test_memo_hit_is_byte_identical(self):
        feedsim._SEARCH_MEMO.clear()
        first = execute_point(_point(benchmark="feedsim"))
        assert feedsim._SEARCH_MEMO  # search recorded
        second = execute_point(_point(benchmark="feedsim"))
        assert first.metric_value == second.metric_value
        assert first.as_dict() == second.as_dict()

    def test_different_seed_is_a_different_search(self):
        feedsim._SEARCH_MEMO.clear()
        execute_point(_point(seed=11, benchmark="feedsim"))
        execute_point(_point(seed=12, benchmark="feedsim"))
        assert len(feedsim._SEARCH_MEMO) == 2

    def test_custom_characteristics_bypass_the_memo(self):
        """Only module-persistent registry profiles are safe memo keys;
        a caller-built profile object must never populate the memo."""
        import dataclasses

        from repro.workloads.base import RunConfig
        from repro.workloads.profiles import BENCHMARK_PROFILES

        feedsim._SEARCH_MEMO.clear()
        chars = dataclasses.replace(BENCHMARK_PROFILES["feedsim"])
        wl = feedsim.FeedSim(chars=chars)
        assert wl._memo_key(RunConfig()) is None
        assert feedsim._SEARCH_MEMO == {}
