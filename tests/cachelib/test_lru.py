"""Tests for the byte-bounded LRU cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cachelib.lru import LruCache, LruSnapshot


class TestBasics:
    def test_get_miss(self):
        cache = LruCache(100)
        assert cache.get("missing") is None
        assert cache.stats.misses == 1

    def test_set_get(self):
        cache = LruCache(100)
        cache.set("k", b"value")
        assert cache.get("k") == b"value"
        assert cache.stats.hits == 1

    def test_replace_updates_bytes(self):
        cache = LruCache(100)
        cache.set("k", b"12345")
        cache.set("k", b"12")
        assert cache.used_bytes == 2
        assert len(cache) == 1

    def test_value_type_enforced(self):
        with pytest.raises(TypeError):
            LruCache(100).set("k", "not bytes")

    def test_oversized_value_rejected(self):
        with pytest.raises(ValueError):
            LruCache(10).set("k", b"x" * 11)

    def test_delete(self):
        cache = LruCache(100)
        cache.set("k", b"v")
        assert cache.delete("k")
        assert not cache.delete("k")
        assert cache.used_bytes == 0


class TestEviction:
    def test_lru_order(self):
        cache = LruCache(30)
        cache.set("a", b"x" * 10)
        cache.set("b", b"x" * 10)
        cache.set("c", b"x" * 10)
        cache.get("a")  # refresh a
        cache.set("d", b"x" * 10)  # evicts b (oldest untouched)
        assert "a" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_peek_does_not_refresh(self):
        cache = LruCache(20)
        cache.set("a", b"x" * 10)
        cache.set("b", b"x" * 10)
        cache.peek("a")
        cache.set("c", b"x" * 10)  # evicts a despite the peek
        assert "a" not in cache

    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 30), st.integers(1, 40)), max_size=200
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_byte_budget_never_exceeded(self, ops):
        cache = LruCache(100)
        for key, size in ops:
            cache.set(f"k{key}", b"x" * size)
            assert cache.used_bytes <= 100
        live = cache.items_snapshot()
        assert sum(len(v) for _, v in live) == cache.used_bytes


class TestTtl:
    def test_expiry_is_a_miss(self):
        clock = [0.0]
        cache = LruCache(100, clock=lambda: clock[0])
        cache.set("k", b"v", ttl_seconds=5.0)
        assert cache.get("k") == b"v"
        clock[0] = 6.0
        assert cache.get("k") is None
        assert cache.stats.expirations == 1

    def test_purge_expired(self):
        clock = [0.0]
        cache = LruCache(100, clock=lambda: clock[0])
        cache.set("a", b"v", ttl_seconds=1.0)
        cache.set("b", b"v")
        clock[0] = 2.0
        assert cache.purge_expired() == 1
        assert "b" in cache

    def test_invalid_ttl(self):
        with pytest.raises(ValueError):
            LruCache(100).set("k", b"v", ttl_seconds=0.0)

    def test_contains_respects_ttl(self):
        clock = [0.0]
        cache = LruCache(100, clock=lambda: clock[0])
        cache.set("k", b"v", ttl_seconds=1.0)
        assert "k" in cache
        clock[0] = 2.0
        assert "k" not in cache


class TestStats:
    def test_hit_rate(self):
        cache = LruCache(100)
        cache.set("k", b"v")
        cache.get("k")
        cache.get("k")
        cache.get("nope")
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_empty_hit_rate(self):
        assert LruCache(100).stats.hit_rate == 0.0


class TestClearAndLoad:
    def test_clear_preserves_counters(self):
        cache = LruCache(100)
        cache.set("a", b"12345")
        cache.get("a")
        cache.get("missing")
        dropped = cache.clear()
        assert dropped == 1
        assert len(cache) == 0
        assert cache.used_bytes == 0
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.sets == 1

    def test_clear_drops_expired_entries_too(self):
        clock = [0.0]
        cache = LruCache(100, clock=lambda: clock[0])
        cache.set("a", b"v", ttl_seconds=1.0)
        clock[0] = 5.0
        assert cache.clear() == 1
        assert cache.used_bytes == 0


class TestSnapshotRestore:
    @staticmethod
    def _filled(items, capacity=1000):
        cache = LruCache(capacity)
        for key, value in items:
            cache.set(key, value)
        return cache

    def test_restore_matches_set_sequence(self):
        items = [(f"k{i}", b"x" * (i + 1)) for i in range(10)]
        via_sets = self._filled(items)
        via_restore = LruCache(1000)
        via_restore.restore(self._filled(items).snapshot())
        assert via_restore.items_snapshot() == via_sets.items_snapshot()
        assert list(via_restore.items_snapshot()) == items  # insertion order
        assert via_restore.used_bytes == via_sets.used_bytes
        assert via_restore.stats.sets == via_sets.stats.sets

    def test_restore_keeps_recency_order(self):
        cache = self._filled([("a", b"1"), ("b", b"2"), ("c", b"3")])
        cache.get("a")  # a is now MRU
        restored = LruCache(1000)
        restored.restore(cache.snapshot())
        assert [k for k, _ in restored.items_snapshot()] == ["b", "c", "a"]

    def test_restore_adds_to_sets_counter(self):
        snapshot = self._filled([("a", b"1"), ("b", b"2")]).snapshot()
        cache = LruCache(100)
        cache.get("missing")
        cache.restore(snapshot)
        assert cache.stats.sets == 2
        assert cache.stats.misses == 1

    def test_restore_requires_empty_cache(self):
        snapshot = self._filled([("b", b"v")]).snapshot()
        cache = LruCache(100)
        cache.set("a", b"v")
        with pytest.raises(ValueError):
            cache.restore(snapshot)

    def test_restore_rejects_overflow(self):
        snapshot = self._filled([("a", b"x" * 6), ("b", b"x" * 6)]).snapshot()
        cache = LruCache(10)
        with pytest.raises(ValueError):
            cache.restore(snapshot)
        assert len(cache) == 0  # failed restore leaves the cache empty
        assert cache.stats.sets == 0

    def test_mutating_a_restored_cache_leaves_the_snapshot_unchanged(self):
        items = [(f"k{i}", bytes([65 + i]) * 10) for i in range(5)]
        source = self._filled(items, capacity=50)
        snapshot = source.snapshot()
        frozen = [(k, e.value, e.size, e.expires_at) for k, e in snapshot.entries]
        restored = LruCache(50)
        restored.restore(snapshot)
        restored.set("k0", b"new")  # replace an existing key
        restored.set("k1", b"z" * 10, ttl_seconds=5.0)
        assert restored.delete("k2")
        restored.set("big", b"y" * 30)  # evicts LRU entries
        assert restored.stats.evictions > 0
        source.set("k3", b"w")  # the capturing cache moves on too
        assert [
            (k, e.value, e.size, e.expires_at) for k, e in snapshot.entries
        ] == frozen
        assert snapshot.used_bytes == 50 and snapshot.sets == 5
        again = LruCache(50)
        again.restore(snapshot)
        assert list(again.items_snapshot()) == items
        assert again.used_bytes == 50


class TestSnapshotBuild:
    @staticmethod
    def _image(cache):
        return [(k, e.value, e.size, e.expires_at) for k, e in cache._entries.items()]

    def test_build_matches_set_sequence(self):
        # A repeated key replaces its node and moves to MRU, as set() does.
        items = [(f"k{i}", b"x" * (i + 1)) for i in range(10)]
        items += [("k3", b"short"), ("k7", bytearray(b"ba"))]
        via_sets = LruCache(1000)
        for key, value in items:
            via_sets.set(key, value)
        snapshot = LruSnapshot.build(items, 1000)
        via_build = LruCache(1000)
        via_build.restore(snapshot)
        assert self._image(via_build) == self._image(via_sets)
        assert snapshot.used_bytes == via_sets.used_bytes
        assert snapshot.sets == via_sets.stats.sets == 12
        assert type(snapshot.entries[-1][1].value) is bytes

    def test_build_checks_values(self):
        with pytest.raises(TypeError):
            LruSnapshot.build([("a", "text")], 100)
        with pytest.raises(ValueError):
            LruSnapshot.build([("a", b"x" * 101)], 100)

    def test_build_refuses_to_evict(self):
        with pytest.raises(ValueError, match="evict"):
            LruSnapshot.build([("a", b"x" * 60), ("b", b"y" * 60)], 100)
        # Replacing a key frees its old bytes first, so this fits.
        snapshot = LruSnapshot.build([("a", b"x" * 60), ("a", b"y" * 90)], 100)
        assert snapshot.used_bytes == 90 and snapshot.sets == 2


class TestTtlRacingEviction:
    def test_expired_entry_evicted_under_pressure_counts_once(self):
        """An entry that has expired but not yet been reclaimed is still
        a legal LRU victim; eviction and expiration must not both be
        charged for it."""
        clock = [0.0]
        cache = LruCache(30, clock=lambda: clock[0])
        cache.set("old", b"x" * 10, ttl_seconds=1.0)
        cache.set("live", b"x" * 10)
        clock[0] = 2.0  # "old" is now expired but still resident
        cache.set("new1", b"x" * 10)  # fits: no eviction yet
        cache.set("new2", b"x" * 10)  # evicts "old" (LRU, expired)
        assert cache.stats.evictions == 1
        assert cache.stats.expirations == 0
        assert "live" in cache
        assert "new1" in cache and "new2" in cache

    def test_replace_of_expired_entry_updates_in_place(self):
        clock = [0.0]
        cache = LruCache(100, clock=lambda: clock[0])
        cache.set("k", b"old", ttl_seconds=1.0)
        clock[0] = 2.0
        cache.set("k", b"newval")  # replacement clears the stale TTL
        clock[0] = 100.0
        assert cache.get("k") == b"newval"
        assert cache.used_bytes == 6
