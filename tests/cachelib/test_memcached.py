"""Tests for the Memcached server model."""

import pytest

from repro.cachelib.memcached import MAX_VALUE_BYTES, MemcachedError, MemcachedServer


class TestCommands:
    def test_get_set_delete(self):
        server = MemcachedServer()
        server.set("key", b"value")
        assert server.get("key") == b"value"
        assert server.delete("key")
        assert server.get("key") is None

    def test_get_multi(self):
        server = MemcachedServer()
        server.set("a", b"1")
        server.set("b", b"2")
        out = server.get_multi(["a", "b", "c"])
        assert out == {"a": b"1", "b": b"2"}

    def test_flush_all(self):
        server = MemcachedServer()
        server.set("a", b"1")
        server.flush_all()
        assert server.get("a") is None

    def test_stats_shape(self):
        server = MemcachedServer()
        server.set("a", b"1")
        server.get("a")
        server.get("b")
        stats = server.stats()
        assert stats["get_hits"] == 1
        assert stats["get_misses"] == 1
        assert stats["curr_items"] == 1
        assert stats["cmd_set"] == 1


class TestLimits:
    def test_key_length_limit(self):
        server = MemcachedServer()
        with pytest.raises(MemcachedError):
            server.get("k" * 251)

    def test_key_whitespace_rejected(self):
        with pytest.raises(MemcachedError):
            MemcachedServer().get("bad key")

    def test_empty_key_rejected(self):
        with pytest.raises(MemcachedError):
            MemcachedServer().get("")

    def test_value_size_limit(self):
        server = MemcachedServer(capacity_bytes=4 * 1024 * 1024)
        with pytest.raises(MemcachedError):
            server.set("k", b"x" * (MAX_VALUE_BYTES + 1))


class TestValidationFastPath:
    """The memoized/ASCII-fast-path validation must preserve every
    rejection the per-character scan performed."""

    def test_oversized_key_rejected_every_time(self):
        server = MemcachedServer()
        for _ in range(3):  # invalid keys must never enter the memo
            with pytest.raises(MemcachedError):
                server.get("k" * 251)

    def test_key_length_is_counted_in_bytes(self):
        # 126 two-byte UTF-8 chars = 252 wire bytes > 250, even though
        # the character count (126) is under the limit.
        server = MemcachedServer()
        with pytest.raises(MemcachedError):
            server.get("é" * 126)
        # 125 of them (250 bytes) is exactly at the limit: accepted.
        assert server.get("é" * 125) is None

    def test_unicode_whitespace_rejected(self):
        server = MemcachedServer()
        for key in ("a b", "a b", " "):
            with pytest.raises(MemcachedError):
                server.get(key)

    def test_ascii_control_whitespace_rejected(self):
        server = MemcachedServer()
        for ws in "\t\n\v\f\r\x1c\x1d\x1e\x1f ":
            with pytest.raises(MemcachedError):
                server.get(f"a{ws}b")

    def test_max_length_ascii_key_accepted(self):
        server = MemcachedServer()
        key = "k" * 250
        server.set(key, b"v")
        assert server.get(key) == b"v"

    def test_memo_correct_after_delete(self):
        server = MemcachedServer()
        server.set("k", b"v")
        assert server.delete("k")
        # The key is still *valid* (validity is a property of the
        # string, not of cache residency) and behaves as a miss.
        assert server.get("k") is None
        server.set("k", b"v2")
        assert server.get("k") == b"v2"

    def test_memo_correct_after_flush_all(self):
        server = MemcachedServer()
        server.set("a", b"1")
        server.set("b", b"2")
        server.flush_all()
        assert server.get("a") is None
        server.set("a", b"3")
        assert server.get("a") == b"3"
        # And invalid keys still raise after a flush.
        with pytest.raises(MemcachedError):
            server.get("bad key")


class TestFlushAndWarm:
    def test_flush_all_preserves_counters(self):
        server = MemcachedServer()
        server.set("a", b"1")
        server.get("a")
        server.get("missing")
        server.flush_all()
        stats = server.stats()
        assert stats["get_hits"] == 1
        assert stats["get_misses"] == 1
        assert stats["cmd_set"] == 1
        assert stats["curr_items"] == 0
        assert stats["bytes"] == 0

    def test_flush_all_drops_expired_entries(self):
        clock = [0.0]
        server = MemcachedServer(clock=lambda: clock[0])
        server.set("a", b"1", ttl_seconds=1.0)
        clock[0] = 2.0
        server.flush_all()
        assert len(server.cache) == 0
        assert server.cache.used_bytes == 0

    def test_restored_server_matches_individual_sets(self):
        items = [(f"k{i}", bytes([i]) * (i + 1)) for i in range(20)]
        via_sets = MemcachedServer()
        for key, value in items:
            via_sets.set(key, value)
        via_restore = MemcachedServer()
        via_restore.cache.restore(via_sets.cache.snapshot())
        assert via_restore.cache.items_snapshot() == via_sets.cache.items_snapshot()
        assert via_restore.cache.used_bytes == via_sets.cache.used_bytes
        assert via_restore.stats() == via_sets.stats()
        # The validation memo is not part of the image: restored keys
        # are validated again on first use, with the same outcome.
        assert via_restore._validated == set()
        assert via_restore.get("k3") == bytes([3]) * 4
        with pytest.raises(MemcachedError):
            via_restore.get("bad key")
