"""Memcached-style server model.

Exposes the core Memcached command set (get/set/delete/flush/stats)
over the LRU store, with the text-protocol semantics that matter for
correctness: flat key space, byte values, per-item TTLs, and LRU
eviction under a byte budget.  TaoBench's server component is built on
this class.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.cachelib.lru import LruCache

#: Memcached's classic limits.
MAX_KEY_BYTES = 250
MAX_VALUE_BYTES = 1024 * 1024

#: Every character below U+0080 for which ``str.isspace()`` is true.
#: An ASCII key can therefore be whitespace-checked with one C-level
#: ``frozenset.isdisjoint`` instead of a per-character generator.
_ASCII_WHITESPACE = frozenset("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f ")
#: Bound on the per-server validated-key memo.  TaoBench touches ~200k
#: distinct keys across a long run; 64k entries keeps the memo useful
#: (Zipf traffic concentrates on the head) without unbounded growth.
_VALIDATION_MEMO_MAX = 1 << 16


class MemcachedError(Exception):
    """Raised on protocol violations (bad key/value)."""


class MemcachedServer:
    """A single Memcached instance."""

    def __init__(
        self,
        capacity_bytes: int = 64 * 1024 * 1024,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.cache = LruCache(capacity_bytes, clock=clock)
        #: Keys that have already passed validation.  Validity is a
        #: pure function of the key string, so membership survives
        #: ``delete``/``flush_all`` safely; invalid keys are never
        #: memoized (they must keep raising).
        self._validated: set = set()

    def _check_key(self, key: str) -> None:
        validated = self._validated
        if key in validated:
            return
        if key.isascii():
            # ASCII fast path: byte length equals character length,
            # and the whitespace scan collapses to one set probe.
            if not key or len(key) > MAX_KEY_BYTES:
                raise MemcachedError(f"invalid key length: {len(key)}")
            if not _ASCII_WHITESPACE.isdisjoint(key):
                raise MemcachedError("keys must not contain whitespace")
        else:
            if len(key.encode("utf-8")) > MAX_KEY_BYTES:
                raise MemcachedError(f"invalid key length: {len(key)}")
            if any(c.isspace() for c in key):
                raise MemcachedError("keys must not contain whitespace")
        if len(validated) >= _VALIDATION_MEMO_MAX:
            validated.clear()
        validated.add(key)

    def get(self, key: str) -> Optional[bytes]:
        self._check_key(key)
        return self.cache.get(key)

    def get_multi(self, keys: Iterable[str]) -> Dict[str, bytes]:
        """Batch get; absent keys are omitted from the result."""
        out: Dict[str, bytes] = {}
        for key in keys:
            value = self.get(key)
            if value is not None:
                out[key] = value
        return out

    def set(self, key: str, value: bytes, ttl_seconds: Optional[float] = None) -> None:
        self._check_key(key)
        if len(value) > MAX_VALUE_BYTES:
            raise MemcachedError(
                f"value of {len(value)} bytes exceeds the 1MB item limit"
            )
        self.cache.set(key, value, ttl_seconds=ttl_seconds)

    def delete(self, key: str) -> bool:
        self._check_key(key)
        return self.cache.delete(key)

    def flush_all(self) -> None:
        """Drop every item (preserves counters, like the real command).

        Delegates to :meth:`LruCache.clear` — O(1) instead of one
        LRU-bookkeeping delete per live key (and it also reclaims
        already-expired entries the old snapshot walk skipped).
        """
        self.cache.clear()

    def stats(self) -> Dict[str, float]:
        s = self.cache.stats
        return {
            "get_hits": s.hits,
            "get_misses": s.misses,
            "evictions": s.evictions,
            "expired": s.expirations,
            "cmd_set": s.sets,
            "curr_items": len(self.cache),
            "bytes": self.cache.used_bytes,
            "hit_rate": s.hit_rate,
        }
