"""Byte-bounded LRU cache with TTL support.

The core data structure under both the Memcached model and the
read-through cache.  Eviction is strict LRU by byte budget; expired
entries are treated as misses and reclaimed lazily on access or
eagerly via :meth:`LruCache.purge_expired`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple


@dataclass
class CacheStats:
    """Hit/miss/eviction counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0
    sets: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class _Entry:
    """One cache node.  A plain slotted class, not a dataclass: the
    TaoBench pre-warm allocates ~54k of these per fill and the slotted
    form is both smaller and faster to construct.

    A node is never mutated once installed (replacement installs a new
    one), so snapshots and restored caches can share nodes."""

    __slots__ = ("value", "size", "expires_at")

    def __init__(
        self, value: bytes, size: int, expires_at: Optional[float] = None
    ) -> None:
        self.value = value
        self.size = size
        self.expires_at = expires_at


class LruSnapshot(NamedTuple):
    """An immutable image of an :class:`LruCache` (see ``snapshot``)."""

    #: LRU-to-MRU ``(key, node)`` pairs; nodes are shared, never mutated.
    entries: Tuple[Tuple[str, _Entry], ...]
    used_bytes: int
    sets: int


class LruCache:
    """Strict-LRU cache bounded by total value bytes.

    ``clock`` supplies the current time for TTL decisions (inject the
    sim clock in simulations; defaults to a monotonic counter that
    never expires anything).

    :meth:`snapshot` and :meth:`restore` capture and reinstate a
    warm-start image: a restore is one ``OrderedDict`` copy that
    shares the snapshot's immutable nodes.
    """

    def __init__(
        self,
        capacity_bytes: int,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self._clock = clock or (lambda: 0.0)
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._used_bytes = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        entry = self._entries.get(key)
        if entry is None:
            return False
        return not self._expired(entry)

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def _expired(self, entry: _Entry) -> bool:
        return entry.expires_at is not None and self._clock() >= entry.expires_at

    def get(self, key: str) -> Optional[bytes]:
        """Return the value and refresh recency, or None on miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if self._expired(entry):
            self._remove(key)
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry.value

    def peek(self, key: str) -> Optional[bytes]:
        """Like :meth:`get` but without touching recency or stats."""
        entry = self._entries.get(key)
        if entry is None or self._expired(entry):
            return None
        return entry.value

    def set(self, key: str, value: bytes, ttl_seconds: Optional[float] = None) -> None:
        """Insert or replace; evicts LRU entries to fit.

        Replacement installs a fresh node under the existing key (the
        old node is never mutated, so it may be shared with a
        :meth:`snapshot`) and moves it to MRU; eviction runs *after*
        the entry sits at MRU.  Both forms evict exactly the victims
        the remove-then-reinsert formulation did: the updated/new entry
        is at the MRU end, so ``_evict_lru`` pops the same LRU-ordered
        others, and ``used > capacity`` here is the old
        ``used_without_entry + size > capacity``.
        """
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("values must be bytes")
        size = len(value)
        if size > self.capacity_bytes:
            raise ValueError(
                f"value of {size} bytes exceeds capacity {self.capacity_bytes}"
            )
        expires_at = None
        if ttl_seconds is not None:
            if ttl_seconds <= 0:
                raise ValueError("ttl_seconds must be positive")
            expires_at = self._clock() + ttl_seconds
        entries = self._entries
        old = entries.get(key)
        if old is not None:
            self._used_bytes -= old.size
            entries.move_to_end(key)
        entries[key] = _Entry(bytes(value), size, expires_at)
        self._used_bytes += size
        while self._used_bytes > self.capacity_bytes:
            self._evict_lru()
        self.stats.sets += 1

    def delete(self, key: str) -> bool:
        """Remove a key; returns True if it was present."""
        if key in self._entries:
            self._remove(key)
            return True
        return False

    def _remove(self, key: str) -> None:
        entry = self._entries.pop(key)
        self._used_bytes -= entry.size

    def _evict_lru(self) -> None:
        key, entry = self._entries.popitem(last=False)
        self._used_bytes -= entry.size
        self.stats.evictions += 1

    def snapshot(self) -> LruSnapshot:
        """Capture the entries, byte usage and ``sets`` counter.

        The snapshot shares this cache's nodes: that is safe because
        no method mutates a node after it is installed (``set``
        replaces, eviction and deletion unlink), so later traffic on
        this cache or on any restored copy leaves it unchanged.
        """
        return LruSnapshot(
            tuple(self._entries.items()), self._used_bytes, self.stats.sets
        )

    def restore(self, snapshot: LruSnapshot) -> None:
        """Reinstate a :meth:`snapshot` into an empty cache.

        Equivalent to replaying the snapshot's ``set`` calls — same
        insertion order, byte accounting and ``sets`` counter; TTL
        deadlines keep their absolute clock times — at the cost of one
        C-level ``OrderedDict`` copy.  Requires an empty cache whose
        capacity holds the snapshot's bytes.
        """
        if self._entries:
            raise ValueError("restore() requires an empty cache")
        if snapshot.used_bytes > self.capacity_bytes:
            raise ValueError("snapshot exceeds capacity")
        self._entries = OrderedDict(snapshot.entries)
        self._used_bytes = snapshot.used_bytes
        self.stats.sets += snapshot.sets

    def clear(self) -> int:
        """O(1) flush: drop every entry (live *and* expired) at once.

        Counters (hits/misses/evictions/expirations/sets) are
        preserved — a flush is an operator action, not cache pressure,
        so it must not distort hit-rate accounting.  Returns the
        number of entries dropped.
        """
        count = len(self._entries)
        self._entries.clear()
        self._used_bytes = 0
        return count

    def purge_expired(self) -> int:
        """Eagerly remove expired entries; returns the count removed."""
        expired = [k for k, e in self._entries.items() if self._expired(e)]
        for key in expired:
            self._remove(key)
            self.stats.expirations += 1
        return len(expired)

    def items_snapshot(self) -> Tuple[Tuple[str, bytes], ...]:
        """LRU-to-MRU snapshot of live entries (tests/debugging)."""
        return tuple(
            (k, e.value) for k, e in self._entries.items() if not self._expired(e)
        )
