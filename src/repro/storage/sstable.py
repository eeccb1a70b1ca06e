"""In-memory write buffer and immutable sorted-run metadata.

The storage model tracks *structure and byte accounting*, not value
contents: a :class:`Memtable` maps keys to value sizes, and an
:class:`SSTable` is the metadata a real LSM engine keeps per sorted
run — the sorted key list, per-key sizes, key range, level, and a
bloom filter.  Lookups bisect the key list exactly like an index-block
search; the actual data-block transfer is charged to the simulated
block device by the :class:`~repro.storage.lsm.LsmTree`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from operator import ge
from typing import Dict, Iterable, List, Optional, Tuple

from repro.storage.bloom import BloomFilter


class Memtable:
    """Sorted-on-flush write buffer with byte accounting."""

    __slots__ = ("_entries", "data_bytes")

    def __init__(self) -> None:
        self._entries: Dict[int, int] = {}
        self.data_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    def get(self, key: int) -> Optional[int]:
        """Value size for ``key``, or None when absent."""
        return self._entries.get(key)

    def put(self, key: int, value_bytes: int) -> None:
        """Insert or overwrite; byte accounting follows the new size."""
        if value_bytes < 0:
            raise ValueError("value_bytes must be non-negative")
        previous = self._entries.get(key)
        if previous is not None:
            self.data_bytes -= previous
        self._entries[key] = value_bytes
        self.data_bytes += value_bytes

    def sorted_entries(self) -> List[Tuple[int, int]]:
        """(key, size) pairs in key order — the flush image."""
        return sorted(self._entries.items())

    def range_entries(self, start_key: int, count: int) -> List[Tuple[int, int]]:
        """Up to ``count`` (key, size) pairs at or after ``start_key``."""
        keys = sorted(k for k in self._entries if k >= start_key)[:count]
        return [(k, self._entries[k]) for k in keys]


class SSTable:
    """One immutable sorted run.

    Keys are integers (the workloads' key ordinals); parallel lists
    keep per-key value sizes for scan/compaction byte accounting.
    Nothing mutates a table after ``__init__`` (compaction builds new
    tables), so one table may be shared by several trees — the
    StorageBench warm-start memo relies on it.
    """

    __slots__ = (
        "table_id",
        "level",
        "keys",
        "sizes",
        "bloom",
        "data_bytes",
        "min_key",
        "max_key",
    )

    def __init__(
        self,
        table_id: int,
        level: int,
        entries: Iterable[Tuple[int, int]],
        bits_per_key: int = 10,
    ) -> None:
        pairs = list(entries)
        if not pairs:
            raise ValueError("an SSTable needs at least one entry")
        keys = [k for k, _ in pairs]
        if any(map(ge, keys, islice(keys, 1, None))):
            raise ValueError("entries must be sorted by strictly increasing key")
        self.table_id = table_id
        self.level = level
        self.keys: List[int] = keys
        self.sizes: List[int] = [s for _, s in pairs]
        self.data_bytes = sum(self.sizes)
        self.min_key = keys[0]
        self.max_key = keys[-1]
        self.bloom = BloomFilter(len(pairs), bits_per_key=bits_per_key)
        self.bloom.add_all(keys)

    def __len__(self) -> int:
        return len(self.keys)

    def key_position(self, key: int) -> Optional[int]:
        """Index of ``key`` in the run, or None when absent."""
        if key < self.min_key or key > self.max_key:
            return None
        index = bisect_left(self.keys, key)
        if index < len(self.keys) and self.keys[index] == key:
            return index
        return None

    def overlaps(self, min_key: int, max_key: int) -> bool:
        return self.min_key <= max_key and min_key <= self.max_key

    def range_entries(self, start_key: int, count: int) -> List[Tuple[int, int]]:
        """Up to ``count`` (key, size) pairs at or after ``start_key``."""
        index = bisect_left(self.keys, start_key)
        stop = min(len(self.keys), index + count)
        return list(zip(self.keys[index:stop], self.sizes[index:stop]))

    def entries(self) -> List[Tuple[int, int]]:
        return list(zip(self.keys, self.sizes))


def merge_runs(runs: List[SSTable]) -> List[Tuple[int, int]]:
    """K-way merge with newest-wins semantics.

    ``runs`` must be ordered newest-first (the compaction input order);
    a key present in several runs keeps the newest size, exactly like a
    real compaction dropping obsolete versions.
    """
    merged: Dict[int, int] = {}
    for run in reversed(runs):  # oldest first, newer runs overwrite
        for key, size in zip(run.keys, run.sizes):
            merged[key] = size
    return sorted(merged.items())


def split_into_tables(
    entries: List[Tuple[int, int]],
    target_bytes: int,
    next_id,
    level: int,
    bits_per_key: int = 10,
) -> List[SSTable]:
    """Cut a merged entry stream into tables of ~``target_bytes`` each.

    ``next_id`` is a callable returning fresh table ids (the tree's
    monotonic counter), keeping id assignment deterministic.
    """
    if target_bytes < 1:
        raise ValueError("target_bytes must be >= 1")
    tables: List[SSTable] = []
    chunk: List[Tuple[int, int]] = []
    chunk_bytes = 0
    for key, size in entries:
        chunk.append((key, size))
        chunk_bytes += size
        if chunk_bytes >= target_bytes:
            tables.append(
                SSTable(next_id(), level, chunk, bits_per_key=bits_per_key)
            )
            chunk = []
            chunk_bytes = 0
    if chunk:
        tables.append(SSTable(next_id(), level, chunk, bits_per_key=bits_per_key))
    return tables


__all__ = [
    "Memtable",
    "SSTable",
    "merge_runs",
    "split_into_tables",
    "bisect_left",
    "bisect_right",
]
