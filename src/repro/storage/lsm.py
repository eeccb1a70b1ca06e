"""LSM-tree storage engine model on the discrete-event engine.

The shape is RocksDB's leveled compaction, reduced to the mechanisms
that determine datacenter storage-node performance:

* **Writes** append to the WAL (sequential device write), land in the
  memtable, and rotate it into an L0 flush once the size threshold
  trips.  Flushes and compactions run as *background simulation
  processes* that share the block device — and, through the caller's
  ``compaction_cpu`` hook, the simulated CPU — with foreground traffic.
* **Reads** check the memtable, then L0 runs newest-first, then one
  candidate run per sorted level.  Every run consult is gated by its
  bloom filter; a pass reads one data block *through the block cache*
  (a :class:`~repro.cachelib.lru.LruCache`), so only cache misses reach
  the device.  Bloom false positives pay the block read and find
  nothing — exactly the wasted I/O a real engine eats.
* **Backpressure**: when L0 accumulates ``l0_stall_trigger`` runs,
  writers stall until compaction drains it — RocksDB's write-stall
  mechanism, and the main way compaction interference becomes visible
  in foreground p99.

``io_scale`` implements the suite's batch semantics: one simulated
operation stands for ``batch`` production operations, so device
transfers multiply by ``io_scale`` (bytes aggregate across the batch)
while per-op device latency is charged once (batched ops pipeline on
the device queue).  The tree's own data structures stay in sim units.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Generator, List, NamedTuple, Optional, Tuple

from repro.cachelib.lru import LruCache
from repro.hw.blockdev import BlockDevice
from repro.sim.engine import Environment, Event
from repro.storage.sstable import Memtable, SSTable, merge_runs, split_into_tables


@dataclass(frozen=True)
class LsmConfig:
    """Geometry and trigger thresholds (sim units; see ``io_scale``)."""

    memtable_bytes: int = 256 * 1024
    #: L0 run count that starts a compaction into L1.
    l0_compaction_trigger: int = 4
    #: L0 run count that stalls writers until compaction catches up.
    l0_stall_trigger: int = 8
    #: Ln target size = base_level_bytes * multiplier**(n-1).
    base_level_bytes: int = 1024 * 1024
    level_size_multiplier: int = 10
    #: Deepest sorted level (L1..max_level).
    max_level: int = 4
    #: Data-block size: the unit of cache residency and random reads.
    block_bytes: int = 4096
    #: Keys per data block (block index granularity for the cache).
    keys_per_block: int = 10
    bloom_bits_per_key: int = 10
    #: Per-record WAL framing overhead added to the value bytes.
    wal_record_overhead: int = 32
    #: Output tables are cut at roughly this size during compaction.
    table_target_bytes: int = 512 * 1024

    def level_target_bytes(self, level: int) -> int:
        if level < 1:
            raise ValueError("sorted levels start at 1")
        return self.base_level_bytes * self.level_size_multiplier ** (level - 1)


class LsmStats:
    """Operation counters; resettable at the measurement-window edge."""

    __slots__ = (
        "gets",
        "hits",
        "puts",
        "scans",
        "scanned_entries",
        "bloom_checks",
        "bloom_negatives",
        "bloom_false_positives",
        "block_reads",
        "flushes",
        "compactions",
        "compaction_read_bytes",
        "compaction_write_bytes",
        "flush_write_bytes",
        "wal_bytes",
        "stall_events",
        "stall_seconds",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.gets = 0
        self.hits = 0
        self.puts = 0
        self.scans = 0
        self.scanned_entries = 0
        self.bloom_checks = 0
        self.bloom_negatives = 0
        self.bloom_false_positives = 0
        self.block_reads = 0
        self.flushes = 0
        self.compactions = 0
        self.compaction_read_bytes = 0.0
        self.compaction_write_bytes = 0.0
        self.flush_write_bytes = 0.0
        self.wal_bytes = 0.0
        self.stall_events = 0
        self.stall_seconds = 0.0

    @property
    def bloom_fp_rate(self) -> float:
        """False positives per bloom pass (checks that were not
        short-circuited)."""
        passes = self.bloom_checks - self.bloom_negatives
        if passes == 0:
            return 0.0
        return self.bloom_false_positives / passes


class LsmImage(NamedTuple):
    """A warm-start image of an :class:`LsmTree` (see ``snapshot``)."""

    config: LsmConfig
    #: Per-level table tuples (levels[0] is L0, newest first).
    levels: Tuple[Tuple[SSTable, ...], ...]
    next_table_id: int


class LsmTree:
    """One LSM storage engine instance bound to a device and a cache.

    ``compaction_cpu`` (optional) is a generator factory charged with
    ``merge_bytes`` of compaction input; the caller maps bytes to CPU
    instructions on its harness, which is how background compaction
    contends with foreground request processing for simulated cores.
    ``on_stall`` (optional) observes each writer stall duration — the
    StorageBench workload feeds these into an HDR-bucketed recorder.
    """

    def __init__(
        self,
        env: Environment,
        device: BlockDevice,
        block_cache: LruCache,
        config: Optional[LsmConfig] = None,
        io_scale: int = 1,
        compaction_cpu: Optional[Callable[[float], Generator]] = None,
        on_stall: Optional[Callable[[float], None]] = None,
    ) -> None:
        if io_scale < 1:
            raise ValueError("io_scale must be >= 1")
        self.env = env
        self.device = device
        self.block_cache = block_cache
        self.config = config or LsmConfig()
        self.io_scale = io_scale
        self.compaction_cpu = compaction_cpu
        self.on_stall = on_stall
        self.memtable = Memtable()
        #: levels[0] is the L0 run list, newest first; levels[n>=1] are
        #: sorted non-overlapping runs ordered by min_key.
        self.levels: List[List[SSTable]] = [
            [] for _ in range(self.config.max_level + 1)
        ]
        self.stats = LsmStats()
        self._next_table_id = 0
        self._compacting = False
        self._stall_event: Optional[Event] = None
        #: Shared immutable block payload: cache entries model resident
        #: bytes, not contents, so every block shares one bytes object.
        self._block_value = b"\x00" * self.config.block_bytes

    # -- id/geometry helpers ---------------------------------------------------
    def _take_table_id(self) -> int:
        self._next_table_id += 1
        return self._next_table_id

    def level_bytes(self, level: int) -> int:
        return sum(t.data_bytes for t in self.levels[level])

    @property
    def table_count(self) -> int:
        return sum(len(tables) for tables in self.levels)

    @property
    def total_data_bytes(self) -> int:
        return self.memtable.data_bytes + sum(
            self.level_bytes(level) for level in range(len(self.levels))
        )

    # -- warm start ------------------------------------------------------------
    def load_level(self, level: int, entries: List[Tuple[int, int]]) -> None:
        """Install pre-built sorted runs without device traffic.

        The warm-start image a production node boots with; entries must
        be sorted by key, and the target level must be a sorted level
        (1..max_level) that is still empty.
        """
        if not 1 <= level <= self.config.max_level:
            raise ValueError(f"load_level targets sorted levels, got {level}")
        if self.levels[level]:
            raise ValueError(f"level {level} is already populated")
        self.levels[level] = split_into_tables(
            entries,
            self.config.table_target_bytes,
            self._take_table_id,
            level,
            bits_per_key=self.config.bloom_bits_per_key,
        )

    def snapshot(self) -> LsmImage:
        """Capture a quiescent tree's sorted runs and table-id counter.

        The image shares the tree's :class:`SSTable` objects, which are
        never mutated after construction; later flushes and compactions
        replace level lists rather than editing tables, so they leave
        the image unchanged.  Only an idle tree (empty memtable, no
        compaction in flight) can be captured.
        """
        if self.memtable or self._compacting:
            raise ValueError("snapshot() requires an idle tree")
        return LsmImage(
            self.config,
            tuple(tuple(tables) for tables in self.levels),
            self._next_table_id,
        )

    def restore(self, image: LsmImage) -> None:
        """Reinstate a :meth:`snapshot` into a fresh tree of the same
        config: each level list is copied, the tables are shared."""
        if image.config != self.config:
            raise ValueError("image was captured under a different config")
        if self._next_table_id or self.table_count or self.memtable:
            raise ValueError("restore() requires a fresh tree")
        self.levels = [list(tables) for tables in image.levels]
        self._next_table_id = image.next_table_id

    # -- read path -------------------------------------------------------------
    def _block_key(self, table: SSTable, position: int) -> str:
        return f"{table.table_id}:{position // self.config.keys_per_block}"

    def _consult_run(self, table: SSTable, key: int) -> Generator:
        """Bloom-gated lookup in one run; returns True when found.

        A bloom pass always costs a data-block access (through the
        cache): a real engine must read the block to learn whether the
        hit was genuine, which is why false positives hurt.
        """
        self.stats.bloom_checks += 1
        if not table.bloom.might_contain(key):
            self.stats.bloom_negatives += 1
            return False
        position = table.key_position(key)
        # The block a real lookup would read: the key's block when
        # present, the block the key would bisect into on a false
        # positive.
        block_position = (
            position if position is not None else bisect_left(table.keys, key)
        )
        cache_key = self._block_key(table, min(block_position, len(table) - 1))
        if self.block_cache.get(cache_key) is None:
            self.stats.block_reads += 1
            yield from self.device.read(
                self.config.block_bytes * self.io_scale, sequential=False
            )
            self.block_cache.set(cache_key, self._block_value)
        if position is None:
            self.stats.bloom_false_positives += 1
            return False
        return True

    def _sorted_level_candidate(self, level: int, key: int) -> Optional[SSTable]:
        """The one run on a sorted level that could hold ``key``."""
        for table in self.levels[level]:
            if table.min_key > key:
                return None
            if key <= table.max_key:
                return table
        return None

    def get(self, key: int) -> Generator:
        """Point lookup; returns True when the key exists (generator)."""
        self.stats.gets += 1
        if self.memtable.get(key) is not None:
            self.stats.hits += 1
            return True
        for table in self.levels[0]:
            found = yield from self._consult_run(table, key)
            if found:
                self.stats.hits += 1
                return True
        for level in range(1, len(self.levels)):
            candidate = self._sorted_level_candidate(level, key)
            if candidate is None:
                continue
            found = yield from self._consult_run(candidate, key)
            if found:
                self.stats.hits += 1
                return True
        return False

    def scan(self, start_key: int, count: int) -> Generator:
        """Short range scan; returns (entries, data_bytes) (generator).

        Merges candidates newest-first across the memtable and every
        run, then charges one sequential read for the result bytes —
        the iterator-heap behavior of a real engine, with the block
        transfers aggregated into one sequential burst.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        self.stats.scans += 1
        merged = {}
        sources = [self.memtable.range_entries(start_key, count)]
        sources.extend(t.range_entries(start_key, count) for t in self.levels[0])
        for level in range(1, len(self.levels)):
            for table in self.levels[level]:
                if table.max_key < start_key:
                    continue
                sources.append(table.range_entries(start_key, count))
                break
        for source in reversed(sources):  # oldest last in, newest wins
            for key, size in source:
                merged[key] = size
        keys = sorted(merged)[:count]
        result_bytes = sum(merged[k] for k in keys)
        self.stats.scanned_entries += len(keys)
        yield from self.device.read(
            max(self.config.block_bytes, result_bytes) * self.io_scale,
            sequential=True,
        )
        return len(keys), result_bytes

    # -- write path ------------------------------------------------------------
    def put(self, key: int, value_bytes: int) -> Generator:
        """Write one record: stall check, WAL append, memtable insert."""
        self.stats.puts += 1
        while len(self.levels[0]) >= self.config.l0_stall_trigger:
            self.stats.stall_events += 1
            stalled_at = self.env.now
            yield self._stall_cleared()
            stalled = self.env.now - stalled_at
            self.stats.stall_seconds += stalled
            if self.on_stall is not None:
                self.on_stall(stalled)
        wal_bytes = value_bytes + self.config.wal_record_overhead
        yield from self.device.write(wal_bytes * self.io_scale, sequential=True)
        self.stats.wal_bytes += wal_bytes * self.io_scale
        self.memtable.put(key, value_bytes)
        if self.memtable.data_bytes >= self.config.memtable_bytes:
            self._rotate_memtable()

    def _stall_cleared(self) -> Event:
        if self._stall_event is None:
            self._stall_event = Event(self.env)
        return self._stall_event

    def _release_stalls(self) -> None:
        if (
            self._stall_event is not None
            and len(self.levels[0]) < self.config.l0_stall_trigger
        ):
            event = self._stall_event
            self._stall_event = None
            event.succeed()

    def _rotate_memtable(self) -> None:
        entries = self.memtable.sorted_entries()
        self.memtable = Memtable()
        self.env.process(self._flush(entries))

    def _flush(self, entries: List[Tuple[int, int]]) -> Generator:
        data_bytes = sum(size for _, size in entries)
        yield from self.device.write(data_bytes * self.io_scale, sequential=True)
        table = SSTable(
            self._take_table_id(),
            0,
            entries,
            bits_per_key=self.config.bloom_bits_per_key,
        )
        self.levels[0].insert(0, table)
        self.stats.flushes += 1
        self.stats.flush_write_bytes += data_bytes * self.io_scale
        self._maybe_compact()

    # -- compaction ------------------------------------------------------------
    def _pick_compaction_level(self) -> Optional[int]:
        if len(self.levels[0]) >= self.config.l0_compaction_trigger:
            return 0
        for level in range(1, self.config.max_level):
            if self.level_bytes(level) > self.config.level_target_bytes(level):
                return level
        return None

    def _maybe_compact(self) -> None:
        if self._compacting:
            return
        level = self._pick_compaction_level()
        if level is None:
            return
        self._compacting = True
        self.env.process(self._compact(level))

    def _compact(self, from_level: int) -> Generator:
        """Merge one level's pick into the next (background process)."""
        config = self.config
        to_level = from_level + 1
        if from_level == 0:
            inputs = list(self.levels[0])
        else:
            # Deterministic pick: the lowest-keyed run on the level.
            inputs = [self.levels[from_level][0]]
        key_lo = min(t.min_key for t in inputs)
        key_hi = max(t.max_key for t in inputs)
        overlapping = [
            t for t in self.levels[to_level] if t.overlaps(key_lo, key_hi)
        ]
        merge_inputs = inputs + overlapping  # newest (upper level) first
        read_bytes = sum(t.data_bytes for t in merge_inputs)
        yield from self.device.read(read_bytes * self.io_scale, sequential=True)
        if self.compaction_cpu is not None:
            yield from self.compaction_cpu(read_bytes)
        merged = merge_runs(merge_inputs)
        out_tables = split_into_tables(
            merged,
            config.table_target_bytes,
            self._take_table_id,
            to_level,
            bits_per_key=config.bloom_bits_per_key,
        )
        write_bytes = sum(t.data_bytes for t in out_tables)
        yield from self.device.write(write_bytes * self.io_scale, sequential=True)
        # Install: drop inputs, merge outputs into the target level in
        # key order.  Dead tables' cache blocks age out via LRU.
        input_ids = {t.table_id for t in inputs}
        self.levels[from_level] = [
            t for t in self.levels[from_level] if t.table_id not in input_ids
        ]
        overlap_ids = {t.table_id for t in overlapping}
        survivors = [
            t for t in self.levels[to_level] if t.table_id not in overlap_ids
        ]
        self.levels[to_level] = sorted(
            survivors + out_tables, key=lambda t: t.min_key
        )
        self.stats.compactions += 1
        self.stats.compaction_read_bytes += read_bytes * self.io_scale
        self.stats.compaction_write_bytes += write_bytes * self.io_scale
        self._compacting = False
        self._release_stalls()
        self._maybe_compact()
