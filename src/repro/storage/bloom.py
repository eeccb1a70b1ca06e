"""Deterministic bloom filter for SSTable point-lookup gating.

RocksDB attaches a bloom filter to every SSTable so point lookups skip
tables that cannot contain the key — the difference between one random
read per lookup and one per *level*.  This implementation follows the
classic Kirsch–Mitzenmacher construction (k indices derived from two
base hashes), with both hashes computed by :func:`zlib.crc32` over
salted encodings of the key.  Built-in ``hash()`` is banned here: it is
salted per process (``PYTHONHASHSEED``), and the simulator's reports —
including which lookups pay a false-positive device read — must be
byte-identical across processes and machines.
"""

from __future__ import annotations

import zlib
from collections import deque
from itertools import repeat
from operator import add, mod
from typing import Iterable, Union

Key = Union[int, str, bytes]

#: CRC state after the second hash's salt prefix: ``crc32(data,
#: _SALT_CRC)`` equals ``crc32(b"bloom-salt:" + data)`` without the
#: concatenation.
_SALT_CRC = zlib.crc32(b"bloom-salt:")
#: ASCII ``"1"``: a set bit in :meth:`BloomFilter.add_all`'s flag buffer.
_FLAG = 0x31


def _key_bytes(key: Key) -> bytes:
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    return key.to_bytes(8, "big", signed=True)


class BloomFilter:
    """Fixed-size bloom filter sized for an expected key count.

    ``bits_per_key=10`` gives the RocksDB-default ~1% false-positive
    rate at ``k = round(0.69 * bits_per_key)`` hash functions.
    :meth:`add_all` fills the filter from a whole key list in one bulk
    pass and sets exactly the bits per-key :meth:`add` would.
    """

    __slots__ = ("num_bits", "num_hashes", "_bits", "keys_added")

    def __init__(self, expected_keys: int, bits_per_key: int = 10) -> None:
        if expected_keys < 1:
            raise ValueError("expected_keys must be >= 1")
        if bits_per_key < 1:
            raise ValueError("bits_per_key must be >= 1")
        self.num_bits = max(64, expected_keys * bits_per_key)
        self.num_hashes = max(1, round(0.69 * bits_per_key))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self.keys_added = 0

    def _base_hashes(self, key: Key) -> "tuple[int, int]":
        data = _key_bytes(key)
        h1 = zlib.crc32(data)
        # Second independent hash: same CRC over a salted prefix; the
        # OR 1 keeps the stride odd so indices never collapse onto h1.
        h2 = zlib.crc32(data, _SALT_CRC) | 1
        return h1, h2

    def add(self, key: Key) -> None:
        h1, h2 = self._base_hashes(key)
        bits = self._bits
        num_bits = self.num_bits
        for i in range(self.num_hashes):
            index = (h1 + i * h2) % num_bits
            bits[index >> 3] |= 1 << (index & 7)
        self.keys_added += 1

    def add_all(self, keys: Iterable[Key]) -> None:
        """Add every key; bits and ``keys_added`` equal per-key :meth:`add`.

        Each hash round advances all keys' probe indices with C-level
        ``map`` passes and marks them in a one-byte-per-bit ASCII flag
        buffer; a single base-2 ``int`` parse then packs the flags into
        the bit array (bit ``i`` lives in byte ``i >> 3``, position
        ``i & 7``: the little-endian bit order of the packed int).
        """
        data = [_key_bytes(key) for key in keys]
        if not data:
            return
        num_bits = self.num_bits
        probes = list(map(zlib.crc32, data))
        strides = [h | 1 for h in map(zlib.crc32, data, repeat(_SALT_CRC))]
        flags = bytearray(b"0") * num_bits
        mark = flags.__setitem__
        for i in range(self.num_hashes):
            if i:
                probes = list(map(add, probes, strides))
            deque(
                map(mark, map(mod, probes, repeat(num_bits)), repeat(_FLAG)),
                maxlen=0,
            )
        flags.reverse()  # int() reads the most significant bit first
        packed = int(flags, 2) | int.from_bytes(self._bits, "little")
        self._bits[:] = packed.to_bytes(len(self._bits), "little")
        self.keys_added += len(data)

    def might_contain(self, key: Key) -> bool:
        h1, h2 = self._base_hashes(key)
        bits = self._bits
        num_bits = self.num_bits
        for i in range(self.num_hashes):
            index = (h1 + i * h2) % num_bits
            if not bits[index >> 3] & (1 << (index & 7)):
                return False
        return True

    @property
    def fill_fraction(self) -> float:
        """Fraction of bits set (false-positive rate is roughly
        ``fill_fraction ** num_hashes``)."""
        set_bits = sum(bin(b).count("1") for b in self._bits)
        return set_bits / self.num_bits
