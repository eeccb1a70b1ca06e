"""Latency recording with exact percentiles.

Collects per-request latencies and computes percentiles by sorting
(exact, not approximated — sample counts in the simulations are small
enough that a t-digest would be overkill and less testable).

An opt-in bucketed backend (``LatencyRecorder(backend="hdr")``) trades
that exactness for O(buckets) percentile reads: samples land in
log-linear HDR-style buckets, so an in-run SLO monitor can query
percentiles continuously without re-sorting the sample list.  The
exact sort-based path stays the default and is byte-for-byte unchanged.
"""

from __future__ import annotations

import bisect
import heapq
from typing import Dict, List


class BucketedHistogram:
    """Log-linear (HDR-style) histogram over non-negative seconds.

    Values are quantized to integer microseconds and counted in
    log-linear buckets: values below ``2**precision_bits`` µs get one
    bucket each (exact), and every further power-of-two magnitude is
    split into ``2**precision_bits`` equal sub-buckets.  The worst-case
    relative quantization error is therefore ``2**-(precision_bits+1)``
    (~0.4% at the default 7 bits), independent of the value's size —
    the HdrHistogram guarantee.

    Percentile reads walk the non-empty buckets (O(buckets · log
    buckets) with the sparse dict representation) instead of sorting
    the sample list, so they are cheap enough to call per-completion.
    """

    __slots__ = ("precision_bits", "_sub_count", "_counts", "_total", "_max_units")

    def __init__(self, precision_bits: int = 7) -> None:
        if not 1 <= precision_bits <= 14:
            raise ValueError("precision_bits must be in [1, 14]")
        self.precision_bits = precision_bits
        self._sub_count = 1 << precision_bits
        self._counts: Dict[int, int] = {}
        self._total = 0
        self._max_units = 0

    # -- unit/bucket mapping ---------------------------------------------------
    @staticmethod
    def _units(seconds: float) -> int:
        """Quantize to integer microseconds (half-up)."""
        return int(seconds * 1e6 + 0.5)

    def _index(self, units: int) -> int:
        """Bucket index for a microsecond count.

        ``units < sub_count`` map 1:1 (exact); above that, a value in
        magnitude ``k`` (``units in [sub<<k, sub<<(k+1))``) lands at
        ``k*sub + (units >> k)`` — contiguous, monotone, and unique.
        """
        sub = self._sub_count
        if units < sub:
            return units
        shift = units.bit_length() - self.precision_bits - 1
        return shift * sub + (units >> shift)

    def _bucket_mid_seconds(self, index: int) -> float:
        """Representative (midpoint) value of a bucket, in seconds."""
        sub = self._sub_count
        if index < sub:
            return index / 1e6
        shift = index // sub - 1
        low = (index - shift * sub) << shift
        width = 1 << shift
        return (low + (width - 1) * 0.5) / 1e6

    def _bucket_high_units(self, index: int) -> int:
        """Highest microsecond count a bucket covers (inclusive)."""
        sub = self._sub_count
        if index < sub:
            return index
        shift = index // sub - 1
        return (((index - shift * sub) + 1) << shift) - 1

    # -- recording -------------------------------------------------------------
    def record(self, seconds: float, count: int = 1) -> None:
        """Count ``seconds`` once, or ``count`` times (bucket counts add
        exactly, so one call equals ``count`` single records)."""
        units = self._units(seconds)
        index = self._index(units)
        self._counts[index] = self._counts.get(index, 0) + count
        self._total += count
        if units > self._max_units:
            self._max_units = units

    @property
    def total(self) -> int:
        return self._total

    @property
    def bucket_count(self) -> int:
        """Number of non-empty buckets (the O(buckets) in reads)."""
        return len(self._counts)

    # -- queries ---------------------------------------------------------------
    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` (bucket midpoint; max is exact)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        if self._total == 0:
            raise ValueError("no samples recorded")
        if p >= 100.0:
            return self._max_units / 1e6
        target = max(1, int(p / 100.0 * self._total + 0.5))
        cumulative = 0
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            if cumulative >= target:
                return self._bucket_mid_seconds(index)
        return self._max_units / 1e6

    def mean(self) -> float:
        if self._total == 0:
            raise ValueError("no samples recorded")
        acc = 0.0
        for index, count in self._counts.items():
            acc += self._bucket_mid_seconds(index) * count
        return acc / self._total

    def max(self) -> float:
        if self._total == 0:
            raise ValueError("no samples recorded")
        return self._max_units / 1e6

    def count_at_or_below(self, seconds: float) -> int:
        """Number of recorded values at or under ``seconds``."""
        threshold = self._units(seconds)
        within = 0
        for index, count in self._counts.items():
            if self._bucket_high_units(index) <= threshold:
                within += count
        return within

    def merge(self, other: "BucketedHistogram") -> "BucketedHistogram":
        """Fold ``other``'s counts into this histogram (bucket-wise add).

        Exact by construction: both histograms quantized their samples
        with the same bucket mapping, so adding counts per bucket gives
        precisely the histogram of the union stream.  Requires matching
        ``precision_bits`` — merging across resolutions would silently
        re-quantize one side.
        """
        if other.precision_bits != self.precision_bits:
            raise ValueError(
                "cannot merge histograms with different precision: "
                f"{self.precision_bits} vs {other.precision_bits}"
            )
        for index, count in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + count
        self._total += other._total
        if other._max_units > self._max_units:
            self._max_units = other._max_units
        return self

    def clear(self) -> None:
        self._counts.clear()
        self._total = 0
        self._max_units = 0


class LatencyRecorder:
    """Accumulates latencies (seconds) and answers percentile queries.

    ``backend="exact"`` (the default) keeps every sample and sorts on
    demand — exact percentiles.  ``backend="hdr"`` counts samples into
    a :class:`BucketedHistogram` — percentiles are accurate to the
    bucket resolution (~0.4%) but reads cost O(buckets) instead of
    O(n log n), which is what continuous in-run tracking (e.g. the
    StorageBench stall monitor) needs.
    """

    def __init__(self, backend: str = "exact") -> None:
        if backend not in ("exact", "hdr"):
            raise ValueError(f"unknown recorder backend {backend!r}")
        self.backend = backend
        self._samples: List[float] = []
        self._sorted = True
        self._hist = BucketedHistogram() if backend == "hdr" else None
        self.errors = 0

    def __len__(self) -> int:
        if self._hist is not None:
            return self._hist.total
        return len(self._samples)

    def record(self, latency_seconds: float) -> None:
        if latency_seconds < 0:
            raise ValueError("latency must be non-negative")
        if self._hist is not None:
            self._hist.record(latency_seconds)
            return
        self._samples.append(latency_seconds)
        self._sorted = False

    def record_run(self, latency_seconds: float, count: int) -> None:
        """Record ``count`` equal latencies, as ``count`` :meth:`record`
        calls would (exact-backend samples keep their order)."""
        if latency_seconds < 0:
            raise ValueError("latency must be non-negative")
        if self._hist is not None:
            self._hist.record(latency_seconds, count)
            return
        self._samples.extend([latency_seconds] * count)
        self._sorted = False

    def record_error(self) -> None:
        """Count a failed request (timeouts, 5xx) without a latency."""
        self.errors += 1

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    def percentile(self, p: float) -> float:
        """Exact percentile via linear interpolation; p in [0, 100]."""
        if self._hist is not None:
            return self._hist.percentile(p)
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        if not self._samples:
            raise ValueError("no samples recorded")
        self._ensure_sorted()
        if len(self._samples) == 1:
            return self._samples[0]
        rank = p / 100.0 * (len(self._samples) - 1)
        lower = int(rank)
        upper = min(lower + 1, len(self._samples) - 1)
        weight = rank - lower
        return self._samples[lower] * (1.0 - weight) + self._samples[upper] * weight

    def mean(self) -> float:
        if self._hist is not None:
            return self._hist.mean()
        if not self._samples:
            raise ValueError("no samples recorded")
        return sum(self._samples) / len(self._samples)

    def max(self) -> float:
        if self._hist is not None:
            return self._hist.max()
        if not self._samples:
            raise ValueError("no samples recorded")
        self._ensure_sorted()
        return self._samples[-1]

    def fraction_below(self, threshold_seconds: float) -> float:
        """Fraction of successful requests at or under the threshold.

        This is SLO compliance when the threshold is the latency
        objective; errors count as misses (the denominator includes
        them) because a failed request never met its SLO.
        """
        total = len(self) + self.errors
        if total == 0:
            return 1.0
        if self._hist is not None:
            return self._hist.count_at_or_below(threshold_seconds) / total
        self._ensure_sorted()
        within = bisect.bisect_right(self._samples, threshold_seconds)
        return within / total

    def error_rate(self) -> float:
        total = len(self) + self.errors
        if total == 0:
            return 0.0
        return self.errors / total

    def summary(self) -> Dict[str, float]:
        """The latency distribution DCPerf reports per benchmark."""
        if len(self) == 0:
            return {"count": 0, "errors": self.errors}
        return {
            "count": len(self),
            "errors": self.errors,
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max(),
        }

    def snapshot(self) -> Dict[str, float]:
        """A total version of :meth:`summary`: never raises.

        A blackout scenario at a tight deadline can finish a window
        with *only* errors; callers that want the full latency-field
        shape regardless (dashboards, report diffing) get explicit
        zero latencies with ``errors`` populated instead of a
        ``ValueError`` from the percentile math.
        """
        if len(self) == 0:
            return {
                "count": 0,
                "errors": self.errors,
                "mean": 0.0,
                "p50": 0.0,
                "p90": 0.0,
                "p95": 0.0,
                "p99": 0.0,
                "max": 0.0,
            }
        return self.summary()

    def merge(self, other: "LatencyRecorder") -> "LatencyRecorder":
        """Fold ``other`` into this recorder.

        The merged recorder answers every query exactly as if it had
        recorded the union of both sample streams (plus both error
        counts).  On the exact backend the two already-sorted sample
        lists are merged in O(n + m) — no re-sort; on the HDR backend
        bucket counts add (:meth:`BucketedHistogram.merge`).  Backends
        must match: a bucketed side cannot give its samples back.
        """
        if other.backend != self.backend:
            raise ValueError(
                "cannot merge recorders with different backends: "
                f"{self.backend!r} vs {other.backend!r}"
            )
        if self._hist is not None:
            assert other._hist is not None
            self._hist.merge(other._hist)
        else:
            self._ensure_sorted()
            other._ensure_sorted()
            self._samples = list(heapq.merge(self._samples, other._samples))
            self._sorted = True
        self.errors += other.errors
        return self

    def mergeable_state(self) -> Dict[str, object]:
        """Codec-safe full state for cross-process shard merging.

        The returned tree contains only JSON/binary-codec primitives
        (ints, floats, strings, lists, dicts), round-trips losslessly
        through both codecs, and reconstructs via :meth:`from_state`.
        Exact backends ship their (sorted) samples; HDR backends ship
        sparse bucket counts in ascending bucket order — canonical, so
        two transports of the same recorder are byte-identical.
        """
        if self._hist is not None:
            hist = self._hist
            return {
                "backend": "hdr",
                "errors": self.errors,
                "precision_bits": hist.precision_bits,
                "buckets": [
                    [index, hist._counts[index]] for index in sorted(hist._counts)
                ],
                "total": hist._total,
                "max_units": hist._max_units,
            }
        self._ensure_sorted()
        return {
            "backend": "exact",
            "errors": self.errors,
            "samples": list(self._samples),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "LatencyRecorder":
        """Reconstruct a recorder from :meth:`mergeable_state` output."""
        backend = str(state["backend"])
        recorder = cls(backend=backend)
        recorder.errors = int(state["errors"])  # type: ignore[arg-type]
        if backend == "hdr":
            hist = BucketedHistogram(precision_bits=int(state["precision_bits"]))  # type: ignore[arg-type]
            for index, count in state["buckets"]:  # type: ignore[union-attr]
                hist._counts[int(index)] = int(count)
            hist._total = int(state["total"])  # type: ignore[arg-type]
            hist._max_units = int(state["max_units"])  # type: ignore[arg-type]
            recorder._hist = hist
        else:
            recorder._samples = [float(s) for s in state["samples"]]  # type: ignore[union-attr]
            recorder._sorted = True  # states are canonical: sorted
        return recorder

    def reset(self) -> None:
        if self._hist is not None:
            self._hist.clear()
        self._samples.clear()
        self._sorted = True
        self.errors = 0
