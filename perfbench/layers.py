"""Per-layer accounting for one benchmark repetition.

Everything here wraps the program from outside: nothing under ``src/``
carries a hook for it.

* :class:`EventCounter` counts engine events by wrapping
  ``BenchmarkHarness.__init__`` and reading each environment's event
  sequence number once its point has finished.  It is cheap (one wrapper
  call per harness), so untraced repetitions use it for
  ``events_per_s``.
* :class:`Tracer` is the traced run only: cProfile self time grouped
  by ``repro.<package>``, wall-time spans around the coarse public calls
  ``ProjectionEngine.solve`` and ``HookRegistry.run_after``.
* :class:`LedgerSeconds` sums the per-point seconds a pooled sweep
  records into ``CostLedger.record``, for the pool's idle share.

The wrappers are installed only around in-process work: pool workers
forked while they are in place would inherit them.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from typing import Callable, Dict, List, Tuple

#: The ``repro`` packages reported as layers.  Self time anywhere else
#: (the standard library, builtins such as heapq/random, this benchmark)
#: is reported as ``other``.
PACKAGES = (
    "cachelib",
    "core",
    "data",
    "dctax",
    "exec",
    "faults",
    "hw",
    "llm",
    "loadgen",
    "media",
    "oskernel",
    "rpc",
    "sim",
    "storage",
    "uarch",
    "workloads",
)

_REPRO_DIR = os.sep + "repro" + os.sep


def package_of(filename: str) -> str:
    """The ``repro`` package a code object's file belongs to, or 'other'."""
    head, sep, tail = filename.rpartition(_REPRO_DIR)
    if not sep:
        return "other"
    package = tail.split(os.sep, 1)[0]
    return package if package in PACKAGES else "other"


class EventCounter:
    """Engine events scheduled by every harness created while active."""

    def __init__(self) -> None:
        self.events = 0
        self.environments = 0
        self._pending: List[object] = []
        self._orig_init = None

    def __enter__(self) -> "EventCounter":
        from repro.workloads.runner import BenchmarkHarness

        self._orig_init = orig = BenchmarkHarness.__init__
        pending = self._pending

        def counted_init(harness, *args, **kwargs):
            orig(harness, *args, **kwargs)
            pending.append(harness.env)

        BenchmarkHarness.__init__ = counted_init
        return self

    def __exit__(self, *exc) -> None:
        from repro.workloads.runner import BenchmarkHarness

        BenchmarkHarness.__init__ = self._orig_init
        self.collect()

    def collect(self) -> None:
        """Fold finished environments into the totals and drop them.

        Called after each point, so no environment outlives its point
        and memory use is what it would be without the counter.
        """
        self.environments += len(self._pending)
        # Every scheduled event takes one sequence number.
        self.events += sum(env._seq for env in self._pending)
        self._pending.clear()


class _Span:
    """Accumulated wall time and call count of one wrapped method."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0


class LedgerSeconds:
    """Sum of the per-point seconds a sweep records into its cost ledger."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._orig = None

    def __enter__(self) -> "LedgerSeconds":
        from repro.exec.schedule import CostLedger

        self._orig = orig = CostLedger.record
        total = self

        def record(ledger, fingerprint, point, seconds):
            total.seconds += seconds
            return orig(ledger, fingerprint, point, seconds)

        CostLedger.record = record
        return self

    def __exit__(self, *exc) -> None:
        from repro.exec.schedule import CostLedger

        CostLedger.record = self._orig


class Tracer:
    """cProfile plus wall-time spans around coarse public calls."""

    def __init__(self) -> None:
        from repro.core.hooks import HookRegistry
        from repro.uarch.projection import ProjectionEngine

        self.profile = cProfile.Profile()
        self.spans: Dict[str, _Span] = {}
        self._targets: List[Tuple[type, str, str]] = [
            (ProjectionEngine, "solve", "uarch.solve"),
            (HookRegistry, "run_after", "core.hooks"),
        ]
        self._saved: List[Tuple[type, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        for cls, attr, name in self._targets:
            orig = getattr(cls, attr)
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, self._span_wrapper(name, orig))
        return self

    def __exit__(self, *exc) -> None:
        self.profile.disable()
        for cls, attr, orig in reversed(self._saved):
            setattr(cls, attr, orig)
        self._saved.clear()

    def _span_wrapper(self, name: str, orig: Callable) -> Callable:
        span = self.spans.setdefault(name, _Span())
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            start = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                span.seconds += clock() - start
                span.calls += 1

        return spanned

    def span(self, name: str) -> _Span:
        return self.spans.setdefault(name, _Span())

    def self_times(self) -> Dict[str, float]:
        """cProfile seconds: ``<layer>.self_s`` plus the exec sub-layers.

        ``exec.codec_s`` is self time inside ``repro/exec/serialize.py``;
        ``exec.cache.get_s``/``put_s`` are the cumulative seconds of
        ``RunCache.get``/``put``, file I/O and JSON included.
        """
        stats = pstats.Stats(self.profile).stats
        out = {f"{name}.self_s": 0.0 for name in PACKAGES + ("other",)}
        out.update({"exec.codec_s": 0.0, "exec.cache.get_s": 0.0, "exec.cache.put_s": 0.0})
        cache_file = os.path.join("repro", "exec", "cache.py")
        codec_file = os.path.join("repro", "exec", "serialize.py")
        for (filename, _line, func), (_cc, _nc, tottime, cumtime, _callers) in stats.items():
            out[f"{package_of(filename)}.self_s"] += tottime
            if filename.endswith(codec_file):
                out["exec.codec_s"] += tottime
            elif filename.endswith(cache_file) and func in ("get", "put"):
                out[f"exec.cache.{func}_s"] += cumtime
        return out
