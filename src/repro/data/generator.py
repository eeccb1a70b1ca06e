"""Row/column generation from a schema.

Generates deterministic columnar data respecting each column's type,
distinct-value bound, skew, and null fraction — the dataset features
the paper says SparkBench preserves when scaling production data down.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.data.schema import Column, ColumnKind, TableSchema
from repro.sim.rng import RngStreams, ZipfSampler

_EPOCH_2026 = 1_767_225_600  # 2026-01-01 UTC


@dataclass
class GeneratedTable:
    """Columnar data: column name -> list of values (None = NULL)."""

    schema: TableSchema
    columns: Dict[str, List[Any]]

    @property
    def num_rows(self) -> int:
        first = self.schema.column_names[0]
        return len(self.columns[first])

    def row(self, index: int) -> Dict[str, Any]:
        return {name: self.columns[name][index] for name in self.schema.column_names}

    def estimated_bytes(self) -> int:
        """Approximate in-memory size (8 bytes per scalar, strings by
        length), used to scale I/O stage durations."""
        total = 0
        for col in self.schema.columns:
            values = self.columns[col.name]
            if col.kind == ColumnKind.STRING:
                total += sum(len(v) for v in values if v is not None)
            else:
                total += 8 * sum(1 for v in values if v is not None)
        return total

    def distinct_count(self, column: str) -> int:
        values = self.columns[column]
        return len({v for v in values if v is not None})


class DatasetGenerator:
    """Deterministic generator for one schema."""

    def __init__(self, schema: TableSchema, seed: int = 2025) -> None:
        self.schema = schema
        self.streams = RngStreams(seed).spawn(schema.name)
        self._zipf_cache: Dict[str, ZipfSampler] = {}
        #: column name -> ordinal -> string.  A string is a pure function
        #: of (column, ordinal) and derives two sha256-seeded streams,
        #: so each distinct ordinal is derived once per generator.
        self._strings: Dict[str, Dict[int, str]] = {}

    def _value_for(self, col: Column, row_index: int) -> Optional[Any]:
        """Reference single-value path.

        :meth:`generate` no longer calls this per value — it runs the
        batched columnar loops below — but the draw sequence per column
        is identical, which the draw-order test pins by comparing both.
        """
        rng = self.streams.stream(col.name)
        if col.null_fraction > 0 and rng.random() < col.null_fraction:
            return None
        domain = col.distinct_values
        if domain is not None and col.zipf_skew > 0:
            sampler = self._zipf_cache.get(col.name)
            if sampler is None:
                sampler = ZipfSampler(domain, col.zipf_skew)
                self._zipf_cache[col.name] = sampler
            ordinal = sampler.sample(rng) - 1
        elif domain is not None:
            ordinal = rng.randrange(domain)
        else:
            ordinal = row_index

        if col.kind == ColumnKind.INT64:
            return ordinal if domain is not None else row_index
        if col.kind == ColumnKind.DOUBLE:
            return round(rng.uniform(0.0, 1000.0), 4)
        if col.kind == ColumnKind.BOOL:
            return rng.random() < 0.5
        if col.kind == ColumnKind.TIMESTAMP:
            return _EPOCH_2026 + rng.randrange(86_400 * 30)
        if col.kind == ColumnKind.STRING:
            return self._string_value(col, ordinal)
        raise ValueError(f"unhandled column kind {col.kind}")

    def _string_value(self, col: Column, ordinal: int) -> str:
        # Deterministic per-ordinal string so distinct counts hold.
        rng = self.streams.spawn(f"strings:{col.name}:{ordinal}").stream("v")
        length = max(1, col.avg_string_len + rng.randint(-4, 4))
        alphabet = string.ascii_lowercase + string.digits
        return "".join(rng.choice(alphabet) for _ in range(length))

    def _ordinal_drawer(self, col: Column):
        """(rng -> ordinal) for one column, with the sampler hoisted."""
        domain = col.distinct_values
        if domain is not None and col.zipf_skew > 0:
            sampler = self._zipf_cache.get(col.name)
            if sampler is None:
                sampler = ZipfSampler(domain, col.zipf_skew)
                self._zipf_cache[col.name] = sampler
            return lambda rng: sampler.sample(rng) - 1
        if domain is not None:
            return lambda rng: rng.randrange(domain)
        return None

    def _column_values(self, col: Column, num_rows: int) -> List[Any]:
        """All of one column's values in a single batched pass.

        Draw-order contract: each column owns a named RNG stream, and
        every draw for a value comes from that stream (strings spawn
        per-ordinal child streams, which are derived by name, not by
        draw order) — so generating a whole column at once consumes the
        stream in exactly the per-row order :meth:`_value_for` would.
        The batched form hoists the stream lookup, the null test, the
        ordinal sampler, and the kind dispatch out of the per-value
        loop, and derives each distinct string once; the values are
        identical.
        """
        rng = self.streams.stream(col.name)
        random_ = rng.random
        null_fraction = col.null_fraction
        nullable = null_fraction > 0
        draw_ordinal = self._ordinal_drawer(col)
        domain = col.distinct_values
        kind = col.kind
        values: List[Any] = []
        append = values.append

        if kind == ColumnKind.INT64:
            for row_index in range(num_rows):
                if nullable and random_() < null_fraction:
                    append(None)
                elif domain is not None:
                    append(draw_ordinal(rng))
                else:
                    append(row_index)
        elif kind == ColumnKind.DOUBLE:
            uniform = rng.uniform
            for _ in range(num_rows):
                if nullable and random_() < null_fraction:
                    append(None)
                    continue
                if draw_ordinal is not None:
                    draw_ordinal(rng)
                append(round(uniform(0.0, 1000.0), 4))
        elif kind == ColumnKind.BOOL:
            for _ in range(num_rows):
                if nullable and random_() < null_fraction:
                    append(None)
                    continue
                if draw_ordinal is not None:
                    draw_ordinal(rng)
                append(random_() < 0.5)
        elif kind == ColumnKind.TIMESTAMP:
            randrange = rng.randrange
            for _ in range(num_rows):
                if nullable and random_() < null_fraction:
                    append(None)
                    continue
                if draw_ordinal is not None:
                    draw_ordinal(rng)
                append(_EPOCH_2026 + randrange(86_400 * 30))
        elif kind == ColumnKind.STRING:
            string_value = self._string_value
            strings = self._strings.setdefault(col.name, {})
            for row_index in range(num_rows):
                if nullable and random_() < null_fraction:
                    append(None)
                    continue
                if draw_ordinal is not None:
                    ordinal = draw_ordinal(rng)
                else:
                    ordinal = row_index
                value = strings.get(ordinal)
                if value is None:
                    value = strings[ordinal] = string_value(col, ordinal)
                append(value)
        else:
            raise ValueError(f"unhandled column kind {kind}")
        return values

    def generate(self, num_rows: int) -> GeneratedTable:
        """Generate ``num_rows`` rows of columnar data, column-major."""
        if num_rows < 0:
            raise ValueError("num_rows must be non-negative")
        columns: Dict[str, List[Any]] = {
            col.name: self._column_values(col, num_rows)
            for col in self.schema.columns
        }
        return GeneratedTable(schema=self.schema, columns=columns)
