"""Draw-order contract of the batched columnar generator.

``DatasetGenerator.generate`` fills each column with a single batched
pass (:meth:`_column_values`); ``_value_for`` is the per-value
reference path it replaced.  Both must consume each column's named RNG
stream in the same per-row draw sequence — null draw first, then the
ordinal draw, then the kind draw — so the batched rewrite cannot have
changed a single generated value.  These tests pin that contract: a
reordered or hoisted draw in the batched loops shows up as a value
mismatch against the reference path.
"""

import pytest

from repro.data.generator import DatasetGenerator
from repro.data.schema import (
    Column,
    ColumnKind,
    TableSchema,
    warehouse_dim_schema,
    warehouse_fact_schema,
)

#: One column per kind, with nulls, skew, and bounded domains in the
#: mix so every branch of the batched loops is exercised.
ALL_KINDS_SCHEMA = TableSchema(
    "draworder",
    [
        Column("ident", ColumnKind.INT64),  # row-index identity
        Column("bucket", ColumnKind.INT64, distinct_values=20),
        Column("hot", ColumnKind.INT64, distinct_values=50, zipf_skew=0.9),
        Column("spend", ColumnKind.DOUBLE, null_fraction=0.1),
        Column("ratio", ColumnKind.DOUBLE, distinct_values=8),
        Column("flag", ColumnKind.BOOL, null_fraction=0.05),
        Column("at", ColumnKind.TIMESTAMP),
        Column("region", ColumnKind.STRING, distinct_values=16, zipf_skew=0.6),
        Column("note", ColumnKind.STRING, null_fraction=0.2, avg_string_len=12),
    ],
)


def reference_rows(schema, seed, num_rows):
    """Row-major generation through the reference `_value_for` path."""
    gen = DatasetGenerator(schema, seed=seed)
    columns = {col.name: [] for col in schema.columns}
    # Row-major iteration order: per-column streams make this produce
    # the same per-column draw sequence as a column-major pass.
    for row_index in range(num_rows):
        for col in schema.columns:
            columns[col.name].append(gen._value_for(col, row_index))
    return columns


@pytest.mark.parametrize(
    "schema",
    [ALL_KINDS_SCHEMA, warehouse_fact_schema(), warehouse_dim_schema()],
    ids=lambda s: s.name,
)
def test_batched_generate_matches_reference_path(schema):
    batched = DatasetGenerator(schema, seed=33).generate(400).columns
    assert batched == reference_rows(schema, 33, 400)


def test_row_major_equals_column_major_reference():
    """The contract that makes the batched rewrite safe at all: each
    column owns its stream, so interleaving columns (row-major) and
    finishing one column at a time (column-major) consume every stream
    identically."""
    gen = DatasetGenerator(ALL_KINDS_SCHEMA, seed=9)
    column_major = {
        col.name: [gen._value_for(col, i) for i in range(200)]
        for col in ALL_KINDS_SCHEMA.columns
    }
    assert column_major == reference_rows(ALL_KINDS_SCHEMA, 9, 200)


def test_string_streams_are_name_derived_not_order_derived():
    """Per-ordinal string spawns depend only on (column, ordinal): the
    same ordinal yields the same string no matter how many draws
    happened before it."""
    schema = TableSchema(
        "s", [Column("region", ColumnKind.STRING, distinct_values=4)]
    )
    a = DatasetGenerator(schema, seed=3)._string_value(
        schema.column("region"), 2
    )
    gen = DatasetGenerator(schema, seed=3)
    gen.generate(100)  # burn plenty of draws first
    assert gen._string_value(schema.column("region"), 2) == a


def test_memoized_strings_equal_the_uncached_derivation():
    """``generate`` derives each (column, ordinal) string once; every
    memoized string equals a fresh ``_string_value`` derivation."""
    gen = DatasetGenerator(warehouse_fact_schema(), seed=7)
    table = gen.generate(4000)  # SparkBench's validation fact size
    fresh = DatasetGenerator(warehouse_fact_schema(), seed=7)
    checked = 0
    for col in warehouse_fact_schema().columns:
        if col.kind != ColumnKind.STRING:
            continue
        memo = gen._strings[col.name]
        assert set(table.columns[col.name]) - {None} == set(memo.values())
        for ordinal, value in memo.items():
            assert value == fresh._string_value(col, ordinal)
            checked += 1
    assert checked > 0
