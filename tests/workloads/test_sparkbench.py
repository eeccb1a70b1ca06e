"""Tests for SparkBench."""

import pytest

from repro.workloads import sparkbench
from repro.workloads.base import RunConfig
from repro.workloads.sparkbench import SparkBench


@pytest.fixture(scope="module")
def result():
    return SparkBench().run(RunConfig(sku_name="SKU2"))


class TestStages:
    def test_three_stages_reported(self, result):
        for stage in ("stage1_seconds", "stage2_seconds", "stage3_seconds"):
            assert result.latency[stage] > 0

    def test_io_stages_dominated_by_network(self, result):
        """Stages 1-2 are I/O-intensive: their combined time exceeds
        what CPU alone would need."""
        s12 = result.latency["stage1_seconds"] + result.latency["stage2_seconds"]
        assert s12 > result.latency["stage3_seconds"]

    def test_total_time_is_sum(self, result):
        total = (
            result.latency["stage1_seconds"]
            + result.latency["stage2_seconds"]
            + result.latency["stage3_seconds"]
        )
        assert result.extra["total_query_seconds"] == pytest.approx(total)

    def test_utilization_matches_paper(self, result):
        """Figure 9: SparkBench at 60-80% CPU."""
        assert 0.45 < result.cpu_util < 0.90


class TestCorrectnessLayer:
    def test_real_query_ran(self, result):
        assert result.extra["validation_groups"] > 0
        assert result.extra["validation_joined_rows"] > 0

    def test_validate_query_deterministic(self):
        bench = SparkBench()
        a = bench.validate_query(seed=5)
        b = bench.validate_query(seed=5)
        assert a.rows == b.rows


class TestScaling:
    def test_faster_network_speeds_io_stages(self):
        small = SparkBench().run(RunConfig(sku_name="SKU1"))   # 12.5 Gbps
        large = SparkBench().run(RunConfig(sku_name="SKU4"))   # 50 Gbps
        assert large.latency["stage1_seconds"] < small.latency["stage1_seconds"]

    def test_stage3_tracks_cpu_not_network(self):
        """SKU3 and SKU2 share a 25 Gbps NIC but differ in CPU."""
        sku2 = SparkBench().run(RunConfig(sku_name="SKU2"))
        sku3 = SparkBench().run(RunConfig(sku_name="SKU3"))
        assert sku3.extra["stage3_seconds"] < sku2.extra["stage3_seconds"]
        # I/O floor identical NICs: stage-1 times are comparable.
        assert sku3.latency["stage1_seconds"] == pytest.approx(
            sku2.latency["stage1_seconds"], rel=0.35
        )


class TestStorageLayer:
    def test_compression_ratio_measured(self, result):
        """The dataset's on-disk form is real encoded+compressed bytes."""
        assert result.extra["validation_compression_ratio"] > 1.3

    def test_validate_storage_deterministic(self):
        bench = SparkBench()
        assert bench.validate_storage(seed=4) == bench.validate_storage(seed=4)


class TestSharedValidationTable:
    @pytest.fixture
    def cold(self, monkeypatch):
        """Empty validation memos and a counter on fact-table generation."""
        for memo in ("_QUERY_MEMO", "_STORAGE_MEMO", "_FACT_MEMO"):
            monkeypatch.setattr(sparkbench, memo, {})
        calls = []
        schema = sparkbench.warehouse_fact_schema

        def counting_schema():
            calls.append(1)
            return schema()

        monkeypatch.setattr(sparkbench, "warehouse_fact_schema", counting_schema)
        return calls

    def test_cold_point_generates_the_fact_table_once(self, cold):
        SparkBench().run(RunConfig(sku_name="SKU2", seed=11))
        assert len(cold) == 1

    def test_validations_keep_their_values(self, cold):
        """Pinned from the per-validation generation the shared table
        replaced."""
        bench = SparkBench()
        query = bench.validate_query(seed=11)
        assert (query.scanned_rows, query.filtered_rows) == (4000, 1778)
        assert (query.joined_rows, query.groups) == (1387, 64)
        assert query.rows[0]["region"] == "7ghknog"
        assert query.rows[0]["events"] == 259
        assert bench.validate_storage(seed=11) == 1.877469951410792
        assert len(cold) == 1
