"""SparkBench: the data-warehouse query benchmark.

Architecture (Section 3.2): a synthetic >100GB dataset on a RAID of
remote NVMe SSDs reached over NVMe-over-TCP; Spark executes a SQL
query that scans the full dataset, joins and compares, and writes
results to a new table.  Execution has three stages — the first two
load data (I/O-intensive), the third computes (CPU-intensive).  Total
time reflects end-to-end warehouse performance; stage-3 time isolates
CPU performance.

The model runs both layers of that description:

* **Correctness layer** — a scaled-down dataset is actually generated
  (:mod:`repro.data`) and the actual query runs on the mini engine
  (:mod:`repro.data.query`), so filters/joins/aggregates are real.
* **Performance layer** — the discrete-event simulation executes the
  three stages with one task per partition: stages 1-2 stream bytes
  over NVMe-over-TCP at the SKU's network bandwidth, stage 3 burns
  per-task instruction budgets on the cores.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.data.generator import DatasetGenerator, GeneratedTable
from repro.data.query import run_warehouse_query
from repro.data.schema import warehouse_dim_schema, warehouse_fact_schema
from repro.uarch.characteristics import WorkloadCharacteristics
from repro.workloads.base import RunConfig, Workload, WorkloadResult
from repro.workloads.profiles import BENCHMARK_PROFILES
from repro.workloads.runner import BenchmarkHarness

#: Production-scale dataset the simulation layer models (bytes).
MODELED_DATASET_BYTES = 120e9
#: Correctness-layer dataset (rows actually generated and queried).
VALIDATION_FACT_ROWS = 4_000
VALIDATION_DIM_ROWS = 400
#: Stage structure: fraction of bytes moved per I/O stage and
#: per-task instruction multipliers per stage.  Stages 1-2 are
#: I/O-heavy but still burn CPU on decompression/deserialization; the
#: paper notes they are I/O-intensive while stage 3 is
#: computation-intensive.
STAGE1_BYTES_FRACTION = 0.60
STAGE2_BYTES_FRACTION = 0.40
STAGE1_INSTR_MULT = 1.55
STAGE2_INSTR_MULT = 1.05
STAGE3_INSTR_MULT = 1.00
#: Remote-SSD streams: NVMe-over-TCP connections per host; aggregate
#: storage traffic is bounded by the NIC share below.
IO_STREAMS = 16
#: Fraction of NIC bandwidth available to storage traffic.
STORAGE_NET_FRACTION = 0.80
#: Partitions (tasks) per logical core, Spark's default sizing.
TASKS_PER_CORE = 2

#: Per-process memo of the correctness layer: validation is a pure
#: function of the seed (datasets are regenerated from it), and
#: persistent warm-pool workers replay the same seeds sweep after
#: sweep.  Results are treated as read-only by every consumer.
_QUERY_MEMO: dict = {}
_STORAGE_MEMO: dict = {}
_MEMO_MAX = 64
#: The seed's validation fact table, generated once and shared by
#: ``validate_query`` and ``validate_storage`` (both only read it).
#: Kept small: the two consumers run back to back for one seed, and a
#: table is far larger than the results memoized above.
_FACT_MEMO: dict = {}
_FACT_MEMO_MAX = 2
#: The result-table write runs on a fixed reducer count (output
#: partitioning is dataset-defined, not machine-defined), which caps
#: how much of stage 3 benefits from extra cores.
WRITE_REDUCERS = 32
WRITE_INSTR_SHARE = 0.30


def _validation_fact(seed: int) -> GeneratedTable:
    """The seed's validation fact table (memoized; read-only)."""
    fact = _FACT_MEMO.get(seed)
    if fact is None:
        fact = DatasetGenerator(warehouse_fact_schema(), seed=seed).generate(
            VALIDATION_FACT_ROWS
        )
        if len(_FACT_MEMO) >= _FACT_MEMO_MAX:
            _FACT_MEMO.clear()
        _FACT_MEMO[seed] = fact
    return fact


class SparkBench(Workload):
    """Three-stage warehouse query on simulated remote NVMe."""

    name = "sparkbench"
    category = "bigdata"
    metric_name = "dataset GB/s (end-to-end query)"

    def __init__(self, chars: Optional[WorkloadCharacteristics] = None) -> None:
        self._chars = chars or BENCHMARK_PROFILES["sparkbench"]

    @property
    def characteristics(self) -> WorkloadCharacteristics:
        return self._chars

    def validate_query(self, seed: int = 2025):
        """Run the real query on a generated dataset (correctness layer)."""
        result = _QUERY_MEMO.get(seed)
        if result is None:
            fact = _validation_fact(seed)
            dim = DatasetGenerator(
                warehouse_dim_schema(), seed=seed + 1
            ).generate(VALIDATION_DIM_ROWS)
            result = run_warehouse_query(fact, dim)
            if len(_QUERY_MEMO) >= _MEMO_MAX:
                _QUERY_MEMO.clear()
            _QUERY_MEMO[seed] = result
        return result

    def validate_storage(self, seed: int = 2025) -> float:
        """Column-encode + compress the validation table (real bytes);
        returns the measured table compression ratio."""
        from repro.data.columnar import store_table, table_compression_ratio

        ratio = _STORAGE_MEMO.get(seed)
        if ratio is None:
            ratio = table_compression_ratio(store_table(_validation_fact(seed)))
            if len(_STORAGE_MEMO) >= _MEMO_MAX:
                _STORAGE_MEMO.clear()
            _STORAGE_MEMO[seed] = ratio
        return ratio

    def run(self, config: RunConfig) -> WorkloadResult:
        harness = BenchmarkHarness(config, self._chars)
        env = harness.env
        sku = config.sku
        cores = sku.cpu.logical_cores
        num_tasks = cores * TASKS_PER_CORE

        # I/O bandwidth: NVMe-over-TCP bounded by the NIC.
        storage_gbps = sku.network_gbps * STORAGE_NET_FRACTION
        storage_bytes_per_s = storage_gbps * 1e9 / 8.0

        # Total compute is fixed by the dataset: instructions_per_request
        # is the per-task budget at the reference partitioning (SKU2's
        # 104 tasks); other SKUs split the same total across their own
        # task count.
        REFERENCE_TASKS = 104
        instr_per_task = (
            self._chars.instructions_per_request * REFERENCE_TASKS / num_tasks
        )
        stage_times = {}
        # NVMe-over-TCP streams: a counted resource so aggregate storage
        # traffic never exceeds the NIC share.
        from repro.sim.resources import Resource

        io_streams = Resource(env, capacity=IO_STREAMS)
        per_stream_rate = storage_bytes_per_s / IO_STREAMS

        def io_stage(name: str, stage_bytes: float, instr_mult: float):
            """One I/O stage: tasks stream partition bytes, then burn
            CPU on decompression/deserialization (overlapped across
            tasks)."""
            per_task_bytes = stage_bytes / num_tasks

            def task() -> Generator:
                stream = io_streams.request()
                yield stream
                try:
                    yield env.sleep(per_task_bytes / per_stream_rate)
                finally:
                    io_streams.release(stream)
                yield from harness.burst(instr_per_task * instr_mult)

            start = env.now
            done_events = [pool.submit(task) for _ in range(num_tasks)]
            for event in done_events:
                yield event
            stage_times[name] = env.now - start

        def cpu_stage(name: str):
            """Stage 3: parallel aggregation, then the result write on
            a fixed number of reducers."""
            agg_instr = instr_per_task * STAGE3_INSTR_MULT * (1.0 - WRITE_INSTR_SHARE)
            total_write_instr = (
                instr_per_task * STAGE3_INSTR_MULT * WRITE_INSTR_SHARE * num_tasks
            )
            write_instr_per_reducer = total_write_instr / WRITE_REDUCERS

            def agg_task() -> Generator:
                yield from harness.burst(agg_instr)

            def write_task() -> Generator:
                yield from harness.burst(write_instr_per_reducer)

            start = env.now
            done_events = [pool.submit(agg_task) for _ in range(num_tasks)]
            for event in done_events:
                yield event
            write_events = [pool.submit(write_task) for _ in range(WRITE_REDUCERS)]
            for event in write_events:
                yield event
            stage_times[name] = env.now - start

        # Spark executors: one concurrent task per logical core.
        pool = harness.make_pool("executors", cores)

        def driver() -> Generator:
            yield from io_stage(
                "stage1", MODELED_DATASET_BYTES * STAGE1_BYTES_FRACTION,
                STAGE1_INSTR_MULT,
            )
            yield from io_stage(
                "stage2", MODELED_DATASET_BYTES * STAGE2_BYTES_FRACTION,
                STAGE2_INSTR_MULT,
            )
            yield from cpu_stage("stage3")

        done = env.process(driver())
        env.run()
        assert done.processed or done.triggered

        total_time = sum(stage_times.values())
        stats = harness.scheduler.stats
        cpu_util = stats.busy_seconds / max(1e-9, total_time * cores)
        kernel_util = (stats.kernel_seconds + stats.overhead_seconds) / max(
            1e-9, total_time * cores
        )
        busy = max(stats.busy_seconds, 1e-12)
        efficiency = max(0.05, 1.0 - stats.overhead_seconds / busy)
        throughput = MODELED_DATASET_BYTES / total_time / 1e9  # GB/s
        steady = harness.server.steady_state(min(1.0, cpu_util), efficiency)

        validation = self.validate_query(config.seed)
        return WorkloadResult(
            workload=self._chars.name,
            sku=sku.name,
            kernel=config.kernel_version,
            throughput_rps=throughput,
            latency={
                "count": float(num_tasks * 3),
                "total_query_seconds": total_time,
                "stage1_seconds": stage_times["stage1"],
                "stage2_seconds": stage_times["stage2"],
                "stage3_seconds": stage_times["stage3"],
            },
            cpu_util=min(1.0, cpu_util),
            kernel_util=min(1.0, kernel_util),
            scaling_efficiency=efficiency,
            steady=steady,
            extra={
                "stage3_seconds": stage_times["stage3"],
                "total_query_seconds": total_time,
                "validation_groups": float(validation.groups),
                "validation_joined_rows": float(validation.joined_rows),
                "validation_compression_ratio": self.validate_storage(config.seed),
            },
        )
