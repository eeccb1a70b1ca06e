PYTHON ?= python

.PHONY: test verify bench bench-workloads bench-sweep bench-storage bench-llm bench-shard bench-schedule profile report clean-cache

# Fast path: just the unit suite.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Full verification: every step of tools/ci.sh (unit suite, paper-figure
# gates, cross-path smokes, perfbench harness tests, perf smokes), with
# the run cache isolated in a temp directory.  See tools/ci.sh for the list.
verify:
	sh tools/ci.sh

# Engine hot-path microbenchmarks plus the end-to-end workload bench
# (see BENCH_engine.json / BENCH_workloads.json for recorded numbers).
bench:
	PYTHONPATH=src $(PYTHON) tools/bench_engine.py --quick
	PYTHONPATH=src $(PYTHON) tools/bench_workloads.py --smoke
	PYTHONPATH=src $(PYTHON) tools/bench_storage.py --smoke
	PYTHONPATH=src $(PYTHON) tools/bench_llm.py --smoke

# Full end-to-end workload wall-clock bench (writes BENCH_workloads.json).
bench-workloads:
	PYTHONPATH=src $(PYTHON) tools/bench_workloads.py

# End-to-end sweep benchmark (cold vs warm cache, serial vs pooled).
bench-sweep:
	PYTHONPATH=src $(PYTHON) tools/bench_sweep.py

# Storage-subsystem microbenchmarks (writes BENCH_storage.json).
bench-storage:
	PYTHONPATH=src $(PYTHON) tools/bench_storage.py

# LLM token-serving microbenchmarks: tokens/s and TTFT across the
# catalog mixes (writes BENCH_llm.json).
bench-llm:
	PYTHONPATH=src $(PYTHON) tools/bench_llm.py

# Intra-run shard scaling curve (writes BENCH_shard.json).
bench-shard:
	PYTHONPATH=src $(PYTHON) tools/bench_shard.py

# FIFO vs LPT+stealing makespan on an imbalanced sweep, plus the
# auto-shard plan demo (writes BENCH_schedule.json).
bench-schedule:
	PYTHONPATH=src $(PYTHON) tools/bench_schedule.py

# Reproduce the cProfile that motivated the workload-model fast path.
profile:
	PYTHONPATH=src $(PYTHON) tools/bench_workloads.py --profile taobench

report:
	PYTHONPATH=src $(PYTHON) tools/generate_report.py

clean-cache:
	PYTHONPATH=src $(PYTHON) -m repro.core.cli cache clear
