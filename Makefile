# Convenience targets for the LogCL reproduction.

.PHONY: install test test-fast bench bench-table3 serve-bench \
	serve-daemon-bench serve-replica-bench eval-bench history-bench \
	train-telemetry-bench data-bench \
	anomaly-bench perf-record perf-compare profile-train profile-eval \
	profile-serve \
	trace-demo experiments clean-cache docs-test lint lint-private \
	lint-docstrings \
	lint-dtype docs-linkcheck

OUT ?= perf_runs.json
EPOCHS ?= 3
PASSES ?= 10

install:
	pip install -e .

test:  ## tier-1 suite (includes tests/docs — every doc snippet executes)
	pytest tests/

test-fast:  ## quick signal: nn + serving units and the examples smoke test
	pytest tests/nn tests/serving tests/integration/test_examples.py

bench:  ## regenerate every paper table/figure (cached under benchmarks/.cache)
	pytest benchmarks/ --benchmark-only -s

bench-table3:
	pytest benchmarks/test_table3_main_results.py --benchmark-only -s

serve-bench:  ## serving latency: cached incremental inference vs cold recompute
	pytest benchmarks/test_serving_latency.py --benchmark-only -s

serve-daemon-bench:  ## daemon under 8 open-loop clients: QPS, p50/p99, shedding
	pytest benchmarks/test_serving_daemon.py --benchmark-only -s

serve-replica-bench:  ## replica-set router at 1/2/4 replicas: QPS, p50/p99, shared-store proof
	pytest benchmarks/test_serving_replicas.py --benchmark-only -s

eval-bench:  ## filtered-ranking throughput: batched kernel vs a per-query loop
	pytest benchmarks/test_eval_throughput.py --benchmark-only -s

history-bench:  ## history layer: subgraph-cache hit rate + epoch-rewind speedup
	pytest benchmarks/test_history_cache.py --benchmark-only -s

train-telemetry-bench:  ## telemetry overhead (<5%) and span coverage (>=95%)
	pytest benchmarks/test_train_telemetry.py --benchmark-only -s

data-bench:  ## store-file capacity: ingest facts/s, bytes/fact, eval QPS
	pytest benchmarks/test_data_capacity.py --benchmark-only -s

anomaly-bench:  ## calibrated score op as anomaly detector: ROC-AUC >= 0.85
	pytest benchmarks/test_anomaly_roc.py --benchmark-only -s

perf-record:  ## repository benchmark (BENCHMARK.json), appending run records to $(OUT)
	python3 benchmarks/perf/run.py --json $(OUT) $(ARGS)

perf-compare:  ## verdict per workload x metric: make perf-compare PARENT=a.json CHANGE=b.json
	python3 benchmarks/perf/compare.py $(PARENT) $(CHANGE)

profile-train:  ## cProfile of $(EPOCHS) warm LogCL epochs (icews14_like, dim 32), top functions by self time
	PYTHONPATH=src python tools/profile_train.py --epochs $(EPOCHS)

profile-eval:  ## $(PASSES) cold eval-gdelt-shape passes: median ms and page faults per pass, per-stage split, top functions by self time
	PYTHONPATH=src python tools/profile_eval.py --passes $(PASSES)

profile-serve:  ## in-process serve-stream replay: median ms per op, VmHWM and heap after each advance, top retained allocation sites
	PYTHONPATH=src python tools/profile_serve.py

docs-test:  ## executable docs: every fenced python block + every example script
	PYTHONPATH=src python tools/run_doc_snippets.py
	PYTHONPATH=src python examples/quickstart.py --epochs 1 --dim 16
	PYTHONPATH=src python examples/dataset_analysis.py
	PYTHONPATH=src python examples/custom_dataset.py --epochs 1
	PYTHONPATH=src python examples/attention_inspection.py --epochs 1
	PYTHONPATH=src python examples/event_forecasting.py --epochs 1 --num-queries 2
	PYTHONPATH=src python examples/noise_robustness.py --epochs 1 --sigmas 0 0.5
	PYTHONPATH=src python examples/online_learning.py --epochs 1 --models regcn logcl

trace-demo:  ## train two quick epochs with --trace and show the JSONL events
	PYTHONPATH=src python -m repro train --model logcl --dataset tiny \
		--dim 16 --epochs 2 --eval-every 1 --quiet \
		--trace trace_demo.jsonl
	@echo "--- first trace events ---"
	@head -n 8 trace_demo.jsonl
	@echo "... ($$(wc -l < trace_demo.jsonl) events in trace_demo.jsonl)"

experiments:  ## rebuild EXPERIMENTS.md from benchmarks/results/
	python benchmarks/aggregate_results.py

clean-cache:  ## force full retraining of all benchmark models
	rm -rf benchmarks/.cache benchmarks/results

lint: lint-private lint-docstrings lint-dtype docs-linkcheck
	python -m pyflakes src/repro || true

docs-linkcheck:  ## no dead relative links in README.md / docs/*.md
	python tools/check_links.py

lint-dtype:  ## float32 policy: wide floats only via repro/nn/dtypes.py
	@! grep -rnE 'np\.float64|astype\(float\)' \
		src/repro/nn src/repro/graph src/repro/core \
		--include='*.py' \
		| grep -v 'src/repro/nn/dtypes.py' \
		|| { echo 'hard-coded wide float in the numeric core (use'\
		' repro.nn.dtypes.default_float / WIDE_FLOAT so the dtype'\
		' policy stays in one place)'; \
		exit 1; }

lint-docstrings:  ## every public def/class in data, history, serving, obs documented
	python tools/check_docstrings.py

lint-private:  ## no reaching into GlobalHistoryIndex, filter or cache internals from outside
	@! grep -rnE '\._(facts|buffer|cursor|base|tail|base_size|tail_size|base_csr|tail_csr)\b' \
		src tests benchmarks examples \
		--include='*.py' \
		--exclude=subgraph.py \
		--exclude=test_subgraph_csr.py \
		| grep -v 'self\._' \
		|| { echo 'private GlobalHistoryIndex attribute accessed outside'\
		' repro/core/subgraph.py (use facts_since / the public API)'; \
		exit 1; }
	@! grep -rnE 'self\._(subgraph_cache|context_cache|snap_by_time|snap_times|snapshots)\s*[:=][^=]' \
		src tests benchmarks examples \
		--include='*.py' \
		| grep -v 'src/repro/history/' \
		|| { echo 'private snapshot/subgraph cache declared outside'\
		' repro/history (use HistoryStore / ContextCache)'; \
		exit 1; }
	@! grep -rnE '\._(runs|mask_memo)\b|_ObjectRuns|_MaskMemo' \
		src tests benchmarks examples \
		--include='*.py' \
		--exclude=filtering.py \
		--exclude=test_filter_columnar.py \
		|| { echo 'private filter storage accessed outside'\
		' repro/tkg/filtering.py (use true_objects /'\
		' mask_indices_for_batch)'; \
		exit 1; }
	@! grep -rnE '(np|numpy)\.memmap\(' \
		src tests benchmarks examples \
		--include='*.py' \
		| grep -v 'src/repro/data/storefile.py' \
		|| { echo 'raw np.memmap constructed outside'\
		' repro/data/storefile.py (use repro.data.open_store /'\
		' map_columns so headers are validated)'; \
		exit 1; }
	@! grep -rnE '\._engine\b' \
		src tests benchmarks examples \
		--include='*.py' \
		| grep -v 'src/repro/serving/daemon.py' \
		| grep -v 'src/repro/serving/replica.py' \
		| grep -v 'self\._engine' \
		|| { echo 'daemon-owned engine accessed outside its serialized'\
		' executor (pass a callable to EngineExecutor.run so every'\
		' engine touch stays on the single worker thread; replicas own'\
		' theirs inside repro/serving/replica.py)'; \
		exit 1; }
	@! grep -rnE '\._(read_state|delta)\b' \
		src tests benchmarks examples \
		--include='*.py' \
		| grep -v 'src/repro/serving/engine.py' \
		| grep -v 'self\._' \
		|| { echo 'engine read/write-split internals accessed outside'\
		' repro/serving/engine.py (use engine.read_state() for the'\
		' shareable half and the public advance/restore surface for'\
		' the mutable half)'; \
		exit 1; }
