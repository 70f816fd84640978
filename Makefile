# Convenience targets; see README.md for details.

.PHONY: install test bench bench-gate bench-serve bench-paper paper-check \
	experiments examples serve-smoke all

# Open-loop load profile for bench-serve (docs/serving.md).
SERVE_RATE ?= 2
SERVE_DURATION ?= 30

# Dataset preset for the pipeline bench (tiny keeps CI smoke fast).
BENCH_PRESET ?= small

install:
	pip install -e .

test:
	pytest tests/

# Time the pipeline stages per system and (re)write BENCH_pipeline.json —
# the repo's perf-trajectory baseline.  See DESIGN.md for the schema.
bench:
	PYTHONPATH=src python -m repro bench --preset $(BENCH_PRESET) \
		--repeats 3 --out BENCH_pipeline.json

# Re-bench and gate against the committed baseline without touching it
# (exit 4 on regression; thresholds documented in docs/reports.md).
bench-gate:
	PYTHONPATH=src python -m repro bench --preset $(BENCH_PRESET) \
		--repeats 3 --out .bench-candidate.json --diff BENCH_pipeline.json

# Drive a live `repro serve --no-suite` with the open-loop load
# generator for $(SERVE_DURATION)s and (re)write BENCH_serve.json — the
# service-latency baseline (schema grade10-bench-serve/1).  Gate a later
# run with: python -m repro bench --diff BENCH_serve.json --candidate DOC
bench-serve:
	python scripts/bench_serve.py --rate $(SERVE_RATE) \
		--duration $(SERVE_DURATION) --out BENCH_serve.json

# The paper's table/figure benchmarks (pytest-benchmark timings).
bench-paper:
	pytest benchmarks/ --benchmark-only

# Gate the paper's results: rerun every table/figure module (their shape
# assertions must pass) and require the rendered tables in
# benchmarks/output/ to come back byte-identical to the committed ones.
paper-check:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-disable -q
	git diff --exit-code benchmarks/output/

# Launch `repro serve` on a tiny suite, scrape /metrics mid-run, stream
# /events, and require a clean SIGTERM shutdown (docs/live-telemetry.md).
serve-smoke:
	python scripts/serve_smoke.py

# Regenerate every paper table/figure at the default preset.
experiments:
	python -m repro experiment all --preset small

examples:
	python examples/quickstart.py
	python examples/characterize_giraph.py small
	python examples/find_sync_bug.py small
	python examples/compare_systems.py pr small
	python examples/characterize_dataflow.py
	python examples/infer_rules.py small
	python examples/report_run.py tiny

all: test bench
