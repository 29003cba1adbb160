# Convenience targets; every recipe is runnable without installation
# via PYTHONPATH=src.

PY := PYTHONPATH=src python
TRACE_DIR := /tmp/repro-trace-smoke

.PHONY: test unit trace-smoke serve-smoke obs-smoke bench-smoke bench \
        conform-smoke conform codebooks-smoke backends-smoke test-backends \
        sanitize-smoke

# tier-1 verification (ROADMAP.md): unit suite + telemetry smoke +
# serving smoke + observability smoke + codebook-registry smoke +
# kernel-backend cross-agreement smoke + differential conformance smoke
# matrix + wall-clock smoke (the scan-pack no-regression gate)
test: unit trace-smoke serve-smoke obs-smoke codebooks-smoke \
      backends-smoke conform-smoke bench-smoke

unit:
	$(PY) -m pytest -x -q

# kernel-backend smoke: numpy vs njit byte-identical containers,
# bit-exact histograms, identical decodes over small corpora (the njit
# leg runs the pure-Python kernel sim when numba is absent), plus the
# harness's own negative self-test: a seeded divergence MUST make the
# smoke exit non-zero (hence the `!`)
backends-smoke:
	$(PY) -m repro.backends.smoke
	! $(PY) -m repro.backends.smoke --seed-divergence > /dev/null

# run the tier-1 unit suite once per kernel backend (REPRO_BACKEND
# routes every registry-consulting hot loop); the njit leg uses real
# numba when importable and the pure-Python kernel sim otherwise
test-backends:
	REPRO_BACKEND=numpy $(PY) -m pytest -x -q
	@if $(PY) -c "import numba" 2>/dev/null; then \
		echo "test-backends: njit leg (compiled numba)"; \
		REPRO_BACKEND=njit $(PY) -m pytest -x -q; \
	else \
		echo "test-backends: njit leg (pure-Python sim; numba not installed)"; \
		REPRO_BACKEND=njit REPRO_NJIT_SIM=1 $(PY) -m pytest -x -q; \
	fi

# serving smoke: boot an ephemeral repro-serve, fire a mixed burst
# (including a malformed body and an oversized payload), assert the
# 200/400/413 contract and a clean shutdown
serve-smoke:
	$(PY) -m repro.serve.cli --smoke

# end-to-end telemetry smoke: run a traced compress/decompress round
# trip (examples/trace_pipeline.py), then schema-validate the emitted
# Chrome-trace and JSONL files with the repro-trace CLI
trace-smoke:
	$(PY) examples/trace_pipeline.py --out-dir $(TRACE_DIR) --quiet
	$(PY) -m repro.obs.cli $(TRACE_DIR)/trace.json --validate
	$(PY) -m repro.obs.cli $(TRACE_DIR)/trace.jsonl --validate

# observability smoke: boot an ephemeral server, drive a burst with one
# forced error and one forced p99 outlier, then strictly validate every
# telemetry surface — /metrics round-trips through the Prometheus text
# parser (cumulative buckets, escaped labels), /slo evaluates all stock
# objectives, /trace/recent is a valid Chrome trace containing the
# error and the outlier with full span trees
obs-smoke:
	$(PY) -m repro.obs.smoke

# codebook-registry smoke: boot an ephemeral server, register a
# nyx_quant-style book over /codebooks, assert hot codebook_id requests
# skip the histogram/codebook spans (via /trace/recent), assert the
# registry hit metrics and the 400 contract for unknown/uncovered ids
codebooks-smoke:
	$(PY) -m repro.codebooks.smoke

# conformance smoke: every smoke-tier encoder x decoder pair over the
# smoke corpora, plus the harness's own negative self-test (a seeded
# divergence MUST make repro-conform exit non-zero, hence the `!`)
conform-smoke:
	$(PY) -m repro.conform.cli --out /tmp/CONFORMANCE.json
	! $(PY) -m repro.conform.cli --seed-divergence --no-fuzz \
	        --no-invariants --no-golden --no-shrink \
	        --out /tmp/CONFORMANCE.negative.json > /dev/null

# full conformance matrix: every registered implementation over the
# full corpus set; writes ./CONFORMANCE.json
conform:
	$(PY) -m repro.conform.cli --full --out CONFORMANCE.json

# sanitizer smoke: rebuild the native gap kernel from the same C
# source with -fsanitize=address,undefined (REPRO_GAP_SANITIZE=1, own
# digest directory), preload gcc's libasan, and drive >= 10k truncated
# and bit-flipped deep-book containers through the native route; a
# sanitizer report aborts the run, and only ValueError may escape.  The
# module's negative control requires a report from an unpadded buffer
sanitize-smoke:
	REPRO_GAP_SANITIZE=1 ASAN_OPTIONS=detect_leaks=0 \
	LD_PRELOAD=$$(gcc -print-file-name=libasan.so) \
	$(PY) -m pytest -q -s -p no:cacheprovider tests/test_sanitize_native.py

# wall-clock smoke: regenerates benchmarks/results/BENCH_wallclock.json,
# asserts the >=20x batch-vs-scalar decode bar on the enwik surrogate,
# gates the scan-pack encoder (byte-identical container AND no slower
# than the iterative reference), and gates the gap-array decoder:
# bit-identical to the lane decoder, and >=3x faster on both surrogates
# when the compiled kernel is available (non-zero exit on regression).
# The second line is the perf-history sentinel's negative self-test: a
# synthetic ~30% slowdown over a stable baseline MUST make the sentinel
# exit non-zero (hence the `!`) — a sentinel that stops catching
# regressions fails the build
bench-smoke:
	$(PY) -m pytest benchmarks/test_wallclock.py -q
	! $(PY) -m repro.perf.history --self-test 0.3 > /dev/null

# full modeled-benchmark suite (regenerates the paper tables)
bench:
	$(PY) -m pytest benchmarks -q
