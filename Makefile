# Convenience targets mirroring the CI pipeline (.github/workflows/ci.yml).
# Everything runs from the source tree via PYTHONPATH, no install required.

PYTHON ?= python
export PYTHONPATH := src

CAMPAIGN_STORE ?= /tmp/repro-campaign-smoke
PLATFORM_STORE ?= /tmp/repro-platform-matrix
CHAOS_STORE ?= /tmp/repro-chaos-smoke
TELEMETRY_STORE ?= /tmp/repro-telemetry-smoke
CALIB_DIR ?= /tmp/repro-calib-smoke

LINT_CACHE ?= /tmp/repro-lint-cache.json
PERF_OUT ?= /tmp/repro-perf.jsonl

.PHONY: lint lint-fast lint-full test check campaign-smoke chaos-smoke \
	telemetry-smoke validate-platforms calib-smoke calib-robust-smoke perf

lint:
	$(PYTHON) -m repro lint

# Incremental + parallel: re-lints only files whose sha changed since the
# cached pass.  For day-to-day editing loops.
lint-fast:
	$(PYTHON) -m repro lint --cache $(LINT_CACHE) --jobs 4

# Cold and serial: what CI gates on, and what the lint-speed benchmark
# compares the cached pass against.
lint-full:
	$(PYTHON) -m repro lint --jobs 1

test:
	$(PYTHON) -m pytest -x -q

validate-platforms:
	$(PYTHON) -m repro platforms validate

# Run the tiny built-in campaign twice (the first pass simulates, the
# second must be served entirely from the content-addressed store), then
# sweep every registered platform — including the purely data-defined
# devices — through one short stock-policy run each.
campaign-smoke:
	rm -rf $(CAMPAIGN_STORE) $(PLATFORM_STORE)
	$(PYTHON) -m repro campaign run --preset smoke --store $(CAMPAIGN_STORE) --jobs 2
	$(PYTHON) -m repro campaign run --preset smoke --store $(CAMPAIGN_STORE) --jobs 2 --resume --format json \
	  | $(PYTHON) -c "import json,sys; s=json.load(sys.stdin)['summary']; assert s['cached']==s['total']>0, s; print(f\"campaign-smoke: {s['cached']}/{s['total']} cached\")"
	$(PYTHON) -m repro campaign run --preset platform-matrix --store $(PLATFORM_STORE) --jobs 2

# Run the full fault-injection grid (every built-in fault plan x policy x
# platform) and fail if any run crashes or the hardened governor overshoots
# the thermal limit by more than stock anywhere (docs/FAULTS.md).
chaos-smoke:
	rm -rf $(CHAOS_STORE)
	$(PYTHON) -m repro chaos --duration 12 --jobs 2 --store $(CHAOS_STORE)

# Exercise the cross-process telemetry pipeline end to end: run the tiny
# campaign with the deterministic watch dashboard and an SLO gate, then
# re-evaluate the stored fleet aggregate with `repro obs check` and gate
# the aggregation overhead against the campaign wall time.
telemetry-smoke:
	rm -rf $(TELEMETRY_STORE)
	$(PYTHON) -m repro campaign run --preset smoke --store $(TELEMETRY_STORE) \
	  --jobs 2 --watch --no-tty --slo chaos-hardening
	$(PYTHON) -m repro obs check --campaign smoke --store $(TELEMETRY_STORE) \
	  --slo chaos-hardening
	cd benchmarks && PYTHONPATH=$(CURDIR)/src \
	  $(PYTHON) -m pytest -x -q bench_telemetry_overhead.py

# Close the calibration loop at reduced scale: excite a registered board,
# fit a definition from the trace alone, and validate the fitted JSON as
# an out-of-tree platform (docs/CALIBRATION.md).
calib-smoke:
	rm -rf $(CALIB_DIR) && mkdir -p $(CALIB_DIR)
	$(PYTHON) -m repro platforms excite --platform odroid-xu3 \
	  --dwell-s 0.5 --soak-s 4 --cooldown-s 8 --max-opps 4 \
	  --out $(CALIB_DIR)/trace.json
	$(PYTHON) -m repro platforms fit --trace $(CALIB_DIR)/trace.json \
	  --name odroid-xu3-refit --out $(CALIB_DIR)/fitted.json --register
	$(PYTHON) -m repro platforms validate --file $(CALIB_DIR)/fitted.json

# Close the loop through a degraded capture: excite, apply the contract
# degradation model (millidegree quantization + record drops + spikes),
# fit robustly, validate the fitted JSON, and gate the robust fit's wall
# time against the clean path (docs/CALIBRATION.md).
calib-robust-smoke:
	rm -rf $(CALIB_DIR)-robust && mkdir -p $(CALIB_DIR)-robust
	$(PYTHON) -m repro platforms excite --platform odroid-xu3 \
	  --seed 1 --out $(CALIB_DIR)-robust/trace.json
	$(PYTHON) -m repro platforms degrade \
	  --trace $(CALIB_DIR)-robust/trace.json --model noisy-sysfs --seed 7 \
	  --out $(CALIB_DIR)-robust/degraded.json
	$(PYTHON) -m repro platforms fit \
	  --trace $(CALIB_DIR)-robust/degraded.json \
	  --name odroid-xu3-robust-refit \
	  --out $(CALIB_DIR)-robust/fitted.json --register
	$(PYTHON) -m repro platforms validate --file $(CALIB_DIR)-robust/fitted.json
	cd benchmarks && PYTHONPATH=$(CURDIR)/src \
	  $(PYTHON) -m pytest -x -q bench_calib_robust.py

# Run the repository benchmark (benchmarks/perf/README.md): all four
# workloads of BENCHMARK.json, each appending one JSON record to
# $(PERF_OUT) for `benchmarks/perf/compare.py`.  Kept out of `check`: a
# pass takes minutes and its timings want a quiet host.
perf:
	$(PYTHON) benchmarks/perf/run.py --out $(PERF_OUT)

check: lint validate-platforms test campaign-smoke chaos-smoke telemetry-smoke calib-smoke calib-robust-smoke
