# Convenience targets; `make ci` is what the GitHub Actions workflow runs.

DUNE ?= dune
XSEED = $(DUNE) exec --no-build bin/xseed.exe --
SMOKE_DIR := $(or $(TMPDIR),/tmp)/xseed-smoke

.PHONY: all build test fmt fuzz-smoke chaos-smoke tcp-smoke smoke trace-smoke audit-smoke stress bench-smoke bench-json perf-smoke loc ci clean

# Worker-domain count for the stress/serve smoke (the CI matrix sets 1 and 4).
WORKERS ?= 4
STRESS_OPS ?= 10000

all: build

build:
	$(DUNE) build @all

test:
	$(DUNE) runtest

# Format check only where an ocamlformat binary is available (the pinned
# version lives in .ocamlformat); the build containers don't ship one.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  $(DUNE) build @fmt; \
	else \
	  echo "fmt: ocamlformat not installed, skipping"; \
	fi

# Fault-injection smoke: fixed seeds, ~2400 mutated inputs across XML
# documents, synopsis dumps and query strings. Fails on any uncaught
# exception or NaN estimate; a failure line names the (seed, case) pair.
fuzz-smoke: build
	$(DUNE) exec --no-build test/fault_injection.exe -- --seeds 1,2,3,4 --cases 200 \
	  --only xml,synopsis,query

# Chaos smoke: the serving path's failure model end to end — fault
# injection over the pool/journal/deadline categories, a kill -9 +
# torn-tail + replay crash-recovery proof against a live server, golden
# journal-dump exit codes and a SIGTERM drain. Journals land in
# $(SMOKE_DIR)/chaos for CI to upload.
chaos-smoke: build
	SMOKE_DIR="$(SMOKE_DIR)" \
	  XSEED_BIN=_build/default/bin/xseed.exe \
	  FAULT_BIN=_build/default/test/fault_injection.exe \
	  sh test/chaos_smoke.sh

# TCP smoke: the framed network transport end to end — net-category
# fault injection against live listeners, then one budgeted
# multi-tenant `xseed serve --manifest --port 0` process driven over
# TCP by `xseed client` (handshake, USE tenancy, eviction + journal
# replay, tenant-labeled scrape) and a SIGTERM drain. The Prometheus
# scrape lands in $(SMOKE_DIR)/tcp for CI to upload.
tcp-smoke: build
	SMOKE_DIR="$(SMOKE_DIR)" \
	  XSEED_BIN=_build/default/bin/xseed.exe \
	  FAULT_BIN=_build/default/test/fault_injection.exe \
	  sh test/tcp_smoke.sh

# End-to-end smoke: generate a corpus, build a synopsis, explain a query,
# compare estimates vs actuals with JSON-lines metrics on. The corpus is
# also built with 3-predicate HET patterns, and a 3-predicate query must be
# answered by a joint HET entry.
smoke: build
	@mkdir -p $(SMOKE_DIR)
	$(XSEED) generate xmark --scale 60 -o $(SMOKE_DIR)/doc.xml
	$(XSEED) build $(SMOKE_DIR)/doc.xml -o $(SMOKE_DIR)/doc.syn
	$(XSEED) explain $(SMOKE_DIR)/doc.syn "//open_auction[bidder]/price"
	$(XSEED) build $(SMOKE_DIR)/doc.xml -o $(SMOKE_DIR)/doc-mbp3.syn \
	  --mbp 3 --bsel-threshold 0.9
	$(XSEED) explain $(SMOKE_DIR)/doc-mbp3.syn \
	  "//open_auction[bidder][seller][initial]/current" \
	  > $(SMOKE_DIR)/explain-mbp3.out
	@cat $(SMOKE_DIR)/explain-mbp3.out
	@grep -q 'HET joint-pattern override' $(SMOKE_DIR)/explain-mbp3.out
	$(XSEED) compare $(SMOKE_DIR)/doc.xml --count 25 \
	  --metrics-out $(SMOKE_DIR)/metrics.jsonl
	@test -s $(SMOKE_DIR)/metrics.jsonl
	@echo "smoke: OK ($(SMOKE_DIR))"

# Feedback-loop smoke: replay a small workload through the serving engine's
# estimate -> execute -> feedback rounds on a tiny corpus and assert the
# per-round q-error median never increases (the paper's Figure 1 loop).
# Then exercise the serve telemetry surface end to end (METRICS scrape,
# flight records, drift summary, and --metrics-out snapshots from a
# 2-worker pool carrying the serving totals) and the telemetry/audit-overhead
# bench guards (< 5% median estimate latency vs. an untapped engine, plus
# the audit/offline q-error agreement check).
bench-smoke: build
	@mkdir -p $(SMOKE_DIR)
	$(XSEED) generate xmark --scale 40 -o $(SMOKE_DIR)/bench.xml
	$(XSEED) workload $(SMOKE_DIR)/bench.xml --kind bp --count 40 \
	  > $(SMOKE_DIR)/bench.workload
	$(XSEED) replay $(SMOKE_DIR)/bench.xml $(SMOKE_DIR)/bench.workload \
	  --rounds 2 --budget 8192 --assert-improving
	$(XSEED) build $(SMOKE_DIR)/bench.xml -o $(SMOKE_DIR)/bench.syn
	printf 'ESTIMATE //item\nFEEDBACK //item 12\nMETRICS\nRECENT 5\nDRIFT\n' \
	  | $(XSEED) serve $(SMOKE_DIR)/bench.syn \
	      --telemetry-out $(SMOKE_DIR)/flights.jsonl \
	      > $(SMOKE_DIR)/serve.out
	@grep -q '^# TYPE xseed_engine_cache_misses counter' $(SMOKE_DIR)/serve.out
	@grep -q '^xseed_engine_drift_qerror_p90' $(SMOKE_DIR)/serve.out
	@grep -q '"cache":"miss"' $(SMOKE_DIR)/flights.jsonl
	printf 'ESTIMATE //item\nESTIMATE //item\n' \
	  | $(XSEED) serve $(SMOKE_DIR)/bench.syn --workers 2 --snapshot-every 1 \
	      --metrics-out $(SMOKE_DIR)/snapshots-w2.jsonl > /dev/null
	@grep -q '"engine.cache.misses":' $(SMOKE_DIR)/snapshots-w2.jsonl
	printf 'ESTIMATE //item\nFEEDBACK //item 12\n' \
	  | $(XSEED) serve $(SMOKE_DIR)/bench.syn --snapshot-every 1 \
	      --metrics-out $(SMOKE_DIR)/snapshots-w1.jsonl > /dev/null
	@grep -q '"matcher.match_steps":' $(SMOKE_DIR)/snapshots-w1.jsonl
	$(DUNE) exec --no-build bench/main.exe -- --quick telemetry audit
	@echo "bench-smoke: OK"

bench-json: build
	$(DUNE) exec --no-build bench/main.exe -- --quick json

# Repo-benchmark correctness smoke: two short untraced perfbench runs
# against a live `xseed serve --port 0`. Each exits non-zero when a served
# estimate differs from the in-process estimator's or any request fails.
perf-smoke: build
	python3 perfbench/run.py --workload batch-miss --seed 1 --seconds 2 --trace 0
	python3 perfbench/run.py --workload point-hot --seed 1 --seconds 2 --trace 0

# Causal-trace smoke: serve a mixed request script through a WORKERS-worker
# pool with --trace-out, then re-validate the written Perfetto JSON with
# the trace linter (per-track monotone timestamps, balanced spans, every
# flow arrow resolving) and check the PROFILE verb's one-line breakdown.
# Requests of up to 8 queries never leave the submitting thread, so eight
# BATCH 64s of distinct queries queue chunks for the worker domains; at
# WORKERS >= 2 a worker-domain track (shard-N, N >= 1) must carry an
# execute slice, so the linter sees queue-wait spans and flow arrows cross
# tracks. The submitter takes back whatever a domain has not popped yet,
# so on a loaded runner one batch can leave every chunk to it; eight make
# that vanishingly unlikely.
trace-smoke: build
	@mkdir -p $(SMOKE_DIR)
	$(XSEED) generate xmark --scale 40 -o $(SMOKE_DIR)/trace.xml
	$(XSEED) build $(SMOKE_DIR)/trace.xml -o $(SMOKE_DIR)/trace.syn
	$(XSEED) workload $(SMOKE_DIR)/trace.xml --kind bp --count 512 \
	  > $(SMOKE_DIR)/trace.workload
	{ printf 'BATCH 3\n//item\n//person\n//open_auction[bidder]/price\n'; \
	  awk 'NR % 64 == 1 { print "BATCH 64" } { print }' \
	    $(SMOKE_DIR)/trace.workload; \
	  printf 'PROFILE 2\n//item\n//person\nFEEDBACK //item 12\nESTIMATE //item\n'; } \
	  | $(XSEED) serve $(SMOKE_DIR)/trace.syn --workers $(WORKERS) \
	      --trace-out $(SMOKE_DIR)/trace.json \
	      > $(SMOKE_DIR)/trace.out
	@grep -q '^OK 64$$' $(SMOKE_DIR)/trace.out
	@grep -q '^OK 2 queue_wait_us ' $(SMOKE_DIR)/trace.out
	$(XSEED) trace-lint $(SMOKE_DIR)/trace.json
	@if [ $(WORKERS) -gt 1 ]; then \
	  python3 -c 'import json, sys; \
	    evs = json.load(open(sys.argv[1]))["traceEvents"]; \
	    tracks = {e["tid"]: e["args"]["name"] for e in evs if e.get("ph") == "M" and e.get("name") == "thread_name"}; \
	    ok = any(e.get("ph") == "X" and e.get("name") == "execute" and tracks.get(e.get("tid"), "shard-0") not in ("shard-0", "coordinator") for e in evs); \
	    sys.exit(0 if ok else "trace-smoke: no execute slice on a worker-domain track")' \
	    $(SMOKE_DIR)/trace.json; \
	fi
	@echo "trace-smoke: OK (WORKERS=$(WORKERS), $(SMOKE_DIR)/trace.json)"

# Shadow-audit smoke: serve a tiny XMark corpus with every query audited
# (--audit-rate 1.0 against the source document), then prove the AUDIT
# verb's true-q-error window is byte-identical to the offline
# `xseed audit` report over the same workload. The JSON-lines
# attribution report lands in $(SMOKE_DIR)/audit for CI to upload.
audit-smoke: build
	@mkdir -p $(SMOKE_DIR)/audit
	$(XSEED) generate xmark --scale 40 -o $(SMOKE_DIR)/audit/doc.xml
	$(XSEED) build $(SMOKE_DIR)/audit/doc.xml -o $(SMOKE_DIR)/audit/doc.syn
	$(XSEED) workload $(SMOKE_DIR)/audit/doc.xml --kind bp --count 25 \
	  > $(SMOKE_DIR)/audit/queries
	{ awk '{print "ESTIMATE " $$0}' $(SMOKE_DIR)/audit/queries; \
	  printf 'AUDIT\n'; } \
	  | $(XSEED) serve $(SMOKE_DIR)/audit/doc.syn --workers $(WORKERS) \
	      --audit-rate 1.0 --audit-doc $(SMOKE_DIR)/audit/doc.xml \
	      > $(SMOKE_DIR)/audit/serve.out
	@grep -q '^OK {"rate":' $(SMOKE_DIR)/audit/serve.out
	$(XSEED) audit $(SMOKE_DIR)/audit/doc.syn $(SMOKE_DIR)/audit/doc.xml \
	  $(SMOKE_DIR)/audit/queries -o $(SMOKE_DIR)/audit/report.jsonl
	@grep -o '"window":{[^}]*}' $(SMOKE_DIR)/audit/serve.out \
	  > $(SMOKE_DIR)/audit/window.served
	@grep -o '"window":{[^}]*}' $(SMOKE_DIR)/audit/report.jsonl \
	  > $(SMOKE_DIR)/audit/window.offline
	diff $(SMOKE_DIR)/audit/window.served $(SMOKE_DIR)/audit/window.offline
	@grep -q '"worst_step"' $(SMOKE_DIR)/audit/report.jsonl
	@echo "audit-smoke: OK (WORKERS=$(WORKERS), $(SMOKE_DIR)/audit/report.jsonl)"

# Multi-domain stress: the pool suite's 4-client mixed-ops run at full scale
# (10k ops per client against a WORKERS-worker pool), then a --workers smoke
# through the CLI line protocol (BATCH framing + merged METRICS scrape). The
# BATCH 12 spans several chunks, so at WORKERS >= 2 it queues chunks for the
# worker domains.
stress: build
	STRESS_OPS=$(STRESS_OPS) STRESS_WORKERS=$(WORKERS) \
	  $(DUNE) exec --no-build test/test_pool.exe -- test stress
	@mkdir -p $(SMOKE_DIR)
	$(XSEED) generate xmark --scale 40 -o $(SMOKE_DIR)/stress.xml
	$(XSEED) build $(SMOKE_DIR)/stress.xml -o $(SMOKE_DIR)/stress.syn
	printf 'BATCH 3\n//item\nESTIMATE //person\n//item\nBATCH 12\n//item\n//person\n//open_auction/bidder\n//closed_auction/price\n//category/name\n//europe/item\n//regions//item/name\n//people/person/name\n//closed_auction[annotation]/price\n//item[payment]/location\n//person[address]/name\n//open_auction[bidder]/current\nFEEDBACK //item 12\nMETRICS\nRECENT 5\nDRIFT\n' \
	  | $(XSEED) serve $(SMOKE_DIR)/stress.syn --workers $(WORKERS) \
	      > $(SMOKE_DIR)/stress.out
	@grep -q '^OK 3' $(SMOKE_DIR)/stress.out
	@grep -q '^OK 12' $(SMOKE_DIR)/stress.out
	@grep -q '^xseed_engine_cache_misses' $(SMOKE_DIR)/stress.out
	@grep -q '^xseed_engine_pool_workers $(WORKERS)' $(SMOKE_DIR)/stress.out
	@echo "stress: OK (WORKERS=$(WORKERS))"

# Line totals of the library sources (.ml + .mli), for lib/ and each
# library under it: the net line counts each change records in CHANGES.md.
loc:
	@for d in lib lib/*; do \
	  printf '%-16s %6d\n' "$$d/" \
	    "$$(find $$d -name '*.ml' -o -name '*.mli' | xargs cat | wc -l)"; \
	done

ci: fmt build test fuzz-smoke chaos-smoke tcp-smoke smoke bench-smoke trace-smoke audit-smoke stress perf-smoke

clean:
	$(DUNE) clean
	rm -rf $(SMOKE_DIR)
