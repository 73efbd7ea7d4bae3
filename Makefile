# Developer / CI entry points. `make ci` is the gate: formatting, vet,
# build, the full test suite twice under the race detector (`make test`
# is the single-pass form for local use), and a one-shot run of the
# detection benchmarks so they cannot rot.

GO ?= go

.PHONY: ci fmt vet vet-metrics build test test-stress test-alloc test-fuzz bench-stream bench-sparse bench-cluster bench-localize bench-smoke bench pprof-stream

ci: fmt vet vet-metrics build test-stress test-alloc test-fuzz bench-stream bench-sparse bench-cluster bench-localize bench-smoke

fmt:
	@files="$$(gofmt -l .)"; \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Much of the tree is concurrency-heavy and timing-sensitive (collection
# deadlines and quarantine, churn mutating the baseline under running
# detections, lock-free telemetry, the sliced worker pool, push-driven
# streaming, cluster membership churn, probes sharing the baseline
# lock): run everything twice under the race detector to shake out
# scheduling-dependent bugs a single pass can miss. Whole packages, no
# -run filters — a regex subset silently matches nothing after a rename.
test-stress:
	$(GO) test -race -count=2 -timeout 900s ./...

# Allocation regression tests: AllocsPerRun budgets on the streaming
# hot path (Serve allocs/window on fattree4 and FatTree(8)/960, wire
# frame round trip), on the collection plane (one released flow-stats
# round trip client and agent together over loopback TCP 0, one
# PollSnapshots round, push + completion + release) and on the symbolic
# walk (header-space operations, the candidate-first table carve,
# TraceSource allocs per record) plus the pooled window release
# contract, and on the prepared solve (PreparedLS.SolveInto 0,
# Detector.Detect 1, sliced detection flat). Run WITHOUT -race — the
# race detector's instrumentation inflates MemStats allocation counts,
# so the budget tests carry a !race build tag (or skip themselves) and
# would silently vanish under it. The release-contract tests
# additionally ride along under `make test` and `make test-stress` with
# -race.
test-alloc:
	$(GO) test -timeout 180s -run 'Alloc|WindowRelease|DoubleRelease|FrameRoundTrip' . ./internal/wire/ ./internal/openflow/ ./internal/collector/ ./internal/header/ ./internal/flowtable/ ./internal/fcm/ ./internal/matrix/ ./internal/core/

# Fuzz smoke over the control-channel parser, which decodes every frame
# out of one reused read buffer (arbitrary bytes through Conn.Read, and
# decode(append-encode(m)) == m for every payload type), and over the
# sparse factor's rank-one maintenance (Update then Downdate by one row
# of a random H recovers the factor). The seed corpora also run as
# plain tests everywhere else. One -fuzz target per invocation is a go
# test rule.
test-fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzConnRead$$' -fuzztime 5s ./internal/openflow/
	$(GO) test -run '^$$' -fuzz '^FuzzPayloadRoundTrip$$' -fuzztime 5s ./internal/openflow/
	$(GO) test -run '^$$' -fuzz '^FuzzUpdateDowndateRoundTrip$$' -fuzztime 5s ./internal/matrix/

# Archive a heap profile of the warm streaming pipeline and print the
# top allocation sites (results/stream_heap.pprof). Not part of ci.
pprof-stream:
	$(GO) test -run '^$$' -bench ServeSteadyState -benchtime 200x -memprofile results/stream_heap.pprof .
	$(GO) tool pprof -top -nodecount 15 results/stream_heap.pprof

# Bench gate for active-probe localization: every (topology, policy,
# anomaly class) arm must stay within the probe budget
# ceil(log2(|suspect rules|)) + 2 and name the attacked rule in the
# top-3 culprits for >= 90% of detected runs (results/localize.json).
bench-localize:
	$(GO) run ./cmd/focesbench -exp localize -check
	@test -f results/localize.json || { echo "bench-localize: results/localize.json missing"; exit 1; }

# Bench gate for the detection cluster: the cluster experiment must keep
# every distributed report byte-identical to the single-process path
# (including across a node killed mid-window), ship at least one
# incremental delta and one post-refactor snapshot, finish every
# distributed window within the collection interval, and — on hosts with
# GOMAXPROCS >= 4 — beat one node by >= 2x throughput
# (results/cluster.json).
bench-cluster:
	$(GO) run ./cmd/focesbench -exp cluster -check
	@test -f results/cluster.json || { echo "bench-cluster: results/cluster.json missing"; exit 1; }

# Bench gate for the sparse solver: the sparse experiment must keep the
# scale arm's peak heap within the memory budget, keep the engine's
# verdicts identical to the oracle's dense normal equations with
# residual deltas <= 1e-12 on every evaluation topology, and regress neither the sparse prepare (fastest within one
# second) nor the factor's entry count past 1.25x the archived run
# (results/sparse.json).
bench-sparse:
	$(GO) run ./cmd/focesbench -exp sparse -check
	@test -f results/sparse.json || { echo "bench-sparse: results/sparse.json missing"; exit 1; }

# Bench gate for streaming ingestion: the stream experiment must sustain
# the ingest-rate floor with bounded queues and stay within 3x of the
# archived p99 ingest-to-verdict latency (results/stream.json).
bench-stream:
	$(GO) run ./cmd/focesbench -exp stream -check
	@test -f results/stream.json || { echo "bench-stream: results/stream.json missing"; exit 1; }

# Metric-hygiene lint: the telemetry hot path must not format strings
# (fmt is banned from the package outright), and every metric name
# minted in metrics.go must be documented in README.md's catalogue.
vet-metrics:
	@if grep -n 'fmt\.' internal/telemetry/*.go | grep -v _test.go; then \
		echo "vet-metrics: fmt usage in internal/telemetry (hot paths must not format)"; exit 1; \
	fi
	@missing=0; \
	for name in $$(grep -oE '"foces_[a-z_]+"' internal/telemetry/metrics.go | tr -d '"' | sort -u); do \
		if ! grep -q "$$name" README.md; then \
			echo "vet-metrics: $$name not documented in README.md"; missing=1; \
		fi; \
	done; \
	if [ "$$missing" -ne 0 ]; then exit 1; fi

# Compile-and-run-once smoke over every Detect* benchmark, including
# the cold-vs-prepared and sequential-vs-parallel engine comparisons,
# and over the baseline-maintenance ones (one source's symbolic trace,
# one rule update end to end on the FatTree(8) bench system).
bench-smoke:
	$(GO) test -run '^$$' -bench 'Detect|TraceSource|ChurnApply' -benchtime 1x .

# Full benchmark sweep (slow; not part of ci).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .
