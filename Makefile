GO ?= go

.PHONY: build test race bench ci verify experiments

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: race-detector pass over the concurrent subsystems (the parallel
## workflow engine, the singleflight caching resolver + resilience guards,
## the streaming provenance pipeline, the storage layer under it, the
## shard router with its scatter-gather fan-out, the cluster layer — lease
## store, fenced queues, HTTP gateway + remote worker — and the archival
## store/scrubber), plus the core detection stack — including crash/resume,
## orchestrator failover, and the sharded/unsharded equivalence suite —
## that drives them end to end, the curation ledger that concurrent runs
## share, and the web layer whose admissions wake the scheduler.
race:
	$(GO) test -race ./internal/workflow/... ./internal/taxonomy/... ./internal/resilience/... ./internal/provenance/... ./internal/storage/... ./internal/shard/... ./internal/cluster/... ./internal/archive/... ./internal/core/... ./internal/curation/... ./internal/web/...

## ci: the full hygiene gate — formatting, vet, the race-enabled tests, a
## short fuzz smoke over the archival WAV decoder (arbitrary bytes must
## never panic the archive read path), the chaos smoke (randomized
## kill/resume trials, degraded-authority assessment runs, shard-loss
## traffic, orchestrator-failover trials — a standby steals the expired
## lease and must finish byte-identically while the resurrected stale
## orchestrator gets every fenced write rejected — and the scheduler-pool
## trial: three peer orchestrators drain an admission queue while two are
## killed mid-run, and every queued run must still complete byte-identically
## exactly once), the /api/v1 contract smoke (including the /api/v1/cluster
## resources and the per-tenant quota contract), the tracing-overhead
## guard (traced detection within 5% of untraced), the zero-allocation
## guards over the provenance/telemetry/storage hot paths, a 1-iteration
## bench-harness smoke proving every tracked benchmark still runs (numbers
## land in the gitignored BENCH_smoke.json, not the committed trajectory),
## the bench-trajectory comparator (fails on a >10% ns/op or allocs/op
## regression between the two committed BENCH files), and the multi-tenant
## load smoke (sustained detect+query traffic at 1 and 4 shards; the >=2x
## throughput gate runs only in the full non-short experiment), and the vet
## and tests of the perfbench module, which the root ./... never reaches
## (they pin, among other things, the resolver capabilities the coalescer
## needs to batch).
ci:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(MAKE) race
	$(GO) test ./internal/audio/ -run='^$$' -fuzz=FuzzReadWAV -fuzztime=10s
	$(GO) run ./cmd/experiments -run chaos -short
	$(GO) test ./internal/web/ -run 'TestAPI|TestCluster|TestWorkersAlias|TestAsyncDetect|TestDetectStaysSync'
	$(GO) test -run TestTracingOverhead .
	$(GO) test -run 'Allocs' ./internal/storage/ ./internal/telemetry/ ./internal/provenance/
	$(GO) run ./cmd/bench -smoke
	$(GO) run ./cmd/bench -compare BENCH_9.json BENCH_10.json
	$(GO) run ./cmd/experiments -run load -short
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

## verify: the gate for engine/concurrency/persistence changes — the ci
## hygiene pass (gofmt, vet, race suite) plus the full test suite.
verify: ci
	$(GO) test ./...

## bench: the paper-reproduction benchmarks at the repo root, then the
## hot-path suites via the bench harness, recording the perf trajectory to
## BENCH_10.json (schema bench.v1, documented in EXPERIMENTS.md; min across
## -count repetitions to resist shared-host noise).
bench:
	$(GO) test -bench=. -benchmem .
	$(GO) run ./cmd/bench -out BENCH_10.json

experiments:
	$(GO) run ./cmd/experiments
