GO ?= go
FUZZTIME ?= 5s

.PHONY: all check fmt-check vet build test race fuzz-smoke serve-smoke reload-smoke router-smoke ingest-smoke fleet-ingest-smoke bench-selftest bench bench-all bench-smoke bench-scale clean

all: check

# The full tier-1 gate: what CI runs.
check: fmt-check vet build test race fuzz-smoke serve-smoke reload-smoke router-smoke ingest-smoke fleet-ingest-smoke bench-selftest

# gofmt gate: fails listing any file that is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The smoke-tagged end-to-end tests are vetted too; a plain build never
# compiles them.
vet:
	$(GO) vet ./...
	$(GO) vet -tags smoke ./...

build:
	$(GO) build ./...

# The plain test pass, run once: go test -json feeds testgate, which
# prints each package's summary and the output of failing and skipped
# tests, and fails the pass on any failure or skip — a test that skips
# itself on every run asserts nothing. The race pass below is not
# gated: the allocation budgets skip themselves under -race.
test:
	@events=$$(mktemp); $(GO) test -json ./... > $$events; status=$$?; \
	$(GO) run ./internal/tools/testgate < $$events || status=1; \
	rm -f $$events; exit $$status

race:
	$(GO) test -race ./...

# Short fuzzing pass over every fuzz target; catches parser regressions
# without the cost of a real fuzzing campaign.
fuzz-smoke:
	$(GO) test -run=Fuzz -fuzz=FuzzReadTSV -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run=Fuzz -fuzz=FuzzReadFeatureSet -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=Fuzz -fuzz=FuzzParseCompact -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=Fuzz -fuzz=FuzzCounterTable -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=Fuzz -fuzz=FuzzStoreEnvelope -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run=Fuzz -fuzz=FuzzStreamedEnvelope -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run=Fuzz -fuzz=FuzzWALRecord -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run=Fuzz -fuzz=FuzzParseIngestSnapshot -fuzztime=$(FUZZTIME) ./internal/ingest
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeMutations -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run=Fuzz -fuzz=FuzzDecodeGraphBinary -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run=Fuzz -fuzz=FuzzOverlayCheck -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run=Fuzz -fuzz=FuzzWalkShardDeterminism -fuzztime=$(FUZZTIME) ./internal/embed
	$(GO) test -run=Fuzz -fuzz=FuzzScanShardReply -fuzztime=$(FUZZTIME) ./internal/router
	$(GO) test -run=Fuzz -fuzz=FuzzLoadManifest -fuzztime=$(FUZZTIME) ./internal/router
	$(GO) test -run=Fuzz -fuzz=FuzzCompactRow -fuzztime=$(FUZZTIME) ./internal/serve

# End-to-end daemon smoke: builds cmd/hsgfd under -race, boots it on a
# synthetic graph and exercises serve/degrade/shed/drain over real HTTP.
serve-smoke:
	$(GO) test -race -tags smoke -run TestServeSmoke -v ./cmd/hsgfd

# End-to-end hot-reload smoke: boots cmd/hsgfd on an artifact store and
# rotates generations (admin endpoint + SIGHUP) under live traffic,
# including a corrupted snapshot that must be quarantined with zero
# failed requests.
reload-smoke:
	$(GO) test -race -tags smoke -run TestReloadSmoke -v ./cmd/hsgfd

# Multi-process routing-tier smoke: partitions a graph into 4 shards,
# boots 8 hsgfd replicas + hsgf-router (all under -race) and exercises
# scatter/gather, a fleet-wide zero-downtime reload under load, replica
# SIGKILL failover, and whole-shard loss degrading to flagged rows.
router-smoke:
	$(GO) test -race -tags smoke -run TestRouterSmoke -v -timeout 10m ./cmd/hsgf-router

# Fault-injection ingest smoke: boots cmd/hsgfd in -ingest mode under
# -race and drives it through the WAL's crash windows — SIGKILL
# mid-batch, a torn WAL tail, a bit-flipped record, a duplicate-replay
# storm — asserting recovery serves censuses identical to an
# uninterrupted (and compacting) run of the same batches.
ingest-smoke:
	$(GO) test -race -tags smoke -run TestIngestSmoke -v -timeout 10m ./cmd/hsgfd

# Fleet-wide ordered ingest smoke: boots a 2x2 follower fleet plus the
# sequencing hsgf-router (all under -race) and drives the sequencer's
# crash windows — replica SIGKILL mid-stream with background catch-up,
# router SIGKILL between sequencing and fan-out, a duplicate-replay
# storm, a torn sequencer tail — then pins every root's census to a
# single uninterrupted ingest daemon fed the identical stream.
fleet-ingest-smoke:
	$(GO) test -race -tags smoke -run TestFleetIngestSmoke -v -timeout 10m ./cmd/hsgf-router

# The end-to-end benchmark (perfbench/, see BENCHMARK.json) is its own Go
# module, so ./... above never compiles it; this vets and runs its
# self-test against the current tree (~15 s).
bench-selftest:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Tracked benchmarks (cmd/bench): writes BENCH_census.json (ns/root,
# allocs/root, subgraphs/sec for the census hot path, serve p50/p99),
# BENCH_embed.json (walks/sec, updates/sec, speedup vs Workers=1 for the
# embedding engine) and BENCH_ingest.json (durable mutations/sec,
# dirty-set sizes, ingest-to-serve p50/p99 for the streaming-ingest
# path). Diff these files across changes to track the hot paths.
bench:
	$(GO) run ./cmd/bench census
	$(GO) run ./cmd/bench embed
	$(GO) run ./cmd/bench ingest

# Full benchmark sweep across every package.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# CI smoke: compile and exercise every benchmark briefly so benchmark
# code cannot rot, without paying for stable timings. The embedding
# benchmarks train real models (seconds per op), so they run once.
# The budget tests ride along: a warm 8-root /v1/features request over
# 100 allocations on the daemon, or over 500 through the router and a
# 2-shard fleet, fails the target, and so do cached rows taking over a
# quarter of their JSON length and a graph snapshot write allocating
# over a quarter of the file it writes (timings drift with load;
# allocation and byte counts are deterministic, so these are the
# regression gates CI can enforce).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=100x ./internal/core ./internal/serve
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/embed
	$(GO) test -run 'TestWarmServeAllocBudget|TestRowCacheBytesBudget' -count=1 -v ./internal/serve
	$(GO) test -run TestWarmRouterAllocBudget -count=1 -v ./internal/router
	$(GO) test -run TestStoreWriteAllocBudget -count=1 -v ./internal/core

# Tracked scale ladder (cmd/bench): hierarchical graphs at
# 10^4/10^5/10^6 nodes, measuring build time, binary-vs-TSV snapshot
# encode/decode, bytes per edge, the store write's time and allocation,
# the build time and heap of the router's overlay (its write-side
# graph), census throughput, serve p50/p99, and peak RSS per rung into
# BENCH_scale.json. Diff it across changes to track how the system
# scales.
bench-scale:
	$(GO) run ./cmd/bench scale

clean:
	$(GO) clean ./...
