# Convenience targets for the JouleGuard reproduction.

GO ?= go

# bench and bench-check are pipelines; without pipefail a failed
# benchmark run would be masked by the pipe's last command.
SHELL := /usr/bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: all build vet lint check test test-race race churn-race fuzz bench bench-check bench-smoke bench-full bench-profile results examples chaos-smoke serve-smoke cluster-smoke chaos-cluster hotpath-smoke obs-smoke meter-smoke qos-smoke clean

all: build vet test

build:
	$(GO) build ./...

# vet covers the benchmark harness too: bench/ is a module of its own
# that compiles against this tree, so a change that breaks it fails here.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...

# Lint: gofmt must leave no file unformatted, and vet must be clean.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

# The pre-merge gate: formatting + vet + the tier-1 tests (which include
# the freshness of results/) + the race-detector pass + the full-size
# shard-churn race test + the time-boxed fuzz targets + the daemon, fleet
# and hot-path smoke tests + the coordinator-failover chaos run + the
# benchmark harness's own build, tests and output checks.
check: lint test race churn-race fuzz serve-smoke cluster-smoke hotpath-smoke chaos-cluster obs-smoke meter-smoke qos-smoke bench-smoke

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Race-detector pass over the packages that share state across the
# experiment worker pool: the pool itself, the drivers, and the caches —
# the kernels' compute-once memos included, which parallel calibration
# and concurrent sweep cells fill together — plus the daemon, which shares sessions and the budget broker across
# request handlers, the client, whose sessions share a pool of idle v2
# streams, the load driver's concurrent tenants, and the bandit and
# runtime, whose instances are copied from shared prior tables — and the
# error contract and the retry loop every one of those hops shares, and
# the telemetry sinks: the unbound sink, whose tally and process ring any
# goroutine writes under its one mutex, and the session sinks' tallies
# and decision windows, which their sessions write under the session
# mutex, while scrapes fold and read them all.
race:
	$(GO) test -race ./internal/par/ ./internal/apps/... ./internal/experiments/ ./internal/platform/ ./internal/learning/ ./internal/core/ ./internal/server/ ./internal/client/ ./internal/cluster/ ./cmd/loadgen/ ./internal/measure/ ./internal/qos/ ./internal/wire/ ./internal/backoff/ ./internal/telemetry/ .

# The full-size (10k-session) shard-churn test under the race detector:
# the concurrent registry/broker workload the sharded session map exists
# for. `race` above already runs it at -short scale; this is the
# pre-merge full run. Then ten runs each of the tests that interleave
# session writers with readers of their telemetry (scrapes folding the
# tallies, /decisions and provenance reading the windows), since the
# sink's owner mutex is the only lock those writes take.
churn-race:
	$(GO) test -race -run TestShardChurnRace ./internal/server/
	$(GO) test -race -count=10 -run 'TestSessionDecisionWindows|TestSessionTalliesExactOnRead|TestSinkTotalsMatchSerial|TestCloseLeavesNoUncountedGap|TestDecisionSecondsExactOnRead' \
		./internal/server/ ./internal/telemetry/

# Time-boxed fuzzing of the parsers that read untrusted bytes. The
# recovery parsers, seeded from a real snapshot: damaged snapshot streams
# into Restore and damaged checkpoint blobs into the session rebuild path
# must come back as an error — never a panic, never a live session. The
# v2 frame decoder, seeded from the codec tests' frames: no panic, every
# accepted binary request frame and TClose re-encodes byte for byte, every
# TErr byte maps through the error table. (go test takes one -fuzz target per run, hence
# three steps; a failing input lands in the package's testdata/fuzz/ as a
# regression case.)
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime=10s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreState$$' -fuzztime=10s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzDecoder$$' -fuzztime=10s ./internal/wire/

# The smoke targets below assert and print nothing to keep: each is one
# `go run -race ./cmd/loadgen ... -check 1.05` whose verdict is its exit
# code. Latency and throughput are measured by bench/ in one fixed regime
# (bench/README.md), never by a -race smoke.

# Daemon smoke test under the race detector: selfhost the daemon, drive
# 8 concurrent tenants for 200 iterations each, restart the daemon
# mid-run from a snapshot, and assert every tenant lands within 105% of
# its grant and the broker conserved the pool.
serve-smoke:
	$(GO) run -race ./cmd/loadgen -tenants 8 -iters 200 -restart-at 800 -check 1.05

# Fleet smoke test under the race detector: run an in-process coordinator
# plus 3 member daemons, drive 12 tenants through coordinator placement,
# kill the busiest node once 360 iterations completed fleet-wide, and
# assert a failover was seen, the fleet ledger conserved the budget and
# every tenant still lands within 105% of its grant.
cluster-smoke:
	$(GO) run -race ./cmd/loadgen -cluster -nodes 3 -tenants 12 -iters 60 \
		-apps radar -platform Tablet -kill-at 360 -check 1.05

# Control-plane chaos under the race detector: the same fleet, but the
# coordinator itself is killed after 240 iterations and a WAL-tailing
# standby promotes (bumping the fencing epoch); a node kill at 480 then
# forces clients through coordinator rotation on the new primary. Every
# tenant must still land within 105% of its grant.
chaos-cluster:
	$(GO) run -race ./cmd/loadgen -cluster -nodes 3 -tenants 12 -iters 60 \
		-apps radar -platform Tablet -kill-coordinator-at 240 -kill-at 480 -check 1.05

# Observability smoke under the race detector: a traced 3-node fleet
# (v2 frames, every 8th round sampled) with a provenance auditor
# polling both halves of the custody chain while the primary
# coordinator is killed mid-run and a standby promotes. Asserts one
# distributed trace joins client -> daemon -> broker -> coordinator
# across the per-node /traces windows, and that every provenance layer
# sampled — including through the failover — conserves joules to
# within 1e-6.
obs-smoke:
	$(GO) run -race ./cmd/loadgen -cluster -nodes 3 -tenants 8 -iters 60 \
		-apps radar -platform Tablet -v2 -trace-every 8 -obs-check \
		-kill-coordinator-at 240 -check 1.05

# Measurement smoke under the race detector: selfhost the daemon with
# the calibrated simulated meter as the billed energy source (client
# readings become physical stimulus) and seeded counter faults injected
# into it. Asserts every tenant lands within 105% of its grant on
# meter-attributed joules alone, that the plausibility gate rejected
# the injected faults, and that no attribution window stayed open.
meter-smoke:
	$(GO) run -race ./cmd/loadgen -tenants 8 -iters 200 -meter sim -meter-faults -check 1.05

# Tenant-protection smoke under the race detector: selfhost the daemon
# with the QoS ladder enabled and one adversarial tenant claiming ten
# honest tenants' worth of the pool under the best-effort tier. Asserts
# the adversary drew enforcement denials (including at least one shed —
# best-effort is sacrificed first, the guaranteed honest tenants never)
# while every honest tenant landed within 105% of its grant.
qos-smoke:
	$(GO) run -race ./cmd/loadgen -tenants 6 -adversaries 1 -tier guaranteed -iters 300 \
		-qos-shed-at 0.5 -check 1.05 -expect-shed

# Hot-path smoke: the v2 binary frame stream end to end, closed loop,
# pinning correctness under batching (every tenant within 105% of its
# grant over DoneNext frames).
hotpath-smoke:
	$(GO) run -race ./cmd/loadgen -tenants 8 -iters 200 -v2 -check 1.05

# The benchmarks bench-check gates, named once: `go test -bench` selects
# them, -pin compares them, and `make bench` re-records exactly them, so
# BENCH_experiments.json never holds a row nothing checks.
PINS := Frame|InprocDecision|SessionLookup|RegisterClose|BanditObserveChampion|TelemetryLiveSinkParallel
# -p 1: the packages' benchmarks run one after another, not against each
# other.
PINNED := $(GO) test -p 1 -run xxx -bench '$(PINS)' -benchmem \
	./internal/wire/ ./internal/server/ ./internal/learning/ ./internal/telemetry/

# Re-record the pinned benchmarks into BENCH_experiments.json. (The
# paper's tables and figures are `make results`; the service's latency
# and throughput are `bash bench/run.sh`.)
bench:
	$(PINNED) | $(GO) run ./cmd/benchjson > BENCH_experiments.json

# Perf regression gate: re-measure the pinned hot-path benchmarks and
# fail if any got >20% slower than the committed snapshot — or allocates
# where the snapshot says it must not (the wire codecs and the decision
# path are pinned at 0 allocs/op). The bandit and telemetry pins are the
# two cases the decision path was once slow in: an observation that makes
# the best arm's estimate dip, and every core reporting at once. The
# RegisterClose pin is a session's fixed cost — what a 32-iteration
# session pays per 32 decisions — in time and in allocations (it was
# 3,102 per Server registration while every arm was three heap objects).
bench-check:
	$(PINNED) | $(GO) run ./cmd/benchjson -compare BENCH_experiments.json -pin '$(PINS)'

# The fixed-regime benchmark (bench/, a module of its own that root
# `go build ./...` never sees) must keep building against this tree and
# passing its own output checks: vet and test the harness, then run every
# workload at 1/1000 size — untraced, then traced, because only a traced
# run reaches the per-layer probes, which call far more of this tree's
# exported functions than the workloads themselves do. A change that
# renames something the harness calls, or breaks a digest or conservation
# check, fails here rather than in the pipeline that measures it.
bench-smoke:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...
	bash bench/run.sh -workload all -smoke
	bash bench/run.sh -workload all -smoke -trace 1

# Every workload at the size BENCHMARK.json registers, untraced, with the
# exit code as the verdict: the full-size output checks, including the
# 10,000 digested decisions a -smoke run is too short to reach. Takes
# minutes, so it is not part of check.
bench-full:
	bash bench/run.sh -workload all -seed 1

# CPU + allocation profiles of the decision path into results/profiles/,
# ready for `go tool pprof`. (Where the wire path's time goes is
# `bash bench/run.sh -workload v2_steady -trace 1`'s ladder.)
bench-profile:
	@mkdir -p results/profiles
	$(GO) test -run xxx -bench BenchmarkInprocDecision -benchtime 200000x \
		-cpuprofile results/profiles/decision_cpu.prof \
		-memprofile results/profiles/decision_mem.prof \
		-o results/profiles/server.test ./internal/server/
	@echo "profiles in results/profiles/ (decision_*.prof)"

# Full-size regeneration of the paper's evaluation into the tracked
# results/ directory. TestResultsCurrent (tier-1) fails while results/
# differs from what this writes; after running it, re-read EXPERIMENTS.md
# against the new files.
results:
	$(GO) run ./cmd/jouleguard replicate -out results

# Scaled-down fault-injection sweep: 3 benchmarks under every default
# chaos scenario, asserting the energy guarantee holds throughout.
chaos-smoke:
	$(GO) run ./cmd/chaos -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/batterylife
	$(GO) run ./examples/serversearch
	$(GO) run ./examples/customapp
	$(GO) run ./examples/approxhw
	$(GO) run ./examples/realmachine

# Removes what builds and runs write. results/ itself is tracked.
clean:
	rm -rf results/profiles .bench_build bench/out
