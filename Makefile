# Convenience targets for the JouleGuard reproduction.

GO ?= go

# The smoke targets pipe loadgen through benchjson; without pipefail a
# failed -check exit would be masked by the pipe's last command.
SHELL := /usr/bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: all build vet lint check test test-race race churn-race fuzz bench bench-check bench-smoke bench-profile replicate examples chaos-smoke serve-smoke cluster-smoke chaos-cluster hotpath-smoke obs-smoke meter-smoke qos-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Lint: gofmt must leave no file unformatted, and vet must be clean.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

# The pre-merge gate: formatting + vet + the race-detector pass + the
# full-size shard-churn race test + the time-boxed fuzz targets + the
# daemon, fleet and hot-path smoke tests + the coordinator-failover
# chaos run + the benchmark harness's own build, tests and output checks.
check: lint race churn-race fuzz serve-smoke cluster-smoke hotpath-smoke chaos-cluster obs-smoke meter-smoke qos-smoke bench-smoke

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Race-detector pass over the packages that share state across the
# experiment worker pool: the pool itself, the drivers, and the caches —
# plus the daemon, which shares sessions and the budget broker across
# request handlers, the client, whose sessions share a pool of idle v2
# streams, and the bandit and runtime, whose instances are copied from
# shared prior tables.
race:
	$(GO) test -race ./internal/par/ ./internal/experiments/ ./internal/platform/ ./internal/learning/ ./internal/core/ ./internal/server/ ./internal/client/ ./internal/cluster/ ./internal/load/ ./internal/measure/ ./internal/qos/ .

# The full-size (10k-session) shard-churn test under the race detector:
# the concurrent registry/broker workload the sharded session map exists
# for. `race` above already runs it at -short scale; this is the
# pre-merge full run.
churn-race:
	$(GO) test -race -run TestShardChurnRace ./internal/server/

# Time-boxed fuzzing of the recovery parsers, seeded from a real
# snapshot: damaged snapshot streams into Restore and damaged checkpoint
# blobs into the session rebuild path. Truncated or bit-flipped input
# must come back as an error — never a panic, never a live session. (go
# test takes one -fuzz target per run, hence two steps; a failing input
# lands in internal/server/testdata/fuzz/ as a regression case.)
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime=10s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreState$$' -fuzztime=10s ./internal/server/

# Daemon smoke test under the race detector: selfhost the daemon, drive
# 8 concurrent tenants for 200 iterations each, restart the daemon
# mid-run from a snapshot, and assert every tenant lands within 105% of
# its grant. Latency quantiles are folded into BENCH_experiments.json.
serve-smoke:
	$(GO) run -race ./cmd/loadgen -tenants 8 -iters 200 -restart-at 800 -check 1.05 \
		| $(GO) run ./cmd/benchjson -merge BENCH_experiments.json > BENCH_experiments.json.tmp
	@mv BENCH_experiments.json.tmp BENCH_experiments.json
	@echo "serve-smoke passed; latency snapshot in BENCH_experiments.json"

# Fleet smoke test under the race detector: run an in-process coordinator
# plus 3 member daemons, drive 12 tenants through coordinator placement,
# kill the busiest node once 360 iterations completed fleet-wide, and
# assert every tenant still lands within 105% of its grant after
# failover. Decision-latency and failover-time quantiles are merged into
# BENCH_experiments.json alongside the single-daemon numbers.
cluster-smoke:
	$(GO) run -race ./cmd/loadgen -cluster -nodes 3 -tenants 12 -iters 60 \
		-apps radar -platform Tablet -kill-at 360 -check 1.05 \
		| $(GO) run ./cmd/benchjson -merge BENCH_experiments.json > BENCH_experiments.json.tmp
	@mv BENCH_experiments.json.tmp BENCH_experiments.json
	@echo "cluster-smoke passed; failover quantiles merged into BENCH_experiments.json"

# Control-plane chaos under the race detector: the same fleet, but the
# coordinator itself is killed after 240 iterations and a WAL-tailing
# standby promotes (bumping the fencing epoch); a node kill at 480 then
# forces clients through coordinator rotation on the new primary. Every
# tenant must still land within 105% of its grant, and the failover
# quantiles are merged into BENCH_experiments.json.
chaos-cluster:
	$(GO) run -race ./cmd/loadgen -cluster -nodes 3 -tenants 12 -iters 60 \
		-apps radar -platform Tablet -kill-coordinator-at 240 -kill-at 480 -check 1.05 \
		| $(GO) run ./cmd/benchjson -merge BENCH_experiments.json > BENCH_experiments.json.tmp
	@mv BENCH_experiments.json.tmp BENCH_experiments.json
	@echo "chaos-cluster passed; coordinator-failover quantiles merged into BENCH_experiments.json"

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
		-kill-coordinator-at 240 -check 1.05 > /dev/null
	@echo "obs-smoke passed: cross-node trace join + provenance conservation through coordinator failover"

# Measurement smoke under the race detector: selfhost the daemon with
# the calibrated simulated meter as the billed energy source (client
# readings become physical stimulus) and seeded counter faults injected
# into it. Asserts every tenant lands within 105% of its grant on
# meter-attributed joules alone, and that the plausibility gate rejected
# the injected faults without billing a corrupted sample. Calibration
# and gate tallies are merged into BENCH_experiments.json.
meter-smoke:
	$(GO) run -race ./cmd/loadgen -tenants 8 -iters 200 -meter sim -meter-faults -check 1.05 \
		| $(GO) run ./cmd/benchjson -merge BENCH_experiments.json > BENCH_experiments.json.tmp
	@mv BENCH_experiments.json.tmp BENCH_experiments.json
	@echo "meter-smoke passed; calibration + gate tallies merged into BENCH_experiments.json"

# Tenant-protection smoke under the race detector: selfhost the daemon
# with the QoS ladder enabled and one adversarial tenant claiming ten
# honest tenants' worth of the pool under the best-effort tier. Asserts
# the adversary drew enforcement denials (including at least one shed —
# best-effort is sacrificed first, the guaranteed honest tenants never)
# while every honest tenant landed within 105% of its grant with its
# accuracy floor untouched. Enforcement tallies merge into
# BENCH_experiments.json.
qos-smoke:
	$(GO) run -race ./cmd/loadgen -tenants 6 -adversaries 1 -tier guaranteed -iters 300 \
		-qos-shed-at 0.5 -check 1.05 -expect-shed \
		| $(GO) run ./cmd/benchjson -merge BENCH_experiments.json > BENCH_experiments.json.tmp
	@mv BENCH_experiments.json.tmp BENCH_experiments.json
	@echo "qos-smoke passed; enforcement tallies merged into BENCH_experiments.json"

# Hot-path smoke: the v2 binary frame stream end to end. A closed-loop
# pass pins correctness-under-batching (every tenant within 105% of its
# grant over DoneNext frames), then an open-loop pass measures sustained
# decisions/s and the in-process pass isolates the governor itself; all
# three land in BENCH_experiments.json.
hotpath-smoke:
	$(GO) run -race ./cmd/loadgen -tenants 8 -iters 200 -v2 -check 1.05 \
		| $(GO) run ./cmd/benchjson -merge BENCH_experiments.json > BENCH_experiments.json.tmp
	@mv BENCH_experiments.json.tmp BENCH_experiments.json
	$(GO) run ./cmd/loadgen -tenants 8 -v2 -open-loop 3s \
		| $(GO) run ./cmd/benchjson -merge BENCH_experiments.json > BENCH_experiments.json.tmp
	@mv BENCH_experiments.json.tmp BENCH_experiments.json
	$(GO) run ./cmd/loadgen -inproc -tenants 8 -open-loop 3s \
		| $(GO) run ./cmd/benchjson -merge BENCH_experiments.json > BENCH_experiments.json.tmp
	@mv BENCH_experiments.json.tmp BENCH_experiments.json
	@echo "hotpath-smoke passed; v2 wire + in-process numbers merged into BENCH_experiments.json"

# One scaled-down benchmark pass over every table/figure + ablations,
# leaving a machine-readable timing snapshot in BENCH_experiments.json.
bench:
	$(GO) test -run xxx -bench . -benchmem ./... | $(GO) run ./cmd/benchjson > BENCH_experiments.json

# Perf regression gate: re-measure the pinned hot-path benchmarks and
# fail if any got >20% slower than the committed snapshot — or allocates
# where the snapshot says it must not (the wire codecs and the decision
# path are pinned at 0 allocs/op). The bandit and telemetry pins are the
# two cases the decision path was once slow in: an observation that makes
# the best arm's estimate dip, and every core reporting at once. The
# RegisterClose pin is a session's fixed cost — what a 32-iteration
# session pays per 32 decisions — in time and in allocations (it was
# 3,102 per Server registration while every arm was three heap objects).
# -p 1: the packages' benchmarks run one after another, not against each
# other.
bench-check:
	$(GO) test -p 1 -run xxx -bench 'BenchmarkFrame|BenchmarkInprocDecision|BenchmarkSessionLookup|BenchmarkRegisterClose|BenchmarkBanditObserveChampion|BenchmarkTelemetryLiveSinkParallel' \
		-benchmem ./internal/wire/ ./internal/server/ ./internal/learning/ ./internal/telemetry/ \
		| $(GO) run ./cmd/benchjson -compare BENCH_experiments.json \
			-pin 'Frame|InprocDecision|SessionLookup|RegisterClose|BanditObserveChampion|TelemetryLiveSinkParallel'

# The fixed-regime benchmark (bench/, a module of its own that root
# `go build ./...` never sees) must keep building against this tree and
# passing its own output checks: vet and test the harness, then run every
# workload at 1/1000 size. A change that renames something the harness
# calls, or breaks a digest or conservation check, fails here rather than
# in the pipeline that measures it.
bench-smoke:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...
	bash bench/run.sh -workload all -smoke

# CPU + allocation profiles of the decision path into results/profiles/,
# ready for `go tool pprof`.
bench-profile:
	@mkdir -p results/profiles
	$(GO) test -run xxx -bench BenchmarkInprocDecision -benchtime 200000x \
		-cpuprofile results/profiles/decision_cpu.prof \
		-memprofile results/profiles/decision_mem.prof ./internal/server/
	$(GO) run ./cmd/loadgen -tenants 8 -v2 -open-loop 3s \
		-cpuprofile results/profiles/wire_cpu.prof \
		-memprofile results/profiles/wire_mem.prof > /dev/null
	@echo "profiles in results/profiles/ (decision_*.prof, wire_*.prof)"

# Full-size regeneration of the paper's evaluation into results/.
replicate:
	$(GO) run ./cmd/replicate

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

clean:
	rm -rf results
