# Repo-wide build/test entry points. `make ci` is what the CI script runs:
# formatting check, vet, build, and the full test suite under the race
# detector (the floor engine's fault injector, the lot server's worker
# pool and the retest loop must stay race-clean).

GO ?= go

.PHONY: all fmt fmtcheck vet build test race netsoak lotsoak rolloutsoak chaossoak speedup bench profile ci

all: build

fmt:
	gofmt -w .

fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector slows internal/experiments ~10x past go test's default
# 10-minute per-package timeout, hence the explicit budget. -shuffle=on
# randomizes test order so inter-test state dependencies cannot hide.
race:
	$(GO) test -race -shuffle=on -timeout 45m ./...

# One-lot floor soak: the netfloor and lotrun suites — one-lot servers
# over fault-injected remote sites and over local workers — repeated
# under the race detector, so the timing-sensitive partition, failover,
# fallback, exactly-once, kill-resume and bit-identity tests see more than
# one scheduling.
netsoak:
	$(GO) test -race -short -count=2 -timeout 30m ./internal/netfloor/ ./internal/lotrun/

# Multi-lot service soak: the lotserver suite repeated under the race
# detector — admission races, concurrent drain, crash-restart-resume and
# fair scheduling see more than one goroutine interleaving.
lotsoak:
	$(GO) test -race -count=2 -timeout 30m ./internal/lotserver/

# Versioned-calibration lifecycle soak: the model registry, shadow
# scoring, canary pinning, automatic rollback and journal version pinning
# repeated under the race detector — the rollout state machine and the
# shadow worker race against live commits and kill-restart — with the
# drift watchdog's tests: in-control ARL on real lna gate distances,
# index-order (deterministic) alarms, one drift-staged candidate per
# incumbent, and the gate's train_z baseline round-trip.
rolloutsoak:
	$(GO) test -race -count=2 -timeout 30m ./internal/modelreg/
	$(GO) test -race -count=2 -timeout 30m -run 'Rollout|Shadow|Canary|Drift|Model' ./internal/lotserver/ ./internal/lotrun/ ./internal/floor/

# Storage-chaos soak: seeded disk faults (EIO, torn writes, ENOSPC,
# corrupt renames, latency) composed with network faults and transient
# worker panics over a multi-lot server run, under the race detector.
# Asserts committed bins bit-identical to the fault-free serial reference
# and every lot terminating with a full report or a typed error. Every
# schedule is a pure function of its seed; replay one failing schedule
# with:
#   go test -race -run ChaosSoak ./internal/lotserver/ -args -chaosseed=<seed>
chaossoak:
	$(GO) test -race -count=2 -timeout 30m \
		-run 'ChaosSoak|JournalDegraded|DrainDegraded|ClientDegraded' ./internal/lotserver/
	$(GO) test -race -count=2 -timeout 30m \
		-run 'CorruptArtifactTailSweep|ActivePrevFallback|FaultFSCorruptRename' ./internal/modelreg/
	$(GO) test -race -count=2 -timeout 30m ./internal/diskfault/
	$(GO) test -race -count=2 -timeout 30m -run 'Journal' ./internal/lotrun/

# Serial-vs-parallel benchmarks: the off-line calibration pipeline
# (BENCH_pipeline.json), the multi-lot screening service
# (BENCH_server.json: throughput plus p50/p95/p99 device latency) and the
# batched screening kernel (BENCH_batch.json: devices/sec at
# K=1/4/16/64). All assert the parallel/batched results bit-identical to
# the serial ones before reporting.
bench:
	$(GO) test -run '^$$' -bench '^(BenchmarkCalibrate|BenchmarkGA|BenchmarkServe|BenchmarkShadowScreen|BenchmarkScreenBatch)$$' -benchtime 2x .
	@echo "--- BENCH_pipeline.json"; cat BENCH_pipeline.json
	@echo "--- BENCH_server.json"; cat BENCH_server.json
	@echo "--- BENCH_batch.json"; cat BENCH_batch.json

# Batched-kernel speed gate: a same-process ratio, so it holds on any
# host — K=16 ScreenBatch must be >= 5x faster per device than the serial
# ScreenDevice loop on one lot (an accidental fallback to the per-device
# path reads ~1x). Not under -race, which distorts the ratio.
speedup:
	$(GO) test -count=1 -run '^TestScreenBatchSpeedup$$' ./internal/floor/

# CPU profile of the batched production floor: build sigtest, screen a
# 200-device behavioral lot on a 2-site one-lot server — batches of
# floor.DefaultBatch (16) devices, one tile of the device-interleaved SoA
# kernel, so the interleaved hot loops (runTile, macPlanes,
# macPairRealLO, firDecimateTile) show up by name — and print the hottest
# frames. floor.pprof is left behind for `go tool pprof` drill-down; drop
# -sites 2 to profile the serial reference (Engine.RunLot).
profile:
	$(GO) build -o bin/sigtest ./cmd/sigtest
	./bin/sigtest -dut rf2401 -quick -produce 200 -faults -sites 2 -cpuprofile floor.pprof
	$(GO) tool pprof -top -nodecount 15 bin/sigtest floor.pprof

ci: fmtcheck vet build race netsoak lotsoak rolloutsoak chaossoak speedup
