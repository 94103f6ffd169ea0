# Repo-wide build/test entry points. `make ci` (which scripts/ci.sh runs)
# is the one list of CI steps: formatting check, vet, build, the full test
# suite under the race detector (the floor engine's fault injector, the
# lot server's worker pool and the retest loop must stay race-clean), the
# soaks below, the batched bit-identity suites under -race and the speed
# gates. Performance is measured by lotbench (`bash lotbench/run.sh`, see
# BENCHMARK.json), not here.

GO ?= go

.PHONY: all fmt fmtcheck vet build test race netsoak lotsoak rolloutsoak chaossoak bitidentity speedup profile ci

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
# Asserts committed bins bit-identical to the fault-free serial reference,
# every lot terminating with a full report or a typed error, and a dead
# journal degrading the lot (ErrJournalDegraded in report, /statusz and
# client) instead of aborting it. Every schedule is a pure function of its
# seed; replay one failing schedule with:
#   go test -race -run ChaosSoak ./internal/lotserver/ -args -chaosseed=<seed>
chaossoak:
	$(GO) test -race -count=2 -timeout 30m \
		-run 'ChaosSoak|JournalDegraded|DrainDegraded|ClientDegraded' ./internal/lotserver/
	$(GO) test -race -count=2 -timeout 30m \
		-run 'CorruptArtifactTailSweep|ActivePrevFallback|FaultFSCorruptRename' ./internal/modelreg/
	$(GO) test -race -count=2 -timeout 30m ./internal/diskfault/
	$(GO) test -race -count=2 -timeout 30m -run 'Journal' ./internal/lotrun/

# Bit-identity: the ScreenBatch determinism contract at every layer —
# interleaved SoA kernel, batched acquirer (and the batched
# training/validation acquisitions), one-lot server on local workers and
# on remote sites, multi-lot server — and the MARS forward pass against
# its SVD-per-candidate reference, under the race detector.
# PropertyRandom covers the randomized interleaved-vs-serial and
# mulOccInto-vs-Mul property suites; LotResultBatchInvariant asserts the
# whole lot result (bins, breaker trips, quarantine, journal charges) is
# equal at K = 1, 3, 16 and 64, and LotResultBatchInvariantTwoWorkers
# every worker-independent field of it on two local workers;
# MARSFitBitIdentity covers randomized fits and every fit of
# core.Calibrate and core.CalibrateDiagnosis on both rigs.
bitidentity:
	$(GO) test -race -count=1 -timeout 30m \
		-run 'BitIdentity|ByteIdentical|CleanDRegression|BatchedServerBitIdentical|PropertyRandom|RunDevices|LotResultBatchInvariant|LotResultBatchInvariantTwoWorkers' \
		./internal/rf/ ./internal/core/ ./internal/dsp/ ./internal/regress/ \
		./internal/floor/ ./internal/lotrun/ ./internal/netfloor/ ./internal/lotserver/

# Speed gates: same-process ratios, so they hold on any host — K=16
# ScreenBatch must be >= 5x faster per device than the serial ScreenDevice
# loop on one lot, the GA's batched SignatureSensitivity >= 5x faster than
# a serial Acquire loop (with A_s bit-identical; an accidental fallback to
# the per-device path reads ~1x), and MARS.Fit >= 3x faster than the
# SVD-per-candidate reference on lna fold data (a fallback to an SVD per
# candidate reads ~1x). Not under -race, which distorts the ratio.
speedup:
	$(GO) test -count=1 -run '^TestScreenBatchSpeedup$$' ./internal/floor/
	$(GO) test -count=1 -run '^TestSignatureSensitivityBatched$$' ./internal/core/
	$(GO) test -count=1 -run '^TestMARSFitSpeedup$$' ./internal/regress/

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

ci: fmtcheck vet build race netsoak lotsoak rolloutsoak chaossoak bitidentity speedup
