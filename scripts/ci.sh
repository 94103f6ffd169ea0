#!/bin/sh
# CI entry point: formatting check, vet, build, and the full test suite
# under the race detector. Mirrors `make ci` for environments without make.
set -eux

cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...
# Explicit timeout: the race detector slows internal/experiments ~10x past
# go test's default 10-minute per-package budget. -shuffle=on randomizes
# test order so inter-test state dependencies cannot hide.
go test -race -shuffle=on -timeout 45m ./...
# One-lot floor soak: repeat the netfloor and lotrun suites — one-lot
# servers over fault-injected remote sites and over local workers — under
# the race detector, so the timing-sensitive partition, failover,
# fallback, exactly-once, kill-resume and bit-identity tests see more than
# one scheduling.
go test -race -short -count=2 -timeout 30m ./internal/netfloor/ ./internal/lotrun/
# Multi-lot service soak: repeat the lotserver suite under the race
# detector — admission races, concurrent drain, crash-restart-resume and
# fair scheduling see more than one goroutine interleaving.
go test -race -count=2 -timeout 30m ./internal/lotserver/
# Versioned-calibration lifecycle soak: the model registry, shadow scoring,
# canary pinning, automatic rollback and journal version pinning repeated
# under the race detector, with the drift watchdog's tests: in-control
# ARL on real lna gate distances, index-order (deterministic) alarms,
# one drift-staged candidate per incumbent, and the gate's train_z
# baseline round-trip.
go test -race -count=2 -timeout 30m ./internal/modelreg/
go test -race -count=2 -timeout 30m -run 'Rollout|Shadow|Canary|Drift|Model' ./internal/lotserver/ ./internal/lotrun/ ./internal/floor/
# Storage-chaos soak: seeded disk faults (EIO, torn writes, ENOSPC,
# corrupt renames, latency) composed with network faults and transient
# worker panics over a multi-lot server run, under the race detector.
# Asserts committed bins bit-identical to the fault-free serial reference,
# every lot terminating with a full report or a typed error, and a dead
# journal degrading the lot (ErrJournalDegraded in report, /statusz and
# client) instead of aborting it. Fixed seeds; a failing schedule replays
# exactly with:
#   go test -race -run ChaosSoak ./internal/lotserver/ -args -chaosseed=<seed>
go test -race -count=2 -timeout 30m \
	-run 'ChaosSoak|JournalDegraded|DrainDegraded|ClientDegraded' ./internal/lotserver/
go test -race -count=2 -timeout 30m \
	-run 'CorruptArtifactTailSweep|ActivePrevFallback|FaultFSCorruptRename' ./internal/modelreg/
go test -race -count=2 -timeout 30m ./internal/diskfault/
go test -race -count=2 -timeout 30m -run 'Journal' ./internal/lotrun/
# Batched-kernel bit-identity: the ScreenBatch determinism contract at
# every layer — interleaved SoA kernel, batched acquirer, one-lot server
# on local workers and on remote sites, multi-lot server — under the race
# detector. PropertyRandom covers the randomized interleaved-vs-serial
# and mulOccInto-vs-Mul property suites.
go test -race -count=1 -timeout 30m \
	-run 'BitIdentity|ByteIdentical|CleanDRegression|BatchedServerBitIdentical|PropertyRandom|RunDevices' \
	./internal/rf/ ./internal/core/ ./internal/dsp/ \
	./internal/floor/ ./internal/lotrun/ ./internal/netfloor/ ./internal/lotserver/
# Bench smoke: one iteration of the pipeline and batched-kernel
# benchmarks, which also assert parallel/batched results bit-identical to
# serial.
go test -run '^$' -bench 'Calibrate|GA|ScreenBatch' -benchtime 1x .
# Batched-kernel speed gate: a same-process ratio, so it holds on any
# host — K=16 ScreenBatch must be >= 5x faster per device than the serial
# ScreenDevice loop on one lot. Not under -race, which distorts the ratio.
go test -count=1 -run '^TestScreenBatchSpeedup$' ./internal/floor/
