#!/bin/sh
# CI gate: vet, lint, build, and race-test the whole module.
# Usage: scripts/ci.sh  (from the repo root or anywhere inside it)
#
# staticcheck and govulncheck run when present on PATH (the GitHub
# workflow installs them); locally they are skipped with a note rather
# than failing, so the gate needs nothing beyond the Go toolchain.
set -eu

cd "$(dirname "$0")/.."

echo '== go vet ./...'
go vet ./...

if command -v staticcheck >/dev/null 2>&1; then
    echo '== staticcheck ./...'
    staticcheck ./...
else
    echo '== staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)'
fi

if command -v govulncheck >/dev/null 2>&1; then
    echo '== govulncheck ./...'
    govulncheck ./...
else
    echo '== govulncheck: not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)'
fi

echo '== go build ./...'
go build ./...

# One reading payload type: the engine moves readings only as columnar
# core.ReadingBatch values, and the simulator, the experiments, replay,
# the commands, the examples and the root API carry the reports a reader
# emits (llrp.TagReport), decoded into batches by live.AppendReports. A
# reading record in their non-test code would bring back a second
# payload. core, live and cluster still hold the record-taking calls the
# benchmark module uses, so they are left out. The word match passes
# core.ReadingBatch.
echo '== payload guard (no core.Reading outside core, live and cluster)'
if find internal/engine internal/sim internal/experiments internal/replay cmd examples rfipad.go \
    -name '*.go' ! -name '*_test.go' -exec grep -HnwE 'core\.Reading' {} +; then
    echo 'FAIL: a reading record is back; the only reading payloads are llrp.TagReport and core.ReadingBatch'
    exit 1
fi

echo '== go test -race -shuffle=on ./...'
go test -race -shuffle=on ./...

# The self-healing paths are timing-sensitive (panic quarantine, drain
# deadlines, kill/restore); run them twice under the race detector so a
# flaky interleaving fails the gate instead of slipping through. The
# cluster node-kill chaos tests ride along: heartbeat failure
# detection and checkpoint handoff are nothing but timing. The trace
# and flight-recorder chaos tests (stitched traces, anomaly dumps) are
# part of the same set; with RFIPAD_FLIGHT_DIR exported (the workflow
# does), their flight.jsonl dumps survive for artifact upload when the
# job fails. So are the buffer-release tests: a drain that releases every
# stream but the one its final flush quarantined, and an evict whose
# checkpoint must survive its stream's buffers going to the next stream.
# The two end-to-end chaos tests run rfipad-live's production path (a
# one-worker engine draining a session) over a faulted link. A join's
# sticky rebalance migrates live streams, and a panicking source must
# end its stream with an error on the cluster path as on the engine's.
# The one drain loop's exit rules run through the engine, the cluster
# and the bare loop; a flush that arrives mid-migration must survive
# the handoff, and a flush that waits on a full mailbox must never hold
# the coordinator lock (routing and heartbeats keep going); a refused
# drained push must go back to the pool; and rfipad-live's one runner
# drives both modes against an in-process reader daemon.
echo '== chaos + recovery tests (-race -count=2)'
go test -race -count=2 \
    -run 'TestEnginePanic|TestEngineSourcePanic|TestEngineCheckpoint|TestEngineDrain|TestEngineRelease|TestEndToEndChaos|TestCheckpointRestore|TestCheckpointStale|TestSessionBreaker|TestClusterNodeKill|TestClusterHandoff|TestClusterLeave|TestClusterJoin|TestClusterFlight|TestClusterSourcePanic|TestDrainExitRules|TestClusterFlushDuringMigration|TestClusterFlushNeverBlocks|TestRunStreamPush|TestRunModes' \
    ./internal/engine ./internal/llrp ./internal/cluster ./cmd/rfipad-live

# Split-brain containment: asymmetric partitions (heartbeats severed,
# data paths up), zombie owners whose watchdog is suspended, epoch
# continuity across a coordinator restart, and a handoff whose ack is
# eaten by a one-way partition. These pin the lease/fencing invariant —
# no two nodes are ever active writers for one stream — so they run
# twice under the race detector like the rest of the chaos set.
echo '== partition chaos tests (-race -count=2)'
go test -race -count=2 \
    -run 'TestClusterZombie|TestClusterAsymmetric|TestClusterCoordinatorRestart|TestClusterHandoffOneWay|TestEngineFenced|TestDropWrites|TestDropReads' \
    ./internal/engine ./internal/cluster ./internal/faultnet

# The boundaries those invariants rest on: heartbeat expiry and the
# detector's period floor, lease clamping and the node lease table, and
# the store's fenced save, path disambiguation, epoch round trip and
# legacy decode.
echo '== lease, detector and store boundary tests (-race -count=2)'
go test -race -count=2 \
    -run 'TestHeartbeatExpired|TestMonitorPeriod|TestLeaseConfig|TestNodeLeaseTable|TestStoreSaveFenced|TestStorePathCollision|TestStoreEpoch|TestDecodeCheckpointLegacy' \
    ./internal/cluster ./internal/supervise

# Short fuzz pass over the checkpoint decoder: corrupt files must decode
# to typed errors, never panic a daemon at boot. New crashers land in
# internal/supervise/testdata/fuzz for the workflow to archive.
echo '== checkpoint decoder fuzz smoke (10s)'
go test -run '^$' -fuzz FuzzDecodeCheckpoint -fuzztime 10s ./internal/supervise

# Short fuzz pass over the streaming segmentation: random trace edits
# (appends, rewrites from a watermark, trims, horizon jumps) must leave
# the incremental spans and every maintained multiset equal to a
# from-scratch segmentation. New crashers land in
# internal/core/testdata/fuzz.
echo '== incremental segmentation fuzz smoke (10s)'
go test -run '^$' -fuzz FuzzSegmentRMSFromMatchesFromScratch -fuzztime 10s ./internal/core

# Short fuzz pass over the one Eq. 11: the frame cache folded over a
# capture (any reading order, duplicates, out-of-range tags and times,
# dead tags, starts off the frame grid) must equal the batch reference
# bit for bit. New crashers land in internal/core/testdata/fuzz.
echo '== frame trace fuzz smoke (10s)'
go test -run '^$' -fuzz FuzzFrameTraceMatchesReference -fuzztime 10s ./internal/core

# Short fuzz pass over the one-pass Eq. 8–10 kernel: on any tag run
# (NaN and infinite phases, huge angles, a NaN mean, lengths from 0)
# it must equal Wrap → UnwrapInto → MovingAverage →
# TotalVariation/NetChange bit for bit, and the one-pass circular
# statistics must equal CircularMean and CircularStd. New crashers land
# in internal/dsp/testdata/fuzz.
echo '== disturbance kernel fuzz smoke (10s)'
go test -run '^$' -fuzz FuzzPhaseVariationMatchesComposition -fuzztime 10s ./internal/dsp

# Short fuzz pass over the stream clock, the one place a reading's
# stamp is judged late or ahead: a stream with regressions, duplicates,
# equal times, out-of-range tags, readings stamped ahead and real clock
# jumps must recognize the same with and without lone outliers stamped
# far ahead or behind, between a jump's first two readings included,
# and count each outlier once. The late horizon is also what lets a
# stream retire frame accumulators and history. New crashers land in
# internal/core/testdata/fuzz.
echo '== stream clock fuzz smoke (10s)'
go test -run '^$' -fuzz FuzzClockLoneOutliersCostNothing -fuzztime 10s ./internal/core

# Short fuzz passes over the LLRP wire path: the frame parser must
# never panic, and a stream of frames read through one reused frame
# buffer, in reads of any size, must give exactly the messages and the
# error that fresh ReadMessage calls give; the in-place report encoder
# and decoder must match the per-field reference loops bit for bit.
# New crashers land in internal/llrp/testdata/fuzz.
echo '== LLRP frame and report codec fuzz smoke (10s each)'
go test -run '^$' -fuzz FuzzReadMessage -fuzztime 10s ./internal/llrp
go test -run '^$' -fuzz FuzzDecodeReports -fuzztime 10s ./internal/llrp

# The exact AllocsPerRun assertions skip themselves under -race (the
# detector allocates on instrumented paths), so run them again pure.
# This covers the recognizer hot path, the disturbance scratch map,
# one stroke window and one letter composition (bounded counts), the
# cluster intake (Cluster.Push through the owner's shard), the
# unsampled/sampled tracing paths (0 allocs per span), the LLRP wire
# path (0 allocs per 290-report frame through an in-process reader
# daemon and session, both ends counted), live.AppendReports (one
# allocation per column for a batch it grows, none for one with room),
# and TestRecycledStreamAllocs: a stream built after another is released
# allocates at most a tenth of the first one's bytes (skipped under
# -race, where sync.Pool drops Puts at random).
echo '== alloc regression tests (pure build)'
go test -run 'Allocs' . ./internal/obs/trace ./internal/llrp ./internal/live

# BenchmarkRecognizeWindow recognizes one stroke window per op, so the
# log shows the per-stroke ns/op and allocs/op.
echo '== bench smoke (hot path + engine + columnar ingest + active segmentation poll + stroke window, 1 iteration)'
go test -run '^$' -bench 'BenchmarkRecognizerIngestSteadyState|BenchmarkEngineMultiStream|BenchmarkStreamingIngest$|BenchmarkIngestBatch$|BenchmarkSegmenterActivePoll$|BenchmarkRecognizeWindow$' \
    -benchtime=1x -benchmem . ./internal/core | tee bench_smoke.txt
# The columnar batch path must stay allocation-free at steady state,
# and so must a segmentation poll while a user writes, with and without
# a threshold move (the quiet ingest benchmarks leave at the segmenter's
# early exit and never reach that path): any allocation on either is a
# hot-path regression, so it fails the gate outright.
for b in BenchmarkIngestBatch BenchmarkSegmenterActivePoll; do
    if ! grep "$b" bench_smoke.txt | grep -q ' 0 allocs/op'; then
        echo "FAIL: $b allocates on the steady-state workload"
        exit 1
    fi
done

# The benchmark is a module of its own (bench/go.mod), so the vet and
# test runs above do not build it: a changed public call it uses would
# otherwise only break at benchmark time.
echo '== benchmark module (vet + harness tests)'
(cd bench && go vet ./... && go test ./...)

# Scenario-matrix accuracy gate: rerun the smoke matrix through the
# real pipeline (llrp server -> faultnet -> session -> engine) and diff
# it cell-by-cell against the committed baseline. The gate is HARD: an
# accuracy/exact/recovery drop or a drop-rate rise beyond tolerance
# exits nonzero, and so does an input that is not a scenario report of
# this schema and version. The committed BENCH_scenarios.json is the
# floor of the observed run-to-run spread (flaky-link cells land at
# either 0.75 or 1.0 depending on where the reconnect cuts a letter),
# so tolerance 0.1 only has to absorb drop-rate jitter (~±0.006), not
# the bimodal accuracy swing.
echo '== scenario matrix accuracy gate (smoke preset)'
go run ./cmd/rfipad-bench -scenarios -scenarios-json BENCH_scenarios.ci.json
go run ./cmd/rfipad-bench -diff -diff-accuracy-tol 0.1 BENCH_scenarios.json BENCH_scenarios.ci.json

# Self-test the gate: inject an accuracy collapse into the fresh report
# and assert the diff flags it. The no-fault/full-grid cells are pinned
# at accuracy 1 in every run, so the sed always has a target; if the
# tampered diff passes, the gate itself has regressed.
sed 's/"accuracy": 1,/"accuracy": 0.1,/' BENCH_scenarios.ci.json > BENCH_scenarios.tampered.json
if go run ./cmd/rfipad-bench -diff -diff-accuracy-tol 0.1 BENCH_scenarios.json BENCH_scenarios.tampered.json >/dev/null 2>&1; then
    echo 'FAIL: scenario diff did not flag an injected accuracy regression'
    exit 1
fi
echo '== scenario gate self-test: injected regression caught'
rm -f BENCH_scenarios.tampered.json

echo 'CI OK'
