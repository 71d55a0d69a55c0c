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
# job fails.
echo '== chaos + recovery tests (-race -count=2)'
go test -race -count=2 \
    -run 'TestEnginePanic|TestEngineSourcePanic|TestEngineCheckpoint|TestEngineDrain|TestCheckpointRestore|TestCheckpointStale|TestSessionBreaker|TestClusterNodeKill|TestClusterHandoff|TestClusterLeave|TestClusterFlight' \
    ./internal/engine ./internal/live ./internal/llrp ./internal/cluster

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

# Short fuzz pass over the checkpoint decoder: corrupt files must decode
# to typed errors, never panic a daemon at boot. New crashers land in
# internal/supervise/testdata/fuzz for the workflow to archive.
echo '== checkpoint decoder fuzz smoke (10s)'
go test -run '^$' -fuzz FuzzDecodeCheckpoint -fuzztime 10s ./internal/supervise

# The exact AllocsPerRun assertions skip themselves under -race (the
# detector allocates on instrumented paths), so run them again pure.
# This covers the recognizer hot path, the disturbance scratch map,
# and the unsampled/sampled tracing paths (0 allocs per span).
echo '== alloc regression tests (pure build)'
go test -run 'Allocs' . ./internal/obs/trace

echo '== bench smoke (hot path + engine + columnar ingest + active segmentation poll, 1 iteration)'
go test -run '^$' -bench 'BenchmarkRecognizerIngestSteadyState|BenchmarkEngineMultiStream|BenchmarkStreamingIngest$|BenchmarkIngestBatch$|BenchmarkSegmenterActivePoll$' \
    -benchtime=1x -benchmem . ./internal/core | tee bench_smoke.txt
# The columnar batch path must stay allocation-free at steady state,
# and so must a segmentation poll while a user writes (the quiet
# ingest benchmarks leave at the segmenter's early exit and never reach
# that path): any allocation on either is a hot-path regression, so it
# fails the gate outright.
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

# Bench reports: stash the committed baselines, regenerate each report,
# then print a field-by-field before/after comparison. The diff is
# informational (machine noise would make a hard threshold flaky); the
# uploaded artifacts and the committed baselines carry the numbers.
echo '== bench reports (BENCH_engine / BENCH_cluster / BENCH_ingest)'
for name in engine cluster ingest; do
    if [ -f "BENCH_${name}.json" ]; then
        cp "BENCH_${name}.json" "BENCH_${name}.baseline.json"
    fi
done
go run ./cmd/rfipad-bench -engine -engine-streams 8 -engine-json BENCH_engine.json
go run ./cmd/rfipad-bench -cluster -cluster-nodes 3 -cluster-json BENCH_cluster.json
go run ./cmd/rfipad-bench -ingest -ingest-json BENCH_ingest.json
for name in engine cluster ingest; do
    if [ -f "BENCH_${name}.baseline.json" ]; then
        echo "== bench diff: ${name} (committed baseline -> this run)"
        go run ./cmd/rfipad-bench -diff "BENCH_${name}.baseline.json" "BENCH_${name}.json"
        rm -f "BENCH_${name}.baseline.json"
    fi
done

# Scenario-matrix accuracy gate: rerun the smoke matrix through the
# real pipeline (llrp server -> faultnet -> session -> engine) and diff
# it cell-by-cell against the committed baseline. Unlike the bench
# diffs above, this one is HARD: an accuracy/exact/recovery drop or a
# drop-rate rise beyond tolerance exits nonzero. The committed
# BENCH_scenarios.json is the floor of the observed run-to-run spread
# (flaky-link cells land at either 0.75 or 1.0 depending on where the
# reconnect cuts a letter), so tolerance 0.1 only has to absorb
# drop-rate jitter (~±0.006), not the bimodal accuracy swing.
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
