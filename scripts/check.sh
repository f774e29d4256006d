#!/usr/bin/env sh
# check.sh — correctness gate for this repo: tier-1, vet, and the race-
# instrumented robustness suites.
#
# Runs, in order, failing fast on the first error:
#   1. gofmt -l: the tree must be gofmt-clean
#   2. tier-1: go build ./... && go test ./...
#   3. go vet ./...
#   4. go test -race on the runtime-facing packages (the public stm API,
#      core, and every algorithm backend) — this is where the chaos,
#      panic-rollback, escalation, and adaptive engine-switch suites live.
#      The race pass runs the chaos suites in -short mode by default; set
#      CHECK_LONG=1 to run the full-size chaos sweep (heavier, minutes not
#      seconds).
#   5. the allocation gate: every BenchmarkBarrier* sub-benchmark — the
#      barrier shapes and the all-engine BenchmarkBarrierZeroAlloc lifecycle
#      matrix — must report exactly 0 allocs/op. The 5000x fixed iteration
#      count is load-bearing: one warm-up allocation amortizes to <0.5
#      allocs/op (which -benchmem truncates to 0) only at high counts, while
#      a genuine per-transaction allocation still shows as ≥1.
#   6. a bench-compare smoke: a tiny 2-thread baseline (40ms cells) is
#      captured and diffed against itself, so the BENCH_*.json plumbing and
#      the regression (throughput + allocs/tx) gate are exercised on every
#      check.
#   7. the shard-scaling gate: the 32-shard sharded runtime, running
#      single-shard transactions only, must out-commit the 1-shard cell by
#      at least 8x on both micro-benchmarks (NOrec, 32 workers under the
#      interleave simulation) — the PR6 acceptance bar defending the
#      per-shard-clock design against accidental cross-shard coupling.
#   8. the crash-recovery matrix, quick subset: one deterministic seed of
#      the chaos suite under the site-paired fsync policies (run
#      scripts/crash_matrix.sh for the full seeds x sites x policies sweep).
#   9. the durability-overhead gate: the durable sharded bank under the
#      "interval" fsync policy must keep >= 0.65 of the volatile cell's
#      throughput at 32 shards — the PR7 acceptance bar defending the
#      off-commit-path fsync design (background flusher, scaled window).
#  10. the instrumentation-cost gate: on the capacity-edge hashtable scan,
#      HyTM's uninstrumented fast path must out-commit classic fully
#      instrumented HTM by >= 1.5x — the PR8 acceptance bar defending the
#      progressive fast path (the instrumented engine's tracked footprint
#      overflows the simulated hardware budget; the fast path's first-touch
#      footprint fits and commits in hardware).
#  11. the privatization gate: on the snapshot-analytics workload under the
#      interleave simulation, a privatized scan (flip the buffer with
#      AtomicallyPrivatize, then read it raw) must out-scan the fully
#      instrumented transactional scan by >= 5x — the PR9 acceptance bar
#      defending the privatization barrier as the cheap way to read big
#      snapshots out from under live writers.
#  12. the reclamation gate: three sampled windows of single-threaded
#      NewVar -> Atomically -> Retire churn must hold runtime.MemStats
#      HeapAlloc steady (<= 10% growth + fixed slack from window 1 to 3,
#      with Reclaimed > 0) — the PR9 acceptance bar defending epoch-based
#      reclamation actually recycling cells instead of leaking them.
#  13. the commit-coalescing gate: the counter-heavy load generator at 1024
#      simulated connections over a durable 8-shard store (fsync "always")
#      must run >= 3x faster through the per-shard batcher than per-request
#      — the PR10 acceptance bar defending request coalescing actually
#      amortizing the commit + WAL-fsync path.
#  14. the repo benchmark's own tests: perfbench/ is a separate Go module
#      (outside `go test ./...`), so its correctness checks run here
#      explicitly (~6s).
#  15. the wire decoder fuzz, time-bounded: FuzzDecodeRequest mutates request
#      lines from seeds written in internal/server/codec_test.go and checks
#      the hand-written decoder against the encoding/json oracle kept there
#      (10s; the seed lines alone already run in tier-1).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l =="
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "== tier-1: go build ./... =="
go build ./...

echo "== tier-1: go test ./... =="
go test ./...

echo "== go vet ./... =="
go vet ./...

RACE_PKGS="./stm/... ./internal/core/... ./internal/norec/... ./internal/tl2/... ./internal/ringstm/... ./internal/htm/... ./internal/sgl/... ./internal/shard/... ./internal/wal/... ./internal/server/..."

if [ "${CHECK_LONG:-0}" = "1" ]; then
    echo "== go test -race (full chaos sweep) =="
    # shellcheck disable=SC2086
    go test -race -count=1 $RACE_PKGS
else
    echo "== go test -race -short (set CHECK_LONG=1 for the full sweep) =="
    # shellcheck disable=SC2086
    go test -race -short -count=1 $RACE_PKGS
fi

echo "== allocation gate: BenchmarkBarrier* must be 0 allocs/op =="
ALLOC_OUT="$(go test ./stm -run '^$' -bench 'BenchmarkBarrier' -benchtime 5000x -benchmem)"
echo "$ALLOC_OUT" | awk '
    /^BenchmarkBarrier/ {
        if ($(NF-1) + 0 != 0 || $NF != "allocs/op") {
            print "ALLOC REGRESSION: " $0
            bad = 1
        }
    }
    END { exit bad }
' || { echo "allocation gate failed (see lines above)" >&2; exit 1; }

echo "== bench-compare smoke (40ms cells, 2 threads) =="
SMOKE="$(mktemp -t bench_smoke.XXXXXX.json)"
trap 'rm -f "$SMOKE"' EXIT
go run ./cmd/semstm-bench -json "$SMOKE" -dur 40ms -threads 2 -reps 1 >/dev/null
go run ./cmd/bench-compare "$SMOKE" "$SMOKE" >/dev/null

echo "== shard-scaling gate (32 shards must be >= 8x the 1-shard cell) =="
go run ./cmd/semstm-bench -shardgate -dur 200ms -reps 2

echo "== crash-recovery matrix, quick subset (scripts/crash_matrix.sh for the sweep) =="
sh scripts/crash_matrix.sh quick

echo "== durability-overhead gate (durable interval >= 0.65x volatile at 32 shards) =="
go run ./cmd/semstm-bench -durgate -dur 300ms -reps 2

echo "== instrumentation-cost gate (HyTM fast path >= 1.5x classic HTM on the scan cell) =="
go run ./cmd/semstm-bench -hybridgate -dur 300ms -reps 2

echo "== privatization gate (privatized snapshot scan >= 5x instrumented) =="
go run ./cmd/semstm-bench -privgate -dur 200ms -reps 2

echo "== reclamation gate (steady-state heap under retire churn) =="
go run ./cmd/semstm-bench -reclaimgate -dur 200ms -reps 1

echo "== commit-coalescing gate (batched >= 3x unbatched on durable counter loadgen) =="
go run ./cmd/semstm-bench -servegate -dur 300ms -reps 2

echo "== repo benchmark tests (perfbench module) =="
(cd perfbench && go test -count=1 .)

echo "== wire decoder fuzz (FuzzDecodeRequest, 10s) =="
go test -run '^$' -fuzz '^FuzzDecodeRequest$' -fuzztime 10s ./internal/server

echo "== ok =="
