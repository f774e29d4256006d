// Prometheus-style metrics: the server's own request/batcher counters plus
// the runtime's Snapshot and per-shard commit mix, rendered in the text
// exposition format. Counters are plain atomics — scraping never takes the
// batcher or keyspace locks.
package server

import (
	"fmt"
	"io"
	"sync/atomic"
)

// batchBuckets are the batch-size histogram's upper bounds (requests per
// window); the last bucket is +Inf.
var batchBuckets = [...]uint64{1, 2, 4, 8, 16, 32, 64, 128}

// Metrics is the server-level counter block.
type Metrics struct {
	requests    atomic.Uint64 // every submitted request
	committed   atomic.Uint64 // committed with all guards held
	guardFailed atomic.Uint64 // committed empty: a cmp guard failed
	aborted     atomic.Uint64 // attempt budget exhausted
	badRequests atomic.Uint64 // rejected before execution: malformed or invalid

	batches   atomic.Uint64 // committed batch windows
	batched   atomic.Uint64 // requests committed through a window
	batchSum  atomic.Uint64 // sum of committed window sizes
	batchHist [len(batchBuckets) + 1]atomic.Uint64

	incOps     atomic.Uint64 // inc ops entering the merge fold
	mergedIncs atomic.Uint64 // inc ops folded into an existing delta

	soloConflict atomic.Uint64 // window fallout: cell already written
	soloAbort    atomic.Uint64 // window fallout: batch budget exhausted
	soloCross    atomic.Uint64 // bypassed batching: keys span shards
}

func newMetrics() *Metrics { return &Metrics{} }

// noteOutcome tallies one finished request.
func (m *Metrics) noteOutcome(res *Result) {
	m.requests.Add(1)
	switch {
	case !res.Committed:
		m.aborted.Add(1)
	case !res.GuardOK:
		m.guardFailed.Add(1)
	default:
		m.committed.Add(1)
	}
}

// noteBatch tallies one committed window of the given size.
func (m *Metrics) noteBatch(size int) {
	m.batches.Add(1)
	m.batched.Add(uint64(size))
	m.batchSum.Add(uint64(size))
	i := 0
	for i < len(batchBuckets) && uint64(size) > batchBuckets[i] {
		i++
	}
	m.batchHist[i].Add(1)
}

// Requests reports the total submitted request count (throughput probes).
func (m *Metrics) Requests() uint64 { return m.requests.Load() }

// Committed reports requests that committed with all guards held.
func (m *Metrics) Committed() uint64 { return m.committed.Load() }

// Aborted reports requests whose attempt budget exhausted.
func (m *Metrics) Aborted() uint64 { return m.aborted.Load() }

// BadRequests reports requests rejected before execution.
func (m *Metrics) BadRequests() uint64 { return m.badRequests.Load() }

// Batches reports committed batch windows.
func (m *Metrics) Batches() uint64 { return m.batches.Load() }

// Batched reports requests that committed through a batch window.
func (m *Metrics) Batched() uint64 { return m.batched.Load() }

// MeanBatch reports the mean committed window size (0 before any window).
func (m *Metrics) MeanBatch() float64 {
	n := m.batches.Load()
	if n == 0 {
		return 0
	}
	return float64(m.batchSum.Load()) / float64(n)
}

// MergedIncRatio reports the fraction of merge-eligible inc ops that folded
// into an already-present delta (0 before any inc).
func (m *Metrics) MergedIncRatio() float64 {
	n := m.incOps.Load()
	if n == 0 {
		return 0
	}
	return float64(m.mergedIncs.Load()) / float64(n)
}

// SoloFallbacks reports requests pushed onto the solo path by the batcher
// (window conflicts plus torn windows; cross-shard bypasses not included).
func (m *Metrics) SoloFallbacks() uint64 {
	return m.soloConflict.Load() + m.soloAbort.Load()
}

// WriteMetrics renders every counter — server, batcher, runtime, per-shard —
// in the Prometheus text exposition format.
func (s *Store) WriteMetrics(w io.Writer) {
	m := s.metrics
	fmt.Fprintf(w, "# HELP semstm_requests_total Requests by outcome.\n# TYPE semstm_requests_total counter\n")
	fmt.Fprintf(w, "semstm_requests_total{outcome=\"committed\"} %d\n", m.committed.Load())
	fmt.Fprintf(w, "semstm_requests_total{outcome=\"guard_failed\"} %d\n", m.guardFailed.Load())
	fmt.Fprintf(w, "semstm_requests_total{outcome=\"aborted\"} %d\n", m.aborted.Load())
	fmt.Fprintf(w, "# HELP semstm_bad_requests_total Requests rejected before execution: malformed lines, unknown ops or comparisons, empty requests.\n# TYPE semstm_bad_requests_total counter\n")
	fmt.Fprintf(w, "semstm_bad_requests_total %d\n", m.badRequests.Load())

	fmt.Fprintf(w, "# HELP semstm_batch_size Committed batch window sizes.\n# TYPE semstm_batch_size histogram\n")
	cum := uint64(0)
	for i, le := range batchBuckets {
		cum += m.batchHist[i].Load()
		fmt.Fprintf(w, "semstm_batch_size_bucket{le=\"%d\"} %d\n", le, cum)
	}
	cum += m.batchHist[len(batchBuckets)].Load()
	fmt.Fprintf(w, "semstm_batch_size_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "semstm_batch_size_sum %d\n", m.batchSum.Load())
	fmt.Fprintf(w, "semstm_batch_size_count %d\n", m.batches.Load())

	fmt.Fprintf(w, "# HELP semstm_batched_requests_total Requests committed through a batch window.\n# TYPE semstm_batched_requests_total counter\n")
	fmt.Fprintf(w, "semstm_batched_requests_total %d\n", m.batched.Load())
	fmt.Fprintf(w, "# HELP semstm_merge_inc_ops_total Merge-eligible inc ops (merged = folded into an existing delta).\n# TYPE semstm_merge_inc_ops_total counter\n")
	fmt.Fprintf(w, "semstm_merge_inc_ops_total{kind=\"seen\"} %d\n", m.incOps.Load())
	fmt.Fprintf(w, "semstm_merge_inc_ops_total{kind=\"merged\"} %d\n", m.mergedIncs.Load())
	fmt.Fprintf(w, "# HELP semstm_solo_fallbacks_total Requests pushed off the batch path.\n# TYPE semstm_solo_fallbacks_total counter\n")
	fmt.Fprintf(w, "semstm_solo_fallbacks_total{reason=\"conflict\"} %d\n", m.soloConflict.Load())
	fmt.Fprintf(w, "semstm_solo_fallbacks_total{reason=\"window_abort\"} %d\n", m.soloAbort.Load())
	fmt.Fprintf(w, "semstm_solo_fallbacks_total{reason=\"cross_shard\"} %d\n", m.soloCross.Load())

	sn := s.rt.Stats()
	fmt.Fprintf(w, "# HELP semstm_engine_commits_total Engine-level transaction commits.\n# TYPE semstm_engine_commits_total counter\n")
	fmt.Fprintf(w, "semstm_engine_commits_total %d\n", sn.Commits)
	fmt.Fprintf(w, "# HELP semstm_engine_aborts_total Engine-level attempt aborts.\n# TYPE semstm_engine_aborts_total counter\n")
	fmt.Fprintf(w, "semstm_engine_aborts_total %d\n", sn.Aborts)

	fmt.Fprintf(w, "# HELP semstm_shard_commits_total Per-shard commit mix.\n# TYPE semstm_shard_commits_total counter\n")
	for i, ss := range s.rt.ShardStats() {
		fmt.Fprintf(w, "semstm_shard_commits_total{shard=\"%d\",kind=\"single\"} %d\n", i, ss.SingleCommits)
		fmt.Fprintf(w, "semstm_shard_commits_total{shard=\"%d\",kind=\"cross\"} %d\n", i, ss.CrossCommits)
		fmt.Fprintf(w, "semstm_shard_commits_total{shard=\"%d\",kind=\"batched_requests\"} %d\n", i, ss.BatchedRequests)
	}
	if s.dur != nil {
		ws := s.dur.WALStats()
		fmt.Fprintf(w, "# HELP semstm_wal_fsyncs_total WAL fsyncs issued.\n# TYPE semstm_wal_fsyncs_total counter\n")
		fmt.Fprintf(w, "semstm_wal_fsyncs_total %d\n", ws.Fsyncs)
		fmt.Fprintf(w, "# HELP semstm_wal_appends_total WAL frames appended.\n# TYPE semstm_wal_appends_total counter\n")
		fmt.Fprintf(w, "semstm_wal_appends_total %d\n", ws.Appends)
	}
}
