// The per-shard coalescing batcher: the server-side analogue of the WAL's
// group commit (internal/wal/log.go), one level up the stack. Where the
// walwriter coalesces committed transactions' log frames into one fsync, the
// batcher coalesces *client requests* into one transaction — amortizing the
// whole commit path (descriptor, commit-time clock/seqlock acquisition,
// validation sweep, and durably the WAL append itself) across the window.
//
// Window policy (DESIGN.md §15): no timers. A request arriving at an idle
// shard becomes leader immediately, yields the scheduler once so requests
// already in flight can enqueue (the formation yield — without it a fast
// leader carves windows of one and coalescing never starts), then drains
// whatever has queued — up to MaxBatch. An unloaded store pays one Gosched
// of latency, and windows grow exactly as fast as commits fall behind
// arrivals (the group-commit self-pacing property).
//
// Merge rules: inc-only requests against the same cell fold into one
// deferred delta, applied once at the window's end — they commute, and the
// fold serializes every inc-only request after the window's in-place
// requests (a valid serial order for concurrent requests). In-place
// requests execute back-to-back inside the one descriptor in queue order;
// one whose cells were already written by an earlier window member falls
// out to the solo path (per-request isolation stays trivially auditable and
// the conflict is visible in the solo-fallback counters rather than folded
// silently).
//
// Straggler rule: a window that exhausts its attempt budget is torn apart
// and every member re-executed solo, so one doomed request costs its
// batchmates at most the failed window's attempts — it cannot abort them.
package server

import (
	"runtime"
	"sync"

	"semstm/stm"
)

// shardBatcher coalesces one shard's requests. Leadership mirrors the
// walwriter: the first submitter to find no leader takes the role, drains a
// window, executes it, then broadcasts; woken submitters whose requests are
// still queued take over leadership. Every queued request always has its
// submitter in the loop, so no window can strand.
type shardBatcher struct {
	s        *Store
	maxBatch int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*Request
	leading bool

	// Leader-only scratch (a single leader per shard at a time): the carved
	// window, its in-place members, the merged-inc fold, the
	// conflict-fallout set, and the batch transaction's body.
	window   []*Request
	inPlace  []*Request
	fallout  []*Request
	incVars  []*stm.Var
	incIdx   map[*stm.Var]int
	incDelta []int64
	written  map[*stm.Var]struct{}
	body     func(tx *stm.Tx)
}

func newShardBatcher(s *Store, maxBatch int) *shardBatcher {
	b := &shardBatcher{
		s:        s,
		maxBatch: maxBatch,
		incIdx:   make(map[*stm.Var]int),
		written:  make(map[*stm.Var]struct{}),
	}
	b.cond = sync.NewCond(&b.mu)
	b.body = b.execWindow
	return b
}

// submit enqueues the request and blocks until its outcome is demultiplexed
// back into r.res, leading windows whenever no other submitter is.
func (b *shardBatcher) submit(r *Request) {
	b.mu.Lock()
	r.done = false
	b.queue = append(b.queue, r)
	for {
		if r.done {
			b.mu.Unlock()
			return
		}
		if !b.leading {
			b.leading = true
			// Formation yield: let submitters already past genRequest enqueue
			// before the carve. Leadership is held, so nobody else can carve
			// underneath us, and r cannot complete. Repeat while the queue is
			// still growing and short of a full window.
			for len(b.queue) < b.maxBatch {
				before := len(b.queue)
				b.mu.Unlock()
				runtime.Gosched()
				b.mu.Lock()
				if len(b.queue) == before {
					break
				}
			}
			b.carve()
			b.mu.Unlock()
			b.runWindow()
			b.runFallout()
			b.mu.Lock()
			for _, w := range b.window {
				w.done = true
			}
			for _, w := range b.fallout {
				w.done = true
			}
			b.leading = false
			b.cond.Broadcast()
			continue
		}
		b.cond.Wait()
	}
}

// carve pops up to maxBatch requests off the queue head into the window,
// applying the merge/conflict rules. Called with the mutex held; fills the
// leader scratch.
func (b *shardBatcher) carve() {
	b.window = b.window[:0]
	b.inPlace = b.inPlace[:0]
	b.fallout = b.fallout[:0]
	b.incVars = b.incVars[:0]
	b.incDelta = b.incDelta[:0]
	clear(b.incIdx)
	clear(b.written)

	n := len(b.queue)
	if n > b.maxBatch {
		n = b.maxBatch
	}
	for _, r := range b.queue[:n] {
		if r.incOnly && !r.doom {
			// Mergeable: fold each delta into the per-cell accumulator.
			for i := range r.Ops {
				v := r.vars[i]
				b.s.metrics.incOps.Add(1)
				if j, ok := b.incIdx[v]; ok {
					b.incDelta[j] += r.Ops[i].Val
					b.s.metrics.mergedIncs.Add(1)
				} else {
					b.incIdx[v] = len(b.incVars)
					b.incVars = append(b.incVars, v)
					b.incDelta = append(b.incDelta, r.Ops[i].Val)
				}
				b.written[v] = struct{}{}
			}
			b.window = append(b.window, r)
			continue
		}
		// In-place: joins unless a cell it touches was already written by
		// this window (conflict fallout → solo path).
		conflict := false
		for _, v := range r.vars {
			if _, ok := b.written[v]; ok {
				conflict = true
				break
			}
		}
		if conflict {
			b.fallout = append(b.fallout, r)
			continue
		}
		for i := range r.Ops {
			if c := r.Ops[i].Code; c == OpWrite || c == OpInc {
				b.written[r.vars[i]] = struct{}{}
			}
		}
		b.window = append(b.window, r)
		b.inPlace = append(b.inPlace, r)
	}
	// Pop the carved prefix (window members and fallout alike left the
	// queue; fallout runs solo under this leader).
	rest := copy(b.queue, b.queue[n:])
	for i := rest; i < len(b.queue); i++ {
		b.queue[i] = nil
	}
	b.queue = b.queue[:rest]
}

// runWindow executes the carved window as one batch transaction and
// demultiplexes per-request outcomes; on budget exhaustion it re-executes
// every member solo (the straggler rule).
func (b *shardBatcher) runWindow() {
	w := b.window
	if len(w) == 0 {
		return
	}
	m := b.s.metrics
	if err := b.s.rt.AtomicallyBatch(len(w), b.body); err != nil {
		// The window is doomed as a unit; its members may not be. Tear it
		// apart — each request gets its own bounded transaction, so only a
		// request that is itself doomed reports an abort.
		m.soloAbort.Add(uint64(len(w)))
		for _, r := range w {
			b.s.solo(r)
		}
		return
	}
	m.noteBatch(len(w))
	for _, r := range w {
		r.res.Committed = true
		if r.incOnly && !r.doom {
			r.res.GuardOK = true
		}
		m.noteOutcome(&r.res)
	}
}

// execWindow is the batch transaction's body: the in-place members back to
// back, then the merged increments.
func (b *shardBatcher) execWindow(tx *stm.Tx) {
	for _, r := range b.inPlace {
		r.execute(tx, &r.res)
	}
	for i, v := range b.incVars {
		tx.Inc(v, b.incDelta[i])
	}
}

// runFallout executes the window's conflict-fallout requests on the solo
// path, after the window they fell out of.
func (b *shardBatcher) runFallout() {
	if len(b.fallout) == 0 {
		return
	}
	b.s.metrics.soloConflict.Add(uint64(len(b.fallout)))
	for _, r := range b.fallout {
		b.s.solo(r)
	}
}
