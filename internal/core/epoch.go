package core

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Epoch-based reclamation for retired Vars (DESIGN.md §14).
//
// The lifecycle problem: Vars are shared by address, engines index orec
// tables off Var ids, and doomed ("zombie") transactions may hold stale
// *Var pointers in their read/write sets long after a privatizing commit
// unlinked the cell from every structure. Freeing — here, recycling through
// the allocation free list so ids and memory are reused — is only safe once
// no descriptor that could have captured the pointer is still running.
//
// The scheme is the classic three-bucket epoch design:
//
//   - a global epoch clock E (starting at 1 so that word 0 can mean idle);
//   - every transaction descriptor owns an announce word in its runtime's
//     descriptor registry and pins the current epoch in it for the duration
//     of each top-level Atomically (PinEpoch);
//   - Retire(v) parks the cell on limbo bucket E%3;
//   - the epoch may advance E -> E+1 once every word of every watched
//     registry is idle or pinned at E; at that moment bucket (E+2)%3 — the
//     cells retired during epoch E-1, i.e. two full epochs ago — can no
//     longer be referenced by any live descriptor and moves to the free
//     list, where NewVar* recycles the cells id-intact.
//
// Safety of the two-epoch rule: a cell retired during epoch r was unlinked
// before Retire ran, so only descriptors already running at r (pinned <= r)
// can hold its address. Advancing r -> r+1 certifies every active pin is r;
// advancing r+1 -> r+2 certifies every descriptor from epoch r has since
// exited. The advance from E=r+1 frees bucket (E+2)%3 == r%3 — exactly those
// cells.

// epochClock is the global epoch. It starts at 1 (see init) so an epoch word
// of 0 unambiguously means "descriptor idle".
var epochClock atomic.Uint64

func init() { epochClock.Store(1) }

// AttemptBit is the low bit of a descriptor's epoch word: set while an
// attempt runs, so engine switches and escalations can drain attempts over
// the same words the reclaimer scans for epochs. The epoch sits above it.
const AttemptBit = 1

// epochAdvanceEvery is the amortization period of the automatic advance:
// every N-th Retire attempts one epoch advance, so retire-heavy churn
// reclaims itself without any caller-side pumping.
const epochAdvanceEvery = 64

// epochState is the mutex-guarded reclamation state; the advance scan reads
// epoch words lock-free. The mutex is never taken on a barrier path — only
// at runtime construction, Retire, allocation (free-list pop), and advance.
var epochState struct {
	mu sync.Mutex
	// regs are the descriptor registries the advance scans.
	regs  []*Registry
	limbo [3][]*Var
	free  []*Var
	// freeLen mirrors len(free) so allocation can skip the lock when the
	// free list is empty (the common case of a growing workload).
	freeLen atomic.Int64
	// limboLen mirrors the total cells parked across the limbo buckets, so
	// an allocation that finds the free list empty can tell "nothing to
	// reclaim" (growing workload — stay off the lock) from "reclaimable
	// cells are waiting on an advance" (churn outrunning the amortized
	// advance — worth one allocate-triggered attempt).
	limboLen atomic.Int64
	// sinceAdvance counts Retires since the last advance attempt.
	sinceAdvance int
	// retired/reclaimed are lifetime counters for the stats probe and the
	// -reclaimgate CI gate.
	retired   uint64
	reclaimed uint64
}

// WatchEpochs makes the reclaimer scan r's words as epoch words until
// UnwatchEpochs(r). A runtime watches its descriptor registry for life.
func WatchEpochs(r *Registry) {
	epochState.mu.Lock()
	epochState.regs = append(epochState.regs, r)
	epochState.mu.Unlock()
}

// UnwatchEpochs stops the reclaimer scanning r, whose words must be idle.
func UnwatchEpochs(r *Registry) {
	epochState.mu.Lock()
	epochState.regs = slices.DeleteFunc(epochState.regs, func(x *Registry) bool { return x == r })
	epochState.mu.Unlock()
}

// PinEpoch claims the idle word a for the current epoch, with bits in the
// low bit, and returns the pinned epoch word without them. It reports false,
// leaving the word alone, if a is not idle — so a descriptor free list can
// claim a descriptor and announce its call in one CAS. Pin-then-recheck:
// were the epoch not re-read after the word became visible, an advance
// could scan past this descriptor between the load and the publication.
func (a *Announce) PinEpoch(bits uint64) (uint64, bool) {
	e := epochClock.Load()
	if !a.v.CompareAndSwap(0, e<<1|bits) {
		return 0, false
	}
	for epochClock.Load() != e {
		e = epochClock.Load()
		a.v.Store(e<<1 | bits)
	}
	return e << 1, true
}

// Retire parks v for epoch-deferred recycling. The caller asserts that v is
// unreachable through every transactional structure — the contract
// AtomicallyPrivatize establishes — and must not touch v afterwards. Double
// retire panics: it is the use-after-free of this allocator.
//
// Every epochAdvanceEvery-th Retire attempts an epoch advance, so sustained
// churn is self-reclaiming.
func Retire(v *Var) {
	if v == nil {
		panic("core: Retire(nil)")
	}
	if !v.retired.CompareAndSwap(0, 1) {
		panic("core: Var retired twice")
	}
	epochState.mu.Lock()
	e := epochClock.Load()
	epochState.limbo[e%3] = append(epochState.limbo[e%3], v)
	epochState.limboLen.Add(1)
	epochState.retired++
	epochState.sinceAdvance++
	if epochState.sinceAdvance >= epochAdvanceEvery {
		epochState.sinceAdvance = 0
		tryAdvanceLocked()
	}
	epochState.mu.Unlock()
}

// AdvanceEpoch attempts one epoch advance, reclaiming the expired limbo
// bucket into the free list on success. It fails (returns false) while any
// descriptor is still pinned to an older epoch. Exported as the
// deterministic pump for tests and the -reclaimgate churn workload; regular
// operation relies on the amortized advance inside Retire.
func AdvanceEpoch() bool {
	epochState.mu.Lock()
	ok := tryAdvanceLocked()
	epochState.mu.Unlock()
	return ok
}

// tryAdvanceLocked advances the epoch if every watched epoch word is idle or
// current, then moves the two-epochs-old limbo bucket to the free list.
// Caller holds epochState.mu, which serializes advances; words are read
// lock-free.
func tryAdvanceLocked() bool {
	e := epochClock.Load()
	current := func(v uint64) bool { return v == 0 || v>>1 == e }
	for _, r := range epochState.regs {
		if !r.Quiesced(current) {
			return false
		}
	}
	epochClock.Store(e + 1)
	expired := &epochState.limbo[(e+2)%3]
	if n := len(*expired); n > 0 {
		epochState.free = append(epochState.free, *expired...)
		epochState.freeLen.Add(int64(n))
		epochState.limboLen.Add(int64(-n))
		epochState.reclaimed += uint64(n)
		*expired = (*expired)[:0]
	}
	return true
}

// popFreeVar pops a reclaimed cell off the free list, or returns nil when
// none is available. The freeLen fast path keeps growing workloads (which
// never retire) off the mutex entirely. An empty free list with cells
// waiting in limbo triggers one advance attempt before giving up —
// allocate-triggered reclamation: when churn outruns the amortized advance
// inside Retire (e.g. a pinned descriptor sat descheduled through several
// periods), the allocation that would otherwise mint a fresh cell is exactly
// the moment reclaiming pays for its lock.
func popFreeVar() *Var {
	if epochState.freeLen.Load() == 0 && epochState.limboLen.Load() == 0 {
		return nil
	}
	epochState.mu.Lock()
	if len(epochState.free) == 0 {
		tryAdvanceLocked()
	}
	n := len(epochState.free)
	if n == 0 {
		epochState.mu.Unlock()
		return nil
	}
	v := epochState.free[n-1]
	epochState.free[n-1] = nil
	epochState.free = epochState.free[:n-1]
	epochState.freeLen.Add(-1)
	epochState.mu.Unlock()
	return v
}

// EpochStats is the reclamation probe consumed by tests and the
// -reclaimgate gate.
type EpochStats struct {
	// Epoch is the current global epoch.
	Epoch uint64
	// Retired / Reclaimed are lifetime Retire and free-list-return counts.
	Retired, Reclaimed uint64
	// Limbo is the number of cells parked across all three buckets; Free is
	// the current free-list length.
	Limbo, Free int
	// Watched is the number of descriptor registries the advance scans.
	Watched int
}

// ReadEpochStats snapshots the reclaimer's counters.
func ReadEpochStats() EpochStats {
	epochState.mu.Lock()
	s := EpochStats{
		Epoch:     epochClock.Load(),
		Retired:   epochState.retired,
		Reclaimed: epochState.reclaimed,
		Free:      len(epochState.free),
		Watched:   len(epochState.regs),
	}
	for i := range epochState.limbo {
		s.Limbo += len(epochState.limbo[i])
	}
	epochState.mu.Unlock()
	return s
}

// VarIDWatermark returns the allocation counter's high-water mark — the
// number of Var identities ever minted. Recycled allocations reuse retired
// identities and do not move it; the unbounded-varID regression test pins
// churn against this probe.
func VarIDWatermark() uint64 { return varID.Load() }

// ---------------------------------------------------------------------------
// The privatization barrier.

// Privatizer is the privatization barrier a TxImpl provides when its engine
// runs transactions concurrently (under mutual exclusion, SGL's commit is
// its own barrier). PrivatizeBarrier is valid immediately after a
// successful Commit/Publish on the same descriptor: when it returns, every
// concurrent transaction that could have observed pre-commit state has
// finished or revalidated past the commit, so the caller owns whatever the
// transaction unlinked — plain Load/StoreNT, no instrumentation. It is a
// Drain of the engine's snapshot words with SnapshotAtLeast; the sharded
// runtime composes it per participating shard.
type Privatizer interface {
	PrivatizeBarrier()
}
