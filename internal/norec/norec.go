// Package norec implements the NOrec STM algorithm [Dalessandro, Spear,
// Scott; PPoPP 2010] and its semantic extension S-NOrec (Algorithm 6 of
// "Extending TM Primitives using Low Level Semantics", SPAA 2016).
//
// NOrec serializes commit phases under a single timestamped sequence lock and
// validates transactions by value: the read-set stores (address, value) pairs
// that must still hold at validation time. S-NOrec generalizes value-based
// validation to semantic validation: plain reads are recorded as EQ facts,
// conditional operations record the operator (or its inverse when the
// observed outcome is false), and increments are buffered in the write-set
// and applied at commit. The baseline and the semantic variant share this
// implementation; the baseline simply *delegates* Cmp to Read and Inc to
// Read+Write, exactly like the paper's non-semantic builds.
package norec

import (
	"fmt"
	"sync/atomic"

	"semstm/internal/core"
)

// Global is the state shared by all transactions of one NOrec runtime: the
// global timestamped sequence lock. An odd value means a writer is committing.
// The lock word is the single hottest word in the whole algorithm — every
// barrier of every thread loads it and every writer CASes it — so it gets a
// cache line of its own rather than sharing one with whatever the runtime
// allocates next to the Global.
type Global struct {
	seq atomic.Uint64
	_   core.PadWord
	// readers is the privatization-barrier surface (DESIGN.md §14): every
	// descriptor publishes its active snapshot in a word here, and a
	// privatizing committer drains the words to its commit timestamp.
	readers core.Registry
}

// NewGlobal returns a fresh, unlocked global sequence lock.
func NewGlobal() *Global { return &Global{} }

// Sequence exposes the current value of the sequence lock (tests only).
func (g *Global) Sequence() uint64 { return g.seq.Load() }

// Quiescent verifies no commit lock is leaked: at a quiescent point (no
// transaction in flight) the sequence lock must be even. The chaos harness
// calls it after injected aborts and user panics.
func (g *Global) Quiescent() error {
	if s := g.seq.Load(); s&1 != 0 {
		return fmt.Errorf("norec: sequence lock leaked (seq=%d)", s)
	}
	return nil
}

// twoPhaseWaitBound caps how many waiter rounds a two-phase participant
// spends on an odd (writer-held) sequence lock before aborting. Unbounded
// waiting is fine for the single-instance algorithm — the lock holder always
// finishes — but a cross-shard participant may itself hold another shard's
// lock, and two such participants waiting on each other's shards would
// deadlock. Bounding the wait turns the cycle into an abort (counted under
// ReasonOrecLocked, the "locked metadata" bucket) that the retry loop's
// backoff then breaks.
const twoPhaseWaitBound = 128

// Tx is one NOrec transaction descriptor, reused across attempts.
type Tx struct {
	g        *Global
	semantic bool
	dedup    bool
	locked   bool // holds the sequence lock (two-phase Prepare..Publish window)
	snapshot uint64
	// valSeq is the validation watermark (DESIGN.md §8): the sequence value
	// at which the full read-set and expression-set were last known valid.
	// validate skips the whole walk when the lock still reads valSeq —
	// entries appended since then were each read at a stable sequence equal
	// to valSeq, so they hold at valSeq by construction. Once the lock moves
	// past the watermark the full set must be re-walked: value-based
	// validation cannot tell which entries the intervening commit touched.
	valSeq uint64
	reads  *core.SemSet
	exprs  *core.ExprSet // complex-expression facts (extension)
	writes *core.WriteSet
	waiter core.Waiter
	fp     *core.FaultPlan // nil unless fault injection is armed
	stats  core.TxStats
	// slot publishes the active snapshot to privatizing committers; lastW is
	// the quiescence timestamp of the last successful commit — the sequence
	// value from which PrivatizeBarrier drains.
	slot  *core.Announce
	lastW uint64
}

// NewTx returns a transaction descriptor bound to g. If semantic is true the
// descriptor runs S-NOrec; otherwise it runs baseline NOrec with semantic
// operations delegated to classical barriers.
func NewTx(g *Global, semantic bool) *Tx {
	return &Tx{
		g:        g,
		semantic: semantic,
		reads:    core.NewSemSet(),
		exprs:    core.NewExprSet(),
		writes:   core.NewWriteSet(),
		slot:     g.readers.Register(),
	}
}

// Start begins a new attempt (Algorithm 6 lines 24–28): spin until the
// sequence lock is even and snapshot it.
func (tx *Tx) Start() {
	tx.reads.Reset()
	tx.exprs.Reset()
	tx.writes.Reset()
	tx.stats.Reset()
	tx.locked = false
	if tx.fp != nil {
		tx.fp.Step(core.SiteStart)
	}
	tx.snapshot = tx.slot.PinSeqlock(&tx.g.seq, &tx.waiter, &tx.stats.SpinWaits)
	// The empty read-set is trivially valid here, so the watermark starts at
	// the snapshot rather than carrying a value from the previous attempt.
	tx.valSeq = tx.snapshot
}

// SetFaultPlan arms or disarms deterministic fault injection.
func (tx *Tx) SetFaultPlan(p *core.FaultPlan) { tx.fp = p }

// validate re-checks the whole read-set against current memory (Algorithm 6
// lines 1–9). It waits (adaptively — see core.Waiter) while a writer holds
// the sequence lock, performs the semantic validation, and confirms the lock
// did not move meanwhile. On success it returns the (even) time at which the
// read-set was known valid and advances the valSeq watermark to it; when the
// lock still reads the watermark the walk is skipped entirely (validation
// coalescing, DESIGN.md §8). On semantic failure it aborts.
func (tx *Tx) validate() uint64 { return tx.validateLimit(0) }

// validateLimit is validate with an optional bound on waiter rounds spent on
// an odd lock (limit 0 waits forever — the single-instance behaviour; the
// two-phase paths pass twoPhaseWaitBound and abort past it).
func (tx *Tx) validateLimit(limit int) uint64 {
	tx.waiter.Reset()
	spins := 0
	for {
		time := tx.g.seq.Load()
		if time&1 != 0 {
			if limit > 0 {
				if spins++; spins > limit {
					core.AbortWith(core.ReasonOrecLocked)
				}
			}
			tx.waiter.Wait()
			tx.stats.SpinWaits++
			continue
		}
		if time == tx.valSeq {
			// Nothing committed since the last full walk: every entry —
			// including ones appended after that walk, each read at a stable
			// sequence equal to the watermark — is known valid at this time.
			tx.slot.MoveSnapshot(time)
			return time
		}
		if tx.fp != nil && tx.fp.ValidationFail() {
			core.AbortWith(core.ReasonValidation)
		}
		tx.stats.Validations++
		tx.stats.ValEntries += uint64(tx.reads.Len() + tx.exprs.Len())
		if ok, why := tx.reads.BrokenReason(); !ok {
			core.AbortWith(why)
		}
		if !tx.exprs.HoldsNow() {
			core.AbortWith(core.ReasonCmpFlip)
		}
		if time == tx.g.seq.Load() {
			tx.valSeq = time
			// Forward pin movement needs no recheck: a read-set just proven
			// valid at time is no zombie with respect to any commit <= time.
			tx.slot.MoveSnapshot(time)
			return time
		}
	}
}

// readValid reads *v at a moment consistent with the read-set (Algorithm 6
// lines 10–16): if the sequence lock moved since the snapshot, revalidate and
// re-read until a stable snapshot is obtained.
func (tx *Tx) readValid(v *core.Var) int64 {
	val := v.Load()
	for tx.snapshot != tx.g.seq.Load() {
		tx.snapshot = tx.validate()
		val = v.Load()
	}
	return val
}

// raw resolves a read-after-write against write-set entry e (Algorithm 6
// lines 17–23). A pending increment is promoted: the current memory value is
// read consistently, recorded as an EQ fact, and folded into the entry, which
// becomes a standard write.
func (tx *Tx) raw(v *core.Var, e *core.WriteEntry) int64 {
	if e.Kind == core.EntryInc {
		val := tx.readValid(v)
		tx.reads.Append(v, core.OpEQ, val)
		tx.writes.Promote(v, e.Val+val)
		tx.stats.Promotes++
	}
	return e.Val
}

// Read implements the classical TM_READ barrier (Algorithm 6 lines 37–43).
func (tx *Tx) Read(v *core.Var) int64 {
	tx.stats.Reads++
	if tx.fp != nil {
		tx.fp.Step(core.SiteRead)
	}
	if e := tx.writes.Get(v); e != nil {
		return tx.raw(v, e)
	}
	val := tx.readValid(v)
	if !tx.dedup || !tx.reads.HasEQ(v, val) {
		tx.reads.Append(v, core.OpEQ, val)
	}
	return val
}

// SetDedupReads toggles read-after-read de-duplication: the paper
// deliberately appends one read-set entry per read because "the overhead of
// discovering duplicates may not be negligible"; this knob exists to measure
// exactly that trade-off (see the ablation benchmarks).
func (tx *Tx) SetDedupReads(on bool) { tx.dedup = on }

// Write implements the classical TM_WRITE barrier (Algorithm 6 lines 50–52).
func (tx *Tx) Write(v *core.Var, val int64) {
	tx.stats.Writes++
	tx.writes.PutWrite(v, val)
}

// Cmp implements the semantic conditional (Algorithm 6 lines 29–36). In the
// baseline (non-semantic) configuration it delegates to Read, reproducing the
// classical behaviour in which the conditional pins the exact value.
func (tx *Tx) Cmp(v *core.Var, op core.Op, operand int64) bool {
	if !tx.semantic {
		return op.Eval(tx.Read(v), operand)
	}
	tx.stats.Compares++
	if tx.fp != nil {
		tx.fp.Step(core.SiteCmp)
	}
	if e := tx.writes.Get(v); e != nil {
		return op.Eval(tx.raw(v, e), operand)
	}
	val := tx.readValid(v)
	result := op.Eval(val, operand)
	tx.reads.AppendOutcome(v, op, operand, result)
	return result
}

// CmpVars implements the address–address conditional (_ITM_S2R). When both
// operands are clean (not in the write-set), S-NOrec records a single
// two-address fact "*a op *b" whose validation re-reads both sides — so
// concurrent updates that move both values while preserving the outcome
// (e.g. head and tail both advancing while head != tail) no longer abort.
// Operands with buffered writes fall back to the address–value machinery.
func (tx *Tx) CmpVars(a *core.Var, op core.Op, b *core.Var) bool {
	if !tx.semantic {
		operand := tx.Read(b)
		return op.Eval(tx.Read(a), operand)
	}
	// One indexed lookup per operand: the write-set's Bloom signature makes
	// the common both-clean case two signature tests with no probing at all.
	if eb := tx.writes.Get(b); eb != nil || tx.writes.Get(a) != nil {
		var operand int64
		if eb != nil {
			operand = tx.raw(b, eb)
		} else {
			tx.stats.Reads++
			operand = tx.readValid(b)
			tx.reads.Append(b, core.OpEQ, operand)
		}
		return tx.Cmp(a, op, operand)
	}
	tx.stats.Compares++
	va, vb := a.Load(), b.Load()
	for tx.snapshot != tx.g.seq.Load() {
		tx.snapshot = tx.validate()
		va, vb = a.Load(), b.Load()
	}
	result := op.Eval(va, vb)
	tx.reads.AppendOutcomeVar(a, op, b, result)
	return result
}

// CmpSum implements the arithmetic-expression conditional "(Σ vars) op rhs"
// (technical-report extension): the whole sum comparison is recorded as one
// fact, so compensating modifications of the addends (x += d, y -= d) never
// abort the reader. Operands with buffered writes force delegation to
// classical reads.
func (tx *Tx) CmpSum(op core.Op, rhs int64, vars []*core.Var) bool {
	delegate := !tx.semantic
	if !delegate {
		for _, v := range vars {
			if tx.writes.Get(v) != nil {
				delegate = true
				break
			}
		}
	}
	if delegate {
		var sum int64
		for _, v := range vars {
			sum += tx.Read(v)
		}
		return op.Eval(sum, rhs)
	}
	tx.stats.Compares++
	sum := sumLoads(vars)
	for tx.snapshot != tx.g.seq.Load() {
		tx.snapshot = tx.validate()
		sum = sumLoads(vars)
	}
	result := op.Eval(sum, rhs)
	tx.exprs.AppendSum(vars, op, rhs, result)
	return result
}

func sumLoads(vars []*core.Var) int64 {
	var sum int64
	for _, v := range vars {
		sum += v.Load()
	}
	return sum
}

// CmpAny implements the composed condition "c1 || c2 || ..." as one semantic
// fact (technical-report extension): a clause flipping false is harmless
// while another clause keeps the disjunction true — the full strength of the
// paper's Algorithm 1 example. Clauses over buffered writes degrade to
// per-clause semantics.
func (tx *Tx) CmpAny(conds []core.Cond) bool {
	if !tx.semantic {
		for _, c := range conds {
			if c.Op.Eval(tx.Read(c.Var), c.Operand) {
				return true
			}
		}
		return false
	}
	for _, c := range conds {
		if tx.writes.Get(c.Var) != nil {
			// Per-clause semantic short-circuit (the published algorithm's
			// behaviour for composed conditions).
			for _, cc := range conds {
				if tx.Cmp(cc.Var, cc.Op, cc.Operand) {
					return true
				}
			}
			return false
		}
	}
	tx.stats.Compares++
	result := evalAny(conds)
	for tx.snapshot != tx.g.seq.Load() {
		tx.snapshot = tx.validate()
		result = evalAny(conds)
	}
	tx.exprs.AppendOr(conds, result)
	return result
}

func evalAny(conds []core.Cond) bool {
	for _, c := range conds {
		if c.Eval() {
			return true
		}
	}
	return false
}

// Inc implements the semantic increment (Algorithm 6 lines 44–49). In the
// baseline configuration it delegates to Read+Write.
func (tx *Tx) Inc(v *core.Var, delta int64) {
	if !tx.semantic {
		tx.Write(v, tx.Read(v)+delta)
		return
	}
	tx.stats.Incs++
	tx.writes.PutInc(v, delta)
}

// Commit publishes the transaction. Read-only (and in S-NOrec compare-only)
// transactions commit with zero CAS traffic: their last read/cmp was already
// validated, and the sequence lock is never touched. Writers acquire the
// sequence lock by CAS from their snapshot; each failure means a concurrent
// commit advanced the lock, so the newer timestamp is adopted by revalidating
// at it (counted as a clock adoption) before retrying. The write-set is then
// applied — increments read memory here, safely, since commit phases are
// serial — and the lock released two ticks later.
func (tx *Tx) Commit() {
	if tx.fp != nil {
		tx.fp.Step(core.SiteCommit)
	}
	if tx.writes.Len() == 0 {
		tx.lastW = tx.snapshot
		tx.slot.Clear()
		return
	}
	for !tx.g.seq.CompareAndSwap(tx.snapshot, tx.snapshot+1) {
		tx.stats.ClockAdopts++
		tx.snapshot = tx.validate()
	}
	if tx.fp != nil {
		tx.fp.CommitDelay() // stretch the commit window under the lock
	}
	for _, e := range tx.writes.Entries() {
		if e.Kind == core.EntryInc {
			e.Var.StoreNT(e.Var.Load() + e.Val)
		} else {
			e.Var.StoreNT(e.Val)
		}
	}
	tx.g.seq.Store(tx.snapshot + 2)
	// Quiescence timestamp: any reader that starts at (or extends past)
	// snapshot+2 observed this commit's write-back.
	tx.lastW = tx.snapshot + 2
	tx.slot.Clear()
}

// PrivatizeBarrier implements core.Privatizer: it drains the snapshot words
// to the last commit's timestamp, waiting out every in-flight transaction
// whose snapshot predates it (the doomed zombies of the privatization
// literature).
func (tx *Tx) PrivatizeBarrier() { tx.g.readers.Drain(core.SnapshotAtLeast(tx.lastW)) }

// Prepare acquires the sequence lock for a two-phase (cross-shard) commit —
// the same CAS-from-snapshot loop as Commit, but with bounded waiting inside
// the adopt-revalidate step so a participant that already holds another
// shard's lock cannot deadlock against a symmetric participant. Read-only
// participants (empty write-set) acquire nothing. A successful Prepare
// leaves the lock odd until Publish or Cleanup.
func (tx *Tx) Prepare() {
	if tx.writes.Len() == 0 {
		return
	}
	for !tx.g.seq.CompareAndSwap(tx.snapshot, tx.snapshot+1) {
		tx.stats.ClockAdopts++
		tx.snapshot = tx.validateLimit(twoPhaseWaitBound)
	}
	tx.locked = true
}

// Validate re-certifies this instance's snapshot for a two-phase commit.
// While the sequence lock is held (Prepare succeeded with writes), the
// instance's memory cannot change — every commit into a shard's variables
// goes through that shard's engine — and the CAS itself proved the read-set
// valid at lock time, so there is nothing to check. A lock-free participant
// (read-only on this shard, or a live multi-shard snapshot being re-certified
// after a ticket movement) runs a bounded validation walk and adopts the
// newer timestamp.
func (tx *Tx) Validate() {
	if tx.locked {
		return
	}
	tx.snapshot = tx.validateLimit(twoPhaseWaitBound)
}

// Publish is phase 2 of the two-phase commit: apply the write-set (deferred
// increments read memory here, safely — the lock serializes commits into
// this instance) and release the lock two ticks later. It must not fail;
// read-only participants do nothing.
func (tx *Tx) Publish() {
	if !tx.locked {
		tx.lastW = tx.snapshot
		tx.slot.Clear()
		return
	}
	if tx.fp != nil {
		tx.fp.CommitDelay() // stretch the publish window under the lock
	}
	for _, e := range tx.writes.Entries() {
		if e.Kind == core.EntryInc {
			e.Var.StoreNT(e.Var.Load() + e.Val)
		} else {
			e.Var.StoreNT(e.Val)
		}
	}
	tx.locked = false
	tx.g.seq.Store(tx.snapshot + 2)
	tx.lastW = tx.snapshot + 2
	tx.slot.Clear()
}

// Cleanup releases held resources after an abort. The single-instance
// algorithm aborts only while not holding the sequence lock; a two-phase
// participant, however, can abort between Prepare and Publish (another
// shard's validation failed), in which case the lock is restored to its
// pre-Prepare value — no memory was written, so reverting the lock word is
// indistinguishable from the lock never having been taken.
func (tx *Tx) Cleanup() {
	if tx.locked {
		tx.locked = false
		tx.g.seq.Store(tx.snapshot)
	}
	tx.slot.Clear()
}

// AttemptStats exposes the per-attempt operation counters.
func (tx *Tx) AttemptStats() *core.TxStats { return &tx.stats }

// ReadSetLen reports the number of read-set entries (tests and diagnostics).
func (tx *Tx) ReadSetLen() int { return tx.reads.Len() }

// WriteSetLen reports the number of write-set entries (tests and diagnostics).
func (tx *Tx) WriteSetLen() int { return tx.writes.Len() }
