// The instrumented middle path of the progressive hybrid engine — and the
// shared barrier layer for the software slow path.
//
// Middle-path attempts keep the full lightweight per-location metadata of
// the S-HTM design: a semantic read-set (facts instead of raw values where
// the primitive allows), an expression set for composed conditions, and a
// deferred-increment write buffer. That metadata is what lets the middle
// path coexist with software transactions without mutual exclusion — when
// the conflict-detection epoch moves, the attempt *revalidates and adopts*
// the new epoch instead of aborting, exactly like a NOrec reader. The
// hardware character survives in two places: the capacity bound still
// applies (checkCapacity), and every validation-style failure is typed
// ReasonHWConflict for the demotion policy (conflict in hybrid.go).
//
// The slow path runs these same barriers with the hardware failure modes
// switched off: no capacity bound, classical abort reasons, no spurious
// commit failures.
package htm

import "semstm/internal/core"

// checkCapacity models the hardware tracking limit on the middle path; the
// software slow path is unbounded.
func (tx *HyTx) checkCapacity() {
	if tx.path == pathMiddle &&
		tx.reads.Len()+tx.exprs.Len()+tx.writes.Len() > tx.Capacity {
		tx.abortPath(core.ReasonHWCapacity)
	}
}

// validate re-checks the read- and expression-sets at a stable epoch and
// returns it. Failures unwind through conflict (typed per path).
func (tx *HyTx) validate() uint64 {
	return tx.validateLimit(0)
}

// validateLimit is validate with a bounded wait on the sequence lock; the
// two-phase commit path uses the bound to stay deadlock-free while holding
// its own shard's lock (see slow.go). limit <= 0 waits forever.
func (tx *HyTx) validateLimit(limit int) uint64 {
	tx.waiter.Reset()
	rounds := 0
	for {
		time := tx.g.seq.Load()
		if time&1 != 0 {
			rounds++
			if limit > 0 && rounds > limit {
				tx.conflict(core.ReasonOrecLocked)
			}
			tx.waiter.Wait()
			tx.stats.SpinWaits++
			continue
		}
		if tx.fp != nil && tx.fp.ValidationFail() {
			tx.conflict(core.ReasonValidation)
		}
		tx.stats.Validations++
		tx.stats.ValEntries += uint64(tx.reads.Len() + tx.exprs.Len())
		if ok, why := tx.reads.BrokenReason(); !ok {
			tx.conflict(why)
		}
		if !tx.exprs.HoldsNow() {
			tx.conflict(core.ReasonCmpFlip)
		}
		if time == tx.g.seq.Load() {
			// Forward pin movement: validated at time, so no longer a zombie
			// with respect to any commit at or before it.
			tx.slot.MoveSnapshot(time)
			return time
		}
	}
}

// readValid returns a value consistent with the current snapshot, extending
// the snapshot when the epoch moved.
func (tx *HyTx) readValid(v *core.Var) int64 {
	val := v.Load()
	for tx.snapshot != tx.g.seq.Load() {
		tx.snapshot = tx.validate()
		val = v.Load()
	}
	return val
}

// instRaw resolves a read that hit the write buffer, promoting deferred
// increments (the resolved value needs the memory value, which must be
// tracked from here on).
func (tx *HyTx) instRaw(v *core.Var, e *core.WriteEntry) int64 {
	if e.Kind == core.EntryInc {
		val := tx.readValid(v)
		tx.reads.Append(v, core.OpEQ, val)
		tx.writes.Promote(v, e.Val+val)
		tx.stats.Promotes++
	}
	return e.Val
}

// instRead is the instrumented read barrier (middle and slow paths).
func (tx *HyTx) instRead(v *core.Var) int64 {
	tx.inject(core.SiteRead)
	if e := tx.writes.Get(v); e != nil {
		return tx.instRaw(v, e)
	}
	val := tx.readValid(v)
	tx.reads.Append(v, core.OpEQ, val)
	tx.checkCapacity()
	return val
}

// instCmp records the conditional as a semantic fact: one tracked slot, and
// benign concurrent changes that preserve the outcome do not abort.
func (tx *HyTx) instCmp(v *core.Var, op core.Op, operand int64) bool {
	tx.inject(core.SiteCmp)
	if e := tx.writes.Get(v); e != nil {
		return op.Eval(tx.instRaw(v, e), operand)
	}
	val := tx.readValid(v)
	result := op.Eval(val, operand)
	tx.reads.AppendOutcome(v, op, operand, result)
	tx.checkCapacity()
	return result
}

// instCmpVars implements the address–address conditional.
func (tx *HyTx) instCmpVars(a *core.Var, op core.Op, b *core.Var) bool {
	// One indexed lookup per operand (see the WriteSet Bloom fast path).
	if eb := tx.writes.Get(b); eb != nil || tx.writes.Get(a) != nil {
		var operand int64
		if eb != nil {
			operand = tx.instRaw(b, eb)
		} else {
			tx.stats.Reads++
			operand = tx.readValid(b)
			tx.reads.Append(b, core.OpEQ, operand)
		}
		tx.stats.Compares++
		return tx.instCmp(a, op, operand)
	}
	tx.stats.Compares++
	va, vb := a.Load(), b.Load()
	for tx.snapshot != tx.g.seq.Load() {
		tx.snapshot = tx.validate()
		va, vb = a.Load(), b.Load()
	}
	result := op.Eval(va, vb)
	tx.reads.AppendOutcomeVar(a, op, b, result)
	tx.checkCapacity()
	return result
}

// instCmpSum records the arithmetic-expression conditional as one composed
// fact (one tracked slot instead of one per addend) unless an addend is
// buffered, in which case it degrades to per-var reads.
func (tx *HyTx) instCmpSum(op core.Op, rhs int64, vars []*core.Var) bool {
	for _, v := range vars {
		if tx.writes.Get(v) != nil {
			var sum int64
			for _, vv := range vars {
				tx.stats.Reads++
				sum += tx.instRead(vv)
			}
			return op.Eval(sum, rhs)
		}
	}
	tx.stats.Compares++
	sum := sumLoads(vars)
	for tx.snapshot != tx.g.seq.Load() {
		tx.snapshot = tx.validate()
		sum = sumLoads(vars)
	}
	result := op.Eval(sum, rhs)
	tx.exprs.AppendSum(vars, op, rhs, result)
	tx.checkCapacity()
	return result
}

// instCmpAny records the composed condition as one OR fact, degrading to
// per-clause facts when a clause variable is buffered.
func (tx *HyTx) instCmpAny(conds []core.Cond) bool {
	for _, c := range conds {
		if tx.writes.Get(c.Var) != nil {
			for _, cc := range conds {
				tx.stats.Compares++
				if tx.instCmp(cc.Var, cc.Op, cc.Operand) {
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
	tx.checkCapacity()
	return result
}

// instCommit publishes a middle- or slow-path attempt: validate-and-adopt
// until the CAS serializes the writer, publish, release. This is the NOrec
// writer protocol — which is exactly why middle-path hardware attempts and
// slow-path software attempts commit concurrently without extra exclusion.
func (tx *HyTx) instCommit() {
	if tx.writes.Len() == 0 {
		tx.countCommit()
		tx.lastW = tx.snapshot
		tx.slot.Clear()
		return
	}
	for !tx.g.seq.CompareAndSwap(tx.snapshot, tx.snapshot+1) {
		// A concurrent commit (or fallback) moved the lock: adopt the newer
		// timestamp by revalidating at it.
		tx.stats.ClockAdopts++
		tx.snapshot = tx.validate()
	}
	tx.g.stampSig(tx.snapshot+2, tx.writes) // fast readers check this epoch
	if tx.fp != nil {
		tx.fp.CommitDelay() // stretch the commit window under the lock
	}
	tx.publish()
	tx.g.seq.Store(tx.snapshot + 2)
	tx.countCommit()
	tx.lastW = tx.snapshot + 2
	tx.slot.Clear()
}
