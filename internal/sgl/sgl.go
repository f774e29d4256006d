// Package sgl implements a trivial single-global-lock TM: every transaction
// runs under one mutex, accesses memory in place, and never aborts. It is not
// part of the paper's evaluation but serves as a sanity baseline for tests
// and as the lower bound any speculative algorithm must beat under low
// contention.
package sgl

import (
	"fmt"
	"sync"

	"semstm/internal/core"
)

// Global is the state shared by all transactions of one SGL runtime.
type Global struct {
	mu sync.Mutex
}

// NewGlobal returns a fresh runtime state.
func NewGlobal() *Global { return &Global{} }

// Quiescent verifies the global lock is free (no leak through aborts,
// injected faults, or user panics).
func (g *Global) Quiescent() error {
	if !g.mu.TryLock() {
		return fmt.Errorf("sgl: global lock leaked")
	}
	g.mu.Unlock()
	return nil
}

// Tx is one SGL transaction descriptor.
type Tx struct {
	g     *Global
	fp    *core.FaultPlan // nil unless fault injection is armed
	stats core.TxStats
}

// NewTx returns a transaction descriptor bound to g.
func NewTx(g *Global) *Tx { return &Tx{g: g} }

// Start acquires the global lock; the transaction runs in mutual exclusion.
// SGL mutates memory in place with no undo log, so aborting faults may fire
// only here — after the lock is held (Cleanup's unlock stays balanced) and
// before the body has written anything. Later sites would tear atomicity.
func (tx *Tx) Start() {
	tx.stats.Reset()
	tx.g.mu.Lock()
	if tx.fp != nil {
		tx.fp.Step(core.SiteStart)
	}
}

// SetFaultPlan arms or disarms deterministic fault injection.
func (tx *Tx) SetFaultPlan(p *core.FaultPlan) { tx.fp = p }

// Read loads the variable in place.
func (tx *Tx) Read(v *core.Var) int64 {
	tx.stats.Reads++
	return v.Load()
}

// Write stores the variable in place; there is no roll-back, which is safe
// because SGL transactions cannot abort.
func (tx *Tx) Write(v *core.Var, val int64) {
	tx.stats.Writes++
	v.StoreNT(val)
}

// Cmp evaluates the conditional in place.
func (tx *Tx) Cmp(v *core.Var, op core.Op, operand int64) bool {
	tx.stats.Compares++
	return op.Eval(v.Load(), operand)
}

// CmpVars evaluates the address–address conditional in place.
func (tx *Tx) CmpVars(a *core.Var, op core.Op, b *core.Var) bool {
	tx.stats.Compares++
	return op.Eval(a.Load(), b.Load())
}

// CmpSum evaluates the arithmetic conditional in place.
func (tx *Tx) CmpSum(op core.Op, rhs int64, vars []*core.Var) bool {
	tx.stats.Compares++
	var sum int64
	for _, v := range vars {
		sum += v.Load()
	}
	return op.Eval(sum, rhs)
}

// CmpAny evaluates the composed condition in place.
func (tx *Tx) CmpAny(conds []core.Cond) bool {
	tx.stats.Compares++
	for _, c := range conds {
		if c.Eval() {
			return true
		}
	}
	return false
}

// Inc applies the increment in place.
func (tx *Tx) Inc(v *core.Var, delta int64) {
	tx.stats.Incs++
	v.StoreNT(v.Load() + delta)
}

// Commit releases the global lock. Only the non-aborting commit delay may
// be injected here: the in-place writes are already visible and cannot be
// rolled back.
func (tx *Tx) Commit() {
	if tx.fp != nil {
		tx.fp.CommitDelay()
	}
	tx.g.mu.Unlock()
}

// Cleanup releases the lock after a user-initiated restart. SGL itself never
// aborts, but user code may call Restart inside an atomic block.
func (tx *Tx) Cleanup() { tx.g.mu.Unlock() }

// AttemptStats exposes the per-attempt operation counters.
func (tx *Tx) AttemptStats() *core.TxStats { return &tx.stats }
