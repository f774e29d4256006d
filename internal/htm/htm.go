// Package htm simulates a best-effort hardware transactional memory with a
// single-global-lock software fallback — the hybrid-TM substrate the paper's
// introduction surveys ([Calciu et al.], [Dalessandro et al., Hybrid NOrec])
// and whose semantic extension the conclusions name as future work.
//
// The simulation captures the three properties of real best-effort HTM that
// matter for algorithm studies:
//
//   - capacity limits: a hardware transaction tracking more than Capacity
//     locations aborts (L1-sized read/write sets);
//   - spurious aborts: a hardware commit fails with probability SpuriousPct
//     even without conflicts (interrupts, TLB misses);
//   - lock subscription: hardware transactions snapshot the fallback lock
//     and cannot commit while a fallback transaction runs.
//
// After MaxHWRetries hardware failures a transaction acquires the fallback
// lock and runs irrevocably. The semantic variant (S-HTM) applies the
// paper's primitives to the hardware path: conditionals become facts and
// increments defer, shrinking the tracked set — which, under capacity
// limits, also means *fewer capacity aborts*, an effect unique to HTM.
package htm

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"semstm/internal/core"
)

// Tuning defaults.
const (
	// DefaultCapacity bounds the tracked locations of one hardware attempt.
	DefaultCapacity = 64
	// DefaultMaxHWRetries is how many hardware failures precede fallback.
	DefaultMaxHWRetries = 4
	// DefaultSpuriousPct is the per-commit spurious failure probability (%).
	DefaultSpuriousPct = 0.5
)

// Write-record ring geometry (progressive engine only, DESIGN.md §13).
//
// Every committed writer stamps its write-set into the ring slot of its
// commit epoch before releasing the sequence lock. That is the simulation of
// hardware conflict detection: real HTM aborts a speculating transaction only
// when a cache line it touched is invalidated, not whenever *any* core
// commits. The uninstrumented fast path keeps a local read signature (two
// bits per first-touch, no read-set) and, when the epoch moves, tests each
// recorded write of the intervening commits for Bloom *membership* in that
// signature — all-misses means the moved epoch can be adopted and the attempt
// survives. Membership (both bits set) rather than signature intersection
// (any bit shared) is deliberate: write-sets here are a handful of locations,
// and an intersection test's false-positive rate is per *bit* — at a
// 100-location read footprint it would fire on several percent of disjoint
// commits, drowning the true conflict rate — while membership of an exact
// write record is per *location*, (2n/m)^2 ~ 0.1% at the same density. The
// false positives that remain are indistinguishable from the false sharing of
// a line-granular conflict detector: a safe, spurious-looking hardware abort.
const (
	// sigWords x 64 = 4096 read-signature bits, sized for the simulated
	// capacity bound: a fast-path attempt may track up to Capacity locations
	// at two bits each while keeping the membership false-positive rate per
	// recorded write around 0.1% (the sizing argument RingSTM makes for its
	// filters, adapted to membership tests).
	sigWords = 64
	sigBits  = sigWords * 64
	// sigCap is the largest write-set recorded exactly; a wider commit (or
	// an irrevocable fallback, whose in-place writes were never buffered)
	// stamps sigWide instead, which every behind-the-epoch fast attempt
	// treats as a certain conflict.
	sigCap  = 64
	sigWide = ^uint64(0)
	// sigSlots is the ring depth in epochs. A reader that has fallen more
	// than sigMaxLag epochs behind can no longer prove its slots were not
	// recycled and must abort conservatively — the simulated analogue of a
	// hardware transaction outliving its speculation resources.
	sigSlots  = 256
	sigMaxLag = sigSlots - 1
	// sigIDMix is the Fibonacci multiplier hashing variable identities into
	// bit positions (same constant the core sets use for their filters).
	sigIDMix = 0x9E3779B97F4A7C15
)

// sigBitsFor returns the two Bloom bit positions for a variable identity.
func sigBitsFor(id uint64) (uint64, uint64) {
	h := id * sigIDMix
	return h >> 52, (h >> 40) & (sigBits - 1) // top 12 bits, next 12 bits
}

// Global is the state shared by all transactions of one HTM runtime: a
// timestamped sequence lock serving both as the commit serializer of
// hardware transactions and as the fallback lock they subscribe to. The lock
// is subscribed (polled) by every hardware attempt, so it lives on its own
// cache line; the fallback/abort tallies are bumped on the failure paths and
// must not drag the lock's line with them.
type Global struct {
	seq       atomic.Uint64
	_         core.PadWord
	fallbacks atomic.Uint64
	hwAborts  atomic.Uint64

	// sigs is the per-epoch write-record ring of the progressive engine:
	// slot (epoch>>1) & (sigSlots-1) holds the write-set of the commit that
	// released the sequence lock at that (even) epoch. Word 0 of a slot is
	// the record length (or sigWide for an unknown write-set); words 1..n
	// are the written variable identities, exact — a typical commit writes
	// a handful of locations, so both stamping and scanning touch a few
	// words. Entries past the length are stale leftovers from the slot's
	// previous occupant and are never read. Stamped while the lock is held,
	// so slot stores never race each other; readers guard against mid-scan
	// recycling by re-checking the lock after the scan. Classic
	// (non-progressive) transactions never consult it.
	sigs [sigSlots][1 + sigCap]atomic.Uint64

	// readers is the privatization-barrier surface (DESIGN.md §14): each
	// descriptor publishes its subscribed snapshot in a word here, and a
	// privatizing committer drains the words to its release timestamp.
	readers core.Registry

	// privatizing counts in-flight privatizing commits. While non-zero the
	// progressive engine demotes new fast-path attempts to the instrumented
	// middle path: the uninstrumented fast path publishes no snapshot and
	// cannot be drained, so it must sit out the barrier window.
	privatizing atomic.Int64
}

// NewGlobal returns a fresh runtime state.
func NewGlobal() *Global { return &Global{} }

// Fallbacks reports how many transactions took the software fallback.
func (g *Global) Fallbacks() uint64 { return g.fallbacks.Load() }

// HWAborts reports how many hardware attempts failed (conflict, capacity,
// or spurious).
func (g *Global) HWAborts() uint64 { return g.hwAborts.Load() }

// Sequence exposes the sequence-lock value (tests and shard clock probes).
func (g *Global) Sequence() uint64 { return g.seq.Load() }

// Quiescent verifies the fallback/sequence lock is not leaked: at a
// quiescent point it must be even (no irrevocable transaction running).
func (g *Global) Quiescent() error {
	if s := g.seq.Load(); s&1 != 0 {
		return fmt.Errorf("htm: fallback lock leaked (seq=%d)", s)
	}
	return nil
}

// stampSig records the write-set for the commit that will release the
// sequence lock at the (even) value release. Called with the lock held: the
// slot overwrite cannot race another stamp, and the release store that makes
// the epoch observable happens after, so any reader that sees the new epoch
// also sees its record.
func (g *Global) stampSig(release uint64, ws *core.WriteSet) {
	slot := &g.sigs[(release>>1)&(sigSlots-1)]
	es := ws.Entries()
	if len(es) > sigCap {
		slot[0].Store(sigWide)
		return
	}
	for i, e := range es {
		slot[1+i].Store(e.Var.ID())
	}
	slot[0].Store(uint64(len(es)))
}

// stampSigAll records the unknown-write-set sentinel: an irrevocable fallback
// wrote memory in place, so its write-set was never buffered and every
// concurrent fast attempt that read anything must conservatively abort.
func (g *Global) stampSigAll(release uint64) {
	g.sigs[(release>>1)&(sigSlots-1)][0].Store(sigWide)
}

// Tx is one hybrid transaction descriptor.
type Tx struct {
	g        *Global
	semantic bool
	rng      *rand.Rand

	// Tunables, set before first use.
	Capacity     int
	MaxHWRetries int
	SpuriousPct  float64

	snapshot    uint64
	fp          *core.FaultPlan // nil unless fault injection is armed
	reads       *core.SemSet
	exprs       *core.ExprSet
	writes      *core.WriteSet
	waiter      core.Waiter
	slot        *core.Announce // published snapshot (privatization)
	lastW       uint64         // release timestamp of the last commit
	hwFailures  int
	irrevocable bool
	stats       core.TxStats
}

// NewTx returns a descriptor bound to g; semantic selects S-HTM.
func NewTx(g *Global, semantic bool, seed int64) *Tx {
	return &Tx{
		g:            g,
		semantic:     semantic,
		rng:          rand.New(rand.NewSource(seed)),
		Capacity:     DefaultCapacity,
		MaxHWRetries: DefaultMaxHWRetries,
		SpuriousPct:  DefaultSpuriousPct,
		reads:        core.NewSemSet(),
		exprs:        core.NewExprSet(),
		writes:       core.NewWriteSet(),
		slot:         g.readers.Register(),
	}
}

// NewEpoch begins a new logical transaction: the hardware-failure budget
// resets. The runtime calls it once per Atomically invocation.
func (tx *Tx) NewEpoch() { tx.hwFailures = 0 }

// Start begins an attempt: hardware speculation while the failure budget
// lasts, otherwise the irrevocable fallback under the global lock.
func (tx *Tx) Start() {
	tx.reads.Reset()
	tx.exprs.Reset()
	tx.writes.Reset()
	tx.stats.Reset()
	if tx.hwFailures > tx.MaxHWRetries {
		// Fallback: acquire the sequence lock (make it odd) and run
		// irrevocably; hardware commits are blocked meanwhile.
		tx.waiter.Reset()
		for {
			s := tx.g.seq.Load()
			if s&1 == 0 && tx.g.seq.CompareAndSwap(s, s+1) {
				break
			}
			tx.waiter.Wait()
			tx.stats.SpinWaits++
		}
		tx.irrevocable = true
		tx.g.fallbacks.Add(1)
		return
	}
	tx.irrevocable = false
	tx.inject(core.SiteStart)
	// Subscribe: wait out fallback transactions.
	tx.snapshot = tx.slot.PinSeqlock(&tx.g.seq, &tx.waiter, &tx.stats.SpinWaits)
}

// SetFaultPlan arms or disarms deterministic fault injection.
func (tx *Tx) SetFaultPlan(p *core.FaultPlan) { tx.fp = p }

// inject fires the fault plan at site on the hardware path only; injected
// faults count as hardware failures, so MaxHWRetries of them still drive the
// transaction into the irrevocable lock fallback.
func (tx *Tx) inject(site core.FaultSite) {
	if tx.fp != nil && !tx.irrevocable && tx.fp.SpuriousHit(site) {
		tx.abortHW(core.ReasonSpurious)
	}
}

// abortHW records a hardware failure and unwinds the attempt.
func (tx *Tx) abortHW(reason core.Reason) {
	tx.hwFailures++
	tx.g.hwAborts.Add(1)
	core.AbortWith(reason)
}

// checkCapacity aborts the hardware attempt when the tracked set exceeds
// the simulated hardware buffers.
func (tx *Tx) checkCapacity() {
	if tx.reads.Len()+tx.exprs.Len()+tx.writes.Len() > tx.Capacity {
		tx.abortHW(core.ReasonCapacity)
	}
}

func (tx *Tx) validate() uint64 {
	tx.waiter.Reset()
	for {
		time := tx.g.seq.Load()
		if time&1 != 0 {
			tx.waiter.Wait()
			tx.stats.SpinWaits++
			continue
		}
		if tx.fp != nil && tx.fp.ValidationFail() {
			tx.abortHW(core.ReasonValidation)
		}
		tx.stats.Validations++
		tx.stats.ValEntries += uint64(tx.reads.Len() + tx.exprs.Len())
		if ok, why := tx.reads.BrokenReason(); !ok {
			tx.abortHW(why)
		}
		if !tx.exprs.HoldsNow() {
			tx.abortHW(core.ReasonCmpFlip)
		}
		if time == tx.g.seq.Load() {
			// Forward pin movement: validated at time, so no longer a zombie
			// with respect to any commit at or before it.
			tx.slot.MoveSnapshot(time)
			return time
		}
	}
}

func (tx *Tx) readValid(v *core.Var) int64 {
	val := v.Load()
	for tx.snapshot != tx.g.seq.Load() {
		tx.snapshot = tx.validate()
		val = v.Load()
	}
	return val
}

func (tx *Tx) raw(v *core.Var, e *core.WriteEntry) int64 {
	if e.Kind == core.EntryInc {
		val := tx.readValid(v)
		tx.reads.Append(v, core.OpEQ, val)
		tx.writes.Promote(v, e.Val+val)
		tx.stats.Promotes++
	}
	return e.Val
}

// Read implements TM_READ: direct in the fallback, tracked in hardware.
func (tx *Tx) Read(v *core.Var) int64 {
	tx.stats.Reads++
	if tx.irrevocable {
		return v.Load()
	}
	tx.inject(core.SiteRead)
	if e := tx.writes.Get(v); e != nil {
		return tx.raw(v, e)
	}
	val := tx.readValid(v)
	tx.reads.Append(v, core.OpEQ, val)
	tx.checkCapacity()
	return val
}

// Write implements TM_WRITE: in place in the fallback, buffered in hardware.
func (tx *Tx) Write(v *core.Var, val int64) {
	tx.stats.Writes++
	if tx.irrevocable {
		v.StoreNT(val)
		return
	}
	tx.writes.PutWrite(v, val)
	tx.checkCapacity()
}

// Cmp implements the semantic conditional; under S-HTM a fact occupies one
// tracked slot just like a read, but survives benign concurrent changes.
func (tx *Tx) Cmp(v *core.Var, op core.Op, operand int64) bool {
	if !tx.semantic {
		return op.Eval(tx.Read(v), operand)
	}
	tx.stats.Compares++
	if tx.irrevocable {
		return op.Eval(v.Load(), operand)
	}
	tx.inject(core.SiteCmp)
	if e := tx.writes.Get(v); e != nil {
		return op.Eval(tx.raw(v, e), operand)
	}
	val := tx.readValid(v)
	result := op.Eval(val, operand)
	tx.reads.AppendOutcome(v, op, operand, result)
	tx.checkCapacity()
	return result
}

// CmpVars implements the address–address conditional.
func (tx *Tx) CmpVars(a *core.Var, op core.Op, b *core.Var) bool {
	if !tx.semantic {
		operand := tx.Read(b)
		return op.Eval(tx.Read(a), operand)
	}
	if tx.irrevocable {
		tx.stats.Compares++
		return op.Eval(a.Load(), b.Load())
	}
	// One indexed lookup per operand (see the WriteSet Bloom fast path).
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
	tx.checkCapacity()
	return result
}

// Inc implements the semantic increment; deferring it keeps the hardware
// read-set small (no tracked read at all).
func (tx *Tx) Inc(v *core.Var, delta int64) {
	if !tx.semantic {
		tx.Write(v, tx.Read(v)+delta)
		return
	}
	tx.stats.Incs++
	if tx.irrevocable {
		v.StoreNT(v.Load() + delta)
		return
	}
	tx.writes.PutInc(v, delta)
	tx.checkCapacity()
}

// CmpSum implements the arithmetic-expression conditional natively in the
// hardware path (one tracked fact instead of one tracked read per addend).
func (tx *Tx) CmpSum(op core.Op, rhs int64, vars []*core.Var) bool {
	delegate := !tx.semantic
	if !delegate && !tx.irrevocable {
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
	if tx.irrevocable {
		return op.Eval(sum, rhs)
	}
	for tx.snapshot != tx.g.seq.Load() {
		tx.snapshot = tx.validate()
		sum = sumLoads(vars)
	}
	result := op.Eval(sum, rhs)
	tx.exprs.AppendSum(vars, op, rhs, result)
	tx.checkCapacity()
	return result
}

func sumLoads(vars []*core.Var) int64 {
	var sum int64
	for _, v := range vars {
		sum += v.Load()
	}
	return sum
}

// CmpAny implements the composed condition natively in the hardware path.
func (tx *Tx) CmpAny(conds []core.Cond) bool {
	if !tx.semantic {
		for _, c := range conds {
			if c.Op.Eval(tx.Read(c.Var), c.Operand) {
				return true
			}
		}
		return false
	}
	tx.stats.Compares++
	if tx.irrevocable {
		return evalAny(conds)
	}
	for _, c := range conds {
		if tx.writes.Get(c.Var) != nil {
			tx.stats.Compares-- // per-clause path re-counts
			for _, cc := range conds {
				if tx.Cmp(cc.Var, cc.Op, cc.Operand) {
					return true
				}
			}
			return false
		}
	}
	result := evalAny(conds)
	for tx.snapshot != tx.g.seq.Load() {
		tx.snapshot = tx.validate()
		result = evalAny(conds)
	}
	tx.exprs.AppendOr(conds, result)
	tx.checkCapacity()
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

// Commit publishes the transaction: fallback commits release the lock;
// hardware commits may fail spuriously, then validate and publish under the
// sequence lock exactly like a (bounded) NOrec writer.
func (tx *Tx) Commit() {
	if tx.irrevocable {
		tx.lastW = tx.g.seq.Add(1) // release: odd -> even
		tx.irrevocable = false
		tx.slot.Clear()
		return
	}
	tx.inject(core.SiteCommit)
	if tx.SpuriousPct > 0 && tx.rng.Float64()*100 < tx.SpuriousPct {
		tx.abortHW(core.ReasonSpurious)
	}
	if tx.writes.Len() == 0 {
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
	tx.lastW = tx.snapshot + 2
	tx.slot.Clear()
}

// PrivatizeBarrier implements core.Privatizer (Global.privatize).
func (tx *Tx) PrivatizeBarrier() { tx.g.privatize(tx.lastW) }

// privatize waits out every reader subscribed to a snapshot before w, with
// the privatizing counter raised so the progressive engine's uninstrumented
// fast path sits out the window.
func (g *Global) privatize(w uint64) {
	g.privatizing.Add(1)
	defer g.privatizing.Add(-1)
	g.readers.Drain(core.SnapshotAtLeast(w))
}

// Cleanup releases the fallback lock if an irrevocable attempt unwound via a
// user panic (irrevocable attempts never abort on their own), and
// un-publishes the snapshot word.
func (tx *Tx) Cleanup() {
	if tx.irrevocable {
		tx.g.seq.Add(1)
		tx.irrevocable = false
	}
	tx.slot.Clear()
}

// AttemptStats exposes the per-attempt operation counters.
func (tx *Tx) AttemptStats() *core.TxStats { return &tx.stats }
