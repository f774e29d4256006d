// Package shard composes N independent instances of one concrete STM engine
// into a single partitioned engine (DESIGN.md §11).
//
// Each instance — a "shard" — owns a full copy of the underlying algorithm's
// global metadata: its own TL2 version clock and orec table, or its own NOrec
// sequence lock. Variables carry a shard assignment stamped at allocation
// (core.NewVarOn), and every barrier of a transaction routes to the instance
// of its variable's shard. A transaction that touches a single shard runs
// the underlying algorithm completely unchanged against that shard's private
// metadata and commits with zero cross-shard traffic — disjoint shards never
// share a cache line, which removes the single-clock commit serialization
// that PR3–PR5 left in place ("the last structural scalability ceiling",
// ROADMAP item 1).
//
// Transactions that span shards commit through a two-phase protocol built
// from the core.TwoPhase decomposition the TL2 and NOrec families implement:
//
//	phase 1  Prepare every participating shard in ascending shard order
//	         (global order ⇒ no lock-acquisition cycles), then Validate
//	         every participant with all write locks held — reads,
//	         compare-sets, and deferred-increment preconditions are checked
//	         per shard against that shard's start version, generalizing the
//	         S-TL2 phase-1 extension logic.
//	phase 2  advance the engine-wide commit ticket (the single linearization
//	         point), then Publish every shard — write-back plus lock
//	         release, which the TwoPhase contract guarantees cannot fail.
//
// Live multi-shard snapshots stay opaque through the ticket: a transaction
// becomes "multi" the moment it touches its second shard, snapshots the
// ticket, and re-certifies every started shard whenever the ticket moves —
// one shared load per barrier, the instrumentation budget the HyTM cost
// analysis allows the cross-shard path (PAPERS.md). Single-shard
// transactions never load the ticket at all, keeping the common path
// progressive in the sense of the progressive-TM model (PAPERS.md).
//
// Irrevocable engines (SGL) cannot run the two-phase protocol — they take
// their lock at Start and have no rollback — so a sharded irrevocable engine
// degenerates to one serializing instance backing every shard. That keeps
// the Adaptive ladder's last rung (and the starvation escalation path) valid
// under sharding.
package shard

import (
	"errors"
	"fmt"
	"sync/atomic"

	"semstm/internal/core"
	"semstm/internal/wal"
)

// Logger is the durable redo sink a shard engine drives (DESIGN.md §12) —
// in production the wal.Set of the runtime's log directory. LogSingle
// appends one single-shard commit's records to one shard's log; LogCross
// appends one cross-shard commit's per-participant record subsets, tagged so
// recovery applies them all-or-nothing. Both block until the frame is
// durable per the set's fsync policy and return the log's latched error
// once it has failed or crashed.
type Logger interface {
	LogSingle(shard int, recs []wal.Record) error
	LogCross(parts []int, recs [][]wal.Record) error
}

// shardCounters tracks one shard's commit mix on a private cache line:
// single-shard commits routed entirely to this shard, cross-shard commits
// this shard participated in, and batched logical requests folded into this
// shard's commits by a coalescing caller (stm.AtomicallyBatch).
type shardCounters struct {
	single  atomic.Uint64
	cross   atomic.Uint64
	batched atomic.Uint64
	_       [40]byte
}

// ShardSnapshot is a plain-value copy of one shard's commit counters.
// BatchedRequests counts the logical client requests coalesced into this
// shard's commits — BatchedRequests/SingleCommits is the shard's observed
// amortization factor.
type ShardSnapshot struct {
	SingleCommits   uint64 `json:"single_commits"`
	CrossCommits    uint64 `json:"cross_commits"`
	BatchedRequests uint64 `json:"batched_requests"`
}

// clockProber is the optional probe concrete engines expose so tests can
// assert a shard's commit metadata never moved (tl2: version clock; norec:
// sequence lock).
type clockProber interface {
	ClockValue() uint64
}

// Engine is the partitioned composite engine. It implements core.Engine, so
// a runtime drives it exactly like a concrete engine; the partitioning is
// invisible above this package.
type Engine struct {
	desc core.EngineDesc
	subs []core.Engine
	// n is the requested shard count (the routing/reporting width); eff is
	// the number of engine instances actually backing it — equal to n for
	// two-phase engines, 1 for irrevocable engines.
	n, eff   int
	counters []shardCounters
	// ticket is the engine-wide cross-shard commit counter: bumped once per
	// cross-shard commit between validation and publication, watched by live
	// multi-shard transactions. Padded so the (cross-path-only) ticket line
	// is never dragged into single-shard traffic.
	_      core.PadWord
	ticket atomic.Uint64
	_      core.PadWord

	// Durable pipeline (DESIGN.md §12): when a logger is installed, every
	// barrier on a durable-keyed Var captures a semantic redo record and the
	// commit paths append the records before publication. logFacts
	// additionally captures single-variable cmp outcomes as self-checking
	// fact records. walFailed latches after a real log I/O error: the
	// failing attempt aborts with ReasonLogFail (escalating to the
	// irrevocable mode), and every later commit skips logging — the runtime
	// degrades to volatile instead of wedging on a dead disk.
	logger    Logger
	logFacts  bool
	walFailed atomic.Bool
}

// SetLogger installs the durable redo sink. Call before the engine is
// shared; a nil logger keeps the whole capture path to one pointer test per
// barrier.
func (e *Engine) SetLogger(l Logger, logFacts bool) {
	e.logger = l
	e.logFacts = logFacts
}

// WALFailed reports whether a log-write failure has latched the engine into
// volatile degraded mode.
func (e *Engine) WALFailed() bool { return e.walFailed.Load() }

// NewEngine partitions desc into nshards independent instances. It panics on
// a composite descriptor (composition happens above sharding, in the facade),
// on a shard count below 1, and on an engine that is neither two-phase nor
// irrevocable — such an engine has no sound cross-shard commit.
func NewEngine(desc core.EngineDesc, nshards int) *Engine {
	if nshards < 1 {
		panic(fmt.Sprintf("shard: invalid shard count %d", nshards))
	}
	if desc.Composite {
		panic(fmt.Sprintf("shard: cannot shard composite engine %q", desc.Name))
	}
	eff := nshards
	if desc.Irrevocable {
		eff = 1 // one serializing instance backs every shard
	} else if !desc.TwoPhase {
		panic(fmt.Sprintf("shard: engine %q supports neither two-phase commit nor irrevocable sharding", desc.Name))
	}
	e := &Engine{
		desc:     desc,
		subs:     make([]core.Engine, eff),
		n:        nshards,
		eff:      eff,
		counters: make([]shardCounters, eff),
	}
	for i := range e.subs {
		e.subs[i] = desc.New()
	}
	return e
}

// NumShards reports the requested shard count.
func (e *Engine) NumShards() int { return e.n }

// Ticket exposes the cross-shard commit ticket (tests and diagnostics).
func (e *Engine) Ticket() uint64 { return e.ticket.Load() }

// ShardOf reports the backing instance a variable routes to — the routing
// decision a coalescing front-end (internal/server) must replicate to
// assemble single-shard batches.
func (e *Engine) ShardOf(v *core.Var) int { return e.shardOf(v) }

// shardOf maps a variable to its backing instance: the stamped shard
// assignment, folded into range for out-of-range stamps (a Var allocated for
// a wider runtime keeps working, just with less isolation).
func (e *Engine) shardOf(v *core.Var) int {
	if e.eff == 1 {
		return 0
	}
	s := v.Shard()
	if s >= e.eff {
		s %= e.eff
	}
	return s
}

// Snapshots returns the per-shard commit counters, one entry per requested
// shard (for an irrevocable engine all traffic folds into entry 0).
func (e *Engine) Snapshots() []ShardSnapshot {
	out := make([]ShardSnapshot, e.n)
	for i := 0; i < e.eff; i++ {
		out[i] = ShardSnapshot{
			SingleCommits:   e.counters[i].single.Load(),
			CrossCommits:    e.counters[i].cross.Load(),
			BatchedRequests: e.counters[i].batched.Load(),
		}
	}
	return out
}

// ClockValue probes shard s's commit metadata (version clock or sequence
// lock). The second result is false when the underlying engine exposes no
// probe or s is out of range.
func (e *Engine) ClockValue(s int) (uint64, bool) {
	if s < 0 || s >= e.eff {
		return 0, false
	}
	if p, ok := e.subs[s].(clockProber); ok {
		return p.ClockValue(), true
	}
	return 0, false
}

// Quiescent verifies every shard's metadata holds no leaked resources.
func (e *Engine) Quiescent() error {
	for i, sub := range e.subs {
		if err := sub.Quiescent(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// hwReporter is the per-shard view of the facade's HTM telemetry probe.
type hwReporter interface {
	Fallbacks() uint64
	HWAborts() uint64
}

// Fallbacks sums the hardware-fallback tallies over the shards whose
// sub-engine exposes them (zero for software engines).
func (e *Engine) Fallbacks() uint64 {
	var n uint64
	for _, sub := range e.subs {
		if r, ok := sub.(hwReporter); ok {
			n += r.Fallbacks()
		}
	}
	return n
}

// HWAborts sums the hardware-abort tallies over the shards whose sub-engine
// exposes them.
func (e *Engine) HWAborts() uint64 {
	var n uint64
	for _, sub := range e.subs {
		if r, ok := sub.(hwReporter); ok {
			n += r.HWAborts()
		}
	}
	return n
}

// NewTx returns a sharded transaction descriptor. Sub-descriptors are
// created lazily on first touch of their shard and cached for the
// descriptor's lifetime, so the steady state allocates nothing.
func (e *Engine) NewTx(cfg core.TxConfig) core.TxImpl {
	// No sub-engine may fall back to an in-engine irrevocable mode: an
	// irrevocable attempt writes in place, which cannot roll back when
	// another shard's Prepare aborts a cross-shard commit. Progress comes
	// from the runtime-level escalation gate instead.
	cfg.NoIrrevocable = true
	return &Tx{
		e:       e,
		cfg:     cfg,
		impls:   make([]core.TxImpl, e.eff),
		two:     make([]core.TwoPhase, e.eff),
		started: make([]bool, e.eff),
		touched: make([]int, 0, e.eff),
	}
}

// Tx is one sharded transaction descriptor. It implements core.TxImpl by
// routing every barrier to the sub-descriptor of the variable's shard and
// owns the cross-shard commit and the ticket-based opacity protocol.
type Tx struct {
	e   *Engine
	cfg core.TxConfig
	// impls caches the lazily-created sub-descriptors across attempts; two
	// caches their TwoPhase view. started/touched are per-attempt: which
	// shards this attempt entered, in first-touch order.
	impls   []core.TxImpl
	two     []core.TwoPhase
	started []bool
	touched []int
	fp      *core.FaultPlan
	// multi flips when the attempt touches its second shard; ticketSeen is
	// the cross-commit ticket the current multi-shard snapshot is certified
	// at.
	multi      bool
	ticketSeen uint64
	stats      core.TxStats // own counters (cross commits / revalidations)
	agg        core.TxStats // scratch for AttemptStats aggregation

	// Durable redo capture: per-shard record buffers filled by the barriers
	// (lazily allocated on the first durable runtime attempt, recycled per
	// attempt), plus scratch for assembling a cross-shard frame list.
	redo     [][]wal.Record
	logParts []int
	logRecs  [][]wal.Record
}

// Start begins a fresh attempt. Sub-descriptors start lazily on first touch
// (each shard snapshot is taken as late as possible — the per-shard start
// versions of DESIGN.md §11), so Start only clears the routing state.
func (tx *Tx) Start() {
	for _, s := range tx.touched {
		tx.started[s] = false
		if tx.redo != nil {
			tx.redo[s] = tx.redo[s][:0]
		}
	}
	tx.touched = tx.touched[:0]
	tx.multi = false
	tx.stats.Reset()
}

// capture appends one semantic redo record for v's shard. Volatile-only
// variables (durable key 0) are never logged.
func (tx *Tx) capture(v *core.Var, op wal.Op, aux uint8, val int64) {
	k := v.DurableKey()
	if k == 0 {
		return
	}
	if tx.redo == nil {
		tx.redo = make([][]wal.Record, tx.e.eff)
	}
	s := tx.e.shardOf(v)
	tx.redo[s] = append(tx.redo[s], wal.Record{Op: op, Aux: aux, Key: k, Val: val})
}

// SetFaultPlan arms or disarms fault injection on every cached
// sub-descriptor (and on ones created later).
func (tx *Tx) SetFaultPlan(p *core.FaultPlan) {
	tx.fp = p
	for _, impl := range tx.impls {
		if impl != nil {
			impl.SetFaultPlan(p)
		}
	}
}

// subAt returns shard s's sub-descriptor, creating and/or starting it on
// first touch of the attempt.
func (tx *Tx) subAt(s int) core.TxImpl {
	impl := tx.impls[s]
	if impl == nil {
		impl = tx.e.subs[s].NewTx(tx.cfg)
		tx.impls[s] = impl
		tx.two[s], _ = impl.(core.TwoPhase)
		if tx.fp != nil {
			impl.SetFaultPlan(tx.fp)
		}
	}
	if !tx.started[s] {
		tx.enter(s, impl)
	}
	return impl
}

// sub routes a variable to its shard's sub-descriptor.
func (tx *Tx) sub(v *core.Var) core.TxImpl {
	return tx.subAt(tx.e.shardOf(v))
}

// enter starts shard s's attempt. Entering the first shard is free; entering
// any further shard makes the attempt multi-shard and must align the shard
// snapshots: snapshot the ticket, start the new shard, then re-certify every
// previously started shard (TwoPhase.Validate extends or aborts) and loop
// until the ticket is stable — after which all started shards are known
// mutually consistent at the observed ticket.
func (tx *Tx) enter(s int, impl core.TxImpl) {
	if len(tx.touched) == 0 {
		tx.started[s] = true
		tx.touched = append(tx.touched, s)
		impl.Start()
		return
	}
	t := tx.e.ticket.Load()
	tx.multi = true
	tx.started[s] = true
	tx.touched = append(tx.touched, s)
	impl.Start()
	for {
		for _, p := range tx.touched {
			if p != s {
				tx.two[p].Validate()
			}
		}
		t2 := tx.e.ticket.Load()
		if t2 == t {
			tx.ticketSeen = t2
			return
		}
		t = t2
		tx.stats.CrossRevals++
	}
}

// recheck is the per-barrier opacity hook of multi-shard attempts: when the
// cross-commit ticket moved since the snapshot was certified, re-certify
// every started shard. Single-shard attempts pay one predictable branch and
// never load the ticket.
func (tx *Tx) recheck() {
	if !tx.multi {
		return
	}
	t := tx.e.ticket.Load()
	for t != tx.ticketSeen {
		for _, p := range tx.touched {
			tx.two[p].Validate()
		}
		tx.ticketSeen = t
		tx.stats.CrossRevals++
		t = tx.e.ticket.Load()
	}
}

// Read routes the classical read barrier.
func (tx *Tx) Read(v *core.Var) int64 {
	tx.recheck()
	return tx.sub(v).Read(v)
}

// Write routes the classical write barrier.
func (tx *Tx) Write(v *core.Var, val int64) {
	tx.recheck()
	tx.sub(v).Write(v, val)
	if tx.e.logger != nil {
		tx.capture(v, wal.OpWrite, 0, val)
	}
}

// Cmp routes the semantic conditional.
func (tx *Tx) Cmp(v *core.Var, op core.Op, operand int64) bool {
	tx.recheck()
	held := tx.sub(v).Cmp(v, op, operand)
	if tx.e.logger != nil && tx.e.logFacts {
		aux := uint8(op)
		if held {
			aux |= wal.FactHeld
		}
		tx.capture(v, wal.OpFact, aux, operand)
	}
	return held
}

// CmpVars routes the address–address conditional. Operands on one shard
// keep the single two-address fact; a pair that spans shards degrades to
// value-pinning the right-hand side on its own shard (an EQ fact there) and
// a one-address fact on the left shard — semantic facts cannot span engine
// instances.
func (tx *Tx) CmpVars(a *core.Var, op core.Op, b *core.Var) bool {
	tx.recheck()
	sa, sb := tx.e.shardOf(a), tx.e.shardOf(b)
	if sa == sb {
		return tx.subAt(sa).CmpVars(a, op, b)
	}
	operand := tx.subAt(sb).Read(b)
	return tx.subAt(sa).Cmp(a, op, operand)
}

// CmpSum routes the arithmetic conditional. Addends on one shard keep the
// composed sum fact; a sum that spans shards degrades to classical reads of
// every addend (value-pinning), like the non-semantic baselines.
func (tx *Tx) CmpSum(op core.Op, rhs int64, vars []*core.Var) bool {
	tx.recheck()
	if len(vars) == 0 {
		return op.Eval(0, rhs)
	}
	s := tx.e.shardOf(vars[0])
	same := true
	for _, v := range vars[1:] {
		if tx.e.shardOf(v) != s {
			same = false
			break
		}
	}
	if same {
		return tx.subAt(s).CmpSum(op, rhs, vars)
	}
	var sum int64
	for _, v := range vars {
		sum += tx.sub(v).Read(v)
	}
	return op.Eval(sum, rhs)
}

// CmpAny routes the composed disjunction. Clauses on one shard keep the
// composed fact; clauses spanning shards degrade to per-clause semantic
// conditionals with short-circuiting (each clause a fact on its own shard).
func (tx *Tx) CmpAny(conds []core.Cond) bool {
	tx.recheck()
	if len(conds) == 0 {
		return false
	}
	s := tx.e.shardOf(conds[0].Var)
	same := true
	for i := range conds[1:] {
		if tx.e.shardOf(conds[1+i].Var) != s {
			same = false
			break
		}
	}
	if same {
		return tx.subAt(s).CmpAny(conds)
	}
	for _, c := range conds {
		if tx.sub(c.Var).Cmp(c.Var, c.Op, c.Operand) {
			return true
		}
	}
	return false
}

// Inc routes the semantic increment. The redo record is the delta itself —
// logging a deferred increment reads nothing, the low-level-semantics
// property that keeps durable counter traffic validation- and read-free.
func (tx *Tx) Inc(v *core.Var, delta int64) {
	tx.recheck()
	tx.sub(v).Inc(v, delta)
	if tx.e.logger != nil {
		tx.capture(v, wal.OpInc, 0, delta)
	}
}

// Commit publishes the attempt. A single-shard attempt commits through its
// shard's unchanged engine commit — the zero-cross-traffic fast path; a
// multi-shard attempt runs the two-phase protocol.
func (tx *Tx) Commit() {
	switch len(tx.touched) {
	case 0:
		// Empty transaction: no shard was entered; step the commit fault
		// site directly so injected commit faults keep firing.
		if tx.fp != nil {
			tx.fp.Step(core.SiteCommit)
		}
		return
	case 1:
		s := tx.touched[0]
		if tx.e.logger != nil && !tx.e.walFailed.Load() && tx.redo != nil && len(tx.redo[s]) > 0 {
			tx.commitSingleDurable(s)
		} else {
			tx.impls[s].Commit()
		}
		tx.e.counters[s].single.Add(1)
		return
	}
	tx.commitCross()
}

// commitSingleDurable is the single-shard durable commit: decompose the
// engine commit through its TwoPhase view so the log append lands between
// validation (the commit is certain, locks held) and publication (nothing
// is visible yet) — log-before-publish, the redo-WAL invariant. A crash
// after the append but before Publish therefore replays to exactly the
// published state; a crash before the append publishes nothing.
func (tx *Tx) commitSingleDurable(s int) {
	if tx.fp != nil {
		tx.fp.Step(core.SiteCommit)
	}
	tp := tx.two[s]
	if tp == nil {
		// Irrevocable engine: it serializes globally and its commit cannot
		// fail once reached, so the append itself is the decision point.
		tx.logSingleFrame(s)
		tx.crashPoint()
		tx.impls[s].Commit()
		return
	}
	tp.Prepare()
	tp.Validate()
	tx.logSingleFrame(s)
	tx.crashPoint()
	tp.Publish()
}

// logSingleFrame appends one shard's redo records, degrading on failure.
func (tx *Tx) logSingleFrame(s int) {
	if err := tx.e.logger.LogSingle(s, tx.redo[s]); err != nil {
		tx.logFailed(err)
	}
	tx.stats.WALAppends++
}

// logFailed handles a log append error: a simulated crash unwinds as
// process death (the runtime releases in-memory locks and re-throws); a
// real I/O error latches the engine into volatile degraded mode and aborts
// the attempt with ReasonLogFail, which the retry loop escalates straight
// to the irrevocable serializing mode.
func (tx *Tx) logFailed(err error) {
	var ce *wal.CrashedError
	if errors.As(err, &ce) {
		core.CrashPanic(ce.Site)
	}
	tx.e.walFailed.Store(true)
	tx.stats.WALFailures++
	core.AbortWith(core.ReasonLogFail)
}

// crashPoint is the post-fsync/pre-publish crash-injection consult: the
// records are durable, nothing is published, and recovery must replay the
// commit all-or-nothing.
func (tx *Tx) crashPoint() {
	if tx.fp != nil && tx.fp.CrashHit(core.CrashPostFsyncPrePublish) {
		core.CrashPanic(core.CrashPostFsyncPrePublish)
	}
}

// commitCross is the two-phase cross-shard commit. Participants are
// processed in ascending shard order — a global acquisition order, so two
// cross-shard commits can never deadlock on each other's Prepare (and the
// bounded waits inside Prepare/Validate break any residual wait cycle
// against single-shard committers). The ticket advance between validation
// and publication is the transaction's single linearization point.
func (tx *Tx) commitCross() {
	if tx.fp != nil {
		tx.fp.Step(core.SiteCommit)
	}
	order := tx.touched
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j] < order[j-1]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, s := range order {
		tx.two[s].Prepare()
	}
	for _, s := range order {
		tx.two[s].Validate()
	}
	// Log before the ticket: every participant's redo frame is appended
	// (and made durable per policy) while the commit is still invisible, so
	// the ticket advance below remains the transaction's single
	// linearization point — a crash on either side of it is clean. Before
	// the append: nothing logged, nothing published, the transaction never
	// happened. After: recovery's cross-completeness cut sees every
	// participant's frame and replays the commit whole.
	if tx.e.logger != nil && !tx.e.walFailed.Load() && tx.redo != nil {
		tx.logCrossFrames(order)
		tx.crashPoint()
	}
	tx.e.ticket.Add(1)
	for _, s := range order {
		tx.two[s].Publish()
	}
	tx.stats.CrossCommits++
	for _, s := range order {
		tx.e.counters[s].cross.Add(1)
	}
}

// logCrossFrames appends the cross-shard commit's per-participant record
// subsets. Participants with no redo records (read-only on their shard, or
// touching only volatile vars) get no frame; a commit whose writes all land
// on one shard degenerates to a plain single-shard frame.
func (tx *Tx) logCrossFrames(order []int) {
	parts, recs := tx.logParts[:0], tx.logRecs[:0]
	for _, s := range order {
		if len(tx.redo[s]) > 0 {
			parts = append(parts, s)
			recs = append(recs, tx.redo[s])
		}
	}
	tx.logParts, tx.logRecs = parts, recs
	switch len(parts) {
	case 0:
		return
	case 1:
		tx.logSingleFrame(parts[0])
	default:
		if err := tx.e.logger.LogCross(parts, recs); err != nil {
			tx.logFailed(err)
		}
		tx.stats.WALAppends += uint64(len(parts))
	}
}

// PrivatizeBarrier implements core.Privatizer by draining exactly the engine
// instances this transaction touched (DESIGN.md §14) — untouched shards
// have, by construction, no reader that could hold a pointer this commit
// unlinked from *their* metadata, and their traffic never stalls.
func (tx *Tx) PrivatizeBarrier() {
	for _, s := range tx.touched {
		if p, ok := tx.impls[s].(core.Privatizer); ok {
			p.PrivatizeBarrier()
		}
	}
}

// Cleanup releases whatever the attempt's started shards hold — after a
// barrier abort nothing is held, after a phase-1 abort each prepared shard
// rolls its locks back. Sub-descriptor Cleanups are idempotent, so cleaning
// participants that never prepared is safe.
func (tx *Tx) Cleanup() {
	for _, s := range tx.touched {
		tx.impls[s].Cleanup()
	}
}

// NoteBatch implements core.BatchNoter: the runtime reports, after a
// successful AtomicallyBatch commit, how many logical requests the commit
// carried; the units are attributed to the shards the attempt touched. The
// coalescing batcher only builds single-shard batches, so the common case is
// exactly one touched shard; units on a cross-shard (or empty) attempt fold
// into the first touched shard (or shard 0) so no request goes unaccounted.
func (tx *Tx) NoteBatch(units int) {
	if units <= 0 {
		return
	}
	s := 0
	if len(tx.touched) > 0 {
		s = tx.touched[0]
	}
	tx.e.counters[s].batched.Add(uint64(units))
}

// AttemptStats aggregates the attempt's counters: the descriptor's own
// cross-shard counters plus every touched shard's sub-descriptor counters.
func (tx *Tx) AttemptStats() *core.TxStats {
	tx.agg = tx.stats
	for _, s := range tx.touched {
		tx.agg.Accumulate(tx.impls[s].AttemptStats())
	}
	return &tx.agg
}
