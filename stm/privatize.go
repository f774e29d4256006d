// Privatization-safe Var lifecycle (DESIGN.md §14).
//
// Transactional data structures that physically unlink nodes face the classic
// STM privatization problem: after a commit removes a cell from every shared
// structure, doomed ("zombie") transactions that captured the cell's address
// before the commit may still dereference it — and an allocator that recycles
// the cell immediately would hand their stale reads somebody else's data.
//
// The lifecycle this file exposes closes both halves of that race:
//
//   - AtomicallyPrivatize follows the commit with the engine's
//     privatization barrier (core.Privatizer): the committer waits until
//     every concurrent transaction has finished or revalidated past it. When the call returns, the caller owns whatever the
//     transaction unlinked — plain Var.Load/StoreNT access, no
//     instrumentation, no torn values.
//   - Retire parks a privatized Var on the epoch-based reclamation limbo
//     lists; once every transaction descriptor has moved two epochs past the
//     retirement, the cell (memory and allocation id) recycles through the
//     NewVar* allocation paths.
//
// The two compose into the privatize-then-free idiom:
//
//	var victim *stm.Var
//	rt.AtomicallyPrivatize(func(tx *stm.Tx) {
//		victim = unlink(tx) // rewrite links so victim is unreachable
//	})
//	sum := victim.Load() // private now: uninstrumented access is safe
//	stm.Retire(victim)   // epoch-deferred recycling
package stm

import "semstm/internal/core"

// AtomicallyPrivatize executes fn as one transaction whose commit doubles as
// a privatization barrier: when the call returns, no concurrently started
// transaction can still observe state predating fn's commit, so memory fn
// made unreachable belongs to the caller outright. Aborted attempts retry
// exactly like Atomically (no barrier is paid until an attempt commits).
//
// The barrier drains only the engine instances the transaction touched — on
// a sharded runtime, untouched shards never stall — and costs one scan of
// their snapshot words plus however long in-flight doomed readers take to
// abort, commit, or revalidate. Use Atomically for ordinary transactions; reserve this variant
// for structural unlinks whose results will be accessed uninstrumented or
// handed to Retire.
func (rt *Runtime) AtomicallyPrivatize(fn func(tx *Tx)) {
	rt.run(fn, runCfg{privatize: true})
}

// Retire hands a privatized Var to the epoch-based reclaimer. The caller
// asserts v is unreachable through every transactional structure — the
// contract an AtomicallyPrivatize unlink establishes — and must not touch v
// afterwards. Retiring the same Var twice panics.
//
// Reclamation is automatic: sustained Retire traffic periodically advances
// the reclamation epoch, and cells retired two epochs ago recycle through
// NewVar/NewVarOn/NewVarDurable with their allocation id intact (stable orec
// homes, no unbounded id growth). AdvanceEpoch exposes the pump for callers
// that want deterministic reclamation points.
func Retire(v *Var) { core.Retire(v) }

// AdvanceEpoch attempts one reclamation-epoch advance, returning whether it
// succeeded. An advance fails while any transaction is still pinned to an
// older epoch. Two successful advances after a Retire make the retired cell
// available for recycling; steady-state workloads never need to call this —
// Retire self-pumps — but deterministic tests and teardown paths do.
func AdvanceEpoch() bool { return core.AdvanceEpoch() }
