// Batch execution: many logical transactions folded into one commit.
//
// The networked store (internal/server) amortizes the commit path by
// coalescing a window of compatible client requests into one Atomically per
// shard: the per-commit fixed costs — descriptor setup, clock/seqlock
// acquisition, validation, the WAL append and its fsync share — are paid once
// per window instead of once per request (DESIGN.md §15). AtomicallyBatch is
// the runtime entry point for that pattern: it runs the caller-assembled
// batch body as one bounded transaction and, on commit, accounts the folded
// logical requests to the engine (per-shard on sharded runtimes), so the
// amortization factor is observable instead of inferred.
//
// Failure semantics are the batcher's contract: the batch either commits as
// a whole or, once its attempt budget is exhausted, returns the typed
// *AbortError — at which point the caller re-executes the batch's units solo
// so one doomed unit cannot abort its batchmates (the straggler re-execution
// rule).
package stm

import "semstm/internal/core"

// DefaultBatchAttempts is the attempt budget of AtomicallyBatch when no
// MaxAttempts option is given. It is deliberately much smaller than
// DefaultMaxAttempts: a batch that keeps aborting should fall apart into
// solo re-execution quickly — retrying a doomed unit's batchmates behind it
// just multiplies the wasted work by the batch width.
const DefaultBatchAttempts = 4

// AtomicallyBatch executes body — a caller-assembled batch of units logical
// transactions — as one bounded transaction. It returns nil once an attempt
// commits, or the *AbortError of the exhausted budget (default
// DefaultBatchAttempts; override with MaxAttempts), after which the caller
// should re-execute the batch's units individually.
//
// On commit, the units count is folded into the engine's batched-request
// accounting (ShardStats.Batched on sharded runtimes): one engine commit
// carrying units logical requests. units is accounting only; the body is
// responsible for actually executing every unit.
func (rt *Runtime) AtomicallyBatch(units int, body func(tx *Tx), opts ...TryOption) error {
	return rt.run(body, runCfg{maxAttempts: maxAttempts(DefaultBatchAttempts, opts), batchUnits: units})
}

// noteBatch folds a committed batch's unit count into the engine-level
// accounting, when the engine keeps any (sharded engines do, per shard).
func noteBatch(tx *Tx, units int) {
	if bn, ok := tx.impl.(core.BatchNoter); ok {
		bn.NoteBatch(units)
	}
}
