// Package tl2 implements the TL2 STM algorithm [Dice, Shalev, Shavit; DISC
// 2006] and its semantic extension S-TL2 (Algorithm 7 of "Extending TM
// Primitives using Low Level Semantics", SPAA 2016).
//
// TL2 maps every transactional variable to an ownership record (orec) in a
// shared table. An orec packs a version and a lock bit in one word; writers
// lock the orecs of their write-set at commit, bump the global version clock,
// validate their read-set against their start version, write back, and
// release the orecs at the new version. S-TL2 adds a compare-set holding
// semantic facts, a phase-1 optimization that extends the start version while
// no classical read has been performed, and a CAS-based clock increment that
// keeps compare-set validation consistent with concurrent committers.
package tl2

import (
	"fmt"
	"sync/atomic"

	"semstm/internal/core"
)

// orecBits sets the table to 2^16 cache-line-sized ownership records (4 MiB).
// Before the padding pass the table was 2^18 sixteen-byte orecs — same
// memory, but four orecs per cache line, so a committer bumping one orec
// invalidated the line under readers of three unrelated ones. One orec per
// line kills that false sharing; the coarser hash costs collisions only at
// ~n²/2^17 for n live hot variables, negligible for the benchmark footprints
// (and a collision is a false conflict, never a correctness issue).
const orecBits = 16

// orec is one ownership record, padded to a full cache line. word packs
// version<<1 | lockBit; the version bits are preserved while locked, so
// readers can still see the pre-lock version. owner holds the locking
// attempt's unique id and is meaningful only while the lock bit is set;
// attempt ids are globally unique, so a stale owner value can never collide
// with a live attempt.
type orec struct {
	word  atomic.Uint64
	owner atomic.Uint64
	_     [core.CacheLine - 16]byte
}

func locked(w uint64) bool        { return w&1 == 1 }
func version(w uint64) uint64     { return w >> 1 }
func versionWord(v uint64) uint64 { return v << 1 }

// Global is the state shared by all transactions of one TL2 runtime. The
// two hottest words in the system — the version clock every transaction
// reads and every writer advances, and the attempt-id counter every Start
// bumps — each sit alone on their cache line: sharing a line would make
// every Start invalidate the clock under every in-flight reader.
type Global struct {
	clock atomic.Uint64
	_     core.PadWord
	txid  atomic.Uint64
	_     core.PadWord
	orecs [1 << orecBits]orec
	// readers is the privatization-barrier surface (DESIGN.md §14): each
	// descriptor publishes its start version in a word here, and a
	// privatizing committer drains the words to its write version.
	readers core.Registry
}

// NewGlobal returns a fresh runtime state with the clock at zero.
func NewGlobal() *Global { return &Global{} }

// Clock exposes the global version clock (tests only).
func (g *Global) Clock() uint64 { return g.clock.Load() }

// Quiescent verifies no ownership record is left locked: at a quiescent
// point every orec's lock bit must be clear, whatever aborts, injected
// faults, or user panics the preceding run went through. The scan covers the
// whole table (a few hundred thousand loads — cheap next to any test run).
func (g *Global) Quiescent() error {
	leaked := 0
	for i := range g.orecs {
		if locked(g.orecs[i].word.Load()) {
			leaked++
		}
	}
	if leaked != 0 {
		return fmt.Errorf("tl2: %d orec lock(s) leaked", leaked)
	}
	return nil
}

// orecIndexFor maps a variable to the index of its ownership record with a
// multiplicative (Fibonacci) hash of the allocation id, the analogue of
// hashing a raw address in native TL2.
func (g *Global) orecIndexFor(v *core.Var) int {
	h := v.ID() * 0x9E3779B97F4A7C15
	return int(h >> (64 - orecBits))
}

// orecFor maps a variable to its ownership record.
func (g *Global) orecFor(v *core.Var) *orec {
	return &g.orecs[g.orecIndexFor(v)]
}

// waitBound limits how many adaptive-waiter rounds (core.Waiter: exponential
// spin, then yields, then brief sleeps) a semantic operation politely waits
// for a locked orec before giving up and aborting — the paper's "timeout
// mechanism ... to avoid starvation". 64 rounds is roughly 15ms of
// wall-clock, comparable to the previous 4096 raw Gosched rounds, but the
// sleep tier actually frees the CPU for a preempted lock holder.
const waitBound = 64

// spinBound limits commit-time lock acquisition waiter rounds before
// aborting, which (together with index-ordered acquisition) rules out
// deadlock.
const spinBound = 64
