package core

import (
	"sync"
	"sync/atomic"
)

// Announce-and-drain, the one quiescence primitive (DESIGN.md §14). A
// party that others may have to wait out publishes its state in an Announce
// word it owns, 0 meaning idle; every such wait is a Drain over a Registry
// of words with a predicate naming the values past the waiter's point:
//
//   - engine switches and escalations: a runtime's descriptor words, until
//     no attempt bit is set (stm: escalator.quiesce);
//   - reclamation: the same words, idle or at the current epoch
//     (tryAdvanceLocked);
//   - privatization: an engine instance's snapshot words, idle or at a
//     snapshot >= the commit time (SnapshotAtLeast).
//
// Publication is pin-then-recheck: the owner publishes its word before it
// trusts the clock value the word names, then re-reads the clock, so a
// waiter that scanned in between either saw the word or moved the clock.
// Go atomics are sequentially consistent; the store-then-load pairs need
// no fences.

// Announce is one party's published word. Padded so a drain scan does not
// false-share with neighbouring words.
type Announce struct {
	v atomic.Uint64
	_ PadWord
}

// Store publishes v.
func (a *Announce) Store(v uint64) { a.v.Store(v) }

// Clear marks the owner idle. Idempotent.
func (a *Announce) Clear() { a.v.Store(0) }

// PinSnapshot publishes snapshot t of clock and reports whether the clock
// still reads t, i.e. whether the snapshot may be trusted. Snapshot words
// hold t+1, so that snapshot 0 (a valid initial clock value) is not idle.
func (a *Announce) PinSnapshot(clock *atomic.Uint64, t uint64) bool {
	a.v.Store(t + 1)
	return clock.Load() == t
}

// PinSeqlock pins an even (writer-free) value of the sequence lock seq as
// this reader's snapshot, pin-then-recheck, and returns it. It waits out
// writers on w, counting each wait in *waits.
func (a *Announce) PinSeqlock(seq *atomic.Uint64, w *Waiter, waits *uint64) uint64 {
	w.Reset()
	for {
		s := seq.Load()
		if s&1 == 0 {
			if a.PinSnapshot(seq, s) {
				return s
			}
			continue
		}
		w.Wait()
		*waits++
	}
}

// MoveSnapshot moves a published snapshot forward to t. Forward movement
// needs no recheck: a reader revalidated at t is, by its engine's own
// opacity argument, no zombie with respect to any commit at or before t.
func (a *Announce) MoveSnapshot(t uint64) { a.v.Store(t + 1) }

// SnapshotAtLeast is the privatization predicate over snapshot words: the
// reader is idle or its snapshot is at or past w, so it cannot still observe
// state from before the commit that linearized at w.
func SnapshotAtLeast(w uint64) func(uint64) bool {
	return func(v uint64) bool { return v == 0 || v-1 >= w }
}

// Registry holds announce words registered once and kept for the owner's
// life; an idle word costs a scan one load. Registration happens at
// descriptor construction only, never on a barrier path.
type Registry struct {
	mu    sync.Mutex
	words []*Announce
}

// Register allocates a word and adds it to the registry.
func (r *Registry) Register() *Announce {
	a := &Announce{}
	r.mu.Lock()
	r.words = append(r.words, a)
	r.mu.Unlock()
	return a
}

// Len reports how many words are registered.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.words)
}

// Quiesced reports whether every registered word satisfies pred. A word
// registered after the scan began starts idle, and its owner rechecks the
// waiter's state after publishing.
func (r *Registry) Quiesced(pred func(uint64) bool) bool {
	r.mu.Lock()
	words := r.words
	r.mu.Unlock()
	for _, a := range words {
		if !pred(a.v.Load()) {
			return false
		}
	}
	return true
}

// Drain blocks until Quiesced(pred), waiting adaptively between scans. The
// caller must not hold a word that fails pred. Owners leave every announced
// state in finite time — by commit, abort (validation against the advanced
// clock dooms genuine zombies), or forward movement.
func (r *Registry) Drain(pred func(uint64) bool) {
	var w Waiter
	for !r.Quiesced(pred) {
		w.Wait()
	}
}
