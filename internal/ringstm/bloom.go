// Package ringstm implements the RingSTM algorithm [Spear, Michael, von
// Praun; SPAA 2008] — the signature-based third family of STM validation the
// paper's introduction surveys ("compact bloom filters to track memory
// accesses, as used in RingSTM") — and S-RingSTM, its semantic extension
// following the paper's methodology: transactions additionally record
// semantic facts, and a signature intersection triggers semantic
// re-validation instead of an unconditional abort.
//
// The implementation follows the single-writer RingSW variant: commits
// serialize by a CAS on a global ring head; each ring entry publishes the
// committing transaction's write signature; readers validate by intersecting
// their read signature with the entries that appeared since their snapshot.
package ringstm

import "sync/atomic"

// filterWords gives a 1024-bit signature.
const filterWords = 16

// filter is a Bloom-filter signature over variable ids with two hash
// functions, the access-tracking structure of RingSTM.
type filter [filterWords]uint64

// two independent multiplicative hashes over the 10 bit positions.
func bitsOf(id uint64) (uint32, uint32) {
	h1 := uint32((id * 0x9E3779B97F4A7C15) >> 54) // 10 bits
	h2 := uint32((id * 0xC2B2AE3D27D4EB4F) >> 54)
	return h1, h2
}

// add sets the signature bits of id.
func (f *filter) add(id uint64) {
	b1, b2 := bitsOf(id)
	f[b1>>6] |= 1 << (b1 & 63)
	f[b2>>6] |= 1 << (b2 & 63)
}

// reset clears the signature.
func (f *filter) reset() {
	*f = filter{}
}

// empty reports whether no element was added.
func (f *filter) empty() bool {
	for _, w := range f {
		if w != 0 {
			return false
		}
	}
	return true
}

// signature is a filter as a ring entry publishes it. Validators read it
// while a writer reusing the entry may rewrite it — the entry's ts/status
// recheck rejects what they read then — so its words are atomic.
type signature [filterWords]atomic.Uint64

// store publishes f, writing only the words that change.
func (p *signature) store(f *filter) {
	for i, w := range f {
		if p[i].Load() != w {
			p[i].Store(w)
		}
	}
}

// intersects reports whether f and the published signature may share an
// element (Bloom semantics: false positives possible, false negatives
// impossible).
func (p *signature) intersects(f *filter) bool {
	for i, w := range f {
		if w != 0 && w&p[i].Load() != 0 {
			return true
		}
	}
	return false
}
