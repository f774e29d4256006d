package core

import (
	"sync/atomic"
	"testing"
	"time"
)

// drainFreeList consumes every reclaimed cell so a test starts from an empty
// free list and can attribute recycled allocations to its own retirements.
func drainFreeList() {
	for ReadEpochStats().Free > 0 {
		NewVar(0)
	}
}

// pumpReclaim advances the epoch until the target cell count has been
// reclaimed (two successful advances past the retirement).
func pumpReclaim(t *testing.T, wantReclaimed uint64) {
	t.Helper()
	for i := 0; i < 10; i++ {
		if ReadEpochStats().Reclaimed >= wantReclaimed {
			return
		}
		if !AdvanceEpoch() {
			t.Fatal("AdvanceEpoch failed with no pinned descriptors")
		}
	}
	t.Fatalf("cells not reclaimed after 10 advances: %+v", ReadEpochStats())
}

// TestRecyclePreservesIdentity: a reclaimed cell must come back through
// NewVarOn with its allocation id intact (stable orec home) but its shard,
// durable key, and value re-stamped for the new owner.
func TestRecyclePreservesIdentity(t *testing.T) {
	drainFreeList()
	v := NewVarOn(3, 42)
	id := v.ID()
	Retire(v)
	pumpReclaim(t, ReadEpochStats().Retired)

	w := NewVarOn(5, 7)
	if w.ID() != id {
		t.Errorf("recycled id = %d, want %d", w.ID(), id)
	}
	if w.Shard() != 5 {
		t.Errorf("recycled shard = %d, want 5", w.Shard())
	}
	if w.Load() != 7 {
		t.Errorf("recycled value = %d, want 7", w.Load())
	}
	if w.DurableKey() != 0 {
		t.Errorf("recycled durable key = %d, want 0", w.DurableKey())
	}
}

// TestRetireNilPanics and TestDoubleRetirePanics: the allocator's
// use-after-free equivalents must fail loudly.
func TestRetireNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Retire(nil) did not panic")
		}
	}()
	Retire(nil)
}

func TestDoubleRetirePanics(t *testing.T) {
	v := NewVar(0)
	Retire(v)
	defer func() {
		if recover() == nil {
			t.Fatal("double Retire did not panic")
		}
	}()
	Retire(v)
}

// TestPinBlocksAdvance: a descriptor pinned to an older epoch must stall the
// advance (and hence reclamation) until it exits, whether or not its attempt
// bit is set — and only while its registry is watched.
func TestPinBlocksAdvance(t *testing.T) {
	reg := new(Registry)
	WatchEpochs(reg)
	for _, bits := range []uint64{0, AttemptBit} {
		p := reg.Register()
		p.PinEpoch(bits)
		// The pin equals the current epoch, so one advance may still succeed —
		// but afterwards the pin is one epoch behind and must block.
		AdvanceEpoch()
		if AdvanceEpoch() {
			t.Fatalf("bits %d: advance succeeded past a pinned descriptor", bits)
		}
		p.Clear()
		if !AdvanceEpoch() {
			t.Fatalf("bits %d: advance failed after the pin exited", bits)
		}
	}
	reg.Register().PinEpoch(0)
	AdvanceEpoch()
	UnwatchEpochs(reg)
	if !AdvanceEpoch() {
		t.Fatal("an unwatched registry still blocks the epoch advance")
	}
}

// TestVarIDRecyclingBoundsWatermark is the regression test for unbounded
// varID growth: churning 10x the orec-table size (2^16) through
// NewVar/Retire must recycle identities rather than mint new ones, keeping
// the watermark — and with it every id-indexed orec table — from growing
// past a small steady-state pool.
func TestVarIDRecyclingBoundsWatermark(t *testing.T) {
	drainFreeList()
	const (
		total = 10 * (1 << 16)
		batch = 64
	)
	// Prime the pipeline: the first few batches mint fresh ids because
	// nothing has been reclaimed yet.
	start := VarIDWatermark()
	for done := 0; done < total; done += batch {
		for i := 0; i < batch; i++ {
			Retire(NewVar(int64(i)))
		}
		// Two advances push the oldest limbo bucket to the free list; the
		// amortized advance inside Retire does most of this already.
		AdvanceEpoch()
		AdvanceEpoch()
	}
	growth := VarIDWatermark() - start
	if growth > 4096 {
		t.Fatalf("watermark grew by %d ids over %d churned allocations; want bounded steady-state pool", growth, total)
	}
	s := ReadEpochStats()
	if s.Reclaimed == 0 {
		t.Fatal("no cells reclaimed during churn")
	}
}

// TestReaderTableDrain: a privatization drain to w must wait for snapshot
// words pinned below w and ignore idle words and words at or past w.
func TestReaderTableDrain(t *testing.T) {
	var tab Registry
	var clock atomic.Uint64
	doomed := tab.Register()
	fresh := tab.Register()
	_ = tab.Register() // idle word: never blocks

	doomed.PinSnapshot(&clock, 5) // snapshot 5 < w: must block the drain to 6
	fresh.MoveSnapshot(6)         // snapshot 6 >= w: must not block
	if tab.Quiesced(SnapshotAtLeast(6)) || !tab.Quiesced(SnapshotAtLeast(5)) {
		t.Fatal("Quiesced disagrees with the pinned snapshots")
	}

	done := make(chan struct{})
	go func() {
		tab.Drain(SnapshotAtLeast(6))
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Drain returned while a doomed reader was still pinned")
	case <-time.After(20 * time.Millisecond):
	}
	doomed.Clear()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Drain did not return after the doomed reader cleared")
	}
}
