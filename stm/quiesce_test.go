package stm_test

// Tests of the announce-and-drain layer: the bounded descriptor registry,
// engine-descriptor reuse across engine switches, cancellation while parked
// at a raised gate, and every drain predicate racing over the same words.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semstm/internal/core"
	"semstm/stm"
)

// TestRegistryBoundedAcrossGC is the regression test for the descriptor
// registry leak: descriptors used to live in a sync.Pool, which drops them on
// every GC, so each GC minted fresh descriptors that registered fresh epoch
// and reader words for good. Two goroutines interleaving calls with GCs must
// leave at most two descriptors — whose words are also the runtime's epoch
// words — and at most two S-NOrec snapshot words.
func TestRegistryBoundedAcrossGC(t *testing.T) {
	const workers, rounds = 2, 1000
	rt := stm.New(stm.SNOrec)
	x := stm.NewVar(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rt.Atomically(func(tx *stm.Tx) { tx.Inc(x, 1) })
				runtime.GC()
			}
		}()
	}
	wg.Wait()
	if got := x.Load(); got != workers*rounds {
		t.Fatalf("counter = %d, want %d", got, workers*rounds)
	}
	if n := stm.DescriptorWords(rt); n > workers {
		t.Errorf("%d descriptors (epoch words) registered, want <= %d", n, workers)
	}
	if n := stm.ReaderWords(rt, stm.SNOrec); n > workers {
		t.Errorf("%d S-NOrec snapshot words registered, want <= %d", n, workers)
	}
}

// TestDroppedRuntimeUnwatched: the reclaimer scans a runtime's descriptor
// registry only while the runtime is reachable, so runtimes that come and go
// do not grow every epoch advance.
func TestDroppedRuntimeUnwatched(t *testing.T) {
	before := core.ReadEpochStats().Watched
	for i := 0; i < 50; i++ {
		rt := stm.New(stm.NOrec)
		rt.Atomically(func(tx *stm.Tx) {})
	}
	for i := 0; i < 200 && core.ReadEpochStats().Watched > before; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if w := core.ReadEpochStats().Watched; w > before {
		t.Fatalf("%d descriptor registries watched after dropping 50 runtimes, want <= %d", w, before)
	}
}

// TestSwitchEngineReusesReaderWords: a descriptor that an engine switch
// rebinds must reuse the engine-level descriptor it built for that engine
// before. Building a fresh one per rebind registered a fresh snapshot word
// in the engine each time, growing every privatization drain without bound.
func TestSwitchEngineReusesReaderWords(t *testing.T) {
	const workers = 2
	rt := stm.New(stm.Adaptive)
	rt.SetAdaptiveConfig(stm.AdaptiveConfig{Epoch: -1})
	x := stm.NewVar(0)
	var commits atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rt.Atomically(func(tx *stm.Tx) { tx.Inc(x, 1) })
				commits.Add(1)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		for _, a := range []stm.Algorithm{stm.STL2, stm.SNOrec} {
			if err := rt.SwitchEngine(a); err != nil {
				t.Fatal(err)
			}
			// Wait for a commit on the new engine: each worker may still
			// count one call that committed before the switch.
			for c := commits.Load(); commits.Load() <= c+workers; {
				runtime.Gosched()
			}
		}
	}
	close(stop)
	wg.Wait()
	if got := x.Load(); got != commits.Load() {
		t.Fatalf("counter = %d, want %d", got, commits.Load())
	}
	if n := rt.Stats().EngineSwitches; n != 400 {
		t.Fatalf("EngineSwitches = %d, want 400", n)
	}
	descs := stm.DescriptorWords(rt)
	for _, a := range []stm.Algorithm{stm.SNOrec, stm.STL2} {
		if n := stm.ReaderWords(rt, a); n < 1 || n > descs {
			t.Errorf("%v: %d snapshot words registered by %d descriptors", a, n, descs)
		}
	}
	if err := rt.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestAtomicallyCtxCancelledAtGate: a call parked at the gate of another
// call's escalation must return context.Canceled promptly when its context
// is cancelled, without ever running its body, and leave the runtime clean.
func TestAtomicallyCtxCancelledAtGate(t *testing.T) {
	for _, tc := range []struct {
		name string
		rt   func() *stm.Runtime
	}{
		{"NOrec", func() *stm.Runtime { return stm.New(stm.NOrec) }},
		{"Adaptive", func() *stm.Runtime { return stm.New(stm.Adaptive) }},
		{"S-TL2/sharded", func() *stm.Runtime { return stm.NewShardedRuntime(stm.STL2, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := tc.rt()
			rt.SetEscalateAfter(1)
			x := stm.NewVar(0)
			holding := make(chan struct{})
			release := make(chan struct{})
			holderDone := make(chan struct{})
			go func() {
				defer close(holderDone)
				attempts := 0
				rt.Atomically(func(tx *stm.Tx) {
					if attempts++; attempts == 1 {
						tx.Restart() // one abort escalates the retry
					}
					tx.Inc(x, 1)
					close(holding)
					<-release // hold the gate
				})
			}()
			<-holding

			ctx, cancel := context.WithCancel(context.Background())
			var ran atomic.Bool
			errc := make(chan error, 1)
			go func() {
				errc <- rt.AtomicallyCtx(ctx, func(tx *stm.Tx) {
					ran.Store(true)
					tx.Inc(x, 1)
				})
			}()
			select {
			case err := <-errc:
				t.Fatalf("AtomicallyCtx returned %v while the gate was held", err)
			case <-time.After(30 * time.Millisecond):
			}
			cancel()
			start := time.Now()
			select {
			case err := <-errc:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				var ae *stm.AbortError
				if !errors.As(err, &ae) || ae.Attempts != 0 {
					t.Fatalf("err = %#v, want an AbortError with no attempts", err)
				}
				if d := time.Since(start); d > 500*time.Millisecond {
					t.Fatalf("cancellation took %v", d)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("AtomicallyCtx did not return after cancellation")
			}
			if ran.Load() {
				t.Fatal("the parked call ran its body while the gate was held")
			}
			close(release)
			<-holderDone
			if got := x.Load(); got != 1 {
				t.Fatalf("counter = %d, want 1", got)
			}
			if n := rt.Stats().Escalations; n != 1 {
				t.Fatalf("Escalations = %d, want 1", n)
			}
			if err := rt.CheckQuiescent(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChaosMixedPredicates races every drain predicate over the same
// descriptor words on one Adaptive sharded runtime: a switcher drains
// attempt bits, fault-forced escalations drain them too, privatizers drain
// snapshot words and retire the unlinked cells for the epoch scan, and
// fault-doomed readers and transfers keep attempts in flight throughout.
func TestChaosMixedPredicates(t *testing.T) {
	const shards, accounts, initial = 4, 16, 1000
	workers, per := chaosScale(t)
	rt := stm.NewShardedRuntime(stm.Adaptive, shards)
	rt.SetAdaptiveConfig(stm.AdaptiveConfig{Epoch: -1})
	rt.SetFaultPlan(stm.NewFaultPlan(0x51CE).
		WithSpurious(stm.SiteRead, 5).
		WithSpurious(stm.SiteCommit, 30).
		WithValidationFail(10))
	rt.SetEscalateAfter(3)
	reclaimedBefore := core.ReadEpochStats().Reclaimed

	acct := make([]*stm.Var, accounts)
	for i := range acct {
		acct[i] = stm.NewVarOn(i%shards, initial)
	}
	const privatizers = 2
	slots := make([][2]*stm.Var, 1+privatizers*per)
	newPair := func(idx int64) [2]*stm.Var {
		s := int(idx) % shards
		return [2]*stm.Var{stm.NewVarOn(s, idx+1), stm.NewVarOn(s, -(idx + 1))}
	}
	slots[0] = newPair(0)
	gen := stm.NewVar(0)
	var nextIdx, violations atomic.Int64

	stop := make(chan struct{})
	var switcher sync.WaitGroup
	switcher.Add(1)
	go func() {
		defer switcher.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := rt.SwitchEngine([]stm.Algorithm{stm.STL2, stm.SNOrec}[i%2]); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < privatizers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				idx := nextIdx.Add(1)
				slots[idx] = newPair(idx)
				var victim int64
				rt.AtomicallyPrivatize(func(tx *stm.Tx) {
					victim = tx.Read(gen)
					tx.Write(gen, idx)
				})
				pair := slots[victim]
				if pair[0].Load() != victim+1 || pair[1].Load() != -(victim+1) {
					violations.Add(1)
				}
				stm.Retire(pair[0])
				stm.Retire(pair[1])
			}
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) { // zombie readers over the generation chain
			defer wg.Done()
			for i := 0; i < per; i++ {
				var idx, a, b int64
				rt.Atomically(func(tx *stm.Tx) {
					idx = tx.Read(gen)
					a = tx.Read(slots[idx][0])
					b = tx.Read(slots[idx][1])
				})
				if a != idx+1 || a+b != 0 {
					violations.Add(1)
				}
			}
		}(w)
		go func(w int) { // cross-shard transfers
			defer wg.Done()
			for i := 0; i < per; i++ {
				from, to := acct[(w+i)%accounts], acct[(w+3*i+1)%accounts]
				rt.Atomically(func(tx *stm.Tx) {
					if from != to && tx.GTE(from, 1) {
						tx.Dec(from, 1)
						tx.Inc(to, 1)
					}
				})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	switcher.Wait()

	if n := violations.Load(); n != 0 {
		t.Fatalf("%d torn pairs observed past the privatization barrier", n)
	}
	var sum int64
	for _, v := range acct {
		sum += v.Load()
	}
	if sum != accounts*initial {
		t.Fatalf("total balance %d, want %d", sum, accounts*initial)
	}
	s := rt.Stats()
	if s.Escalations == 0 || s.EngineSwitches == 0 {
		t.Fatalf("escalations %d, engine switches %d: a predicate never ran", s.Escalations, s.EngineSwitches)
	}
	// No call is in flight, so no epoch word may still be pinned: advances
	// must succeed, and two of them reclaim everything retired above.
	for i := 0; i < 3; i++ {
		if !stm.AdvanceEpoch() {
			t.Fatal("epoch advance blocked with no call in flight: a descriptor word leaked")
		}
	}
	if core.ReadEpochStats().Reclaimed == reclaimedBefore {
		t.Fatal("nothing reclaimed")
	}
	if err := rt.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}
