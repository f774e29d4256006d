package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"semstm/internal/txds"
	"semstm/stm"
)

// The paper-hashtable workload is the paper's Figure 1a regime on the
// library alone: S-NOrec over an open-addressing table prefilled to 7/12 of
// its capacity, keys drawn from 3/4 of the capacity, 10 operations per
// transaction — 10% insert-or-remove toggles, 40% in-place refreshes, the
// rest lookups. The transaction body is the benchmark's own so that each
// attempt can be timed.
const (
	htOpsPerTx = 10
	htToggle   = 10 // percent of operations
	htRefresh  = 40
	// prefillStream is the seed stream of the prefill keys; the clients'
	// streams are 1..clients.
	prefillStream = 1 << 32
	// htAttempts is a transaction's attempt budget. A transaction that keeps
	// aborting escalates to the irrevocable mode after
	// stm.DefaultEscalateAfter attempts and commits there; the budget lies
	// past that, so a failed transaction means the escalation failed.
	htAttempts = 2 * stm.DefaultEscalateAfter
)

type htOp struct {
	key  int64
	kind uint8 // 0 lookup, 1 toggle, 2 refresh
}

// htRig is one set-up of the workload: the runtime, the prefilled table and
// each key's membership after the prefill.
type htRig struct {
	rt       *stm.Runtime
	table    *txds.OpenTable
	keySpace int64
	initial  []bool // indexed by key, 1..keySpace
}

func openTable(cfg *config, sb *spanBuf) *htRig {
	i := sb.begin(spanSetupPrefill, -1, 0)
	defer sb.end(i)
	g := &htRig{
		rt:       stm.New(stm.SNOrec),
		table:    txds.NewOpenTable(cfg.tableCap),
		keySpace: int64(3 * cfg.tableCap / 4),
	}
	g.initial = make([]bool, g.keySpace+1)
	rng := rand.New(rand.NewPCG(cfg.seed, prefillStream))
	for live := 0; live < cfg.tableCap*7/12; {
		k := 1 + rng.Int64N(g.keySpace)
		var added bool
		g.rt.Atomically(func(tx *stm.Tx) { added = g.table.Insert(tx, k) })
		if added {
			g.initial[k] = true
			live++
		}
	}
	return g
}

// membership reads every key's membership in one transaction.
func (g *htRig) membership() []bool {
	out := make([]bool, g.keySpace+1)
	g.rt.Atomically(func(tx *stm.Tx) {
		for k := int64(1); k <= g.keySpace; k++ {
			out[k] = g.table.Contains(tx, k)
		}
	})
	return out
}

// checkTable verifies that each key's final membership equals its initial
// membership flipped once per committed toggle of it.
func checkTable(initial, final []bool, toggles []uint8) error {
	bad := 0
	for k := 1; k < len(final); k++ {
		if final[k] != (initial[k] != (toggles[k]&1 == 1)) {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d keys' membership disagrees with their committed toggles", bad)
	}
	return nil
}

// htWorker is one client thread of the workload.
type htWorker struct {
	id      int
	g       *htRig
	rng     *rand.Rand
	budget  stm.TryOption
	ops     [htOpsPerTx]htOp
	toggles []uint8 // committed toggles per key, mod 256

	done, failed uint64
	win          *windows // non-nil while measured
	spans        *spanBuf // non-nil while traced
	stride       uint64
	commitUs     []float64 // traced: last body return → TryAtomically return, µs
}

// tx runs one transaction: generate its operations, run them atomically
// with the attempt budget, and on commit count its toggles.
func (w *htWorker) tx() {
	for i := range w.ops {
		p := w.rng.IntN(100)
		w.ops[i] = htOp{key: 1 + w.rng.Int64N(w.g.keySpace)}
		switch {
		case p < htToggle:
			w.ops[i].kind = 1
		case p < htToggle+htRefresh:
			w.ops[i].kind = 2
		}
	}
	w.done++
	sb := w.spans
	if sb != nil && w.done%w.stride != 0 {
		sb = nil
	}
	req := uint64(w.id)<<40 | w.done
	t0 := time.Now()
	root := sb.beginAt(spanReq, -1, req, t0)
	atom := sb.begin(spanAtomically, root, req)
	var bodyEnd time.Time
	err := w.g.rt.TryAtomically(func(tx *stm.Tx) {
		b := sb.begin(spanBody, atom, req)
		if sb != nil {
			tx.OnAbort(func() { sb.end(b) })
		}
		for _, op := range w.ops {
			switch op.kind {
			case 1:
				if !w.g.table.Insert(tx, op.key) {
					w.g.table.Remove(tx, op.key)
				}
			case 2:
				w.g.table.Update(tx, op.key)
			default:
				w.g.table.Contains(tx, op.key)
			}
		}
		if sb != nil {
			bodyEnd = time.Now()
			sb.endAt(b, bodyEnd)
		}
	}, w.budget)
	t1 := time.Now()
	sb.endAt(atom, t1)
	sb.endAt(root, t1)
	if err != nil {
		w.failed++
		return
	}
	for _, op := range w.ops {
		if op.kind == 1 {
			w.toggles[op.key]++
		}
	}
	if w.win != nil {
		w.win.done(t1)
		w.win.latency(t0, micros(t1.Sub(t0)))
	}
	if sb != nil {
		w.commitUs = append(w.commitUs, micros(t1.Sub(bodyEnd)))
	}
}

// runWorkers runs every worker back to back: count transactions each, or,
// with count 0, until dur has passed. Timed runs return the completions and
// latencies of committed transactions per window of dur/phaseWindows.
func runWorkers(ws []*htWorker, dur time.Duration, count int) *windows {
	var stop atomic.Bool
	var wg sync.WaitGroup
	limit := count
	if count == 0 {
		limit = -1
	}
	start := time.Now()
	for _, w := range ws {
		if count == 0 {
			w.win = newWindows(start, dur)
		}
		wg.Add(1)
		go func(w *htWorker) {
			defer wg.Done()
			for n := 0; n != limit && !stop.Load(); n++ {
				w.tx()
			}
		}(w)
	}
	if count > 0 {
		wg.Wait()
		return nil
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	win := ws[0].win
	for _, w := range ws {
		if w != ws[0] {
			win.merge(w.win)
		}
		w.win = nil
	}
	return win
}

// runHashtable runs paper-hashtable: set-up (prefill, repeated; setup_s is
// the median), a fixed count of warm-up transactions that age the table with
// tombstones, then the closed loop — timed, or in a traced run split into an
// untraced and a traced half — and the membership check.
func runHashtable(cfg *config) (*report, error) {
	rep := newReport()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	sb := tr.buf()
	var g *htRig
	setup, err := setUp(cfg, func() (time.Duration, error) {
		t0 := time.Now()
		g = openTable(cfg, sb)
		return time.Since(t0), nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup)

	ws := make([]*htWorker, cfg.clients)
	for i := range ws {
		ws[i] = &htWorker{
			id:      i + 1,
			g:       g,
			rng:     rand.New(rand.NewPCG(cfg.seed, uint64(i+1))),
			budget:  stm.MaxAttempts(htAttempts),
			toggles: make([]uint8, g.keySpace+1),
			stride:  1,
		}
	}
	runWorkers(ws, 0, cfg.warmTxs/len(ws))
	runtime.GC()

	if !cfg.trace {
		win := runWorkers(ws, cfg.measure(), 0)
		rep.set("ops_per_s", win.rate(phaseWindows))
		rep.note("closed-loop mean rate %.0f/s", win.meanRate(phaseWindows))
		samples, _ := win.samples()
		rep.note("p50_us %.2f p99_us %.1f over %d samples", win.quantile(0.5), win.quantile(0.99), samples)
		rep.note("closed loop: %d committed transactions from %d threads, ops_per_s the median of %d windows of %v, latency per transaction the median over windows of %d samples",
			samples, len(ws), phaseWindows, win.width, latWindow)
		rep.note("heap_mb %.3f", liveHeapMB())
		runtime.KeepAlive(g)
	} else {
		half := cfg.measure() / 2
		untraced := runWorkers(ws, half, 0).rate(phaseWindows)
		stride := uint64(untraced*half.Seconds()/maxTracedReqs) + 1
		for _, w := range ws {
			w.spans, w.stride = tr.buf(), stride
		}
		var m0, m1 runtime.MemStats
		s0 := g.rt.Stats()
		runtime.ReadMemStats(&m0)
		win := runWorkers(ws, half, 0)
		runtime.ReadMemStats(&m1)
		_, n := win.samples()
		setEngineLayers(rep, g.rt.Stats().Sub(s0))
		setRuntimeLayers(rep, &m0, &m1, float64(n))
		var commit []float64
		for _, w := range ws {
			commit = append(commit, w.commitUs...)
		}
		body := tr.durations(spanBody)
		rep.set("stm.body_us_p50", quantile(body, 0.5))
		rep.set("stm.commit_us_p50", quantile(commit, 0.5))
		rep.set("trace.overhead_frac", 1-win.rate(phaseWindows)/untraced)
		rep.note("traced every %d-th transaction: %d attempt spans", stride, len(body))
	}

	var toggles []uint8
	for _, w := range ws {
		rep.attempted += w.done
		rep.failed += w.failed
		if toggles == nil {
			toggles = make([]uint8, len(w.toggles))
		}
		for k, t := range w.toggles {
			toggles[k] += t
		}
	}
	rep.note("attempted %d, failed %d, failed_frac %.6f", rep.attempted, rep.failed, ratio(float64(rep.failed), float64(rep.attempted)))
	rep.check(checkTable(g.initial, g.membership(), toggles))
	if tr != nil {
		if err := tr.write(tracePath(cfg)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
