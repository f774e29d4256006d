package main

import (
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semstm/internal/server"
	"semstm/stm"
)

// servedSpec is one of the served workloads. All of them run the
// semstm-serve defaults: S-NOrec, 8 shards, batcher on, windows of up to 64.
type servedSpec struct {
	wire  bool   // drive server.Serve over loopback instead of Store.Submit
	fsync string // WAL fsync policy of a durable store; "" keeps no WAL
	// closedRate sizes a durable workload's closed phase: it runs a fixed
	// count of requests (phase seconds × closedRate), so the log the run
	// leaves, and with it the reopen time, is set by the input alone.
	closedRate float64
	gen        func(rng *rand.Rand, cfg *config, r *server.Request)
	// rate is the open-loop offered rate in requests/s, fixed so that later
	// commits are measured at the same offered load. It is a quarter or less
	// of the closed-loop ops_per_s measured with 2 clients on 2 CPUs when the
	// benchmark was defined: the shared host's speed moved by a third between
	// runs, and at half load such a dip took the open loop to saturation.
	rate float64
}

var (
	wireMixed      = servedSpec{wire: true, gen: genMixed, rate: 15000}
	inprocMixed    = servedSpec{gen: genMixed, rate: 150000}
	durableCounter = servedSpec{fsync: "always", closedRate: 16000, gen: genCounter, rate: 3000}
	// durableNoFsync is durableCounter with fsync=none: every request still
	// pays the WAL append, its framing and the write under the shard's log
	// lock, and the log is still reopened, but no fsync waits on the shared
	// disk. Its closed phase takes about a third of its half of the run at
	// the ~250k requests/s measured when the benchmark was defined, which
	// keeps the log near 50 bytes × 1.5M requests for a 30 s run.
	durableNoFsync = servedSpec{fsync: "none", closedRate: 80000, gen: genCounter, rate: 20000}
)

func (s *servedSpec) durable() bool { return s.fsync != "" }

// gapStream is the first seed stream of the clients' open-loop arrival gaps;
// their request streams are 1..clients.
const gapStream = 1 << 16

// genMixed is the mix of wire-mixed and inproc-mixed: 40% reads over the
// whole key universe, 25% incs on hot keys, 20% guarded transfers between
// hot keys, 15% writes to non-hot keys.
func genMixed(rng *rand.Rand, cfg *config, r *server.Request) {
	r.Ops = r.Ops[:0]
	switch p := rng.IntN(100); {
	case p < 40:
		r.Ops = append(r.Ops, server.Op{Code: server.OpRead, Key: rng.Uint64N(cfg.keys)})
	case p < 65:
		r.Ops = append(r.Ops, server.Op{Code: server.OpInc, Key: rng.Uint64N(cfg.hot), Val: 1})
	case p < 85:
		a, b := rng.Uint64N(cfg.hot), rng.Uint64N(cfg.hot)
		r.Ops = append(r.Ops,
			server.Op{Code: server.OpCmp, Key: a, Cmp: stm.OpGTE, Val: 1},
			server.Op{Code: server.OpInc, Key: a, Val: -1},
			server.Op{Code: server.OpInc, Key: b, Val: 1},
		)
	default:
		k := cfg.hot + rng.Uint64N(cfg.keys-cfg.hot)
		r.Ops = append(r.Ops, server.Op{Code: server.OpWrite, Key: k, Val: rng.Int64N(1000)})
	}
}

// genCounter is the durable workloads' mix: 95% incs, 5% reads, on hot keys.
func genCounter(rng *rand.Rand, cfg *config, r *server.Request) {
	r.Ops = r.Ops[:0]
	k := rng.Uint64N(cfg.hot)
	if rng.IntN(100) < 95 {
		r.Ops = append(r.Ops, server.Op{Code: server.OpInc, Key: k, Val: 1})
	} else {
		r.Ops = append(r.Ops, server.Op{Code: server.OpRead, Key: k})
	}
}

// client executes one request by the path its workload puts in front. A
// returned error is a transport or protocol failure, not a request outcome.
type client interface {
	do(r *server.Request, tc *traceCtx) (server.Result, error)
}

// storeClient submits straight into the store.
type storeClient struct{ s *server.Store }

func (c storeClient) do(r *server.Request, tc *traceCtx) (server.Result, error) {
	i := tc.begin(spanSubmit)
	res := c.s.Submit(r)
	tc.end(i)
	return res, nil
}

// tally is one client's record of what the store acknowledged.
type tally struct {
	attempted, failed uint64
	hotIncs           int64   // acknowledged single-op incs on hot keys
	applied           []int64 // per hot key: acknowledged deltas, transfer legs included
	negReads          uint64  // hot-key reads that returned a negative value
	shortReads        uint64  // committed requests missing read values
}

func newTally(cfg *config) *tally { return &tally{applied: make([]int64, cfg.hot)} }

// note records one finished request. A failure is an abort after the
// attempt budget or an error reply; a guard that failed is a valid outcome.
func (t *tally) note(cfg *config, r *server.Request, res *server.Result) {
	t.attempted++
	if !res.Committed || res.Err != nil {
		t.failed++
		return
	}
	reads := 0
	for _, op := range r.Ops {
		switch op.Code {
		case server.OpRead:
			if reads >= len(res.Reads) {
				t.shortReads++
			} else if op.Key < cfg.hot && res.Reads[reads] < 0 {
				t.negReads++
			}
			reads++
		case server.OpInc:
			if res.GuardOK && op.Key < cfg.hot {
				t.applied[op.Key] += op.Val
			}
		}
	}
	if len(r.Ops) == 1 && r.Ops[0].Code == server.OpInc && r.Ops[0].Key < cfg.hot {
		t.hotIncs += r.Ops[0].Val
	}
}

// merge folds o into t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.hotIncs += o.hotIncs
	t.negReads += o.negReads
	t.shortReads += o.shortReads
	for k, d := range o.applied {
		t.applied[k] += d
	}
}

// checkServed compares the final hot-key values with what the clients saw
// acknowledged. The hot-key sum must equal the acknowledged single incs:
// transfers move a unit between hot keys and writes avoid them. Each hot key
// must equal the deltas acknowledged on it, and no read of a hot key may be
// negative, since every transfer is guarded by cmp gte 1.
func checkServed(final []int64, t *tally) error {
	if len(final) != len(t.applied) {
		return fmt.Errorf("read %d hot keys back, want %d", len(final), len(t.applied))
	}
	var sum int64
	bad := 0
	for k, v := range final {
		sum += v
		if v != t.applied[k] {
			bad++
		}
	}
	switch {
	case sum != t.hotIncs:
		return fmt.Errorf("hot-key sum %d, want %d acknowledged incs", sum, t.hotIncs)
	case bad > 0:
		return fmt.Errorf("%d hot keys differ from their acknowledged deltas", bad)
	case t.negReads > 0:
		return fmt.Errorf("%d hot-key reads were negative", t.negReads)
	case t.shortReads > 0:
		return fmt.Errorf("%d committed requests came back without their reads", t.shortReads)
	}
	return nil
}

// clientState is one client goroutine's request stream and records.
type clientState struct {
	id      int
	cl      client
	rng     *rand.Rand
	req     server.Request
	t       *tally
	gaps    *rand.Rand // open-loop arrival gaps
	sleeper *sleeper   // parks the client until a due time
	spans   *spanBuf   // non-nil while traced
	stride  uint64     // trace every stride-th request
	tc      traceCtx
	n       uint64
	late    []float64 // open-loop generator lateness, µs
	err     error
}

// step issues the client's next request and tallies its outcome. start is
// when the request was due (open loop) or generated (closed loop); step
// returns the completion time.
func (cs *clientState) step(spec *servedSpec, cfg *config, start time.Time) time.Time {
	spec.gen(cs.rng, cfg, &cs.req)
	cs.n++
	var tc *traceCtx
	if cs.spans != nil && cs.n%cs.stride == 0 {
		cs.tc.req = uint64(cs.id)<<40 | cs.n
		cs.tc.buf = cs.spans
		cs.tc.parent = cs.spans.beginAt(spanReq, -1, cs.tc.req, start)
		tc = &cs.tc
	}
	res, err := cs.cl.do(&cs.req, tc)
	done := time.Now()
	if tc != nil {
		cs.spans.endAt(tc.parent, done)
	}
	if err != nil {
		cs.err = fmt.Errorf("client %d: %w", cs.id, err)
		cs.t.attempted++
		cs.t.failed++
		return done
	}
	cs.t.note(cfg, &cs.req, &res)
	return done
}

// closedLoop runs every client back to back, each sending its next request
// once the previous one completed: until dur has passed, or, with quota > 0,
// until the clients have completed quota requests between them. It returns
// the completions per window of dur/phaseWindows, the number of windows the
// phase filled, and the completed count.
func closedLoop(states []*clientState, spec *servedSpec, cfg *config, dur time.Duration, quota int) (*windows, int, int) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	ws := make([]*windows, len(states))
	for i, cs := range states {
		share := -1
		if quota > 0 {
			share = quota / len(states)
			if i < quota%len(states) {
				share++
			}
		}
		ws[i] = newWindows(start, dur)
		wg.Add(1)
		go func(cs *clientState, w *windows, share int) {
			defer wg.Done()
			for n := 0; n != share && !stop.Load() && cs.err == nil; n++ {
				w.done(cs.step(spec, cfg, time.Now()))
			}
		}(cs, ws[i], share)
	}
	if quota <= 0 {
		time.Sleep(dur)
		stop.Store(true)
	}
	wg.Wait()
	full := phaseWindows
	if quota > 0 {
		full = max(1, int(time.Since(start)/ws[0].width))
	}
	for _, w := range ws[1:] {
		ws[0].merge(w)
	}
	_, n := ws[0].samples()
	return ws[0], full, n
}

// openLoop offers requests at rate for dur, as independent users do. Each
// client follows its own schedule at rate/clients, with exponential gaps
// drawn from the seed, and keeps one request in flight: a request that falls
// due while the previous one is still out goes when it returns, and every
// latency counts from the due time, so a stall counts against each request
// due during it. The generator's own lateness, how long after the later of
// its due time and its client being free a request went out, is kept in the
// latency: client and server share the CPUs, so a late wake-up is often the
// system's own goroutines holding them. It is recorded apart in the client
// states as a check on the generator. It returns the latencies per window of
// due times.
func openLoop(states []*clientState, spec *servedSpec, cfg *config, rate float64, dur time.Duration) *windows {
	var wg sync.WaitGroup
	perClient := rate / float64(len(states))
	start := time.Now()
	ws := make([]*windows, len(states))
	for i, cs := range states {
		ws[i] = newWindows(start, dur)
		wg.Add(1)
		go func(cs *clientState, w *windows) {
			defer wg.Done()
			free := start
			var due time.Duration
			for cs.err == nil {
				due += time.Duration(cs.gaps.ExpFloat64() / perClient * float64(time.Second))
				if due >= dur {
					return
				}
				at := start.Add(due)
				if err := waitUntil(cs.sleeper, at); err != nil {
					cs.err = err
					return
				}
				cs.late = append(cs.late, micros(time.Since(later(at, free))))
				free = cs.step(spec, cfg, at)
				w.latency(at, micros(free.Sub(at)))
			}
		}(cs, ws[i])
	}
	wg.Wait()
	for _, w := range ws[1:] {
		ws[0].merge(w)
	}
	return ws[0]
}

// lateP99 is the generator's lateness p99 over every client, in µs. It
// drops the samples, so that they do not count in the live heap.
func lateP99(states []*clientState) float64 {
	var late []float64
	for _, cs := range states {
		late = append(late, cs.late...)
		cs.late = nil
	}
	return quantile(late, 0.99)
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// spinBelow is the stretch of a wait that is spun out rather than parked: a
// timer wake-up costs microseconds of its own, and a spin this short cannot
// keep the network poller waiting long.
const spinBelow = 25 * time.Microsecond

// waitUntil returns once t has passed: parked on the sleeper until shortly
// before t, then yielding for the rest. Yielding through the whole wait
// would keep every CPU busy, and any other thread, the Go runtime's or the
// kernel's, would then wait a full scheduler time slice, milliseconds, for
// one: that showed as a multi-millisecond tail in half the windows.
func waitUntil(s *sleeper, t time.Time) error {
	if left := time.Until(t) - spinBelow; left > 0 {
		if err := s.sleep(left); err != nil {
			return err
		}
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
	return nil
}

// servedRig is one set-up of a served workload: the store, for wire-mixed
// the loopback server, and the clients.
type servedRig struct {
	store   *server.Store
	srv     *server.Server
	wires   []*wireClient
	clients []client
	dir     string
}

func storeConfig(spec *servedSpec, dir string) server.Config {
	sc := server.Config{Algo: stm.SNOrec, Shards: 8, Batching: true, MaxBatch: 64}
	if spec.durable() {
		sc.DurableDir = dir
		sc.Fsync = spec.fsync
	}
	return sc
}

// openRig sets the workload up: opens the store, touches every key the
// workload will use, and for wire-mixed starts the server and dials one
// connection per client.
func openRig(cfg *config, spec *servedSpec, dir string, sb *spanBuf) (*servedRig, error) {
	rig := &servedRig{dir: dir}
	i := sb.begin(spanSetupOpen, -1, 0)
	store, err := server.Open(storeConfig(spec, dir))
	sb.end(i)
	if err != nil {
		return nil, err
	}
	rig.store = store
	i = sb.begin(spanSetupTouch, -1, 0)
	touch := cfg.keys
	if spec.durable() {
		touch = cfg.hot
	}
	ks := store.Keyspace("")
	for k := uint64(0); k < touch; k++ {
		ks.Var(k)
	}
	sb.end(i)
	if !spec.wire {
		for range cfg.clients {
			rig.clients = append(rig.clients, storeClient{store})
		}
		return rig, nil
	}
	i = sb.begin(spanSetupServe, -1, 0)
	defer sb.end(i)
	if rig.srv, err = server.Serve(store, "127.0.0.1:0", ""); err != nil {
		rig.close()
		return nil, err
	}
	for c := range cfg.clients {
		w, err := dialWire(rig.srv.Addr(), uint64(c+1)<<40)
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.wires = append(rig.wires, w)
		rig.clients = append(rig.clients, w)
	}
	return rig, nil
}

// close tears the rig down; the store is closed last, which seals a WAL.
func (g *servedRig) close() error {
	for _, w := range g.wires {
		w.close()
	}
	if g.srv != nil {
		if err := g.srv.Close(); err != nil {
			g.store.Close()
			return err
		}
	}
	return g.store.Close()
}

// readHot reads every hot key back in one request through c.
func readHot(cfg *config, c client) ([]int64, error) {
	r := &server.Request{}
	for k := uint64(0); k < cfg.hot; k++ {
		r.Ops = append(r.Ops, server.Op{Code: server.OpRead, Key: k})
	}
	res, err := c.do(r, nil)
	if err != nil {
		return nil, err
	}
	if !res.Committed || res.Err != nil {
		return nil, fmt.Errorf("reading the hot keys back failed: %v", res.Err)
	}
	return res.Reads, nil
}

// layerSnap is a snapshot of every counter the traced run reads, all
// through public calls.
type layerSnap struct {
	srv      map[string]float64 // Store.WriteMetrics
	stm      stm.Snapshot
	mem      runtime.MemStats
	walBytes int64
	wire     uint64 // bytes the wire clients sent and received
	reqs     uint64
}

func snapLayers(rig *servedRig, states []*clientState) layerSnap {
	var s layerSnap
	var b strings.Builder
	rig.store.WriteMetrics(&b)
	s.srv = parseMetrics(b.String())
	s.stm = rig.store.Runtime().Stats()
	runtime.ReadMemStats(&s.mem)
	s.walBytes = dirBytes(rig.dir)
	for _, w := range rig.wires {
		s.wire += w.bytes
	}
	for _, cs := range states {
		s.reqs += cs.t.attempted
	}
	return s
}

// parseMetrics reads the Prometheus text format into series → value.
func parseMetrics(text string) map[string]float64 {
	m := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// family sums every series of a metric family.
func family(m map[string]float64, name string) float64 {
	var sum float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// dirBytes sums the sizes of the files under dir (0 when there is none).
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// setServedLayers derives the per-layer metrics of a served workload from
// two counter snapshots.
func setServedLayers(rep *report, a, b layerSnap) {
	reqs := float64(b.reqs - a.reqs)
	d := func(name string) float64 { return family(b.srv, name) - family(a.srv, name) }
	rep.set("server.wire.bytes_per_req", ratio(float64(b.wire-a.wire), reqs))
	rep.set("server.window_mean", ratio(d("semstm_batch_size_sum"), d("semstm_batch_size_count")))
	rep.set("server.requests_per_commit", ratio(d("semstm_requests_total"), d("semstm_engine_commits_total")))
	rep.set("server.merged_inc_frac", ratio(d(`semstm_merge_inc_ops_total{kind="merged"}`), d(`semstm_merge_inc_ops_total{kind="seen"}`)))
	rep.set("server.solo_frac", ratio(d("semstm_solo_fallbacks_total"), d("semstm_requests_total")))
	fsyncs, appends := d("semstm_wal_fsyncs_total"), d("semstm_wal_appends_total")
	rep.set("wal.fsyncs_per_req", ratio(fsyncs, reqs))
	rep.set("wal.appends_per_req", ratio(appends, reqs))
	rep.set("wal.group_size", ratio(appends, fsyncs))
	rep.set("wal.bytes_per_req", ratio(float64(b.walBytes-a.walBytes), reqs))
	setEngineLayers(rep, b.stm.Sub(a.stm))
	setRuntimeLayers(rep, &a.mem, &b.mem, reqs)
}

// setEngineLayers derives the engine and shard metrics from a Stats delta.
func setEngineLayers(rep *report, d stm.Snapshot) {
	commits := float64(d.Commits)
	rep.set("stm.aborts_per_commit", ratio(float64(d.Aborts), commits))
	rep.set("stm.abort.cmp_flip_per_commit", ratio(float64(d.AbortReasons[stm.AbortCmpFlip]), commits))
	rep.set("stm.abort.validation_per_commit", ratio(float64(d.AbortReasons[stm.AbortValidation]), commits))
	rep.set("stm.attempts_per_tx", ratio(float64(d.Commits+d.Aborts), commits))
	rep.set("stm.val_entries_per_commit", ratio(float64(d.ValEntries), commits))
	rep.set("stm.cmps_per_commit", ratio(float64(d.Compares), commits))
	rep.set("stm.incs_per_commit", ratio(float64(d.Incs), commits))
	rep.set("stm.reads_per_commit", ratio(float64(d.Reads), commits))
	rep.set("stm.spin_waits_per_commit", ratio(float64(d.SpinWaits), commits))
	rep.set("stm.escalations", float64(d.Escalations))
	rep.set("shard.cross_frac", ratio(float64(d.CrossCommits), commits))
	rep.set("shard.revals_per_cross", ratio(float64(d.CrossRevals), float64(d.CrossCommits)))
}

// setRuntimeLayers derives the Go runtime metrics from two MemStats.
func setRuntimeLayers(rep *report, a, b *runtime.MemStats, ops float64) {
	rep.set("go.allocs_per_op", ratio(float64(b.Mallocs-a.Mallocs), ops))
	rep.set("go.gc_pause_ms", float64(b.PauseTotalNs-a.PauseTotalNs)/1e6)
}

// liveHeapMB forces a collection and reports the live heap in MiB. The
// second collection also frees what sync.Pool caches kept through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// runServed runs one served workload: set-up (repeated; setup_s is the
// median), a closed-loop phase for ops_per_s, an open-loop phase at the
// workload's fixed rate for latency, then the correctness checks. A traced
// run splits the time into an untraced closed phase, a traced closed phase
// and a traced open phase instead, and reports per-layer metrics.
func runServed(cfg *config, spec servedSpec) (*report, error) {
	rep := newReport()
	dir, err := runDir(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	sb := tr.buf()

	var rig *servedRig
	setups := 0
	setup, err := setUp(cfg, func() (time.Duration, error) {
		if rig != nil {
			if err := rig.close(); err != nil {
				return 0, err
			}
		}
		// Collect the previous set-up's store before timing the next, and
		// the last one's garbage before the measured phases, so that
		// neither pays for it.
		runtime.GC()
		t0 := time.Now()
		rig, err = openRig(cfg, &spec, filepath.Join(dir, fmt.Sprintf("wal-%d", setups)), sb)
		setups++
		return time.Since(t0), err
	})
	if err != nil {
		if rig != nil {
			rig.close()
		}
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rigOpen := true
	defer func() {
		if rigOpen {
			rig.close()
		}
	}()
	rep.set("setup_s", setup)
	runtime.GC()

	states := make([]*clientState, len(rig.clients))
	for i, c := range rig.clients {
		sl, err := newSleeper()
		if err != nil {
			return nil, err
		}
		defer sl.close()
		states[i] = &clientState{
			id:      i + 1,
			cl:      c,
			rng:     rand.New(rand.NewPCG(cfg.seed, uint64(i+1))),
			gaps:    rand.New(rand.NewPCG(cfg.seed, gapStream+uint64(i))),
			sleeper: sl,
			t:       newTally(cfg),
		}
	}
	quota := func(d time.Duration) int {
		return int(d.Seconds() * spec.closedRate)
	}

	if !cfg.trace {
		half := cfg.measure() / 2
		closed, full, n := closedLoop(states, &spec, cfg, half, quota(half))
		rep.set("ops_per_s", closed.rate(full))
		rep.note("closed-loop mean rate %.0f/s", closed.meanRate(full))
		open := openLoop(states, &spec, cfg, spec.rate, half)
		samples, _ := open.samples()
		rep.note("p50_us %.2f p99_us %.1f over %d samples", open.quantile(0.5), open.quantile(0.99), samples)
		rep.note("closed loop: %d requests from %d clients, ops_per_s the median of %d windows of %v; open loop: %d requests offered at %.0f/s, latency the median over windows of %d samples",
			n, len(states), full, closed.width, samples, spec.rate, latWindow)
		rep.note("generator late p99 %.1f us", lateP99(states))
		rep.note("heap_mb %.3f", liveHeapMB())
	} else {
		third := cfg.measure() / 3
		closed, full, _ := closedLoop(states, &spec, cfg, third, quota(third))
		untraced := closed.rate(full)
		// Spans are kept for every stride-th request, enough for about
		// maxTracedReqs requests over the two traced phases.
		stride := uint64(untraced*1.5*third.Seconds()/maxTracedReqs) + 1
		for _, cs := range states {
			cs.spans, cs.stride = tr.buf(), stride
		}
		a := snapLayers(rig, states)
		closed, full, _ = closedLoop(states, &spec, cfg, third, quota(third))
		openLoop(states, &spec, cfg, spec.rate, third)
		b := snapLayers(rig, states)
		setServedLayers(rep, a, b)
		rtt := tr.durations(spanWireRTT)
		sub := tr.durations(spanSubmit)
		rep.set("server.wire.rtt_p50_us", quantile(rtt, 0.5))
		rep.set("server.wire.rtt_p99_us", quantile(rtt, 0.99))
		rep.set("server.submit_p50_us", quantile(sub, 0.5))
		rep.set("server.submit_p99_us", quantile(sub, 0.99))
		rep.set("loadgen.late_p99_us", lateP99(states))
		rep.set("trace.overhead_frac", 1-closed.rate(full)/untraced)
		rep.note("traced every %d-th request: %d rtt and %d submit spans", stride, len(rtt), len(sub))
	}

	all := newTally(cfg)
	for _, cs := range states {
		all.merge(cs.t)
		if cs.err != nil {
			rep.check(cs.err)
		}
	}
	rep.attempted, rep.failed = all.attempted, all.failed
	rep.note("attempted %d, failed %d, failed_frac %.6f", all.attempted, all.failed, ratio(float64(all.failed), float64(all.attempted)))

	var final []int64
	if !spec.durable() {
		final, err = readHot(cfg, rig.clients[0])
		if err != nil {
			return nil, err
		}
	} else {
		// Reopen the run's log: the durable check reads the recovered state.
		rigOpen = false
		if err := rig.close(); err != nil {
			return nil, err
		}
		var recovers []float64
		for i := 0; i < cfg.setups; i++ {
			t0 := time.Now()
			j := sb.begin(spanRecover, -1, 0)
			store, err := server.Open(storeConfig(&spec, rig.dir))
			sb.end(j)
			if err != nil {
				return nil, fmt.Errorf("reopen: %w", err)
			}
			recovers = append(recovers, time.Since(t0).Seconds())
			if i == cfg.setups-1 {
				final, err = readHot(cfg, storeClient{store})
			}
			if cerr := store.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, err
			}
		}
		rep.set("wal.recover_s", median(recovers))
		rep.note("recover_s %.4f (median of %d reopens of a %d-byte log)", median(recovers), len(recovers), dirBytes(rig.dir))
	}
	rep.check(checkServed(final, all))
	if tr != nil {
		if err := tr.write(tracePath(cfg)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// maxTracedReqs bounds the requests a traced run keeps spans for, and so
// the trace's memory and file size.
const maxTracedReqs = 100000

// tracePath is where a traced run writes its spans; each workload keeps only
// its latest trace.
func tracePath(cfg *config) string {
	return filepath.Join(cfg.workDir, "trace", cfg.workload+".jsonl")
}
