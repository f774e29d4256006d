package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"semstm/internal/server"
)

// smallConfig shrinks a workload so that a run takes a fraction of a second.
func smallConfig(t *testing.T, workload string, trace bool) *config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = 7
	cfg.seconds = 0.3
	cfg.trace = trace
	cfg.workDir = t.TempDir()
	cfg.setups = 1
	cfg.keys = 1 << 12
	cfg.hot = 64
	cfg.tableCap = 256
	cfg.warmTxs = 200
	return &cfg
}

// Each workload runs briefly, untraced and traced, passes its checks and
// reports every metric of its kind.
func TestWorkloadsBrief(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := smallConfig(t, name, trace)
			rep, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(rep.problems) > 0 {
				t.Errorf("%s trace=%v: checks failed: %v", name, trace, rep.problems)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", name, trace, rep.attempted, rep.failed)
			}
			line, err := rep.json(trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var out jsonReport
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if trace {
				want = perLayer
				if _, err := os.Stat(tracePath(cfg)); err != nil {
					t.Errorf("%s: no trace file: %v", name, err)
				}
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := out.Metrics[d.name]
				if !ok || m.Unit != d.unit || (!trace && m.Value <= 0) {
					t.Errorf("%s trace=%v: metric %s = %+v", name, trace, d.name, m)
				}
			}
			if trace && out.Metrics["stm.attempts_per_tx"].Value < 1 {
				t.Errorf("%s: traced run read no engine counters", name)
			}
		}
	}
}

// The metric tables are the lists BENCHMARK.json declares.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the program lacks", w.Name)
		}
	}
	for _, c := range []struct {
		declared []def
		table    []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.declared) != len(c.table) {
			t.Errorf("BENCHMARK.json declares %d metrics, program has %d", len(c.declared), len(c.table))
			continue
		}
		for i, d := range c.declared {
			if d.Name != c.table[i].name || d.Unit != c.table[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, d.Name, d.Unit, c.table[i].name, c.table[i].unit)
			}
		}
	}
}

// The served check passes on a consistent tally and fails when one
// acknowledged inc is dropped, when a hot key is off, or on a negative read.
func TestCheckServedCanFail(t *testing.T) {
	good := func() *tally {
		return &tally{hotIncs: 3, applied: []int64{2, 1}}
	}
	final := []int64{2, 1}
	if err := checkServed(final, good()); err != nil {
		t.Fatalf("consistent tally: %v", err)
	}
	dropped := good()
	dropped.hotIncs--
	dropped.applied[0]--
	if checkServed(final, dropped) == nil {
		t.Error("a dropped inc passed")
	}
	moved := good()
	moved.applied[0], moved.applied[1] = 1, 2
	if checkServed(final, moved) == nil {
		t.Error("a hot key off by a transfer passed")
	}
	neg := good()
	neg.negReads = 1
	if checkServed(final, neg) == nil {
		t.Error("a negative read passed")
	}
}

// The durable check reads the state recovered from the log: it passes
// against the incs acknowledged before the store was closed, and fails with
// one of them dropped from the tally. It holds under both fsync policies.
func TestDurableCheckCanFail(t *testing.T) {
	for _, spec := range []*servedSpec{&durableCounter, &durableNoFsync} {
		cfg := smallConfig(t, "durable-counter", false)
		dir := filepath.Join(cfg.workDir, "wal")
		store, err := server.Open(storeConfig(spec, dir))
		if err != nil {
			t.Fatal(err)
		}
		tl := newTally(cfg)
		c := storeClient{store}
		for k := uint64(0); k < 3*cfg.hot; k++ {
			r := &server.Request{Ops: []server.Op{{Code: server.OpInc, Key: k % cfg.hot, Val: 1}}}
			res, _ := c.do(r, nil)
			tl.note(cfg, r, &res)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		store, err = server.Open(storeConfig(spec, dir))
		if err != nil {
			t.Fatal(err)
		}
		final, err := readHot(cfg, storeClient{store})
		store.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := checkServed(final, tl); err != nil {
			t.Fatalf("fsync=%s: recovered state: %v", spec.fsync, err)
		}
		tl.hotIncs--
		tl.applied[5]--
		if checkServed(final, tl) == nil {
			t.Errorf("fsync=%s: a dropped inc passed after the reopen", spec.fsync)
		}
	}
}

// Throughput is the median window rate, so a stall in most windows moves
// it; the mean rate counts every completion, stalls included.
func TestRateIsMedianOfWindows(t *testing.T) {
	w := &windows{width: time.Second / 10, count: []int{10, 10, 1, 1, 1}}
	if got := w.rate(5); got != 10 {
		t.Errorf("rate = %v, want 10/s (the median window)", got)
	}
	if got := w.meanRate(5); got != 46 {
		t.Errorf("meanRate = %v, want 46/s", got)
	}
	if got := w.rate(2); got != 100 {
		t.Errorf("rate over the two filled windows = %v, want 100/s", got)
	}
}

// The table check fails when one committed toggle is missing.
func TestCheckTableCanFail(t *testing.T) {
	initial := []bool{false, true, false, true}
	toggles := []uint8{0, 1, 2, 3}
	final := []bool{false, false, false, false}
	if err := checkTable(initial, final, toggles); err != nil {
		t.Fatalf("consistent membership: %v", err)
	}
	toggles[3]--
	if checkTable(initial, final, toggles) == nil {
		t.Error("a dropped toggle passed")
	}
}

// The wire client rejects a response whose id is not its request's.
func TestWireIDMismatchFails(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := bufio.NewReader(conn).ReadBytes('\n'); err == nil {
			conn.Write([]byte("{\"id\":12345,\"ok\":true,\"guard\":true}\n"))
		}
	}()
	c, err := dialWire(ln.Addr().String(), 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	r := &server.Request{Ops: []server.Op{{Code: server.OpInc, Key: 1, Val: 1}}}
	if _, err := c.do(r, nil); err == nil || !strings.Contains(err.Error(), "response id") {
		t.Errorf("mismatched id: err = %v", err)
	}
}

// A bad command line exits 2 without printing a result.
func TestBadArgs(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, out.String())
	}
}
