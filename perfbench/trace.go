package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanName indexes spanNames.
type spanName uint8

const (
	spanReq spanName = iota
	spanWireRTT
	spanSubmit
	spanAtomically
	spanBody
	spanRecover
	spanSetupOpen
	spanSetupTouch
	spanSetupServe
	spanSetupPrefill
)

var spanNames = [...]string{
	spanReq:          "req",
	spanWireRTT:      "server.wire.rtt",
	spanSubmit:       "server.submit",
	spanAtomically:   "stm.atomically",
	spanBody:         "stm.body",
	spanRecover:      "wal.recover",
	spanSetupOpen:    "setup.open",
	spanSetupTouch:   "setup.pretouch",
	spanSetupServe:   "setup.serve",
	spanSetupPrefill: "setup.prefill",
}

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch; parent indexes the same buffer (-1 for a root), and req
// is shared by every span of one request.
type span struct {
	start, end int64
	req        uint64
	parent     int32
	name       spanName
}

// tracer keeps every span of a traced run in memory, one buffer per
// goroutine, and writes them out when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf returns a new span buffer; only the goroutine it is handed to may
// record into it. A nil tracer hands out nil buffers, which record nothing.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{epoch: t.epoch}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// durations returns the duration of every finished span of the given name,
// in microseconds.
func (t *tracer) durations(name spanName) []float64 {
	var out []float64
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if s.name == name && s.end != 0 {
				out = append(out, float64(s.end-s.start)/1e3)
			}
		}
	}
	return out
}

// write stores the spans as JSON lines, one span per line, with ids unique
// across buffers.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	base := 0
	for _, b := range t.bufs {
		for i, s := range b.spans {
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
				base+i, parent, s.req, spanNames[s.name], s.start, s.end)
		}
		base += len(b.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanBuf is one goroutine's span log. A nil *spanBuf records nothing, so
// untraced runs pay one nil check per span.
type spanBuf struct {
	epoch time.Time
	spans []span
}

func (b *spanBuf) at(t time.Time) int64 { return int64(t.Sub(b.epoch)) }

// beginAt opens a span that started at t and returns its index.
func (b *spanBuf) beginAt(name spanName, parent int32, req uint64, t time.Time) int32 {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{start: b.at(t), req: req, parent: parent, name: name})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) begin(name spanName, parent int32, req uint64) int32 {
	if b == nil {
		return -1
	}
	return b.beginAt(name, parent, req, time.Now())
}

// endAt closes span i at t, unless it is already closed.
func (b *spanBuf) endAt(i int32, t time.Time) {
	if b != nil && b.spans[i].end == 0 {
		b.spans[i].end = b.at(t)
	}
}

func (b *spanBuf) end(i int32) {
	if b != nil {
		b.endAt(i, time.Now())
	}
}

// traceCtx is the span context handed into a layer call: the request's root
// span and id. A nil *traceCtx records nothing, so untraced calls pay one
// nil check.
type traceCtx struct {
	buf    *spanBuf
	parent int32
	req    uint64
}

func (tc *traceCtx) begin(name spanName) int32 {
	if tc == nil {
		return -1
	}
	return tc.buf.begin(name, tc.parent, tc.req)
}

func (tc *traceCtx) end(i int32) {
	if tc != nil {
		tc.buf.end(i)
	}
}
