package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"

	"semstm/stm"
)

// TestWireRoundTrip drives the full network stack: server on ephemeral
// ports, concurrent clients over real TCP, and a /metrics scrape.
func TestWireRoundTrip(t *testing.T) {
	s := volatileStore(t, stm.SNOrec, 4, true)
	srv, err := Serve(s, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	resp, err := c.Do([]WireOp{{Op: "write", Ks: "acct", Key: 1, Val: 100}})
	if err != nil || !resp.OK || !resp.Guard {
		t.Fatalf("write: %+v err=%v", resp, err)
	}
	resp, err = c.Do([]WireOp{
		{Op: "cmp", Ks: "acct", Key: 1, Cmp: "gte", Val: 50},
		{Op: "inc", Ks: "acct", Key: 1, Val: -50},
		{Op: "read", Ks: "acct", Key: 1},
	})
	if err != nil || !resp.OK || !resp.Guard {
		t.Fatalf("guarded dec: %+v err=%v", resp, err)
	}
	// The read ran before commit applied the deferred inc's merge? No — the
	// read is in the same transaction and promotes the inc: 100-50.
	if len(resp.Reads) != 1 || resp.Reads[0] != 50 {
		t.Fatalf("reads = %v, want [50]", resp.Reads)
	}
	// Failed guard commits empty.
	resp, err = c.Do([]WireOp{
		{Op: "cmp", Ks: "acct", Key: 1, Cmp: "gte", Val: 1000},
		{Op: "write", Ks: "acct", Key: 1, Val: 0},
	})
	if err != nil || !resp.OK || resp.Guard {
		t.Fatalf("failed guard: %+v err=%v", resp, err)
	}
	// Malformed op reports per-request, connection stays usable.
	resp, err = c.Do([]WireOp{{Op: "nope", Key: 1}})
	if err != nil || resp.Err == "" {
		t.Fatalf("bad op: %+v err=%v", resp, err)
	}
	resp, err = c.Do([]WireOp{{Op: "read", Ks: "acct", Key: 1}})
	if err != nil || !resp.OK || resp.Reads[0] != 50 {
		t.Fatalf("read after error: %+v err=%v", resp, err)
	}

	// Concurrent connections hammering one hot counter.
	const conns, per = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc, err := Dial(srv.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cc.Close()
			for j := 0; j < per; j++ {
				if r, err := cc.Do([]WireOp{{Op: "inc", Ks: "hot", Key: 0, Val: 1}}); err != nil || !r.OK {
					t.Errorf("inc: %+v err=%v", r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	resp, err = c.Do([]WireOp{{Op: "read", Ks: "hot", Key: 0}})
	if err != nil || resp.Reads[0] != conns*per {
		t.Fatalf("hot counter = %v (err=%v), want %d", resp.Reads, err, conns*per)
	}

	// Metrics endpoint serves the Prometheus families.
	hr, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.MetricsAddr()))
	if err != nil {
		t.Fatalf("metrics scrape: %v", err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if !strings.Contains(string(body), "semstm_requests_total") ||
		!strings.Contains(string(body), "semstm_batch_size_bucket") {
		t.Fatalf("metrics body missing families:\n%s", body)
	}
}

// TestRunLoadTCP smoke-tests the wire-mode load generator.
func TestRunLoadTCP(t *testing.T) {
	s := volatileStore(t, stm.SNOrec, 4, true)
	srv, err := Serve(s, "127.0.0.1:0", "")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	res, err := RunLoadTCP(srv.Addr(), LoadConfig{
		Workload: "counter", Connections: 4, Keys: 1 << 10, HotKeys: 64,
		Duration: 100 * 1e6, Seed: 3,
	})
	if err != nil {
		t.Fatalf("RunLoadTCP: %v", err)
	}
	if res.Requests == 0 || res.Committed == 0 {
		t.Fatalf("no traffic: %+v", res)
	}
}

// TestRunLoadInProcess smoke-tests every in-process workload mix.
func TestRunLoadInProcess(t *testing.T) {
	for _, wl := range []string{"counter", "readmostly", "mixed"} {
		s := volatileStore(t, stm.SNOrec, 4, true)
		res, err := RunLoad(s, LoadConfig{
			Workload: wl, Connections: 8, Keys: 1 << 12, HotKeys: 128,
			Duration: 80 * 1e6, Seed: 11,
		})
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if res.Requests == 0 || res.Committed == 0 {
			t.Fatalf("%s: no traffic: %+v", wl, res)
		}
		if res.RequestsPerSec <= 0 {
			t.Fatalf("%s: rate = %v", wl, res.RequestsPerSec)
		}
	}
}

// rawConn sends hand-written lines to a server and reads its replies.
type rawConn struct {
	conn net.Conn
	in   *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{conn: conn, in: bufio.NewReader(conn)}
}

// roundTrip writes line plus a newline and returns the decoded reply.
func (c *rawConn) roundTrip(t *testing.T, line []byte) WireResponse {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := c.conn.Write(append(line, '\n'))
		errc <- err
	}()
	reply, err := c.in.ReadBytes('\n')
	if err != nil {
		t.Fatalf("read reply: %v (reply so far %q)", err, reply)
	}
	if err := <-errc; err != nil {
		t.Fatalf("write: %v", err)
	}
	var resp WireResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		t.Fatalf("reply %q: %v", reply, err)
	}
	return resp
}

// TestOversizedLineGetsReply sends a line over the 1 MiB bound and expects
// an id-0 bad-request reply before the server closes the connection.
func TestOversizedLineGetsReply(t *testing.T) {
	s := volatileStore(t, stm.SNOrec, 4, true)
	srv, err := Serve(s, "127.0.0.1:0", "")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	c := dialRaw(t, srv.Addr())
	if resp := c.roundTrip(t, []byte(`{"id":1,"ops":[{"op":"read","key":1}]}`)); !resp.OK {
		t.Fatalf("read: %+v", resp)
	}
	line := []byte(`{"id":2,"ops":[` + strings.Repeat(`{"op":"read","key":1},`, maxLine/20) + `{"op":"read","key":1}]}`)
	resp := c.roundTrip(t, line)
	if resp.ID != 0 || resp.OK || resp.Err != "bad request: line exceeds 1 MiB" {
		t.Fatalf("oversized line: %+v", resp)
	}
	if _, err := c.in.ReadByte(); err != io.EOF {
		t.Fatalf("connection still open after an oversized line: err=%v", err)
	}
}

// TestBadRequestsMetric checks that every kind of rejected request counts
// in semstm_bad_requests_total: a malformed line, an unknown op, an empty
// request and an oversized line.
func TestBadRequestsMetric(t *testing.T) {
	s := volatileStore(t, stm.SNOrec, 4, true)
	srv, err := Serve(s, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	c := dialRaw(t, srv.Addr())
	for _, tc := range []struct {
		line   string
		id     uint64
		prefix string
	}{
		{`{"id":1,"ops":[`, 0, "bad request: "},
		{`{"id":2,"ops":[{"op":"nope","key":1}]}`, 2, `server: unknown op "nope"`},
		{`{"id":3,"ops":[]}`, 3, "server: empty request"},
		{`{"id":4,` + strings.Repeat(" ", maxLine) + `"ops":[]}`, 0, "bad request: line exceeds 1 MiB"},
	} {
		resp := c.roundTrip(t, []byte(tc.line))
		if resp.ID != tc.id || resp.OK || !strings.HasPrefix(resp.Err, tc.prefix) {
			t.Fatalf("line %.40q: reply %+v, want id %d and error %q", tc.line, resp, tc.id, tc.prefix)
		}
	}
	hr, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.MetricsAddr()))
	if err != nil {
		t.Fatalf("metrics scrape: %v", err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if !strings.Contains(string(body), "\nsemstm_bad_requests_total 4\n") {
		t.Fatalf("want semstm_bad_requests_total 4 in:\n%s", body)
	}
}
