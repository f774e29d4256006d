// Wire front-end: a newline-delimited JSON request/response protocol over
// TCP, plus an HTTP /metrics endpoint in the Prometheus text format.
//
// One line, one transaction:
//
//	→ {"id":7,"ops":[{"op":"cmp","ks":"acct","key":1,"cmp":"gte","val":50},
//	                 {"op":"inc","ks":"acct","key":1,"val":-50},
//	                 {"op":"inc","ks":"acct","key":2,"val":50}]}
//	← {"id":7,"ok":true,"guard":true}
//
// "ok" is commitment, "guard" that every cmp held (writes applied); reads
// come back in op order. Requests on one connection execute in order; open
// many connections for concurrency (the loadgen simulates thousands).
//
// Grammar. A request is one JSON object per line, at most 1 MiB: "id" a
// non-negative integer, "ops" an array of objects with "op" (read, write,
// inc, cmp), "ks" (keyspace, default "default"), "key" a non-negative
// integer, "val" an integer, and "cmp" (eq, neq, gt, gte, lt, lte; cmp ops
// only). Member names match case-insensitively, unknown members are
// skipped, null leaves a member unset, and a repeated member name takes the
// last value ("ops" included: a repeated array replaces the earlier one).
// codec.go holds the decoder and the exact rules.
//
// Errors. A line that is not such an object (bad JSON, a wrongly typed
// value) gets `{"id":0,...,"err":"bad request: ..."}`; an unknown op or
// comparison, or an empty request, gets the request's id and the server's
// error. A line over 1 MiB gets the id-0 reply "bad request: line exceeds 1
// MiB" and the connection closes. Every rejection counts in
// semstm_bad_requests_total.
//
// Allocation. A connection decodes every line into one reused Request,
// runs it through Store.run (which also reuses the batcher's record and the
// Reads buffer), and appends the response to one reused buffer: a
// well-formed request allocates nothing on the server once the connection
// and the keys it touches are warm.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"semstm/stm"
)

// WireOp is one operation on the wire.
type WireOp struct {
	Op  string `json:"op"`
	Ks  string `json:"ks,omitempty"`
	Key uint64 `json:"key"`
	Val int64  `json:"val,omitempty"`
	Cmp string `json:"cmp,omitempty"`
}

// WireRequest is one request line.
type WireRequest struct {
	ID  uint64   `json:"id"`
	Ops []WireOp `json:"ops"`
}

// WireResponse is one response line.
type WireResponse struct {
	ID    uint64  `json:"id"`
	OK    bool    `json:"ok"`
	Guard bool    `json:"guard"`
	Reads []int64 `json:"reads,omitempty"`
	Err   string  `json:"err,omitempty"`
}

// cmpName spells a semantic operator as the wire protocol does.
func cmpName(op stm.Op) string {
	switch op {
	case stm.OpEQ:
		return "eq"
	case stm.OpNEQ:
		return "neq"
	case stm.OpGT:
		return "gt"
	case stm.OpGTE:
		return "gte"
	case stm.OpLT:
		return "lt"
	case stm.OpLTE:
		return "lte"
	default:
		return fmt.Sprintf("op%d", uint8(op))
	}
}

// Server owns the TCP listener and the metrics HTTP listener of one store.
type Server struct {
	store *Store
	ln    net.Listener
	mln   net.Listener
	hs    *http.Server
	wg    sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Serve starts the wire protocol on addr and, when metricsAddr is non-empty,
// the /metrics endpoint there. Pass ":0" to bind an ephemeral port; Addr and
// MetricsAddr report the bound addresses.
func Serve(store *Store, addr, metricsAddr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &Server{store: store, ln: ln, conns: make(map[net.Conn]struct{})}
	if metricsAddr != "" {
		mln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			ln.Close()
			return nil, err
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			store.WriteMetrics(w)
		})
		srv.mln = mln
		srv.hs = &http.Server{Handler: mux}
		srv.wg.Add(1)
		go func() {
			defer srv.wg.Done()
			srv.hs.Serve(mln)
		}()
	}
	srv.wg.Add(1)
	go srv.acceptLoop()
	return srv, nil
}

// Addr reports the wire listener's address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// MetricsAddr reports the metrics listener's address ("" when disabled).
func (s *Server) MetricsAddr() string {
	if s.mln == nil {
		return ""
	}
	return s.mln.Addr().String()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// maxLine bounds one request line (1 MiB — thousands of ops).
const maxLine = 1 << 20

// maxKeptOps bounds the ops a connection keeps buffers for between lines;
// a larger request's buffers are dropped once it is answered.
const maxKeptOps = 1024

// wireConn is one connection's reused state: the decoder, the Request every
// line decodes into, and the output buffer.
type wireConn struct {
	store *Store
	dec   requestDecoder
	req   Request
	out   []byte
}

// serveLine executes one request line and leaves its response line in
// c.out.
func (c *wireConn) serveLine(line []byte) {
	id, err := c.dec.decode(line, &c.req)
	resp := WireResponse{ID: id}
	if err != nil {
		c.store.metrics.badRequests.Add(1)
		resp.Err = err.Error()
	} else {
		c.store.run(&c.req)
		res := &c.req.res
		resp.OK, resp.Guard, resp.Reads = res.Committed, res.GuardOK, res.Reads
		if res.Err != nil {
			resp.Err = res.Err.Error()
		}
	}
	c.out = appendResponse(c.out[:0], &resp)
	if cap(c.req.Ops) > maxKeptOps {
		c.req = Request{}
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	in := bufio.NewScanner(conn)
	in.Buffer(make([]byte, 4096), maxLine)
	c := &wireConn{store: s.store}
	for in.Scan() {
		line := in.Bytes()
		if len(line) == 0 {
			continue
		}
		c.serveLine(line)
		if _, err := conn.Write(c.out); err != nil {
			return
		}
	}
	if errors.Is(in.Err(), bufio.ErrTooLong) {
		// Read the rest of the line (up to another maxLine, for at most a
		// second) before replying, so that closing with its bytes unread
		// does not reset the connection under the reply.
		conn.SetReadDeadline(time.Now().Add(time.Second))
		discardLine(conn, maxLine)
		s.store.metrics.badRequests.Add(1)
		conn.Write(appendResponse(c.out[:0], &WireResponse{Err: "bad request: line exceeds 1 MiB"}))
	}
}

// discardLine reads from r until a newline, an error, or limit bytes.
func discardLine(r io.Reader, limit int) {
	buf := make([]byte, 4096)
	for limit > 0 {
		n, err := r.Read(buf)
		if bytes.IndexByte(buf[:n], '\n') >= 0 || err != nil {
			return
		}
		limit -= n
	}
}

// Close stops both listeners, closes every live connection, and waits for
// the handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	if s.hs != nil {
		s.hs.Close()
	}
	s.wg.Wait()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// Client is a minimal wire-protocol client (loadgen's TCP mode, tests).
type Client struct {
	conn net.Conn
	in   *bufio.Scanner
	enc  *json.Encoder
	out  *bufio.Writer
	next uint64
}

// Dial connects to a server's wire address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	in := bufio.NewScanner(conn)
	in.Buffer(make([]byte, 4096), maxLine)
	out := bufio.NewWriter(conn)
	return &Client{conn: conn, in: in, enc: json.NewEncoder(out), out: out}, nil
}

// Do executes one request and returns its response.
func (c *Client) Do(ops []WireOp) (WireResponse, error) {
	c.next++
	if err := c.enc.Encode(&WireRequest{ID: c.next, Ops: ops}); err != nil {
		return WireResponse{}, err
	}
	if err := c.out.Flush(); err != nil {
		return WireResponse{}, err
	}
	if !c.in.Scan() {
		if err := c.in.Err(); err != nil {
			return WireResponse{}, err
		}
		return WireResponse{}, fmt.Errorf("server: connection closed")
	}
	var resp WireResponse
	if err := json.Unmarshal(c.in.Bytes(), &resp); err != nil {
		return WireResponse{}, err
	}
	return resp, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
