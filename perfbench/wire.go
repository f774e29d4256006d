package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"

	"semstm/internal/server"
	"semstm/stm"
)

// wireClient speaks the server's newline-JSON protocol over one TCP
// connection, one request in flight at a time. It is the benchmark's own
// client rather than server.Client so that it can count the bytes it moves
// and give every request an id of its own to match the response against.
type wireClient struct {
	conn   net.Conn
	in     *bufio.Reader
	out    bytes.Buffer
	enc    *json.Encoder
	wreq   server.WireRequest
	line   []byte // holds a response longer than the read buffer
	idBase uint64
	next   uint64
	bytes  uint64 // bytes sent and received
}

func dialWire(addr string, idBase uint64) (*wireClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &wireClient{conn: conn, in: bufio.NewReaderSize(conn, 64<<10), idBase: idBase}
	c.enc = json.NewEncoder(&c.out)
	return c, nil
}

func (c *wireClient) close() { c.conn.Close() }

// cmpWire spells each comparison the way the wire protocol does.
var cmpWire = func() map[stm.Op]string {
	m := make(map[stm.Op]string)
	for _, name := range []string{"eq", "neq", "gt", "gte", "lt", "lte"} {
		op, err := server.ParseCmp(name)
		if err != nil {
			panic(err)
		}
		m[op] = name
	}
	return m
}()

func (c *wireClient) do(r *server.Request, tc *traceCtx) (server.Result, error) {
	c.next++
	id := c.idBase | c.next
	c.wreq.ID = id
	c.wreq.Ops = c.wreq.Ops[:0]
	for _, op := range r.Ops {
		wo := server.WireOp{Op: op.Code.String(), Ks: op.Ks, Key: op.Key, Val: op.Val}
		if op.Code == server.OpCmp {
			wo.Cmp = cmpWire[op.Cmp]
		}
		c.wreq.Ops = append(c.wreq.Ops, wo)
	}
	c.out.Reset()
	if err := c.enc.Encode(&c.wreq); err != nil {
		return server.Result{}, err
	}
	sent := c.out.Len()
	i := tc.begin(spanWireRTT)
	if _, err := c.conn.Write(c.out.Bytes()); err != nil {
		return server.Result{}, err
	}
	line, err := c.readLine()
	tc.end(i)
	if err != nil {
		return server.Result{}, err
	}
	c.bytes += uint64(sent + len(line))
	var resp server.WireResponse
	if err := json.Unmarshal(line, &resp); err != nil {
		return server.Result{}, fmt.Errorf("bad response %q: %w", line, err)
	}
	if resp.ID != id {
		return server.Result{}, fmt.Errorf("response id %d to request id %d", resp.ID, id)
	}
	res := server.Result{Committed: resp.OK, GuardOK: resp.Guard, Reads: resp.Reads}
	if resp.Err != "" {
		res.Err = errors.New(resp.Err)
	}
	return res, nil
}

// readLine reads one response line, however long.
func (c *wireClient) readLine() ([]byte, error) {
	line, err := c.in.ReadSlice('\n')
	if !errors.Is(err, bufio.ErrBufferFull) {
		return line, err
	}
	c.line = append(c.line[:0], line...)
	for errors.Is(err, bufio.ErrBufferFull) {
		line, err = c.in.ReadSlice('\n')
		c.line = append(c.line, line...)
	}
	return c.line, err
}
