package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"semstm/stm"
)

// decode is the oracle's second step: the request decoding the server did
// before codec.go, after json.Unmarshal filled the WireRequest.
func (wr *WireRequest) decode() (*Request, error) {
	r := &Request{Ops: make([]Op, len(wr.Ops))}
	for i, wo := range wr.Ops {
		code, err := ParseOpCode(wo.Op)
		if err != nil {
			return nil, err
		}
		op := Op{Code: code, Ks: wo.Ks, Key: wo.Key, Val: wo.Val}
		if code == OpCmp {
			if op.Cmp, err = ParseCmp(wo.Cmp); err != nil {
				return nil, err
			}
		}
		r.Ops[i] = op
	}
	return r, nil
}

// oracleDecode is how the server turned a line into a request before
// codec.go: json.Unmarshal, then WireRequest.decode. A JSON error is a bad
// request with id 0; a decode error carries the request's id.
func oracleDecode(line []byte) (id uint64, ops []Op, err error) {
	var wr WireRequest
	if err := json.Unmarshal(line, &wr); err != nil {
		return 0, nil, fmt.Errorf("bad request: %v", err)
	}
	req, err := wr.decode()
	if err != nil {
		return wr.ID, nil, err
	}
	return wr.ID, req.Ops, nil
}

// checkParity asserts the parity contract on one line: the decoder accepts
// exactly what the oracle accepts, into the same ops, and rejects the rest
// with the same id and, outside "bad request: ", the same text. It decodes
// twice, the second time into a Request and decoder already used for a
// different line, to check that reuse leaks nothing between lines.
func checkParity(t *testing.T, line []byte) {
	t.Helper()
	wantID, wantOps, wantErr := oracleDecode(line)
	var fresh, reused Request
	var d1, d2 requestDecoder
	d2.decode([]byte(`{"id":99,"ops":[{"op":"cmp","ks":"x","key":5,"cmp":"lt","val":-3},{"op":"inc","ks":"y","key":6,"val":4},{"op":"write","key":1,"val":1}]}`), &reused)
	for _, run := range []struct {
		name string
		d    *requestDecoder
		req  *Request
	}{{"fresh", &d1, &fresh}, {"reused", &d2, &reused}} {
		id, err := run.d.decode(line, run.req)
		switch {
		case wantErr == nil && err == nil:
			if id != wantID || !sameOps(run.req.Ops, wantOps) {
				t.Fatalf("%s %q: decoded id %d ops %+v, oracle id %d ops %+v", run.name, line, id, run.req.Ops, wantID, wantOps)
			}
		case wantErr == nil || err == nil:
			t.Fatalf("%s %q: decode error %v, oracle error %v", run.name, line, err, wantErr)
		case strings.HasPrefix(wantErr.Error(), "bad request: "):
			if id != 0 || !strings.HasPrefix(err.Error(), "bad request: ") {
				t.Fatalf("%s %q: decode id %d error %q, oracle rejects it: %v", run.name, line, id, err, wantErr)
			}
		default:
			if id != wantID || err.Error() != wantErr.Error() {
				t.Fatalf("%s %q: decode id %d error %q, oracle id %d error %q", run.name, line, id, err, wantID, wantErr)
			}
		}
	}
}

func sameOps(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hasRepeatedMember reports whether some object of a well-formed line names
// a member twice under encoding/json's case folding: the one place the
// decoder departs from the oracle on purpose.
func hasRepeatedMember(line []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(line))
	type frame struct {
		names map[string]bool // nil for an array
		key   bool            // the object's next token is a member name
	}
	var stack []*frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, &frame{names: map[string]bool{}, key: true})
			continue
		case json.Delim('['):
			stack = append(stack, &frame{})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		default:
			if len(stack) == 0 {
				return false
			}
			if top := stack[len(stack)-1]; top.names != nil && top.key {
				var folded []rune
				for _, r := range tok.(string) {
					folded = append(folded, foldRune(r))
				}
				if top.names[string(folded)] {
					return true
				}
				top.names[string(folded)] = true
				top.key = false
				continue
			}
		}
		if n := len(stack); n > 0 && stack[n-1].names != nil {
			stack[n-1].key = true
		}
	}
}

// canonicalLines are the lines real clients send: server.Client,
// semstm-load and the benchmark client all encode a WireRequest with
// encoding/json.
func canonicalLines() [][]byte {
	reqs := []WireRequest{
		{ID: 1, Ops: []WireOp{{Op: "read", Key: 7}}},
		{ID: 2, Ops: []WireOp{{Op: "inc", Key: 3, Val: 1}}},
		{ID: 3, Ops: []WireOp{
			{Op: "cmp", Key: 4, Cmp: "gte", Val: 1},
			{Op: "inc", Key: 4, Val: -1},
			{Op: "inc", Key: 9, Val: 1}}},
		{ID: 4, Ops: []WireOp{{Op: "write", Key: 1 << 19, Val: 999}}},
		{ID: 5, Ops: []WireOp{
			{Op: "cmp", Ks: "acct", Key: 1, Cmp: "gte", Val: 50},
			{Op: "inc", Ks: "acct", Key: 1, Val: -50},
			{Op: "read", Ks: "acct", Key: 1}}},
		{ID: 1<<40 | 77, Ops: []WireOp{{Op: "read", Ks: "hot", Key: 0}}},
		{ID: math.MaxUint64, Ops: []WireOp{{Op: "write", Key: math.MaxUint64, Val: math.MinInt64}}},
	}
	var lines [][]byte
	for _, wr := range reqs {
		b, err := json.Marshal(&wr)
		if err != nil {
			panic(err)
		}
		lines = append(lines, b)
	}
	return lines
}

// edgeLines are the corners of the accepted language and of its rejects.
var edgeLines = []string{
	// Case-insensitive members, Unicode folding (Kelvin sign, long s).
	`{"ID":2,"OPS":[{"OP":"read","Key":7}]}`,
	`{"iD":2,"oPs":[{"oP":"cmp","KS":"a","kEy":7,"VAL":1,"CMP":"eq"}]}`,
	"{\"id\":2,\"ops\":[{\"op\":\"read\",\"\u212aey\":7,\"k\u017f\":\"x\"}]}",
	`{"\u0069d":3,"o\u0070s":[{"\u006fp":"r\u0065ad","key":1}]}`,
	// Unknown members, whatever their value.
	`{"id":1,"zz":{"a":[1,2,{"b":null}],"c":"d"},"ops":[{"op":"read","key":1,"x":[true,false,null,-1.5e3]}]}`,
	`{"x":1}`, `{}`, `null`, ` null `, `{"ops":[]}`, `{"ops":null}`,
	// Escapes, null values, invalid UTF-8, lone surrogates.
	`{"id":1,"ops":[{"op":"read","ks":"a\"b\\c\/d\b\f\n\r\t","key":1}]}`,
	`{"id":1,"ops":[{"op":"read","ks":"\ud83d\ude00\u00e9\u2028","key":1}]}`,
	`{"id":1,"ops":[{"op":"read","ks":"\ud800x\udc00\ud800\u0041","key":1}]}`,
	"{\"id\":1,\"ops\":[{\"op\":\"read\",\"ks\":\"a\xffb\xed\xa0\x80\",\"key\":1}]}",
	`{"id":null,"ops":[{"op":"read","ks":null,"key":null,"val":null,"cmp":null}]}`,
	`{"id":1,"ops":[null]}`,
	`{"id":1,"ops":[{"op":null}]}`,
	`{"id":1,"ops":[{"op":"cmp","key":1}]}`,
	`{"id":1,"ops":[{"op":"read","cmp":"bogus","key":1}]}`,
	`{"id":1,"ops":[{"op":"cmp","cmp":"bogus","key":1},{"op":"nope"}]}`,
	`{"ops":[{"op":"nope"}],"id":5}`,
	`{"ops":[{"op":"nope"}],"id":5,}`,
	`{"ops":[{"op":"nope"}],"id":"5"}`,
	`{"id":1,"ops":[{"op":"read","key":1}]}   `,
	"\t{\"id\":1,\r\"ops\" : [ {\"op\" :\"read\" , \"key\":1 } ] }\r",
	// Numbers.
	`{"id":18446744073709551615,"ops":[{"op":"inc","key":0,"val":-9223372036854775808}]}`,
	`{"id":18446744073709551616,"ops":[]}`,
	`{"id":1,"ops":[{"op":"inc","key":1,"val":9223372036854775808}]}`,
	`{"id":1,"ops":[{"op":"inc","key":1,"val":-0}]}`,
	`{"id":-0,"ops":[]}`, `{"id":1.0,"ops":[]}`, `{"id":1e2,"ops":[]}`,
	`{"id":01,"ops":[]}`, `{"id":-,"ops":[]}`, `{"id":1.,"ops":[]}`, `{"id":1e,"ops":[]}`,
	// Wrong types.
	`{"id":true,"ops":[]}`, `{"id":1,"ops":{}}`, `{"id":1,"ops":[1]}`,
	`{"id":1,"ops":[{"op":1}]}`, `{"id":1,"ops":[{"op":"read","key":"1"}]}`,
	`[1]`, `5`, `"x"`, `true`,
	// Syntax.
	``, ` `, `{`, `{"id":1`, `{"id":1}x`, `{"id":1} {}`, `{'id':1}`, `{"id":1,}`,
	`{"id"1}`, `{"ops":[{"op":"read"},]}`, `{"ops":[{"op":"r\x"}]}`, `{"ops":[{"op":"r\u12"}]}`,
	"{\"ops\":[{\"op\":\"r\x01\"}]}", `{"id":nul}`, `{"id":1}}`, "\xff", `{"id":1,"ops":[]]`,
}

func TestDecodeRequestParity(t *testing.T) {
	for _, line := range canonicalLines() {
		checkParity(t, line)
	}
	for _, line := range edgeLines {
		checkParity(t, []byte(line))
	}
}

// TestDecodeNestingBound pins encoding/json's nesting bound: 10000 levels
// are accepted, 10001 are not.
func TestDecodeNestingBound(t *testing.T) {
	for _, depth := range []int{maxDepth, maxDepth + 1} {
		// The request object is one level; the skipped member adds the rest.
		inner := depth - 1
		line := `{"x":` + strings.Repeat("[", inner) + strings.Repeat("]", inner) + `,"ops":[{"op":"read","key":1}]}`
		checkParity(t, []byte(line))
	}
}

// TestDecodeRepeatedMembers pins the one deliberate departure from
// encoding/json: the last of a repeated member wins, and a repeated "ops"
// array decodes from zero rather than into the first array's elements.
func TestDecodeRepeatedMembers(t *testing.T) {
	line := []byte(`{"id":1,"ops":[{"op":"inc","key":1,"val":5}],"ops":[{"op":"inc","key":2}]}`)
	if _, ops, _ := oracleDecode(line); len(ops) != 1 || ops[0].Val != 5 {
		t.Fatalf("oracle ops = %+v, want encoding/json's in-place merge (val 5 on key 2)", ops)
	}
	var d requestDecoder
	var req Request
	id, err := d.decode(line, &req)
	if err != nil || id != 1 {
		t.Fatalf("decode: id %d err %v", id, err)
	}
	want := []Op{{Code: OpInc, Key: 2}}
	if !sameOps(req.Ops, want) {
		t.Fatalf("ops = %+v, want %+v", req.Ops, want)
	}
	// An unknown op in a replaced array no longer rejects the request.
	line = []byte(`{"id":2,"ops":[{"op":"nope"}],"ops":[{"op":"read","key":3}]}`)
	if id, err := d.decode(line, &req); err != nil || id != 2 || len(req.Ops) != 1 {
		t.Fatalf("decode: id %d err %v ops %+v", id, err, req.Ops)
	}
}

func FuzzDecodeRequest(f *testing.F) {
	for _, line := range canonicalLines() {
		f.Add(line)
	}
	for _, line := range edgeLines {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		if hasRepeatedMember(line) {
			t.Skip("repeated member names decode by a different rule")
		}
		checkParity(t, line)
	})
}

// TestEncodeResponseMatchesJSON checks appendResponse byte for byte against
// encoding/json's Encoder, over random results and hostile err strings.
func TestEncodeResponseMatchesJSON(t *testing.T) {
	errs := []string{
		"", "server: unknown op \"<script>&amp;\"", "a\x00b\x01\x1f\x7f\b\f\n\r\t\"\\",
		"line\u2028sep\u2029", "bad \xff\xfe utf8 \xed\xa0\x80", "é日本\U0001F600",
		"bad request: invalid character '<' at offset 3",
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 2000; i++ {
		resp := WireResponse{ID: rng.Uint64(), OK: rng.IntN(2) == 0, Guard: rng.IntN(2) == 0}
		if i < 4 {
			resp.ID = []uint64{0, 1, math.MaxUint64, 1 << 63}[i]
		}
		switch rng.IntN(4) {
		case 0:
		case 1:
			resp.Reads = []int64{}
		default:
			resp.Reads = make([]int64, 1+rng.IntN(5))
			for j := range resp.Reads {
				resp.Reads[j] = int64(rng.Uint64())
			}
			resp.Reads[0] = []int64{0, -1, math.MinInt64, math.MaxInt64, 42}[rng.IntN(5)]
		}
		if i < len(errs) {
			resp.Err = errs[i]
		} else if rng.IntN(3) == 0 {
			b := make([]byte, rng.IntN(24))
			for j := range b {
				b[j] = byte(rng.Uint32())
			}
			resp.Err = string(b)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&resp); err != nil {
			t.Fatal(err)
		}
		if got := appendResponse(nil, &resp); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("response %+v:\n got %s\nwant %s", resp, got, want.Bytes())
		}
	}
	// Every single-rune string, to cover each escape class.
	for r := rune(0); r < 0x3000; r++ {
		resp := WireResponse{Err: "x" + string(r)}
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(&resp)
		if got := appendResponse(nil, &resp); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("rune %U: got %s want %s", r, got, want.Bytes())
		}
	}
}

// warmConn returns a connection state on a store whose default keyspace
// already holds the keys of lines, with every line served once.
func warmConn(t *testing.T, batching bool, lines [][]byte) *wireConn {
	t.Helper()
	s := volatileStore(t, stm.SNOrec, 8, batching)
	c := &wireConn{store: s}
	for _, line := range lines {
		c.serveLine(line)
		if bytes.Contains(c.out, []byte(`"err"`)) || !bytes.Contains(c.out, []byte(`"ok":true`)) {
			t.Fatalf("serve %s: %s", line, c.out)
		}
	}
	return c
}

// TestServeLineZeroAlloc pins the allocation contract of the served path:
// decode, execute and encode a canonical line without allocating, with the
// batcher on and off.
func TestServeLineZeroAlloc(t *testing.T) {
	lines := canonicalLines()[:4] // read, inc, guarded transfer, write
	for _, batching := range []bool{true, false} {
		c := warmConn(t, batching, lines)
		for _, line := range lines {
			allocs := testing.AllocsPerRun(500, func() { c.serveLine(line) })
			if allocs != 0 {
				t.Errorf("batching=%v %s: %.1f allocs per line, want 0", batching, line, allocs)
			}
		}
	}
}

// TestSubmitReadsSurviveReuse checks Store.Submit's ownership contract: the
// Reads it returns are not overwritten by the next Submit of the same
// Request.
func TestSubmitReadsSurviveReuse(t *testing.T) {
	for _, batching := range []bool{true, false} {
		s := volatileStore(t, stm.SNOrec, 4, batching)
		r := &Request{Ops: []Op{{Code: OpRead, Key: 3}}}
		s.Submit(&Request{Ops: []Op{{Code: OpWrite, Key: 3, Val: 11}}})
		first := s.Submit(r)
		s.Submit(&Request{Ops: []Op{{Code: OpWrite, Key: 3, Val: 22}}})
		second := s.Submit(r)
		if len(first.Reads) != 1 || first.Reads[0] != 11 || len(second.Reads) != 1 || second.Reads[0] != 22 {
			t.Fatalf("batching=%v: reads %v then %v, want [11] then [22]", batching, first.Reads, second.Reads)
		}
	}
}
