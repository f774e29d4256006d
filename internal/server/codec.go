// Wire codec: the server's one request decoder and one response encoder.
//
// The decoder parses a request line in a single pass straight into a reused
// Request; the encoder appends the response line to a reused buffer. Neither
// allocates on a well-formed line, so a served request costs the server no
// garbage. The accepted language is the one encoding/json accepted when it
// decoded lines into WireRequest (codec_test.go keeps that decoder as the
// oracle and fuzzes the two against each other):
//
//   - member names match exactly or, failing that, case-insensitively under
//     Unicode simple folding ("ID", "Key", "Key" all name a field);
//   - members with other names are skipped, whatever their value;
//   - strings take every JSON escape, lone surrogates and invalid UTF-8
//     decode to U+FFFD, and null leaves a field as it was (a top-level null
//     is an empty request);
//   - nesting is bounded at 10000 levels, as encoding/json bounds it.
//
// One rule differs on purpose: a repeated member name. The last member
// wins, and a repeated "ops" array is decoded from zero; encoding/json
// decoded a second "ops" array into the first one's elements in place.
package server

import (
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"semstm/stm"
)

// maxDepth bounds the nesting of a request line, as encoding/json does.
const maxDepth = 10000

// maxInterned bounds the keyspace names one connection's decoder keeps.
const maxInterned = 16

var (
	requestFields = []string{"id", "ops"}
	opFields      = []string{"op", "ks", "key", "val", "cmp"}
)

// requestDecoder parses request lines; one per connection. A syntax error
// stops the parse. A value of the wrong JSON type is noted and skipped, so
// that a later syntax error still takes precedence, as it did under
// encoding/json; an unknown op or comparison is noted the same way.
type requestDecoder struct {
	line    []byte
	pos     int
	depth   int
	err     error // syntax error
	typeErr error // first value of the wrong type
	semErr  error // first unknown op or comparison, in op order
	buf     []byte
	names   []string // interned keyspace names
}

// decode parses line into req, reusing req.Ops, and returns the request id.
// A syntax or type error returns id 0 and an error reading "bad request:
// ..."; an unknown op or comparison returns the id and the error ParseOpCode
// or ParseCmp gives.
func (d *requestDecoder) decode(line []byte, req *Request) (uint64, error) {
	*d = requestDecoder{line: line, buf: d.buf[:0], names: d.names}
	req.Ops = req.Ops[:0]
	var id uint64
	d.ws()
	switch d.peek() {
	case '{':
		d.request(req, &id)
	case 'n':
		d.literal("null")
	default:
		d.wrongType("request")
	}
	if d.err == nil {
		d.ws()
		if d.pos < len(d.line) {
			d.fail()
		}
	}
	switch {
	case d.err != nil:
		return 0, d.err
	case d.typeErr != nil:
		return 0, d.typeErr
	case d.semErr != nil:
		return id, d.semErr
	}
	return id, nil
}

func (d *requestDecoder) request(req *Request, id *uint64) {
	for more := d.open('{', '}'); more; more = d.next('}') {
		switch d.member(requestFields) {
		case 0:
			if v, ok := d.integer("id", false); ok {
				*id = v
			}
		case 1:
			d.ops(req)
		case -1:
			d.skip()
		default:
			return
		}
	}
}

// ops decodes the "ops" member. A repeated "ops" replaces the earlier one
// and forgets its unknown op names.
func (d *requestDecoder) ops(req *Request) {
	if c := d.peek(); c != '[' && c != 'n' {
		d.wrongType("ops")
		return
	}
	req.Ops = req.Ops[:0]
	d.semErr = nil
	if d.peek() == 'n' {
		d.literal("null")
		return
	}
	for more := d.open('[', ']'); more; more = d.next(']') {
		d.op(req)
	}
}

// op decodes one element of "ops" and appends it, noting the first unknown
// op or comparison. A null element is an op with no name.
func (d *requestDecoder) op(req *Request) {
	var (
		op            Op
		cmp           stm.Op
		opSet, cmpSet bool
		opErr, cmpErr error
	)
	switch d.peek() {
	case '{':
		for more := d.open('{', '}'); more; more = d.next('}') {
			switch d.member(opFields) {
			case 0:
				if b, ok := d.stringValue("op"); ok {
					opSet = true
					op.Code, opErr = opCodeOf(b)
				}
			case 1:
				if b, ok := d.stringValue("ks"); ok {
					op.Ks = d.intern(b)
				}
			case 2:
				if v, ok := d.integer("key", false); ok {
					op.Key = v
				}
			case 3:
				if v, ok := d.integer("val", true); ok {
					op.Val = int64(v)
				}
			case 4:
				if b, ok := d.stringValue("cmp"); ok {
					cmpSet = true
					cmp, cmpErr = cmpOf(b)
				}
			case -1:
				d.skip()
			default:
				return
			}
		}
	case 'n':
		d.literal("null")
	default:
		d.wrongType("op")
		return
	}
	if d.err != nil {
		return
	}
	if !opSet {
		_, opErr = ParseOpCode("")
	}
	if opErr == nil && op.Code == OpCmp {
		if !cmpSet {
			_, cmpErr = ParseCmp("")
		}
		op.Cmp = cmp
		opErr = cmpErr
	}
	if opErr != nil && d.semErr == nil {
		d.semErr = opErr
	}
	req.Ops = append(req.Ops, op)
}

// opCodeOf is ParseOpCode on the decoded bytes, allocating only to report
// an unknown name.
func opCodeOf(b []byte) (OpCode, error) {
	if c, ok := lookupOpCode(b); ok {
		return c, nil
	}
	return ParseOpCode(string(b))
}

// cmpOf is ParseCmp on the decoded bytes, allocating only to report an
// unknown name.
func cmpOf(b []byte) (stm.Op, error) {
	if op, ok := lookupCmp(b); ok {
		return op, nil
	}
	return ParseCmp(string(b))
}

// intern returns b as a string, reusing the connection's earlier copy of
// the same keyspace name.
func (d *requestDecoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	for _, s := range d.names {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	if len(d.names) < maxInterned {
		d.names = append(d.names, s)
	}
	return s
}

// ---- values ----

// stringValue decodes a string member. It reports false for null, which
// leaves the field as it was, and for a value of another type.
func (d *requestDecoder) stringValue(field string) ([]byte, bool) {
	switch d.peek() {
	case '"':
		return d.str()
	case 'n':
		d.literal("null")
	default:
		d.wrongType(field)
	}
	return nil, false
}

// integer decodes an integer member as uint64 bits: any uint64, or with
// signed any int64. It reports false for null, which leaves the field as it
// was, and for a value that is not an integer in range.
func (d *requestDecoder) integer(field string, signed bool) (uint64, bool) {
	if c := d.peek(); c == 'n' {
		d.literal("null")
		return 0, false
	} else if c != '-' && !isDigit(c) {
		d.wrongType(field)
		return 0, false
	}
	start := d.pos
	lit, integral := d.number()
	if d.err != nil {
		return 0, false
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	n, ok := parseMagnitude(lit)
	switch {
	case !integral || !ok, neg && (!signed || n > 1<<63), !neg && signed && n > 1<<63-1:
		d.noteType(start, field)
		return 0, false
	case neg:
		return -n, true
	}
	return n, true
}

// parseMagnitude parses a run of decimal digits, reporting overflow.
func parseMagnitude(lit []byte) (uint64, bool) {
	var n uint64
	for _, c := range lit {
		if c < '0' || c > '9' {
			return 0, false
		}
		dig := uint64(c - '0')
		if n > (1<<64-1-dig)/10 {
			return 0, false
		}
		n = n*10 + dig
	}
	return n, true
}

// wrongType skips a well-formed value that cannot decode into field.
func (d *requestDecoder) wrongType(field string) {
	start := d.pos
	if d.skip() {
		d.noteType(start, field)
	}
}

func (d *requestDecoder) noteType(start int, field string) {
	if d.typeErr != nil {
		return
	}
	kind := "number"
	switch d.line[start] {
	case '"':
		kind = "string"
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case 't', 'f':
		kind = "bool"
	}
	d.typeErr = fmt.Errorf("bad request: cannot decode %s at offset %d into %s", kind, start, field)
}

// ---- syntax ----

func (d *requestDecoder) peek() byte {
	if d.pos < len(d.line) {
		return d.line[d.pos]
	}
	return 0
}

func (d *requestDecoder) ws() {
	for d.pos < len(d.line) {
		switch d.line[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// fail records a syntax error at the current position and reports false.
func (d *requestDecoder) fail() bool {
	if d.err == nil {
		if d.pos >= len(d.line) {
			d.err = fmt.Errorf("bad request: unexpected end of input")
		} else {
			d.err = fmt.Errorf("bad request: invalid character %q at offset %d", d.line[d.pos], d.pos)
		}
	}
	return false
}

// open enters the object or array at d.pos and reports whether it has a
// first member or element.
func (d *requestDecoder) open(open, close byte) bool {
	if d.err != nil || d.peek() != open {
		return d.fail()
	}
	d.pos++
	if d.depth++; d.depth > maxDepth {
		d.err = fmt.Errorf("bad request: nesting exceeds %d levels", maxDepth)
		return false
	}
	d.ws()
	if d.peek() == close {
		d.pos++
		d.depth--
		return false
	}
	return true
}

// next steps past the separator after a member or element and reports
// whether another follows.
func (d *requestDecoder) next(close byte) bool {
	if d.err != nil {
		return false
	}
	d.ws()
	switch d.peek() {
	case ',':
		d.pos++
		d.ws()
		return true
	case close:
		d.pos++
		d.depth--
		return false
	}
	return d.fail()
}

// member reads a member name and its colon, and reports which of fields
// the name matches: -1 for none, -2 on a syntax error.
func (d *requestDecoder) member(fields []string) int {
	if d.peek() != '"' {
		d.fail()
		return -2
	}
	name, ok := d.str()
	if !ok {
		return -2
	}
	d.ws()
	if d.peek() != ':' {
		d.fail()
		return -2
	}
	d.pos++
	d.ws()
	for i, f := range fields {
		if string(name) == f {
			return i
		}
	}
	for i, f := range fields {
		if foldEqual(name, f) {
			return i
		}
	}
	return -1
}

// foldEqual reports whether name equals field under Unicode simple folding:
// encoding/json's case-insensitive field match.
func foldEqual(name []byte, field string) bool {
	j := 0
	for i := 0; i < len(name); j++ {
		if j == len(field) {
			return false
		}
		r, n := rune(name[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(name[i:])
		}
		i += n
		if foldRune(r) != foldRune(rune(field[j])) {
			return false
		}
	}
	return j == len(field)
}

// foldRune returns the smallest rune of r's simple-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

func (d *requestDecoder) literal(lit string) bool {
	for i := 0; i < len(lit); i++ {
		if d.peek() != lit[i] {
			return d.fail()
		}
		d.pos++
	}
	return true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number scans a JSON number and reports whether it has neither a fraction
// nor an exponent.
func (d *requestDecoder) number() ([]byte, bool) {
	start := d.pos
	integral := true
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		for isDigit(d.peek()) {
			d.pos++
		}
	default:
		return nil, d.fail()
	}
	if d.peek() == '.' {
		integral = false
		d.pos++
		if !d.digits() {
			return nil, false
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		integral = false
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.digits() {
			return nil, false
		}
	}
	return d.line[start:d.pos], integral
}

func (d *requestDecoder) digits() bool {
	if !isDigit(d.peek()) {
		return d.fail()
	}
	for isDigit(d.peek()) {
		d.pos++
	}
	return true
}

// str scans the string at d.pos and returns its decoded contents: the
// line's own bytes when nothing needs decoding, else d.buf, which the next
// decoded string overwrites.
func (d *requestDecoder) str() ([]byte, bool) {
	d.pos++
	start := d.pos
	escaped, high := false, false
	for d.pos < len(d.line) {
		switch c := d.line[d.pos]; {
		case c == '"':
			s := d.line[start:d.pos]
			d.pos++
			if !escaped && (!high || utf8.Valid(s)) {
				return s, true
			}
			return d.unquote(s), true
		case c == '\\':
			escaped = true
			d.pos++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				for i := 0; i < 4; i++ {
					if !isHex(d.peek()) {
						return nil, d.fail()
					}
					d.pos++
				}
			default:
				return nil, d.fail()
			}
		case c < ' ':
			return nil, d.fail()
		default:
			high = high || c >= utf8.RuneSelf
			d.pos++
		}
	}
	return nil, d.fail()
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote decodes the escapes of a scanned string into d.buf, replacing lone
// surrogates and invalid UTF-8 with U+FFFD as encoding/json does.
func (d *requestDecoder) unquote(s []byte) []byte {
	b := d.buf[:0]
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			switch e := s[i+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(s[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
						r2 = hex4(s[i+2:])
					}
					if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
						i += 6
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				b = append(b, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
	d.buf = b
	return b
}

// hex4 decodes the four hex digits str has already checked.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// skip scans past one well-formed value of any type.
func (d *requestDecoder) skip() bool {
	switch c := d.peek(); {
	case c == '"':
		_, ok := d.str()
		return ok
	case c == '{':
		for more := d.open('{', '}'); more; more = d.next('}') {
			if d.member(nil) == -2 || !d.skip() {
				return false
			}
		}
	case c == '[':
		for more := d.open('[', ']'); more; more = d.next(']') {
			if !d.skip() {
				return false
			}
		}
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		d.number()
	default:
		return d.fail()
	}
	return d.err == nil
}

// ---- encoder ----

// appendResponse appends r's response line to dst, byte for byte what
// encoding/json's Encoder writes for it.
func appendResponse(dst []byte, r *WireResponse) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, r.ID, 10)
	dst = append(dst, `,"ok":`...)
	dst = strconv.AppendBool(dst, r.OK)
	dst = append(dst, `,"guard":`...)
	dst = strconv.AppendBool(dst, r.Guard)
	if len(r.Reads) > 0 {
		dst = append(dst, `,"reads":[`...)
		for i, v := range r.Reads {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, v, 10)
		}
		dst = append(dst, ']')
	}
	if r.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = appendString(dst, r.Err)
	}
	return append(dst, '}', '\n')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped the way encoding/json
// escapes with HTML escaping on: <, > and & as \u escapes, invalid UTF-8 as
// \ufffd, and U+2028 and U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
