package server

// The /v1/decode codec. Requests are parsed by a strict single-pass
// parser straight into per-request slabs; a capture in json.Marshal's
// exact form takes a one-pass path that reads fixed fragments instead
// of keys, and anything else falls back to the general parser.
// Responses are appended into a reused byte slice from per-tenant
// pre-escaped fragments, so a warm batch costs a constant number of
// allocations whatever its size, and each result copies the frames it
// shares with the result before it from that result's bytes.
// The wire contract is DecodeRequest/DecodeResponse: the parser
// accepts a subset of what encoding/json accepts and yields the
// identical DecodeRequest wherever it accepts, and the writer's bytes
// equal json.NewEncoder(w).Encode of the DecodeResponse.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
	"unsafe"

	"dacce/internal/ccdag"
	"dacce/internal/core"
	"dacce/internal/prog"
)

// maxNesting is encoding/json's nesting limit: the parser rejects a
// body nested deeper, so its recursion depth is bounded however large
// the body is.
const maxNesting = 10000

// errNullCapture is the result of a null element of the captures array.
var errNullCapture = errors.New("null capture")

// maxPooledBytes bounds the footprint of a wireBuf returned to the
// pool, so one huge batch does not pin its buffers for later requests.
const maxPooledBytes = 8 << 20

// wireBuf is one /v1/decode request's reusable state: the body, the
// slabs the parsed captures live in, the memo-key and decode-cursor
// scratch, the batch's decoded nodes, the render cursor and the
// response bytes. Everything the parsed DecodeRequest points at is
// owned here and valid until release.
type wireBuf struct {
	body   bytes.Buffer
	caps   []core.Capture  // top-level captures, in request order, nulls skipped
	slots  []capSlot       // one per captures element
	ptrs   []*core.Capture // DecodeRequest.Captures
	cc     []core.CCEntry  // ccStacks of the top-level captures
	key    []byte          // memo key of the capture being decoded
	cur    core.NodeCursor // the batch's decode cursor
	nodes  []*ccdag.Node   // the batch's decoded nodes, nil where a capture failed
	errs   []error         // the batch's decode errors, parallel to nodes
	render renderCursor    // the batch's last rendered context
	out    []byte          // response body
}

// capSlot places one element of the captures array in the slabs:
// capture index (-1 for null) and CC range (ccLo -1 when CC is absent
// or null). Slabs move while they grow, so pointers are taken only once
// the array is complete.
type capSlot struct {
	cap, ccLo, ccHi int
}

var wirePool = sync.Pool{New: func() any { return new(wireBuf) }}

// reset empties the buffer for the next request, dropping the spawn
// chains the capture slab points at and every node the cursors and the
// node list hold, so a pooled buffer pins nothing a retirement should
// free.
func (wb *wireBuf) reset() {
	clear(wb.caps)
	clear(wb.ptrs)
	wb.cur.Reset()
	wb.clearBatch()
	wb.body.Reset()
	wb.caps, wb.slots, wb.ptrs = wb.caps[:0], wb.slots[:0], wb.ptrs[:0]
	wb.cc, wb.key, wb.out = wb.cc[:0], wb.key[:0], wb.out[:0]
}

// clearBatch empties the node list and the render cursor, clearing
// their backing arrays.
func (wb *wireBuf) clearBatch() {
	clear(wb.nodes)
	clear(wb.errs)
	wb.nodes, wb.errs = wb.nodes[:0], wb.errs[:0]
	wb.render.reset()
}

// footprint returns the bytes wb's buffers hold.
func (wb *wireBuf) footprint() int {
	return wb.body.Cap() + cap(wb.key) + cap(wb.out) + wb.cur.Bytes() + wb.render.bytes() +
		cap(wb.caps)*int(unsafe.Sizeof(core.Capture{})) +
		cap(wb.slots)*int(unsafe.Sizeof(capSlot{})) +
		cap(wb.ptrs)*int(unsafe.Sizeof(&core.Capture{})) +
		cap(wb.cc)*int(unsafe.Sizeof(core.CCEntry{})) +
		cap(wb.nodes)*int(unsafe.Sizeof(&ccdag.Node{})) +
		cap(wb.errs)*int(unsafe.Sizeof(error(nil)))
}

// release returns the buffer to the pool unless its footprint exceeds
// maxPooledBytes.
func (wb *wireBuf) release() {
	if wb.footprint() > maxPooledBytes {
		return
	}
	wb.reset()
	wirePool.Put(wb)
}

// parseRequest parses wb.body into req. The grammar is JSON with these
// restrictions: the body is exactly one value, with nothing but
// whitespace after it; keys are plain ASCII without escapes, matched to
// field names exactly or ASCII-case-insensitively; a field appears at
// most once per object; integer fields take integers in range (no
// fraction, no exponent, no sign on unsigned fields); nesting stops at
// maxNesting. Unknown keys are validated and skipped, and null leaves a
// field zero. Captures other than spawn chains land in wb's slabs.
func (wb *wireBuf) parseRequest(req *DecodeRequest) error {
	p := parser{b: wb.body.Bytes(), wb: wb}
	*req = DecodeRequest{}
	if err := p.request(req); err != nil {
		return err
	}
	if p.ws(); p.i < len(p.b) {
		return p.fail("trailing data after the request object")
	}
	return nil
}

// parser is the request parser's cursor over one body.
type parser struct {
	b     []byte
	i     int
	depth int
	wb    *wireBuf
}

func (p *parser) fail(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", p.i, fmt.Sprintf(format, args...))
}

func (p *parser) ws() {
	for ; p.i < len(p.b) && p.b[p.i] <= ' '; p.i++ {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (p *parser) peek() byte {
	if p.ws(); p.i < len(p.b) {
		return p.b[p.i]
	}
	return 0
}

// literal consumes lit, which the caller has peeked the first byte of.
func (p *parser) literal(lit string) error {
	if len(p.b)-p.i < len(lit) || string(p.b[p.i:p.i+len(lit)]) != lit {
		return p.fail("invalid literal, want %s", lit)
	}
	p.i += len(lit)
	return nil
}

// null consumes a null literal if one comes next.
func (p *parser) null() (bool, error) {
	if p.peek() != 'n' {
		return false, nil
	}
	return true, p.literal("null")
}

// open consumes a container's opening byte, which must come next.
func (p *parser) open(c byte) error {
	if p.peek() != c {
		return p.fail("expected %q", c)
	}
	p.i++
	if p.depth++; p.depth > maxNesting {
		return p.fail("nesting deeper than %d", maxNesting)
	}
	return nil
}

// next moves to a container's next element: it consumes the comma
// before every element but the first (n is the element's index), or
// the closing byte end and reports false.
func (p *parser) next(end byte, n int) (bool, error) {
	c := p.peek()
	if c == end {
		p.i++
		p.depth--
		return false, nil
	}
	if n > 0 {
		if c != ',' {
			return false, p.fail("expected ',' or %q", end)
		}
		p.i++
	}
	return true, nil
}

// key reads an object key and its colon. Keys must be plain ASCII with
// no escapes: encoding/json unescapes keys and folds non-ASCII ones by
// Unicode rules (ſpawn matches Spawn), which this parser does not copy.
func (p *parser) key() ([]byte, error) {
	if p.peek() != '"' {
		return nil, p.fail("expected an object key")
	}
	b, start := p.b, p.i+1
	i := start
	for ; i < len(b) && b[i] != '"'; i++ {
		if c := b[i]; c < 0x20 || c == '\\' || c >= utf8.RuneSelf {
			p.i = i
			return nil, p.fail("key must be plain ASCII")
		}
	}
	if p.i = i + 1; i == len(b) {
		return nil, p.fail("unterminated key")
	}
	if p.peek() != ':' {
		return nil, p.fail("expected ':'")
	}
	p.i++
	return b[start:i], nil
}

// exactKey consumes `"name":` if it comes next.
func (p *parser) exactKey(name string) bool {
	b := p.b[p.i:]
	n := len(name)
	if len(b) < n+3 || b[0] != '"' || string(b[1:1+n]) != name || b[1+n] != '"' || b[2+n] != ':' {
		return false
	}
	p.i += n + 3
	return true
}

// keyIs reports whether an ASCII key names field: exactly or
// ASCII-case-insensitively, encoding/json's rule for such keys.
func keyIs(key []byte, field string) bool {
	if len(key) != len(field) {
		return false
	}
	for i := range len(key) {
		a, b := key[i], field[i]
		if 'a' <= a && a <= 'z' {
			a -= 'a' - 'A'
		}
		if 'a' <= b && b <= 'z' {
			b -= 'a' - 'A'
		}
		if a != b {
			return false
		}
	}
	return true
}

// scanString validates and consumes a string and reports whether it
// holds an escape or a non-ASCII byte.
func (p *parser) scanString() (special bool, err error) {
	if p.peek() != '"' {
		return false, p.fail("expected a string")
	}
	for p.i++; ; p.i++ {
		if p.i >= len(p.b) {
			return false, p.fail("unterminated string")
		}
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return special, nil
		case c < 0x20:
			return false, p.fail("control character in string")
		case c >= utf8.RuneSelf:
			special = true
		case c == '\\':
			special = true
			if p.i++; p.i >= len(p.b) {
				continue
			}
			switch p.b[p.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for range 4 {
					if p.i++; p.i >= len(p.b) || !isHex(p.b[p.i]) {
						return false, p.fail("invalid \\u escape")
					}
				}
			default:
				return false, p.fail("invalid escape")
			}
		}
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// str reads a string value. A string holding escapes or invalid UTF-8
// is rare on this wire; encoding/json unquotes it, so its replacement
// and surrogate rules apply unchanged.
func (p *parser) str() (string, error) {
	start := p.i
	special, err := p.scanString()
	if err != nil {
		return "", err
	}
	raw := p.b[start:p.i]
	if !special {
		return string(raw[1 : len(raw)-1]), nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return "", fmt.Errorf("offset %d: %v", start, err)
	}
	return s, nil
}

// number reads an integer: an optional minus sign, then digits with no
// leading zero. A fraction or an exponent is an error, as it is for
// encoding/json's integer fields. Magnitudes past max are errors too.
func (p *parser) number(max uint64) (v uint64, neg bool, err error) {
	p.ws()
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	start := i
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if v > (max-d)/10 {
			p.i = i
			return 0, false, p.fail("integer out of range")
		}
		if v = v*10 + d; v == 0 {
			i++
			break // a leading zero ends the integer
		}
	}
	p.i = i
	if i == start {
		return 0, false, p.fail("expected an integer")
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, false, p.fail("integer field takes no fraction or exponent")
	}
	return v, neg, nil
}

// uint reads an unsigned integer no larger than max.
func (p *parser) uint(max uint64) (uint64, error) {
	v, neg, err := p.number(max)
	if err == nil && neg {
		err = p.fail("negative value for an unsigned field")
	}
	return v, err
}

// int32 reads a signed 32-bit integer (FuncID, SiteID).
func (p *parser) int32() (int32, error) {
	v, neg, err := p.number(1 << 31)
	switch {
	case err != nil:
		return 0, err
	case neg:
		return int32(-int64(v)), nil
	case v == 1<<31:
		return 0, p.fail("integer out of range")
	}
	return int32(v), nil
}

func (p *parser) bool() (bool, error) {
	switch p.peek() {
	case 't':
		return true, p.literal("true")
	case 'f':
		return false, p.literal("false")
	}
	return false, p.fail("expected a boolean")
}

// skip validates and consumes any JSON value.
func (p *parser) skip() error {
	switch c := p.peek(); {
	case c == '{' || c == '[':
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		if err := p.open(c); err != nil {
			return err
		}
		for n := 0; ; n++ {
			more, err := p.next(end, n)
			if err != nil || !more {
				return err
			}
			if c == '{' {
				if _, err := p.scanString(); err != nil {
					return err
				}
				if p.peek() != ':' {
					return p.fail("expected ':'")
				}
				p.i++
			}
			if err := p.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := p.scanString()
		return err
	case c == 't':
		return p.literal("true")
	case c == 'f':
		return p.literal("false")
	case c == 'n':
		return p.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return p.skipNumber()
	}
	return p.fail("expected a value")
}

// skipNumber consumes a JSON number of any form.
func (p *parser) skipNumber() error {
	digits := func() int {
		n := 0
		for ; p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9'; p.i++ {
			n++
		}
		return n
	}
	if p.b[p.i] == '-' {
		p.i++
	}
	switch {
	case p.i < len(p.b) && p.b[p.i] == '0':
		p.i++
	case digits() == 0:
		return p.fail("invalid number")
	}
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if digits() == 0 {
			return p.fail("invalid number")
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if digits() == 0 {
			return p.fail("invalid number")
		}
	}
	return nil
}

// object is the state of one JSON object being parsed: its member count
// and the known fields it has set.
type object struct {
	n    int
	seen uint
}

// Field names by wire object; the parser matches keys against them.
var (
	requestFields = []string{"tenant", "captures"}
	captureFields = []string{"Epoch", "ID", "Fn", "Root", "CC", "Spawn"}
	ccEntryFields = []string{"ID", "Site", "Target", "Count", "Rec"}
)

// field moves to the object's next member whose key names one of
// fields and returns that field's name, or "" once the object closes.
// Members with unknown keys are validated and skipped; so are members
// whose value is null, which leaves the field zero. A field may appear
// once: encoding/json would let the last one win, or merge the two.
func (p *parser) field(obj *object, fields []string) (string, error) {
	for {
		more, err := p.next('}', obj.n)
		if err != nil || !more {
			return "", err
		}
		// Marshaled bodies carry the fields in declaration order: try the
		// next one's exact key before scanning.
		f := obj.n
		obj.n++
		if f >= len(fields) || !p.exactKey(fields[f]) {
			k, err := p.key()
			if err != nil {
				return "", err
			}
			if f = slices.IndexFunc(fields, func(name string) bool { return keyIs(k, name) }); f < 0 {
				if err := p.skip(); err != nil {
					return "", err
				}
				continue
			}
		}
		if obj.seen&(1<<f) != 0 {
			return "", p.fail("duplicate key %q", fields[f])
		}
		obj.seen |= 1 << f
		if isNull, err := p.null(); err != nil || !isNull {
			return fields[f], err
		}
	}
}

func (p *parser) request(req *DecodeRequest) error {
	if isNull, err := p.null(); isNull || err != nil {
		return err
	}
	if err := p.open('{'); err != nil {
		return err
	}
	var obj object
	for {
		f, err := p.field(&obj, requestFields)
		switch f {
		case "":
			return err
		case "tenant":
			req.Tenant, err = p.str()
		case "captures":
			req.Captures, err = p.captures()
		}
		if err != nil {
			return err
		}
	}
}

// captures parses the captures array into wb's slabs and returns the
// DecodeRequest.Captures slice pointing into them.
func (p *parser) captures() ([]*core.Capture, error) {
	wb := p.wb
	if err := p.open('['); err != nil {
		return nil, err
	}
	for n := 0; ; n++ {
		more, err := p.next(']', n)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		isNull, err := p.null()
		if err != nil {
			return nil, err
		}
		slot := capSlot{cap: -1, ccLo: -1}
		if !isNull && !p.marshaledCapture(&slot) {
			wb.caps = append(wb.caps, core.Capture{})
			slot.cap = len(wb.caps) - 1
			if err := p.capture(&wb.caps[slot.cap], &slot); err != nil {
				return nil, err
			}
		}
		wb.slots = append(wb.slots, slot)
	}
	caps := wb.ptrs[:0]
	if caps == nil {
		caps = []*core.Capture{}
	}
	for _, s := range wb.slots {
		if s.cap < 0 {
			caps = append(caps, nil)
			continue
		}
		c := &wb.caps[s.cap]
		switch {
		case s.ccLo < 0:
		case s.ccLo == s.ccHi:
			c.CC = []core.CCEntry{}
		default:
			c.CC = wb.cc[s.ccLo:s.ccHi:s.ccHi]
		}
		caps = append(caps, c)
	}
	wb.ptrs = caps
	return caps, nil
}

// marshaledCapture is the one-pass path for a top-level capture whose
// bytes at p.i are exactly what json.Marshal writes for a spawn-free
// core.Capture, the form every client in this repository sends:
//
//	{"Epoch":N,"ID":N,"Fn":N,"Root":N,"CC":null|[],"Spawn":null}
//	{"Epoch":N,…,"CC":[{"ID":N,"Site":N,"Target":N,"Count":N,"Rec":true|false},…],"Spawn":null}
//
// with no whitespace, no leading zero, no -0 and every value in range.
// It compares each fixed fragment in one step and appends the capture
// and its ccStack to the slabs. At the first byte that differs it drops
// what it appended, leaves p.i at the capture's first byte and reports
// false, and the general parser reads the capture from there: so every
// other form, every spawn chain and every error behaves as if this path
// did not exist, and no capture is read more than twice. Every input it
// accepts, the general parser accepts with the same result and stop
// offset (FuzzCaptureFastPath).
func (p *parser) marshaledCapture(slot *capSlot) bool {
	wb, b := p.wb, p.b
	var c core.Capture
	var v uint64
	var s int32
	v, i := marshaledUint(b, fragment(b, p.i, `{"Epoch":`), 1<<32-1)
	c.Epoch = uint32(v)
	c.ID, i = marshaledUint(b, fragment(b, i, `,"ID":`), 1<<64-1)
	s, i = marshaledInt32(b, fragment(b, i, `,"Fn":`))
	c.Fn = prog.FuncID(s)
	s, i = marshaledInt32(b, fragment(b, i, `,"Root":`))
	c.Root = prog.FuncID(s)
	ccLo, cc := len(wb.cc), wb.cc
	switch i = fragment(b, i, `,"CC":`); {
	case i < 0:
	case fragment(b, i, `null`) >= 0:
		i += len(`null`)
		ccLo = -1
	case fragment(b, i, `[]`) >= 0:
		i += len(`[]`)
	default:
		for i = fragment(b, i, `[`); i >= 0; i++ {
			var e core.CCEntry
			e.ID, i = marshaledUint(b, fragment(b, i, `{"ID":`), 1<<64-1)
			s, i = marshaledInt32(b, fragment(b, i, `,"Site":`))
			e.Site = prog.SiteID(s)
			s, i = marshaledInt32(b, fragment(b, i, `,"Target":`))
			e.Target = prog.FuncID(s)
			v, i = marshaledUint(b, fragment(b, i, `,"Count":`), 1<<32-1)
			e.Count = uint32(v)
			if j := fragment(b, i, `,"Rec":true}`); j >= 0 {
				e.Rec, i = true, j
			} else {
				i = fragment(b, i, `,"Rec":false}`)
			}
			if i < 0 || i == len(b) {
				i = -1
				break
			}
			cc = append(cc, e)
			// A comma is stepped over by the loop's i++.
			if b[i] != ',' {
				i = fragment(b, i, `]`)
				break
			}
		}
	}
	if i = fragment(b, i, `,"Spawn":null}`); i < 0 {
		wb.cc = cc[:len(wb.cc)]
		return false
	}
	wb.caps = append(wb.caps, c)
	wb.cc = cc
	slot.cap = len(wb.caps) - 1
	if ccLo >= 0 {
		slot.ccLo, slot.ccHi = ccLo, len(cc)
	}
	p.i = i
	return true
}

// fragment returns the offset just past frag if b holds it at offset i,
// else -1. An offset of -1 stays -1, so the one-pass path chains reads
// and checks for failure once.
func fragment(b []byte, i int, frag string) int {
	if i < 0 || len(b)-i < len(frag) || string(b[i:i+len(frag)]) != frag {
		return -1
	}
	return i + len(frag)
}

// marshaledUint reads an unsigned integer at offset i in json.Marshal's
// form (digits, no sign, no leading zero) no larger than max, and
// returns it with the offset after it, or -1 if there is none. Only a
// 20th digit can overflow uint64, so only it pays for the check.
func marshaledUint(b []byte, i int, max uint64) (uint64, int) {
	if i < 0 {
		return 0, -1
	}
	var v uint64
	start := i
	for ; i < len(b); i++ {
		d := uint64(b[i]) - '0'
		if d > 9 {
			break
		}
		if i-start >= 19 && v > (1<<64-1-d)/10 {
			return 0, -1
		}
		v = v*10 + d
	}
	if n := i - start; n == 0 || n > 1 && b[start] == '0' || v > max {
		return 0, -1
	}
	return v, i
}

// marshaledInt32 reads a signed 32-bit integer (FuncID, SiteID) in
// json.Marshal's form: -0, which json.Marshal never writes, is refused.
func marshaledInt32(b []byte, i int) (int32, int) {
	if i < 0 || i == len(b) || b[i] != '-' {
		v, j := marshaledUint(b, i, 1<<31-1)
		return int32(v), j
	}
	v, j := marshaledUint(b, i+1, 1<<31)
	if v == 0 {
		return 0, -1
	}
	return int32(-int64(v)), j
}

// capture parses one capture object into c. A top-level capture (slot
// non-nil) appends its ccStack to the CC slab and records the range in
// slot; a spawn capture allocates its own.
func (p *parser) capture(c *core.Capture, slot *capSlot) error {
	if err := p.open('{'); err != nil {
		return err
	}
	var obj object
	for {
		f, err := p.field(&obj, captureFields)
		switch f {
		case "":
			return err
		case "Epoch":
			var v uint64
			v, err = p.uint(1<<32 - 1)
			c.Epoch = uint32(v)
		case "ID":
			c.ID, err = p.uint(1<<64 - 1)
		case "Fn":
			var v int32
			v, err = p.int32()
			c.Fn = prog.FuncID(v)
		case "Root":
			var v int32
			v, err = p.int32()
			c.Root = prog.FuncID(v)
		case "CC":
			if slot == nil {
				c.CC, err = p.ccStack([]core.CCEntry{})
			} else {
				slot.ccLo = len(p.wb.cc)
				p.wb.cc, err = p.ccStack(p.wb.cc)
				slot.ccHi = len(p.wb.cc)
			}
		case "Spawn":
			c.Spawn = new(core.Capture)
			err = p.capture(c.Spawn, nil)
		}
		if err != nil {
			return err
		}
	}
}

// ccStack appends the entries of a ccStack array to dst. A null entry
// is a zero entry, as encoding/json decodes null into a struct.
func (p *parser) ccStack(dst []core.CCEntry) ([]core.CCEntry, error) {
	if err := p.open('['); err != nil {
		return dst, err
	}
	for n := 0; ; n++ {
		more, err := p.next(']', n)
		if err != nil || !more {
			return dst, err
		}
		dst = append(dst, core.CCEntry{})
		if isNull, err := p.null(); err != nil {
			return dst, err
		} else if isNull {
			continue
		}
		if err := p.ccEntry(&dst[len(dst)-1]); err != nil {
			return dst, err
		}
	}
}

func (p *parser) ccEntry(e *core.CCEntry) error {
	if err := p.open('{'); err != nil {
		return err
	}
	var obj object
	for {
		f, err := p.field(&obj, ccEntryFields)
		switch f {
		case "":
			return err
		case "ID":
			e.ID, err = p.uint(1<<64 - 1)
		case "Site":
			var v int32
			v, err = p.int32()
			e.Site = prog.SiteID(v)
		case "Target":
			var v int32
			v, err = p.int32()
			e.Target = prog.FuncID(v)
		case "Count":
			var v uint64
			v, err = p.uint(1<<32 - 1)
			e.Count = uint32(v)
		case "Rec":
			e.Rec, err = p.bool()
		}
		if err != nil {
			return err
		}
	}
}

// --- response writer ---

// wireNames is a tenant's pre-encoded response fragments, built once at
// Register: the response head up to the results array, and two slabs a
// frame object is copied from, so writing a frame formats nothing.
type wireNames struct {
	head  []byte
	sites slab // SiteID+1 → `{"site":N`; fragment 0 is prog.NoSite's
	funcs slab // FuncID → `,"fn":N,"name":"…"}`
}

// slab is a run of byte fragments stored back to back in one slice:
// fragment k is b[off[k]:off[k+1]].
type slab struct {
	b   []byte
	off []int
}

func (s *slab) at(k int) []byte { return s.b[s.off[k]:s.off[k+1]] }

// newWireNames escapes the tenant's name, hash and function names with
// appendJSONString, the escaping json.Encoder applies to the same
// strings. Each slab is sized for its fragments up front; only names
// that need escaping can grow it.
func newWireNames(tenant, hash string, p *prog.Program) wireNames {
	var w wireNames
	w.head = appendJSONString([]byte(`{"tenant":`), tenant)
	w.head = appendJSONString(append(w.head, `,"hash":`...), hash)
	w.head = append(w.head, `,"results":[`...)

	// No site number, NoSite's -1 included, is longer than -ns.
	ns := len(p.Sites)
	w.sites = slab{
		b:   make([]byte, 0, (ns+1)*(len(`{"site":`)+len(strconv.Itoa(-ns)))),
		off: make([]int, 1, ns+2),
	}
	for s := int(prog.NoSite); s < ns; s++ {
		w.sites.b = strconv.AppendInt(append(w.sites.b, `{"site":`...), int64(s), 10)
		w.sites.off = append(w.sites.off, len(w.sites.b))
	}

	nf, names := len(p.Funcs), 0
	for _, f := range p.Funcs {
		names += len(f.Name)
	}
	w.funcs = slab{
		b:   make([]byte, 0, names+nf*(len(`,"fn":,"name":""}`)+len(strconv.Itoa(nf)))),
		off: make([]int, 1, nf+1),
	}
	for i, f := range p.Funcs {
		b := strconv.AppendInt(append(w.funcs.b, `,"fn":`...), int64(i), 10)
		w.funcs.b = append(appendJSONString(append(b, `,"name":`...), f.Name), '}')
		w.funcs.off = append(w.funcs.off, len(w.funcs.b))
	}
	return w
}

// renderCursor writes a batch's decoded contexts as DecodeResult
// objects into one response, copying the root prefix each context
// shares with the last one it rendered from that context's bytes
// earlier in the response, so only the frames past the shared prefix
// are rendered from the slabs. Nodes are immutable, so a shared
// ancestor pointer means equal frames; the shared prefix is found by
// walking the new context up from its leaf until it meets the last
// one's path, never by walking the last one's chain. A context whose
// nodes were re-interned after a collection shares no pointer with one
// rendered before it and is rendered in full. The zero value is empty;
// it is valid for one response buffer until reset.
type renderCursor struct {
	path []*ccdag.Node // the last rendered context, root first
	ends []int         // ends[i]: end of path[i]'s frame, relative to base
	base int           // offset in the response of path[0]'s frame
}

// reset empties the cursor and clears every node its backing array
// holds, past the path's length too.
func (rc *renderCursor) reset() {
	clear(rc.path[:cap(rc.path)])
	rc.path, rc.ends, rc.base = rc.path[:0], rc.ends[:0], 0
}

// bytes returns the cursor's buffer footprint.
func (rc *renderCursor) bytes() int {
	return cap(rc.path)*int(unsafe.Sizeof(&ccdag.Node{})) + cap(rc.ends)*int(unsafe.Sizeof(0))
}

// appendResult appends n's DecodeResult object to out, the response
// buffer every earlier call since reset appended to, and makes n the
// cursor's last rendered context. An empty context (nil) has no frames,
// which omitempty drops; it leaves the cursor as it was.
func (rc *renderCursor) appendResult(out []byte, w *wireNames, n *ccdag.Node) []byte {
	if n == nil {
		return append(out, "{}"...)
	}
	d, last := n.Depth(), len(rc.path)
	if d > last {
		rc.path = slices.Grow(rc.path, d-last)
		rc.ends = slices.Grow(rc.ends, d-last)
	}
	path, ends := rc.path[:d], rc.ends[:d]
	// k is the number of root frames n shares with the last context.
	k := 0
	for a := n; a != nil; a = a.Pred() {
		i := a.Depth() - 1
		if i < last && path[i] == a {
			k = i + 1
			break
		}
		path[i] = a
	}
	out = append(out, `{"frames":[`...)
	base := len(out)
	if k > 0 {
		out = append(out, out[rc.base:rc.base+ends[k-1]]...)
	}
	for i := k; i < d; i++ {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, w.sites.at(int(path[i].Site())+1)...)
		out = append(out, w.funcs.at(int(path[i].Fn()))...)
		ends[i] = len(out) - base
	}
	rc.path, rc.ends, rc.base = path, ends, base
	return append(out, "]}"...)
}

// appendErrorObject renders {"error":msg}, the shape of a failed
// DecodeResult and of every error response.
func appendErrorObject(dst []byte, msg string) []byte {
	return append(appendJSONString(append(dst, `{"error":`...), msg), '}')
}

// appendJSONString appends s as a JSON string exactly as json.Encoder
// writes it with its default HTML escaping: <, > and & as \u00XX,
// control characters as short or \u00XX escapes, invalid UTF-8 as
// \ufffd, and U+2028/U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
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
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// --- memo keys ---

// appendMemoKey appends a spawn-free capture's exact decode input — id,
// fn, root, then each ccStack entry's ID, Site, Target, Count and Rec —
// at fixed width, so equal keys mean equal inputs.
func appendMemoKey(dst []byte, c *core.Capture) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, c.ID)
	dst = le.AppendUint32(dst, uint32(c.Fn))
	dst = le.AppendUint32(dst, uint32(c.Root))
	for _, e := range c.CC {
		dst = le.AppendUint64(dst, e.ID)
		dst = le.AppendUint32(dst, uint32(e.Site))
		dst = le.AppendUint32(dst, uint32(e.Target))
		dst = le.AppendUint32(dst, e.Count)
		rec := byte(0)
		if e.Rec {
			rec = 1
		}
		dst = append(dst, rec)
	}
	return dst
}
