// Package persist is the durability layer for encoder state: a
// versioned binary snapshot codec plus atomic Save/Load/WarmStart
// helpers. A snapshot captures everything a DACCE encoder accumulated —
// the discovered call graph with edge frequencies, one decode
// dictionary per epoch (the archive that keeps ids captured under old
// gTimeStamps decodable), the tail and recursion-compression sets, and
// the adaptive controller's backoff — so a restarted process re-installs
// with zero handler traps and a decode service can resolve contexts for
// programs it never ran.
//
// Wire format:
//
//	offset  size  field
//	0       8     magic "DACCESNP"
//	8       4     format version, little-endian uint32
//	12      n     payload (varint-coded sections, see marshalPayload)
//	12+n    4     CRC32 (IEEE) of bytes [0, 12+n), little-endian
//
// The payload is a flat sequence of uvarint/zigzag-varint scalars,
// length-prefixed strings and length-prefixed sections in a fixed
// order. Every length read is bounds-checked against the remaining
// input before allocation, so truncated or bit-flipped snapshots fail
// with an error — never a panic and never an absurd allocation. Marshal
// is deterministic (EncoderState's slices are already in canonical
// order), so Hash identifies an encoding by content.
package persist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"dacce/internal/core"
	"dacce/internal/graph"
	"dacce/internal/prog"
)

// Magic opens every snapshot file.
const Magic = "DACCESNP"

// Version is the current snapshot format version. Load rejects
// snapshots written by a newer format rather than misparse them.
const Version uint32 = 1

const headerSize = len(Magic) + 4 // magic + version
const trailerSize = 4             // crc32

// ErrCorrupt wraps every integrity failure (bad magic, CRC mismatch,
// truncation, malformed payload) so callers can distinguish corruption
// from I/O errors with errors.Is.
var ErrCorrupt = errors.New("persist: corrupt snapshot")

// Marshal serializes an encoder state into the versioned binary
// snapshot format. The output is deterministic for a given state.
func Marshal(st *core.EncoderState) ([]byte, error) {
	if err := st.Validate(); err != nil {
		return nil, fmt.Errorf("persist: refusing to marshal invalid state: %w", err)
	}
	return encode(st), nil
}

// encode writes st's snapshot — header, payload and CRC — without
// validating it.
func encode(st *core.EncoderState) []byte {
	b := make([]byte, 0, 1024)
	b = append(b, Magic...)
	b = binary.LittleEndian.AppendUint32(b, Version)
	b = marshalPayload(b, st)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// Unmarshal parses a binary snapshot, verifying magic, version, CRC and
// the structural validity of the decoded state. Corrupt input yields an
// error wrapping ErrCorrupt.
func Unmarshal(data []byte) (*core.EncoderState, error) {
	if len(data) < headerSize+trailerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than header+trailer", ErrCorrupt, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:len(Magic)])
	}
	ver := binary.LittleEndian.Uint32(data[len(Magic):headerSize])
	if ver != Version {
		return nil, fmt.Errorf("persist: snapshot format version %d, this build reads version %d", ver, Version)
	}
	body, tail := data[:len(data)-trailerSize], data[len(data)-trailerSize:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (computed %08x, stored %08x)", ErrCorrupt, got, want)
	}
	r := &reader{b: body[headerSize:]}
	st := unmarshalPayload(r)
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(r.b))
	}
	if err := st.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return st, nil
}

// Hash returns the content hash of a marshalled snapshot: hex SHA-256,
// truncated to 16 bytes (32 hex digits). Two snapshots hash equal iff
// their states are identical, so the hash identifies an encoding in the
// dacced tenant registry.
func Hash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16])
}

// syncDir fsyncs a directory so a rename into it is durable — without
// it a crash right after a "successful" Save can roll the directory
// entry back and lose the snapshot entirely. Swappable so tests can
// assert the sync actually runs, and a no-op on platforms that cannot
// open directories for syncing (windows).
var syncDir = func(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// Save marshals the state and writes it to path atomically and durably:
// the bytes go to a temporary file in the same directory, are synced,
// the file is renamed into place, and the parent directory is synced so
// the rename itself survives a crash. A crash mid-write never leaves a
// half-written snapshot where a loader can find it.
func Save(path string, st *core.EncoderState) error {
	data, err := Marshal(st)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("persist: creating temp snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: closing snapshot: %w", err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("persist: setting snapshot mode: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: installing snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("persist: syncing snapshot directory: %w", err)
	}
	return nil
}

// SaveEncoder exports the encoder's state and saves it to path.
func SaveEncoder(path string, d *core.DACCE) error {
	return Save(path, d.ExportState())
}

// Load reads and unmarshals a snapshot file.
func Load(path string) (*core.EncoderState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: reading snapshot: %w", err)
	}
	return Unmarshal(data)
}

// WarmStart loads a snapshot and restores a warm encoder for program p:
// the returned DACCE carries the snapshot's graph, every epoch's
// dictionary and decode index, and its controller state. Installing it
// on a machine re-patches all discovered call sites up front, so
// replaying the captured workload executes zero runtime-handler traps.
func WarmStart(path string, p *prog.Program, opt core.Options) (*core.DACCE, error) {
	st, err := Load(path)
	if err != nil {
		return nil, err
	}
	return core.Restore(p, opt, st)
}

// --- payload codec ---

// Section order of the payload. Kept in one place so marshal and
// unmarshal cannot drift.

func marshalPayload(b []byte, st *core.EncoderState) []byte {
	w := writer{b: b}
	w.u64(st.Budget)
	w.u64(uint64(st.Epoch))
	w.u64(uint64(st.Backoff))
	w.i64(int64(st.GTS))
	w.i64(int64(st.EdgesDiscovered))
	w.u64(uint64(uint32(st.Entry)))

	w.count(len(st.Funcs))
	for _, name := range st.Funcs {
		w.str(name)
	}
	w.count(len(st.Sites))
	for _, s := range st.Sites {
		w.u64(uint64(uint32(s.Caller)))
		w.b = append(w.b, s.Kind)
	}
	w.count(len(st.Roots))
	for _, fn := range st.Roots {
		w.u64(uint64(uint32(fn)))
	}
	w.count(len(st.Nodes))
	for _, fn := range st.Nodes {
		w.u64(uint64(uint32(fn)))
	}
	w.count(len(st.Edges))
	for _, e := range st.Edges {
		w.u64(uint64(uint32(e.Site)))
		w.u64(uint64(uint32(e.Target)))
		w.i64(e.Freq)
	}
	w.count(len(st.Tail))
	for _, fn := range st.Tail {
		w.u64(uint64(uint32(fn)))
	}
	w.count(len(st.Compress))
	for _, k := range st.Compress {
		w.u64(uint64(uint32(k.Site)))
		w.u64(uint64(uint32(k.Target)))
	}
	w.count(len(st.Epochs))
	for _, ep := range st.Epochs {
		w.u64(ep.MaxID)
		w.bool(ep.Overflowed)
		w.u64(ep.UnrestrictedMaxID)
		w.i64(int64(ep.Excluded))
		w.i64(int64(ep.EncodedEdges))
		w.count(len(ep.NumCC))
		for _, nc := range ep.NumCC {
			w.u64(uint64(uint32(nc.Fn)))
			w.u64(nc.NumCC)
		}
		w.count(len(ep.Codes))
		for _, c := range ep.Codes {
			w.i64(int64(c.Edge))
			w.bool(c.Encoded)
			w.u64(c.Value)
			w.bool(c.Back)
		}
	}
	return w.b
}

func unmarshalPayload(r *reader) *core.EncoderState {
	st := &core.EncoderState{}
	st.Budget = r.u64()
	st.Epoch = r.u32()
	st.Backoff = r.u32()
	st.GTS = r.intVal("gts")
	st.EdgesDiscovered = r.intVal("edgesDiscovered")
	st.Entry = prog.FuncID(r.id("entry"))

	// minBytesPer guards each count against allocation attacks: a section
	// claiming more elements than the remaining bytes could possibly hold
	// is corrupt.
	nf := r.count("funcs", 1)
	st.Funcs = make([]string, 0, nf)
	for i := 0; i < nf && r.err == nil; i++ {
		st.Funcs = append(st.Funcs, r.str())
	}
	ns := r.count("sites", 2)
	st.Sites = make([]core.StateSite, 0, ns)
	for i := 0; i < ns && r.err == nil; i++ {
		caller := prog.FuncID(r.id("site caller"))
		kind := r.u8()
		st.Sites = append(st.Sites, core.StateSite{Caller: caller, Kind: kind})
	}
	nr := r.count("roots", 1)
	st.Roots = make([]prog.FuncID, 0, nr)
	for i := 0; i < nr && r.err == nil; i++ {
		st.Roots = append(st.Roots, prog.FuncID(r.id("root")))
	}
	nn := r.count("nodes", 1)
	st.Nodes = make([]prog.FuncID, 0, nn)
	for i := 0; i < nn && r.err == nil; i++ {
		st.Nodes = append(st.Nodes, prog.FuncID(r.id("node")))
	}
	ne := r.count("edges", 3)
	st.Edges = make([]core.StateEdge, 0, ne)
	for i := 0; i < ne && r.err == nil; i++ {
		site := prog.SiteID(r.id("edge site"))
		target := prog.FuncID(r.id("edge target"))
		freq := r.i64()
		st.Edges = append(st.Edges, core.StateEdge{Site: site, Target: target, Freq: freq})
	}
	nt := r.count("tail", 1)
	st.Tail = make([]prog.FuncID, 0, nt)
	for i := 0; i < nt && r.err == nil; i++ {
		st.Tail = append(st.Tail, prog.FuncID(r.id("tail entry")))
	}
	nc := r.count("compress", 2)
	st.Compress = make([]graph.EdgeKey, 0, nc)
	for i := 0; i < nc && r.err == nil; i++ {
		site := prog.SiteID(r.id("compress site"))
		target := prog.FuncID(r.id("compress target"))
		st.Compress = append(st.Compress, graph.EdgeKey{Site: site, Target: target})
	}
	nep := r.count("epochs", 5)
	st.Epochs = make([]core.StateEpoch, 0, nep)
	for i := 0; i < nep && r.err == nil; i++ {
		ep := core.StateEpoch{}
		ep.MaxID = r.u64()
		ep.Overflowed = r.bool()
		ep.UnrestrictedMaxID = r.u64()
		ep.Excluded = r.intVal("excluded")
		ep.EncodedEdges = r.intVal("encodedEdges")
		ncc := r.count("numCC", 2)
		ep.NumCC = make([]core.StateNumCC, 0, ncc)
		for j := 0; j < ncc && r.err == nil; j++ {
			fn := prog.FuncID(r.id("numCC fn"))
			n := r.u64()
			ep.NumCC = append(ep.NumCC, core.StateNumCC{Fn: fn, NumCC: n})
		}
		ncd := r.count("codes", 3)
		ep.Codes = make([]core.StateCode, 0, ncd)
		for j := 0; j < ncd && r.err == nil; j++ {
			edge := r.intVal("code edge")
			enc := r.bool()
			val := r.u64()
			back := r.bool()
			ep.Codes = append(ep.Codes, core.StateCode{Edge: edge, Encoded: enc, Value: val, Back: back})
		}
		st.Epochs = append(st.Epochs, ep)
	}
	return st
}

// writer appends varint-coded scalars to a buffer.
type writer struct{ b []byte }

func (w *writer) u64(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *writer) i64(v int64)  { w.b = binary.AppendVarint(w.b, v) }
func (w *writer) count(n int)  { w.u64(uint64(n)) }
func (w *writer) bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}
func (w *writer) str(s string) {
	w.count(len(s))
	w.b = append(w.b, s...)
}

// reader consumes varint-coded scalars, latching the first error; all
// reads after an error return zero values, so decode loops need no
// per-field error plumbing.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) i64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.fail("truncated byte")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u32() uint32 {
	v := r.u64()
	if v > math.MaxUint32 {
		r.fail("value %d overflows uint32", v)
		return 0
	}
	return uint32(v)
}

func (r *reader) bool() bool {
	switch v := r.u8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bool byte %d", v)
		return false
	}
}

// id reads a non-negative id that must fit an int32.
func (r *reader) id(what string) int32 {
	v := r.u64()
	if v > math.MaxInt32 {
		r.fail("%s id %d overflows int32", what, v)
		return 0
	}
	return int32(v)
}

// intVal reads a zigzag varint that must fit an int.
func (r *reader) intVal(what string) int {
	v := r.i64()
	if v > math.MaxInt32 || v < math.MinInt32 {
		r.fail("%s %d out of range", what, v)
		return 0
	}
	return int(v)
}

// count reads an element count, rejecting counts that could not
// possibly fit in the remaining bytes (each element needs at least
// minBytesPer bytes), so corrupt input cannot trigger huge allocations.
func (r *reader) count(what string, minBytesPer int) int {
	v := r.u64()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.b)/minBytesPer) {
		r.fail("%s count %d exceeds remaining %d bytes", what, v, len(r.b))
		return 0
	}
	return int(v)
}

func (r *reader) str() string {
	n := r.count("string length", 1)
	if r.err != nil {
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}
