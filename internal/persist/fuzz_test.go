package persist

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dacce/internal/core"
	"dacce/internal/graph"
	"dacce/internal/prog"
)

// gen derives structured values from a fuzz input, so the fuzzer's byte
// mutations explore the space of valid encoder states deterministically.
type gen struct {
	b []byte
	i int
}

func (g *gen) byte() byte {
	if g.i >= len(g.b) {
		return 0
	}
	v := g.b[g.i]
	g.i++
	return v
}

func (g *gen) u64() uint64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = g.byte()
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// n returns a value in [0, max); max must be > 0.
func (g *gen) n(max int) int { return int(g.u64() % uint64(max)) }

func (g *gen) str() string {
	n := g.n(12)
	s := make([]byte, n)
	for i := range s {
		s[i] = g.byte()
	}
	return string(s)
}

// stateFromBytes builds an arbitrary but structurally valid encoder
// state from fuzz input: all ids in range, epoch chain well formed,
// every epoch's codes a prefix of the edge list.
// Everything else — names, frequencies, dictionary contents, set
// membership and ordering — is fuzzer-controlled.
func stateFromBytes(data []byte) *core.EncoderState {
	g := &gen{b: data}
	nf := 1 + g.n(16)
	st := &core.EncoderState{
		Budget:          g.u64(),
		Backoff:         uint32(g.n(8)),
		GTS:             g.n(64),
		EdgesDiscovered: g.n(1 << 16),
		Entry:           prog.FuncID(g.n(nf)),
	}
	for i := 0; i < nf; i++ {
		st.Funcs = append(st.Funcs, g.str())
	}
	ns := g.n(24)
	for i := 0; i < ns; i++ {
		st.Sites = append(st.Sites, core.StateSite{
			Caller: prog.FuncID(g.n(nf)), Kind: g.byte() % 4,
		})
	}
	st.Roots = append(st.Roots, st.Entry)
	for i, n := 0, g.n(4); i < n; i++ {
		st.Roots = append(st.Roots, prog.FuncID(g.n(nf)))
	}
	st.Nodes = append(st.Nodes, st.Entry)
	for i, n := 0, g.n(nf+1); i < n; i++ {
		st.Nodes = append(st.Nodes, prog.FuncID(g.n(nf)))
	}
	if ns > 0 {
		for i, n := 0, g.n(32); i < n; i++ {
			st.Edges = append(st.Edges, core.StateEdge{
				Site:   prog.SiteID(g.n(ns)),
				Target: prog.FuncID(g.n(nf)),
				Freq:   int64(g.u64() >> 1),
			})
		}
		for i, n := 0, g.n(6); i < n; i++ {
			st.Compress = append(st.Compress, graph.EdgeKey{
				Site: prog.SiteID(g.n(ns)), Target: prog.FuncID(g.n(nf)),
			})
		}
	}
	for i, n := 0, g.n(5); i < n; i++ {
		st.Tail = append(st.Tail, prog.FuncID(g.n(nf)))
	}
	nep := 1 + g.n(4)
	st.Epoch = uint32(nep - 1)
	for i := 0; i < nep; i++ {
		ep := core.StateEpoch{
			MaxID:             g.u64(),
			Overflowed:        g.byte()&1 == 1,
			UnrestrictedMaxID: g.u64(),
			Excluded:          g.n(1 << 12),
			EncodedEdges:      g.n(1 << 12),
		}
		for j, n := 0, g.n(nf+1); j < n; j++ {
			ep.NumCC = append(ep.NumCC, core.StateNumCC{
				Fn: prog.FuncID(g.n(nf)), NumCC: g.u64(),
			})
		}
		if len(st.Edges) > 0 {
			// An epoch codes a prefix of the edge list, in order.
			for j, n := 0, g.n(len(st.Edges)+1); j < n; j++ {
				ep.Codes = append(ep.Codes, core.StateCode{
					Edge:    j,
					Encoded: g.byte()&1 == 1,
					Value:   g.u64(),
					Back:    g.byte()&1 == 1,
				})
			}
		}
		st.Epochs = append(st.Epochs, ep)
	}
	return st
}

// FuzzSnapshotRoundTrip drives arbitrary encoder states through the
// codec: every state the generator can express must marshal, unmarshal
// to an equal state, and hash deterministically.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("persist"))
	f.Add(bytes.Repeat([]byte{0xA5, 0x00, 0xFF, 0x13}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		st := stateFromBytes(data)
		if err := st.Validate(); err != nil {
			t.Fatalf("generator produced an invalid state: %v", err)
		}
		blob, err := Marshal(st)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		blob2, err := Marshal(st)
		if err != nil || !bytes.Equal(blob, blob2) {
			t.Fatalf("marshal is not deterministic (err %v)", err)
		}
		got, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("unmarshal of own output: %v", err)
		}
		if !got.Equal(st) {
			t.Fatal("round trip changed the state")
		}
		if Hash(blob) != Hash(blob2) {
			t.Fatal("hash is not deterministic")
		}
	})
}

// FuzzSnapshotLoad throws arbitrary bytes — including truncated and
// bit-flipped valid snapshots — at Unmarshal: it must either return an
// error or a state that survives a clean round trip. It must never
// panic and never accept structurally invalid state. The committed
// corpus (testdata/fuzz/FuzzSnapshotLoad) adds gapped-epoch, an intact
// snapshot whose epoch codes skip an edge (TestGappedEpochSeed).
func FuzzSnapshotLoad(f *testing.F) {
	// Seed with a valid snapshot and targeted corruptions of it, so the
	// fuzzer starts at the format boundary instead of random noise.
	valid, err := Marshal(stateFromBytes([]byte("seed state")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	trunc := bytes.Clone(valid)
	trunc[len(Magic)+6] ^= 0x80
	f.Add(trunc)
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Unmarshal(data)
		if err != nil {
			return
		}
		if verr := st.Validate(); verr != nil {
			t.Fatalf("Unmarshal accepted an invalid state: %v", verr)
		}
		blob, err := Marshal(st)
		if err != nil {
			t.Fatalf("re-marshal of accepted state: %v", err)
		}
		got, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("re-unmarshal: %v", err)
		}
		if !got.Equal(st) {
			t.Fatal("accepted state does not round-trip")
		}
	})
}
