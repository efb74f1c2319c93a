package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"dacce/internal/blenc"
	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/workload"
)

// workloadState runs the named workload profile cold for calls calls,
// sampling every 16, and returns its program and exported state.
func workloadState(tb testing.TB, name string, calls int64) (*prog.Program, *EncoderState) {
	tb.Helper()
	pr, ok := workload.ByName(name)
	if !ok {
		tb.Fatalf("no workload profile %q", name)
	}
	pr.TotalCalls = calls
	w, err := workload.Build(pr)
	if err != nil {
		tb.Fatal(err)
	}
	d := New(w.P, Options{})
	if _, err := w.NewMachine(d, machine.Config{SampleEvery: 16, DropSamples: true}).Run(); err != nil {
		tb.Fatal(err)
	}
	return w.P, d.ExportState()
}

// fullIndexes builds every epoch's index of st from scratch, over a
// graph of its own: epoch i over the edges its dictionary covers and,
// with listAll, the last epoch over every edge.
func fullIndexes(p *prog.Program, st *EncoderState, listAll bool) []*decodeIndex {
	g := st.rebuildGraph(p)
	dicts := st.assignments(g)
	idx := make([]*decodeIndex, len(dicts))
	for i, asn := range dicts {
		edges := g.Edges[:len(asn.Codes)]
		if listAll && i == len(dicts)-1 {
			edges = g.Edges
		}
		idx[i] = newDecodeIndex(g, asn, edges)
	}
	return idx
}

// indexDiff describes the first difference between two indexes of one
// epoch built over different graphs, or returns "". Entries compare by
// site, caller, target, code and ncc, since their edges are different
// objects; the dictionaries compare by content.
func indexDiff(got, want *decodeIndex) string {
	ga, wa := got.asn, want.asn
	if ga.MaxID != wa.MaxID || !slices.Equal(ga.Codes, wa.Codes) || !slices.Equal(ga.NumCC, wa.NumCC) {
		return "dictionaries differ"
	}
	if len(got.in) != len(want.in) {
		return fmt.Sprintf("%d functions have in-edges, want %d", len(got.in), len(want.in))
	}
	for fn, wl := range want.in {
		gl := got.in[fn]
		if len(gl) != len(wl) {
			return fmt.Sprintf("f%d lists %d in-edges, want %d", fn, len(gl), len(wl))
		}
		for i, w := range wl {
			g := gl[i]
			if g.e.Site != w.e.Site || g.e.Caller != w.e.Caller || g.e.Target != w.e.Target || g.code != w.code || g.ncc != w.ncc {
				return fmt.Sprintf("f%d entry %d is s%d f%d→f%d [%d,+%d), want s%d f%d→f%d [%d,+%d)", fn, i,
					g.e.Site, g.e.Caller, g.e.Target, g.code, g.ncc, w.e.Site, w.e.Caller, w.e.Target, w.code, w.ncc)
			}
		}
	}
	return ""
}

// checkIndexes fails tb for every epoch whose loaded index differs from
// the from-scratch build.
func checkIndexes(tb testing.TB, path string, got, want []*decodeIndex) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d epochs, want %d", path, len(got), len(want))
	}
	for epoch := range want {
		if diff := indexDiff(got[epoch], want[epoch]); diff != "" {
			tb.Errorf("%s epoch %d: %s", path, epoch, diff)
		}
	}
}

// TestLoadPathIndexesMatchFullBuild: NewDecoder and Restore build the
// first epoch's index from scratch and derive every later one from its
// predecessor, rebuilding only the lists whose codes or callers' numCC
// changed. Every derived index must equal newDecodeIndex over the same
// edges: the edges its dictionary covers, and for Restore's current
// epoch every restored edge. The derivation must also share lists, or
// it is a full rebuild under another name.
func TestLoadPathIndexesMatchFullBuild(t *testing.T) {
	calls := int64(300_000)
	if testing.Short() {
		calls = 100_000
	}
	for _, name := range []string{"483.xalancbmk", "445.gobmk", "400.perlbench"} {
		t.Run(name, func(t *testing.T) {
			p, st := workloadState(t, name, calls)
			if len(st.Epochs) < 10 {
				t.Fatalf("run made %d epochs; the check needs many", len(st.Epochs))
			}
			dec, err := st.NewDecoder()
			if err != nil {
				t.Fatal(err)
			}
			checkIndexes(t, "NewDecoder", dec.idx, fullIndexes(p, st, false))
			r, err := Restore(p, Options{}, st)
			if err != nil {
				t.Fatal(err)
			}
			checkIndexes(t, "Restore", r.cur().idx, fullIndexes(p, st, true))

			shared, lists := 0, 0
			for epoch := 1; epoch < len(dec.idx); epoch++ {
				for fn, list := range dec.idx[epoch].in {
					lists++
					if prev := dec.idx[epoch-1].in[fn]; len(prev) > 0 && &prev[0] == &list[0] {
						shared++
					}
				}
			}
			if shared == 0 {
				t.Errorf("no epoch shares an in-edge list with its predecessor (%d lists)", lists)
			}
		})
	}
}

// TestValidateAllocatesNothing: Validate runs on every load, twice when
// persist.Unmarshal precedes NewDecoder or Restore, so on a valid state
// it must not build any error label.
func TestValidateAllocatesNothing(t *testing.T) {
	_, st := workloadState(t, "445.gobmk", 100_000)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() { _ = st.Validate() }); avg != 0 {
		t.Errorf("Validate of a valid %d-epoch state allocates %.1f times per call, want 0", len(st.Epochs), avg)
	}
}

// TestDictionaryEntrySizes pins the packed layouts of the two
// one-entry-per-edge-per-epoch types: Value first, the flags after it.
func TestDictionaryEntrySizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if n := unsafe.Sizeof(blenc.Code{}); n != 16 {
		t.Errorf("blenc.Code is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(StateCode{}); n != 24 {
		t.Errorf("StateCode is %d bytes, want 24", n)
	}
}

// fuzzGen derives structured values from fuzz input; past its end it
// yields zeros.
type fuzzGen struct {
	b []byte
	i int
}

func (g *fuzzGen) byte() byte {
	if g.i >= len(g.b) {
		return 0
	}
	v := g.b[g.i]
	g.i++
	return v
}

func (g *fuzzGen) u64() uint64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = g.byte()
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// n returns a value in [0, max) drawn from one byte, so a short input
// still reaches the later epochs; max must be in (0, 256].
func (g *fuzzGen) n(max int) int { return int(g.byte()) % max }

// stateFromFuzz maps fuzz input onto an encoder state the way persist's
// stateFromBytes does (persist imports core, so core's tests cannot
// use it), with two differences. Each epoch after the first either
// draws fresh dictionaries or evolves the previous epoch's: it copies
// its numCC and codes, grows or shrinks the code prefix, and changes a
// few values, so derivations see shared lists beside dirty ones. And a
// numCC key is now and then one past the last function, so some states
// fail Validate.
func stateFromFuzz(data []byte) *EncoderState {
	g := &fuzzGen{b: data}
	nf := 1 + g.n(16)
	st := &EncoderState{Budget: g.u64(), Entry: prog.FuncID(g.n(nf))}
	for i := 0; i < nf; i++ {
		st.Funcs = append(st.Funcs, fmt.Sprintf("f%d", i))
	}
	ns := g.n(24)
	for i := 0; i < ns; i++ {
		st.Sites = append(st.Sites, StateSite{Caller: prog.FuncID(g.n(nf)), Kind: g.byte() % 4})
	}
	st.Roots = append(st.Roots, st.Entry)
	for i, n := 0, g.n(3); i < n; i++ {
		st.Roots = append(st.Roots, prog.FuncID(g.n(nf)))
	}
	st.Nodes = append(st.Nodes, st.Entry)
	for i, n := 0, g.n(nf+1); i < n; i++ {
		st.Nodes = append(st.Nodes, prog.FuncID(g.n(nf)))
	}
	if ns > 0 {
		for i, n := 0, g.n(40); i < n; i++ {
			st.Edges = append(st.Edges, StateEdge{Site: prog.SiteID(g.n(ns)), Target: prog.FuncID(g.n(nf)), Freq: int64(g.n(100))})
		}
	}
	code := func(j int) StateCode {
		return StateCode{Edge: j, Value: uint64(g.n(6)), Encoded: g.byte()&1 == 1, Back: g.byte()&7 == 0}
	}
	nep := 1 + g.n(8)
	st.Epoch = uint32(nep - 1)
	for i := 0; i < nep; i++ {
		ep := StateEpoch{MaxID: uint64(g.n(64))}
		if i > 0 && g.byte()&3 != 0 {
			prev := st.Epochs[i-1]
			ep.NumCC = slices.Clone(prev.NumCC)
			for k, n := 0, g.n(3); k < n && len(ep.NumCC) > 0; k++ {
				ep.NumCC[g.n(len(ep.NumCC))].NumCC = uint64(g.n(4))
			}
			k := min(max(len(prev.Codes)+g.n(9)-3, 0), len(st.Edges))
			ep.Codes = slices.Clone(prev.Codes[:min(k, len(prev.Codes))])
			for j := len(ep.Codes); j < k; j++ {
				ep.Codes = append(ep.Codes, code(j))
			}
			for m, n := 0, g.n(3); m < n && k > 0; m++ {
				j := g.n(k)
				ep.Codes[j] = code(j)
			}
		} else {
			for j, n := 0, g.n(nf+1); j < n; j++ {
				ep.NumCC = append(ep.NumCC, StateNumCC{Fn: prog.FuncID(g.n(nf + 1)), NumCC: uint64(g.n(4))})
			}
			for j, n := 0, g.n(len(st.Edges)+1); j < n; j++ {
				ep.Codes = append(ep.Codes, code(j))
			}
		}
		st.Epochs = append(st.Epochs, ep)
	}
	return st
}

// FuzzLoadIndexes drives arbitrary states through both load paths.
// dacced accepts snapshots over the network, so the derivation may rely
// on nothing Validate does not check: for every state Validate accepts,
// NewDecoder and Restore must not panic, and every index they derive
// must equal the from-scratch build. The committed corpus
// (testdata/fuzz/FuzzLoadIndexes) holds states with evolving epochs.
func FuzzLoadIndexes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("derived load path"))
	f.Add(bytes.Repeat([]byte{0x07, 0x31, 0x02, 0xC4, 0x15}, 80))
	f.Fuzz(func(t *testing.T, data []byte) {
		st := stateFromFuzz(data)
		if st.Validate() != nil {
			return
		}
		dec, err := st.NewDecoder()
		if err != nil {
			t.Fatalf("NewDecoder of a valid state: %v", err)
		}
		p := st.skeleton()
		checkIndexes(t, "NewDecoder", dec.idx, fullIndexes(p, st, false))
		r, err := Restore(p, Options{}, st)
		if err != nil {
			t.Fatalf("Restore of a valid state: %v", err)
		}
		checkIndexes(t, "Restore", r.cur().idx, fullIndexes(p, st, true))
	})
}
