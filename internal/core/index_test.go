package core

import (
	"sync/atomic"
	"testing"

	"dacce/internal/graph"
	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/workload"
)

// TestDecodeIndexListsEveryCoveredEdge checks the one per-epoch edge
// table after a sampled cold run with recursion: every epoch's index
// lists exactly the edges its dictionary covers, g.Edges[:len(Codes)],
// each once under its target in Node.In order. Encoded entries carry
// their code range; back edges and other unencoded edges carry an empty
// one, so the walk skips them while OnSample still credits them.
func TestDecodeIndexListsEveryCoveredEdge(t *testing.T) {
	w, err := workload.Build(soakProfile(40_000))
	if err != nil {
		t.Fatal(err)
	}
	d := New(w.P, Options{})
	m := w.NewMachine(d, machine.Config{SampleEvery: 7, DropSamples: true})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	g := d.Graph()
	snap := d.cur()
	if len(snap.idx) < 3 {
		t.Fatalf("run made %d epochs; the check needs several", len(snap.idx))
	}
	unencoded := 0
	for epoch, ix := range snap.idx {
		asn := ix.asn
		covered := g.Edges[:len(asn.Codes)]
		want := make(map[prog.FuncID][]*graph.Edge)
		for _, n := range g.NodeSeq {
			for _, e := range n.In {
				if e.Seq() < len(asn.Codes) {
					want[n.Fn] = append(want[n.Fn], e)
				}
			}
		}
		listed := 0
		for fn, list := range ix.in {
			listed += len(list)
			if len(list) != len(want[fn]) {
				t.Errorf("epoch %d: f%d lists %d in-edges, want %d", epoch, fn, len(list), len(want[fn]))
				continue
			}
			for i, ent := range list {
				e := want[fn][i]
				if ent.e != e {
					t.Errorf("epoch %d: f%d entry %d is %v, want %v (Node.In order)", epoch, fn, i, ent.e, e)
					continue
				}
				code := asn.Codes[e.Seq()]
				switch {
				case code.Encoded && (ent.code != code.Value || ent.ncc != asn.NumCCOf(g.Node(e.Caller)) || ent.ncc == 0):
					t.Errorf("epoch %d: %v has range [%d,+%d), want [%d,+%d)", epoch, e, ent.code, ent.ncc, code.Value, asn.NumCCOf(g.Node(e.Caller)))
				case !code.Encoded && (ent.code != 0 || ent.ncc != 0):
					t.Errorf("epoch %d: unencoded %v has range [%d,+%d), want empty", epoch, e, ent.code, ent.ncc)
				case !code.Encoded:
					unencoded++
				}
			}
		}
		if listed != len(covered) {
			t.Errorf("epoch %d: index lists %d entries, dictionary covers %d edges", epoch, listed, len(covered))
		}
	}
	if unencoded == 0 {
		t.Error("no unencoded entry in any epoch; the recursion case went unchecked")
	}
}

// TestRestoreCreditsEdgesFoundAfterLastPass checks Restore's
// current-epoch rule: an edge discovered after the snapshot's last pass
// has no code in any restored dictionary, but the restored encoder's
// current index lists it, so samples taken through it credit its Freq
// before any pass runs. A sample is taken as a call is made, so the
// samples at late → leaf are the ones whose context holds main → late.
func TestRestoreCreditsEdgesFoundAfterLastPass(t *testing.T) {
	b := prog.NewBuilder()
	mainF := b.Func("main")
	a := b.Func("a")
	late := b.Func("late")
	leaf := b.Func("leaf")
	ma := b.CallSite(mainF, a)
	ml := b.CallSite(mainF, late)
	ll := b.CallSite(late, leaf)
	b.Leaf(a, 1)
	b.Leaf(leaf, 1)
	b.Body(late, func(x prog.Exec) { x.Call(ll, prog.NoFunc) })
	var d *DACCE
	cold := true
	b.Body(mainF, func(x prog.Exec) {
		if cold {
			x.Call(ma, prog.NoFunc)
			d.ForceReencode(x)
			x.Call(ml, prog.NoFunc) // main → late, late → leaf: found after the last pass
			return
		}
		for i := 0; i < 64; i++ {
			x.Call(ml, prog.NoFunc)
		}
	})
	p := b.MustBuild()
	d = New(p, Options{Trig: quietTriggers})
	if _, err := machine.New(p, d, machine.Config{}).Run(); err != nil {
		t.Fatal(err)
	}
	st := d.ExportState()
	if n := len(st.Epochs[st.Epoch].Codes); n != len(st.Edges)-2 {
		t.Fatalf("last pass coded %d of %d edges; want all but the two found after it", n, len(st.Edges))
	}

	cold = false
	r, err := Restore(p, Options{Trig: quietTriggers}, st)
	if err != nil {
		t.Fatal(err)
	}
	e := r.Graph().Edge(ml, late)
	before := atomic.LoadInt64(&e.Freq)
	if _, err := machine.New(p, r, machine.Config{SampleEvery: 1, DropSamples: true}).Run(); err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != st.Epoch {
		t.Fatalf("restored run moved to epoch %d; the check needs the restored one", r.Epoch())
	}
	if after := atomic.LoadInt64(&e.Freq); after <= before {
		t.Errorf("main→late Freq %d → %d: samples through it earned no heat", before, after)
	}
}
