package blenc

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dacce/internal/graph"
	"dacce/internal/prog"
	"dacce/internal/progtest"
)

func TestRefreshKeepsUnaffectedCodes(t *testing.T) {
	fx, g := fig1Graph(t)
	// Drop DF for the initial encoding, then add it back incrementally:
	// only F's side changes; the AB/AC/BD/CD/DE codes must be reused
	// bit-for-bit.
	g2 := graph.New(fx.P)
	for _, s := range []string{"AB", "AC", "BD", "CD", "DE"} {
		g2.AddEdge(fx.S(s), fx.P.Site(fx.S(s)).Target)
	}
	prev := Encode(g2, Options{})
	added, _ := g2.AddEdge(fx.S("DF"), fx.F("F"))
	a, changed, affected, full := Refresh(g2, prev, []*graph.Edge{added}, Options{})
	if full {
		t.Fatal("acyclic addition fell back to full encode")
	}
	if !affected[fx.F("F")] {
		t.Error("target of the added edge not in the affected set")
	}
	for _, s := range []string{"AB", "AC", "BD", "CD", "DE"} {
		e := g2.Edge(fx.S(s), fx.P.Site(fx.S(s)).Target)
		was, _ := prev.CodeOf(e)
		if now, _ := a.CodeOf(e); now != was {
			t.Errorf("unaffected edge %s changed: %v → %v", s, was, now)
		}
	}
	c, ok := a.CodeOf(added)
	if !ok || !c.Encoded {
		t.Fatal("added edge not encoded")
	}
	if got := a.NumCCOf(g2.Node(fx.F("F"))); got != 2 {
		t.Errorf("numCC(F) = %d, want 2", got)
	}
	if len(changed) == 0 {
		t.Error("no changed edges reported")
	}
	for _, e := range changed {
		if e.Site != fx.S("DF") {
			t.Errorf("unexpected changed edge %v", e)
		}
	}
	_ = g
}

func TestRefreshFallsBackOnNewCycle(t *testing.T) {
	fx, b := progtest.Fig5()
	p := b.MustBuild()
	fx.P = p
	g := graph.New(p)
	for _, s := range []string{"AC", "CD", "AD"} {
		g.AddEdge(fx.S(s), p.Site(fx.S(s)).Target)
	}
	prev := Encode(g, Options{})
	// D→A closes a cycle: back-edge classification changes nothing for
	// old edges (DA itself is the back edge)... the fallback triggers
	// only if an OLD edge's classification flips, so craft that: add
	// C→A? No such site in Fig5 — instead check the DA addition is
	// handled (either incrementally with DA unencoded, or fully).
	added, _ := g.AddEdge(fx.S("DA"), fx.F("A"))
	a, _, _, _ := Refresh(g, prev, []*graph.Edge{added}, Options{})
	c, ok := a.CodeOf(added)
	if !ok {
		t.Fatal("added edge missing from snapshot")
	}
	if c.Encoded || !c.Back {
		t.Errorf("new back edge mis-coded: %+v", c)
	}
}

// TestRefreshInvariants: property — an assignment produced by a chain
// of Refresh calls assigns valid, decodable prefix-sum codes: for every
// node the encoded in-edge codes are exactly the prefix sums of their
// callers' numCC in some order (the invariant the decoder relies on),
// and numCC ≥ 1 everywhere. Every Refresh's change set is checked
// against a brute-force diff as well (checkChangeSet).
func TestRefreshInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		b := prog.NewBuilder()
		const nf = 24
		fns := make([]prog.FuncID, nf)
		fns[0] = b.Func("main")
		for i := 1; i < nf; i++ {
			fns[i] = b.Func("f" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
		}
		type edgeSpec struct {
			s prog.SiteID
			t prog.FuncID
		}
		var specs []edgeSpec
		for i := 0; i < 60; i++ {
			from := rng.IntN(nf - 1)
			to := from + 1 + rng.IntN(nf-from-1) // forward: acyclic
			specs = append(specs, edgeSpec{b.CallSite(fns[from], fns[to]), fns[to]})
		}
		p := b.MustBuild()
		g := graph.New(p)

		// Seed with a third of the edges, then Refresh in random batches.
		prev := (*Assignment)(nil)
		i := 0
		for i < len(specs) {
			batchEnd := i + 1 + rng.IntN(8)
			if batchEnd > len(specs) {
				batchEnd = len(specs)
			}
			var added []*graph.Edge
			for ; i < batchEnd; i++ {
				e, fresh := g.AddEdge(specs[i].s, specs[i].t)
				if fresh {
					added = append(added, e)
				}
			}
			if prev == nil {
				prev = Encode(g, Options{})
				continue
			}
			a, changed, affected, full := Refresh(g, prev, added, Options{})
			if msg := checkChangeSet(g, prev, a, changed, affected, full); msg != "" {
				t.Logf("seed %d: %s", seed, msg)
				return false
			}
			prev = a
		}

		// Invariants on the final assignment.
		for _, n := range g.NodeSeq {
			if prev.NumCCOf(n) == 0 {
				t.Logf("seed %d: numCC(%s) = 0", seed, n.Name())
				return false
			}
			var cs []coded
			for _, e := range n.In {
				c, ok := prev.CodeOf(e)
				if !ok {
					t.Logf("seed %d: edge %v missing", seed, e)
					return false
				}
				if c.Encoded {
					cs = append(cs, coded{c.Value, prev.NumCCOf(g.Node(e.Caller))})
				}
			}
			if len(cs) == 0 {
				continue
			}
			// Codes must partition [0, numCC(n)) as prefix sums.
			sortCoded(cs)
			var acc uint64
			for _, c := range cs {
				if c.val != acc {
					t.Logf("seed %d: node %s code %d, want %d", seed, n.Name(), c.val, acc)
					return false
				}
				acc += c.cc
			}
			if acc != prev.NumCCOf(n) {
				t.Logf("seed %d: node %s covers %d of %d", seed, n.Name(), acc, prev.NumCCOf(n))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// checkChangeSet verifies one Refresh's bookkeeping, which Refresh
// collects while renumbering instead of diffing every code. changed must
// equal, as a set and without repeats, the brute-force diff against
// prev: the edges registered since prev plus every edge whose code
// differs (every edge, after a full fallback). affected must hold the
// target of every changed edge that is not a back edge: a back edge —
// in these forward-only graphs, an edge out of a node the entry does not
// reach yet — is never encoded, so it moves no code range of its target.
func checkChangeSet(g *graph.Graph, prev, a *Assignment, changed []*graph.Edge, affected map[prog.FuncID]bool, full bool) string {
	want := make(map[*graph.Edge]bool)
	for _, e := range g.Edges {
		was, old := prev.CodeOf(e)
		now, ok := a.CodeOf(e)
		if !ok {
			return fmt.Sprintf("edge %v missing from the refreshed dictionary", e)
		}
		if full || !old || now != was {
			want[e] = true
		}
	}
	got := make(map[*graph.Edge]bool, len(changed))
	for _, e := range changed {
		if got[e] {
			return fmt.Sprintf("edge %v reported changed twice", e)
		}
		got[e] = true
		if !want[e] {
			return fmt.Sprintf("edge %v reported changed but its code did not change", e)
		}
		if !full && !e.Back && !affected[e.Target] {
			return fmt.Sprintf("changed edge %v: target not in the affected set", e)
		}
	}
	for e := range want {
		if !got[e] {
			return fmt.Sprintf("edge %v changed but is missing from the change set", e)
		}
	}
	return ""
}

func sortCoded(cs []coded) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].val < cs[j-1].val; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

type coded struct {
	val uint64
	cc  uint64
}
