package blenc

import (
	"fmt"
	"testing"

	"dacce/internal/graph"
	"dacce/internal/prog"
	"dacce/internal/progtest"
)

// fig1Graph builds the paper's Fig. 1 diamond with all edges invoked.
func fig1Graph(t *testing.T) (*progtest.Fixture, *graph.Graph) {
	t.Helper()
	fx, b := progtest.Fig1()
	p := b.MustBuild()
	fx.P = p
	g := graph.New(p)
	for _, s := range []string{"AB", "AC", "BD", "CD", "DE", "DF"} {
		g.AddEdge(fx.S(s), p.Site(fx.S(s)).Target)
	}
	return fx, g
}

func TestFig1Numbering(t *testing.T) {
	fx, g := fig1Graph(t)
	// Make the B-side hotter so BD gets code 0 and only CD needs
	// instrumentation, as in the paper's figure.
	g.Edge(fx.S("BD"), fx.F("D")).Freq = 10
	g.Edge(fx.S("CD"), fx.F("D")).Freq = 1
	a := Encode(g, Options{})
	wantNumCC := map[string]uint64{"A": 1, "B": 1, "C": 1, "D": 2, "E": 2, "F": 2}
	for name, want := range wantNumCC {
		if got := a.NumCCOf(g.Node(fx.F(name))); got != want {
			t.Errorf("numCC(%s) = %d, want %d", name, got, want)
		}
	}
	if a.MaxID != 1 {
		t.Errorf("MaxID = %d, want 1", a.MaxID)
	}
	checkCode := func(site string, target string, want uint64) {
		t.Helper()
		c, ok := a.CodeOf(g.Edge(fx.S(site), fx.F(target)))
		if !ok || !c.Encoded {
			t.Errorf("edge %s unexpectedly unencoded", site)
			return
		}
		if c.Value != want {
			t.Errorf("code(%s) = %d, want %d", site, c.Value, want)
		}
	}
	checkCode("BD", "D", 0)
	checkCode("CD", "D", 1) // the single "id += 1" of Fig. 1
	checkCode("AB", "B", 0)
	checkCode("AC", "C", 0)
	checkCode("DE", "E", 0)
	checkCode("DF", "F", 0)
	if a.Overflowed {
		t.Error("tiny graph reported overflow")
	}
	if a.EncodedEdges != 6 {
		t.Errorf("EncodedEdges = %d, want 6", a.EncodedEdges)
	}
}

func TestHotFirstOrdering(t *testing.T) {
	fx, g := fig1Graph(t)
	// Flip the heat: CD hotter than BD — CD must now get code 0.
	g.Edge(fx.S("BD"), fx.F("D")).Freq = 1
	g.Edge(fx.S("CD"), fx.F("D")).Freq = 10
	a := Encode(g, Options{})
	c, _ := a.CodeOf(g.Edge(fx.S("CD"), fx.F("D")))
	if c.Value != 0 {
		t.Errorf("hottest edge CD got code %d, want 0", c.Value)
	}
	c, _ = a.CodeOf(g.Edge(fx.S("BD"), fx.F("D")))
	if c.Value != 1 {
		t.Errorf("colder edge BD got code %d, want 1", c.Value)
	}
}

func TestBackEdgesNeverEncoded(t *testing.T) {
	fx, b := progtest.Fig5()
	p := b.MustBuild()
	g := graph.New(p)
	for _, s := range []string{"AC", "CD", "AD", "DA"} {
		g.AddEdge(fx.S(s), p.Site(fx.S(s)).Target)
	}
	a := Encode(g, Options{})
	c, ok := a.CodeOf(g.Edge(fx.S("DA"), fx.F("A")))
	if !ok {
		t.Fatal("back edge missing from snapshot")
	}
	if c.Encoded {
		t.Error("back edge D→A was encoded")
	}
	if !c.Back {
		t.Error("back edge not flagged Back in the dictionary")
	}
	// The rest of the graph is acyclic and must be encoded: paths ACD
	// and AD give D two contexts.
	if got := a.NumCCOf(g.Node(fx.F("D"))); got != 2 {
		t.Errorf("numCC(D) = %d, want 2", got)
	}
}

// diamondChain builds k stacked diamonds; the number of paths doubles
// per layer, so numCC(last) = 2^k.
func diamondChain(t *testing.T, k int) *graph.Graph {
	t.Helper()
	b := prog.NewBuilder()
	prev := b.Func("n0")
	b.Entry(prev)
	type edge struct {
		s prog.SiteID
		t prog.FuncID
	}
	var edges []edge
	for i := 0; i < k; i++ {
		l := b.Func(fmt.Sprintf("l%d", i))
		r := b.Func(fmt.Sprintf("r%d", i))
		next := b.Func(fmt.Sprintf("j%d", i))
		edges = append(edges,
			edge{b.CallSite(prev, l), l},
			edge{b.CallSite(prev, r), r},
			edge{b.CallSite(l, next), next},
			edge{b.CallSite(r, next), next},
		)
		prev = next
	}
	p := b.MustBuild()
	g := graph.New(p)
	for _, e := range edges {
		ge, _ := g.AddEdge(e.s, e.t)
		ge.Freq = 1 // every edge invoked, so budgeting must drop hot... cold ties
	}
	return g
}

func TestExponentialNumCC(t *testing.T) {
	g := diamondChain(t, 10)
	a := Encode(g, Options{})
	if a.MaxID != (1<<10)-1 {
		t.Errorf("MaxID = %d, want %d", a.MaxID, (1<<10)-1)
	}
}

func TestOverflowBudgeting(t *testing.T) {
	g := diamondChain(t, 70) // 2^70 paths: saturates uint64
	a := Encode(g, Options{})
	if !a.Overflowed {
		t.Fatal("2^70-path graph did not report overflow")
	}
	if a.MaxID > DefaultBudget {
		t.Errorf("budgeted MaxID %d exceeds budget %d", a.MaxID, DefaultBudget)
	}
	if a.Excluded == 0 {
		t.Error("overflow handled without excluding any edge")
	}
	// Every node still has at least one context.
	for seq, n := range a.NumCC {
		if n == 0 {
			t.Errorf("numCC(%s) = 0", g.NodeSeq[seq].Name())
		}
	}
}

func TestSmallBudget(t *testing.T) {
	g := diamondChain(t, 10)
	a := Encode(g, Options{Budget: 100})
	if !a.Overflowed {
		t.Fatal("encoding above budget not reported as overflow")
	}
	if a.MaxID > 100 {
		t.Errorf("MaxID %d exceeds explicit budget 100", a.MaxID)
	}
	if a.UnrestrictedMaxID != (1<<10)-1 {
		t.Errorf("UnrestrictedMaxID = %d, want %d", a.UnrestrictedMaxID, (1<<10)-1)
	}
}

func TestNeverInvokedEdgesDroppedFirst(t *testing.T) {
	g := diamondChain(t, 10)
	// Mark half the edges never-invoked: budget pressure must drop
	// those, keeping all invoked edges encoded.
	for i, e := range g.Edges {
		if i%4 == 3 { // one diamond side per layer
			e.Freq = 0
		} else {
			e.Freq = 100
		}
	}
	a := Encode(g, Options{Budget: 40})
	if !a.Overflowed {
		t.Fatal("expected overflow against budget 40")
	}
	for _, e := range g.Edges {
		c, _ := a.CodeOf(e)
		if e.Freq > 0 && !c.Encoded {
			t.Errorf("invoked edge %v dropped while never-invoked edges existed", e)
		}
	}
}

func TestCodesPartitionRange(t *testing.T) {
	// Property: for every node, the encoded in-edge ranges
	// [En(e), En(e)+numCC(p)) are disjoint and cover [0, numCC(n))
	// exactly (unless the node is a sub-path head with extra slack).
	fx, g := fig1Graph(t)
	_ = fx
	a := Encode(g, Options{})
	for _, n := range g.NodeSeq {
		covered := uint64(0)
		for _, e := range n.In {
			c, ok := a.CodeOf(e)
			if !ok || !c.Encoded {
				continue
			}
			if c.Value != covered {
				t.Errorf("node %s: edge %v code %d, want prefix sum %d", n.Name(), e, c.Value, covered)
			}
			covered += a.NumCCOf(g.Node(e.Caller))
		}
		if covered != 0 && covered != a.NumCCOf(n) {
			t.Errorf("node %s: codes cover %d of %d contexts", n.Name(), covered, a.NumCCOf(n))
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	enc := func() *Assignment {
		_, g := fig1Graph(t)
		return Encode(g, Options{})
	}
	a, b := enc(), enc()
	if a.MaxID != b.MaxID || a.EncodedEdges != b.EncodedEdges || len(a.Codes) != len(b.Codes) {
		t.Fatal("Encode not deterministic")
	}
	for k, v := range a.Codes {
		if b.Codes[k] != v {
			t.Fatalf("code for %v differs across runs: %v vs %v", k, v, b.Codes[k])
		}
	}
}

func TestNoHotOrderKeepsInsertionOrder(t *testing.T) {
	fx, g := fig1Graph(t)
	// CD is hotter, but with NoHotOrder the first-inserted in-edge of D
	// (BD) keeps code 0.
	g.Edge(fx.S("BD"), fx.F("D")).Freq = 1
	g.Edge(fx.S("CD"), fx.F("D")).Freq = 100
	a := Encode(g, Options{NoHotOrder: true})
	c, _ := a.CodeOf(g.Edge(fx.S("BD"), fx.F("D")))
	if c.Value != 0 {
		t.Errorf("first in-edge BD got code %d, want 0 under NoHotOrder", c.Value)
	}
	c, _ = a.CodeOf(g.Edge(fx.S("CD"), fx.F("D")))
	if c.Value != 1 {
		t.Errorf("CD got code %d, want 1 under NoHotOrder", c.Value)
	}
}
