package graph

import (
	"testing"

	"dacce/internal/prog"
)

// buildProg returns a program with funcs A..F and every pairwise direct
// site so tests can add arbitrary edges.
func buildProg(t *testing.T, names ...string) (*prog.Program, map[string]prog.FuncID, map[[2]string]prog.SiteID) {
	t.Helper()
	b := prog.NewBuilder()
	fn := map[string]prog.FuncID{}
	for _, n := range names {
		fn[n] = b.Func(n)
	}
	sites := map[[2]string]prog.SiteID{}
	for _, c := range names {
		for _, tgt := range names {
			sites[[2]string{c, tgt}] = b.CallSite(fn[c], fn[tgt])
		}
	}
	b.Entry(fn[names[0]])
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p, fn, sites
}

func TestNewContainsOnlyEntry(t *testing.T) {
	p, fn, _ := buildProg(t, "A", "B")
	g := New(p)
	if g.NumNodes() != 1 || g.NumEdges() != 0 {
		t.Fatalf("fresh graph has %d nodes %d edges, want 1/0", g.NumNodes(), g.NumEdges())
	}
	if g.Node(fn["A"]) == nil {
		t.Fatal("entry node missing")
	}
	if g.Node(fn["B"]) != nil {
		t.Fatal("non-entry node present in fresh graph")
	}
}

func TestAddEdgeIdempotent(t *testing.T) {
	p, fn, sites := buildProg(t, "A", "B")
	g := New(p)
	e1, new1 := g.AddEdge(sites[[2]string{"A", "B"}], fn["B"])
	e2, new2 := g.AddEdge(sites[[2]string{"A", "B"}], fn["B"])
	if !new1 || new2 {
		t.Fatalf("insertion flags = %v,%v want true,false", new1, new2)
	}
	if e1 != e2 {
		t.Fatal("duplicate AddEdge returned a different edge")
	}
	if g.NumEdges() != 1 || g.NumNodes() != 2 {
		t.Fatalf("graph has %d edges %d nodes, want 1/2", g.NumEdges(), g.NumNodes())
	}
}

func TestIndirectSiteMultipleEdges(t *testing.T) {
	b := prog.NewBuilder()
	a := b.Func("A")
	e := b.Func("E")
	f := b.Func("F")
	s := b.IndirectSite(a, e, f)
	b.Entry(a)
	b.Leaf(a, 0)
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	g := New(p)
	g.AddEdge(s, e)
	g.AddEdge(s, f)
	if got := len(g.EdgesAt(s)); got != 2 {
		t.Fatalf("EdgesAt = %d edges, want 2", got)
	}
	if g.Edge(s, e) == nil || g.Edge(s, f) == nil {
		t.Fatal("Edge missed an indirect edge")
	}
	if g.Edge(s, a) != nil {
		t.Fatal("Edge invented an edge")
	}
}

func addPath(t *testing.T, g *Graph, fn map[string]prog.FuncID, sites map[[2]string]prog.SiteID, pairs ...[2]string) {
	t.Helper()
	for _, pr := range pairs {
		g.AddEdge(sites[pr], fn[pr[1]])
	}
}

func TestBackEdgeClassification(t *testing.T) {
	p, fn, sites := buildProg(t, "A", "B", "C")
	g := New(p)
	// A→B→C plus C→A (cycle) and B→B (self loop).
	addPath(t, g, fn, sites, [2]string{"A", "B"}, [2]string{"B", "C"}, [2]string{"C", "A"}, [2]string{"B", "B"})
	g.ClassifyBackEdges()
	if !g.Edge(sites[[2]string{"C", "A"}], fn["A"]).Back {
		t.Error("C→A not classified as back edge")
	}
	if !g.Edge(sites[[2]string{"B", "B"}], fn["B"]).Back {
		t.Error("self loop not classified as back edge")
	}
	if g.Edge(sites[[2]string{"A", "B"}], fn["B"]).Back {
		t.Error("A→B wrongly classified as back edge")
	}
	if g.Edge(sites[[2]string{"B", "C"}], fn["C"]).Back {
		t.Error("B→C wrongly classified as back edge")
	}
}

func TestCrossEdgeNotBack(t *testing.T) {
	p, fn, sites := buildProg(t, "A", "B", "C", "D")
	g := New(p)
	// Diamond: A→B, A→C, B→D, C→D. No cycles at all.
	addPath(t, g, fn, sites,
		[2]string{"A", "B"}, [2]string{"A", "C"}, [2]string{"B", "D"}, [2]string{"C", "D"})
	g.ClassifyBackEdges()
	for _, e := range g.Edges {
		if e.Back {
			t.Errorf("acyclic edge %v classified as back", e)
		}
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	p, fn, sites := buildProg(t, "A", "B", "C", "D", "E")
	g := New(p)
	addPath(t, g, fn, sites,
		[2]string{"A", "B"}, [2]string{"A", "C"}, [2]string{"B", "D"},
		[2]string{"C", "D"}, [2]string{"D", "E"}, [2]string{"E", "B"}) // E→B back
	g.ClassifyBackEdges()
	order := g.TopoOrder()
	pos := map[prog.FuncID]int{}
	for i, n := range order {
		pos[n.Fn] = i
	}
	if len(order) != g.NumNodes() {
		t.Fatalf("topo covered %d of %d nodes", len(order), g.NumNodes())
	}
	for _, e := range g.Edges {
		if e.Back {
			continue
		}
		if pos[e.Caller] >= pos[e.Target] {
			t.Errorf("topo order violates edge %v", e)
		}
	}
}

func TestTopoDeterministic(t *testing.T) {
	mk := func() []prog.FuncID {
		p, fn, sites := buildProg(t, "A", "B", "C", "D")
		g := New(p)
		addPath(t, g, fn, sites,
			[2]string{"A", "C"}, [2]string{"A", "B"}, [2]string{"C", "D"}, [2]string{"B", "D"})
		g.ClassifyBackEdges()
		var ids []prog.FuncID
		for _, n := range g.TopoOrder() {
			ids = append(ids, n.Fn)
		}
		return ids
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("topo order not deterministic: %v vs %v", a, b)
		}
	}
}

func TestReachable(t *testing.T) {
	p, fn, sites := buildProg(t, "A", "B", "C")
	g := New(p)
	g.AddEdge(sites[[2]string{"A", "B"}], fn["B"])
	g.AddNode(fn["C"]) // present but disconnected
	r := g.Reachable()
	if !r[fn["A"]] || !r[fn["B"]] {
		t.Error("reachable set missing connected nodes")
	}
	if r[fn["C"]] {
		t.Error("disconnected node reported reachable")
	}
}

func TestUnreachableOutEdgesMarkedBack(t *testing.T) {
	p, fn, sites := buildProg(t, "A", "B", "C", "D")
	g := New(p)
	g.AddEdge(sites[[2]string{"A", "B"}], fn["B"])
	// C→D exists but C is unreachable from A.
	g.AddEdge(sites[[2]string{"C", "D"}], fn["D"])
	g.ClassifyBackEdges()
	if !g.Edge(sites[[2]string{"C", "D"}], fn["D"]).Back {
		t.Error("edge from unreachable node not excluded from encoding")
	}
	// TopoOrder must still terminate and cover everything.
	if got := len(g.TopoOrder()); got != g.NumNodes() {
		t.Errorf("topo covered %d of %d nodes", got, g.NumNodes())
	}
}

func TestAddRootMakesSpawnedReachable(t *testing.T) {
	p, fn, sites := buildProg(t, "A", "W", "B")
	g := New(p)
	// W is a thread entry: it calls B but nothing calls W.
	g.AddEdge(sites[[2]string{"W", "B"}], fn["B"])
	g.ClassifyBackEdges()
	if !g.Edge(sites[[2]string{"W", "B"}], fn["B"]).Back {
		t.Fatal("edge from unrooted spawn entry should be excluded")
	}
	g.AddRoot(fn["W"])
	g.ClassifyBackEdges()
	if g.Edge(sites[[2]string{"W", "B"}], fn["B"]).Back {
		t.Error("edge from registered thread root still excluded")
	}
	if got := len(g.Roots()); got != 2 {
		t.Errorf("roots = %d, want 2", got)
	}
	// Idempotent.
	g.AddRoot(fn["W"])
	if got := len(g.Roots()); got != 2 {
		t.Errorf("duplicate AddRoot changed roots to %d", got)
	}
	if !g.Reachable()[fn["B"]] {
		t.Error("B not reachable via thread root")
	}
}
