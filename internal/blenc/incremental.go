package blenc

import (
	"sort"

	"dacce/internal/graph"
	"dacce/internal/prog"
)

// Refresh computes the assignment after new edges were added, reusing
// prev wherever possible: only nodes downstream of the additions are
// renumbered, and every node keeps its previous in-edge order (new
// edges are appended coldest-last), so unaffected codes are bit-equal
// to prev's. This is the incremental counterpart of Encode — an
// extension beyond the paper, whose whole-graph re-encoding cost grows
// with the graph (Table 1 "costs"); an adaptive runtime can use Refresh
// for the frequent new-edges trigger and reserve full re-encodes for
// frequency reordering.
//
// The new dictionary starts as a copy of prev's two dense tables,
// extended by the edges and nodes registered since; only the in-edges
// of renumbered nodes are written after that. Refresh falls back to a
// full Encode (and reports it) when the additions change any back-edge
// classification — a new cycle invalidates prev's structure — or when
// the budget is exceeded.
//
// The returned changed set lists the edges whose codes differ from
// prev: every edge registered since prev, plus each renumbered in-edge
// whose code moved, collected during the renumbering itself. The caller
// only needs to repatch those sites. affected is the set of renumbered
// nodes — a superset of the targets of changed non-back edges, needed
// by delta decode-index rebuilds because a node's in-edge ranges depend
// on its callers' numCC, which can change even when no in-edge code
// does (e.g. a single in-edge keeps code 0 while its caller's numCC
// grows). affected is nil and changed lists every edge when full is
// true (everything changed).
func Refresh(g *graph.Graph, prev *Assignment, added []*graph.Edge, opt Options) (a *Assignment, changed []*graph.Edge, affected map[prog.FuncID]bool, full bool) {
	budget := opt.Budget
	if budget == 0 {
		budget = DefaultBudget
	}

	// Reclassify: cheap relative to renumbering, and required for
	// soundness (a new edge can make an old edge a back edge).
	g.ClassifyBackEdges()
	for i, pc := range prev.Codes {
		if pc.Back != g.Edges[i].Back {
			return fullRefresh(g, opt)
		}
	}
	if prev.Overflowed {
		// prev excluded cold edges; the exclusion set depends on global
		// frequencies, so recompute fully.
		return fullRefresh(g, opt)
	}

	// Affected set: targets of added edges plus everything reachable
	// from them through non-back edges.
	affected = make(map[prog.FuncID]bool)
	var stack []prog.FuncID
	mark := func(fn prog.FuncID) {
		if !affected[fn] {
			affected[fn] = true
			stack = append(stack, fn)
		}
	}
	for _, e := range added {
		if !e.Back {
			mark(e.Target)
		}
	}
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := g.Node(fn)
		if n == nil {
			continue
		}
		for _, e := range n.Out {
			if !e.Back {
				mark(e.Target)
			}
		}
	}

	// Start from prev: unaffected nodes keep numCC, old edges keep their
	// codes, and every edge registered since prev is present, uncoded,
	// and changed.
	a = &Assignment{
		NumCC: make([]uint64, g.NumNodes()),
		Codes: make([]Code, g.NumEdges()),
	}
	copy(a.NumCC, prev.NumCC)
	copy(a.Codes, prev.Codes)
	for _, e := range g.Edges[len(prev.Codes):] {
		a.Codes[e.Seq()] = Code{Back: e.Back}
		changed = append(changed, e)
	}

	// Renumber affected nodes in topological order, keeping prev's
	// in-edge order and appending edges prev never saw. Each in-edge's
	// previous code is fetched once, before ranking.
	type ranked struct {
		e   *graph.Edge
		old bool   // encoded in prev
		val uint64 // prev's code, when old
	}
	var ins []ranked
	for _, n := range g.TopoOrder() {
		if !affected[n.Fn] {
			if a.NumCC[n.Seq] == 0 {
				// Unaffected but also unknown to prev (isolated new
				// node): every node carries at least one context.
				a.NumCC[n.Seq] = 1
			}
			continue
		}
		ins = ins[:0]
		for _, e := range n.In {
			if !e.Back && (opt.Exclude == nil || !opt.Exclude(e)) {
				pc, ok := prev.CodeOf(e)
				ins = append(ins, ranked{e: e, old: ok && pc.Encoded, val: pc.Value})
			}
		}
		sort.SliceStable(ins, func(i, j int) bool {
			ri, rj := &ins[i], &ins[j]
			switch {
			case ri.old && rj.old:
				return ri.val < rj.val // previous order
			case ri.old:
				return true // old edges before new ones
			case rj.old:
				return false
			default:
				return ri.e.Seq() < rj.e.Seq()
			}
		})
		var acc uint64
		for _, r := range ins {
			seq := r.e.Seq()
			c := &a.Codes[seq]
			c.Encoded = true
			c.Value = acc
			if seq < len(prev.Codes) && *c != prev.Codes[seq] {
				changed = append(changed, r.e)
			}
			var over bool
			acc, over = satAdd(acc, a.NumCCOf(g.Node(r.e.Caller)))
			if over {
				return fullRefresh(g, opt)
			}
		}
		if acc == 0 {
			acc = 1
		}
		a.NumCC[n.Seq] = acc
	}

	for _, n := range a.NumCC {
		if n-1 > a.MaxID {
			a.MaxID = n - 1
		}
	}
	a.UnrestrictedMaxID = a.MaxID
	if a.MaxID > budget {
		return fullRefresh(g, opt)
	}
	for _, c := range a.Codes {
		if c.Encoded {
			a.EncodedEdges++
		}
	}
	return a, changed, affected, false
}

// fullRefresh is the fallback: a complete Encode, with every edge
// reported as changed and a nil affected set.
func fullRefresh(g *graph.Graph, opt Options) (*Assignment, []*graph.Edge, map[prog.FuncID]bool, bool) {
	return Encode(g, opt), append([]*graph.Edge(nil), g.Edges...), nil, true
}
