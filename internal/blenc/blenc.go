// Package blenc implements the Ball–Larus-style calling-context
// numbering that both DACCE and PCCE build on (paper §2.1): processing
// nodes in topological order, numCC(n) is the number of calling contexts
// of n, and each acyclic in-edge e = (p → n) receives the code
// En(e) = Σ numCC(p') over the in-edges ordered before e. A context's id
// is then the sum of the edge codes along its call path, and the codes
// into any node partition [0, numCC(n)).
//
// Two aspects go beyond the textbook algorithm:
//
//   - Hot-first ordering: in-edges are ordered by descending observed
//     frequency before codes are assigned, so the hottest edge into every
//     node gets code 0 and needs no instrumentation at all (paper §4).
//
//   - Encoding-space budgeting: numCC is computed with saturating
//     arithmetic; if the ids outgrow the budget (PCCE on perlbench/gcc
//     overflows 64-bit ids, paper §6.3), the encoder excludes the coldest
//     eligible edges — never-invoked ones first, exactly the paper's
//     "edges that are never invoked in real runs are deleted" — until the
//     encoding fits, and reports that the unrestricted encoding
//     overflowed.
package blenc

import (
	"math"
	"sort"
	"sync/atomic"

	"dacce/internal/graph"
)

// freqOf reads an edge's observed frequency atomically: encoding passes
// may run concurrently with live threads (the adaptive runtime's
// concurrent prepare), whose traps and sampling controller bump Freq
// with atomic adds.
func freqOf(e *graph.Edge) int64 { return atomic.LoadInt64(&e.Freq) }

// Code is the per-edge result of an encoding pass. Value comes first
// so the two flags share its padding: 16 bytes instead of 24, in a slice
// that holds one entry per edge per epoch.
type Code struct {
	// Value is the increment En(e); meaningful only when Encoded.
	Value uint64
	// Encoded reports whether the edge carries an id increment. If
	// false, invoking the edge saves context on the ccStack instead.
	Encoded bool
	// Back records whether the edge was classified as a back edge in
	// this pass (needed by the decoder to interpret ccStack entries of
	// this epoch).
	Back bool
}

// Assignment is an immutable snapshot of one encoding pass: the decode
// dictionary for one gTimeStamp epoch (paper Fig. 6). It is stored
// densely against the append-only graph the pass ran on: Codes is
// indexed by Edge.Seq and NumCC by Node.Seq, so the edges and nodes
// that existed when the pass ran are exactly the first len(Codes) edges
// and the first len(NumCC) nodes, and later ones are absent. Keying
// NumCC by node sequence rather than FuncID keeps a dictionary
// proportional to the discovered graph, not to the program (483.xalancbmk
// has 12,535 functions but discovers about 2,200 of them).
type Assignment struct {
	// MaxID is the maximum context id assignable under this encoding;
	// run-time ids in (MaxID, 2*MaxID+1] mark sub-paths with saved
	// context on the ccStack.
	MaxID uint64
	// NumCC holds each node's number of calling contexts (≥ 1), indexed
	// by Node.Seq. A 0 entry means the node did not exist at the pass
	// (only restored dictionaries, whose graph was rebuilt in another
	// node order, have such holes).
	NumCC []uint64
	// Codes holds the code of every edge that existed at snapshot time,
	// indexed by Edge.Seq.
	Codes []Code
	// Overflowed reports that the unrestricted encoding exceeded the
	// budget and cold edges were excluded to fit.
	Overflowed bool
	// UnrestrictedMaxID is the (saturating) MaxID before any exclusion;
	// equal to MaxID when Overflowed is false.
	UnrestrictedMaxID uint64
	// Excluded is the number of otherwise-eligible edges left unencoded
	// to fit the budget.
	Excluded int
	// EncodedEdges is the number of edges with a code in this pass.
	EncodedEdges int
}

// CodeOf returns the code for an edge and whether the edge existed at
// snapshot time. Safe to call concurrently with edge registration.
func (a *Assignment) CodeOf(e *graph.Edge) (Code, bool) {
	if seq := e.Seq(); seq >= 0 && seq < len(a.Codes) {
		return a.Codes[seq], true
	}
	return Code{}, false
}

// NumCCOf returns the number of calling contexts of n at snapshot time,
// or 0 if n is nil or did not exist then.
func (a *Assignment) NumCCOf(n *graph.Node) uint64 {
	if n != nil && n.Seq < len(a.NumCC) {
		return a.NumCC[n.Seq]
	}
	return 0
}

// Options configures an encoding pass.
type Options struct {
	// Budget caps MaxID; 0 means DefaultBudget. The factor-of-two
	// headroom for the ccStack marker range is the caller's concern:
	// budget 2^62 keeps 2*MaxID+1 < 2^63.
	Budget uint64
	// Exclude, if non-nil, marks edges the scheme does not want encoded
	// in this pass (e.g. DACCE's newly discovered edges awaiting the
	// next re-encoding, or PCCE's edges into dlopened modules). Back
	// edges are always excluded.
	Exclude func(e *graph.Edge) bool
	// NoHotOrder disables the hottest-first in-edge ordering (ablation:
	// without it no edge is guaranteed code 0, so hot paths keep their
	// instrumentation).
	NoHotOrder bool
}

// DefaultBudget is the largest MaxID the encoders allow, leaving one bit
// of headroom so 2*MaxID+1 still fits in the 64-bit id the prototype
// uses (paper §6.3).
const DefaultBudget = uint64(1) << 62

// satAdd adds with saturation, reporting overflow.
func satAdd(a, b uint64) (uint64, bool) {
	s := a + b
	if s < a {
		return math.MaxUint64, true
	}
	return s, false
}

// Encode runs one encoding pass over g. It classifies back edges as a
// side effect (Edge.Back is refreshed). Edge frequencies are read to
// order in-edges hottest-first; they are not modified.
func Encode(g *graph.Graph, opt Options) *Assignment {
	budget := opt.Budget
	if budget == 0 {
		budget = DefaultBudget
	}
	g.ClassifyBackEdges()
	topo := g.TopoOrder()
	hotFirst := !opt.NoHotOrder

	eligible := func(e *graph.Edge) bool {
		if e.Back {
			return false
		}
		if opt.Exclude != nil && opt.Exclude(e) {
			return false
		}
		return true
	}

	// First pass: unrestricted, to detect overflow the way the paper
	// reports it.
	excluded := make(map[*graph.Edge]bool)
	a, sat := pass(g, topo, eligible, excluded, hotFirst)
	a.UnrestrictedMaxID = a.MaxID
	if !sat && a.MaxID <= budget {
		return a
	}

	// Overflow: exclude never-invoked eligible edges first (the paper's
	// fix), then progressively colder halves of the remainder.
	a.Overflowed = true
	unrestricted := a.UnrestrictedMaxID
	for _, e := range g.Edges {
		if eligible(e) && freqOf(e) == 0 {
			excluded[e] = true
		}
	}
	a2, sat2 := pass(g, topo, eligible, excluded, hotFirst)
	if !sat2 && a2.MaxID <= budget {
		a2.Overflowed = true
		a2.UnrestrictedMaxID = unrestricted
		a2.Excluded = len(excluded)
		return a2
	}

	// Still too large: drop the coldest half of the remaining encoded
	// edges until the encoding fits. Each round halves the candidate
	// set, so this terminates quickly.
	remaining := make([]*graph.Edge, 0)
	for _, e := range g.Edges {
		if eligible(e) && !excluded[e] {
			remaining = append(remaining, e)
		}
	}
	sort.SliceStable(remaining, func(i, j int) bool { return freqOf(remaining[i]) < freqOf(remaining[j]) })
	for len(remaining) > 0 {
		drop := (len(remaining) + 1) / 2
		for _, e := range remaining[:drop] {
			excluded[e] = true
		}
		remaining = remaining[drop:]
		a3, sat3 := pass(g, topo, eligible, excluded, hotFirst)
		if !sat3 && a3.MaxID <= budget {
			a3.Overflowed = true
			a3.UnrestrictedMaxID = unrestricted
			a3.Excluded = len(excluded)
			return a3
		}
	}
	// Nothing encoded at all: every edge goes through the ccStack. This
	// cannot overflow (MaxID is 0).
	a4, _ := pass(g, topo, eligible, excluded, hotFirst)
	a4.Overflowed = true
	a4.UnrestrictedMaxID = unrestricted
	a4.Excluded = len(excluded)
	return a4
}

// pass performs one numbering sweep with the given exclusions. It
// returns the assignment and whether any numCC saturated.
func pass(g *graph.Graph, topo []*graph.Node, eligible func(*graph.Edge) bool, excluded map[*graph.Edge]bool, hotFirst bool) (*Assignment, bool) {
	a := &Assignment{
		NumCC: make([]uint64, g.NumNodes()),
		Codes: make([]Code, g.NumEdges()),
	}
	saturated := false

	// Record every live edge so the decode dictionary knows the graph
	// shape of this epoch.
	for i, e := range g.Edges {
		a.Codes[i] = Code{Back: e.Back}
	}

	var ins []*graph.Edge
	for _, n := range topo {
		// Gather eligible in-edges, hottest first. Ties break on
		// insertion order for determinism.
		ins = ins[:0]
		for _, e := range n.In {
			if eligible(e) && !excluded[e] {
				ins = append(ins, e)
			}
		}
		if hotFirst {
			sort.SliceStable(ins, func(i, j int) bool {
				fi, fj := freqOf(ins[i]), freqOf(ins[j])
				if fi != fj {
					return fi > fj
				}
				return ins[i].Seq() < ins[j].Seq()
			})
		}
		var acc uint64
		for _, e := range ins {
			c := &a.Codes[e.Seq()]
			c.Encoded = true
			c.Value = acc
			a.EncodedEdges++
			var over bool
			acc, over = satAdd(acc, a.NumCCOf(g.Node(e.Caller)))
			saturated = saturated || over
		}
		// Every node has at least one context: the entry, nodes reached
		// only through unencoded edges (sub-path heads), and unreachable
		// nodes all act as roots of their sub-paths.
		if acc == 0 {
			acc = 1
		}
		a.NumCC[n.Seq] = acc
		if acc-1 > a.MaxID {
			a.MaxID = acc - 1
		}
	}
	return a, saturated
}
