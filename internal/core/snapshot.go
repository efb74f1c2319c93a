package core

import (
	"dacce/internal/blenc"
	"dacce/internal/graph"
	"dacce/internal/prog"
)

// encSnap bundles the read-mostly encoding state into one immutable
// snapshot published through DACCE.snap (RCU style). Steady-state
// readers — patched stubs, the sampling controller, decode requests,
// and the public MaxID/Dict/Epoch/CompressCount accessors — load the
// pointer once and see a consistent (epoch, maxID, dictionaries,
// tail-set, compression-set) tuple without ever taking d.mu. Writers
// (edge discovery, re-encoding, tail fix-ups) build a fresh snapshot
// under d.mu and publish it with a single atomic store; readers that
// loaded the previous snapshot keep a valid, internally consistent view
// of the epoch they started in, which is exactly the semantics the
// per-epoch decode dictionaries of paper Fig. 6 require.
//
// Invariants:
//
//   - every field is immutable after publication; mutation is always
//     copy-on-write under d.mu;
//   - dicts and idx grow by one entry per epoch and share their prefix
//     with the previous snapshot (the slices are append-copied, the
//     *Assignment/*decodeIndex elements are shared and frozen);
//   - epoch == len(dicts)-1 and maxID == dicts[epoch].MaxID;
//   - tail and compress are never mutated in place: a new map replaces
//     the old one when an entry is added.
type encSnap struct {
	// epoch is the current gTimeStamp.
	epoch uint32
	// maxID is the current epoch's maximum context id; run-time ids in
	// (maxID, 2*maxID+1] mark saved context on the ccStack.
	maxID uint64
	// dicts holds one decode dictionary per epoch (Fig. 6).
	dicts []*blenc.Assignment
	// idx holds one immutable decode index per epoch, parallel to
	// dicts; it lets the decoder run without touching the live (still
	// growing) call graph.
	idx []*decodeIndex
	// tail is the set of functions known to contain tail calls; calls
	// into them must save/restore the encoding context (paper §5.2).
	tail map[prog.FuncID]bool
	// compress is the set of back edges with Fig. 5e repetition
	// compression enabled.
	compress map[graph.EdgeKey]bool
}

// cur returns the current published snapshot. Callers holding d.mu see
// the snapshot their own mutations (if any) have already published;
// lock-free callers see some recent consistent snapshot.
func (d *DACCE) cur() *encSnap { return d.snap.Load() }

// withTailLocked returns a copy of s whose tail set additionally
// contains fn. Caller holds d.mu and publishes the result.
func (s *encSnap) withTailLocked(fn prog.FuncID) *encSnap {
	tail := make(map[prog.FuncID]bool, len(s.tail)+1)
	for k, v := range s.tail {
		tail[k] = v
	}
	tail[fn] = true
	ns := *s
	ns.tail = tail
	return &ns
}

// decodeIndex is the per-epoch decode structure: for every function,
// the encoded in-edges of the epoch with their code ranges (Algorithm 1
// lines 26–33), plus, in the live encoder only, an edge lookup table
// for crediting sample-estimated frequencies. It is built once per
// epoch — by the pass that opens the epoch, or from a snapshot by
// Restore and NewDecoder — and immutable afterwards, so the decoder and
// the sampling controller can walk it lock-free while the live graph
// keeps growing on other threads. Building it reads the epoch's dense
// dictionary directly: the encoded edges are the Encoded entries of
// asn.Codes, in Edge.Seq order.
//
// An epoch's encoded edge set is frozen by construction: edges
// discovered after the pass are unencoded (they live on the ccStack and
// decode through the program's static site table, not through the
// graph), so the index is complete for every capture of its epoch.
type decodeIndex struct {
	// in maps a function to its encoded in-edges at this epoch, in
	// Node.In insertion order, each carrying the caller's numCC for the
	// range check.
	in map[prog.FuncID][]inEdge
	// edges is the heat table: it maps every edge that existed when the
	// index was built to its graph edge, whose Freq field is updated
	// atomically by the sampling controller. Only the live encoder's
	// OnSample reads it, so only the live encoder fills it (heatTable);
	// standalone decoders (NewDecoder) leave it nil. Edges discovered
	// later are absent; they are counted directly by their unencoded
	// stubs, so no credit is lost.
	edges map[graph.EdgeKey]*graph.Edge
}

// inEdge is one encoded in-edge of a function at one epoch.
type inEdge struct {
	site   prog.SiteID
	caller prog.FuncID
	code   uint64
	ncc    uint64
}

// newInEdge is e's decode-index entry under asn.
func newInEdge(g *graph.Graph, asn *blenc.Assignment, e *graph.Edge, code uint64) inEdge {
	return inEdge{site: e.Site, caller: e.Caller, code: code, ncc: asn.NumCCOf(g.Node(e.Caller))}
}

// newDecodeIndex builds the immutable decode index for one epoch's
// assignment, without a heat table. The caller keeps g from being
// mutated meanwhile: it holds d.mu, or owns g outright (restored and
// offline decoders). g holds every edge asn codes (it may hold more).
func newDecodeIndex(g *graph.Graph, asn *blenc.Assignment) *decodeIndex {
	ix := &decodeIndex{in: make(map[prog.FuncID][]inEdge)}
	for seq, code := range asn.Codes {
		if !code.Encoded {
			continue
		}
		e := g.Edges[seq]
		ix.in[e.Target] = append(ix.in[e.Target], newInEdge(g, asn, e, code.Value))
	}
	return ix
}

// heatTable builds the live encoder's sample-credit table over edges.
func heatTable(edges []*graph.Edge) map[graph.EdgeKey]*graph.Edge {
	t := make(map[graph.EdgeKey]*graph.Edge, len(edges))
	for _, e := range edges {
		t[edgeKeyOf(e)] = e
	}
	return t
}

// newDecodeIndexes builds one decode index per epoch dictionary. The
// final graph is a superset of every epoch's edge set; edges discovered
// after an epoch's pass lie past the end of its Codes and are skipped,
// so each index matches the one the live pass built.
func newDecodeIndexes(g *graph.Graph, dicts []*blenc.Assignment) []*decodeIndex {
	idx := make([]*decodeIndex, 0, len(dicts))
	for _, asn := range dicts {
		idx = append(idx, newDecodeIndex(g, asn))
	}
	return idx
}

// deltaDecodeIndex derives the next epoch's decode index from the
// previous one after an incremental Refresh, rebuilding in-edge lists
// only for the functions the pass renumbered. It mirrors the
// encSnap/compress copy-on-write idiom: the map headers are copied (an
// O(nodes + edges) pointer copy, paid off-pause during the concurrent
// prepare), but the in-edge lists of unaffected functions are shared
// with the previous epoch and no code or numCC is recomputed for them.
//
// The dirty set is affected ∪ targets(changed): affected alone would
// already suffice — a function's in-edge ranges depend only on its own
// in-edge codes and its callers' numCC, both of which only change for
// renumbered nodes — but the union keeps the index sound even against
// a Refresh that reports a changed edge outside its affected closure.
//
// Returns the new index and how many in-edge entries were (re)built,
// for per-phase cost attribution.
func deltaDecodeIndex(g *graph.Graph, prev *decodeIndex, asn *blenc.Assignment, changed []*graph.Edge, affected map[prog.FuncID]bool) (*decodeIndex, int) {
	dirty := make(map[prog.FuncID]bool, len(affected)+len(changed))
	for fn := range affected {
		dirty[fn] = true
	}
	for _, e := range changed {
		dirty[e.Target] = true
	}

	ix := &decodeIndex{
		in:    make(map[prog.FuncID][]inEdge, len(prev.in)+len(dirty)),
		edges: make(map[graph.EdgeKey]*graph.Edge, len(prev.edges)+len(changed)),
	}
	for k, e := range prev.edges {
		ix.edges[k] = e
	}
	for _, e := range changed {
		if k := edgeKeyOf(e); ix.edges[k] == nil {
			ix.edges[k] = e
		}
	}
	for fn, list := range prev.in {
		if !dirty[fn] {
			ix.in[fn] = list
		}
	}
	rebuilt := 0
	for fn := range dirty {
		n := g.Node(fn)
		if n == nil {
			continue
		}
		// Node.In insertion order is the g.Edges registration order
		// filtered to this target, so the rebuilt list matches what
		// newDecodeIndex would produce entry for entry.
		var list []inEdge
		for _, e := range n.In {
			code, ok := asn.CodeOf(e)
			if !ok || !code.Encoded {
				continue
			}
			list = append(list, newInEdge(g, asn, e, code.Value))
			rebuilt++
		}
		if len(list) > 0 {
			ix.in[fn] = list
		}
	}
	return ix, rebuilt
}
