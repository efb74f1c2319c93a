package core

import (
	"maps"

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
//   - idx grows by one entry per epoch and shares its prefix with the
//     previous snapshot (the slice is append-copied, the *decodeIndex
//     elements are shared and frozen);
//   - epoch == len(idx)-1 and maxID == idx[epoch].asn.MaxID;
//   - tail and compress are never mutated in place: a new map replaces
//     the old one when an entry is added.
type encSnap struct {
	// epoch is the current gTimeStamp.
	epoch uint32
	// maxID is the current epoch's maximum context id; run-time ids in
	// (maxID, 2*maxID+1] mark saved context on the ccStack.
	maxID uint64
	// idx holds one immutable decode record per epoch (Fig. 6): its
	// dictionary and in-edge index. It lets the decoder run without
	// touching the live (still growing) call graph.
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

// asn returns the current epoch's dictionary.
func (s *encSnap) asn() *blenc.Assignment { return s.idx[len(s.idx)-1].asn }

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

// decodeIndex is one epoch's decode record (paper Fig. 6): the epoch's
// dictionary and, for every function, its in-edges at that epoch with
// their code ranges (Algorithm 1 lines 26–33). It is the only per-epoch
// edge table. The decoder walks it, and the live encoder's sampling
// controller credits sample heat through it: OnSample finds each
// decoded frame's edge among its target's entries. It is built once per
// epoch — by the pass that opens the epoch, or from a snapshot by
// Restore and NewDecoder (loadDecodeIndexes) — and immutable afterwards,
// so clean in-edge lists are shared between epochs, and the decoder and
// the sampling controller can walk it lock-free while the live graph
// keeps growing on other threads.
//
// An index lists the edges the dictionary covers, g.Edges[:len(Codes)],
// each once under its target in Node.In order; Restore's current epoch
// alone lists every restored edge. An edge the epoch does not encode (a
// back edge, a budget exclusion, or an edge past the dictionary) gets
// code 0 and ncc 0, an empty range that findEdge never matches. Edges
// discovered after the index was built are absent. That costs the
// decoder nothing: they are unencoded at this epoch, so they live on the
// ccStack and decode through the program's static site table. It does
// cost heat: a sampled frame through such an edge earns no Freq credit
// until a later epoch's index lists the edge.
type decodeIndex struct {
	// asn is the epoch's dictionary.
	asn *blenc.Assignment
	// in maps each function to its in-edge entries at this epoch.
	in map[prog.FuncID][]inEdge
}

// inEdge is one in-edge of a function at one epoch: the edge and its
// code range [code, code+ncc), where ncc is the caller's numCC.
type inEdge struct {
	e    *graph.Edge
	code uint64
	ncc  uint64
}

// newInEdge is e's entry under asn, given e's code there: its code
// range, or the empty range when the epoch does not encode e.
func newInEdge(g *graph.Graph, asn *blenc.Assignment, e *graph.Edge, code blenc.Code) inEdge {
	if !code.Encoded {
		return inEdge{e: e}
	}
	return inEdge{e: e, code: code.Value, ncc: asn.NumCCOf(g.Node(e.Caller))}
}

// newDecodeIndex builds the immutable decode index of asn over edges,
// a prefix of g.Edges. The caller keeps g from being mutated meanwhile:
// it holds d.mu, or owns g outright (restored and offline decoders).
func newDecodeIndex(g *graph.Graph, asn *blenc.Assignment, edges []*graph.Edge) *decodeIndex {
	ix := &decodeIndex{asn: asn, in: make(map[prog.FuncID][]inEdge)}
	for _, e := range edges {
		code, _ := asn.CodeOf(e)
		ix.in[e.Target] = append(ix.in[e.Target], newInEdge(g, asn, e, code))
	}
	return ix
}

// loadDecodeIndexes builds the decode indexes of a loaded state's
// dictionaries over g, the graph rebuilt from the same state: the first
// epoch's from scratch, and each later one derived from its
// predecessor's, so loading rebuilds only the in-edge lists each epoch
// changed rather than epochs × edges entries. Epoch i lists the edges its dictionary covers,
// g.Edges[:len(dicts[i].Codes)]; with listAll, the last epoch lists
// every edge of g (Restore's current-epoch rule). The final graph is a
// superset of every epoch's edge set, so each index equals the one the
// live pass built, and newDecodeIndex over the same edges.
func loadDecodeIndexes(g *graph.Graph, dicts []*blenc.Assignment, listAll bool) []*decodeIndex {
	idx := make([]*decodeIndex, len(dicts))
	dirty := newDirtyNodes(g)
	prevListed := 0
	for i, asn := range dicts {
		listed := len(asn.Codes)
		if listAll && i == len(dicts)-1 {
			listed = len(g.Edges)
		}
		if i == 0 {
			idx[i] = newDecodeIndex(g, asn, g.Edges[:listed])
		} else {
			dirty.diff(g, dicts[i-1], asn, prevListed, listed)
			idx[i], _ = deriveDecodeIndex(g, idx[i-1], asn, listed, dirty.nodes)
			dirty.reset()
		}
		prevListed = listed
	}
	return idx
}

// dirtyNodes is the set of functions whose in-edge lists a derived
// index must rebuild, each listed once.
type dirtyNodes struct {
	mark  []bool // by Node.Seq
	nodes []*graph.Node
}

func newDirtyNodes(g *graph.Graph) *dirtyNodes {
	return &dirtyNodes{mark: make([]bool, len(g.NodeSeq))}
}

func (s *dirtyNodes) add(n *graph.Node) {
	if n != nil && !s.mark[n.Seq] {
		s.mark[n.Seq] = true
		s.nodes = append(s.nodes, n)
	}
}

// reset empties the set for the next derivation.
func (s *dirtyNodes) reset() {
	for _, n := range s.nodes {
		s.mark[n.Seq] = false
	}
	s.nodes = s.nodes[:0]
}

// diff adds every function whose in-edge list differs between prev's
// index, listing g.Edges[:prevListed], and asn's, listing
// g.Edges[:listed]: the targets of edges only one of them lists, of
// edges whose code changed, and of every out-edge asn lists from a node
// whose numCC changed, because an entry's range [code, code+ncc) holds
// its caller's numCC as well as its own code.
func (s *dirtyNodes) diff(g *graph.Graph, prev, asn *blenc.Assignment, prevListed, listed int) {
	lo, hi := min(prevListed, listed), max(prevListed, listed)
	for _, e := range g.Edges[lo:hi] {
		s.add(g.Node(e.Target))
	}
	for _, e := range g.Edges[:lo] {
		was, _ := prev.CodeOf(e)
		now, _ := asn.CodeOf(e)
		if was != now {
			s.add(g.Node(e.Target))
		}
	}
	nodes := min(max(len(prev.NumCC), len(asn.NumCC)), len(g.NodeSeq))
	for seq := 0; seq < nodes; seq++ {
		n := g.NodeSeq[seq]
		if prev.NumCCOf(n) == asn.NumCCOf(n) {
			continue
		}
		for _, e := range n.Out {
			if e.Seq() < listed {
				s.add(g.Node(e.Target))
			}
		}
	}
}

// deltaDecodeIndex derives the next epoch's decode index from the
// previous one after an incremental Refresh, rebuilding in-edge lists
// only for the functions the pass renumbered. The map header is copied
// (an O(nodes) copy, paid off-pause during the concurrent prepare), but
// the in-edge lists of unaffected functions are shared with the
// previous epoch and no code or numCC is recomputed for them. Refresh's
// changed set includes every edge registered since prev, so the result
// lists prev's edges plus changed: every edge asn covers.
//
// The dirty set is affected ∪ targets(changed): affected alone would
// already suffice — a function's in-edge ranges depend only on its own
// in-edge codes and its callers' numCC, both of which only change for
// renumbered nodes — but the union keeps the index sound even against
// a Refresh that reports a changed edge outside its affected closure.
//
// Returns the new index and how many encoded in-edge entries were
// (re)built, for per-phase cost attribution.
func deltaDecodeIndex(g *graph.Graph, prev *decodeIndex, asn *blenc.Assignment, changed []*graph.Edge, affected map[prog.FuncID]bool) (*decodeIndex, int) {
	dirty := newDirtyNodes(g)
	for fn := range affected {
		dirty.add(g.Node(fn))
	}
	for _, e := range changed {
		dirty.add(g.Node(e.Target))
	}
	return deriveDecodeIndex(g, prev, asn, len(asn.Codes), dirty.nodes)
}

// deriveDecodeIndex is the one rebuild routine behind every index but
// an epoch's first: it derives asn's index, listing g.Edges[:listed],
// from prev, the previous epoch's. Every function outside dirty shares
// prev's in-edge list; each dirty function's list is rebuilt from
// Node.In. The caller guarantees that dirty holds every function whose
// list differs from prev's. Returns the index and how many encoded
// entries were rebuilt.
func deriveDecodeIndex(g *graph.Graph, prev *decodeIndex, asn *blenc.Assignment, listed int, dirty []*graph.Node) (*decodeIndex, int) {
	ix := &decodeIndex{asn: asn, in: maps.Clone(prev.in)}
	rebuilt := 0
	for _, n := range dirty {
		// Node.In is in registration order, the g.Edges order filtered to
		// this target, so its listed edges are a prefix of it and the
		// rebuilt list matches what newDecodeIndex would produce entry
		// for entry.
		k := 0
		for k < len(n.In) && n.In[k].Seq() < listed {
			k++
		}
		if k == 0 {
			delete(ix.in, n.Fn)
			continue
		}
		list := make([]inEdge, k)
		for i, e := range n.In[:k] {
			code, _ := asn.CodeOf(e)
			list[i] = newInEdge(g, asn, e, code)
			if code.Encoded {
				rebuilt++
			}
		}
		ix.in[n.Fn] = list
	}
	return ix, rebuilt
}
