package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"dacce/internal/blenc"
	"dacce/internal/graph"
	"dacce/internal/prog"
)

// EncoderState is the complete, serializable encoder state: everything
// DACCE accumulated during a run — the discovered call graph with its
// observed edge frequencies, one decode dictionary per epoch (the
// epoch-keyed archive that keeps ids captured under old gTimeStamps
// decodable, Fig. 6), the tail and recursion-compression sets, and the
// adaptive controller's backoff level. It is the unit of persistence:
// internal/persist turns it into a versioned binary snapshot, Restore
// turns it back into a warm encoder that re-installs with zero handler
// traps, and NewDecoder turns it into a standalone decode service that
// shares nothing with the process that produced it.
//
// All slices are in deterministic order (insertion order for graph
// structure, sorted order for set and map dumps), so marshalling the
// same state twice yields identical bytes and a content hash identifies
// an encoding.
type EncoderState struct {
	// Budget is the context-id budget the state was encoded under.
	Budget uint64
	// Epoch is the current gTimeStamp; always len(Epochs)-1.
	Epoch uint32
	// Backoff is the adaptive controller's trigger-backoff level, so a
	// warm-started encoder keeps re-encoding at steady-state cadence
	// instead of restarting the aggressive warm-up schedule.
	Backoff uint32
	// GTS is the number of re-encoding passes run so far.
	GTS int
	// EdgesDiscovered counts first invocations seen by the handler.
	EdgesDiscovered int

	// Entry is the program entry function.
	Entry prog.FuncID
	// Funcs holds every function's name, indexed by FuncID. Together
	// with Sites it lets NewDecoder rebuild a skeletal program, and
	// Restore verify the snapshot matches the live program.
	Funcs []string
	// Sites holds every call site's static description, indexed by
	// SiteID.
	Sites []StateSite

	// Roots lists the traversal roots (entry first, then thread entry
	// points) in registration order.
	Roots []prog.FuncID
	// Nodes lists the graph's functions in insertion order, preserving
	// the deterministic iteration order future re-encodings depend on.
	Nodes []prog.FuncID
	// Edges lists the discovered call edges in insertion order with
	// their observed frequencies (the hot-first ordering input).
	Edges []StateEdge

	// Tail is the sorted set of functions known to contain tail calls.
	Tail []prog.FuncID
	// Compress is the sorted set of back edges with Fig. 5e repetition
	// compression enabled.
	Compress []graph.EdgeKey

	// Epochs holds one decode dictionary per gTimeStamp, oldest first.
	Epochs []StateEpoch
}

// StateSite is one call site's static description.
type StateSite struct {
	Caller prog.FuncID
	Kind   uint8
}

// StateEdge is one discovered call edge in graph insertion order.
type StateEdge struct {
	Site   prog.SiteID
	Target prog.FuncID
	Freq   int64
}

// StateEpoch is one epoch's decode dictionary.
type StateEpoch struct {
	MaxID             uint64
	Overflowed        bool
	UnrestrictedMaxID uint64
	Excluded          int
	EncodedEdges      int
	// NumCC maps functions to their calling-context counts, sorted by
	// function id.
	NumCC []StateNumCC
	// Codes lists the code of every edge that existed when the epoch's
	// pass ran. The graph is append-only, so those are a prefix of
	// EncoderState.Edges: Codes[i] is edge i's code, for i below
	// len(Codes), and Validate rejects any other layout.
	Codes []StateCode
}

// StateNumCC is one function's calling-context count at one epoch.
type StateNumCC struct {
	Fn    prog.FuncID
	NumCC uint64
}

// StateCode is one edge's code at one epoch. Value sits beside Edge so
// the two flags pack after it: 24 bytes instead of 32 per edge per
// epoch.
type StateCode struct {
	// Edge indexes EncoderState.Edges.
	Edge    int
	Value   uint64
	Encoded bool
	Back    bool
}

// ExportState snapshots the full encoder state. Safe to call during or
// after a run; the dictionaries come from the published snapshot, the
// mutex covers the graph iteration.
func (d *DACCE) ExportState() *EncoderState {
	snap := d.cur()
	d.mu.Lock()
	defer d.mu.Unlock()

	// Register edges still sitting in per-thread publication buffers so
	// the exported graph is complete as of the export — mid-run exports
	// (snapshot archiving) rely on the per-buffer mutexes, not a world
	// stop. Pending samples credit their heat first, so every exported
	// Freq counts every sample taken before the export.
	d.drainAllLocked()
	d.drainSamplesLocked()

	st := &EncoderState{
		Budget:          d.opt.Budget,
		Epoch:           snap.epoch,
		Backoff:         d.backoff.Load(),
		GTS:             d.stats.GTS,
		EdgesDiscovered: int(d.edgesDiscovered.Load()),
		Entry:           d.p.Entry,
	}
	for _, f := range d.p.Funcs {
		st.Funcs = append(st.Funcs, f.Name)
	}
	for _, s := range d.p.Sites {
		st.Sites = append(st.Sites, StateSite{Caller: s.Caller, Kind: uint8(s.Kind)})
	}
	st.Roots = append(st.Roots, d.g.Roots()...)
	for _, n := range d.g.NodeSeq {
		st.Nodes = append(st.Nodes, n.Fn)
	}
	for _, e := range d.g.Edges {
		// Freq is bumped atomically on the lock-free encoded path, so a
		// mid-run export must read it the same way.
		st.Edges = append(st.Edges, StateEdge{Site: e.Site, Target: e.Target, Freq: atomic.LoadInt64(&e.Freq)})
	}
	for fn := range snap.tail {
		st.Tail = append(st.Tail, fn)
	}
	sort.Slice(st.Tail, func(i, j int) bool { return st.Tail[i] < st.Tail[j] })
	for k := range snap.compress {
		st.Compress = append(st.Compress, k)
	}
	sort.Slice(st.Compress, func(i, j int) bool {
		if st.Compress[i].Site != st.Compress[j].Site {
			return st.Compress[i].Site < st.Compress[j].Site
		}
		return st.Compress[i].Target < st.Compress[j].Target
	})
	for _, ix := range snap.idx {
		asn := ix.asn
		ep := StateEpoch{
			MaxID:             asn.MaxID,
			Overflowed:        asn.Overflowed,
			UnrestrictedMaxID: asn.UnrestrictedMaxID,
			Excluded:          asn.Excluded,
			EncodedEdges:      asn.EncodedEdges,
		}
		for seq, n := range asn.NumCC {
			if n != 0 { // 0: the node did not exist at this epoch
				ep.NumCC = append(ep.NumCC, StateNumCC{Fn: d.g.NodeSeq[seq].Fn, NumCC: n})
			}
		}
		sort.Slice(ep.NumCC, func(i, j int) bool { return ep.NumCC[i].Fn < ep.NumCC[j].Fn })
		for seq, code := range asn.Codes {
			ep.Codes = append(ep.Codes, StateCode{
				Edge: seq, Encoded: code.Encoded, Value: code.Value, Back: code.Back,
			})
		}
		st.Epochs = append(st.Epochs, ep)
	}
	return st
}

// Validate checks the state's internal consistency: every id in range,
// the epoch chain well-formed, and every epoch's codes a prefix of the
// edge list in order (the dense dictionaries read Codes[i] as edge i's
// code, so a gap or a reordering would put codes on the wrong edges and
// decode to a wrong context). Deserialized snapshots go through this
// before any decode structure is built, so corrupt input yields errors,
// never panics.
func (st *EncoderState) Validate() error {
	nf, ns := len(st.Funcs), len(st.Sites)
	if nf == 0 {
		return fmt.Errorf("core: state has no functions")
	}
	if int(st.Entry) < 0 || int(st.Entry) >= nf {
		return fmt.Errorf("core: state entry f%d out of range (%d funcs)", st.Entry, nf)
	}
	for i, s := range st.Sites {
		if int(s.Caller) < 0 || int(s.Caller) >= nf {
			return fmt.Errorf("core: state site %d has caller f%d out of range", i, s.Caller)
		}
	}
	checkFn := func(what string, fn prog.FuncID) error {
		if int(fn) < 0 || int(fn) >= nf {
			return fmt.Errorf("core: state %s f%d out of range", what, fn)
		}
		return nil
	}
	for _, fn := range st.Roots {
		if err := checkFn("root", fn); err != nil {
			return err
		}
	}
	for _, fn := range st.Nodes {
		if err := checkFn("node", fn); err != nil {
			return err
		}
	}
	for i, e := range st.Edges {
		if int(e.Site) < 0 || int(e.Site) >= ns {
			return fmt.Errorf("core: state edge %d site s%d out of range", i, e.Site)
		}
		if err := checkFn("edge target", e.Target); err != nil {
			return err
		}
	}
	for _, fn := range st.Tail {
		if err := checkFn("tail entry", fn); err != nil {
			return err
		}
	}
	for i, k := range st.Compress {
		if int(k.Site) < 0 || int(k.Site) >= ns {
			return fmt.Errorf("core: state compress entry %d site s%d out of range", i, k.Site)
		}
		if err := checkFn("compress target", k.Target); err != nil {
			return err
		}
	}
	if len(st.Epochs) == 0 {
		return fmt.Errorf("core: state has no epochs")
	}
	if int(st.Epoch) != len(st.Epochs)-1 {
		return fmt.Errorf("core: state epoch %d does not match %d dictionaries", st.Epoch, len(st.Epochs))
	}
	for ei, ep := range st.Epochs {
		for _, nc := range ep.NumCC {
			// The label is built only for the failing entry: a valid
			// snapshot has one numCC entry per node per epoch.
			if int(nc.Fn) < 0 || int(nc.Fn) >= nf {
				return checkFn(fmt.Sprintf("epoch %d numCC key", ei), nc.Fn)
			}
		}
		if len(ep.Codes) > len(st.Edges) {
			return fmt.Errorf("core: state epoch %d has %d codes for %d edges", ei, len(ep.Codes), len(st.Edges))
		}
		for i, c := range ep.Codes {
			if c.Edge != i {
				return fmt.Errorf("core: state epoch %d code %d references edge %d, want edge %d (codes must list edges 0..k-1 in order)", ei, i, c.Edge, i)
			}
		}
	}
	return nil
}

// matches verifies the state was exported from a program identical to
// p: same entry, same function names, same site callers and kinds. A
// snapshot from a different (or differently built) program must never
// silently decode against the wrong site table.
func (st *EncoderState) matches(p *prog.Program) error {
	if len(st.Funcs) != p.NumFuncs() {
		return fmt.Errorf("core: state has %d funcs, program has %d", len(st.Funcs), p.NumFuncs())
	}
	if len(st.Sites) != p.NumSites() {
		return fmt.Errorf("core: state has %d sites, program has %d", len(st.Sites), p.NumSites())
	}
	if st.Entry != p.Entry {
		return fmt.Errorf("core: state entry f%d, program entry f%d", st.Entry, p.Entry)
	}
	for i, name := range st.Funcs {
		if got := p.Funcs[i].Name; got != name {
			return fmt.Errorf("core: state func f%d is %q, program has %q", i, name, got)
		}
	}
	for i, s := range st.Sites {
		ps := p.Sites[i]
		if s.Caller != ps.Caller || prog.Kind(s.Kind) != ps.Kind {
			return fmt.Errorf("core: state site s%d (caller f%d kind %d) does not match program (caller f%d kind %s)",
				i, s.Caller, s.Kind, ps.Caller, ps.Kind)
		}
	}
	return nil
}

// assignments converts the per-epoch dictionaries back to blenc form,
// dense against g, the graph rebuildGraph made from the same state.
func (st *EncoderState) assignments(g *graph.Graph) []*blenc.Assignment {
	// State edge i is graph edge i, unless an earlier duplicate of its
	// (site, target) registered the edge first; a duplicate's code then
	// overwrites the first one's, as the last write to a keyed table
	// would. Validate guarantees each epoch's codes are the state edges
	// 0..k-1, whose graph edges are in turn a prefix of g.Edges.
	seqs := make([]int, len(st.Edges))
	for i, se := range st.Edges {
		seqs[i] = g.Edge(se.Site, se.Target).Seq()
	}
	dicts := make([]*blenc.Assignment, 0, len(st.Epochs))
	for _, ep := range st.Epochs {
		asn := &blenc.Assignment{
			MaxID:             ep.MaxID,
			Overflowed:        ep.Overflowed,
			UnrestrictedMaxID: ep.UnrestrictedMaxID,
			Excluded:          ep.Excluded,
			EncodedEdges:      ep.EncodedEdges,
		}
		// NumCC is keyed by the rebuilt graph's node order, which puts
		// the roots first, so an epoch's nodes need not be a prefix of
		// it: nodes the epoch lacks stay 0. Entries for functions that
		// are not graph nodes are dropped; numCC is only ever read for
		// an edge's caller, which always is one.
		ncc := 0
		for _, nc := range ep.NumCC {
			if n := g.Node(nc.Fn); n != nil && n.Seq >= ncc {
				ncc = n.Seq + 1
			}
		}
		asn.NumCC = make([]uint64, ncc)
		for _, nc := range ep.NumCC {
			if n := g.Node(nc.Fn); n != nil {
				asn.NumCC[n.Seq] = nc.NumCC
			}
		}
		asn.Codes = make([]blenc.Code, 0, len(ep.Codes))
		for i, c := range ep.Codes {
			code := blenc.Code{Encoded: c.Encoded, Value: c.Value, Back: c.Back}
			if seq := seqs[i]; seq < len(asn.Codes) {
				asn.Codes[seq] = code
			} else {
				asn.Codes = append(asn.Codes, code)
			}
		}
		dicts = append(dicts, asn)
	}
	return dicts
}

// rebuildGraph reconstructs the call graph on program p, preserving
// node and edge insertion order and observed frequencies.
func (st *EncoderState) rebuildGraph(p *prog.Program) *graph.Graph {
	g := graph.New(p)
	for _, fn := range st.Roots {
		g.AddRoot(fn)
	}
	for _, fn := range st.Nodes {
		g.AddNode(fn)
	}
	for _, se := range st.Edges {
		e, _ := g.AddEdge(se.Site, se.Target)
		e.Freq = se.Freq
	}
	// Refresh the back-edge classification so the next adaptive pass
	// sees the same Edge.Back view a continuously running encoder would.
	if g.NumEdges() > 0 {
		g.ClassifyBackEdges()
	}
	return g
}

// Restore builds a warm DACCE encoder for program p from a previously
// exported state: the call graph, every epoch's decode dictionary and
// index, the tail and compression sets, and the controller backoff are
// re-installed exactly as exported. Installing the result on a machine
// re-patches every already-discovered call site, so a restarted process
// replaying the same workload executes zero runtime-handler traps.
//
// The state must have been exported from a program identical to p
// (same functions, sites and entry); Restore fails otherwise.
func Restore(p *prog.Program, opt Options, st *EncoderState) (*DACCE, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	if err := st.matches(p); err != nil {
		return nil, err
	}
	if opt.Budget == 0 {
		// Future re-encodings continue under the budget the snapshot's
		// encodings were computed with.
		opt.Budget = st.Budget
	}
	d := New(p, opt)
	g := st.rebuildGraph(p)
	dicts := st.assignments(g)
	// Only the current epoch is ever sampled after a restore, so only
	// its index lists every restored edge, including those discovered
	// after the snapshot's last pass: they earn sample heat from the
	// first sample on. The older epochs list what their codes cover.
	idx := loadDecodeIndexes(g, dicts, true)
	tail := make(map[prog.FuncID]bool, len(st.Tail))
	for _, fn := range st.Tail {
		tail[fn] = true
	}
	compress := make(map[graph.EdgeKey]bool, len(st.Compress))
	for _, k := range st.Compress {
		compress[k] = true
	}

	d.mu.Lock()
	d.g = g
	d.stats.GTS = st.GTS
	d.edgesDiscovered.Store(int64(st.EdgesDiscovered))
	d.edgeCount.Store(int64(g.NumEdges()))
	d.backoff.Store(st.Backoff)
	// The epoch counter jumps from 0 to the snapshot's epoch: size the
	// per-epoch capture refcounts to cover it and raise the DAG
	// generation in lockstep, exactly as commitPlanLocked does for the
	// incremental case — otherwise the first Capture would index past
	// the refcount vector, and post-restore decodes would stamp nodes
	// below any future collection floor.
	d.growRefsLocked(st.Epoch)
	d.snap.Store(&encSnap{
		epoch:    st.Epoch,
		maxID:    dicts[len(dicts)-1].MaxID,
		idx:      idx,
		tail:     tail,
		compress: compress,
	})
	d.dag.RaiseGen(uint64(st.Epoch))
	d.mu.Unlock()
	return d, nil
}

// NewDecoder builds a standalone decoder from the state: a skeletal
// program (names, site callers and kinds) and one immutable decode
// index per epoch, built over the rebuilt call graph, which the indexes
// keep alive. The decoder shares nothing with the process that exported
// the state and is safe for concurrent use — the decode-as-a-service
// path of cmd/dacced. Nothing credits edge frequencies through it.
func (st *EncoderState) NewDecoder() (*Decoder, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	p := st.skeleton()
	g := st.rebuildGraph(p)
	return NewDecoder(p, g, st.assignments(g)), nil
}

// skeleton is the program NewDecoder decodes against: the state's
// function names, site callers and kinds, and empty bodies. The
// functions and sites live in one backing array each, two allocations
// in place of one per function and site.
func (st *EncoderState) skeleton() *prog.Program {
	p := &prog.Program{
		Entry: st.Entry,
		Funcs: make([]*prog.Function, len(st.Funcs)),
		Sites: make([]*prog.Site, len(st.Sites)),
		PLT:   map[prog.SiteID]prog.FuncID{},
	}
	funcs := make([]prog.Function, len(st.Funcs))
	for i, name := range st.Funcs {
		funcs[i] = prog.Function{ID: prog.FuncID(i), Name: name, Body: func(prog.Exec) {}}
		p.Funcs[i] = &funcs[i]
	}
	sites := make([]prog.Site, len(st.Sites))
	for i, s := range st.Sites {
		sites[i] = prog.Site{ID: prog.SiteID(i), Caller: s.Caller, Kind: prog.Kind(s.Kind)}
		p.Sites[i] = &sites[i]
	}
	return p
}

// Equal reports whether two states are identical field for field — the
// round-trip check the snapshot codec's tests and fuzz targets rely on.
func (st *EncoderState) Equal(o *EncoderState) bool {
	if st.Budget != o.Budget || st.Epoch != o.Epoch || st.Backoff != o.Backoff ||
		st.GTS != o.GTS || st.EdgesDiscovered != o.EdgesDiscovered || st.Entry != o.Entry ||
		len(st.Funcs) != len(o.Funcs) || len(st.Sites) != len(o.Sites) ||
		len(st.Roots) != len(o.Roots) || len(st.Nodes) != len(o.Nodes) ||
		len(st.Edges) != len(o.Edges) || len(st.Tail) != len(o.Tail) ||
		len(st.Compress) != len(o.Compress) || len(st.Epochs) != len(o.Epochs) {
		return false
	}
	for i := range st.Funcs {
		if st.Funcs[i] != o.Funcs[i] {
			return false
		}
	}
	for i := range st.Sites {
		if st.Sites[i] != o.Sites[i] {
			return false
		}
	}
	for i := range st.Roots {
		if st.Roots[i] != o.Roots[i] {
			return false
		}
	}
	for i := range st.Nodes {
		if st.Nodes[i] != o.Nodes[i] {
			return false
		}
	}
	for i := range st.Edges {
		if st.Edges[i] != o.Edges[i] {
			return false
		}
	}
	for i := range st.Tail {
		if st.Tail[i] != o.Tail[i] {
			return false
		}
	}
	for i := range st.Compress {
		if st.Compress[i] != o.Compress[i] {
			return false
		}
	}
	for i := range st.Epochs {
		a, b := &st.Epochs[i], &o.Epochs[i]
		if a.MaxID != b.MaxID || a.Overflowed != b.Overflowed ||
			a.UnrestrictedMaxID != b.UnrestrictedMaxID || a.Excluded != b.Excluded ||
			a.EncodedEdges != b.EncodedEdges ||
			len(a.NumCC) != len(b.NumCC) || len(a.Codes) != len(b.Codes) {
			return false
		}
		for j := range a.NumCC {
			if a.NumCC[j] != b.NumCC[j] {
				return false
			}
		}
		for j := range a.Codes {
			if a.Codes[j] != b.Codes[j] {
				return false
			}
		}
	}
	return true
}
