// Package graph implements the dynamic call graph both encoders operate
// on: nodes are functions, edges are (call site → target) pairs. DACCE
// grows the graph one invoked edge at a time; PCCE builds it up front
// from static information. The package also provides the two analyses
// the encoders need: back-edge classification by depth-first search and
// a topological order of the remaining acyclic graph.
//
// The graph is deliberately append-only: nodes and edges are never
// removed, so *Edge and *Node pointers remain valid across re-encodings,
// and an edge's registration sequence number (Edge.Seq) indexes the
// per-epoch decode dictionaries (paper Fig. 6): the edges that existed
// when a pass ran are exactly the first len(codes) edges. All iteration
// orders are insertion orders, which makes every analysis — and
// therefore every encoding — deterministic.
//
// Synchronization is split in two. Edge existence — the (site, target)
// maps consulted and grown by the runtime handler on every trap — is
// sharded by SiteID with one mutex per shard, so concurrent discovery
// on different sites never contends (DiscoverEdge, Edge, EdgesAt are
// safe to call from any thread). The registry — NodeSeq, Edges, the
// node table and the In/Out adjacency lists that the analyses walk —
// stays the caller's job: DACCE registers discovered edges in batches
// under its scheme lock (RegisterEdges), and analyses run with the
// world stopped. AddEdge composes the two steps for single-threaded
// builders (PCCE, state restore).
package graph

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dacce/internal/prog"
)

// Node is a function that has appeared in the call graph.
type Node struct {
	Fn   prog.FuncID
	In   []*Edge // edges targeting this function, in insertion order
	Out  []*Edge // edges leaving this function, in insertion order
	Seq  int     // insertion sequence number
	name string
}

// Name returns the function name captured at insertion.
func (n *Node) Name() string { return n.name }

// Edge is a call edge. The pair (Site, Target) is unique: a direct site
// has one edge, an indirect site one edge per distinct run-time target.
type Edge struct {
	// seq is the registration sequence number (see Seq). Atomic because
	// DACCE's trap path looks an edge's code up by it without the
	// registry lock, while RegisterEdges assigns it under that lock.
	seq    atomic.Int32
	Site   prog.SiteID
	Caller prog.FuncID
	Target prog.FuncID
	Kind   prog.Kind

	// Freq is the observed invocation count used by adaptive encoding to
	// order edges hottest-first. No stub counts it, encoded or not. DACCE
	// adds one per runtime-handler trap on the edge, an injected
	// discovery's credited count, and one per decoded sample frame on the
	// edge once an epoch's decode index lists it; PCCE sets it from a
	// profile. Bumped with atomic adds by traps and the sampling
	// controller while the world runs, and read atomically by encoding
	// passes (which may prepare concurrently with live threads).
	Freq int64

	// Back marks the edge as a back edge in the most recent
	// classification; back edges are never encoded (paper §3.3).
	Back bool
}

// Seq returns the edge's registration sequence number — its index into
// Graph.Edges and into every dense per-epoch table keyed by edge — or
// -1 while the edge is discovered but not yet registered. Safe to call
// concurrently with RegisterEdges.
func (e *Edge) Seq() int { return int(e.seq.Load()) }

func (e *Edge) String() string {
	return fmt.Sprintf("edge{site=%d %d->%d %s}", e.Site, e.Caller, e.Target, e.Kind)
}

// EdgeKey identifies an edge independent of insertion.
type EdgeKey struct {
	Site   prog.SiteID
	Target prog.FuncID
}

// shardCount is the number of edge-existence shards. Power of two so
// the shard index is a mask; 64 keeps the per-shard footprint tiny
// while making same-shard collisions between concurrently-trapping
// sites unlikely at realistic thread counts.
const shardCount = 64

// shard holds the edge-existence state for the sites hashing to it.
// Guarded by its own mutex so concurrent discovery scales.
type shard struct {
	mu     sync.Mutex
	edges  map[EdgeKey]*Edge
	bySite map[prog.SiteID][]*Edge
}

// Graph is a dynamic call graph.
type Graph struct {
	p       *prog.Program
	Entry   prog.FuncID
	roots   []prog.FuncID // Entry plus thread entry points, in order
	rootSet map[prog.FuncID]bool
	NodeSeq []*Node // nodes in insertion order
	Edges   []*Edge // registered edges in registration order
	// nodes is indexed by FuncID. AddNode grows it only as far as the
	// largest function added, so New allocates no per-function table.
	nodes  []*Node
	shards [shardCount]shard
}

// New returns a graph over the program containing only the entry node,
// mirroring DACCE's start state ("a call graph containing only main").
func New(p *prog.Program) *Graph {
	g := &Graph{
		p:       p,
		Entry:   p.Entry,
		rootSet: make(map[prog.FuncID]bool),
	}
	for i := range g.shards {
		g.shards[i].edges = make(map[EdgeKey]*Edge)
		g.shards[i].bySite = make(map[prog.SiteID][]*Edge)
	}
	g.AddNode(p.Entry)
	g.roots = []prog.FuncID{p.Entry}
	g.rootSet[p.Entry] = true
	return g
}

// shardOf returns the shard owning a site's edge-existence state.
func (g *Graph) shardOf(site prog.SiteID) *shard {
	return &g.shards[uint32(site)&(shardCount-1)]
}

// AddRoot registers fn as an additional traversal root: a thread entry
// point (paper §5.3). Idempotent; the node is added if absent.
func (g *Graph) AddRoot(fn prog.FuncID) {
	if g.rootSet[fn] {
		return
	}
	g.AddNode(fn)
	g.rootSet[fn] = true
	g.roots = append(g.roots, fn)
}

// Roots returns the traversal roots (entry first).
func (g *Graph) Roots() []prog.FuncID { return g.roots }

// Program returns the underlying program.
func (g *Graph) Program() *prog.Program { return g.p }

// NumNodes returns the number of functions in the graph.
func (g *Graph) NumNodes() int { return len(g.NodeSeq) }

// NumEdges returns the number of edges in the graph.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Node returns the node for fn, or nil if fn has not been added.
func (g *Graph) Node(fn prog.FuncID) *Node {
	if uint(fn) < uint(len(g.nodes)) {
		return g.nodes[fn]
	}
	return nil
}

// AddNode ensures fn is present and returns its node.
func (g *Graph) AddNode(fn prog.FuncID) *Node {
	if n := g.Node(fn); n != nil {
		return n
	}
	n := &Node{Fn: fn, Seq: len(g.NodeSeq), name: g.p.Funcs[fn].Name}
	if int(fn) >= len(g.nodes) {
		g.nodes = append(g.nodes, make([]*Node, int(fn)+1-len(g.nodes))...)
	}
	g.nodes[fn] = n
	g.NodeSeq = append(g.NodeSeq, n)
	return n
}

// Edge returns the edge for (site, target), or nil: Algorithm 1's
// getEdge(cs, ifun) lookup. Safe to call concurrently with discovery on
// any site.
func (g *Graph) Edge(site prog.SiteID, target prog.FuncID) *Edge {
	sh := g.shardOf(site)
	sh.mu.Lock()
	e := sh.edges[EdgeKey{site, target}]
	sh.mu.Unlock()
	return e
}

// EdgesAt returns all edges out of the given call site, in discovery
// order. Safe to call concurrently with discovery: the slice is
// append-only, so the returned header stays valid while new edges land
// past its length.
func (g *Graph) EdgesAt(site prog.SiteID) []*Edge {
	sh := g.shardOf(site)
	sh.mu.Lock()
	es := sh.bySite[site]
	sh.mu.Unlock()
	return es
}

// DiscoverEdge ensures the (site, target) edge exists in the site's
// shard and returns it together with whether it was newly inserted.
// Only the shard lock is taken, so concurrent discovery on different
// shards never contends. A new edge is NOT yet registered: it has
// Seq == -1, is absent from Edges/NodeSeq/In/Out, and must be passed to
// RegisterEdges (under the caller's registry synchronization) before
// any analysis or encoding pass runs.
func (g *Graph) DiscoverEdge(site prog.SiteID, target prog.FuncID) (*Edge, bool) {
	key := EdgeKey{site, target}
	sh := g.shardOf(site)
	sh.mu.Lock()
	if e, ok := sh.edges[key]; ok {
		sh.mu.Unlock()
		return e, false
	}
	s := g.p.Site(site)
	e := &Edge{
		Site:   site,
		Caller: s.Caller,
		Target: target,
		Kind:   s.Kind,
	}
	e.seq.Store(-1)
	sh.edges[key] = e
	sh.bySite[site] = append(sh.bySite[site], e)
	sh.mu.Unlock()
	return e, true
}

// RegisterEdges adds previously discovered edges to the registry:
// assigns each its Seq, appends it to Edges and wires the caller/target
// nodes' adjacency lists. Registration order is the caller's batch
// order, which fixes every later analysis order. The caller must hold
// its registry lock (DACCE's scheme mutex); edges already registered
// are skipped, so replaying a batch is harmless.
func (g *Graph) RegisterEdges(batch []*Edge) {
	for _, e := range batch {
		if e.Seq() >= 0 {
			continue
		}
		caller := g.AddNode(e.Caller)
		tnode := g.AddNode(e.Target)
		e.seq.Store(int32(len(g.Edges)))
		g.Edges = append(g.Edges, e)
		caller.Out = append(caller.Out, e)
		tnode.In = append(tnode.In, e)
	}
}

// AddEdge ensures the (site, target) edge exists, registered, and
// returns it together with whether it was newly inserted — the
// single-threaded composition of DiscoverEdge + RegisterEdges used by
// up-front builders (PCCE, breadcrumbs) and state restore. The caller
// must hold the registry synchronization.
func (g *Graph) AddEdge(site prog.SiteID, target prog.FuncID) (*Edge, bool) {
	e, isNew := g.DiscoverEdge(site, target)
	if isNew {
		g.RegisterEdges([]*Edge{e})
	}
	return e, isNew
}

// dfsColor values for ClassifyBackEdges.
const (
	white = iota // unvisited
	gray         // on the current DFS path
	black        // finished
)

// ClassifyBackEdges runs an iterative depth-first search from the entry
// node and sets Edge.Back on every edge whose target is on the current
// DFS path. Removing the back edges leaves an acyclic graph. Edges from
// nodes unreachable from the entry are also marked Back so that the
// encoder never assigns them codes (they can only be reached through
// mechanisms the encoding cannot see).
//
// The classification is deterministic: children are visited in edge
// insertion order.
func (g *Graph) ClassifyBackEdges() {
	for _, e := range g.Edges {
		e.Back = false
	}
	color := make([]uint8, len(g.NodeSeq)) // by Node.Seq

	type frame struct {
		n    *Node
		next int
	}
	var stack []frame
	for _, root := range g.roots {
		rn := g.Node(root)
		if rn == nil || color[rn.Seq] != white {
			continue
		}
		stack = append(stack[:0], frame{n: rn})
		color[rn.Seq] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(f.n.Out) {
				e := f.n.Out[f.next]
				f.next++
				tn := g.nodes[e.Target]
				switch color[tn.Seq] {
				case white:
					color[tn.Seq] = gray
					stack = append(stack, frame{n: tn})
				case gray:
					e.Back = true
				}
			} else {
				color[f.n.Seq] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	// Unreachable nodes: mark their outgoing edges as back so they stay
	// out of the encoding.
	for _, n := range g.NodeSeq {
		if color[n.Seq] != black {
			for _, e := range n.Out {
				e.Back = true
			}
		}
	}
}

// TopoOrder returns the nodes reachable from entry in a topological
// order of the graph without back edges. ClassifyBackEdges must have run
// on the current graph. Nodes unreachable from the entry are appended at
// the end (they have no encoded in-edges and act as isolated roots).
func (g *Graph) TopoOrder() []*Node {
	indeg := make([]int32, len(g.NodeSeq)) // by Node.Seq
	for _, e := range g.Edges {
		if !e.Back {
			indeg[g.nodes[e.Target].Seq]++
		}
	}
	// Deterministic Kahn: seed with zero-indegree nodes in insertion
	// order; order doubles as the FIFO queue, which preserves discovery
	// order.
	order := make([]*Node, 0, len(g.NodeSeq))
	for _, n := range g.NodeSeq {
		if indeg[n.Seq] == 0 {
			order = append(order, n)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, e := range order[head].Out {
			if e.Back {
				continue
			}
			tn := g.nodes[e.Target]
			indeg[tn.Seq]--
			if indeg[tn.Seq] == 0 {
				order = append(order, tn)
			}
		}
	}
	if len(order) != len(g.NodeSeq) {
		// A cycle survived classification; that would be a bug in
		// ClassifyBackEdges. Fail loudly rather than mis-encode.
		panic(fmt.Sprintf("graph: topological sort covered %d of %d nodes", len(order), len(g.NodeSeq)))
	}
	return order
}

// Reachable returns the set of nodes reachable from any root via any
// edge.
func (g *Graph) Reachable() map[prog.FuncID]bool {
	seen := make(map[prog.FuncID]bool, len(g.NodeSeq))
	var stack []*Node
	for _, root := range g.roots {
		if n := g.Node(root); n != nil && !seen[root] {
			seen[root] = true
			stack = append(stack, n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.Out {
			if !seen[e.Target] {
				seen[e.Target] = true
				stack = append(stack, g.nodes[e.Target])
			}
		}
	}
	return seen
}
