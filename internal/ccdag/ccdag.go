// Package ccdag implements a global, concurrency-safe, hash-consed
// calling-context DAG: every decoded frame is interned as an immutable
// (callSite, pred) node, so a whole calling context is one *Node,
// context equality is pointer comparison, and contexts that share a
// prefix share its storage — memory grows with distinct prefixes, not
// with samples decoded. The shape follows the cactus DynamicContext
// idiom (an interned (callSite, pred*) set with O(1) push), adapted to
// concurrent interning: the intern table is sharded, reads are
// lock-free (atomic loads over immutable chain entries), and only an
// actual insertion takes its shard's mutex.
//
// Node payloads (site, fn, pred, depth, id, hash) are immutable, and
// any *Node handed out stays valid memory forever (the garbage
// collector keeps it alive while someone holds it). Canonicality,
// however, is generation-scoped: every Intern stamps the node it
// returns with the DAG's current generation, and Collect drops nodes
// whose stamp fell below a caller-chosen floor from the intern table —
// a later decode of the same context then interns a fresh node. Holders
// that need a node to stay canonical across collections either keep
// touching it through Intern, re-validate it with Fresh, or pin it via
// Collect's pin callback; the decode pipeline, the streaming profiler
// and the dacced decode memo each do one of these, so they can keep
// treating a node as a one-word, O(1)-comparable context key.
package ccdag

import (
	"sync"
	"sync/atomic"

	"dacce/internal/prog"
)

// Node is one interned context frame: function Fn entered through call
// site Site of its predecessor context Pred (prog.NoSite and a nil
// pred for a root frame). Nodes are immutable and canonical: two
// contexts are equal iff their *Node pointers are equal.
type Node struct {
	site prog.SiteID
	fn   prog.FuncID
	pred *Node

	// depth is the number of frames on the path, root included.
	depth uint32
	// id is the node's stable, dense, per-DAG export identifier
	// (assigned in intern order, starting at 1).
	id uint64
	// hash caches the node's intern hash so pushing a child mixes one
	// word instead of rehashing the whole path.
	hash uint64

	// gen is the generation that last touched the node: stamped by every
	// Intern that returns it, raised by Collect's mark phase when the
	// node is reachable from a live node or a pin. Nodes whose gen falls
	// below a Collect's floor are dropped from the intern table. Not part
	// of the node's identity or hash.
	gen atomic.Uint64
}

// touch raises n's generation stamp to at least g. Stamps only ever go
// up, so racing stampers cannot regress a newer stamp.
func (n *Node) touch(g uint64) {
	for {
		old := n.gen.Load()
		if old >= g {
			return
		}
		if n.gen.CompareAndSwap(old, g) {
			return
		}
	}
}

// Site returns the call site through which Fn was entered (prog.NoSite
// for a root frame or a spawn boundary).
func (n *Node) Site() prog.SiteID { return n.site }

// Fn returns the frame's function.
func (n *Node) Fn() prog.FuncID { return n.fn }

// Pred returns the predecessor context (nil for a root frame).
func (n *Node) Pred() *Node { return n.pred }

// Depth returns the number of frames on the node's path, root included.
func (n *Node) Depth() int { return int(n.depth) }

// ID returns the node's stable per-DAG identifier, assigned in intern
// order starting at 1 — the export key for folded output, caches and
// wire formats that cannot carry pointers.
func (n *Node) ID() uint64 { return n.id }

// entry is one immutable intern-chain link. Entries are never modified
// after publication: an insert prepends a fresh entry to its bucket
// head, and a table growth builds entirely new entries — so a reader
// that loaded any table may walk any chain without synchronization.
type entry struct {
	node *Node
	next *entry
}

// table is one shard's bucket array, published atomically so the read
// path never locks. len(buckets) is a power of two.
type table struct {
	mask    uint64
	buckets []atomic.Pointer[entry]
}

// shard is one stripe of the intern table. The mutex serializes
// writers (insertion and growth) only; lookups are lock-free.
type shard struct {
	mu    sync.Mutex
	count int64 // interned nodes in this shard, guarded by mu

	table atomic.Pointer[table]

	// hits/misses are per-shard so the hot intern path never contends
	// on a global cache line; Stats sums them.
	hits   atomic.Int64
	misses atomic.Int64
}

const (
	// shardCount stripes the intern table; must be a power of two.
	shardCount = 128
	// initialBuckets is each shard's starting bucket count.
	initialBuckets = 64
	// loadFactor is the mean chain length that triggers a growth.
	loadFactor = 2
)

// DAG is a hash-consed calling-context DAG. Create with New; all
// methods are safe for concurrent use.
type DAG struct {
	shards [shardCount]shard
	nextID atomic.Uint64

	// gen is the current generation. Interns stamp their result with it;
	// AdvanceGen bumps it at an epoch boundary; Collect drops nodes whose
	// stamp predates its floor.
	gen atomic.Uint64

	// collectMu serializes Collect passes against each other (interning
	// stays lock-free and concurrent throughout a collection).
	collectMu sync.Mutex

	// collections/collected count completed Collect passes and the total
	// nodes they reclaimed.
	collections atomic.Int64
	collected   atomic.Int64
}

// New returns an empty DAG.
func New() *DAG {
	d := &DAG{}
	for i := range d.shards {
		t := &table{
			mask:    initialBuckets - 1,
			buckets: make([]atomic.Pointer[entry], initialBuckets),
		}
		d.shards[i].table.Store(t)
	}
	return d
}

// mix is a splitmix64-style finalizer, strong enough that bucket and
// shard indexes drawn from different bit ranges stay independent.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nodeHash combines a predecessor's cached hash with the new frame.
func nodeHash(pred *Node, site prog.SiteID, fn prog.FuncID) uint64 {
	var ph uint64
	if pred != nil {
		ph = pred.hash
	}
	return mix(ph ^ mix(uint64(uint32(site))<<32|uint64(uint32(fn))))
}

// Root interns the root frame for fn: the one-frame context
// (prog.NoSite, fn). Equivalent to Intern(nil, prog.NoSite, fn).
func (d *DAG) Root(fn prog.FuncID) *Node { return d.Intern(nil, prog.NoSite, fn) }

// Intern returns the canonical node for pred extended by one frame
// (site, fn), creating it if this exact context has never been seen.
// pred must itself be canonical — returned by an Intern call of the
// same walk (walks stamp frames root-first, which the collector's
// liveness invariant relies on) — or nil for a root frame. The steady
// hit path is lock-free and allocation-free: one generation load on top
// of the chain walk.
func (d *DAG) Intern(pred *Node, site prog.SiteID, fn prog.FuncID) *Node {
	h := nodeHash(pred, site, fn)
	sh := &d.shards[h&(shardCount-1)]
	g := d.gen.Load()
	t := sh.table.Load()
	if n := lookup(t, h, pred, site, fn); n != nil {
		if n.gen.Load() != g {
			n.touch(g)
		}
		// A Collect may have decided to drop n from this shard before
		// n's current stamp landed — ours, or a racing reader's that we
		// just observed. If the shard's table is unchanged, the
		// collector has not published its sweep yet, so its rescue
		// check, which runs under the shard lock right after the
		// publish, is ordered after that stamp and re-inserts n; if the
		// table moved, re-resolve under the shard lock (below). Either
		// way the pointer we return stays canonical.
		if sh.table.Load() != t {
			return sh.intern(d, g, h, pred, site, fn, n)
		}
		sh.hits.Add(1)
		return n
	}
	return sh.intern(d, g, h, pred, site, fn, nil)
}

// lookup walks the bucket chain for (pred, site, fn). Lock-free: the
// table pointer, the bucket heads and the chain entries are all
// immutable or atomically published.
func lookup(t *table, h uint64, pred *Node, site prog.SiteID, fn prog.FuncID) *Node {
	// Bucket index from the high half so it stays independent of the
	// shard index drawn from the low bits.
	for e := t.buckets[(h>>32)&t.mask].Load(); e != nil; e = e.next {
		n := e.node
		if n.pred == pred && n.site == site && n.fn == fn {
			return n
		}
	}
	return nil
}

// intern is the slow path: re-check under the shard lock (the node may
// have been inserted since the lock-free miss), then insert. rescue,
// when non-nil, is a node the caller found and stamped in a table a
// concurrent Collect replaced: if no equivalent node is present under
// the lock, rescue itself is re-inserted, preserving pointer identity
// for every reader that already holds it.
func (sh *shard) intern(d *DAG, g, h uint64, pred *Node, site prog.SiteID, fn prog.FuncID, rescue *Node) *Node {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t := sh.table.Load()
	if n := lookup(t, h, pred, site, fn); n != nil {
		n.touch(g)
		sh.hits.Add(1)
		return n
	}
	n := rescue
	if n != nil {
		n.touch(g)
		sh.hits.Add(1)
	} else {
		depth := uint32(1)
		if pred != nil {
			depth = pred.depth + 1
		}
		n = &Node{
			site:  site,
			fn:    fn,
			pred:  pred,
			depth: depth,
			id:    d.nextID.Add(1),
			hash:  h,
		}
		n.gen.Store(g)
		sh.misses.Add(1)
	}
	if sh.count+1 > loadFactor*int64(len(t.buckets)) {
		t = sh.grow(t)
	}
	b := &t.buckets[(h>>32)&t.mask]
	b.Store(&entry{node: n, next: b.Load()})
	sh.count++
	return n
}

// grow doubles the shard's bucket array, rehashing every chain into
// fresh entries, and publishes the new table. Concurrent readers keep
// walking the old (complete, immutable) table until they reload.
func (sh *shard) grow(old *table) *table {
	nt := &table{
		mask:    uint64(len(old.buckets))*2 - 1,
		buckets: make([]atomic.Pointer[entry], len(old.buckets)*2),
	}
	for i := range old.buckets {
		for e := old.buckets[i].Load(); e != nil; e = e.next {
			b := &nt.buckets[(e.node.hash>>32)&nt.mask]
			b.Store(&entry{node: e.node, next: b.Load()})
		}
	}
	sh.table.Store(nt)
	return nt
}

// Stats is a point-in-time summary of the DAG.
type Stats struct {
	// Nodes is the number of distinct interned nodes — the number of
	// distinct context prefixes ever decoded into the DAG.
	Nodes int64 `json:"nodes"`
	// Hits and Misses count Intern calls that found an existing node
	// versus created one; Hits/(Hits+Misses) is the suffix-sharing hit
	// rate of the decode stream.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// BytesEstimate approximates the DAG's resident size: nodes, chain
	// entries and bucket arrays. Post-collection it reflects the
	// compacted table, not the historical peak.
	BytesEstimate int64 `json:"bytes_estimate"`
	// Collections and Collected count completed Collect passes and the
	// total nodes they reclaimed.
	Collections int64 `json:"collections"`
	Collected   int64 `json:"collected"`
}

// HitRate returns Hits/(Hits+Misses), or 0 before any Intern.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// nodeBytes and entryBytes approximate the allocator footprint of one
// interned node and its chain entry (object header-less Go sizes,
// rounded up to size classes).
const (
	nodeBytes  = 56
	entryBytes = 16
)

// Stats returns the DAG's current counters. Safe to call concurrently
// with interning; the counters are a consistent-enough snapshot for
// monitoring (each is individually atomic).
func (d *DAG) Stats() Stats {
	s := Stats{
		Collections: d.collections.Load(),
		Collected:   d.collected.Load(),
	}
	for i := range d.shards {
		sh := &d.shards[i]
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		sh.mu.Lock()
		n := sh.count
		buckets := int64(len(sh.table.Load().buckets))
		sh.mu.Unlock()
		s.Nodes += n
		s.BytesEstimate += n*(nodeBytes+entryBytes) + buckets*8
	}
	return s
}

// Len returns the number of interned nodes.
func (d *DAG) Len() int64 {
	var n int64
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		n += sh.count
		sh.mu.Unlock()
	}
	return n
}
