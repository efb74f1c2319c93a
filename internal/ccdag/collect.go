// Generation-scoped reclamation: the copy-compact pass that keeps the
// intern table bounded. The DAG carries a generation counter advanced
// at epoch boundaries (AdvanceGen); every Intern stamps the node it
// returns with the current generation; Collect drops every node whose
// stamp fell below a caller-chosen floor — typically the generation of
// the oldest epoch whose captures can still be decoded — from the
// intern table, while the read path stays lock-free throughout.
//
// Correctness against racing interns rests on three mechanisms:
//
//  1. Walks stamp root-first. internRev/internContext/decodeNode call
//     Intern once per frame from the root down, so a node's stamp is
//     never newer than its predecessor chain's. The mark phase can
//     therefore stop raising a chain at the first node already at the
//     floor.
//  2. Readers re-check the table after every hit. A reader that
//     observes its shard's table unchanged is ordered before the
//     sweep's publish, so the stamp it saw or wrote is visible to the
//     rescue check the collector runs right after the publish, still
//     holding the shard lock, and the node is re-inserted before any
//     other writer can insert a duplicate; a reader that observes a
//     new table re-resolves under the shard lock and re-inserts the
//     very node it holds if needed (shard.intern's rescue parameter).
//     Either way a returned pointer stays canonical.
//  3. Callers bound the floor by in-flight work. The encoder derives
//     the floor from its capture refcounts (a capture still decodable
//     pins its epoch's generation); dacced serializes retirement
//     against in-flight decodes. So no walk ever carries a stamp below
//     a concurrent Collect's floor.
package ccdag

import "sync/atomic"

// CollectStats reports one Collect pass.
type CollectStats struct {
	// Floor is the effective generation floor the pass ran with.
	Floor uint64 `json:"floor"`
	// Before is the interned node count when the pass started.
	Before int64 `json:"before"`
	// Freed is how many nodes the pass dropped from the intern table
	// (net of rescues). Under concurrent interning the figure is a
	// point-in-time accounting, not a heap delta.
	Freed int64 `json:"freed"`
	// Rescued counts swept nodes re-inserted by the pass itself because
	// a racing Intern stamped them after the keep decision.
	Rescued int64 `json:"rescued"`
}

// Gen returns the DAG's current generation.
func (d *DAG) Gen() uint64 { return d.gen.Load() }

// AdvanceGen starts a new generation and returns it. Call at an epoch
// boundary; nodes interned from here on carry the new stamp.
func (d *DAG) AdvanceGen() uint64 { return d.gen.Add(1) }

// RaiseGen raises the generation to at least g. Used when the caller's
// epoch counter jumps rather than increments — a warm start resuming
// at the snapshot's epoch — so generation stamps stay in lockstep with
// epochs and a later collection floor (an epoch number) cannot exceed
// the stamps of nodes interned after the jump.
func (d *DAG) RaiseGen(g uint64) {
	for {
		cur := d.gen.Load()
		if cur >= g {
			return
		}
		if d.gen.CompareAndSwap(cur, g) {
			return
		}
	}
}

// Fresh reports whether n carries the current generation's stamp — the
// cheap staleness probe for memoized node pointers (a thread's lastNode
// cache, say). A fresh node cannot be dropped by any Collect whose
// floor is at most the current generation; a stale one must be
// re-interned before reuse as a canonical key.
func (d *DAG) Fresh(n *Node) bool {
	return n != nil && n.gen.Load() == d.gen.Load()
}

// Collections returns how many Collect passes have completed.
func (d *DAG) Collections() int64 { return d.collections.Load() }

// Collected returns the total nodes reclaimed across all passes.
func (d *DAG) Collected() int64 { return d.collected.Load() }

// Collect drops every node whose generation stamp is below minGen from
// the intern table, after raising the stamp of everything reachable
// from a live node (gen ≥ minGen) or from a caller pin. pin, when
// non-nil, is called once with a mark function and must invoke it for
// every externally retained node that has to stay canonical (dacced
// passes its live memo entries); mark raises the node and its whole
// predecessor chain to the floor. A floor above the current generation
// is clamped to it; a zero floor is a no-op (generation zero is still
// live).
//
// Interning proceeds lock-free and concurrently throughout: survivors
// keep their pointer identity (the same *Node is rethreaded into the
// new bucket chains), each shard's swap is one atomic table publish,
// and nodes stamped mid-sweep by racing interns are re-inserted by the
// rescue pass below or by the racing reader itself. Dropped nodes
// remain valid memory for any holder but lose canonicality: a later
// decode of the same context interns a fresh node.
func (d *DAG) Collect(minGen uint64, pin func(mark func(*Node))) CollectStats {
	d.collectMu.Lock()
	defer d.collectMu.Unlock()
	if cur := d.gen.Load(); minGen > cur {
		minGen = cur
	}
	st := CollectStats{Floor: minGen, Before: d.Len()}
	if minGen == 0 {
		return st
	}

	// Mark: raise live predecessor chains to the floor. Stamps are
	// root-first (walks intern from the root down), so a chain whose
	// head is already at the floor is covered above the break point
	// either by the same walk's earlier stamps or by a previous mark.
	mark := func(n *Node) {
		for p := n; p != nil; p = p.pred {
			raised := false
			for {
				old := p.gen.Load()
				if old >= minGen {
					break
				}
				if p.gen.CompareAndSwap(old, minGen) {
					raised = true
					break
				}
			}
			if !raised {
				break
			}
		}
	}
	for i := range d.shards {
		t := d.shards[i].table.Load()
		for b := range t.buckets {
			for e := t.buckets[b].Load(); e != nil; e = e.next {
				if e.node.gen.Load() >= minGen {
					mark(e.node.pred)
				}
			}
		}
	}
	if pin != nil {
		pin(mark)
	}

	// Sweep: per shard, under its writer lock, rebuild the bucket array
	// with only the nodes at or above the floor — survivors keep their
	// identity — and publish it in one atomic swap. Readers keep walking
	// the old (complete, immutable) table until they reload.
	var (
		dropped []*Node
		keep    []*Node
	)
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		t := sh.table.Load()
		keep, dropped = keep[:0], dropped[:0]
		for b := range t.buckets {
			for e := t.buckets[b].Load(); e != nil; e = e.next {
				if e.node.gen.Load() >= minGen {
					keep = append(keep, e.node)
				} else {
					dropped = append(dropped, e.node)
				}
			}
		}
		nt := &table{mask: bucketsFor(int64(len(keep))) - 1}
		nt.buckets = make([]atomic.Pointer[entry], nt.mask+1)
		for _, n := range keep {
			b := &nt.buckets[(n.hash>>32)&nt.mask]
			b.Store(&entry{node: n, next: b.Load()})
		}
		sh.table.Store(nt)
		sh.count = int64(len(keep))

		// Rescue: a racing Intern can stamp a node after the keep
		// decision. A reader that then saw the old table returned the
		// node counting on us — its stamp is ordered before the publish
		// above, so this re-check observes it, and holding the lock
		// until the node is back keeps any other writer from inserting
		// a duplicate first; a reader that saw the new table re-resolves
		// under the lock and re-inserts the node itself.
		for _, n := range dropped {
			if n.gen.Load() < minGen {
				st.Freed++
				continue
			}
			if sh.count+1 > loadFactor*int64(len(nt.buckets)) {
				nt = sh.grow(nt)
			}
			b := &nt.buckets[(n.hash>>32)&nt.mask]
			b.Store(&entry{node: n, next: b.Load()})
			sh.count++
			st.Rescued++
		}
		sh.mu.Unlock()
	}

	d.collections.Add(1)
	d.collected.Add(st.Freed)
	return st
}

// bucketsFor sizes a shard's bucket array (a power of two, at least
// initialBuckets) so n nodes sit at or below the load factor.
func bucketsFor(n int64) uint64 {
	b := uint64(initialBuckets)
	for int64(b)*loadFactor < n {
		b <<= 1
	}
	return b
}
