// Epoch-scoped DAG reclamation: the encoder's side of the bounded-
// memory contract. Every capture holds a reference on its epoch from
// Capture to ReleaseCapture; the oldest epoch with outstanding
// references is the low-water epoch — no capture below it can still be
// decoded, so every DAG node last touched before its generation is
// garbage. Re-encoding passes advance the DAG's generation in lockstep
// with the epoch counter (commitPlanLocked), and after each pass the
// encoder collects up to the low-water mark, off the stop-the-world
// pause.
//
// Safety: a decode of capture c stamps every node it interns with the
// current generation g ≥ c.Epoch, and while c is un-released the
// low-water epoch — hence every collection floor — stays ≤ c.Epoch.
// So no in-flight decode can have its freshly walked chain swept out
// from under it. The sampler goroutine's walks run concurrently with
// passes and collections, so each sample batch holds a reference on
// its oldest capture's epoch until it is decoded and delivered
// (sampler.go).

package core

import (
	"sync/atomic"
)

// epochRefs returns the live per-epoch outstanding-capture counters.
func (d *DACCE) refs() []*atomic.Int64 { return *d.capRefs.Load() }

// retainEpoch counts one outstanding capture against epoch e.
func (d *DACCE) retainEpoch(e uint32) { d.refs()[e].Add(1) }

// releaseEpoch drops one outstanding capture of epoch e.
func (d *DACCE) releaseEpoch(e uint32) { d.refs()[e].Add(-1) }

// growRefsLocked extends the refcount vector to cover epoch e. Caller
// holds d.mu; must run before the snapshot that introduces e is
// published, so any reader that sees the epoch sees its counter.
func (d *DACCE) growRefsLocked(e uint32) {
	refs := d.refs()
	if int(e) < len(refs) {
		return
	}
	grown := make([]*atomic.Int64, e+1)
	copy(grown, refs)
	for i := len(refs); i < len(grown); i++ {
		grown[i] = new(atomic.Int64)
	}
	d.capRefs.Store(&grown)
}

// LowWaterEpoch returns the oldest epoch that still has outstanding
// captures — the epoch floor below which no capture can legally be
// decoded anymore — or the current epoch when nothing is outstanding.
// Captures the machine retained as samples (and captures user code
// holds without releasing) keep their epoch pinned, which makes
// collection exactly as conservative as the caller's retention.
func (d *DACCE) LowWaterEpoch() uint32 {
	cur := d.cur().epoch
	refs := d.refs()
	n := len(refs)
	if int(cur)+1 < n {
		n = int(cur) + 1
	}
	for e := 0; e < n; e++ {
		if refs[e].Load() > 0 {
			return uint32(e)
		}
	}
	return cur
}

// maybeCollect frees DAG nodes unreachable since before the low-water
// epoch. Called after each re-encoding pass, outside the pause; a pass
// that did not move the low-water mark (captures still outstanding, or
// no release traffic) skips the sweep entirely, so steady state with
// retained samples pays one atomic compare. The CAS also collapses
// concurrent callers into one sweep per floor.
func (d *DACCE) maybeCollect() {
	floor := uint64(d.LowWaterEpoch())
	for {
		last := d.collectFloor.Load()
		if floor <= last {
			return
		}
		if d.collectFloor.CompareAndSwap(last, floor) {
			break
		}
	}
	// Let the observer flush its node pins first, so the sweep below
	// sees them gone rather than carrying dead nodes to the next pass.
	if op := d.obs.Load(); op != nil {
		op.ReleaseNodes()
	}
	st := d.dag.Collect(floor, nil)
	d.mu.Lock()
	d.stats.DAGCollections++
	d.stats.DAGCollected += st.Freed
	d.mu.Unlock()
}
