package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"dacce/internal/blenc"
	"dacce/internal/graph"
	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/telemetry"
)

func edgeKeyOf(e *graph.Edge) graph.EdgeKey {
	return graph.EdgeKey{Site: e.Site, Target: e.Target}
}

// passMode selects how a re-encoding pass is admitted and how it
// renumbers.
type passMode uint8

const (
	// passAuto: trigger-gated; incremental renumbering when only edge
	// discovery fired (the adaptive regime of paper §4), full when an
	// unencoded path is hot, so hot-first reordering runs exactly then.
	passAuto passMode = iota
	// passForceFull: unconditional full renumbering (ForceReencode).
	passForceFull
	// passForceIncremental: unconditional, incremental renumbering
	// preferred — the experiment suites' entry point for driving
	// bounded-pause passes without racing the adaptive thresholds.
	passForceIncremental
)

// trigSnap is one coherent reading of the adaptive-trigger counters and
// their backoff-scaled thresholds. The counters are independent atomics
// bumped by concurrently running threads; reading them once and passing
// the snapshot around keeps the admission check, the discovery-only
// classification and the reported trigger reason of a single pass
// consistent with each other, where separate re-loads mid-burst could
// disagree (e.g. admit on new-edges, then renumber fully because
// unencoded calls crossed their threshold a microsecond later).
type trigSnap struct {
	newEdges, unencCalls, hotMiss int64
	newEdgeTh, unencTh, hotTh     int64
}

// trigSnapshot reads the trigger counters and thresholds once: a
// handful of atomic loads, no lock.
func (d *DACCE) trigSnapshot() trigSnap {
	scale := int64(1) << d.backoff.Load()
	return trigSnap{
		newEdges:   d.newEdges.Load(),
		unencCalls: d.unencCalls.Load(),
		hotMiss:    d.hotMiss.Load(),
		newEdgeTh:  d.newEdgeThreshold(),
		unencTh:    d.opt.Trig.UnencodedCalls * scale,
		hotTh:      d.opt.Trig.HotMissSamples * scale,
	}
}

// fired reports whether any adaptive trigger crossed its threshold.
func (ts trigSnap) fired() bool {
	return ts.newEdges >= ts.newEdgeTh ||
		ts.unencCalls >= ts.unencTh ||
		ts.hotMiss >= ts.hotTh
}

// discoveryOnly reports that edge discovery alone fired: the regime
// where incremental renumbering applies. The hot-path and
// unencoded-calls triggers demand the frequency reordering only a full
// pass provides.
func (ts trigSnap) discoveryOnly() bool {
	return ts.newEdges >= ts.newEdgeTh &&
		ts.unencCalls < ts.unencTh &&
		ts.hotMiss < ts.hotTh
}

// reason attributes a pass to one trigger (checked in the order new
// edges → hot paths → unencoded calls, so simultaneous firings report
// the first), or ReasonForced for explicit passes.
func (ts trigSnap) reason(force bool) telemetry.Reason {
	if force {
		return telemetry.ReasonForced
	}
	switch {
	case ts.newEdges >= ts.newEdgeTh:
		return telemetry.ReasonNewEdges
	case ts.hotMiss >= ts.hotTh:
		return telemetry.ReasonHotPath
	case ts.unencCalls >= ts.unencTh:
		return telemetry.ReasonUnencodedCalls
	}
	return telemetry.ReasonForced
}

// triggersFired checks the adaptive triggers: a handful of atomic loads,
// no lock. The traffic-driven thresholds back off exponentially (capped)
// with every pass already run: early passes are cheap and productive,
// late ones rarely change anything. Callers use it both as the lock-free
// pre-check on the hot paths (Maintain, OnSample, the handler trap) and
// as the authoritative re-check under d.mu inside the pass entry points.
func (d *DACCE) triggersFired() bool { return d.trigSnapshot().fired() }

// passPlan is everything one re-encoding pass decided, computed by
// preparePlanLocked and applied by commitPlanLocked: the plan is
// prepared with the world still running and committed inside a short
// stop-the-world window.
type passPlan struct {
	// prevEpoch/prevMaxID identify the snapshot the plan was computed
	// against; a commit against any other epoch must re-prepare.
	prevEpoch uint32
	prevMaxID uint64
	reason    telemetry.Reason
	mode      passMode

	// added is the pendingNew batch the plan consumed; restored to
	// pendingNew if the plan is discarded so a later incremental pass
	// still sees the additions.
	added []*graph.Edge

	asn *blenc.Assignment
	idx *decodeIndex
	// compress is the next epoch's recursion-compression set;
	// compressAdds lists the keys this pass added to it.
	compress     map[graph.EdgeKey]bool
	compressAdds []graph.EdgeKey

	// incremental: the renumbering was served by blenc.Refresh without
	// fallback, so changed/affected bound the delta rebuilds below.
	// Otherwise every site is rebuilt and every thread translated.
	incremental bool
	changed     []*graph.Edge
	affected    map[prog.FuncID]bool
	// dirtyEdges is changed ∪ compressAdds: the edges whose actionFor
	// result can differ from the previous epoch. dirtySites are their
	// call sites — the delta stub-rebuild set.
	dirtyEdges map[graph.EdgeKey]bool
	dirtySites map[prog.SiteID]bool

	// Per-phase attribution (renumber and index fill during prepare;
	// stub and translate during commit).
	renumberedEdges int
	indexEntries    int
	renumberNanos   int64
	indexNanos      int64
}

// preparePlanLocked computes one pass's assignment, decode index,
// compression additions and delta rebuild sets. Caller holds d.mu with
// publication buffers drained; the world may still be running, so
// everything here reads the registered graph under d.mu and touches no
// stub or thread state.
func (d *DACCE) preparePlanLocked(mode passMode, trig trigSnap) *passPlan {
	snap := d.cur()
	plan := &passPlan{
		prevEpoch: snap.epoch,
		prevMaxID: snap.maxID,
		reason:    trig.reason(mode != passAuto),
		mode:      mode,
		added:     d.pendingNew,
	}
	d.pendingNew = nil

	t0 := time.Now()
	prev := snap.dicts[len(snap.dicts)-1]
	wantIncremental := len(snap.dicts) > 1 &&
		(mode == passForceIncremental || (mode == passAuto && trig.discoveryOnly()))
	if wantIncremental {
		asn, changed, affected, full := blenc.Refresh(d.g, prev, plan.added,
			blenc.Options{Budget: d.opt.Budget, NoHotOrder: d.opt.NoHotFirst})
		plan.asn = asn
		if !full {
			plan.incremental = true
			plan.changed = changed
			plan.affected = affected
		}
	} else {
		plan.asn = blenc.Encode(d.g, blenc.Options{Budget: d.opt.Budget, NoHotOrder: d.opt.NoHotFirst})
	}
	if plan.incremental {
		plan.renumberedEdges = len(plan.changed)
	} else {
		plan.renumberedEdges = d.g.NumEdges()
	}
	plan.renumberNanos = time.Since(t0).Nanoseconds()

	t1 := time.Now()
	if plan.incremental {
		plan.idx, plan.indexEntries = deltaDecodeIndex(d.g, snap.idx[len(snap.idx)-1],
			plan.asn, plan.changed, plan.affected)
	} else {
		plan.idx = newDecodeIndex(d.g, plan.asn)
		plan.idx.edges = heatTable(d.g.Edges)
		plan.indexEntries = plan.asn.EncodedEdges
	}
	plan.indexNanos = time.Since(t1).Nanoseconds()

	// Adjust the recursion handling: back edges that pushed a lot get
	// the compression of Fig. 5e from now on (copy-on-write — the
	// published set is immutable, and compression flips a site's action,
	// so additions join the dirty-edge set).
	plan.compress = snap.compress
	for _, e := range d.g.Edges {
		if e.Back && atomic.LoadInt64(&e.Freq) >= d.opt.CompressMinPushes && !plan.compress[edgeKeyOf(e)] {
			if len(plan.compress) == len(snap.compress) { // first addition: copy
				compress := make(map[graph.EdgeKey]bool, len(snap.compress)+1)
				for k, v := range snap.compress {
					compress[k] = v
				}
				plan.compress = compress
			}
			plan.compress[edgeKeyOf(e)] = true
			plan.compressAdds = append(plan.compressAdds, edgeKeyOf(e))
		}
	}

	if plan.incremental {
		plan.dirtyEdges = make(map[graph.EdgeKey]bool, len(plan.changed)+len(plan.compressAdds))
		for _, e := range plan.changed {
			plan.dirtyEdges[edgeKeyOf(e)] = true
		}
		for _, k := range plan.compressAdds {
			plan.dirtyEdges[k] = true
		}
		plan.dirtySites = make(map[prog.SiteID]bool, len(plan.dirtyEdges))
		for k := range plan.dirtyEdges {
			plan.dirtySites[k.Site] = true
		}
	}
	return plan
}

// discardPlanLocked returns a prepared-but-unusable plan's consumed
// additions to pendingNew so a later incremental pass still sees them.
func (d *DACCE) discardPlanLocked(plan *passPlan) {
	if len(plan.added) > 0 {
		d.pendingNew = append(plan.added, d.pendingNew...)
	}
}

// extendPlanLocked folds straggler edges — discovered between the
// prepare and the world actually stopping, drained inside the pause —
// into a prepared plan with a delta Refresh on top of the prepared
// assignment. Falls back to re-preparing fully (still inside the pause)
// when the straggler refresh cannot stay incremental. Caller holds d.mu
// with the world stopped.
func (d *DACCE) extendPlanLocked(plan *passPlan, trig trigSnap) *passPlan {
	stragglers := d.pendingNew
	d.pendingNew = nil
	plan.added = append(plan.added, stragglers...)

	t0 := time.Now()
	asn, changed, affected, full := blenc.Refresh(d.g, plan.asn, stragglers,
		blenc.Options{Budget: d.opt.Budget, NoHotOrder: d.opt.NoHotFirst})
	if full || !plan.incremental {
		// Either the straggler refresh lost the incremental structure or
		// the plan was a full one anyway: redo the whole preparation
		// in-pause against the (unchanged) epoch.
		d.discardPlanLocked(plan)
		return d.preparePlanLocked(plan.mode, trig)
	}
	plan.asn = asn
	t1 := time.Now()
	var entries int
	plan.idx, entries = deltaDecodeIndex(d.g, plan.idx, asn, changed, affected)
	plan.indexEntries += entries
	plan.indexNanos += time.Since(t1).Nanoseconds()
	plan.renumberedEdges += len(changed)
	plan.renumberNanos += time.Since(t0).Nanoseconds() - time.Since(t1).Nanoseconds()
	plan.changed = append(plan.changed, changed...)
	for fn := range affected {
		plan.affected[fn] = true
	}
	for _, e := range changed {
		plan.dirtyEdges[edgeKeyOf(e)] = true
		plan.dirtySites[e.Site] = true
	}
	return plan
}

// threadDirty reports whether a live thread's state references anything
// this pass changed, and therefore must be re-translated. A thread can
// keep its TLS and frame cookies across an epoch flip iff (a) none of
// its active frames' edges had their action changed, and (b) no marker
// id is embedded anywhere in its state, or the marker base (maxID)
// did not move. Marker values — ids in (maxID, 2*maxID+1] standing for
// saved context — live in the running id, in ccStack entry ids and in
// TcStack save cookies; all three are scanned.
func (plan *passPlan) threadDirty(t *machine.Thread) bool {
	st, ok := t.State.(*tls)
	if !ok || st == nil {
		return false // translation would be a no-op anyway
	}
	markersMoved := plan.asn.MaxID != plan.prevMaxID
	if markersMoved {
		if st.id > plan.prevMaxID {
			return true
		}
		for i := range st.cc {
			if st.cc[i].ID > plan.prevMaxID {
				return true
			}
		}
	}
	for i := 1; i < t.Depth(); i++ {
		f := t.FrameAt(i)
		if plan.dirtyEdges[graph.EdgeKey{Site: f.Site, Target: f.Fn}] {
			return true
		}
		if markersMoved && !f.Tail && f.Cook.Tag == tagSave && f.Cook.A > plan.prevMaxID {
			return true
		}
	}
	return false
}

// commitPlanLocked publishes a prepared plan as the next epoch and
// repairs the mutable world around it: stub rebuild (all sites, or just
// the dirty ones), thread translation (all threads, or just the dirty
// ones), cost/stats accounting, trigger reset and telemetry. Caller
// holds d.mu with the world stopped, and must have verified
// d.cur().epoch == plan.prevEpoch. start is the pass's wall start
// (prepare begin), pauseStart the instant the world-stop began.
func (d *DACCE) commitPlanLocked(self *machine.Thread, plan *passPlan, start, pauseStart time.Time) {
	snap := d.cur()
	tid := int32(-1)
	if self != nil {
		tid = int32(self.ID())
	}
	if d.sink != nil && plan.asn.Overflowed && !snap.dicts[len(snap.dicts)-1].Overflowed {
		d.sink.Emit(telemetry.Event{
			Kind: telemetry.EvIDOverflow, Thread: tid,
			Epoch: snap.epoch, Site: prog.NoSite, Fn: prog.NoFunc,
			Value: plan.asn.UnrestrictedMaxID, Aux: d.opt.Budget,
		})
	}

	// Publish the new epoch's snapshot before regenerating stubs: the
	// rebuild below reads it (actionFor), and lock-free readers flip to
	// the new epoch in one atomic step. The world is stopped, so no
	// machine thread observes the window between publication and the
	// stub/TLS rewrite; external Decode callers see either epoch fully.
	// The full slice expressions force append to copy, keeping the old
	// snapshot's dicts/idx immutable for readers that still hold it.
	// tail comes from the commit-time snapshot: a tail fix-up may have
	// published additions after the plan was prepared.
	next := &encSnap{
		epoch:    snap.epoch + 1,
		maxID:    plan.asn.MaxID,
		dicts:    append(snap.dicts[:len(snap.dicts):len(snap.dicts)], plan.asn),
		idx:      append(snap.idx[:len(snap.idx):len(snap.idx)], plan.idx),
		tail:     snap.tail,
		compress: plan.compress,
	}
	// The new epoch's capture refcounter must exist before any reader can
	// see the epoch, and the DAG's generation advances in lockstep with
	// the epoch counter so gen == epoch holds for the reclamation floor
	// arithmetic (reclaim.go).
	d.growRefsLocked(next.epoch)
	d.snap.Store(next)
	d.dag.AdvanceGen()

	// Regenerate instrumentation and rewrite live thread state — current
	// id, ccStack entries and the cookies of active frames ("the return
	// address of all active functions on the stack should be modified",
	// §4). An incremental plan bounds both to the changed region: only
	// sites whose action changed are rebuilt (stubs read markID from the
	// live snapshot, so an unchanged site's stub stays valid across the
	// epoch flip), and only threads referencing changed edges or stale
	// markers are replayed.
	var sitesRebuilt, threadsTranslated, threadsSkipped, framesReplayed int
	var stubNanos, translateNanos int64
	if m := d.m.Load(); m != nil {
		t0 := time.Now()
		if plan.incremental {
			for sid := range plan.dirtySites {
				d.rebuildSite(sid)
				sitesRebuilt++
			}
		} else {
			sitesRebuilt = d.rebuildAllLocked()
		}
		stubNanos = time.Since(t0).Nanoseconds()

		t1 := time.Now()
		for _, t := range m.Threads() {
			if plan.incremental && !plan.threadDirty(t) {
				threadsSkipped++
				continue
			}
			if depth := t.Depth(); depth > 1 {
				framesReplayed += depth - 1
			}
			d.translateThreadLocked(t)
			threadsTranslated++
		}
		translateNanos = time.Since(t1).Nanoseconds()
	}

	renumberCost := int64(machine.CostReencodePerEdge) * int64(plan.renumberedEdges)
	indexCost := int64(machine.CostIndexPerEdge) * int64(plan.indexEntries)
	stubCost := int64(machine.CostStubRebuild) * int64(sitesRebuilt)
	translateCost := int64(machine.CostTranslatePerFrame) * int64(framesReplayed)
	cost := renumberCost + indexCost + stubCost + translateCost
	if self != nil {
		self.C.ReencodeCost += cost
	}
	prepare := pauseStart.Sub(start).Nanoseconds()
	if plan.incremental {
		d.stats.IncrementalPasses++
	}
	d.stats.GTS++
	d.stats.ReencodeCost += cost
	d.stats.History = append(d.stats.History, EpochRecord{
		Epoch:             next.epoch,
		Reason:            plan.reason,
		AtSample:          d.samplesSeen.Load(),
		Nodes:             d.g.NumNodes(),
		Edges:             d.g.NumEdges(),
		EncodedEdges:      plan.asn.EncodedEdges,
		MaxID:             plan.asn.MaxID,
		Overflowed:        plan.asn.Overflowed,
		CostCycles:        cost,
		Incremental:       plan.incremental,
		ChangedEdges:      len(plan.changed),
		IndexEntries:      plan.indexEntries,
		SitesRebuilt:      sitesRebuilt,
		ThreadsTranslated: threadsTranslated,
		ThreadsSkipped:    threadsSkipped,
		FramesReplayed:    framesReplayed,
		RenumberCost:      renumberCost,
		IndexCost:         indexCost,
		StubCost:          stubCost,
		TranslateCost:     translateCost,
		RenumberNanos:     plan.renumberNanos,
		IndexNanos:        plan.indexNanos,
		StubNanos:         stubNanos,
		TranslateNanos:    translateNanos,
		PrepareNanos:      prepare,
	})
	d.lastPlan = plan

	d.newEdges.Store(0)
	d.unencCalls.Store(0)
	d.hotMiss.Store(0)
	if b := d.backoff.Load(); b < 4 {
		d.backoff.Store(b + 1)
	}

	pause := time.Since(pauseStart).Nanoseconds()
	d.stats.History[len(d.stats.History)-1].PauseNanos = pause
	d.pauseHist.Observe(pause)
	if d.sink != nil {
		d.sink.Emit(telemetry.Event{
			Kind: telemetry.EvReencodeEnd, Thread: tid, Reason: plan.reason,
			Epoch: next.epoch, Site: prog.NoSite, Fn: prog.NoFunc,
			Value: uint64(cost), Aux: plan.asn.MaxID, DurNanos: pause,
		})
	}
}

// reencodeSettleRounds bounds the trigger-hysteresis hold-off: how many
// scheduler yields the gate winner spends waiting for a concurrent
// discovery burst to quiet down before stopping the world, so the pass
// absorbs the whole burst instead of running again moments later.
const reencodeSettleRounds = 8

// maybeReencode is the trigger-firing entry point: one CAS admits a
// single organizer, every concurrent firing returns immediately (its
// trigger state persists, and the winner's pass will either absorb it
// or leave the counters for the next check). The
// winner then holds off briefly while new-edge discovery is still
// advancing — cold-start bursts make all threads cross the threshold
// together, and one slightly-later pass over the full burst costs far
// less than a convoy of stop-the-world passes over its slices — and
// runs the pass with concurrent prepare: the assignment and the decode
// index are computed with the world still running, and only the
// straggler drain, the publication and the delta stub/thread repair
// pay a stop-the-world pause.
func (d *DACCE) maybeReencode(self *machine.Thread) {
	if !d.reencodeGate.CompareAndSwap(false, true) {
		return
	}
	defer d.reencodeGate.Store(false)
	defer d.maybeCollect()
	// Hold off while the burst is still advancing, but absorb at most
	// one extra threshold's worth of discoveries: a yield hands whole
	// scheduler quanta to the discovering threads, and an unbounded
	// wait would starve the encoding (and the epoch cadence the
	// adaptive controller is supposed to keep) of an entire cold start.
	start := d.newEdges.Load()
	last := start
	for i := 0; i < reencodeSettleRounds; i++ {
		runtime.Gosched()
		cur := d.newEdges.Load()
		if cur == last || cur-start >= d.newEdgeThreshold() {
			break
		}
		last = cur
	}
	d.reencodeConcurrent(self, passAuto)
}

// ForceReencode runs one full re-encoding pass unconditionally and
// returns once it has committed, even when it races the organizer's
// adaptive pass. exec is the currently executing thread when called
// from inside a function body, or nil when the machine is idle (before
// or after a run).
func (d *DACCE) ForceReencode(exec prog.Exec) { d.ReencodeNow(exec, false) }

// ReencodeNow runs one re-encoding pass immediately, regardless of
// trigger state. With incremental set the pass renumbers only the
// subgraph affected by edges added since the last pass (falling back to
// a full renumbering when the splice cannot stay incremental);
// otherwise it renumbers fully. Either way the plan is
// prepared off-pause and committed in one short stop-the-world window.
// Bypasses the reencode gate, so the pass has committed on return even
// when it races the organizer. exec is the currently executing thread,
// or nil when the machine is idle.
func (d *DACCE) ReencodeNow(exec prog.Exec, incremental bool) {
	t, _ := exec.(*machine.Thread)
	mode := passForceFull
	if incremental {
		mode = passForceIncremental
	}
	d.reencodeConcurrent(t, mode)
	d.maybeCollect()
}

// reencodeConcurrent is the bounded-pause pass: admission check and
// plan preparation run under d.mu with the world still running, then a
// short stop-the-world window drains stragglers, patches them into the
// plan with a delta Refresh, publishes the epoch and repairs only the
// changed region. d.mu is never held across StopTheWorld — a thread
// blocked on d.mu inside the handler's batch flush is not at a
// safepoint, and the stop would wait for it forever.
func (d *DACCE) reencodeConcurrent(self *machine.Thread, mode passMode) {
	start := time.Now()
	d.mu.Lock()
	d.drainAllLocked()
	trig := d.trigSnapshot()
	if mode == passAuto {
		// Another thread may have completed a pass while we raced to the
		// gate; its counter reset makes the triggers false.
		if !trig.fired() {
			d.mu.Unlock()
			return
		}
		if d.opt.MaxReencodes > 0 && d.stats.GTS >= d.opt.MaxReencodes {
			// Ablation cap reached: keep running on the current encoding.
			d.newEdges.Store(0)
			d.unencCalls.Store(0)
			d.hotMiss.Store(0)
			d.mu.Unlock()
			return
		}
	}
	tid := int32(-1)
	if self != nil {
		tid = int32(self.ID())
	}
	if d.sink != nil {
		d.sink.Emit(telemetry.Event{
			Kind: telemetry.EvReencodeStart, Thread: tid, Reason: trig.reason(mode != passAuto),
			Epoch: d.cur().epoch, Site: prog.NoSite, Fn: prog.NoFunc,
			Value: uint64(d.g.NumEdges()),
		})
	}
	plan := d.preparePlanLocked(mode, trig)
	d.mu.Unlock()

	if d.sink != nil {
		d.sink.Emit(telemetry.Event{
			Kind: telemetry.EvReencodePrepared, Thread: tid, Reason: plan.reason,
			Epoch: plan.prevEpoch, Site: prog.NoSite, Fn: prog.NoFunc,
			Value: uint64(len(plan.changed)), Aux: uint64(plan.renumberedEdges),
			DurNanos: time.Since(start).Nanoseconds(),
		})
	}

	// The pause clock starts before the world stops: the time spent
	// waiting for every thread to reach a safepoint is part of the pause
	// the application experiences.
	pauseStart := time.Now()
	if m := d.m.Load(); m != nil {
		m.StopTheWorld(self)
		defer m.ResumeTheWorld(self)
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	if d.cur().epoch != plan.prevEpoch {
		// A forced pass (which bypasses the gate) published an epoch
		// between our prepare and the stop. The plan is stale; its
		// consumed additions go back to pendingNew, and — for an auto
		// pass — the intervening pass reset the counters, so re-check
		// before paying for a re-preparation inside the pause.
		d.discardPlanLocked(plan)
		d.drainAllLocked()
		trig = d.trigSnapshot()
		if mode == passAuto && !trig.fired() {
			// Aborted: close the span EvReencodeStart opened, leaving
			// the epoch where the intervening pass put it.
			if d.sink != nil {
				snap := d.cur()
				d.sink.Emit(telemetry.Event{
					Kind: telemetry.EvReencodeEnd, Thread: tid, Reason: plan.reason,
					Epoch: snap.epoch, Site: prog.NoSite, Fn: prog.NoFunc,
					Err: true, Aux: snap.maxID, DurNanos: time.Since(pauseStart).Nanoseconds(),
				})
			}
			return
		}
		plan = d.preparePlanLocked(mode, trig)
	} else {
		// Stragglers: edges discovered while the plan was being prepared
		// or while threads drained to their safepoints. The pass must
		// see (and encode) every edge discovered before the world
		// stopped.
		d.drainAllLocked()
		if len(d.pendingNew) > 0 {
			plan = d.extendPlanLocked(plan, trig)
		}
	}
	d.commitPlanLocked(self, plan, start, pauseStart)
}

// translateThreadLocked replays a thread's shadow stack under the
// current assignment, rebuilding its TLS (id and ccStack) and rewriting
// the epilogue cookie of every active frame. Runs either with the world
// stopped and d.mu held (re-encoding passes, tail fix-ups), or under
// d.mu by a thread translating itself mid-call (the tail-frame
// self-heal): the replay reads only the published snapshot and the
// lock-free graph shards, and writes only the thread's own TLS and
// frames, which nothing else can touch while their owner is
// off-safepoint. The replay applies exactly the semantics the
// regenerated stubs will apply, so subsequent epilogues unwind the new
// state consistently.
func (d *DACCE) translateThreadLocked(t *machine.Thread) {
	st, ok := t.State.(*tls)
	if !ok || st == nil {
		return
	}
	st.id = 0
	st.cc = st.cc[:0]
	for i := 1; i < t.Depth(); i++ {
		f := t.FrameAt(i)
		act := d.actionFor(edgeRef{f.Site, f.Fn})
		ck := d.applyAction(nil, st, f.Site, f.Fn, act)
		if !f.Tail {
			f.Cook = ck
			f.EpiStub = d.epi
		}
	}
}

// healTailFrame re-translates the calling thread's own active frames
// when a tail call is about to execute under an enclosing frame that
// predates its caller's tail-set membership. Tail discovery publishes
// the tail bit and patches the tail site from the discovering trap, but
// the in-edge save-wraps and the frame rewrites happen in a
// stop-the-world fix-up that other threads can outrun: returns are not
// safepoints, so a thread already past a stale (non-save) in-edge stub
// would push the tail entry and unwind through an epilogue that cannot
// retract it, leaking the entry into its root state for good. Replaying
// the thread's own shadow stack rewrites the nearest non-tail enclosing
// frame to a TcStack save before the push can escape. Steady state pays
// one frame peek per tail call: once the in-edge stubs are rebuilt,
// every new enclosing frame already carries the save cookie.
func (d *DACCE) healTailFrame(t *machine.Thread) {
	if !d.tailFrameStale(t) {
		return
	}
	d.mu.Lock()
	d.translateThreadLocked(t)
	d.stats.TailHeals++
	d.mu.Unlock()
}

// tailFrameStale reports whether the thread's nearest non-tail active
// frame lacks the TcStack save cookie a tail call below it relies on
// for cleanup. The root frame (index 0) has no cookie and never
// returns mid-run, so a tail call directly under the root needs no
// save.
func (d *DACCE) tailFrameStale(t *machine.Thread) bool {
	if t == nil {
		return false
	}
	i := t.Depth() - 1
	for i > 0 && t.FrameAt(i).Tail {
		i--
	}
	return i > 0 && t.FrameAt(i).Cook.Tag != tagSave
}

// tailFixup runs when fn is first discovered to contain a tail call
// (paper §5.2): every site calling fn must save and restore the
// encoding context around the call. Already-active invocations get
// their frames rewritten by the same replay used for re-encoding.
func (d *DACCE) tailFixup(self *machine.Thread, fn prog.FuncID) {
	m := d.m.Load() // non-nil: only reachable from an installed trap
	m.StopTheWorld(self)
	defer m.ResumeTheWorld(self)
	d.mu.Lock()
	defer d.mu.Unlock()

	// A pending in-edge of fn would otherwise be invisible to the
	// In-list walk below and miss its save-wrap rebuild.
	d.drainAllLocked()
	if n := d.g.Node(fn); n != nil {
		for _, e := range n.In {
			d.rebuildSite(e.Site)
		}
	}
	for _, t := range m.Threads() {
		d.translateThreadLocked(t)
	}
	d.stats.TailFixups++
	if d.sink != nil {
		tid := int32(-1)
		if self != nil {
			tid = int32(self.ID())
		}
		d.sink.Emit(telemetry.Event{
			Kind: telemetry.EvTailFixup, Thread: tid,
			Epoch: d.cur().epoch, Site: prog.NoSite, Fn: fn,
		})
	}
}
