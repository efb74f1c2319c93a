package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dacce/internal/graph"
	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/telemetry"
)

// actKind classifies the instrumentation an edge gets at the current
// epoch.
type actKind uint8

const (
	// actEncoded: id += code before the call, id -= code after
	// (Fig. 1); code 0 means no instrumentation at all.
	actEncoded actKind = iota
	// actUnencoded: push <id, callsite, target> on the ccStack and set
	// id = maxID+1 (Fig. 2b). Used for edges discovered since the last
	// re-encoding and for edges excluded to fit the id budget.
	actUnencoded
	// actRecursive: a back edge — never encoded (§3.3); like
	// actUnencoded but with the repetition compression of Fig. 5e when
	// enabled.
	actRecursive
)

// edgeAction is the decoded instrumentation decision for one edge.
type edgeAction struct {
	target   prog.FuncID
	kind     actKind
	code     uint64
	compress bool
	// save wraps the call in a TcStack save/restore of the encoding
	// context because the callee contains tail calls (Fig. 7b).
	save bool
}

// Cookie tags: how the epilogue undoes the prologue.
const (
	tagNone     uint8 = iota // nothing to undo
	tagEnc                   // id -= A
	tagPop                   // id = ccStack.pop().ID
	tagRecCount              // id = ccStack.top().ID; top.Count--
	tagSave                  // id = A; ccStack truncated to B
)

// applyAction performs the prologue side of an action on TLS st and
// returns the cookie its epilogue needs. t carries cost accounting and
// is nil during re-encoding replay (translation charges separately).
//
// The ccStack marker id (maxID+1) is read from the published snapshot
// inside the branches that need it, not baked into the generated stubs:
// a prologue runs off-safepoint, so the epoch — and with it maxID — is
// stable for the duration of the call, and reading it here means a
// re-encoding pass only has to regenerate stubs whose action changed,
// not every unencoded/recursive stub in the program whenever maxID
// moves. The encoded fast path never pays the extra snapshot load.
func (d *DACCE) applyAction(t *machine.Thread, st *tls, sid prog.SiteID, target prog.FuncID, act edgeAction) machine.Cookie {
	switch act.kind {
	case actEncoded:
		if act.save {
			ck := machine.Cookie{Tag: tagSave, A: st.id, B: uint64(len(st.cc))}
			st.id += act.code
			if t != nil {
				t.C.TcSaves++
				t.C.InstrCost += machine.CostTcSave
				if act.code > 0 {
					t.C.InstrCost += machine.CostIDAdd
				}
			}
			return ck
		}
		if act.code == 0 {
			return machine.Cookie{Tag: tagNone}
		}
		st.id += act.code
		if t != nil {
			t.C.InstrCost += machine.CostIDAdd
		}
		return machine.Cookie{Tag: tagEnc, A: act.code}

	case actUnencoded:
		markID := d.cur().maxID + 1
		if act.save {
			ck := machine.Cookie{Tag: tagSave, A: st.id, B: uint64(len(st.cc))}
			d.pushCC(t, st, CCEntry{ID: st.id, Site: sid, Target: target})
			st.id = markID
			if t != nil {
				t.C.TcSaves++
				t.C.InstrCost += machine.CostTcSave
				d.unencCalls.Add(1)
			}
			return ck
		}
		d.pushCC(t, st, CCEntry{ID: st.id, Site: sid, Target: target})
		st.id = markID
		if t != nil {
			d.unencCalls.Add(1)
		}
		return machine.Cookie{Tag: tagPop}

	case actRecursive:
		markID := d.cur().maxID + 1
		if act.save {
			// Rare combination (recursive edge into a tail-containing
			// function): use the uncompressed push with a full restore.
			ck := machine.Cookie{Tag: tagSave, A: st.id, B: uint64(len(st.cc))}
			d.pushCC(t, st, CCEntry{ID: st.id, Site: sid, Target: target, Rec: true})
			st.id = markID
			if t != nil {
				t.C.TcSaves++
				t.C.InstrCost += machine.CostTcSave
			}
			return ck
		}
		if act.compress {
			if t != nil {
				t.C.Compares += 2
				t.C.InstrCost += 2 * machine.CostCompare
			}
			if n := len(st.cc); n > 0 {
				top := &st.cc[n-1]
				if top.Rec && top.ID == st.id && top.Site == sid && top.Target == target {
					top.Count++
					st.id = markID
					if t != nil {
						t.C.CCPeek++
						t.C.InstrCost += machine.CostCCPeek
					}
					return machine.Cookie{Tag: tagRecCount}
				}
			}
		}
		d.pushCC(t, st, CCEntry{ID: st.id, Site: sid, Target: target, Rec: true})
		st.id = markID
		return machine.Cookie{Tag: tagPop}
	}
	panic(fmt.Sprintf("core: unknown action kind %d", act.kind))
}

// pushCC pushes an entry on the thread's ccStack, charging the model
// cost when t is non-nil. Re-encoding replay (t == nil) re-creates
// entries rather than performing new pushes, so it neither charges nor
// emits telemetry.
func (d *DACCE) pushCC(t *machine.Thread, st *tls, e CCEntry) {
	st.cc = append(st.cc, e)
	if t != nil {
		t.C.CCPush++
		t.C.InstrCost += machine.CostCCPush
		if len(st.cc) > t.C.MaxCCDepth {
			t.C.MaxCCDepth = len(st.cc)
		}
		if d.sink != nil {
			d.sink.Emit(telemetry.Event{
				Kind: telemetry.EvCCStackPush, Thread: int32(t.ID()),
				Epoch: d.cur().epoch, Site: e.Site, Fn: e.Target,
				Value: uint64(len(st.cc)),
			})
		}
	}
}

// epiStub is the shared epilogue: it dispatches on the cookie tag, so
// rewriting a frame's cookie rewrites its return behaviour.
type epiStub struct{ d *DACCE }

func (e *epiStub) Prologue(t *machine.Thread, s *prog.Site, target prog.FuncID) (machine.Cookie, machine.Stub) {
	panic("core: epilogue stub used as prologue")
}

func (e *epiStub) Epilogue(t *machine.Thread, s *prog.Site, target prog.FuncID, c machine.Cookie) {
	st := t.State.(*tls)
	switch c.Tag {
	case tagNone:
	case tagEnc:
		st.id -= c.A
		t.C.InstrCost += machine.CostIDAdd
	case tagPop:
		n := len(st.cc)
		if n == 0 {
			panic("core: ccStack underflow on return")
		}
		st.id = st.cc[n-1].ID
		st.cc = st.cc[:n-1]
		t.C.CCPop++
		t.C.InstrCost += machine.CostCCPop
		if d := e.d; d.sink != nil {
			d.sink.Emit(telemetry.Event{
				Kind: telemetry.EvCCStackPop, Thread: int32(t.ID()),
				Epoch: d.cur().epoch, Site: s.ID, Fn: target,
				Value: uint64(n - 1),
			})
		}
	case tagRecCount:
		n := len(st.cc)
		if n == 0 {
			panic("core: ccStack underflow on compressed return")
		}
		top := &st.cc[n-1]
		st.id = top.ID
		top.Count--
		t.C.CCPeek++
		t.C.InstrCost += machine.CostCCPeek
	case tagSave:
		st.id = c.A
		if int(c.B) > len(st.cc) {
			panic("core: TcStack restore past ccStack top")
		}
		st.cc = st.cc[:c.B]
		t.C.TcSaves++
		t.C.InstrCost += machine.CostTcSave
	default:
		panic(fmt.Sprintf("core: unknown cookie tag %d", c.Tag))
	}
}

// trapStub is the initial instrumentation of every call site: invoke
// the runtime handler (paper §3).
type trapStub struct{ d *DACCE }

func (ts *trapStub) Prologue(t *machine.Thread, s *prog.Site, target prog.FuncID) (machine.Cookie, machine.Stub) {
	return ts.d.trapApply(t, s, target)
}

func (ts *trapStub) Epilogue(t *machine.Thread, s *prog.Site, target prog.FuncID, c machine.Cookie) {
	ts.d.epi.Epilogue(t, s, target, c)
}

// discoveryBatch is how many discovered edges a thread's publication
// buffer accumulates before the owner registers the whole batch under
// one d.mu acquisition. Small enough that pendingNew never lags far
// behind discovery, large enough that a cold-start burst amortizes the
// global lock ~discoveryBatch-fold.
const discoveryBatch = 32

// trapApply is the runtime handler: add the invoked edge to the call
// graph, patch the site, possibly fix up tail-containing callers and
// trigger a re-encoding, then execute this invocation as an unencoded
// call (Figs. 2b, 3b: push, id = maxID+1).
//
// The handler never takes d.mu on its own behalf: edge existence
// lives in the site's graph shard, the stub rebuild serializes per
// site-shard, and the new edge is published through the thread's buffer
// (batch-registered under one d.mu acquisition per discoveryBatch
// edges). The unencoded-call application is entirely lock-free — safe
// because a thread inside the handler is not at a safepoint, so no
// stop-the-world pass (and therefore no snapshot unpublication or state
// translation) can complete while the trap is in flight; every d.cur()
// read below sees one stable epoch unless this trap runs a pass itself,
// in which case it re-reads afterwards.
func (d *DACCE) trapApply(t *machine.Thread, s *prog.Site, target prog.FuncID) (machine.Cookie, machine.Stub) {
	start := time.Now()
	t.C.HandlerTraps++
	t.C.InstrCost += machine.CostHandlerTrap

	epoch := d.cur().epoch
	tailFix := prog.NoFunc
	e, isNew := d.g.DiscoverEdge(s.ID, target)
	atomic.AddInt64(&e.Freq, 1)
	edgesDiscovered := d.edgesDiscovered.Load()
	if s.Kind.IsTail() && !d.cur().tail[s.Caller] {
		// Tail-set publication is a snapshot swap, so it stays under
		// d.mu (rare: once per tail-containing caller). Checked outside
		// isNew: a thread racing the discoverer can observe the edge
		// before the discoverer publishes the tail bit, and must not
		// proceed to the push below while the bit is still unset — the
		// tail-frame self-heal relies on the bit to save-wrap the
		// enclosing frame.
		d.mu.Lock()
		if snap := d.cur(); !snap.tail[s.Caller] {
			d.snap.Store(snap.withTailLocked(s.Caller))
			tailFix = s.Caller
		}
		d.mu.Unlock()
	}
	if isNew {
		edgesDiscovered = d.edgesDiscovered.Add(1)
		d.newEdges.Add(1)
		d.edgeCount.Add(1)
		d.rebuildSite(s.ID)
		d.publishDiscovery(t, e)
	}
	d.emitTrap(t, s, target, isNew, edgesDiscovered, epoch, start)

	if tailFix != prog.NoFunc {
		d.tailFixup(t, tailFix)
	}
	if d.triggersFired() {
		d.maybeReencode(t)
	}

	// Execute this invocation as an unencoded call against the newest
	// published state (re-read after any pass above; the translation
	// replays only the shadow stack, which does not yet include this
	// in-flight frame).
	if s.Kind.IsTail() {
		d.healTailFrame(t)
	}
	snap := d.cur()
	st := t.State.(*tls)
	save := snap.tail[target] && !s.Kind.IsTail()
	ck := d.applyAction(t, st, s.ID, target,
		edgeAction{target: target, kind: actUnencoded, save: save})
	d.trapHist.Observe(time.Since(start).Nanoseconds())
	return ck, d.epi
}

// publishDiscovery appends a newly discovered edge to the thread's
// publication buffer and, when the buffer reaches discoveryBatch,
// registers the whole batch with the graph registry under one d.mu
// acquisition. The buffer mutex is never held across the flush, so the
// locking order stays acyclic with drainAllLocked (d.mu → discMu).
func (d *DACCE) publishDiscovery(t *machine.Thread, e *graph.Edge) {
	buf := t.State.(*tls).disc
	buf.mu.Lock()
	buf.edges = append(buf.edges, e)
	var batch []*graph.Edge
	if len(buf.edges) >= discoveryBatch {
		batch = buf.edges
		buf.edges = nil
	}
	buf.mu.Unlock()
	d.flushBatch(batch)
}

// flushBatch registers a drained publication batch under d.mu. No-op
// for empty batches.
func (d *DACCE) flushBatch(batch []*graph.Edge) {
	if len(batch) == 0 {
		return
	}
	d.mu.Lock()
	d.g.RegisterEdges(batch)
	d.pendingNew = append(d.pendingNew, batch...)
	d.mu.Unlock()
}

// drainAllLocked empties every thread's publication buffer into the
// graph registry and pendingNew. Caller holds d.mu, which also guards
// the d.discBufs registry the iteration walks. Every pass, export and
// registry-reading accessor drains first, so the registered view is
// complete whenever anything deterministic is derived from it;
// per-buffer mutexes (not a world stop) make this safe mid-run, which
// the differential harness's mid-trace snapshot archiving relies on.
func (d *DACCE) drainAllLocked() {
	for _, buf := range d.discBufs {
		buf.mu.Lock()
		batch := buf.edges
		buf.edges = nil
		buf.mu.Unlock()
		if len(batch) > 0 {
			d.g.RegisterEdges(batch)
			d.pendingNew = append(d.pendingNew, batch...)
		}
	}
}

// emitTrap emits the handler-trap (and, for new edges, edge-discovered)
// telemetry. epoch is the gTimeStamp observed at trap entry — captured
// before any lock release or pass, so a re-encoding racing the emission
// cannot misattribute the trap to the epoch it did not run under. The
// event's duration is the handler latency up to emission — it excludes
// any re-encoding pass this trap goes on to trigger, which is measured
// separately as that pass's pause (the always-on trapHist records the
// full wall time, pass included).
func (d *DACCE) emitTrap(t *machine.Thread, s *prog.Site, target prog.FuncID, isNew bool, edgesDiscovered int64, epoch uint32, start time.Time) {
	if d.sink == nil {
		return
	}
	d.sink.Emit(telemetry.Event{
		Kind: telemetry.EvHandlerTrap, Thread: int32(t.ID()),
		Epoch: epoch, Site: s.ID, Fn: target,
		DurNanos: time.Since(start).Nanoseconds(),
	})
	if isNew {
		d.sink.Emit(telemetry.Event{
			Kind: telemetry.EvEdgeDiscovered, Thread: int32(t.ID()),
			Epoch: epoch, Site: s.ID, Fn: target,
			Value: uint64(edgesDiscovered),
		})
	}
}

// siteStub is the generated instrumentation of one call site after its
// first invocation. Exactly one of direct, inline and hash is set.
type siteStub struct {
	d      *DACCE
	site   prog.SiteID
	tail   bool         // the site itself is a tail call
	direct *edgeAction  // direct call: one known edge
	inline []edgeAction // indirect, few targets: compare chain (Fig. 3d)
	hash   *hashTable   // indirect, many targets: one-probe hash (Fig. 4)
}

func (ss *siteStub) Prologue(t *machine.Thread, s *prog.Site, target prog.FuncID) (machine.Cookie, machine.Stub) {
	if ss.tail {
		ss.d.healTailFrame(t)
	}
	st := t.State.(*tls)
	switch {
	case ss.direct != nil:
		return ss.d.applyAction(t, st, ss.site, target, *ss.direct), ss.d.epi
	case ss.hash != nil:
		t.C.HashProbes++
		t.C.InstrCost += machine.CostHashProbe
		if code, ok := ss.hash.lookup(target); ok {
			act := edgeAction{target: target, kind: actEncoded, code: code}
			return ss.d.applyAction(t, st, ss.site, target, act), ss.d.epi
		}
		// Targets the hash cannot hold (save-wrapped, recursive,
		// unencoded) sit on a short compare chain behind it; only
		// genuinely unknown targets trap.
		for i := range ss.inline {
			t.C.Compares++
			t.C.InstrCost += machine.CostCompare
			if ss.inline[i].target == target {
				return ss.d.applyAction(t, st, ss.site, target, ss.inline[i]), ss.d.epi
			}
		}
		return ss.d.trapApply(t, s, target)
	default:
		for i := range ss.inline {
			t.C.Compares++
			t.C.InstrCost += machine.CostCompare
			if ss.inline[i].target == target {
				return ss.d.applyAction(t, st, ss.site, target, ss.inline[i]), ss.d.epi
			}
		}
		return ss.d.trapApply(t, s, target)
	}
}

func (ss *siteStub) Epilogue(t *machine.Thread, s *prog.Site, target prog.FuncID, c machine.Cookie) {
	ss.d.epi.Epilogue(t, s, target, c)
}

// hashTable is the indirect-target dispatch table of Fig. 4: a single
// probe per invocation; conflicts and unknown targets fall back to the
// runtime handler. Only plainly encoded targets are installed.
type hashTable struct {
	mask  uint32
	slots []hashSlot
}

type hashSlot struct {
	used   bool
	target prog.FuncID
	code   uint64
}

func hashTarget(f prog.FuncID) uint32 { return uint32(f) * 2654435761 }

// buildHash installs plainly encoded targets into the one-probe table
// and returns everything it could not place (save-wrapped, recursive,
// unencoded, or conflicting targets) for the fallback compare chain.
func buildHash(actions []edgeAction) (*hashTable, []edgeAction) {
	size := 4
	for size < 2*len(actions) {
		size *= 2
	}
	h := &hashTable{mask: uint32(size - 1), slots: make([]hashSlot, size)}
	var rest []edgeAction
	for _, a := range actions {
		if a.kind != actEncoded || a.save {
			rest = append(rest, a)
			continue
		}
		i := hashTarget(a.target) & h.mask
		if h.slots[i].used {
			rest = append(rest, a) // conflict (Fig. 4): dispatch behind the table
			continue
		}
		h.slots[i] = hashSlot{used: true, target: a.target, code: a.code}
	}
	return h, rest
}

func (h *hashTable) lookup(target prog.FuncID) (uint64, bool) {
	s := h.slots[hashTarget(target)&h.mask]
	if s.used && s.target == target {
		return s.code, true
	}
	return 0, false
}

// actionFor computes the instrumentation decision for one edge under
// the newest assignment. Reads only the published snapshot and the
// sharded edge-existence maps, so the trap path calls it without d.mu;
// a re-encoding publishes the new epoch's snapshot before rebuilding,
// so the published snapshot is always the newest state, and no pass can
// complete mid-call (the caller is either off-safepoint in the handler
// or holds d.mu with the world stopped).
func (d *DACCE) actionFor(e edgeRef) edgeAction {
	return d.actionForIn(d.cur(), e)
}

// actionForIn is actionFor against an explicit snapshot; the
// delta-rebuild equivalence tests use it to compare the action an edge
// had under the previous epoch against the current one.
func (d *DACCE) actionForIn(snap *encSnap, e edgeRef) edgeAction {
	asn := snap.asn()
	ge := d.g.Edge(e.site, e.target)
	act := edgeAction{target: e.target}
	if !s_isTail(d.p, e.site) {
		act.save = snap.tail[e.target]
	}
	if ge == nil {
		act.kind = actUnencoded
		return act
	}
	code, ok := asn.CodeOf(ge)
	switch {
	case ok && code.Encoded:
		act.kind = actEncoded
		act.code = code.Value
	case ok && code.Back:
		act.kind = actRecursive
		// Compression mutates the matched entry in place (Count++), and
		// the matching decrement runs in this call's own epilogue. A
		// tail call has no epilogue: its effects are undone wholesale by
		// the enclosing TcStack restore, which truncates the ccStack but
		// cannot reverse an in-place increment of an entry below the
		// save watermark. Tail back edges therefore always push.
		act.compress = snap.compress[edgeKeyOf(ge)] && !act.save && !s_isTail(d.p, e.site)
	default:
		act.kind = actUnencoded
	}
	return act
}

// edgeRef names an edge by site and target.
type edgeRef struct {
	site   prog.SiteID
	target prog.FuncID
}

func s_isTail(p *prog.Program, sid prog.SiteID) bool { return p.Site(sid).Kind.IsTail() }

// siteShardCount is the number of stub-rebuild shards; power of two so
// the shard index is a mask.
const siteShardCount = 64

// siteShard serializes stub rebuilds for the sites hashing to it and
// owns their hash-promotion dedup set. Without it, two threads
// concurrently discovering different targets of one indirect site could
// install stubs out of order and lose the later target until the next
// full pass; with it, the last rebuild to run has seen every inserted
// edge.
type siteShard struct {
	mu     sync.Mutex
	hashed map[prog.SiteID]bool // sites promoted to hash dispatch
}

func (d *DACCE) siteShard(sid prog.SiteID) *siteShard {
	return &d.siteShards[uint32(sid)&(siteShardCount-1)]
}

// rebuildSite regenerates the stub of one call site from the current
// graph and assignment, serialized per site-shard. Safe both from the
// trap path (no d.mu) and under d.mu with the world stopped
// (lock order d.mu → siteShard.mu is respected everywhere).
func (d *DACCE) rebuildSite(sid prog.SiteID) {
	sh := d.siteShard(sid)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	m := d.m.Load() // non-nil: rebuilds only run on an installed encoder
	edges := d.g.EdgesAt(sid)
	if len(edges) == 0 {
		m.SetStub(sid, d.trap)
		return
	}
	s := d.p.Site(sid)
	if !s.Kind.IsIndirect() {
		act := d.actionFor(edgeRef{sid, edges[0].Target})
		if act.kind == actEncoded && act.code == 0 && !act.save {
			// The hottest edge into each node is encoded 0 and needs no
			// instrumentation at all (paper §4).
			m.SetStub(sid, machine.PlainStub())
			return
		}
		a := act
		m.SetStub(sid, &siteStub{d: d, site: sid, tail: s.Kind.IsTail(), direct: &a})
		return
	}
	actions := make([]edgeAction, 0, len(edges))
	for _, e := range edges {
		actions = append(actions, d.actionFor(edgeRef{sid, e.Target}))
	}
	if len(actions) <= d.opt.InlineThreshold {
		m.SetStub(sid, &siteStub{d: d, site: sid, tail: s.Kind.IsTail(), inline: actions})
		return
	}
	// Plainly encoded targets dispatch through the one-probe hash
	// (Fig. 4); the rest — and hash conflicts — stay on a compare chain
	// behind it.
	h, rest := buildHash(actions)
	m.SetStub(sid, &siteStub{d: d, site: sid, tail: s.Kind.IsTail(), hash: h, inline: rest})
	if !sh.hashed[sid] {
		sh.hashed[sid] = true
		if d.sink != nil {
			d.sink.Emit(telemetry.Event{
				Kind: telemetry.EvIndirectPromoted, Thread: -1,
				Epoch: d.cur().epoch, Site: sid, Fn: prog.NoFunc,
				Value: uint64(len(actions)),
			})
		}
	}
}

// rebuildAllLocked regenerates every patched site and reports how many
// it rebuilt. Caller holds d.mu with the world stopped (or before any
// thread runs), with publication buffers drained, so every discovered
// edge is registered and visible.
func (d *DACCE) rebuildAllLocked() int {
	rebuilt := 0
	for sid := 0; sid < d.p.NumSites(); sid++ {
		if len(d.g.EdgesAt(prog.SiteID(sid))) > 0 {
			d.rebuildSite(prog.SiteID(sid))
			rebuilt++
		}
	}
	return rebuilt
}
