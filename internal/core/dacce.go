package core

import (
	"sync"
	"sync/atomic"

	"dacce/internal/blenc"
	"dacce/internal/ccdag"
	"dacce/internal/graph"
	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/telemetry"
)

// Triggers configures the adaptive controller (paper §4): re-encoding
// runs when the number of newly identified edges reaches a threshold,
// or when frequently invoked call paths are not encoded. The paper's
// third trigger, ccStack traffic, is subsumed: the only ccStack traffic
// a pass can remove is unencoded-edge traffic, which UnencodedCalls
// already counts; back edges push under every encoding. Only what a
// pass can encode is counted, so a stationary program stops
// re-encoding. Zero values take the defaults; the traffic thresholds
// are scaled by the controller's backoff (×2 per pass, capped at ×16).
type Triggers struct {
	// NewEdges re-encodes after this many newly discovered edges
	// (reason new_edges). A pass fired by discovery alone renumbers
	// incrementally.
	NewEdges int
	// UnencodedCalls re-encodes after this many invocations of
	// non-back unencoded edges since the last pass (reason
	// unencoded_calls).
	UnencodedCalls int64
	// HotMissSamples re-encodes after this many samples taken inside a
	// saved sub-path a pass can encode: the id is in the marker range
	// and the innermost ccStack entry is not a back edge (reason
	// hot_path).
	HotMissSamples int64
}

// Default trigger thresholds.
const (
	DefaultNewEdges       = 24
	DefaultUnencodedCalls = 1 << 11
	DefaultHotMiss        = 32
)

func (tr *Triggers) fill() {
	if tr.NewEdges == 0 {
		tr.NewEdges = DefaultNewEdges
	}
	if tr.UnencodedCalls == 0 {
		tr.UnencodedCalls = DefaultUnencodedCalls
	}
	if tr.HotMissSamples == 0 {
		tr.HotMissSamples = DefaultHotMiss
	}
}

// Options configures a DACCE instance.
type Options struct {
	// Budget caps the maximum context id (default blenc.DefaultBudget).
	Budget uint64
	// InlineThreshold is the largest number of identified indirect
	// targets dispatched by an inline compare chain (Fig. 3d); above
	// it, the one-probe hash table of Fig. 4 is generated.
	InlineThreshold int
	// CompressMinPushes enables recursion compression on a back edge
	// once it has caused this many ccStack pushes (paper §4: "if they
	// are highly repetitive, adjust the encoding algorithm on recursive
	// calls").
	CompressMinPushes int64
	// Trig holds the adaptive-controller thresholds.
	Trig Triggers
	// NoHotFirst disables the hottest-edge-gets-code-0 ordering during
	// re-encoding (ablation of the §4 adaptive-ordering optimization).
	NoHotFirst bool
	// MaxReencodes caps the number of adaptive passes; after the cap,
	// newly discovered edges stay on the ccStack forever. 0 means
	// unlimited. (Ablation: "dynamic but not adaptive".)
	MaxReencodes int
	// TrackProgress records a Fig. 9-style progress point every
	// ProgressEvery samples.
	TrackProgress bool
	// ProgressEvery is the progress sampling stride (default 16).
	ProgressEvery int64
	// Sink receives the telemetry event stream (edge discovery,
	// re-encoding passes with their trigger reason, ccStack traffic,
	// indirect promotions, id overflows, tail fix-ups, decode
	// requests). Nil — the default — emits nothing; every emission
	// site guards on it with a single branch, so an unobserved run
	// constructs no events.
	Sink telemetry.Sink
	// ContextObserver receives every context the sampling controller
	// decodes, straight off the live OnSample path — the feed of the
	// always-on streaming profiler (ccprof.Streaming). Nil disables the
	// hook. See SetContextObserver for the contract.
	ContextObserver ContextObserver
}

// ContextObserver consumes the live sampling path's decoded calling
// contexts as canonical hash-consed DAG nodes: the sampling controller
// interns each decoded context into the encoder's DAG (allocation-free
// once the DAG holds it) and hands the observer the node — one word,
// pointer-comparable, valid until the DAG collects it. Implementations
// must be safe for concurrent calls from multiple machine threads, must
// not call back into the encoder, and must be cheap and allocation-free
// at steady state — the observer runs inside the sampling controller
// the 0-alloc gate covers.
//
// ReleaseNodes is the reclamation hook: the encoder calls it right
// before each DAG collection, so an observer that retains nodes (the
// streaming profiler's shard maps) can fold and drop those references
// and the collection can actually free them. It must be safe to call
// concurrently with ObserveContextNode.
type ContextObserver interface {
	ObserveContextNode(thread int, n *ccdag.Node)
	ReleaseNodes()
}

// DefaultInlineThreshold matches the paper's "small number of indirect
// targets" regime.
const DefaultInlineThreshold = 4

// DefaultCompressMinPushes is the default repetitiveness threshold for
// enabling recursion compression.
const DefaultCompressMinPushes = 128

// DACCE is the dynamic and adaptive calling-context encoder. Create it
// with New, pass it to machine.New as the Scheme, and decode captures
// with Decode after (or during) the run.
//
// Concurrency: the steady state is lock-free. Patched stubs mutate only
// thread-local state and atomic counters; the read-mostly encoding
// state lives in an immutable snapshot (see encSnap) published through
// snap, so the sampling controller, periodic maintenance, decode
// requests and the public accessors never contend on mu. The mutex
// guards actual mutation only: graph edge insertion and stub patching
// in the runtime handler, and the stop-the-world rebuild of a
// re-encoding pass.
type DACCE struct {
	opt Options

	// m is the installed machine, published atomically so an external
	// ForceReencode can race Install safely (it simply sees no machine
	// and skips the stop-the-world).
	m atomic.Pointer[machine.Machine]
	p *prog.Program

	// epi is the shared epilogue stub; all frame epilogues dispatch on
	// their cookie's tag.
	epi *epiStub
	// trap is the shared initial stub (runtime-handler trap).
	trap *trapStub

	// snap is the published read-mostly encoding state. Loads are
	// lock-free; stores happen under mu.
	snap atomic.Pointer[encSnap]

	// mu guards the graph registry (NodeSeq/Edges/adjacency),
	// snapshot publication and the discovery state below. Stubs on the
	// fast path never take it, and the runtime handler does not either:
	// a trap touches only its site's graph shard and rebuild shard, and
	// publishes the new edge through the thread's buffer, which is
	// batch-registered under one mu acquisition per discoveryBatch edges
	// (or at the next pass/export, whichever drains first).
	mu         sync.Mutex
	g          *graph.Graph
	pendingNew []*graph.Edge // edges registered since the last pass

	// discBufs lists every thread's edge publication buffer, appended
	// at ThreadStart. drainAllLocked iterates this registry — not the
	// machine's thread list — because a spawning thread's State field
	// is written with no synchronization a mid-run drainer could order
	// against. Exited threads leave their (empty) buffer behind; the
	// list is bounded by threads started over the encoder's life.
	discBufs []*discBuf

	// siteShards serialize concurrent stub rebuilds of the same call
	// site (two threads discovering different targets of one indirect
	// site) without any global lock; the shard also owns the
	// hash-promotion dedup set for its sites. Lock order: mu →
	// siteShard.mu → graph shard (never the reverse).
	siteShards [siteShardCount]siteShard

	// reencodeGate admits one thread at a time into the re-encoding
	// slow path: concurrent trigger firings — the cold-start norm, when
	// every thread's counters cross the threshold together — coalesce
	// into a single stop-the-world pass instead of a convoy of stoppers
	// each paying a world-stop to discover the winner already reset the
	// counters. Bypassed by ForceReencode and ReencodeNow.
	reencodeGate atomic.Bool

	// edgesDiscovered counts first invocations seen by the handler;
	// atomic because traps bump it without mu.
	edgesDiscovered atomic.Int64

	// sink receives telemetry events; nil disables emission (the fast
	// path — each emission site is one predictable branch).
	sink telemetry.Sink

	// obs is the streaming-profiler hook, published atomically so it
	// can be attached to an already-running encoder without a race with
	// in-flight samples.
	obs atomic.Pointer[ContextObserver]

	// dag is the encoder's hash-consed context DAG: the intern table
	// behind DecodeNode/DecodeSampleNode and the sampling context
	// observer. Created with the encoder; a node stays canonical across
	// re-encoding epochs because it is keyed by decoded frames, not by
	// encoded ids. The table is bounded, not append-only: the DAG's
	// generation advances in lockstep with the epoch counter, and
	// maybeCollect sweeps nodes untouched since the low-water epoch
	// after each pass (see reclaim.go).
	dag *ccdag.DAG

	// capRefs counts outstanding (un-released) captures per epoch; the
	// oldest epoch with a nonzero counter is the low-water epoch below
	// which no capture can legally still be decoded. The slice is
	// copy-grown under mu before the snapshot introducing a new epoch is
	// published; entries are pointers because atomic.Int64 must not be
	// copied during growth.
	capRefs atomic.Pointer[[]*atomic.Int64]

	// collectFloor is the highest floor a DAG collection has run with;
	// maybeCollect CASes it forward so a pass that did not advance the
	// low-water mark costs one atomic load.
	collectFloor atomic.Uint64

	// Always-on latency histograms over the runtime's own control
	// points. They exist regardless of any sink — the warmup suite
	// reads pause quantiles from every run and the SLO watchdog needs
	// live sources — and they are off the per-call fast path: a pass,
	// a trap and an external decode are each rare enough that one
	// lock-free Observe is noise.
	pauseHist  *telemetry.Histogram // STW re-encoding pause, wall ns
	trapHist   *telemetry.Histogram // runtime-handler trap latency, wall ns
	decodeHist *telemetry.Histogram // external Decode latency, wall ns

	// Adaptive-trigger counters, reset at each re-encoding. All are
	// atomic so the trigger pre-check (Maintain, OnSample, the trap's
	// fast path) is a handful of loads with no lock. backoff scales the
	// traffic-driven thresholds up after every pass, so re-encoding is
	// frequent during warm-up and rare at steady state (the behaviour
	// Fig. 9 shows). edgeCount shadows g.NumEdges() for the lock-free
	// adaptive new-edge threshold.
	backoff     atomic.Uint32
	newEdges    atomic.Int64
	edgeCount   atomic.Int64
	unencCalls  atomic.Int64
	hotMiss     atomic.Int64
	samplesSeen atomic.Int64

	stats Stats

	// lastPlan is the plan the most recent pass committed, kept (under
	// mu) for the white-box delta-vs-full equivalence tests; production
	// code never reads it.
	lastPlan *passPlan
}

// capturePool recycles Capture snapshots (and their ccStack copy
// backing arrays) between samples. The machine returns unretained
// captures through ReleaseCapture after the sampling observer is done
// with them, so steady-state sampling allocates nothing.
var capturePool = sync.Pool{New: func() any { return new(Capture) }}

// New returns a DACCE scheme for program p.
func New(p *prog.Program, opt Options) *DACCE {
	if opt.Budget == 0 {
		opt.Budget = blenc.DefaultBudget
	}
	if opt.InlineThreshold == 0 {
		opt.InlineThreshold = DefaultInlineThreshold
	}
	if opt.CompressMinPushes == 0 {
		opt.CompressMinPushes = DefaultCompressMinPushes
	}
	if opt.ProgressEvery == 0 {
		opt.ProgressEvery = 16
	}
	opt.Trig.fill()
	d := &DACCE{
		opt:        opt,
		p:          p,
		g:          graph.New(p),
		dag:        ccdag.New(),
		sink:       opt.Sink,
		pauseHist:  telemetry.NewHistogram(telemetry.DurationBuckets()),
		trapHist:   telemetry.NewHistogram(telemetry.DurationBuckets()),
		decodeHist: telemetry.NewHistogram(telemetry.DurationBuckets()),
	}
	refs := []*atomic.Int64{new(atomic.Int64)}
	d.capRefs.Store(&refs)
	if opt.ContextObserver != nil {
		d.SetContextObserver(opt.ContextObserver)
	}
	for i := range d.siteShards {
		d.siteShards[i].hashed = make(map[prog.SiteID]bool)
	}
	d.epi = &epiStub{d: d}
	d.trap = &trapStub{d: d}
	// Epoch 0: the graph contains only main; encode it so maxID and the
	// first decode dictionary exist before the first call (paper §3:
	// "starts with a call graph containing only function main").
	asn := blenc.Encode(d.g, blenc.Options{Budget: d.opt.Budget, NoHotOrder: d.opt.NoHotFirst})
	d.snap.Store(&encSnap{
		epoch:    0,
		maxID:    asn.MaxID,
		dicts:    []*blenc.Assignment{asn},
		idx:      []*decodeIndex{newDecodeIndex(d.g, asn)},
		tail:     map[prog.FuncID]bool{},
		compress: map[graph.EdgeKey]bool{},
	})
	if d.sink != nil {
		d.sink.Emit(telemetry.Event{
			Kind: telemetry.EvEncoderInit, Thread: -1,
			Site: prog.NoSite, Fn: prog.NoFunc,
			Value: d.opt.Budget, Aux: asn.MaxID,
		})
	}
	return d
}

// Name implements machine.Scheme.
func (d *DACCE) Name() string { return "dacce" }

// Graph returns the dynamic call graph (stable after the run ends).
// Edges still sitting in per-thread publication buffers are registered
// first, so the registry view is complete as of the call.
func (d *DACCE) Graph() *graph.Graph {
	d.mu.Lock()
	d.drainAllLocked()
	d.mu.Unlock()
	return d.g
}

// Epoch returns the current gTimeStamp. Lock-free.
func (d *DACCE) Epoch() uint32 { return d.cur().epoch }

// MaxID returns the current epoch's maximum context id. Lock-free.
func (d *DACCE) MaxID() uint64 { return d.cur().maxID }

// Dict returns the decode dictionary for an epoch, or nil. Lock-free.
func (d *DACCE) Dict(epoch uint32) *blenc.Assignment {
	snap := d.cur()
	if int(epoch) >= len(snap.dicts) {
		return nil
	}
	return snap.dicts[epoch]
}

// Install implements machine.Scheme: every call site starts as a
// runtime-handler trap (paper §3: "all function calls ... are replaced
// with instrumentations to invoke a runtime handler"). Re-installing a
// warmed encoder on a fresh machine (the steady-state benchmark regime)
// re-patches every already-discovered site from the current graph and
// assignment instead of re-trapping it.
func (d *DACCE) Install(m *machine.Machine) {
	d.m.Store(m)
	for i := 0; i < d.p.NumSites(); i++ {
		m.SetStub(prog.SiteID(i), d.trap)
	}
	d.mu.Lock()
	if d.g.NumEdges() > 0 {
		d.rebuildAllLocked()
	}
	d.mu.Unlock()
}

// ThreadStart implements machine.Scheme: allocate the TLS (paper §5.3)
// and record the spawning context so the new thread's full calling
// context stays decodable.
func (d *DACCE) ThreadStart(t, parent *machine.Thread) {
	buf := &discBuf{}
	t.State = &tls{disc: buf}
	if parent != nil {
		t.SpawnCapture = d.Capture(parent)
	}
	d.mu.Lock()
	d.discBufs = append(d.discBufs, buf)
	if parent != nil {
		d.g.AddRoot(t.Entry())
	}
	d.mu.Unlock()
}

// ThreadExit implements machine.Scheme: register any edges still
// sitting in the exiting thread's publication buffer — nobody will
// flush it afterwards — and drop the exiting thread's spawn capture's
// epoch reference. The spawn capture object itself is not pooled:
// retained samples may still point at it through Capture.Spawn, and
// dropping only the refcount is safe because any later decode of such
// a sample holds the sample's own (newer) epoch reference and stamps
// the spawn chain's nodes with the then-current generation.
func (d *DACCE) ThreadExit(t *machine.Thread) {
	if sc, ok := t.SpawnCapture.(*Capture); ok && sc != nil {
		d.releaseEpoch(sc.Epoch)
	}
	st, ok := t.State.(*tls)
	if !ok || st == nil || st.disc == nil {
		return
	}
	st.disc.mu.Lock()
	batch := st.disc.edges
	st.disc.edges = nil
	st.disc.mu.Unlock()
	d.flushBatch(batch)
}

// Capture implements machine.Scheme: snapshot (gTimeStamp, id, function,
// ccStack). The snapshot object comes from a pool; callers that are
// done with a capture the machine did not retain hand it back through
// ReleaseCapture, making steady-state sampling allocation-free once the
// pool and the ccStack copy's backing array are warm.
func (d *DACCE) Capture(t *machine.Thread) any {
	st := t.State.(*tls)
	c := capturePool.Get().(*Capture)
	c.Epoch = d.cur().epoch
	c.ID = st.id
	c.Fn = t.SelfID()
	c.Root = t.Entry()
	c.CC = append(c.CC[:0], st.cc...)
	c.Spawn = nil
	if sc, ok := t.SpawnCapture.(*Capture); ok {
		c.Spawn = sc
	}
	d.retainEpoch(c.Epoch)
	t.C.CCDepthSum += int64(len(st.cc))
	t.C.CCDepthN++
	return c
}

// CaptureTyped is Capture with a concrete result type, for direct API
// use.
func (d *DACCE) CaptureTyped(t *machine.Thread) *Capture {
	return d.Capture(t).(*Capture)
}

// ReleaseCapture implements machine.CaptureReleaser: return a capture
// that is no longer referenced to the pool. The spawn-path capture a
// released snapshot points at is owned by its thread and stays alive;
// only the outer object and its ccStack copy are recycled. Releasing a
// capture that is still retained anywhere (machine samples, user code)
// is a use-after-free bug on the caller's side — the machine only
// releases captures it chose not to retain.
func (d *DACCE) ReleaseCapture(capture any) {
	c, ok := capture.(*Capture)
	if !ok || c == nil {
		return
	}
	d.releaseEpoch(c.Epoch)
	c.Spawn = nil
	capturePool.Put(c)
}

// OnSample implements machine.SampleObserver: the adaptive controller's
// input (paper §4 — collected contexts are decoded to find hot edges
// and to detect that hot paths are unencoded). The whole path is
// lock-free: the decode walks the capture epoch's immutable index on
// the thread's reusable scratch buffers, edge heat is credited with
// atomic adds, and the trigger check reads atomic counters. Only the
// optional TrackProgress bookkeeping (an experiment mode, off by
// default) takes the mutex, to read consistent graph counts.
func (d *DACCE) OnSample(t *machine.Thread, capture any) {
	c, ok := capture.(*Capture)
	if !ok || c == nil {
		return
	}
	n := d.samplesSeen.Add(1)
	snap := d.cur()

	// Estimate edge heat from the decoded sample so that even
	// instrumentation-free (code 0) edges get frequency credit. The
	// capture's epoch always has an index: the capture was taken before
	// this observer ran, and snapshots only grow.
	if st, ok := t.State.(*tls); ok && int(c.Epoch) < len(snap.idx) {
		dec := Decoder{P: d.p, Dicts: snap.dicts, idx: snap.idx}
		if ctx, err := dec.decodeOne(c, &st.scratch); err == nil {
			ix := snap.idx[c.Epoch]
			for i := 1; i < len(ctx); i++ {
				if e := ix.edges[graph.EdgeKey{Site: ctx[i].Site, Target: ctx[i].Fn}]; e != nil {
					atomic.AddInt64(&e.Freq, 1)
				}
			}
			t.C.InstrCost += machine.CostSampleDecode
			// The streaming profiler rides the decode the controller
			// already paid for: the context is interned into the
			// encoder's DAG — pure pointer hops once the DAG is warm — and
			// the observer gets the node, which outlives the scratch.
			if op := d.obs.Load(); op != nil {
				nd := st.lastNode
				if !d.dag.Fresh(nd) || !nodeMatches(nd, ctx) {
					nd = internContext(d.dag, ctx)
					st.lastNode = nd
				}
				(*op).ObserveContextNode(t.ID(), nd)
			}
		}
	}
	if d.opt.TrackProgress && n%d.opt.ProgressEvery == 0 {
		d.mu.Lock()
		d.drainAllLocked()
		d.stats.Progress = append(d.stats.Progress, ProgressPoint{
			Sample: n,
			Nodes:  d.g.NumNodes(),
			Edges:  d.g.NumEdges(),
			MaxID:  snap.maxID,
			Epoch:  snap.epoch,
		})
		d.mu.Unlock()
	}

	// Trigger (b) counts only samples a pass can do something about: the
	// id is in the marker range and the innermost saved sub-path did not
	// start at a back edge, which no encoding ever covers (§3.3).
	if depth := len(c.CC); c.ID > snap.maxID && depth > 0 && !c.CC[depth-1].Rec {
		d.hotMiss.Add(1)
	}
	if d.triggersFired() {
		d.maybeReencode(t)
	}
}

// OnModuleLoad implements machine.ModuleObserver. Nothing to do: the
// module's sites are already trapped — either from Install or from the
// unload that preceded a reload — so its edges are (re)discovered on
// first invocation, exactly the paper's §5.1 lazy regime.
func (d *DACCE) OnModuleLoad(t *machine.Thread, id prog.ModuleID) {}

// OnModuleUnload implements machine.ModuleObserver: dlclose unmaps the
// module's code, taking the generated stubs in it along. Every call
// site owned by the module reverts to the runtime-handler trap, so a
// later reload re-enters discovery (a re-instrumentation storm, by
// design). The graph and the epoch dictionaries are untouched — they
// are append-only — so contexts captured while the module was loaded
// keep decoding against their epoch after it is gone.
func (d *DACCE) OnModuleUnload(t *machine.Thread, id prog.ModuleID) {
	m := d.m.Load()
	if m == nil {
		return
	}
	for i := 0; i < d.p.NumSites(); i++ {
		sid := prog.SiteID(i)
		if d.p.Funcs[d.p.Site(sid).Caller].Module == id {
			m.SetStub(sid, d.trap)
		}
	}
}

// Maintain implements machine.Maintainer: the runtime checks the
// adaptive triggers periodically even when no handler traps and no
// sampling happen. The pre-check is a few atomic loads; the mutex is
// touched only when a trigger has actually fired and a pass will run.
func (d *DACCE) Maintain(t *machine.Thread) {
	if d.triggersFired() {
		d.maybeReencode(t)
	}
}

// newEdgeThreshold scales the new-edges trigger with graph size:
// re-encoding a big graph is expensive, so it must amortize over
// proportionally more discoveries (the "principle of dynamic
// optimization" of paper §3). Lock-free: edgeCount shadows the graph's
// edge count.
func (d *DACCE) newEdgeThreshold() int64 {
	th := int64(d.opt.Trig.NewEdges)
	if adaptive := d.edgeCount.Load() / 24; adaptive > th {
		th = adaptive
	}
	return th
}

// Stats returns the DACCE-specific statistics (Table 1's gTS and costs
// columns, Fig. 9's progress series).
func (d *DACCE) Stats() *Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.drainAllLocked()
	snap := d.cur()
	s := d.stats
	s.EdgesDiscovered = int(d.edgesDiscovered.Load())
	s.Nodes = d.g.NumNodes()
	s.Edges = d.g.NumEdges()
	s.MaxID = snap.maxID
	s.Overflowed = snap.dicts[len(snap.dicts)-1].Overflowed
	return &s
}

// CompressCount returns how many back edges currently have recursion
// compression enabled. Lock-free.
func (d *DACCE) CompressCount() int { return len(d.cur().compress) }

// SetContextObserver attaches (or, with nil, detaches) the streaming
// context observer fed from the live sampling path. Safe to call while
// the machine runs; in-flight samples see either the old or the new
// observer.
func (d *DACCE) SetContextObserver(o ContextObserver) {
	if o == nil {
		d.obs.Store(nil)
		return
	}
	d.obs.Store(&o)
}

// PauseHist returns the live stop-the-world pause histogram (wall
// nanoseconds per re-encoding pass). Always on; use Snapshot for
// quantiles or wire it into an SLO watchdog rule.
func (d *DACCE) PauseHist() *telemetry.Histogram { return d.pauseHist }

// TrapHist returns the live runtime-handler latency histogram (wall
// nanoseconds per trap).
func (d *DACCE) TrapHist() *telemetry.Histogram { return d.trapHist }

// DecodeHist returns the live external-decode latency histogram (wall
// nanoseconds per Decode call).
func (d *DACCE) DecodeHist() *telemetry.Histogram { return d.decodeHist }

// TrapBacklog returns how many newly discovered edges await the next
// re-encoding pass — the watchdog's backlog source: a runaway value
// means discovery is outpacing the adaptive controller.
func (d *DACCE) TrapBacklog() int64 { return d.newEdges.Load() }

// Discovery names one synthetic edge observation for InjectDiscoveries.
type Discovery struct {
	Site prog.SiteID
	Fn   prog.FuncID
	// Freq is the observed invocation count credited to the edge
	// (minimum 1); it drives the hottest-first ordering exactly like
	// trap- and sample-credited frequency does.
	Freq int64
}

// InjectDiscoveries feeds a batch of edge observations through the same
// bookkeeping a runtime-handler trap performs — graph insertion and
// registration, frequency credit, trigger counters, pendingNew — but
// without executing any call. It exists for the experiment suites
// (notably the pause suite), which need to stage graphs of a precise
// size and delta and then measure a single re-encoding pass: going
// through the graph directly would bypass pendingNew and starve the
// incremental Refresh of the additions it renumbers. No pass is
// triggered; pair with ReencodeNow.
func (d *DACCE) InjectDiscoveries(batch []Discovery) {
	d.mu.Lock()
	defer d.mu.Unlock()
	installed := d.m.Load() != nil
	var fresh []*graph.Edge
	for _, disc := range batch {
		freq := disc.Freq
		if freq < 1 {
			freq = 1
		}
		e, isNew := d.g.DiscoverEdge(disc.Site, disc.Fn)
		atomic.AddInt64(&e.Freq, freq)
		if !isNew {
			continue
		}
		fresh = append(fresh, e)
		d.edgesDiscovered.Add(1)
		d.newEdges.Add(1)
		d.edgeCount.Add(1)
		if installed {
			d.rebuildSite(disc.Site)
		}
	}
	d.g.RegisterEdges(fresh)
	d.pendingNew = append(d.pendingNew, fresh...)
}
