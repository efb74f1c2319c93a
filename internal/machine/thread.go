package machine

import (
	"fmt"
	"math/rand/v2"
	"time"

	"dacce/internal/prog"
)

// Frame is one entry of the ground-truth shadow stack: the call path
// from the thread's entry function to the current point, including
// functions that tail-called onward (whose hardware frames are gone but
// which are part of the calling context the encoders represent).
type Frame struct {
	// Site is the call site in the caller that created this frame;
	// prog.NoSite for a thread's root frame.
	Site prog.SiteID
	// Fn is the function executing in this frame.
	Fn prog.FuncID
	// Tail marks frames entered by a tail call: this frame replaced its
	// caller's hardware frame.
	Tail bool
	// EpiStub and Cook are the epilogue recorded at call time. Rewriting
	// them while the call is active models patching the return address
	// of an in-flight invocation (paper §4, §5.2). Nil EpiStub (root
	// frames, tail frames) means no epilogue runs.
	EpiStub Stub
	Cook    Cookie
}

// ShadowFrame is one frame of a copied shadow stack (Sample.Shadow,
// Thread.SpawnShadow): the ground-truth call path's site, function and
// tail flag, without the epilogue state a live Frame carries.
type ShadowFrame struct {
	Site prog.SiteID
	Fn   prog.FuncID
	Tail bool
}

// Counters aggregates per-thread event and cost counts. Schemes update
// the instrumentation fields directly from their stubs.
type Counters struct {
	Calls     int64
	TailCalls int64
	Spawns    int64
	WorkUnits int64

	BaseCost  int64 // application cycles: work + bare call dispatch
	InstrCost int64 // cycles charged by the scheme's instrumentation

	// ReencodeCost is the one-time cost of re-encoding passes (stop the
	// world, renumber, patch, translate). It is accounted separately
	// from InstrCost because it is a fixed adaptation cost the paper
	// reports in its own Table 1 column ("costs") and that amortizes to
	// nothing over minute-long runs; folding it into the per-call
	// overhead of a millisecond-scale model run would mis-weight it.
	ReencodeCost int64

	CCPush        int64 // ccStack pushes
	CCPop         int64 // ccStack pops
	CCPeek        int64 // compressed-recursion top adjustments
	TcSaves       int64 // TcStack saves/restores
	HandlerTraps  int64 // runtime-handler invocations
	HashProbes    int64 // indirect hash-table probes
	Compares      int64 // inline indirect-target comparisons
	Samples       int64
	ModuleLoads   int64 // dlopen-style module load transitions
	ModuleUnloads int64 // dlclose-style module unload transitions

	MaxShadowDepth int
	MaxCCDepth     int

	// CCDepthSum/CCDepthN accumulate the ccStack depth observed at each
	// sample so the average depth of Table 1 can be reported.
	CCDepthSum int64
	CCDepthN   int64

	// SteadyBase/SteadyInstr are the cost counters at the steady-state
	// snapshot (see Config.SteadyAfterCalls); zero if never snapped.
	SteadyBase  int64
	SteadyInstr int64
	Snapped     bool
}

// CCOps returns the total number of ccStack operations, the quantity
// Table 1 reports per second.
func (c *Counters) CCOps() int64 { return c.CCPush + c.CCPop + c.CCPeek }

// AvgCCDepth returns the mean ccStack depth over the run's samples.
func (c *Counters) AvgCCDepth() float64 {
	if c.CCDepthN == 0 {
		return 0
	}
	return float64(c.CCDepthSum) / float64(c.CCDepthN)
}

func (c *Counters) add(o *Counters) {
	c.Calls += o.Calls
	c.TailCalls += o.TailCalls
	c.Spawns += o.Spawns
	c.WorkUnits += o.WorkUnits
	c.BaseCost += o.BaseCost
	c.InstrCost += o.InstrCost
	c.ReencodeCost += o.ReencodeCost
	c.CCPush += o.CCPush
	c.CCPop += o.CCPop
	c.CCPeek += o.CCPeek
	c.TcSaves += o.TcSaves
	c.HandlerTraps += o.HandlerTraps
	c.HashProbes += o.HashProbes
	c.Compares += o.Compares
	c.Samples += o.Samples
	c.ModuleLoads += o.ModuleLoads
	c.ModuleUnloads += o.ModuleUnloads
	if o.MaxShadowDepth > c.MaxShadowDepth {
		c.MaxShadowDepth = o.MaxShadowDepth
	}
	if o.MaxCCDepth > c.MaxCCDepth {
		c.MaxCCDepth = o.MaxCCDepth
	}
	c.CCDepthSum += o.CCDepthSum
	c.CCDepthN += o.CCDepthN
	c.SteadyBase += o.SteadyBase
	c.SteadyInstr += o.SteadyInstr
	c.Snapped = c.Snapped || o.Snapped
}

// RunStats is the result of one Machine.Run.
type RunStats struct {
	Scheme  string
	Threads int
	Elapsed time.Duration
	// Patches is the number of stub patches (code rewrites) the scheme
	// performed over the run: initial trap installation plus every
	// discovery- or re-encoding-driven site rebuild.
	Patches int64
	C       Counters
	Samples []Sample
}

// Overhead returns InstrCost/BaseCost, the cost-model runtime overhead
// over the whole run, including discovery warmup.
func (r *RunStats) Overhead() float64 {
	if r.C.BaseCost == 0 {
		return 0
	}
	return float64(r.C.InstrCost) / float64(r.C.BaseCost)
}

// SteadyOverhead returns the overhead of the post-warmup part of the
// run (see Config.SteadyAfterCalls); it falls back to Overhead when no
// snapshot was taken.
func (r *RunStats) SteadyOverhead() float64 {
	base := r.C.BaseCost - r.C.SteadyBase
	if !r.C.Snapped || base <= 0 {
		return r.Overhead()
	}
	return float64(r.C.InstrCost-r.C.SteadyInstr) / float64(base)
}

// CallsPerSecond scales call counts to the paper's calls/s units using
// the nominal clock of NominalHz model cycles per second.
func (r *RunStats) CallsPerSecond() float64 {
	total := r.C.BaseCost + r.C.InstrCost
	if total == 0 {
		return 0
	}
	return float64(r.C.Calls) / (float64(total) / NominalHz)
}

// CCOpsPerSecond scales ccStack operation counts to per-second units.
func (r *RunStats) CCOpsPerSecond() float64 {
	total := r.C.BaseCost + r.C.InstrCost
	if total == 0 {
		return 0
	}
	return float64(r.C.CCOps()) / (float64(total) / NominalHz)
}

// NominalHz is the model-cycle rate used to convert abstract cycles to
// seconds for the per-second columns of Table 1 (a 1.87 GHz Xeon in the
// paper).
const NominalHz = 1.87e9

// Thread is one executing thread. It implements prog.Exec; its fields
// model the thread-local storage the paper allocates for the context id
// and the ccStack (§5.3).
type Thread struct {
	m     *Machine
	id    int
	ident uint64
	entry prog.FuncID
	rng   *rand.Rand

	// spawnSeq counts this thread's own Spawn calls; combined with the
	// thread's ident it derives children's idents. Only the owning
	// thread touches it.
	spawnSeq uint64

	// State is the scheme's thread-local state (TLS). Set by the
	// scheme's ThreadStart.
	State any

	// SpawnShadow is the full spawn-chain prefix at spawn time — the
	// parent's own SpawnShadow followed by its shadow stack — the
	// ground truth for the complete sub-path that created this thread,
	// through arbitrarily nested spawns.
	SpawnShadow []ShadowFrame
	// SpawnCapture is the scheme's capture of the parent context at
	// spawn time.
	SpawnCapture any

	C Counters

	shadow             []Frame
	samples            []Sample
	sampleSeq          int64
	callsSinceSample   int64
	callsSinceMaintain int64
}

// RootIdent is the spawn-tree identity of the entry thread. It equals
// the rng stream the entry thread used before idents existed, so
// single-threaded runs draw the same random sequences as older traces.
const RootIdent uint64 = 0x9e3779b97f4a7c15

// childIdent derives a spawned thread's identity from its parent's
// identity, the parent's local spawn ordinal, and the entry function —
// a splitmix-style mix of values that are identical between a recording
// run and its replays, whatever order the OS actually starts threads in.
func childIdent(parent, seq uint64, entry prog.FuncID) uint64 {
	x := parent ^ mix64(seq+0x9e3779b97f4a7c15) ^ mix64(uint64(uint32(entry))+0xbf58476d1ce4e5b9)
	return mix64(x)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func newThread(m *Machine, id int, ident uint64, entry prog.FuncID) *Thread {
	return &Thread{
		m:     m,
		id:    id,
		ident: ident,
		entry: entry,
		// The target-picking rng is seeded from the spawn-tree ident, not
		// the numeric id: under concurrent spawning ids depend on OS
		// scheduling, and a replayed thread must draw the same stream it
		// drew while recording.
		rng: rand.New(rand.NewPCG(m.cfg.Seed, ident)),
	}
}

// ID returns the thread id (0 for the entry thread). Ids are assigned
// in global spawn order, which is scheduling-dependent under concurrent
// spawning — use Ident for anything that must survive replay.
func (t *Thread) ID() int { return t.id }

// Ident returns the thread's deterministic spawn-tree identity.
func (t *Thread) Ident() uint64 { return t.ident }

// Entry returns the function the thread started in.
func (t *Thread) Entry() prog.FuncID { return t.entry }

// Machine returns the executing machine.
func (t *Thread) Machine() *Machine { return t.m }

// Rand implements prog.Exec.
func (t *Thread) Rand() *rand.Rand { return t.rng }

// Depth implements prog.Exec: the current shadow-stack depth.
func (t *Thread) Depth() int { return len(t.shadow) }

// CallCount implements prog.Exec.
func (t *Thread) CallCount() int64 { return t.C.Calls }

// Caller implements prog.Exec.
func (t *Thread) Caller() prog.FuncID {
	if len(t.shadow) < 2 {
		return prog.NoFunc
	}
	return t.shadow[len(t.shadow)-2].Fn
}

// SelfID implements prog.Exec.
func (t *Thread) SelfID() prog.FuncID {
	if len(t.shadow) == 0 {
		return t.entry
	}
	return t.shadow[len(t.shadow)-1].Fn
}

// FrameAt returns a pointer to the i-th shadow frame (0 = root). The
// pointer is valid only until the thread makes another call; schemes use
// it during runtime-handler fix-ups and with the world stopped.
func (t *Thread) FrameAt(i int) *Frame { return &t.shadow[i] }

// FrameInModule reports whether any of the thread's shadow frames is
// executing a function of the given module. Used to validate unloads.
func (t *Thread) FrameInModule(id prog.ModuleID) bool {
	for i := range t.shadow {
		if t.m.p.Funcs[t.shadow[i].Fn].Module == id {
			return true
		}
	}
	return false
}

// ShadowCopy returns a copy of the current shadow stack's call path.
func (t *Thread) ShadowCopy() []ShadowFrame {
	out := make([]ShadowFrame, len(t.shadow))
	for i, f := range t.shadow {
		out[i] = ShadowFrame{Site: f.Site, Fn: f.Fn, Tail: f.Tail}
	}
	return out
}

// PhysicalStack returns what walking the hardware stack would see: the
// shadow stack with every tail-calling frame removed, since a tail call
// replaces its caller's frame (paper §5.2). The frames keep their Site
// linkage, so the result is exactly a stack walker's view.
func (t *Thread) PhysicalStack() []Frame {
	out := make([]Frame, 0, len(t.shadow))
	for i, f := range t.shadow {
		// A frame is invisible if its callee was entered by tail call:
		// that callee reused this frame's slot.
		if i+1 < len(t.shadow) && t.shadow[i+1].Tail {
			continue
		}
		out = append(out, f)
	}
	return out
}

// Work implements prog.Exec: consume application cycles, checking the
// safepoint often enough that call-free loops cannot delay a
// stop-the-world.
func (t *Thread) Work(units int64) {
	if units <= 0 {
		return
	}
	t.C.WorkUnits += units
	t.C.BaseCost += units
	for units > workSafepointChunk {
		units -= workSafepointChunk
		if t.m.stopRequest.Load() {
			t.m.park()
		}
	}
}

// Spawn implements prog.Exec.
func (t *Thread) Spawn(entry prog.FuncID) {
	t.C.Spawns++
	t.m.spawn(entry, t)
}

// LoadModule implements prog.Exec: dlopen. Loading an already-loaded
// module is a no-op; a real transition notifies the scheme's
// ModuleObserver so instrumentation can meet the module's sites.
func (t *Thread) LoadModule(id prog.ModuleID) {
	if int(id) < 0 || int(id) >= len(t.m.p.Modules) {
		panic(fmt.Sprintf("machine: LoadModule of unknown module %d", id))
	}
	if t.m.stopRequest.Load() {
		t.m.park()
	}
	if !t.m.moduleLoaded[id].CompareAndSwap(false, true) {
		return
	}
	t.C.ModuleLoads++
	t.C.BaseCost += CostModuleLoad
	if t.m.moduleObs != nil {
		t.m.moduleObs.OnModuleLoad(t, id)
	}
}

// UnloadModule implements prog.Exec: dlclose. The module must be lazy
// (the executable and eagerly linked libraries cannot be unloaded) and
// the calling thread must not have a frame inside it — unloading code
// you are executing is a model error, as it would be a crash in a real
// process. Contexts captured while the module was loaded must stay
// decodable afterwards; schemes are notified via ModuleObserver so they
// can drop the module's instrumentation without touching the epoch
// history those captures point into.
func (t *Thread) UnloadModule(id prog.ModuleID) {
	if int(id) < 0 || int(id) >= len(t.m.p.Modules) {
		panic(fmt.Sprintf("machine: UnloadModule of unknown module %d", id))
	}
	if !t.m.p.Modules[id].Lazy {
		panic(fmt.Sprintf("machine: UnloadModule of eager module %q", t.m.p.Modules[id].Name))
	}
	if t.FrameInModule(id) {
		panic(fmt.Sprintf("machine: UnloadModule of %q with an own frame still active",
			t.m.p.Modules[id].Name))
	}
	if t.m.stopRequest.Load() {
		t.m.park()
	}
	if !t.m.moduleLoaded[id].CompareAndSwap(true, false) {
		return
	}
	t.C.ModuleUnloads++
	t.C.BaseCost += CostModuleUnload
	if t.m.moduleObs != nil {
		t.m.moduleObs.OnModuleUnload(t, id)
	}
}

// Call implements prog.Exec.
func (t *Thread) Call(sid prog.SiteID, target prog.FuncID) {
	s := t.m.p.Site(sid)
	if s.Kind.IsTail() {
		panic(fmt.Sprintf("machine: Call used on tail site %d; use TailCall", sid))
	}
	t.call(s, target, false)
}

// TailCall implements prog.Exec.
func (t *Thread) TailCall(sid prog.SiteID, target prog.FuncID) {
	s := t.m.p.Site(sid)
	if !s.Kind.IsTail() {
		panic(fmt.Sprintf("machine: TailCall used on non-tail site %d", sid))
	}
	t.call(s, target, true)
}

func (t *Thread) call(s *prog.Site, target prog.FuncID, tail bool) {
	if t.m.stopRequest.Load() {
		t.m.park()
	}
	switch s.Kind {
	case prog.Normal, prog.Tail:
		target = s.Target
	case prog.PLT:
		target = t.m.ResolvePLT(s.ID)
	default: // indirect kinds
		if int(target) < 0 || int(target) >= t.m.p.NumFuncs() {
			panic(fmt.Sprintf("machine: indirect site %d invoked with invalid target %d", s.ID, target))
		}
	}
	t.C.Calls++
	if tail {
		t.C.TailCalls++
	}
	t.C.BaseCost += CostCallDispatch
	if !t.C.Snapped && t.m.cfg.SteadyAfterCalls > 0 && t.C.Calls >= t.m.cfg.SteadyAfterCalls {
		t.C.Snapped = true
		t.C.SteadyBase = t.C.BaseCost
		t.C.SteadyInstr = t.C.InstrCost
	}
	t.maybeSample()
	if t.m.maintainer != nil {
		t.callsSinceMaintain++
		if t.callsSinceMaintain >= t.m.cfg.MaintainEvery {
			t.callsSinceMaintain = 0
			t.m.maintainer.Maintain(t)
		}
	}

	stub := *t.m.slots[s.ID].Load()
	cook, epi := stub.Prologue(t, s, target)

	t.shadow = append(t.shadow, Frame{Site: s.ID, Fn: target, Tail: tail, EpiStub: epi, Cook: cook})
	if d := len(t.shadow); d > t.C.MaxShadowDepth {
		t.C.MaxShadowDepth = d
	}
	t.m.p.Funcs[target].Body(t)
	f := t.shadow[len(t.shadow)-1]
	t.shadow = t.shadow[:len(t.shadow)-1]

	// Tail calls have no code after the jmp: the callee returned past
	// this site, so no epilogue runs here (the caller-of-the-caller's
	// epilogue restores, paper §5.2).
	if !tail && f.EpiStub != nil {
		// Re-read from the frame: a scheme may have rewritten the
		// epilogue or cookie while the call was active.
		f.EpiStub.Epilogue(t, s, target, f.Cook)
	}
}

// run executes the thread's entry function to completion.
func (t *Thread) run() {
	t.m.register()
	defer t.m.unregister()
	t.shadow = append(t.shadow, Frame{Site: prog.NoSite, Fn: t.entry})
	t.C.MaxShadowDepth = 1
	t.m.p.Funcs[t.entry].Body(t)
	t.shadow = t.shadow[:0]
	t.m.scheme.ThreadExit(t)
}

// maybeSample captures a sample every SampleEvery calls.
func (t *Thread) maybeSample() {
	every := t.m.cfg.SampleEvery
	if every <= 0 {
		return
	}
	t.callsSinceSample++
	if t.callsSinceSample < every {
		return
	}
	t.callsSinceSample = 0
	t.C.Samples++
	snap := t.m.scheme.Capture(t)
	if t.m.sampleObs != nil {
		t.m.sampleObs.OnSample(t, snap)
	}
	if !t.m.cfg.DropSamples && len(t.samples) < t.m.cfg.MaxSamplesPerThread {
		t.samples = append(t.samples, Sample{
			Thread:  t.id,
			Ident:   t.ident,
			Seq:     t.sampleSeq,
			Fn:      t.SelfID(),
			Capture: snap,
			Shadow:  t.ShadowCopy(),
		})
	} else if t.m.releaser != nil {
		// The capture is not retained and the observer is done with it:
		// hand it back so the scheme can recycle the allocation.
		t.m.releaser.ReleaseCapture(snap)
	}
	t.sampleSeq++
}
