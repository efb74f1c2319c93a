// Package machine executes prog.Programs and stands in for the paper's
// dynamic-binary-instrumentation substrate (DESIGN.md §2). Every call
// site holds an atomically patchable Stub: swapping the stub is the
// analog of rewriting the call site's code. Encoding schemes (DACCE,
// PCCE, and the related-work baselines) implement the Scheme interface
// and observe exactly what binary instrumentation would observe — call,
// tail-call and return events plus the patch state — while the machine
// keeps the ground-truth shadow stack that a real process keeps in
// hardware.
//
// The machine provides:
//
//   - threads with thread-local scheme state (the TLS of paper §5.3),
//   - cooperative stop-the-world (the signal suspension of paper §4),
//   - lazy PLT binding and dlopen-style module loading (paper §5.1),
//   - tail-call control transfer that skips the caller (paper §5.2),
//   - a deterministic cost model (DESIGN.md §6), and
//   - a sampling module that captures encoder state together with the
//     shadow stack for cross-validation (the libpfm4 module of §6.1).
package machine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dacce/internal/prog"
)

// Cookie is the per-invocation state a stub's prologue hands to its
// epilogue. In a real binary these are the constants baked into the
// instrumentation and the registers/TcStack slots it saved; carrying
// them in the frame lets a scheme rewrite them for in-flight calls, the
// analog of the paper's "the return address of all active functions on
// the stack should be modified" (§4).
type Cookie struct {
	// Tag selects the epilogue behaviour (scheme-defined).
	Tag uint8
	// A and B carry the saved values or baked constants.
	A, B uint64
}

// Stub is the patchable code at a call site. The machine runs
// Prologue(…) → callee body → Epilogue(…) for every invocation.
//
// Prologue returns the cookie for this invocation and the stub whose
// Epilogue must pair with it — normally the receiver itself. The
// runtime handler uses the second result to hand the rest of the
// invocation to the code it just generated ("the control will return to
// the newly generated code", paper §3.1). The epilogue stub and cookie
// are recorded in the callee's frame, where a scheme may rewrite them
// while the call is active.
//
// Tail-call sites never get an Epilogue call: the instruction after a
// jmp does not exist (paper §5.2).
type Stub interface {
	Prologue(t *Thread, s *prog.Site, target prog.FuncID) (Cookie, Stub)
	Epilogue(t *Thread, s *prog.Site, target prog.FuncID, c Cookie)
}

// Scheme is a calling-context encoding scheme under test.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// Install is called once before execution starts; the scheme sets
	// the initial stub of every call site.
	Install(m *Machine)
	// ThreadStart initializes the scheme's thread-local state. parent is
	// nil for the initial thread; for spawned threads the scheme may
	// record the parent's context so the spawn path stays decodable
	// (paper §5.3).
	ThreadStart(t, parent *Thread)
	// ThreadExit is called when a thread finishes.
	ThreadExit(t *Thread)
	// Capture snapshots the thread's current context encoding. The
	// result is scheme-specific and must be immutable (deep-copied).
	Capture(t *Thread) any
}

// SampleObserver is implemented by schemes that want to see periodic
// samples (DACCE's adaptive controller consumes them to estimate hot
// paths, paper §4).
type SampleObserver interface {
	OnSample(t *Thread, capture any)
}

// CaptureReleaser is implemented by schemes that pool their Capture
// snapshots. The machine calls ReleaseCapture on every capture it
// decided not to retain, once the sampling observer is done with it —
// the scheme may then recycle the object. Captures retained as samples
// (or handed out by direct Capture calls) are never released by the
// machine.
type CaptureReleaser interface {
	ReleaseCapture(capture any)
}

// Maintainer is implemented by schemes that need periodic control even
// when nothing samples or traps — DACCE checks its re-encoding triggers
// here. Maintain runs at a clean point (no call in flight on t) every
// Config.MaintainEvery calls.
type Maintainer interface {
	Maintain(t *Thread)
}

// ModuleObserver is implemented by schemes that care about dlopen-style
// module lifecycle (paper §5.1). The machine invokes the hooks on the
// thread performing the load/unload, at a clean point (no call in
// flight), and only on actual state transitions — a LoadModule of an
// already-loaded module is silent.
type ModuleObserver interface {
	OnModuleLoad(t *Thread, id prog.ModuleID)
	OnModuleUnload(t *Thread, id prog.ModuleID)
}

// Sample pairs a scheme capture with the ground truth at the same
// instant.
type Sample struct {
	Thread int
	// Ident is the thread's spawn-tree identity (Thread.Ident): stable
	// across record/replay even when OS scheduling permutes thread ids,
	// so differential checks key on it.
	Ident   uint64
	Seq     int64 // per-thread sample sequence number
	Fn      prog.FuncID
	Capture any
	// Shadow is a copy of the shadow stack: the true call path from the
	// thread's entry function to Fn.
	Shadow []ShadowFrame
}

// Config configures a Machine.
type Config struct {
	// SampleEvery captures a sample every n calls per thread; 0 disables
	// sampling.
	SampleEvery int64
	// MaxSamplesPerThread bounds sample memory; once reached, sampling
	// keeps invoking the observer but stops retaining samples. 0 means
	// DefaultMaxSamples.
	MaxSamplesPerThread int
	// KeepSamples controls whether samples are retained for post-run
	// validation (default true when SampleEvery > 0).
	DropSamples bool
	// Seed seeds the per-thread PRNGs.
	Seed uint64
	// MaintainEvery runs the scheme's Maintainer hook every n calls per
	// thread; 0 means DefaultMaintainEvery when the scheme implements
	// Maintainer, and has no effect otherwise.
	MaintainEvery int64
	// SteadyAfterCalls, when > 0, snapshots each thread's cost counters
	// once its call count crosses this threshold. RunStats.SteadyOverhead
	// then reports instrumentation overhead for the steady-state part of
	// the run only, excluding the one-time discovery warmup — the regime
	// the paper's minutes-long benchmark runs measure (§6.4).
	SteadyAfterCalls int64
}

// DefaultMaxSamples bounds retained samples per thread.
const DefaultMaxSamples = 1 << 16

// DefaultMaintainEvery is the default maintenance period in calls.
const DefaultMaintainEvery = 2048

// Machine executes one program under one scheme. A Machine is used for a
// single Run.
type Machine struct {
	p      *prog.Program
	scheme Scheme
	cfg    Config

	slots   []atomic.Pointer[Stub] // per call site
	patches atomic.Int64           // stub patches performed (code rewrites)

	// Stop-the-world state (paper §4: suspend all threads by signal; we
	// use cooperative safepoints at call prologues and inside Work).
	mu          sync.Mutex
	cond        *sync.Cond
	stopRequest atomic.Bool
	running     int
	stopperBusy bool

	wg        sync.WaitGroup
	nextTID   atomic.Int32
	threadsMu sync.Mutex
	threads   []*Thread

	moduleLoaded []atomic.Bool // dlopen tracking, for stats

	sampleObs  SampleObserver
	maintainer Maintainer
	releaser   CaptureReleaser
	moduleObs  ModuleObserver

	started bool
	stats   RunStats
}

// New creates a machine for p under scheme.
func New(p *prog.Program, scheme Scheme, cfg Config) *Machine {
	m := &Machine{
		p:            p,
		scheme:       scheme,
		cfg:          cfg,
		slots:        make([]atomic.Pointer[Stub], p.NumSites()),
		moduleLoaded: make([]atomic.Bool, len(p.Modules)),
	}
	m.cond = sync.NewCond(&m.mu)
	if cfg.MaxSamplesPerThread == 0 {
		m.cfg.MaxSamplesPerThread = DefaultMaxSamples
	}
	if obs, ok := scheme.(SampleObserver); ok {
		m.sampleObs = obs
	}
	if rel, ok := scheme.(CaptureReleaser); ok {
		m.releaser = rel
	}
	if mt, ok := scheme.(Maintainer); ok {
		m.maintainer = mt
		if m.cfg.MaintainEvery == 0 {
			m.cfg.MaintainEvery = DefaultMaintainEvery
		}
	}
	if mo, ok := scheme.(ModuleObserver); ok {
		m.moduleObs = mo
	}
	for _, mod := range p.Modules {
		if !mod.Lazy {
			m.moduleLoaded[mod.ID].Store(true)
		}
	}
	return m
}

// Program returns the program being executed.
func (m *Machine) Program() *prog.Program { return m.p }

// Scheme returns the installed scheme.
func (m *Machine) Scheme() Scheme { return m.scheme }

// SetStub patches the stub of a call site ("rewriting the code"). Safe
// to call concurrently with execution; in-flight invocations finish
// under the stub they loaded, exactly like patched binaries. Every
// patch is counted: RunStats.Patches reports how much code rewriting a
// run performed, the cold-start analogue of the re-encoding cost
// columns.
func (m *Machine) SetStub(site prog.SiteID, s Stub) {
	m.slots[site].Store(&s)
	m.patches.Add(1)
}

// Patches returns the number of stub patches performed so far.
func (m *Machine) Patches() int64 { return m.patches.Load() }

// ResolvePLT performs the dynamic linker's lazy binding for a PLT site
// and marks the target's module loaded.
func (m *Machine) ResolvePLT(site prog.SiteID) prog.FuncID {
	target := m.p.PLT[site]
	m.moduleLoaded[m.p.Funcs[target].Module].Store(true)
	return target
}

// ModuleLoaded reports whether a module has been loaded (eager modules
// always are; lazy ones after the first call into them).
func (m *Machine) ModuleLoaded(id prog.ModuleID) bool {
	return m.moduleLoaded[id].Load()
}

// Run installs the scheme, executes the entry function on thread 0,
// waits for every spawned thread, and returns the aggregated statistics.
func (m *Machine) Run() (*RunStats, error) {
	if m.started {
		return nil, fmt.Errorf("machine: Run called twice")
	}
	m.started = true
	for i := range m.slots {
		if m.slots[i].Load() == nil {
			// Default to uninstrumented dispatch so schemes only need to
			// patch the sites they care about.
			m.SetStub(prog.SiteID(i), plainStub{})
		}
	}
	m.scheme.Install(m)

	start := time.Now()
	m.spawn(m.p.Entry, nil)
	m.wg.Wait()
	m.stats.Elapsed = time.Since(start)
	m.stats.Scheme = m.scheme.Name()
	m.stats.Patches = m.patches.Load()

	m.threadsMu.Lock()
	defer m.threadsMu.Unlock()
	m.stats.Threads = len(m.threads)
	for _, t := range m.threads {
		m.stats.C.add(&t.C)
		if !m.cfg.DropSamples {
			m.stats.Samples = append(m.stats.Samples, t.samples...)
		}
	}
	return &m.stats, nil
}

// spawn starts a thread executing fn. parent is nil for the entry
// thread.
func (m *Machine) spawn(fn prog.FuncID, parent *Thread) *Thread {
	// The spawn-tree ident is derived from the parent's ident, the
	// parent's local spawn ordinal, and the entry function — all values
	// that replay identically regardless of how the OS interleaves
	// threads. The numeric thread id (spawn order across the whole
	// machine) is NOT deterministic under concurrent spawning, so
	// nothing that must match across record/replay may key on it.
	ident := RootIdent
	if parent != nil {
		parent.spawnSeq++
		ident = childIdent(parent.ident, parent.spawnSeq, fn)
	}
	t := newThread(m, int(m.nextTID.Add(1)-1), ident, fn)
	if parent != nil {
		// Full transitive chain: the parent's own spawn prefix plus its
		// live frames, so nested spawns (a spawned thread spawning
		// another) still carry complete ground truth. This mirrors the
		// capture chain the scheme builds through SpawnCapture links.
		pre := parent.SpawnShadow
		own := parent.ShadowCopy()
		t.SpawnShadow = append(append(make([]ShadowFrame, 0, len(pre)+len(own)), pre...), own...)
	}
	// The scheme sets the thread up before Threads lists it: a pass may
	// run from outside the machine (the entry thread is spawned from
	// Run's goroutine, which no stop waits for) and translate every
	// listed thread. A pass that misses the fresh thread loses nothing;
	// translating a thread with no frame yet leaves it as it is.
	m.scheme.ThreadStart(t, parent)
	m.threadsMu.Lock()
	m.threads = append(m.threads, t)
	m.threadsMu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t.run()
	}()
	return t
}

// register blocks while the world is stopped, then counts the thread as
// running.
func (m *Machine) register() {
	m.mu.Lock()
	for m.stopRequest.Load() {
		m.cond.Wait()
	}
	m.running++
	m.mu.Unlock()
}

// unregister removes a finished thread from the running count.
func (m *Machine) unregister() {
	m.mu.Lock()
	m.running--
	m.cond.Broadcast()
	m.mu.Unlock()
}

// park suspends the calling thread until the world resumes. Called from
// safepoints when a stop is requested.
func (m *Machine) park() {
	m.mu.Lock()
	if !m.stopRequest.Load() {
		m.mu.Unlock()
		return
	}
	m.running--
	m.cond.Broadcast()
	for m.stopRequest.Load() {
		m.cond.Wait()
	}
	m.running++
	m.mu.Unlock()
}

// StopTheWorld suspends every thread except self at its next safepoint
// and returns once all are parked. The caller must pair it with
// ResumeTheWorld. Only one stopper runs at a time; a second caller
// blocks until the first resumes.
func (m *Machine) StopTheWorld(self *Thread) {
	m.mu.Lock()
	for m.stopperBusy {
		// A thread waiting to become the stopper must count as parked,
		// or the current stopper would wait for it forever (two threads
		// triggering re-encoding at once would deadlock otherwise).
		if self != nil {
			m.running--
			m.cond.Broadcast()
		}
		for m.stopperBusy || m.stopRequest.Load() {
			m.cond.Wait()
		}
		if self != nil {
			m.running++
		}
	}
	m.stopperBusy = true
	m.stopRequest.Store(true)
	if self != nil {
		m.running-- // the stopper itself is at a safepoint
	}
	for m.running > 0 {
		m.cond.Wait()
	}
	m.mu.Unlock()
}

// ResumeTheWorld releases the threads parked by StopTheWorld.
func (m *Machine) ResumeTheWorld(self *Thread) {
	m.mu.Lock()
	m.stopRequest.Store(false)
	if self != nil {
		m.running++
	}
	m.stopperBusy = false
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Threads returns all threads created so far. Stable only after Run
// returns or with the world stopped.
func (m *Machine) Threads() []*Thread {
	m.threadsMu.Lock()
	defer m.threadsMu.Unlock()
	out := make([]*Thread, len(m.threads))
	copy(out, m.threads)
	return out
}

// plainStub is the uninstrumented call: dispatch straight to the target.
type plainStub struct{}

func (p plainStub) Prologue(t *Thread, s *prog.Site, target prog.FuncID) (Cookie, Stub) {
	return Cookie{}, p
}

func (plainStub) Epilogue(t *Thread, s *prog.Site, target prog.FuncID, c Cookie) {}

// PlainStub returns the uninstrumented dispatch stub, for schemes that
// want to leave a site (e.g. one whose edge is encoded 0) free of any
// instrumentation.
func PlainStub() Stub { return plainStub{} }

// NullScheme leaves every site uninstrumented; it provides the baseline
// run the overhead of the encoders is measured against.
type NullScheme struct{}

// Name implements Scheme.
func (NullScheme) Name() string { return "null" }

// Install implements Scheme; all sites keep the plain stub.
func (NullScheme) Install(m *Machine) {}

// ThreadStart implements Scheme.
func (NullScheme) ThreadStart(t, parent *Thread) {}

// ThreadExit implements Scheme.
func (NullScheme) ThreadExit(t *Thread) {}

// Capture implements Scheme; the null scheme has no encoder state.
func (NullScheme) Capture(t *Thread) any { return nil }
