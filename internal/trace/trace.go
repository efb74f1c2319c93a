// Package trace records the exact call/return/spawn event stream of a
// machine run and replays it later — against a different encoding
// scheme, a different configuration, or offline analysis. Replay makes
// cross-scheme comparisons exact: both schemes observe the identical
// event sequence, eliminating even the residual per-run divergence of
// seeded workload bodies (thread interleaving aside — per-thread
// streams are replayed faithfully).
package trace

import (
	"fmt"
	"sync"

	"dacce/internal/machine"
	"dacce/internal/prog"
)

// EventKind tags trace events.
type EventKind uint8

// Event kinds.
const (
	// EvCall is a call through a site to a target (tail calls carry the
	// site's tail kind implicitly).
	EvCall EventKind = iota
	// EvReturn closes the most recent open call.
	EvReturn
	// EvWork is application work between calls.
	EvWork
	// EvSpawn starts a new thread at a function.
	EvSpawn
	// EvModLoad loads a module (dlopen). Target carries the module id.
	EvModLoad
	// EvModUnload unloads a module (dlclose). Target carries the module
	// id.
	EvModUnload
)

// Event is one recorded action of one thread.
type Event struct {
	Kind EventKind
	Site prog.SiteID // EvCall
	// Target is the resolved callee (EvCall), the spawned thread's entry
	// (EvSpawn), or the module id (EvModLoad/EvModUnload).
	Target prog.FuncID
	Work   int64 // EvWork
}

// Trace is one run's event streams, one per thread, plus each thread's
// entry function.
type Trace struct {
	Entries []prog.FuncID // per thread: entry function
	Streams [][]Event     // per thread: events in execution order

	// Idents holds each recorded thread's spawn-tree identity
	// (machine.Thread.Ident), aligned with Streams. Replay matches a
	// live thread to its stream by ident, which is stable under
	// concurrent spawning where numeric thread ids are not. The
	// Recorder always fills it; a hand-built trace may leave it empty,
	// and replay then falls back to id order.
	Idents []uint64

	// SyntheticWork, when > 0, makes replays charge this much
	// application work before every replayed call. The recorder cannot
	// see bodies' Work calls (they bypass the call sites it
	// instruments), so replays would otherwise consist of bare
	// dispatches and overstate relative instrumentation cost.
	SyntheticWork int64
}

// NumThreads returns the number of recorded threads.
func (tr *Trace) NumThreads() int { return len(tr.Streams) }

// NumEvents returns the total event count.
func (tr *Trace) NumEvents() int {
	n := 0
	for _, s := range tr.Streams {
		n += len(s)
	}
	return n
}

// Recorder is a machine.Scheme that captures the event stream while the
// underlying scheme of interest can run separately later. It charges no
// model cost (recording is a harness activity).
type Recorder struct {
	mu      sync.Mutex
	streams map[int]*recTLS
	order   []int
}

type recTLS struct {
	entry  prog.FuncID
	ident  uint64
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{streams: make(map[int]*recTLS)}
}

// Name implements machine.Scheme.
func (*Recorder) Name() string { return "trace-recorder" }

// Install implements machine.Scheme.
func (r *Recorder) Install(m *machine.Machine) {
	st := &recStub{r: r}
	for i := 0; i < m.Program().NumSites(); i++ {
		m.SetStub(prog.SiteID(i), st)
	}
}

// ThreadStart implements machine.Scheme.
func (r *Recorder) ThreadStart(t, parent *machine.Thread) {
	tls := &recTLS{entry: t.Entry(), ident: t.Ident()}
	t.State = tls
	r.mu.Lock()
	r.streams[t.ID()] = tls
	r.order = append(r.order, t.ID())
	r.mu.Unlock()
	if parent != nil {
		ptls := parent.State.(*recTLS)
		ptls.events = append(ptls.events, Event{Kind: EvSpawn, Target: t.Entry()})
	}
}

// ThreadExit implements machine.Scheme.
func (*Recorder) ThreadExit(t *machine.Thread) {}

// Capture implements machine.Scheme.
func (*Recorder) Capture(t *machine.Thread) any { return nil }

// OnModuleLoad implements machine.ModuleObserver: module lifecycle is
// part of the event stream, so replays churn modules exactly as the
// recorded run did.
func (r *Recorder) OnModuleLoad(t *machine.Thread, id prog.ModuleID) {
	tls := t.State.(*recTLS)
	tls.events = append(tls.events, Event{Kind: EvModLoad, Target: prog.FuncID(id)})
}

// OnModuleUnload implements machine.ModuleObserver.
func (r *Recorder) OnModuleUnload(t *machine.Thread, id prog.ModuleID) {
	tls := t.State.(*recTLS)
	tls.events = append(tls.events, Event{Kind: EvModUnload, Target: prog.FuncID(id)})
}

// Trace returns the recorded trace. Call after the run completes.
func (r *Recorder) Trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	tr := &Trace{}
	for tid := 0; tid < len(r.order); tid++ {
		tls := r.streams[tid]
		tr.Entries = append(tr.Entries, tls.entry)
		tr.Idents = append(tr.Idents, tls.ident)
		tr.Streams = append(tr.Streams, tls.events)
	}
	return tr
}

type recStub struct{ r *Recorder }

func (rs *recStub) Prologue(t *machine.Thread, s *prog.Site, target prog.FuncID) (machine.Cookie, machine.Stub) {
	tls := t.State.(*recTLS)
	tls.events = append(tls.events, Event{Kind: EvCall, Site: s.ID, Target: target})
	return machine.Cookie{}, rs
}

func (rs *recStub) Epilogue(t *machine.Thread, s *prog.Site, target prog.FuncID, c machine.Cookie) {
	tls := t.State.(*recTLS)
	tls.events = append(tls.events, Event{Kind: EvReturn})
}

// Note: tail calls never produce EvReturn from their own site — exactly
// like the hardware. The replayer reconstructs nesting from the site's
// kind, as the original execution did.

// ReplayProgram builds a program whose bodies replay the trace exactly:
// same sites, same targets, same order, per thread. The returned
// program shares the original's functions/sites/modules, with bodies
// swapped for replay drivers; the original program is not modified.
//
// Bodies' Work calls happen outside the recorder's view, so replays
// reproduce the call structure but not the application work; set
// Trace.SyntheticWork to re-add a per-call work charge when comparing
// overheads.
func ReplayProgram(p *prog.Program, tr *Trace) (*prog.Program, error) {
	if len(tr.Streams) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	if len(tr.Entries) != len(tr.Streams) {
		return nil, fmt.Errorf("trace: %d entries for %d streams", len(tr.Entries), len(tr.Streams))
	}
	// Traces may be hand-built or fuzzed: validate every reference
	// before execution rather than panicking mid-run.
	for i, entry := range tr.Entries {
		if int(entry) < 0 || int(entry) >= len(p.Funcs) {
			return nil, fmt.Errorf("trace: thread %d entry f%d out of range", i, entry)
		}
	}
	for ti, s := range tr.Streams {
		depth := 0
		for j, ev := range s {
			switch ev.Kind {
			case EvCall:
				if int(ev.Site) < 0 || int(ev.Site) >= len(p.Sites) {
					return nil, fmt.Errorf("trace: thread %d event %d: site %d out of range", ti, j, ev.Site)
				}
				if int(ev.Target) < 0 || int(ev.Target) >= len(p.Funcs) {
					return nil, fmt.Errorf("trace: thread %d event %d: target f%d out of range", ti, j, ev.Target)
				}
				if !p.Sites[ev.Site].Kind.IsTail() {
					depth++
				}
			case EvReturn:
				depth--
				if depth < 0 {
					return nil, fmt.Errorf("trace: thread %d event %d: unmatched return", ti, j)
				}
			case EvSpawn:
				if int(ev.Target) < 0 || int(ev.Target) >= len(p.Funcs) {
					return nil, fmt.Errorf("trace: thread %d event %d: spawn target f%d out of range", ti, j, ev.Target)
				}
			case EvModLoad, EvModUnload:
				if int(ev.Target) < 0 || int(ev.Target) >= len(p.Modules) {
					return nil, fmt.Errorf("trace: thread %d event %d: module %d out of range", ti, j, ev.Target)
				}
				if ev.Kind == EvModUnload && !p.Modules[ev.Target].Lazy {
					return nil, fmt.Errorf("trace: thread %d event %d: unload of eager module %d", ti, j, ev.Target)
				}
			case EvWork:
				if ev.Work < 0 {
					return nil, fmt.Errorf("trace: thread %d event %d: negative work", ti, j)
				}
			default:
				return nil, fmt.Errorf("trace: thread %d event %d: bad kind %d", ti, j, ev.Kind)
			}
		}
	}
	// Deep-copy the program skeleton so bodies can be replaced safely.
	cp := &prog.Program{
		Entry:       tr.Entries[0],
		ThreadRoots: append([]prog.FuncID(nil), p.ThreadRoots...),
		PLT:         p.PLT,
		Sites:       p.Sites,
		Modules:     p.Modules,
	}
	cp.Funcs = make([]*prog.Function, len(p.Funcs))
	rp := &replayer{p: cp, tr: tr, byIdent: identIndex(tr)}
	for i, f := range p.Funcs {
		nf := *f
		nf.Body = rp.body()
		cp.Funcs[i] = &nf
	}
	return cp, nil
}

// identIndex maps each recorded thread ident to its stream index, or
// nil when the trace carries no (usable) idents: ident-less traces, and
// corrupted traces where two streams claim the same ident.
func identIndex(tr *Trace) map[uint64]int {
	if len(tr.Idents) != len(tr.Streams) {
		return nil
	}
	m := make(map[uint64]int, len(tr.Idents))
	for i, id := range tr.Idents {
		if _, dup := m[id]; dup {
			return nil
		}
		m[id] = i
	}
	return m
}

// replayer drives bodies from the recorded per-thread cursors.
type replayer struct {
	p       *prog.Program
	tr      *Trace
	byIdent map[uint64]int

	mu      sync.Mutex
	cursors map[int]*cursor
}

type cursor struct {
	events []Event
	pos    int
}

func (rp *replayer) cursorFor(t *machine.Thread) *cursor {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.cursors == nil {
		rp.cursors = make(map[int]*cursor)
	}
	c, ok := rp.cursors[t.ID()]
	if !ok {
		// Match the live thread to its recorded stream by spawn-tree
		// ident: replayed spawns recreate the recording's spawn tree, so
		// idents agree even when the OS schedules thread starts in a
		// different order than the recording run did.
		idx, ok := -1, false
		if rp.byIdent != nil {
			if i, hit := rp.byIdent[t.Ident()]; hit {
				idx, ok = i, true
			}
		}
		if !ok {
			// Ident-less traces: ids were assigned in spawn order,
			// matching the recorded stream order for deterministic
			// workloads.
			idx = t.ID()
			if idx >= len(rp.tr.Streams) {
				idx = len(rp.tr.Streams) - 1
			}
		}
		c = &cursor{events: rp.tr.Streams[idx]}
		rp.cursors[t.ID()] = c
	}
	return c
}

// body returns the replay driver: each invocation consumes its events
// until the matching return.
func (rp *replayer) body() prog.Body {
	return func(x prog.Exec) {
		th := x.(*machine.Thread)
		cur := rp.cursorFor(th)
		for cur.pos < len(cur.events) {
			ev := cur.events[cur.pos]
			switch ev.Kind {
			case EvReturn:
				cur.pos++
				return
			case EvSpawn:
				cur.pos++
				x.Spawn(ev.Target)
			case EvModLoad:
				cur.pos++
				x.LoadModule(prog.ModuleID(ev.Target))
			case EvModUnload:
				cur.pos++
				// Recorded unloads are always legal to replay; this guard
				// only matters for hand-built or fuzzed traces, where an
				// unload under the thread's own frames would otherwise be
				// a machine panic.
				if !th.FrameInModule(prog.ModuleID(ev.Target)) {
					x.UnloadModule(prog.ModuleID(ev.Target))
				}
			case EvWork:
				cur.pos++
				x.Work(ev.Work)
			case EvCall:
				cur.pos++
				if rp.tr.SyntheticWork > 0 {
					x.Work(rp.tr.SyntheticWork)
				}
				site := rp.p.Site(ev.Site)
				if site.Kind.IsTail() {
					x.TailCall(ev.Site, ev.Target)
					// Tail calls recorded no EvReturn; the callee's
					// events ran inside TailCall, and control now
					// returns past this body.
					return
				}
				x.Call(ev.Site, ev.Target)
			default:
				panic(fmt.Sprintf("trace: bad event kind %d", ev.Kind))
			}
		}
	}
}
