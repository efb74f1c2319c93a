// Package pcce implements the paper's baseline: Precise Calling Context
// Encoding (Sumner et al., ICSE '10), simulated the way the paper's
// evaluation does (§6.1) — a purely static encoder fed a full-potential
// profile gathered with the same input as the real run.
//
// Differences from DACCE that this implementation reproduces:
//
//   - The call graph is built statically before the run: every direct
//     and tail edge, every PLT edge into an eagerly loaded module, and
//     one edge per points-to-declared target of every indirect site —
//     including targets that never execute (the false positives of
//     paper §2.2 Issue 1). Nothing is ever added at run time.
//
//   - Cold declared edges can close cycles that classify hot edges as
//     back edges, inflating ccStack traffic (the paper's explanation for
//     PCCE's perlbench/xalancbmk overhead, §6.4).
//
//   - numCC over the full static graph can overflow a 64-bit id
//     (perlbench, gcc in Table 1); edges never invoked according to the
//     profile are then deleted until the encoding fits.
//
//   - Indirect calls dispatch through an inline compare chain over the
//     declared targets ordered hottest-first by the profile; there is no
//     hash table (that is DACCE's addition, §3.2), so many-target sites
//     pay a comparison per miss (the x264 story of §6.4).
//
//   - Functions in lazily loaded modules are invisible to the static
//     encoder: calls into and inside them always save/restore on the
//     ccStack (paper §2.2 Issue 2).
//
// Like the paper's simulation, this PCCE borrows DACCE's run-time
// representation for the unencodable cases (save <id, callsite, target>
// and set id = maxID+1) instead of the original's dummy-edge scheme;
// the operation count — and therefore the cost model — is identical,
// and it lets both encoders share one decoder.
package pcce

import (
	"fmt"
	"sort"
	"sync"

	"dacce/internal/blenc"
	"dacce/internal/core"
	"dacce/internal/graph"
	"dacce/internal/machine"
	"dacce/internal/prog"
)

// Profile is the offline profiling input: invocation counts per edge,
// as gathered by a prior run with the same input (the paper profiles
// with Pin, §6.1).
type Profile map[graph.EdgeKey]int64

// Options configures the static encoder.
type Options struct {
	// Budget caps the maximum context id (default blenc.DefaultBudget,
	// the 64-bit regime of the paper).
	Budget uint64
}

// Scheme is the PCCE baseline, a machine.Scheme.
type Scheme struct {
	opt Options
	p   *prog.Program
	g   *graph.Graph
	asn *blenc.Assignment
	dec *core.Decoder

	tailContaining map[prog.FuncID]bool
	lazyFn         map[prog.FuncID]bool

	stubs []machine.Stub // per site, built once
	epi   *epiStub

	mu             sync.Mutex
	unknownTargets int64
}

// tls is PCCE's thread-local state: id and ccStack, as in core.
type tls struct {
	id uint64
	cc []core.CCEntry
}

// New builds the static encoding for p under the given profile.
func New(p *prog.Program, prof Profile, opt Options) *Scheme {
	if opt.Budget == 0 {
		opt.Budget = blenc.DefaultBudget
	}
	s := &Scheme{
		opt:            opt,
		p:              p,
		g:              graph.New(p),
		tailContaining: make(map[prog.FuncID]bool),
		lazyFn:         make(map[prog.FuncID]bool),
	}
	s.epi = &epiStub{s: s}

	for _, f := range p.Funcs {
		if p.Modules[f.Module].Lazy {
			s.lazyFn[f.ID] = true
		}
	}

	// Thread start routines are additional static roots (§5.3).
	for _, r := range p.ThreadRoots {
		if !s.lazyFn[r] {
			s.g.AddRoot(r)
		}
	}

	// Build the complete static call graph.
	for _, site := range p.Sites {
		if s.lazyFn[site.Caller] {
			continue // invisible to the static tool
		}
		switch site.Kind {
		case prog.Normal, prog.Tail:
			if !s.lazyFn[site.Target] {
				s.g.AddEdge(site.ID, site.Target)
			}
		case prog.PLT:
			if t := p.PLT[site.ID]; !s.lazyFn[t] {
				s.g.AddEdge(site.ID, t)
			}
		case prog.Indirect, prog.TailIndirect:
			for _, t := range site.Declared {
				if !s.lazyFn[t] {
					s.g.AddEdge(site.ID, t)
				}
			}
		}
		if site.Kind.IsTail() {
			s.tailContaining[site.Caller] = true
		}
	}

	// Seed frequencies from the profile so hot edges get code 0 and
	// overflow handling deletes never-invoked edges first.
	for _, e := range s.g.Edges {
		e.Freq = prof[graph.EdgeKey{Site: e.Site, Target: e.Target}]
	}

	s.asn = blenc.Encode(s.g, blenc.Options{Budget: opt.Budget})
	s.dec = core.NewDecoder(p, s.g, []*blenc.Assignment{s.asn})
	s.buildStubs(prof)
	return s
}

// Name implements machine.Scheme.
func (s *Scheme) Name() string { return "pcce" }

// Graph returns the static call graph.
func (s *Scheme) Graph() *graph.Graph { return s.g }

// Assignment returns the static encoding.
func (s *Scheme) Assignment() *blenc.Assignment { return s.asn }

// MaxID returns the static encoding's maximum id.
func (s *Scheme) MaxID() uint64 { return s.asn.MaxID }

// Overflowed reports whether the unrestricted static encoding exceeded
// the id budget (Table 1's "overflow").
func (s *Scheme) Overflowed() bool { return s.asn.Overflowed }

// UnknownTargets returns how many indirect invocations missed the
// declared-target set at run time.
func (s *Scheme) UnknownTargets() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.unknownTargets
}

// Install implements machine.Scheme: the program is instrumented once,
// before execution.
func (s *Scheme) Install(m *machine.Machine) {
	for i, st := range s.stubs {
		m.SetStub(prog.SiteID(i), st)
	}
}

// ThreadStart implements machine.Scheme.
func (s *Scheme) ThreadStart(t, parent *machine.Thread) {
	t.State = &tls{}
	if parent != nil {
		t.SpawnCapture = s.Capture(parent)
	}
}

// ThreadExit implements machine.Scheme.
func (s *Scheme) ThreadExit(t *machine.Thread) {}

// Capture implements machine.Scheme. PCCE captures always carry epoch 0
// — there is only one, static, encoding.
func (s *Scheme) Capture(t *machine.Thread) any {
	st := t.State.(*tls)
	c := &core.Capture{
		ID:   st.id,
		Fn:   t.SelfID(),
		Root: t.Entry(),
		CC:   append([]core.CCEntry(nil), st.cc...),
	}
	if sc, ok := t.SpawnCapture.(*core.Capture); ok {
		c.Spawn = sc
	}
	t.C.CCDepthSum += int64(len(st.cc))
	t.C.CCDepthN++
	return c
}

// Decode decodes a PCCE capture.
func (s *Scheme) Decode(c *core.Capture) (core.Context, error) {
	return s.dec.Decode(c)
}

// DecodeSample decodes the capture of a machine sample.
func (s *Scheme) DecodeSample(sm machine.Sample) (core.Context, error) {
	c, ok := sm.Capture.(*core.Capture)
	if !ok {
		return nil, fmt.Errorf("pcce: sample does not hold a capture")
	}
	return s.dec.Decode(c)
}

// DecodeCapture decodes an untyped scheme capture — the uniform decode
// shape shared with the other context trackers.
func (s *Scheme) DecodeCapture(capture any) (core.Context, error) {
	c, ok := capture.(*core.Capture)
	if !ok {
		return nil, fmt.Errorf("pcce: capture is %T, not a capture", capture)
	}
	return s.dec.Decode(c)
}

// action mirrors core's per-edge decision, computed statically.
type action struct {
	target prog.FuncID
	kind   uint8 // 0 encoded, 1 unencoded/recursive push
	code   uint64
	save   bool
}

const (
	actEncoded = 0
	actPush    = 1
)

// buildStubs derives one static stub per call site.
func (s *Scheme) buildStubs(prof Profile) {
	s.stubs = make([]machine.Stub, s.p.NumSites())
	markID := s.asn.MaxID + 1
	for i := range s.stubs {
		site := s.p.Site(prog.SiteID(i))
		if s.lazyFn[site.Caller] {
			// Uninstrumentable statically: every call saves and, unless
			// it is itself a tail call (no instruction after the jmp),
			// restores the full encoding context.
			s.stubs[i] = &pushStub{s: s, site: site.ID, markID: markID, save: !site.Kind.IsTail()}
			continue
		}
		switch site.Kind {
		case prog.Normal, prog.Tail, prog.PLT:
			s.stubs[i] = s.directStub(site, markID)
		default:
			s.stubs[i] = s.indirectStub(site, prof, markID)
		}
	}
}

func (s *Scheme) actionFor(site *prog.Site, target prog.FuncID) action {
	a := action{target: target}
	if !site.Kind.IsTail() {
		// Save/restore around callees that contain tail calls (Fig. 7b)
		// and, conservatively, around anything in a lazily loaded
		// module, whose tail behaviour the static tool cannot see.
		a.save = s.tailContaining[target] || s.lazyFn[target]
	}
	e := s.g.Edge(site.ID, target)
	if e == nil {
		a.kind = actPush
		return a
	}
	code, ok := s.asn.CodeOf(e)
	if ok && code.Encoded {
		a.kind = actEncoded
		a.code = code.Value
	} else {
		a.kind = actPush
	}
	return a
}

func (s *Scheme) directStub(site *prog.Site, markID uint64) machine.Stub {
	target := site.Target
	if site.Kind == prog.PLT {
		target = s.p.PLT[site.ID]
	}
	a := s.actionFor(site, target)
	if a.kind == actEncoded && a.code == 0 && !a.save {
		return machine.PlainStub()
	}
	return &directStub{s: s, site: site.ID, markID: markID, act: a}
}

func (s *Scheme) indirectStub(site *prog.Site, prof Profile, markID uint64) machine.Stub {
	// Inline compare chain over declared targets, hottest first — the
	// profile-guided ordering the paper grants PCCE.
	targets := append([]prog.FuncID(nil), site.Declared...)
	sort.SliceStable(targets, func(i, j int) bool {
		fi := prof[graph.EdgeKey{Site: site.ID, Target: targets[i]}]
		fj := prof[graph.EdgeKey{Site: site.ID, Target: targets[j]}]
		return fi > fj
	})
	acts := make([]action, 0, len(targets))
	for _, tg := range targets {
		if s.lazyFn[tg] {
			continue
		}
		acts = append(acts, s.actionFor(site, tg))
	}
	return &inlineStub{s: s, site: site.ID, markID: markID, acts: acts}
}
