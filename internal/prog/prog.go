// Package prog defines the program model that the DACCE machine executes.
//
// A Program is a set of Functions grouped into Modules. Each Function has
// a list of call Sites and a Body. The Body is ordinary Go code written
// against the Exec interface: it performs abstract work and invokes call
// sites. Sites carry the static information an encoder may rely on (kind,
// declared targets from a points-to analysis), while the actual target of
// an invocation is supplied at run time, exactly as with a binary.
//
// The model distinguishes the call kinds the paper treats specially:
// normal direct calls, indirect calls (function pointers / virtual
// dispatch), tail calls (direct and indirect), and PLT calls into other
// modules whose real target is resolved lazily at run time. Modules can be
// marked lazily loaded (dlopen) so that no static information about them
// exists before the first call into them.
package prog

import (
	"fmt"
	"math/rand/v2"
)

// FuncID identifies a function within a Program.
type FuncID int32

// SiteID identifies a call site within a Program.
type SiteID int32

// ModuleID identifies a module (executable or shared library).
type ModuleID int32

// Sentinel values for the identifier types.
const (
	NoFunc   FuncID   = -1
	NoSite   SiteID   = -1
	NoModule ModuleID = -1
)

// Kind classifies a call site.
type Kind uint8

// Call site kinds.
const (
	// Normal is a direct call whose target is known statically.
	Normal Kind = iota
	// Indirect is a call through a function pointer; the target is chosen
	// by the body at run time. Declared targets model a points-to result.
	Indirect
	// Tail is a direct tail call: the callee returns past the caller.
	Tail
	// TailIndirect is an indirect branch that leaves the current function,
	// treated as a tail call (paper §5.2).
	TailIndirect
	// PLT is a cross-module call through the procedure linkage table; the
	// real target is unknown until the dynamic linker resolves it.
	PLT
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Normal:
		return "normal"
	case Indirect:
		return "indirect"
	case Tail:
		return "tail"
	case TailIndirect:
		return "tail-indirect"
	case PLT:
		return "plt"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsTail reports whether the kind transfers control without creating a
// frame that the callee returns to (tail semantics).
func (k Kind) IsTail() bool { return k == Tail || k == TailIndirect }

// IsIndirect reports whether the run-time target may vary per invocation.
func (k Kind) IsIndirect() bool { return k == Indirect || k == TailIndirect }

// Exec is the view of the executing thread that function bodies program
// against. Implemented by machine.Thread.
type Exec interface {
	// Call invokes the call site s. For direct and PLT sites target is
	// ignored (pass NoFunc); for indirect sites it selects the callee.
	Call(s SiteID, target FuncID)
	// TailCall invokes a tail-call site as the final action of the body.
	// The callee conceptually returns to this function's caller, so the
	// body must not do anything after a TailCall.
	TailCall(s SiteID, target FuncID)
	// Work consumes the given number of abstract application cycles.
	Work(units int64)
	// Spawn starts a new thread executing entry (the pthread_create of
	// paper §5.3). The spawning context is recorded so the new thread's
	// full calling context stays decodable.
	Spawn(entry FuncID)
	// Rand returns the thread-local PRNG, for bodies that make weighted
	// decisions. Deterministic per (seed, thread).
	Rand() *rand.Rand
	// Depth returns the current dynamic call depth (frames on the shadow
	// stack), so bodies can bound recursion.
	Depth() int
	// Caller returns the function that called the current one (NoFunc
	// at a thread root), so bodies can model self-recursive streaks.
	Caller() FuncID
	// CallCount returns how many calls this thread has made, so bodies
	// can pace themselves against a budget and derive execution phases
	// deterministically.
	CallCount() int64
	// SelfID returns the function being executed, mainly for bodies that
	// are shared between functions.
	SelfID() FuncID
	// LoadModule loads a lazy module (dlopen). Loading an already-loaded
	// module is a no-op, so refcounted loads need no caller bookkeeping.
	LoadModule(m ModuleID)
	// UnloadModule unloads a lazy module (dlclose). The module's code is
	// gone afterwards — bodies must not call into it until a LoadModule
	// brings it back — but contexts captured while it was loaded must
	// remain decodable. Unloading an eager module or a module with one of
	// the calling thread's own frames still inside it is a model error.
	UnloadModule(m ModuleID)
}

// Body is the executable behaviour of a function.
type Body func(x Exec)

// Site is a call site in a function.
type Site struct {
	ID     SiteID
	Caller FuncID
	Kind   Kind
	// Index is the ordinal position of the site in its function, used
	// only for display ("callsite A#2").
	Index int
	// Target is the static target of Normal/Tail sites and the link-time
	// target symbol of PLT sites (resolved lazily). NoFunc for indirect.
	Target FuncID
	// Declared holds the points-to result for indirect sites: every
	// target a static analysis would identify, typically a superset of
	// what executes (false positives). Empty for direct sites. Static
	// encoders (PCCE) use it; DACCE never looks at it.
	Declared []FuncID
}

// Name returns a short human-readable name such as "f3#1".
func (s *Site) Name(p *Program) string {
	return fmt.Sprintf("%s#%d", p.Funcs[s.Caller].Name, s.Index)
}

// Function is a node in the program.
type Function struct {
	ID     FuncID
	Name   string
	Module ModuleID
	Sites  []SiteID
	Body   Body
}

// Module groups functions, modelling the main executable and shared
// libraries.
type Module struct {
	ID   ModuleID
	Name string
	// Lazy marks a dlopen-style module: static tools cannot see its
	// functions or edges before the first call into it at run time.
	Lazy bool
	// Funcs lists the functions defined in the module.
	Funcs []FuncID
}

// Program is an immutable executable program.
type Program struct {
	Funcs   []*Function
	Sites   []*Site
	Modules []*Module
	Entry   FuncID
	// ThreadRoots lists functions used as thread entry points (the
	// start routines passed to pthread_create). Static encoders treat
	// them as additional call-graph roots.
	ThreadRoots []FuncID
	// PLT maps a PLT site to the function the dynamic linker resolves it
	// to. Populated at build time; the machine consults it on the first
	// invocation of the site (lazy binding).
	PLT map[SiteID]FuncID
}

// NumFuncs returns the number of functions.
func (p *Program) NumFuncs() int { return len(p.Funcs) }

// NumSites returns the number of call sites.
func (p *Program) NumSites() int { return len(p.Sites) }

// Func returns the function with the given id.
func (p *Program) Func(id FuncID) *Function { return p.Funcs[id] }

// Site returns the site with the given id.
func (p *Program) Site(id SiteID) *Site { return p.Sites[id] }

// FuncByName returns the function with the given name, or nil.
func (p *Program) FuncByName(name string) *Function {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Validate checks structural invariants of the program; the builder
// guarantees them, but generated programs are checked in tests.
func (p *Program) Validate() error {
	if int(p.Entry) < 0 || int(p.Entry) >= len(p.Funcs) {
		return fmt.Errorf("prog: entry %d out of range", p.Entry)
	}
	for i, f := range p.Funcs {
		if f == nil {
			return fmt.Errorf("prog: nil function %d", i)
		}
		if int(f.ID) != i {
			return fmt.Errorf("prog: function %q has id %d at index %d", f.Name, f.ID, i)
		}
		if f.Body == nil {
			return fmt.Errorf("prog: function %q has no body", f.Name)
		}
		if int(f.Module) < 0 || int(f.Module) >= len(p.Modules) {
			return fmt.Errorf("prog: function %q in unknown module %d", f.Name, f.Module)
		}
		for _, s := range f.Sites {
			if int(s) < 0 || int(s) >= len(p.Sites) {
				return fmt.Errorf("prog: function %q references unknown site %d", f.Name, s)
			}
			if p.Sites[s].Caller != f.ID {
				return fmt.Errorf("prog: site %d listed in %q but caller is %d", s, f.Name, p.Sites[s].Caller)
			}
		}
	}
	for i, s := range p.Sites {
		if s == nil {
			return fmt.Errorf("prog: nil site %d", i)
		}
		if int(s.ID) != i {
			return fmt.Errorf("prog: site at index %d has id %d", i, s.ID)
		}
		switch s.Kind {
		case Normal, Tail:
			if int(s.Target) < 0 || int(s.Target) >= len(p.Funcs) {
				return fmt.Errorf("prog: direct site %d targets unknown function %d", i, s.Target)
			}
		case PLT:
			if _, ok := p.PLT[s.ID]; !ok {
				return fmt.Errorf("prog: PLT site %d has no link-time resolution", i)
			}
		case Indirect, TailIndirect:
			if s.Target != NoFunc {
				return fmt.Errorf("prog: indirect site %d has a static target", i)
			}
		default:
			return fmt.Errorf("prog: site %d has invalid kind %d", i, s.Kind)
		}
		for _, d := range s.Declared {
			if int(d) < 0 || int(d) >= len(p.Funcs) {
				return fmt.Errorf("prog: site %d declares unknown target %d", i, d)
			}
		}
	}
	return nil
}
