// Package progtest provides test fixtures shared by the encoder tests:
// the call-graph examples worked through in the paper's figures, and a
// Script driver that executes an exact, hand-written call tree so tests
// can reproduce the paper's example contexts (ACDF, ACEI, ADACDAD, …)
// invocation for invocation. Single-threaded only.
package progtest

import (
	"fmt"

	"dacce/internal/prog"
)

// Call is one scripted invocation: the site to invoke, the run-time
// target for indirect sites, and the calls the callee makes in turn.
type Call struct {
	Site   prog.SiteID
	Target prog.FuncID
	Sub    []Call
	// Hook, if set, runs inside the callee before its sub-calls (used
	// to force re-encodings or take captures at exact points).
	Hook func(x prog.Exec)
}

// By builds a Call with sub-calls.
func By(site prog.SiteID, sub ...Call) Call {
	return Call{Site: site, Target: prog.NoFunc, Sub: sub}
}

// ByT builds an indirect Call with an explicit target.
func ByT(site prog.SiteID, target prog.FuncID, sub ...Call) Call {
	return Call{Site: site, Target: target, Sub: sub}
}

// Script drives every function body from a nested call tree. Install
// the script's Body on every function, then set Root before running.
type Script struct {
	p *prog.Program
	// Root is the call tree executed by the entry function.
	Root []Call
	// RootHook runs inside the entry function before its calls.
	RootHook func(x prog.Exec)

	pending []scriptFrame
}

type scriptFrame struct {
	calls []Call
	hook  func(x prog.Exec)
}

// NewScript returns a script for program p.
func NewScript(p *prog.Program) *Script { return &Script{p: p} }

// Body returns the body shared by all scripted functions.
func (s *Script) Body() prog.Body {
	return func(x prog.Exec) {
		var f scriptFrame
		if n := len(s.pending); n > 0 {
			f = s.pending[n-1]
			s.pending = s.pending[:n-1]
		} else {
			f = scriptFrame{calls: s.Root, hook: s.RootHook}
		}
		if f.hook != nil {
			f.hook(x)
		}
		for _, c := range f.calls {
			s.pending = append(s.pending, scriptFrame{calls: c.Sub, hook: c.Hook})
			site := s.p.Site(c.Site)
			if site.Kind.IsTail() {
				x.TailCall(c.Site, c.Target)
			} else {
				x.Call(c.Site, c.Target)
			}
		}
	}
}

// Fixture bundles a built program with name lookups for tests.
type Fixture struct {
	P     *prog.Program
	Fn    map[string]prog.FuncID
	Sites map[string]prog.SiteID
}

// F returns a function id by name, failing loudly on typos.
func (fx *Fixture) F(name string) prog.FuncID {
	id, ok := fx.Fn[name]
	if !ok {
		panic(fmt.Sprintf("progtest: unknown function %q", name))
	}
	return id
}

// S returns a site id by name.
func (fx *Fixture) S(name string) prog.SiteID {
	id, ok := fx.Sites[name]
	if !ok {
		panic(fmt.Sprintf("progtest: unknown site %q", name))
	}
	return id
}

// build assembles a fixture from function names and site specs of the
// form caller→callee. The entry is always "A" unless a function named
// "main" exists.
type siteSpec struct {
	name   string
	caller string
	target string // "" for indirect
	kind   prog.Kind
}

func assemble(funcs []string, sites []siteSpec, declared map[string][]string) (*Fixture, *prog.Builder) {
	b := prog.NewBuilder()
	fx := &Fixture{Fn: map[string]prog.FuncID{}, Sites: map[string]prog.SiteID{}}
	for _, f := range funcs {
		fx.Fn[f] = b.Func(f)
	}
	for _, s := range sites {
		var id prog.SiteID
		switch s.kind {
		case prog.Normal:
			id = b.CallSite(fx.Fn[s.caller], fx.Fn[s.target])
		case prog.Tail:
			id = b.TailSite(fx.Fn[s.caller], fx.Fn[s.target])
		case prog.Indirect:
			var decl []prog.FuncID
			for _, d := range declared[s.name] {
				decl = append(decl, fx.Fn[d])
			}
			id = b.IndirectSite(fx.Fn[s.caller], decl...)
		case prog.PLT:
			id = b.PLTSite(fx.Fn[s.caller], fx.Fn[s.target])
		}
		fx.Sites[s.name] = id
	}
	b.Entry(fx.Fn[funcs[0]])
	return fx, b
}

// Fig1 builds the diamond of the paper's Fig. 1: A→{B,C}, {B,C}→D,
// D→{E,F}. Only edge CD needs instrumentation once encoded.
func Fig1() (*Fixture, *prog.Builder) {
	return assemble(
		[]string{"A", "B", "C", "D", "E", "F"},
		[]siteSpec{
			{"AB", "A", "B", prog.Normal},
			{"AC", "A", "C", prog.Normal},
			{"BD", "B", "D", prog.Normal},
			{"CD", "C", "D", prog.Normal},
			{"DE", "D", "E", prog.Normal},
			{"DF", "D", "F", prog.Normal},
		}, nil)
}

// Fig2 builds the graph of Fig. 2: A→C→D plus the (initially
// unencoded) edge A→D.
func Fig2() (*Fixture, *prog.Builder) {
	return assemble(
		[]string{"A", "C", "D"},
		[]siteSpec{
			{"AC", "A", "C", prog.Normal},
			{"CD", "C", "D", prog.Normal},
			{"AD", "A", "D", prog.Normal},
		}, nil)
}

// Fig3 builds the indirect-call example of Fig. 3: A→{B,C}, B→D, C→D,
// D→F, plus C's indirect call (targets E at run time) and E→I.
func Fig3() (*Fixture, *prog.Builder) {
	return assemble(
		[]string{"A", "B", "C", "D", "E", "F", "I"},
		[]siteSpec{
			{"AB", "A", "B", prog.Normal},
			{"AC", "A", "C", prog.Normal},
			{"BD", "B", "D", prog.Normal},
			{"CD", "C", "D", prog.Normal},
			{"DF", "D", "F", prog.Normal},
			{"Cind", "C", "", prog.Indirect},
			{"EI", "E", "I", prog.Normal},
		},
		map[string][]string{"Cind": {"E", "I"}})
}

// Fig5 builds the recursion example of Fig. 5: A→C, C→D, A→D and the
// back edge D→A.
func Fig5() (*Fixture, *prog.Builder) {
	return assemble(
		[]string{"A", "C", "D"},
		[]siteSpec{
			{"AC", "A", "C", prog.Normal},
			{"CD", "C", "D", prog.Normal},
			{"AD", "A", "D", prog.Normal},
			{"DA", "D", "A", prog.Normal},
		}, nil)
}

// Fig7 builds the tail-call example of Fig. 7: A→{B,C}, B→D, C→D as a
// tail call, D→{E,F}.
func Fig7() (*Fixture, *prog.Builder) {
	return assemble(
		[]string{"A", "B", "C", "D", "E", "F"},
		[]siteSpec{
			{"AB", "A", "B", prog.Normal},
			{"AC", "A", "C", prog.Normal},
			{"BD", "B", "D", prog.Normal},
			{"CD", "C", "D", prog.Tail},
			{"DE", "D", "E", prog.Normal},
			{"DF", "D", "F", prog.Normal},
		}, nil)
}
