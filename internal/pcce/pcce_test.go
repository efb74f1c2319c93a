package pcce

import (
	"testing"

	"dacce/internal/core"
	"dacce/internal/graph"
	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/progtest"
)

// runAll executes a scripted program under PCCE with per-call sampling
// and validates every sample against the shadow stack.
func runAll(t *testing.T, p *prog.Program, prof Profile, root []progtest.Call) (*Scheme, *machine.RunStats) {
	t.Helper()
	sc := progtest.NewScript(p)
	sc.Root = root
	for _, f := range p.Funcs {
		f.Body = sc.Body()
	}
	s := New(p, prof, Options{})
	m := machine.New(p, s, machine.Config{SampleEvery: 1})
	rs, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, sm := range rs.Samples {
		ctx, err := s.DecodeSample(sm)
		if err != nil {
			t.Fatalf("sample %d: %v", sm.Seq, err)
		}
		if want := core.ShadowContext(nil, sm.Shadow); !ctx.Equal(want) {
			t.Errorf("sample %d: decoded %v, want %v", sm.Seq, ctx, want)
		}
	}
	return s, rs
}

func TestStaticGraphIncludesFalsePositives(t *testing.T) {
	fx, b := progtest.Fig3()
	p := b.MustBuild()
	fx.P = p
	s := New(p, Profile{}, Options{})
	// The indirect site declares E and I even though a run may never
	// take them: both edges must be in the static graph.
	if s.g.Edge(fx.S("Cind"), fx.F("E")) == nil || s.g.Edge(fx.S("Cind"), fx.F("I")) == nil {
		t.Fatal("declared indirect targets missing from static graph")
	}
	// numCC(I) counts contexts through both the declared indirect edge
	// and E→I; a dynamic encoder that never sees C→I would need less.
	if got := s.asn.NumCCOf(s.g.Node(fx.F("I"))); got < 2 {
		t.Errorf("numCC(I) = %d, want ≥ 2 with the false-positive edge", got)
	}
}

func TestMixedPathsDecode(t *testing.T) {
	fx, b := progtest.Fig3()
	p := b.MustBuild()
	fx.P = p
	prof := Profile{
		{Site: fx.S("AB"), Target: fx.F("B")}:   10,
		{Site: fx.S("BD"), Target: fx.F("D")}:   10,
		{Site: fx.S("AC"), Target: fx.F("C")}:   5,
		{Site: fx.S("CD"), Target: fx.F("D")}:   3,
		{Site: fx.S("DF"), Target: fx.F("F")}:   13,
		{Site: fx.S("Cind"), Target: fx.F("E")}: 2,
		{Site: fx.S("EI"), Target: fx.F("I")}:   2,
	}
	root := []progtest.Call{
		progtest.By(fx.S("AB"), progtest.By(fx.S("BD"), progtest.By(fx.S("DF")))),
		progtest.By(fx.S("AC"),
			progtest.By(fx.S("CD"), progtest.By(fx.S("DF"))),
			progtest.ByT(fx.S("Cind"), fx.F("E"), progtest.By(fx.S("EI"))),
			progtest.ByT(fx.S("Cind"), fx.F("I"))),
	}
	s, rs := runAll(t, p, prof, root)
	if rs.C.Compares == 0 {
		t.Error("indirect compare chain never executed")
	}
	if got := s.UnknownTargets(); got != 0 {
		t.Errorf("UnknownTargets = %d, want 0 (all targets declared)", got)
	}
	// The hottest in-edges carry code 0: B→D is hotter than C→D.
	c, _ := s.asn.CodeOf(s.g.Edge(fx.S("BD"), fx.F("D")))
	if c.Value != 0 {
		t.Errorf("profile-hot edge BD got code %d, want 0", c.Value)
	}
}

func TestUndeclaredIndirectTarget(t *testing.T) {
	b := prog.NewBuilder()
	mainF := b.Func("main")
	e := b.Func("onlyDeclared")
	x := b.Func("surprise") // invoked but not in the points-to set
	ind := b.IndirectSite(mainF, e)
	b.Leaf(e, 1)
	b.Leaf(x, 1)
	p := b.MustBuild()

	root := []progtest.Call{
		progtest.ByT(ind, e),
		progtest.ByT(ind, x),
		progtest.ByT(ind, x),
	}
	s, _ := runAll(t, p, Profile{}, root)
	if got := s.UnknownTargets(); got != 2 {
		t.Errorf("UnknownTargets = %d, want 2", got)
	}
}

func TestRecursionViaStack(t *testing.T) {
	fx, b := progtest.Fig5()
	p := b.MustBuild()
	fx.P = p
	// Static classification sees the cycle A→C→D→A (or A→D→A): the
	// back edge is excluded and handled on the ccStack.
	root := []progtest.Call{
		progtest.By(fx.S("AD"),
			progtest.By(fx.S("DA"),
				progtest.By(fx.S("AC"),
					progtest.By(fx.S("CD"),
						progtest.By(fx.S("DA"),
							progtest.By(fx.S("AD"))))))),
	}
	_, rs := runAll(t, p, Profile{}, root)
	if rs.C.CCPush == 0 {
		t.Error("recursive run never touched the ccStack")
	}
}

func TestTailRestoreStatic(t *testing.T) {
	fx, b := progtest.Fig7()
	p := b.MustBuild()
	fx.P = p
	// PCCE knows statically that C contains a tail call, so A's call to
	// C saves/restores; path ACDF then ABDF must both decode (the
	// Fig. 7a bug would corrupt the second).
	root := []progtest.Call{
		progtest.By(fx.S("AC"), progtest.By(fx.S("CD"), progtest.By(fx.S("DF")))),
		progtest.By(fx.S("AB"), progtest.By(fx.S("BD"), progtest.By(fx.S("DF")))),
		progtest.By(fx.S("AC"), progtest.By(fx.S("CD"), progtest.By(fx.S("DE")))),
	}
	_, rs := runAll(t, p, Profile{}, root)
	if rs.C.TcSaves == 0 {
		t.Error("tail-containing callee never triggered a TcStack save")
	}
}

func TestLazyModuleAlwaysSaves(t *testing.T) {
	b := prog.NewBuilder()
	mainF := b.Func("main")
	lib := b.Module("plugin.so", true)
	pf := b.FuncIn("plugin_entry", lib)
	pg := b.FuncIn("plugin_helper", lib)
	mp := b.PLTSite(mainF, pf)
	pp := b.CallSite(pf, pg)
	p := b.MustBuild()

	root := []progtest.Call{
		progtest.By(mp, progtest.By(pp)),
		progtest.By(mp, progtest.By(pp)),
	}
	s, rs := runAll(t, p, Profile{}, root)
	if rs.C.CCPush == 0 {
		t.Error("calls through the lazy module never pushed: static PCCE should be unable to encode them")
	}
	// The lazy functions must not appear in the static graph.
	if s.g.Node(pf) != nil || s.g.Node(pg) != nil {
		t.Error("lazily loaded functions leaked into the static graph")
	}
}

func TestOverflowFromColdEdges(t *testing.T) {
	// 70 stacked diamonds (2^70 static paths) where the profile says
	// only one side of each diamond ever runs: the unrestricted
	// encoding overflows and never-invoked edges are deleted.
	b := prog.NewBuilder()
	prev := b.Func("main")
	prof := Profile{}
	type lay struct{ hot prog.SiteID }
	var hotPath []lay
	for i := 0; i < 70; i++ {
		l := b.Func(fmtN("l", i))
		r := b.Func(fmtN("r", i))
		next := b.Func(fmtN("j", i))
		sl := b.CallSite(prev, l)
		sr := b.CallSite(prev, r)
		sln := b.CallSite(l, next)
		srn := b.CallSite(r, next)
		prof[graph.EdgeKey{Site: sl, Target: l}] = 100
		prof[graph.EdgeKey{Site: sln, Target: next}] = 100
		prof[graph.EdgeKey{Site: sr, Target: r}] = 0
		prof[graph.EdgeKey{Site: srn, Target: next}] = 0
		hotPath = append(hotPath, lay{hot: sl})
		prev = next
	}
	p := b.MustBuild()
	s := New(p, prof, Options{})
	if !s.Overflowed() {
		t.Fatal("2^70-path static graph did not overflow")
	}
	if s.MaxID() > s.opt.Budget {
		t.Errorf("budgeted MaxID %d above budget", s.MaxID())
	}
	_ = hotPath
}

func fmtN(p string, i int) string {
	return p + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// TestPCCEVsDACCEEncodingSpace demonstrates Table 1's headline: for the
// same program and run, DACCE's dynamic graph and maxID are no larger
// than PCCE's static ones, because only invoked edges are encoded.
func TestPCCEVsDACCEEncodingSpace(t *testing.T) {
	fx, b := progtest.Fig3()
	p := b.MustBuild()
	fx.P = p
	root := []progtest.Call{
		progtest.By(fx.S("AB"), progtest.By(fx.S("BD"), progtest.By(fx.S("DF")))),
	}

	run := func(s machine.Scheme) {
		sc := progtest.NewScript(p)
		sc.Root = root
		for _, f := range p.Funcs {
			f.Body = sc.Body()
		}
		m := machine.New(p, s, machine.Config{})
		if _, err := m.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
	}

	ps := New(p, Profile{}, Options{})
	run(ps)
	d := core.New(p, core.Options{})
	run(d)
	d.ForceReencode(nil)

	if d.Graph().NumEdges() >= ps.Graph().NumEdges() {
		t.Errorf("dynamic edges %d not smaller than static %d", d.Graph().NumEdges(), ps.Graph().NumEdges())
	}
	if d.MaxID() > ps.MaxID() {
		t.Errorf("DACCE maxID %d exceeds PCCE maxID %d", d.MaxID(), ps.MaxID())
	}
}

// TestThreadedSpawnDecode checks PCCE's spawn-context chaining: samples
// from worker threads decode with the spawn-path prefix (paper §5.3).
func TestThreadedSpawnDecode(t *testing.T) {
	b := prog.NewBuilder()
	mainF := b.Func("main")
	worker := b.Func("worker")
	b.ThreadRoot(worker)
	job := b.Func("job")
	wj := b.CallSite(worker, job)
	b.Body(mainF, func(x prog.Exec) {
		x.Spawn(worker)
		x.Spawn(worker)
	})
	b.Body(worker, func(x prog.Exec) {
		for i := 0; i < 40; i++ {
			x.Call(wj, prog.NoFunc)
		}
	})
	b.Leaf(job, 1)
	p := b.MustBuild()
	s := New(p, Profile{}, Options{})
	m := machine.New(p, s, machine.Config{SampleEvery: 7})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	spawnShadow := map[int][]machine.Frame{}
	for _, th := range m.Threads() {
		spawnShadow[th.ID()] = th.SpawnShadow
	}
	checked := 0
	for _, sm := range rs.Samples {
		if sm.Thread == 0 {
			continue
		}
		ctx, err := s.DecodeSample(sm)
		if err != nil {
			t.Fatalf("thread %d: %v", sm.Thread, err)
		}
		want := core.ShadowContext(spawnShadow[sm.Thread], sm.Shadow)
		if !ctx.Equal(want) {
			t.Fatalf("thread %d: %v != %v", sm.Thread, ctx, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no worker samples validated")
	}
}
