package machine

import (
	"sync/atomic"
	"testing"
	"time"

	"dacce/internal/prog"
)

// buildLinear returns main→a→b with bodies that call straight through.
func buildLinear(t *testing.T) (*prog.Program, prog.SiteID, prog.SiteID) {
	t.Helper()
	bld := prog.NewBuilder()
	mainF := bld.Func("main")
	a := bld.Func("a")
	b := bld.Func("b")
	sa := bld.CallSite(mainF, a)
	sb := bld.CallSite(a, b)
	bld.Body(mainF, func(x prog.Exec) { x.Call(sa, prog.NoFunc) })
	bld.Body(a, func(x prog.Exec) { x.Call(sb, prog.NoFunc) })
	bld.Leaf(b, 7)
	p, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p, sa, sb
}

func TestNullRunCounts(t *testing.T) {
	p, _, _ := buildLinear(t)
	m := New(p, NullScheme{}, Config{})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rs.C.Calls != 2 {
		t.Errorf("calls = %d, want 2", rs.C.Calls)
	}
	if rs.C.WorkUnits != 7 {
		t.Errorf("work = %d, want 7", rs.C.WorkUnits)
	}
	if want := int64(7 + 2*CostCallDispatch); rs.C.BaseCost != want {
		t.Errorf("base cost = %d, want %d", rs.C.BaseCost, want)
	}
	if rs.C.InstrCost != 0 {
		t.Errorf("null scheme charged %d instr cycles", rs.C.InstrCost)
	}
	if rs.Threads != 1 {
		t.Errorf("threads = %d, want 1", rs.Threads)
	}
}

func TestRunTwicePanics(t *testing.T) {
	p, _, _ := buildLinear(t)
	m := New(p, NullScheme{}, Config{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("second Run did not fail")
	}
}

// recordingStub logs prologue/epilogue order.
type recordingStub struct {
	log *[]string
	tag string
}

func (r *recordingStub) Prologue(t *Thread, s *prog.Site, target prog.FuncID) (Cookie, Stub) {
	*r.log = append(*r.log, "pro:"+r.tag)
	return Cookie{}, r
}

func (r *recordingStub) Epilogue(t *Thread, s *prog.Site, target prog.FuncID, c Cookie) {
	*r.log = append(*r.log, "epi:"+r.tag)
}

func TestPrologueEpilogueNesting(t *testing.T) {
	p, sa, sb := buildLinear(t)
	var log []string
	m := New(p, NullScheme{}, Config{})
	m.SetStub(sa, &recordingStub{log: &log, tag: "a"})
	m.SetStub(sb, &recordingStub{log: &log, tag: "b"})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"pro:a", "pro:b", "epi:b", "epi:a"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestTailCallSkipsEpilogue(t *testing.T) {
	bld := prog.NewBuilder()
	mainF := bld.Func("main")
	c := bld.Func("c")
	d := bld.Func("d")
	sc := bld.CallSite(mainF, c)
	sd := bld.TailSite(c, d)
	bld.Body(mainF, func(x prog.Exec) { x.Call(sc, prog.NoFunc) })
	bld.Body(c, func(x prog.Exec) { x.TailCall(sd, prog.NoFunc) })
	bld.Leaf(d, 1)
	p := bld.MustBuild()

	var log []string
	m := New(p, NullScheme{}, Config{})
	m.SetStub(sc, &recordingStub{log: &log, tag: "c"})
	m.SetStub(sd, &recordingStub{log: &log, tag: "tail"})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// The tail site's prologue runs; its epilogue must not (nothing
	// executes after a jmp).
	want := []string{"pro:c", "pro:tail", "epi:c"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestPhysicalStackHidesTailCallers(t *testing.T) {
	bld := prog.NewBuilder()
	mainF := bld.Func("main")
	c := bld.Func("c")
	d := bld.Func("d")
	sc := bld.CallSite(mainF, c)
	sd := bld.TailSite(c, d)
	var phys []Frame
	var shadow []ShadowFrame
	bld.Body(mainF, func(x prog.Exec) { x.Call(sc, prog.NoFunc) })
	bld.Body(c, func(x prog.Exec) { x.TailCall(sd, prog.NoFunc) })
	bld.Body(d, func(x prog.Exec) {
		th := x.(*Thread)
		phys = th.PhysicalStack()
		shadow = th.ShadowCopy()
	})
	p := bld.MustBuild()
	m := New(p, NullScheme{}, Config{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(shadow) != 3 {
		t.Fatalf("shadow depth = %d, want 3 (main,c,d)", len(shadow))
	}
	if len(phys) != 2 || phys[0].Fn != mainF || phys[1].Fn != d {
		t.Fatalf("physical stack = %v, want [main d]", phys)
	}
}

func TestFrameEpilogueRewrite(t *testing.T) {
	// Rewriting an active frame's epilogue stub redirects its return
	// path — the mechanism schemes use for tail fix-ups and
	// re-encoding.
	bld := prog.NewBuilder()
	mainF := bld.Func("main")
	a := bld.Func("a")
	sa := bld.CallSite(mainF, a)
	var log []string
	rewritten := &recordingStub{log: &log, tag: "new"}
	bld.Body(mainF, func(x prog.Exec) { x.Call(sa, prog.NoFunc) })
	bld.Body(a, func(x prog.Exec) {
		th := x.(*Thread)
		f := th.FrameAt(th.Depth() - 1)
		f.EpiStub = rewritten
		f.Cook = Cookie{A: 99}
	})
	p := bld.MustBuild()
	m := New(p, NullScheme{}, Config{})
	m.SetStub(sa, &recordingStub{log: &log, tag: "old"})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"pro:old", "epi:new"}
	for i := range want {
		if i >= len(log) || log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestStubPatchingMidRun(t *testing.T) {
	bld := prog.NewBuilder()
	mainF := bld.Func("main")
	a := bld.Func("a")
	sa := bld.CallSite(mainF, a)
	var log []string
	bld.Body(mainF, func(x prog.Exec) {
		x.Call(sa, prog.NoFunc)
		x.Call(sa, prog.NoFunc)
	})
	bld.Leaf(a, 1)
	p := bld.MustBuild()
	m := New(p, NullScheme{}, Config{})
	first := &patchingStub{log: &log, m: m, site: sa}
	m.SetStub(sa, first)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// First invocation traps; the second runs under the patched stub.
	want := []string{"first", "pro:x", "epi:x"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

type patchingStub struct {
	log  *[]string
	m    *Machine
	site prog.SiteID
}

func (ps *patchingStub) Prologue(t *Thread, s *prog.Site, target prog.FuncID) (Cookie, Stub) {
	*ps.log = append(*ps.log, "first")
	ps.m.SetStub(ps.site, &recordingStub{log: ps.log, tag: "x"})
	// Delegate to a different epilogue partner to prove the handler
	// pattern works.
	return Cookie{}, ps
}

func (ps *patchingStub) Epilogue(t *Thread, s *prog.Site, target prog.FuncID, c Cookie) {}

func (ps *patchingStub) String() string { return "patchingStub" }

func TestSpawnAndStopTheWorld(t *testing.T) {
	bld := prog.NewBuilder()
	mainF := bld.Func("main")
	worker := bld.Func("worker")
	bld.ThreadRoot(worker)
	spin := bld.Func("spin")
	ws := bld.CallSite(worker, spin)

	var stops atomic.Int64
	bld.Body(mainF, func(x prog.Exec) {
		for i := 0; i < 3; i++ {
			x.Spawn(worker)
		}
		th := x.(*Thread)
		// Stop the world a few times while workers run.
		for i := 0; i < 5; i++ {
			th.Machine().StopTheWorld(th)
			stops.Add(1)
			th.Machine().ResumeTheWorld(th)
			x.Work(50000)
		}
	})
	bld.Body(worker, func(x prog.Exec) {
		for i := 0; i < 2000; i++ {
			x.Call(ws, prog.NoFunc)
		}
	})
	bld.Leaf(spin, 100)
	p := bld.MustBuild()
	m := New(p, NullScheme{}, Config{})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Threads != 4 {
		t.Errorf("threads = %d, want 4", rs.Threads)
	}
	if stops.Load() != 5 {
		t.Errorf("stop-the-world ran %d times, want 5", stops.Load())
	}
	if rs.C.Calls != 3*2000 {
		t.Errorf("calls = %d, want 6000", rs.C.Calls)
	}
}

// TestConcurrentStoppers has every thread repeatedly stop the world:
// threads waiting to become the stopper must count as parked, or the
// current stopper deadlocks waiting for them (regression test).
func TestConcurrentStoppers(t *testing.T) {
	bld := prog.NewBuilder()
	mainF := bld.Func("main")
	worker := bld.Func("worker")
	bld.ThreadRoot(worker)
	body := func(x prog.Exec) {
		th := x.(*Thread)
		for i := 0; i < 200; i++ {
			th.Machine().StopTheWorld(th)
			th.Machine().ResumeTheWorld(th)
			x.Work(10)
		}
	}
	bld.Body(mainF, func(x prog.Exec) {
		for i := 0; i < 3; i++ {
			x.Spawn(worker)
		}
		body(x)
	})
	bld.Body(worker, body)
	p := bld.MustBuild()
	m := New(p, NullScheme{}, Config{})
	done := make(chan error, 1)
	go func() {
		_, err := m.Run()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent stoppers deadlocked")
	}
}

func TestSamplingCadence(t *testing.T) {
	bld := prog.NewBuilder()
	mainF := bld.Func("main")
	a := bld.Func("a")
	sa := bld.CallSite(mainF, a)
	bld.Body(mainF, func(x prog.Exec) {
		for i := 0; i < 100; i++ {
			x.Call(sa, prog.NoFunc)
		}
	})
	bld.Leaf(a, 1)
	p := bld.MustBuild()
	m := New(p, NullScheme{}, Config{SampleEvery: 10})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rs.C.Samples != 10 {
		t.Errorf("samples = %d, want 10", rs.C.Samples)
	}
	if len(rs.Samples) != 10 {
		t.Errorf("retained %d samples, want 10", len(rs.Samples))
	}
	for _, s := range rs.Samples {
		if s.Fn != mainF {
			t.Errorf("sample fn = %d, want main", s.Fn)
		}
		if len(s.Shadow) != 1 {
			t.Errorf("sample shadow depth = %d, want 1", len(s.Shadow))
		}
	}
}

func TestSteadySnapshot(t *testing.T) {
	bld := prog.NewBuilder()
	mainF := bld.Func("main")
	a := bld.Func("a")
	sa := bld.CallSite(mainF, a)
	bld.Body(mainF, func(x prog.Exec) {
		for i := 0; i < 100; i++ {
			x.Call(sa, prog.NoFunc)
		}
	})
	bld.Leaf(a, 10)
	p := bld.MustBuild()
	m := New(p, NullScheme{}, Config{SteadyAfterCalls: 50})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rs.C.Snapped {
		t.Fatal("steady snapshot never taken")
	}
	if rs.C.SteadyBase <= 0 || rs.C.SteadyBase >= rs.C.BaseCost {
		t.Errorf("steady base = %d of %d, want interior", rs.C.SteadyBase, rs.C.BaseCost)
	}
	if got := rs.SteadyOverhead(); got != 0 {
		t.Errorf("steady overhead = %v, want 0 under null scheme", got)
	}
}

func TestPLTResolution(t *testing.T) {
	bld := prog.NewBuilder()
	mainF := bld.Func("main")
	lib := bld.Module("lib.so", true)
	f := bld.FuncIn("libfn", lib)
	sp := bld.PLTSite(mainF, f)
	var seen prog.FuncID = prog.NoFunc
	bld.Body(mainF, func(x prog.Exec) { x.Call(sp, prog.NoFunc) })
	bld.Body(f, func(x prog.Exec) { seen = x.SelfID() })
	p := bld.MustBuild()
	m := New(p, NullScheme{}, Config{})
	if m.ModuleLoaded(lib) {
		t.Error("lazy module pre-loaded")
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if seen != f {
		t.Errorf("PLT call reached %d, want %d", seen, f)
	}
	if !m.ModuleLoaded(lib) {
		t.Error("module not marked loaded after PLT call")
	}
}

func TestCallOnTailSitePanics(t *testing.T) {
	bld := prog.NewBuilder()
	mainF := bld.Func("main")
	a := bld.Func("a")
	st := bld.TailSite(mainF, a)
	bld.Body(mainF, func(x prog.Exec) {
		defer func() {
			if recover() == nil {
				panic("Call on tail site did not panic")
			}
		}()
		x.Call(st, prog.NoFunc)
	})
	bld.Leaf(a, 1)
	p := bld.MustBuild()
	m := New(p, NullScheme{}, Config{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{Calls: 1, BaseCost: 10, InstrCost: 5, CCPush: 2, MaxCCDepth: 3, CCDepthSum: 4, CCDepthN: 2}
	b := Counters{Calls: 2, BaseCost: 20, InstrCost: 1, CCPush: 1, MaxCCDepth: 7, CCDepthSum: 6, CCDepthN: 1}
	a.add(&b)
	if a.Calls != 3 || a.BaseCost != 30 || a.InstrCost != 6 || a.CCPush != 3 {
		t.Errorf("sum wrong: %+v", a)
	}
	if a.MaxCCDepth != 7 {
		t.Errorf("MaxCCDepth = %d, want max 7", a.MaxCCDepth)
	}
	if got := a.AvgCCDepth(); got != 10.0/3.0 {
		t.Errorf("AvgCCDepth = %v", got)
	}
}

func TestDeterministicRng(t *testing.T) {
	run := func() int64 {
		bld := prog.NewBuilder()
		mainF := bld.Func("main")
		a := bld.Func("a")
		sa := bld.CallSite(mainF, a)
		bld.Body(mainF, func(x prog.Exec) {
			for i := 0; i < 100; i++ {
				if x.Rand().Float64() < 0.5 {
					x.Call(sa, prog.NoFunc)
				}
			}
		})
		bld.Leaf(a, 1)
		p := bld.MustBuild()
		m := New(p, NullScheme{}, Config{Seed: 99})
		rs, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rs.C.Calls
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced %d and %d calls", a, b)
	}
}

func TestSampleRetentionCap(t *testing.T) {
	bld := prog.NewBuilder()
	mainF := bld.Func("main")
	a := bld.Func("a")
	sa := bld.CallSite(mainF, a)
	bld.Body(mainF, func(x prog.Exec) {
		for i := 0; i < 1000; i++ {
			x.Call(sa, prog.NoFunc)
		}
	})
	bld.Leaf(a, 1)
	p := bld.MustBuild()
	m := New(p, NullScheme{}, Config{SampleEvery: 1, MaxSamplesPerThread: 25})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Samples) != 25 {
		t.Errorf("retained %d samples, want cap 25", len(rs.Samples))
	}
	if rs.C.Samples != 1000 {
		t.Errorf("sampled %d times, want 1000 (observer keeps firing past the cap)", rs.C.Samples)
	}
}

func TestWorkSafepointChunking(t *testing.T) {
	// A thread in a long Work must still park promptly for a stopper.
	bld := prog.NewBuilder()
	mainF := bld.Func("main")
	worker := bld.Func("worker")
	bld.ThreadRoot(worker)
	bld.Body(mainF, func(x prog.Exec) {
		x.Spawn(worker)
		th := x.(*Thread)
		th.Machine().StopTheWorld(th)
		th.Machine().ResumeTheWorld(th)
	})
	bld.Body(worker, func(x prog.Exec) {
		x.Work(100 << 20) // one huge call-free work block
	})
	p := bld.MustBuild()
	m := New(p, NullScheme{}, Config{})
	done := make(chan error, 1)
	go func() { _, err := m.Run(); done <- err }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stopper starved by call-free Work loop")
	}
}

func TestCallerAccessor(t *testing.T) {
	bld := prog.NewBuilder()
	mainF := bld.Func("main")
	a := bld.Func("a")
	sa := bld.CallSite(mainF, a)
	var got prog.FuncID = prog.NoFunc
	var rootCaller prog.FuncID
	bld.Body(mainF, func(x prog.Exec) {
		rootCaller = x.Caller()
		x.Call(sa, prog.NoFunc)
	})
	bld.Body(a, func(x prog.Exec) { got = x.Caller() })
	p := bld.MustBuild()
	m := New(p, NullScheme{}, Config{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got != mainF {
		t.Errorf("Caller() in a = %d, want main", got)
	}
	if rootCaller != prog.NoFunc {
		t.Errorf("Caller() at root = %d, want NoFunc", rootCaller)
	}
}
