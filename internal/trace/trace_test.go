package trace

import (
	"testing"

	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/progtest"
	"dacce/internal/workload"
)

// record runs a program under the recorder.
func record(t *testing.T, p *prog.Program, cfg machine.Config) *Trace {
	t.Helper()
	r := NewRecorder()
	m := machine.New(p, r, cfg)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return r.Trace()
}

func TestRecordReplayIdentical(t *testing.T) {
	pr, _ := workload.ByName("456.hmmer")
	pr.TotalCalls = 20_000
	w := workload.MustBuild(pr)

	tr := record(t, w.P, machine.Config{Seed: pr.Seed + 1})
	if tr.NumEvents() == 0 {
		t.Fatal("empty trace")
	}

	rp, err := ReplayProgram(w.P, tr)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(rp, machine.NullScheme{}, machine.Config{})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The replay performs exactly the recorded calls.
	var wantCalls int64
	for _, s := range tr.Streams {
		for _, ev := range s {
			if ev.Kind == EvCall {
				wantCalls++
			}
		}
	}
	if rs.C.Calls != wantCalls {
		t.Errorf("replayed %d calls, recorded %d", rs.C.Calls, wantCalls)
	}
}

func TestReplayUnderDACCEDecodes(t *testing.T) {
	pr, _ := workload.ByName("445.gobmk")
	pr.TotalCalls = 15_000
	w := workload.MustBuild(pr)
	tr := record(t, w.P, machine.Config{Seed: pr.Seed + 1})

	rp, err := ReplayProgram(w.P, tr)
	if err != nil {
		t.Fatal(err)
	}
	d := core.New(rp, core.Options{})
	m := machine.New(rp, d, machine.Config{SampleEvery: 23})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Samples) == 0 {
		t.Fatal("no samples during replay")
	}
	for _, s := range rs.Samples {
		ctx, err := d.DecodeSample(s)
		if err != nil {
			t.Fatalf("sample %d: %v", s.Seq, err)
		}
		if want := core.ShadowContext(nil, s.Shadow); !ctx.Equal(want) {
			t.Errorf("sample %d: %v != %v", s.Seq, ctx, want)
		}
	}
}

func TestReplayTailCalls(t *testing.T) {
	fx, b := progtest.Fig7()
	p := b.MustBuild()
	fx.P = p
	sc := progtest.NewScript(p)
	sc.Root = []progtest.Call{
		progtest.By(fx.S("AC"), progtest.By(fx.S("CD"), progtest.By(fx.S("DF")))),
		progtest.By(fx.S("AB"), progtest.By(fx.S("BD"), progtest.By(fx.S("DE")))),
	}
	for _, f := range p.Funcs {
		f.Body = sc.Body()
	}
	tr := record(t, p, machine.Config{})

	rp, err := ReplayProgram(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	var deepest []machine.ShadowFrame
	d := core.New(rp, core.Options{})
	m := machine.New(rp, d, machine.Config{SampleEvery: 1})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rs.C.TailCalls != 1 {
		t.Errorf("replayed %d tail calls, want 1", rs.C.TailCalls)
	}
	for _, s := range rs.Samples {
		if len(s.Shadow) > len(deepest) {
			deepest = s.Shadow
		}
		ctx, err := d.DecodeSample(s)
		if err != nil {
			t.Fatalf("sample: %v", err)
		}
		if want := core.ShadowContext(nil, s.Shadow); !ctx.Equal(want) {
			t.Errorf("decoded %v != %v", ctx, want)
		}
	}
	// The deepest sampled context includes the tail-calling chain.
	if len(deepest) != 3 {
		t.Errorf("deepest replayed context %v, want depth 3 (A,C/B,D)", deepest)
	}
}

func TestReplayThreads(t *testing.T) {
	pr, _ := workload.ByName("dedup") // 4 threads
	pr.TotalCalls = 8_000
	w := workload.MustBuild(pr)
	tr := record(t, w.P, machine.Config{Seed: pr.Seed + 1})
	if tr.NumThreads() != 4 {
		t.Fatalf("recorded %d threads, want 4", tr.NumThreads())
	}
	rp, err := ReplayProgram(w.P, tr)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(rp, machine.NullScheme{}, machine.Config{})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Threads != 4 {
		t.Errorf("replayed %d threads, want 4", rs.Threads)
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	pr, _ := workload.ByName("429.mcf")
	w := workload.MustBuild(pr)
	if _, err := ReplayProgram(w.P, &Trace{}); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestReplayRejectsCorruptTrace(t *testing.T) {
	pr, _ := workload.ByName("429.mcf")
	w := MustBuildHelper(pr)
	bad := []*Trace{
		{Entries: []prog.FuncID{0}, Streams: [][]Event{{{Kind: EvCall, Site: 9999, Target: 0}}}},
		{Entries: []prog.FuncID{0}, Streams: [][]Event{{{Kind: EvCall, Site: 0, Target: -3}}}},
		{Entries: []prog.FuncID{9999}, Streams: [][]Event{{}}},
		{Entries: []prog.FuncID{0}, Streams: [][]Event{{{Kind: EvReturn}}}},
		{Entries: []prog.FuncID{0}, Streams: [][]Event{{{Kind: EventKind(99)}}}},
		{Entries: []prog.FuncID{0, 1}, Streams: [][]Event{{}}},
	}
	for i, tr := range bad {
		if _, err := ReplayProgram(w.P, tr); err == nil {
			t.Errorf("corrupt trace %d accepted", i)
		}
	}
}

// MustBuildHelper keeps the test import list tidy.
func MustBuildHelper(pr workload.Profile) *workload.Workload {
	pr.TotalCalls = 100
	return workload.MustBuild(pr)
}

func TestSyntheticWorkCharged(t *testing.T) {
	pr, _ := workload.ByName("429.mcf")
	pr.TotalCalls = 2_000
	w := workload.MustBuild(pr)
	tr := record(t, w.P, machine.Config{Seed: 1})
	rp, err := ReplayProgram(w.P, tr)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(rp, machine.NullScheme{}, machine.Config{})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rs.C.WorkUnits != 0 {
		t.Fatalf("replay without synthetic work charged %d units", rs.C.WorkUnits)
	}

	tr.SyntheticWork = 50
	rp2, err := ReplayProgram(w.P, tr)
	if err != nil {
		t.Fatal(err)
	}
	m2 := machine.New(rp2, machine.NullScheme{}, machine.Config{})
	rs2, err := m2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := 50 * rs2.C.Calls; rs2.C.WorkUnits != want {
		t.Fatalf("synthetic work = %d, want %d", rs2.C.WorkUnits, want)
	}
}
