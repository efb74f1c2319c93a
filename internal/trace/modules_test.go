package trace

import (
	"testing"

	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/workload"
)

// modProg builds a program whose main churns a lazy module.
func modProg(t *testing.T) (*prog.Program, prog.ModuleID) {
	t.Helper()
	b := prog.NewBuilder()
	mod := b.Module("plugin.so", true)
	mainF := b.Func("main")
	inMod := b.FuncIn("plugfn", mod)
	gate := b.CallSite(mainF, inMod)
	b.Leaf(inMod, 1)
	b.Body(mainF, func(x prog.Exec) {
		for i := 0; i < 4; i++ {
			x.LoadModule(mod)
			x.Call(gate, prog.NoFunc)
			x.UnloadModule(mod)
		}
	})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p, mod
}

// TestTraceRecordsModuleEvents checks that the recorder captures module
// load/unload transitions in stream order, with one thread ident per
// stream, and that a replay reproduces the exact lifecycle, counters
// included.
func TestTraceRecordsModuleEvents(t *testing.T) {
	p, _ := modProg(t)
	tr := record(t, p, machine.Config{})
	if len(tr.Idents) != len(tr.Streams) {
		t.Fatalf("recorder filled %d idents for %d streams", len(tr.Idents), len(tr.Streams))
	}

	loads, unloads := 0, 0
	for _, s := range tr.Streams {
		for _, ev := range s {
			switch ev.Kind {
			case EvModLoad:
				loads++
			case EvModUnload:
				unloads++
			}
		}
	}
	if loads != 4 || unloads != 4 {
		t.Fatalf("trace has %d loads, %d unloads, want 4/4", loads, unloads)
	}

	rp, err := ReplayProgram(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := machine.New(rp, machine.NullScheme{}, machine.Config{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rs.C.ModuleLoads != 4 || rs.C.ModuleUnloads != 4 {
		t.Errorf("replay performed %d loads, %d unloads, want 4/4", rs.C.ModuleLoads, rs.C.ModuleUnloads)
	}
}

// TestReplayRejectsBadModuleEvents checks ReplayProgram's validation of
// fuzzed module events: out-of-range ids and unloads of eager modules.
func TestReplayRejectsBadModuleEvents(t *testing.T) {
	p, _ := modProg(t)
	tr := record(t, p, machine.Config{})

	bad := &Trace{Streams: [][]Event{{{Kind: EvModLoad, Target: 99}}}, Entries: tr.Entries[:1]}
	if _, err := ReplayProgram(p, bad); err == nil {
		t.Error("out-of-range module id accepted")
	}
	// Module 0 is the eager main module: unloading it must be rejected.
	bad = &Trace{Streams: [][]Event{{{Kind: EvModUnload, Target: 0}}}, Entries: tr.Entries[:1]}
	if _, err := ReplayProgram(p, bad); err == nil {
		t.Error("unload of eager module accepted")
	}
}

// TestReplayMatchesThreadsByIdent runs a spawn-churn workload whose
// numeric thread ids are scheduling-dependent and checks the replay
// still pairs every live thread with its recorded stream (replayed
// call count equals recorded call count).
func TestReplayMatchesThreadsByIdent(t *testing.T) {
	pr := workload.RandomProfile(11, 40, 30, 20, 2)
	pr.Name = "ident-match"
	pr.Threads = 3
	pr.SpawnChurn = 16
	pr.SpawnRate = 0.1
	w := workload.MustBuild(pr)

	tr := record(t, w.P, machine.Config{Seed: pr.Seed + 1})
	if len(tr.Idents) != len(tr.Streams) {
		t.Fatalf("%d idents for %d streams", len(tr.Idents), len(tr.Streams))
	}
	seen := make(map[uint64]bool, len(tr.Idents))
	for _, id := range tr.Idents {
		if seen[id] {
			t.Fatalf("duplicate ident %#x in trace", id)
		}
		seen[id] = true
	}

	rp, err := ReplayProgram(w.P, tr)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := machine.New(rp, machine.NullScheme{}, machine.Config{}).Run()
	if err != nil {
		t.Fatal(err)
	}
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
	if rs.Threads != len(tr.Streams) {
		t.Errorf("replay ran %d threads, trace has %d streams", rs.Threads, len(tr.Streams))
	}
}
