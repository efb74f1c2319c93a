package workload

import (
	"testing"

	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/pcce"
)

// small returns a fast variant of a named profile for testing.
func small(t *testing.T, name string, calls int64) Profile {
	t.Helper()
	pr, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown profile %q", name)
	}
	pr.TotalCalls = calls
	return pr
}

func TestDeterministicGeneration(t *testing.T) {
	a := MustBuild(small(t, "429.mcf", 20_000))
	b := MustBuild(small(t, "429.mcf", 20_000))
	if a.P.NumFuncs() != b.P.NumFuncs() || a.P.NumSites() != b.P.NumSites() {
		t.Fatalf("generation not deterministic: %d/%d funcs, %d/%d sites",
			a.P.NumFuncs(), b.P.NumFuncs(), a.P.NumSites(), b.P.NumSites())
	}
	run := func(w *Workload) machine.Counters {
		m := w.NewMachine(machine.NullScheme{}, machine.Config{DropSamples: true})
		rs, err := m.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return rs.C
	}
	ca, cb := run(a), run(b)
	if ca.Calls != cb.Calls || ca.BaseCost != cb.BaseCost {
		t.Fatalf("runs not deterministic: %d/%d calls, %d/%d cost", ca.Calls, cb.Calls, ca.BaseCost, cb.BaseCost)
	}
	if ca.Calls < 18_000 {
		t.Errorf("run made %d calls, want ≈ 20000", ca.Calls)
	}
}

func TestProgramValidates(t *testing.T) {
	for _, name := range []string{"429.mcf", "401.bzip2", "445.gobmk", "x264", "blackscholes"} {
		w := MustBuild(small(t, name, 1000))
		if err := w.P.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestStructureApproximatesProfile(t *testing.T) {
	pr := small(t, "456.hmmer", 60_000)
	w := MustBuild(pr)
	d := core.New(w.P, core.Options{})
	m := w.NewMachine(d, machine.Config{SampleEvery: 64, DropSamples: true})
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	st := d.Stats()
	// The discovered dynamic graph should be in the ballpark of the
	// profile targets (generation is stochastic; runs may not reach
	// every generated edge).
	if st.Nodes < pr.ExecFuncs/2 || st.Nodes > pr.ExecFuncs*2 {
		t.Errorf("discovered %d nodes, profile targets %d", st.Nodes, pr.ExecFuncs)
	}
	if st.Edges < pr.ExecEdges/3 || st.Edges > pr.ExecEdges*2 {
		t.Errorf("discovered %d edges, profile targets %d", st.Edges, pr.ExecEdges)
	}
	// Static structure for PCCE must be much bigger than the dynamic.
	prof, err := w.CollectProfile()
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	ps := pcce.New(w.P, pcce.Profile(prof), pcce.Options{})
	if ps.Graph().NumNodes() <= st.Nodes {
		t.Errorf("static nodes %d not larger than dynamic %d", ps.Graph().NumNodes(), st.Nodes)
	}
	if ps.Graph().NumEdges() <= st.Edges {
		t.Errorf("static edges %d not larger than dynamic %d", ps.Graph().NumEdges(), st.Edges)
	}
}

// TestAllSamplesDecodeAcrossProfiles is the paper's cross-validation
// (§6.1) over a representative set of synthetic benchmarks: every
// DACCE sample must decode to the shadow stack, across re-encodings,
// recursion, indirect calls, tail calls, PLT and threads.
func TestAllSamplesDecodeAcrossProfiles(t *testing.T) {
	names := []string{
		"429.mcf",       // tiny
		"401.bzip2",     // small, some recursion
		"456.hmmer",     // mid
		"445.gobmk",     // recursion-heavy, many indirect targets
		"483.xalancbmk", // deep recursion, OO indirect
		"400.perlbench", // ccStack-heavy + lazy modules
		"x264",          // threads + many indirect targets + dlopen
		"dedup",         // threads, small
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			pr := small(t, name, 60_000)
			w := MustBuild(pr)
			d := core.New(w.P, core.Options{})
			m := w.NewMachine(d, machine.Config{SampleEvery: 37})
			rs, err := m.Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(rs.Samples) == 0 {
				t.Fatal("no samples")
			}
			spawnShadow := map[int][]machine.ShadowFrame{}
			for _, th := range m.Threads() {
				spawnShadow[th.ID()] = th.SpawnShadow
			}
			bad := 0
			for _, s := range rs.Samples {
				ctx, err := d.DecodeSample(s)
				if err != nil {
					t.Fatalf("thread %d sample %d: %v", s.Thread, s.Seq, err)
				}
				want := core.ShadowContext(spawnShadow[s.Thread], s.Shadow)
				if !ctx.Equal(want) {
					bad++
					if bad <= 3 {
						t.Errorf("thread %d sample %d: decoded %v want %v", s.Thread, s.Seq, ctx, want)
					}
				}
			}
			if bad > 0 {
				t.Fatalf("%d of %d samples mis-decoded", bad, len(rs.Samples))
			}
		})
	}
}

// TestPCCESamplesDecode cross-validates the PCCE baseline the same way
// on single-threaded profiles.
func TestPCCESamplesDecode(t *testing.T) {
	for _, name := range []string{"429.mcf", "456.hmmer", "445.gobmk"} {
		name := name
		t.Run(name, func(t *testing.T) {
			w := MustBuild(small(t, name, 40_000))
			prof, err := w.CollectProfile()
			if err != nil {
				t.Fatalf("profile: %v", err)
			}
			ps := pcce.New(w.P, pcce.Profile(prof), pcce.Options{})
			m := w.NewMachine(ps, machine.Config{SampleEvery: 53})
			rs, err := m.Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, s := range rs.Samples {
				ctx, err := ps.DecodeSample(s)
				if err != nil {
					t.Fatalf("sample %d: %v", s.Seq, err)
				}
				if want := core.ShadowContext(nil, s.Shadow); !ctx.Equal(want) {
					t.Fatalf("sample %d: decoded %v want %v", s.Seq, ctx, want)
				}
			}
		})
	}
}

// TestIncrementalDecodesOnBenchmarks runs DACCE, whose discovery passes
// renumber incrementally, over mixed-feature benchmarks and cross-validates every
// sample — recursion, compression, indirect hashes, tail calls, threads
// all interacting with partially-renumbered dictionaries.
func TestIncrementalDecodesOnBenchmarks(t *testing.T) {
	for _, name := range []string{"445.gobmk", "483.xalancbmk", "x264"} {
		name := name
		t.Run(name, func(t *testing.T) {
			pr := small(t, name, 60_000)
			w := MustBuild(pr)
			d := core.New(w.P, core.Options{})
			m := w.NewMachine(d, machine.Config{SampleEvery: 41})
			rs, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			spawnShadow := map[int][]machine.ShadowFrame{}
			for _, th := range m.Threads() {
				spawnShadow[th.ID()] = th.SpawnShadow
			}
			for _, s := range rs.Samples {
				ctx, err := d.DecodeSample(s)
				if err != nil {
					t.Fatalf("thread %d sample %d: %v", s.Thread, s.Seq, err)
				}
				want := core.ShadowContext(spawnShadow[s.Thread], s.Shadow)
				if !ctx.Equal(want) {
					t.Fatalf("thread %d sample %d: %v != %v", s.Thread, s.Seq, ctx, want)
				}
			}
			if d.Stats().IncrementalPasses == 0 {
				t.Log("no incremental passes used (all passes were full)")
			}
		})
	}
}

// TestAllProfilesBuildAndRun is the table-driven smoke over every one
// of the 41 Table 1 profiles: generation succeeds, the program
// validates, a short run completes under DACCE, and the static/dynamic
// graph ordering holds.
func TestAllProfilesBuildAndRun(t *testing.T) {
	for _, pr := range Profiles() {
		pr := pr
		t.Run(pr.Name, func(t *testing.T) {
			t.Parallel()
			pr.TotalCalls = 6_000
			w, err := Build(pr)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if err := w.P.Validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
			d := core.New(w.P, core.Options{})
			m := w.NewMachine(d, machine.Config{SampleEvery: 64, DropSamples: true})
			rs, err := m.Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if rs.C.Calls < 5_000 {
				t.Errorf("only %d calls executed", rs.C.Calls)
			}
			if rs.Threads != pr.Threads {
				t.Errorf("threads = %d, want %d", rs.Threads, pr.Threads)
			}
			st := d.Stats()
			if st.Nodes < 2 || st.Edges < 2 {
				t.Errorf("dynamic graph degenerate: %d nodes %d edges", st.Nodes, st.Edges)
			}
			if st.Nodes > pr.StaticFuncs {
				t.Errorf("discovered %d nodes exceeds static %d", st.Nodes, pr.StaticFuncs)
			}
		})
	}
}
