package dacce_test

import (
	"encoding/json"
	"testing"

	"dacce"
	"dacce/internal/core"
)

// TestPublicAPIRoundTrip drives the documented public surface end to
// end: build, run, capture, decode.
func TestPublicAPIRoundTrip(t *testing.T) {
	b := dacce.NewBuilder()
	mainF := b.Func("main")
	f := b.Func("f")
	g := b.Func("g")
	sf := b.CallSite(mainF, f)
	sg := b.CallSite(f, g)

	var enc *dacce.Encoder
	var cap1 *dacce.Capture
	b.Body(mainF, func(x dacce.Exec) { x.Call(sf, dacce.NoFunc) })
	b.Body(f, func(x dacce.Exec) { x.Call(sg, dacce.NoFunc) })
	b.Body(g, func(x dacce.Exec) {
		cap1 = enc.CaptureTyped(x.(*dacce.Thread))
	})
	p := b.MustBuild()
	enc = dacce.NewEncoder(p, dacce.Options{})
	m := dacce.NewMachine(p, enc, dacce.MachineConfig{})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rs.C.Calls != 2 {
		t.Errorf("calls = %d", rs.C.Calls)
	}
	ctx, err := enc.Decode(cap1)
	if err != nil {
		t.Fatal(err)
	}
	if got := ctx.Pretty(p); got != "main → f → g" {
		t.Errorf("decoded %q", got)
	}
	if st := enc.Stats(); st.Nodes != 3 || st.Edges != 2 {
		t.Errorf("graph = %d/%d", st.Nodes, st.Edges)
	}
}

// TestBaselinesRunViaPublicAPI exercises every exported baseline on a
// benchmark workload.
func TestBaselinesRunViaPublicAPI(t *testing.T) {
	pr, ok := dacce.BenchmarkByName("429.mcf")
	if !ok {
		t.Fatal("benchmark missing")
	}
	pr.TotalCalls = 5000
	w, err := dacce.BuildWorkload(pr)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []dacce.Scheme{
		dacce.NullScheme{},
		dacce.NewStackWalk(),
		dacce.NewCCT(),
		dacce.NewPCC(),
		dacce.NewEncoder(w.P, dacce.Options{}),
	}
	for _, s := range schemes {
		m := dacce.NewMachine(w.P, s, dacce.MachineConfig{Seed: 3, DropSamples: true})
		if _, err := m.Run(); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestBenchmarksListComplete(t *testing.T) {
	all := dacce.Benchmarks()
	if len(all) != 41 {
		t.Fatalf("Benchmarks() lists %d profiles, want 41 (Table 1)", len(all))
	}
	seen := map[string]bool{}
	for _, pr := range all {
		if seen[pr.Name] {
			t.Errorf("duplicate profile %q", pr.Name)
		}
		seen[pr.Name] = true
		if pr.Suite == "" || pr.StaticFuncs == 0 {
			t.Errorf("profile %q incomplete", pr.Name)
		}
	}
	for _, name := range []string{"400.perlbench", "483.xalancbmk", "x264", "streamcluster"} {
		if !seen[name] {
			t.Errorf("missing benchmark %q", name)
		}
	}
}

// TestDumpRoundTrip checks the offline decode pipeline `daccerun
// -dump` feeds: marshal the encoder snapshot, reload it as a fresh
// standalone decoder, and decode JSON-serialized captures exactly as the
// live encoder does.
func TestDumpRoundTrip(t *testing.T) {
	pr, _ := dacce.BenchmarkByName("456.hmmer")
	pr.TotalCalls = 30_000
	w, err := dacce.BuildWorkload(pr)
	if err != nil {
		t.Fatal(err)
	}
	enc := dacce.NewEncoder(w.P, dacce.Options{})
	m := dacce.NewMachine(w.P, enc, dacce.MachineConfig{SampleEvery: 97, Seed: pr.Seed + 1})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Samples) == 0 {
		t.Fatal("no samples")
	}

	data, err := dacce.MarshalState(enc.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	st, err := dacce.UnmarshalState(data)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := st.NewDecoder()
	if err != nil {
		t.Fatal(err)
	}

	for i, s := range rs.Samples {
		c := s.Capture.(*dacce.Capture)
		// Serialize the capture itself too, as daccerun -dump does.
		raw, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var c2 dacce.Capture
		if err := json.Unmarshal(raw, &c2); err != nil {
			t.Fatal(err)
		}

		want, err := enc.Decode(c)
		if err != nil {
			t.Fatalf("sample %d: live decode: %v", i, err)
		}
		got, err := dec.Decode(&c2)
		if err != nil {
			t.Fatalf("sample %d: offline decode: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("sample %d: offline %v != live %v", i, got, want)
		}
	}
}

// TestCaptureFingerprint checks dedup semantics: equal contexts agree,
// different contexts (almost surely) differ.
func TestCaptureFingerprint(t *testing.T) {
	a := &core.Capture{Epoch: 1, ID: 5, Fn: 2, Root: 0}
	b := &core.Capture{Epoch: 1, ID: 5, Fn: 2, Root: 0}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equal captures disagree")
	}
	c := &core.Capture{Epoch: 1, ID: 6, Fn: 2, Root: 0}
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different ids collide")
	}
	d := &core.Capture{Epoch: 1, ID: 5, Fn: 2, Root: 0,
		CC: []core.CCEntry{{ID: 1, Site: 3, Target: 4}}}
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("ccStack ignored")
	}
	e := &core.Capture{Epoch: 1, ID: 5, Fn: 2, Root: 0, Spawn: a}
	if a.Fingerprint() == e.Fingerprint() {
		t.Error("spawn chain ignored")
	}
}
