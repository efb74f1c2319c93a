package ccprof

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dacce/internal/ccdag"
	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/workload"
)

// flatten maps every node path (site/fn pairs root-first) to its
// inclusive and exclusive counts, for structural profile comparison.
func flatten(pr *Profile) map[string][2]int64 {
	out := map[string][2]int64{}
	var rec func(n *Node, path string)
	rec = func(n *Node, path string) {
		path = path + fmt.Sprintf("/(%d,%d)", n.Site, n.Fn)
		out[path] = [2]int64{n.Inclusive, n.Exclusive}
		for _, c := range n.Children {
			rec(c, path)
		}
	}
	rec(pr.root, "")
	return out
}

func sameProfile(t *testing.T, got, want *Profile) {
	t.Helper()
	if got.Total() != want.Total() {
		t.Fatalf("total %d != %d", got.Total(), want.Total())
	}
	g, w := flatten(got), flatten(want)
	if len(g) != len(w) {
		t.Fatalf("node count %d != %d", len(g), len(w))
	}
	for path, counts := range w {
		if g[path] != counts {
			t.Fatalf("node %s: got %v want %v", path, g[path], counts)
		}
	}
}

// TestStreamingMatchesOffline is the merge-order property test: contexts
// observed concurrently from many threads, in arbitrary per-thread
// orders with merges racing the observation, must aggregate to exactly
// the profile an offline single-threaded Add-per-context build yields.
// Run under -race this also proves the merge locking.
func TestStreamingMatchesOffline(t *testing.T) {
	p, ctxA, ctxB, ctxC := tiny(t)
	contexts := []core.Context{ctxA, ctxB, ctxC}

	const threads = 8
	const perThread = 500
	rng := rand.New(rand.NewSource(1))
	// Pre-assign every observation so the offline reference sees the
	// same multiset regardless of scheduling.
	plan := make([][]core.Context, threads)
	offline := New(p)
	for th := 0; th < threads; th++ {
		for i := 0; i < perThread; i++ {
			ctx := contexts[rng.Intn(len(contexts))]
			plan[th] = append(plan[th], ctx)
			if err := offline.Add(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}

	s := NewStreaming(p)
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i, ctx := range plan[th] {
				s.ObserveContext(th, ctx)
				if i%97 == 0 {
					// Merges racing observation must not lose or double
					// counts.
					s.Total()
				}
			}
		}(th)
	}
	wg.Wait()

	if got := s.Total(); got != threads*perThread {
		t.Fatalf("total %d, want %d observations", got, threads*perThread)
	}
	sameProfile(t, s.Profile(), offline)
	// A second snapshot (everything already merged) must be identical.
	sameProfile(t, s.Profile(), offline)
}

// TestStreamingNodeModeMatchesOffline is the node-mode twin of the
// merge-order property test: the same observation plan delivered as
// interned DAG nodes through ObserveContextNode, with merges racing the
// observers, must aggregate to exactly the offline Add-per-context
// profile. This pins the node→materialize→addN merge path to the slice
// path's semantics.
func TestStreamingNodeModeMatchesOffline(t *testing.T) {
	p, ctxA, ctxB, ctxC := tiny(t)
	contexts := []core.Context{ctxA, ctxB, ctxC}

	dag := ccdag.New()
	nodes := make([]*ccdag.Node, len(contexts))
	for i, ctx := range contexts {
		var n *ccdag.Node
		for _, f := range ctx {
			n = dag.Intern(n, f.Site, f.Fn)
		}
		nodes[i] = n
	}

	const threads = 8
	const perThread = 500
	rng := rand.New(rand.NewSource(2))
	plan := make([][]int, threads)
	offline := New(p)
	for th := 0; th < threads; th++ {
		for i := 0; i < perThread; i++ {
			k := rng.Intn(len(contexts))
			plan[th] = append(plan[th], k)
			if err := offline.Add(contexts[k]); err != nil {
				t.Fatal(err)
			}
		}
	}

	s := NewStreaming(p)
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i, k := range plan[th] {
				s.ObserveContextNode(th, nodes[k])
				if i%89 == 0 {
					s.Total()
				}
			}
		}(th)
	}
	wg.Wait()

	if got := s.Total(); got != threads*perThread {
		t.Fatalf("total %d, want %d observations", got, threads*perThread)
	}
	sameProfile(t, s.Profile(), offline)
	sameProfile(t, s.Profile(), offline)

	// Node and slice modes can coexist across merges: more slice-mode
	// observations on top must still match the offline reference.
	s.ObserveContext(0, ctxA)
	s.ObserveContextNode(1, nodes[1])
	offline.Add(ctxA)
	offline.Add(ctxB)
	sameProfile(t, s.Profile(), offline)
}

// TestStreamingNodeModeIgnoresInvalid: nil nodes and negative thread
// ids are dropped, not crashed on.
func TestStreamingNodeModeIgnoresInvalid(t *testing.T) {
	p, ctxA, _, _ := tiny(t)
	dag := ccdag.New()
	var n *ccdag.Node
	for _, f := range ctxA {
		n = dag.Intern(n, f.Site, f.Fn)
	}
	s := NewStreaming(p)
	s.ObserveContextNode(0, nil)
	s.ObserveContextNode(-1, n)
	if got := s.Total(); got != 0 {
		t.Fatalf("invalid observations counted: total=%d", got)
	}
}

// TestStreamingDrainKeepsNodes verifies the steady-state contract:
// after a merge, counts continue accumulating correctly from zeroed
// (but retained) shard nodes.
func TestStreamingDrainKeepsNodes(t *testing.T) {
	p, ctxA, _, ctxC := tiny(t)
	s := NewStreaming(p)
	s.ObserveContext(0, ctxA)
	if s.Total() != 1 {
		t.Fatalf("total after first merge = %d", s.Total())
	}
	s.ObserveContext(0, ctxA)
	s.ObserveContext(0, ctxC)
	pr := s.Profile()
	if pr.Total() != 3 {
		t.Fatalf("total = %d, want 3", pr.Total())
	}
	want := New(p)
	want.Add(ctxA)
	want.Add(ctxA)
	want.Add(ctxC)
	sameProfile(t, pr, want)
}

// TestStreamingSnapshotIsolated proves Profile() returns a deep copy:
// mutating the snapshot or observing more contexts leaves the other
// side untouched.
func TestStreamingSnapshotIsolated(t *testing.T) {
	p, ctxA, ctxB, _ := tiny(t)
	s := NewStreaming(p)
	s.ObserveContext(0, ctxA)
	snap := s.Profile()
	s.ObserveContext(0, ctxB)
	if snap.Total() != 1 {
		t.Fatalf("snapshot total mutated to %d", snap.Total())
	}
	snap.Add(ctxB)
	snap.Add(ctxB)
	if got := s.Total(); got != 2 {
		t.Fatalf("live total %d, want 2 (snapshot Adds leaked)", got)
	}
}

// TestStreamingIgnoresInvalid: empty contexts and negative thread ids
// are dropped, not crashed on.
func TestStreamingIgnoresInvalid(t *testing.T) {
	p, ctxA, _, _ := tiny(t)
	s := NewStreaming(p)
	s.ObserveContext(0, nil)
	s.ObserveContext(-1, ctxA)
	if got := s.Total(); got != 0 {
		t.Fatalf("invalid observations counted: total=%d", got)
	}
}

// TestFoldedRoundTrip: WriteFolded → ParseFolded preserves inclusive
// and exclusive counts aggregated by function path (sites are lost by
// the format, by design).
func TestFoldedRoundTrip(t *testing.T) {
	wpr, _ := workload.ByName("456.hmmer")
	wpr.TotalCalls = 20_000
	w := workload.MustBuild(wpr)
	d := core.New(w.P, core.Options{})
	m := w.NewMachine(d, machine.Config{SampleEvery: 13})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	pr := New(w.P)
	for _, s := range rs.Samples {
		ctx, err := d.DecodeSample(s)
		if err != nil {
			t.Fatal(err)
		}
		pr.Add(ctx)
	}

	var buf bytes.Buffer
	if err := pr.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	folded := buf.String()
	back, err := ParseFolded(w.P, strings.NewReader(folded))
	if err != nil {
		t.Fatal(err)
	}
	if back.Total() != pr.Total() {
		t.Fatalf("round-trip total %d != %d", back.Total(), pr.Total())
	}
	// Inclusive counts by function-name path must survive exactly. The
	// reconstructed profile holds NoSite frames, so compare by name
	// path, not by (site,fn) path.
	if got, want := foldedInclusive(back), foldedInclusive(pr); len(got) != len(want) {
		t.Fatalf("fn-path count %d != %d", len(got), len(want))
	} else {
		for path, n := range want {
			if got[path] != n {
				t.Fatalf("path %q: inclusive %d != %d", path, got[path], n)
			}
		}
	}
	// And a second serialization is byte-identical (deterministic).
	var buf2 bytes.Buffer
	if err := back.WriteFolded(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != folded {
		t.Fatal("folded output not stable across a round-trip")
	}
}

// foldedInclusive aggregates inclusive counts by function-name path —
// the invariant the folded format preserves.
func foldedInclusive(pr *Profile) map[string]int64 {
	out := map[string]int64{}
	var rec func(n *Node, path string)
	rec = func(n *Node, path string) {
		name := pr.funcName(n.Fn)
		if path == "" {
			path = name
		} else {
			path = path + ";" + name
		}
		out[path] += n.Inclusive
		for _, c := range n.Children {
			rec(c, path)
		}
	}
	rec(pr.root, "")
	return out
}

func TestParseFoldedErrors(t *testing.T) {
	p, _, _, _ := tiny(t)
	for _, bad := range []string{
		"main;a",         // no count
		"main;a notanum", // bad count
		"main;a -3",      // negative count
		"main;ghost 4",   // unknown function
	} {
		if _, err := ParseFolded(p, strings.NewReader(bad)); err == nil {
			t.Errorf("ParseFolded accepted %q", bad)
		}
	}
	// Blank lines and comments are fine.
	pr, err := ParseFolded(p, strings.NewReader("\n# comment\nmain;a 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if pr.Total() != 2 {
		t.Fatalf("total %d", pr.Total())
	}
}

// tinyProfile aggregates tiny's three contexts with weights 6, 3 and 1.
func tinyProfile(t *testing.T) (*prog.Program, *Profile) {
	p, ctxA, ctxB, ctxC := tiny(t)
	pr := New(p)
	for i := 0; i < 6; i++ {
		pr.Add(ctxA)
	}
	for i := 0; i < 3; i++ {
		pr.Add(ctxB)
	}
	pr.Add(ctxC)
	return p, pr
}

// TestWritePprof checks the hand-encoded protobuf: gzipped, parseable,
// sample count equal to the number of distinct contexts and value sum
// equal to the profile total.
func TestWritePprof(t *testing.T) {
	_, pr := tinyProfile(t)
	var buf bytes.Buffer
	if err := pr.WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	if b := buf.Bytes(); len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatal("pprof output not gzipped")
	}
	samples, total, err := PprofTotals(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if samples != pr.NumContexts() {
		t.Errorf("samples = %d, want %d", samples, pr.NumContexts())
	}
	if total != pr.Total() {
		t.Errorf("value sum = %d, want %d", total, pr.Total())
	}
}

func TestPprofTotalsRejectsGarbage(t *testing.T) {
	if _, _, err := PprofTotals(strings.NewReader("not a profile")); err == nil {
		t.Error("garbage accepted")
	}
}

// TestWriteFileBySuffix checks WriteFile's format rule: a .folded name
// gets folded text, any other name gzipped pprof. Each file is read
// back as the format its name selects and must carry the profile's
// total (neither reader accepts the other format).
func TestWriteFileBySuffix(t *testing.T) {
	p, pr := tinyProfile(t)
	dir := t.TempDir()
	foldedPath := filepath.Join(dir, "x.folded")
	pprofPath := filepath.Join(dir, "x.pb.gz")
	for _, path := range []string{foldedPath, pprofPath} {
		if err := pr.WriteFile(path); err != nil {
			t.Fatal(err)
		}
	}
	folded, err := os.ReadFile(foldedPath)
	if err != nil {
		t.Fatal(err)
	}
	gz, err := os.ReadFile(pprofPath)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseFolded(p, bytes.NewReader(folded))
	if err != nil {
		t.Fatalf("x.folded is not folded text: %v", err)
	}
	_, total, err := PprofTotals(bytes.NewReader(gz))
	if err != nil {
		t.Fatalf("x.pb.gz is not a pprof profile: %v", err)
	}
	if back.Total() != pr.Total() || total != pr.Total() {
		t.Fatalf("totals: folded %d, pprof %d, want %d", back.Total(), total, pr.Total())
	}
}

// TestStreamingHandler exercises the /debug/ccprof formats end to end.
func TestStreamingHandler(t *testing.T) {
	p, ctxA, ctxB, _ := tiny(t)
	s := NewStreaming(p)
	for i := 0; i < 4; i++ {
		s.ObserveContext(0, ctxA)
	}
	s.ObserveContext(1, ctxB)
	h := s.Handler()

	// Default: pprof protobuf.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/ccprof", nil))
	samples, total, err := PprofTotals(rec.Body)
	if err != nil {
		t.Fatalf("default format: %v", err)
	}
	if samples != 2 || total != 5 {
		t.Errorf("pprof: samples=%d total=%d, want 2/5", samples, total)
	}

	// Folded.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/ccprof?format=folded", nil))
	folded := rec.Body.String()
	if !strings.Contains(folded, "main;a 4") {
		t.Errorf("folded output missing main;a 4:\n%s", folded)
	}
	back, err := ParseFolded(p, strings.NewReader(folded))
	if err != nil {
		t.Fatal(err)
	}
	if back.Total() != 5 {
		t.Errorf("folded round-trip total %d", back.Total())
	}

	// Tree.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/ccprof?format=tree", nil))
	if !strings.Contains(rec.Body.String(), "main") {
		t.Errorf("tree output: %q", rec.Body.String())
	}
}

// TestSamplerProfileMatchesOffline checks the sampler hand-off's
// delivery invariant at one and at four machine threads: after a run
// that retains every sample, the streaming profile equals an offline
// profile of the thread-local contexts the encoder's sampler decodes
// (each sample's shadow stack, which its decode reproduces), so every
// sample reached the observer exactly once.
func TestSamplerProfileMatchesOffline(t *testing.T) {
	for _, threads := range []int{1, 4} {
		wpr, _ := workload.ByName("456.hmmer")
		wpr.TotalCalls = 60_000
		wpr.Threads = threads
		w := workload.MustBuild(wpr)
		s := NewStreaming(w.P)
		d := core.New(w.P, core.Options{ContextObserver: s})
		rs, err := w.NewMachine(d, machine.Config{SampleEvery: 5}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(rs.Samples)) != rs.C.Samples || rs.Threads != threads {
			t.Fatalf("%d threads: %d of %d samples retained, %d threads ran", threads, len(rs.Samples), rs.C.Samples, rs.Threads)
		}
		offline := New(w.P)
		for _, smp := range rs.Samples {
			if err := offline.Add(core.ShadowContext(nil, smp.Shadow)); err != nil {
				t.Fatal(err)
			}
		}
		sameProfile(t, s.Profile(), offline)
	}
}

// TestStreamingFromLiveRun attaches the profiler as the DACCE context
// observer on a real machine run and checks the live aggregate matches
// the offline profile built from the run's recorded samples.
func TestStreamingFromLiveRun(t *testing.T) {
	wpr, _ := workload.ByName("456.hmmer")
	wpr.TotalCalls = 30_000
	w := workload.MustBuild(wpr)
	s := NewStreaming(w.P)
	d := core.New(w.P, core.Options{ContextObserver: s})
	m := w.NewMachine(d, machine.Config{SampleEvery: 17})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Total(); got == 0 || got != int64(len(rs.Samples)) {
		t.Fatalf("streaming profiler total %d, want one observation per sample (%d)", got, len(rs.Samples))
	}
	offline := New(w.P)
	for _, smp := range rs.Samples {
		ctx, err := d.DecodeSample(smp)
		if err != nil {
			t.Fatal(err)
		}
		offline.Add(ctx)
	}
	sameProfile(t, s.Profile(), offline)
}
