package experiments

import (
	"fmt"
	"sort"
	"testing"

	"dacce/internal/core"
	"dacce/internal/graph"
	"dacce/internal/machine"
	"dacce/internal/persist"
	"dacce/internal/workload"
)

// coldRun executes the profile's workload on a fresh encoder and
// returns the warmed encoder and run stats.
func coldRun(t *testing.T, pr workload.Profile) (*core.DACCE, *workload.Workload, *machine.RunStats) {
	t.Helper()
	w, err := workload.Build(pr)
	if err != nil {
		t.Fatal(err)
	}
	d := core.New(w.P, core.Options{})
	m := w.NewMachine(d, machine.Config{SampleEvery: 31})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return d, w, rs
}

// sortKeys orders edge keys by (site, target).
func sortKeys(keys []graph.EdgeKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Site != keys[j].Site {
			return keys[i].Site < keys[j].Site
		}
		return keys[i].Target < keys[j].Target
	})
}

// edgeSet returns the graph's registered edge keys, sorted.
func edgeSet(g *graph.Graph) []graph.EdgeKey {
	keys := make([]graph.EdgeKey, 0, len(g.Edges))
	for _, e := range g.Edges {
		keys = append(keys, graph.EdgeKey{Site: e.Site, Target: e.Target})
	}
	sortKeys(keys)
	return keys
}

// diffColdStart checks a cold run's discoveries against ground truth:
// the workload's executed edge set, taken from an edge-counting
// profiling run under the same machine seed, which no DACCE path
// touches. Both the registered graph and the discovered-edge counter
// must match it exactly. Returns a description of the first mismatch,
// or "" when they agree. No dictionary is compared: a canonical
// encoding is a function of the edge set and the roots, and
// TestConcurrentColdStart's sample-vs-shadow decodes cover the roots.
func diffColdStart(t *testing.T, d *core.DACCE, w *workload.Workload) string {
	t.Helper()
	prof, err := w.CollectProfile()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]graph.EdgeKey, 0, len(prof))
	for k := range prof {
		want = append(want, k)
	}
	sortKeys(want)
	got := edgeSet(d.Graph())
	if len(got) != len(want) {
		return fmt.Sprintf("edge sets differ: discovered %d edges, executed %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("edge sets differ at %d: discovered %v, executed %v", i, got[i], want[i])
		}
	}
	if n := d.Stats().EdgesDiscovered; n != len(want) {
		return fmt.Sprintf("discovered-edge counter = %d, executed edges = %d", n, len(want))
	}
	return ""
}

// warmupProfile is the synthetic cold-start workload for n threads: a
// wide, edge-dense executed core so the first thousands of calls are
// almost all first invocations, and a thick indirect-site population
// whose per-site rebuilds keep the handler's site shards busy. The
// per-thread call budget is deliberately small —
// the test exercises the discovery burst, not the steady state after
// it.
func warmupProfile(n int, callsPerThread int64) workload.Profile {
	return workload.Profile{
		Name:          fmt.Sprintf("warmup-%dt", n),
		Seed:          0xC0DD,
		ExecFuncs:     520,
		ExecEdges:     2_600,
		Layers:        12,
		IndirectSites: 48,
		ActualTargets: 6,
		RecSites:      2,
		RecProb:       0.3,
		RecStartProb:  0.05,
		Threads:       n,
		TotalCalls:    callsPerThread * int64(n),
		Phases:        1,
	}
}

// TestConcurrentColdStart is the cold-start correctness gate: four
// goroutine threads trap the same cold graph through the sharded
// discovery path (run under -race in CI), and the final graph must hold
// exactly the workload's executed edges. The run's samples must decode
// against the machine's shadow stacks, and a warm start from its
// snapshot must replay the identical workload with zero handler traps.
func TestConcurrentColdStart(t *testing.T) {
	pr := warmupProfile(4, 6_000)
	pr.Name = "coldstart-race"
	d, w, rs := coldRun(t, pr)
	if msg := diffColdStart(t, d, w); msg != "" {
		t.Fatal(msg)
	}
	if rs.C.HandlerTraps == 0 {
		t.Fatal("cold run executed no handler traps; the test exercised nothing")
	}
	if len(rs.Samples) == 0 {
		t.Fatal("no samples retained")
	}
	for i, s := range rs.Samples {
		ctx, err := d.DecodeSample(s)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if len(ctx) < len(s.Shadow) {
			t.Fatalf("sample %d: decode has %d frames, shadow %d", i, len(ctx), len(s.Shadow))
		}
		local := ctx[len(ctx)-len(s.Shadow):]
		for j, f := range s.Shadow {
			if local[j].Fn != f.Fn {
				t.Fatalf("sample %d frame %d: decoded f%d, shadow f%d", i, j, local[j].Fn, f.Fn)
			}
		}
	}

	// Warm-start replay through the persistence codec: the sharded
	// structures must export deterministically enough to re-patch every
	// site before first touch.
	data, err := persist.Marshal(d.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	st, err := persist.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := workload.Build(pr)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := core.Restore(w2.P, core.Options{}, st)
	if err != nil {
		t.Fatal(err)
	}
	m := w2.NewMachine(d2, machine.Config{SampleEvery: 31, DropSamples: true})
	rs2, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rs2.C.HandlerTraps != 0 {
		t.Fatalf("warm-started replay executed %d handler traps, want 0", rs2.C.HandlerTraps)
	}
}

// sweepProfile derives a small per-seed cold-start workload: varied
// shape (fan-out, indirect sites, recursion, 2–4 threads) but a budget
// small enough that a thousand seeds stay testable under -race.
func sweepProfile(seed uint64) workload.Profile {
	threads := 2 + int(seed%3)
	return workload.Profile{
		Name:          fmt.Sprintf("coldsweep-%d", seed),
		Seed:          seed*0x9E3779B97F4A7C15 + 1,
		ExecFuncs:     28 + int(seed%5)*8,
		ExecEdges:     60 + int(seed%7)*20,
		Layers:        5 + int(seed%4),
		IndirectSites: int(seed % 4),
		ActualTargets: 2 + int(seed%2),
		RecSites:      int(seed % 3),
		RecProb:       0.25,
		RecStartProb:  0.05,
		Threads:       threads,
		TotalCalls:    2_000 * int64(threads),
		Phases:        1,
	}
}

// TestColdStartSeedSweep is the cold-start differential sweep: a
// thousand seeded workload shapes, each discovered cold by concurrent
// threads, must register exactly the executed edge set with zero
// divergences. -short runs a spot-check slice.
func TestColdStartSeedSweep(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 50
	}
	divergences := 0
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		d, w, _ := coldRun(t, sweepProfile(seed))
		if msg := diffColdStart(t, d, w); msg != "" {
			divergences++
			t.Errorf("seed %d: %s", seed, msg)
			if divergences >= 5 {
				t.Fatalf("%d divergences; stopping the sweep early", divergences)
			}
		}
	}
	if divergences != 0 {
		t.Fatalf("differential sweep: %d of %d seeds diverged", divergences, seeds)
	}
}
