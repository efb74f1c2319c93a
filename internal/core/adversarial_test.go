package core

import (
	"slices"
	"testing"

	"dacce/internal/machine"
	"dacce/internal/workload"
)

// The adversarial gates push three mechanisms the paper singles out far
// past the regimes the Table 1 profiles reach: Fig. 5e's recursion
// compression, Fig. 4's inline-chain-vs-hash dispatch choice, and
// §5.1's dlopen lifecycle under a thread-spawn storm.

// TestRecursionTortureDecodes runs the recursion-torture family to
// depth 20000 and decodes at most 400 of its sampled captures, evenly
// strided, against the shadow stack: every one must decode, to exactly
// the shadow's context. The run's passes all come as its edges are
// discovered, before the self-recursive back edge has pushed even 16
// times, so with the default CompressMinPushes of 128 no capture would
// carry a Fig. 5e repetition count; a threshold of 1 lets those passes
// compress the back edge, and the captures after them carry counted
// entries the decoder must expand, beside the uncompressed ccStacks
// taken before.
func TestRecursionTortureDecodes(t *testing.T) {
	const depth, maxDecodes = 20_000, 400
	w, err := workload.Build(workload.Profile{
		Name:         "adv-torture",
		Seed:         0xADE3,
		ExecFuncs:    12,
		Layers:       3,
		Threads:      1,
		TotalCalls:   6 * depth,
		Phases:       1,
		TortureDepth: depth,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := New(w.P, Options{CompressMinPushes: 1})
	rs, err := w.NewMachine(d, machine.Config{SampleEvery: 64}).Run()
	if err != nil {
		t.Fatal(err)
	}
	stride := (len(rs.Samples) + maxDecodes - 1) / maxDecodes
	decodes, deepest, ccMax, counted := 0, 0, 0, 0
	for i := 0; i < len(rs.Samples); i += stride {
		s := rs.Samples[i]
		c := s.Capture.(*Capture)
		ctx, err := d.Decode(c)
		if err != nil {
			t.Fatalf("sample %d (depth %d): %v", i, len(s.Shadow), err)
		}
		if msg := DiffContexts(ctx, ShadowContext(nil, s.Shadow)); msg != "" {
			t.Fatalf("sample %d (depth %d): %s", i, len(s.Shadow), msg)
		}
		decodes++
		deepest = max(deepest, len(s.Shadow))
		ccMax = max(ccMax, len(c.CC))
		if slices.ContainsFunc(c.CC, func(e CCEntry) bool { return e.Count > 0 }) {
			counted++
		}
	}
	t.Logf("%d decodes, deepest %d frames, ccStack max %d, %d with counted entries", decodes, deepest, ccMax, counted)
	if deepest < depth/2 {
		t.Fatalf("deepest decoded context has %d frames; the torture never reached depth %d", deepest, depth)
	}
	if counted == 0 {
		t.Fatal("no decoded capture carries a compressed repetition; Fig. 5e expansion went unchecked")
	}
}

// TestMegaIndirectCrossover runs mega-indirect dispatch with the inline
// compare chain forced and with hash dispatch forced: in the modeled
// instrumentation cost per call the chain must win at 2 targets and
// lose at 64, the crossover of Fig. 4.
func TestMegaIndirectCrossover(t *testing.T) {
	costPerCall := func(targets, inlineThreshold int) float64 {
		w, err := workload.Build(workload.Profile{
			Name:        "adv-crossover",
			Seed:        0xADE1,
			ExecFuncs:   12,
			Layers:      3,
			Threads:     1,
			TotalCalls:  30_000,
			Phases:      1,
			MegaSites:   4,
			MegaTargets: targets,
		})
		if err != nil {
			t.Fatal(err)
		}
		d := New(w.P, Options{InlineThreshold: inlineThreshold})
		rs, err := w.NewMachine(d, machine.Config{SampleEvery: 64, DropSamples: true}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return float64(rs.C.InstrCost) / float64(rs.C.Calls)
	}
	for _, targets := range []int{2, 64} {
		chain := costPerCall(targets, 1<<20) // never promote to hash
		hash := costPerCall(targets, 1)      // promote past a single target
		t.Logf("%d targets: chain %.3f, hash %.3f per call", targets, chain, hash)
		if chainWins := targets == 2; (chain < hash) != chainWins {
			t.Errorf("%d targets: chain %.3f vs hash %.3f per call; want the chain cheaper: %v",
				targets, chain, hash, chainWins)
		}
	}
}

// TestModuleChurnSpawnStorm runs 16 threads that cycle lazy modules
// through load and unload while every root sheds ephemeral threads, so
// traps, stub publication and spawn contexts churn at once. The run
// must complete with every load matched by an unload.
func TestModuleChurnSpawnStorm(t *testing.T) {
	const threads = 16
	w, err := workload.Build(workload.Profile{
		Name:         "adv-churn",
		Seed:         0xADE2,
		ExecFuncs:    96,
		Layers:       6,
		Threads:      threads,
		TotalCalls:   6_000 * threads,
		Phases:       2,
		ChurnModules: 8,
		ChurnFuncs:   4,
		ChurnEvery:   400,
		SpawnChurn:   16,
		SpawnRate:    0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := New(w.P, Options{})
	rs, err := w.NewMachine(d, machine.Config{SampleEvery: 64, DropSamples: true}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rs.C.ModuleLoads == 0 || rs.C.ModuleLoads != rs.C.ModuleUnloads {
		t.Errorf("%d module loads, %d unloads; want equal and above 0", rs.C.ModuleLoads, rs.C.ModuleUnloads)
	}
	if rs.Threads <= threads {
		t.Errorf("%d threads ran; the spawn storm added none to the %d roots", rs.Threads, threads)
	}
	t.Logf("%d loads, %d threads, %d traps, %d epochs", rs.C.ModuleLoads, rs.Threads, rs.C.HandlerTraps, d.Epoch())
}
