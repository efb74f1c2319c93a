package workload

import (
	"testing"

	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/persist"
)

// TestWarmStartMakesNoPass pins the adaptive controller's convergence at
// the default triggers: 445.gobmk warm-started from its own cold run's
// snapshot, in the shape of one encode-steady benchmark round (one
// thread, 200k calls, a sample every 16 calls), discovers no edge and
// must make no re-encoding pass. gobmk's recursion keeps sampling
// marker-range ids whose innermost saved sub-path starts at a back
// edge; no pass can encode those, so they must not count toward
// trigger (b).
func TestWarmStartMakesNoPass(t *testing.T) {
	pr := small(t, "445.gobmk", 200_000)
	pr.Threads = 1
	w := MustBuild(pr)
	for _, seed := range []uint64{1, 2, 3} {
		cfg := machine.Config{Seed: seed, SampleEvery: 16, DropSamples: true}
		cold := core.New(w.P, core.Options{})
		if _, err := w.NewMachine(cold, cfg).Run(); err != nil {
			t.Fatal(err)
		}
		blob, err := persist.Marshal(cold.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		st, err := persist.Unmarshal(blob)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.Restore(w.P, core.Options{}, st)
		if err != nil {
			t.Fatal(err)
		}
		before := len(d.Stats().History)
		rs, err := w.NewMachine(d, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		if rs.C.HandlerTraps != 0 {
			t.Fatalf("seed %d: warm run took %d traps; the snapshot is not the run's own", seed, rs.C.HandlerTraps)
		}
		for _, r := range d.Stats().History[before:] {
			t.Errorf("seed %d: warm run re-encoded: epoch %d, reason %s", seed, r.Epoch, r.Reason)
		}
	}
}
