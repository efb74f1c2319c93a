package core

import (
	"sync"
	"testing"

	"dacce/internal/machine"
	"dacce/internal/workload"
)

// TestSpawnRacesForcedPasses forces passes from a goroutine outside the
// machine while machines start and spawn threads. Run spawns the entry
// thread from its own goroutine, which no stop-the-world waits for, so
// such a pass can list a thread while it is being started; the machine
// must let the scheme set the thread up before it lists it. Under the
// race detector a pass that translates a half-started thread reports a
// data race on the thread's state. Every sample must still decode.
func TestSpawnRacesForcedPasses(t *testing.T) {
	w, err := workload.Build(workload.Profile{
		Name:       "spawn-race",
		Seed:       0x5EA1,
		ExecFuncs:  48,
		Layers:     5,
		Threads:    4,
		TotalCalls: 1_000,
		Phases:     1,
		SpawnChurn: 8,
		SpawnRate:  0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := range 100 {
		d := New(w.P, Options{})
		m := w.NewMachine(d, machine.Config{SampleEvery: 32})
		done := make(chan struct{})
		var forcer sync.WaitGroup
		forcer.Add(1)
		go func() {
			defer forcer.Done()
			for {
				select {
				case <-done:
					return
				default:
					d.ForceReencode(nil)
				}
			}
		}()
		rs, err := m.Run()
		close(done)
		forcer.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if rs.Threads <= 4 {
			t.Fatalf("round %d: %d threads ran; the profile spawned none", round, rs.Threads)
		}
		spawnShadow := map[int][]machine.ShadowFrame{}
		for _, th := range m.Threads() {
			spawnShadow[th.ID()] = th.SpawnShadow
		}
		for i, s := range rs.Samples {
			got, err := d.DecodeSample(s)
			if err != nil {
				t.Fatalf("round %d sample %d: %v", round, i, err)
			}
			if want := ShadowContext(spawnShadow[s.Thread], s.Shadow); !got.Equal(want) {
				t.Fatalf("round %d sample %d: decoded %v, want %v", round, i, got, want)
			}
		}
	}
}
