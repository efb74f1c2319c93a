package core

import (
	"runtime"
	"testing"
	"time"

	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/workload"
)

// TestSamplerPassSeesHeat forces a pass right after one sample, far
// short of a full batch, and checks that the pass saw the sample's
// heat: the sample credits a back edge up to the compression threshold,
// so the pass compresses the edge only if its plan read that heat. The
// sample is still in its thread's batch when the pass starts; only the
// pass's own drain can credit it in time.
func TestSamplerPassSeesHeat(t *testing.T) {
	const depth = 5 // r's frames at the bottom of the recursion
	const off = 1 << 60
	b := prog.NewBuilder()
	mainF, rF := b.Func("main"), b.Func("r")
	enter := b.CallSite(mainF, rF)
	again := b.CallSite(rF, rF)
	var d *DACCE
	sampled := false
	b.Body(rF, func(x prog.Exec) {
		if x.Depth() < depth+1 {
			x.Call(again, prog.NoFunc)
			return
		}
		if d.Epoch() == 0 {
			return // discovery round
		}
		th := x.(*machine.Thread)
		c := d.Capture(th)
		d.OnSample(th, c)
		d.ReleaseCapture(c)
		d.ReencodeNow(x, false)
		sampled = true
	})
	b.Body(mainF, func(x prog.Exec) {
		x.Call(enter, prog.NoFunc)
		// Index the discovered edges: a sample credits only edges its
		// epoch's index lists.
		d.ForceReencode(x)
		x.Call(enter, prog.NoFunc)
	})
	p := b.MustBuild()
	// The back edge's discovery trap gave it one unit of heat; the
	// sample's depth-1 frames entered through it bring it to depth.
	d = New(p, Options{
		CompressMinPushes: depth,
		Trig:              Triggers{NewEdges: off, UnencodedCalls: off, HotMissSamples: off},
	})
	if _, err := machine.New(p, d, machine.Config{}).Run(); err != nil {
		t.Fatal(err)
	}
	if !sampled {
		t.Fatal("the recursion never reached the sampling frame")
	}
	if got := d.CompressCount(); got != 1 {
		t.Fatalf("the pass after the sample compressed %d back edges, want 1: it did not see the sample's heat", got)
	}
}

// TestSamplerExitsWithRun checks that no sampler goroutine outlives a
// machine's Run, at one and at four machine threads: the goroutine
// count returns to its value from before the run.
func TestSamplerExitsWithRun(t *testing.T) {
	for _, threads := range []int{1, 4} {
		wpr, _ := workload.ByName("456.hmmer")
		wpr.TotalCalls = 40_000
		wpr.Threads = threads
		w := workload.MustBuild(wpr)
		d := New(w.P, Options{})
		before := runtime.NumGoroutine()
		rs, err := w.NewMachine(d, machine.Config{SampleEvery: 7, DropSamples: true}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if rs.C.Samples < 2*sampleBatchLen {
			t.Fatalf("%d threads: only %d samples; no batch was handed off", threads, rs.C.Samples)
		}
		// A goroutine that has finished its work still counts until it
		// has exited, so poll briefly.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%d threads: %d goroutines after the run, %d before", threads, n, before)
		}
		d.mu.Lock()
		live, s := d.live, d.sampler
		d.mu.Unlock()
		if live != 0 || s != nil {
			t.Fatalf("%d threads: %d live threads and sampler %v after the run", threads, live, s)
		}
	}
}
