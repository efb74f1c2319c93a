package difftest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/workload"
)

// TestStressLockFreeReaders races the encoder's lock-free read surface
// against a live multi-threaded run with forced epoch churn: workload
// threads trap and sample, the ForceEpochs wrapper re-encodes every few
// samples, an external goroutine forces stop-the-world passes from
// outside any machine thread, and reader goroutines continuously hit
// the snapshot accessors (Epoch, MaxID, Dict, CompressCount, Stats,
// ExportState) that the steady-state rework moved off the mutex. Under
// -race this checks the RCU publication discipline: readers must only
// ever observe complete, immutable snapshots. Retained samples are
// decoded afterwards as the semantic check.
func TestStressLockFreeReaders(t *testing.T) {
	pr := workload.RandomProfile(13, 60, 24, 40, 2)
	pr.Threads = 4
	pr.TotalCalls = 50_000
	w, err := workload.Build(pr)
	if err != nil {
		t.Fatal(err)
	}
	d := core.New(w.P, aggressiveOptions(nil))
	m := w.NewMachine(ForceEpochs(d, 64), machine.Config{SampleEvery: 5, Seed: pr.Seed + 1})

	var (
		done  = make(chan struct{})
		wg    sync.WaitGroup
		reads atomic.Int64
	)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				ep := d.Epoch()
				if dict := d.Dict(ep); dict == nil {
					t.Errorf("reader: current epoch %d has no dictionary", ep)
					return
				}
				if d.Dict(0) == nil {
					t.Error("reader: epoch 0 dictionary vanished")
					return
				}
				_ = d.MaxID()
				_ = d.CompressCount()
				if n%64 == 0 {
					_ = d.Stats()
					_ = d.ExportState()
				}
				reads.Add(1)
				runtime.Gosched() // keep the workload progressing on one CPU
			}
		}()
	}
	// One forcer outside any machine thread: stop-the-world passes must
	// interleave cleanly with both the workload and the readers. The
	// sleep bounds STW pressure so the workload still progresses (the
	// same pacing Stress uses for its forcers).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			d.ForceReencode(nil)
			time.Sleep(500 * time.Microsecond)
		}
	}()

	rs, runErr := m.Run()
	close(done)
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if reads.Load() == 0 {
		t.Fatal("reader goroutines never ran")
	}
	if d.Epoch() == 0 {
		t.Fatal("no re-encoding pass completed despite churn")
	}
	if len(rs.Samples) == 0 {
		t.Fatal("run retained no samples")
	}
	for _, s := range rs.Samples {
		if _, err := d.DecodeSample(s); err != nil {
			t.Fatalf("sample decode after churn: %v", err)
		}
	}
}
