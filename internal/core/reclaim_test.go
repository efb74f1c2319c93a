package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dacce/internal/ccdag"
	"dacce/internal/machine"
	"dacce/internal/workload"
)

// soakProfile is the reclamation tests' workload: enough functions,
// indirect fan-out and recursion to keep contexts churning, small
// enough per round to run a hundred rounds.
func soakProfile(totalCalls int64) workload.Profile {
	return workload.Profile{
		Name:          "reclaim",
		Seed:          0xEC1A1,
		ExecFuncs:     48,
		ExecEdges:     110,
		Layers:        7,
		IndirectSites: 3,
		ActualTargets: 3,
		RecSites:      2,
		RecProb:       0.3,
		RecStartProb:  0.05,
		Threads:       2,
		TotalCalls:    totalCalls,
		Phases:        1,
	}
}

// retainingObserver is a context observer that pins every node it sees
// — the worst case for reclamation — and drops the pins in ReleaseNodes
// before each collection, the way the streaming profiler does.
type retainingObserver struct {
	mu       sync.Mutex
	nodes    map[*ccdag.Node]int64
	observed atomic.Int64
	released atomic.Int64
}

func (o *retainingObserver) ObserveContextNode(thread int, n *ccdag.Node) {
	o.mu.Lock()
	if o.nodes == nil {
		o.nodes = map[*ccdag.Node]int64{}
	}
	o.nodes[n]++
	o.mu.Unlock()
	o.observed.Add(1)
}

func (o *retainingObserver) ReleaseNodes() {
	o.mu.Lock()
	clear(o.nodes)
	o.mu.Unlock()
	o.released.Add(1)
}

// TestLowWaterEpoch exercises the capture refcount plumbing end to end:
// retained samples pin their epochs (so no collection can run), and
// releasing them raises the low-water mark so the next pass actually
// reclaims.
func TestLowWaterEpoch(t *testing.T) {
	w, err := workload.Build(soakProfile(60_000))
	if err != nil {
		t.Fatal(err)
	}
	d := New(w.P, Options{})
	m := w.NewMachine(d, machine.Config{SampleEvery: 7})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Samples) == 0 {
		t.Fatal("no samples retained")
	}
	minEpoch := rs.Samples[0].Capture.(*Capture).Epoch
	for _, s := range rs.Samples {
		if e := s.Capture.(*Capture).Epoch; e < minEpoch {
			minEpoch = e
		}
	}
	if lw := d.LowWaterEpoch(); lw > minEpoch {
		t.Fatalf("low-water epoch %d above oldest retained capture's epoch %d", lw, minEpoch)
	}
	// Retained samples pin the floor: a forced pass must not free
	// anything below them.
	nodes := d.DAG().Len()
	d.ForceReencode(nil)
	if got := d.Stats().DAGCollected; got != 0 && nodes > 0 && minEpoch == 0 {
		t.Fatalf("collected %d nodes while epoch 0 still pinned", got)
	}
	// Release everything; the low-water mark rises to the current epoch
	// and the next pass reclaims.
	for _, s := range rs.Samples {
		d.ReleaseCapture(s.Capture)
	}
	if lw, cur := d.LowWaterEpoch(), d.Epoch(); lw != cur {
		t.Fatalf("low-water epoch %d after releasing all captures, want current %d", lw, cur)
	}
	d.ForceReencode(nil)
	st := d.Stats()
	if st.DAGCollections == 0 {
		t.Fatal("no collection ran after all captures were released")
	}
}

// TestSetContextObserverDetach checks that SetContextObserver(nil)
// stops both hooks: after the detach no sample reaches
// ObserveContextNode and no collection calls ReleaseNodes, although the
// encoder keeps sampling and collecting.
func TestSetContextObserverDetach(t *testing.T) {
	w, err := workload.Build(soakProfile(20_000))
	if err != nil {
		t.Fatal(err)
	}
	d := New(w.P, Options{})
	obs := &retainingObserver{}
	d.SetContextObserver(obs)
	// DropSamples releases every capture at sample time, so each forced
	// pass raises the low-water mark and collects.
	round := func(seed uint64) {
		m := w.NewMachine(d, machine.Config{SampleEvery: 5, Seed: seed, DropSamples: true})
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		d.ForceReencode(nil)
	}
	round(1)
	observed, released := obs.observed.Load(), obs.released.Load()
	if observed == 0 || released == 0 {
		t.Fatalf("attached observer saw %d nodes and %d releases, want both > 0", observed, released)
	}

	d.SetContextObserver(nil)
	samples, collections := d.samplesSeen.Load(), d.Stats().DAGCollections
	round(2)
	if d.samplesSeen.Load() == samples || d.Stats().DAGCollections == collections {
		t.Fatal("second round neither sampled nor collected; the detach check would be vacuous")
	}
	if got := obs.observed.Load(); got != observed {
		t.Errorf("detached observer saw %d more nodes", got-observed)
	}
	if got := obs.released.Load(); got != released {
		t.Errorf("detached observer got %d more ReleaseNodes calls", got-released)
	}
}

// TestDecodeIdentityUnderCollection hammers DecodeCaptureNode against
// concurrent re-encoding passes (each of which advances the DAG
// generation and may collect): as long as a capture is un-released its
// epoch pins the floor, so two back-to-back decodes of it must return
// the same canonical node. Run with -race.
func TestDecodeIdentityUnderCollection(t *testing.T) {
	w, err := workload.Build(soakProfile(120_000))
	if err != nil {
		t.Fatal(err)
	}
	d := New(w.P, Options{})
	m := w.NewMachine(d, machine.Config{SampleEvery: 5})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Samples) < 64 {
		t.Fatalf("only %d samples retained", len(rs.Samples))
	}

	const workers = 8
	var (
		wg   sync.WaitGroup
		stop atomic.Bool
	)
	// Collector: advance epochs (and with them the collection floor, as
	// workers release their captures) as fast as possible.
	var collectorDone sync.WaitGroup
	collectorDone.Add(1)
	go func() {
		defer collectorDone.Done()
		for !stop.Load() {
			d.ForceReencode(nil)
		}
	}()
	var firstErr atomic.Pointer[string]
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < len(rs.Samples); i += workers {
				c := rs.Samples[i].Capture
				a, err := d.DecodeCaptureNode(c)
				if err != nil {
					msg := err.Error()
					firstErr.CompareAndSwap(nil, &msg)
					return
				}
				b, err := d.DecodeCaptureNode(c)
				if err != nil {
					msg := err.Error()
					firstErr.CompareAndSwap(nil, &msg)
					return
				}
				if a != b {
					msg := "same un-released capture decoded to two different nodes"
					firstErr.CompareAndSwap(nil, &msg)
					return
				}
				// Releasing lets the floor advance past this capture's
				// epoch — its nodes may now be swept, and that's fine.
				d.ReleaseCapture(c)
			}
		}(wk)
	}
	wg.Wait()
	stop.Store(true)
	collectorDone.Wait()
	if msg := firstErr.Load(); msg != nil {
		t.Fatal(*msg)
	}
}

// TestSoakBoundedFootprint is the tentpole's acceptance soak: many
// rounds of fresh context churn, each followed by an epoch retirement,
// with a node-pinning observer attached. The DAG, the observer's pins
// and the heap must stay bounded by the live set instead of growing
// with history. Skipped with -short.
func TestSoakBoundedFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; run without -short")
	}
	w, err := workload.Build(soakProfile(20_000))
	if err != nil {
		t.Fatal(err)
	}
	d := New(w.P, Options{})
	obs := &retainingObserver{}
	d.SetContextObserver(obs)

	const rounds = 120
	var peakEarly, peakLate int64
	var heapEarly uint64
	for r := 0; r < rounds; r++ {
		// A different machine seed each round shifts the sampled call
		// paths, so every round interns chains the previous rounds never
		// touched. DropSamples releases every capture at sample time, so
		// the low-water mark tracks the current epoch and each forced
		// pass below can actually collect.
		misses := d.DAG().Stats().Misses
		m := w.NewMachine(d, machine.Config{SampleEvery: 5, Seed: uint64(r + 1), DropSamples: true})
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		// Count before the forced pass, whose collection empties the DAG:
		// this is the round's working set plus whatever earlier rounds
		// failed to reclaim, so a leak shows here as growth. The previous
		// round's collection ran with the current epoch as its floor and
		// nothing pinned, so it freed every node, and the DAG can hold
		// at most the nodes this round interned itself: a collector that
		// lags behind the low-water epoch leaves earlier rounds' nodes
		// that this bound sees even where the contexts saturate.
		n := d.DAG().Len()
		if interned := d.DAG().Stats().Misses - misses; n > interned {
			t.Fatalf("round %d: %d DAG nodes before collection, but the round interned only %d: earlier rounds' nodes survived their collections", r, n, interned)
		}
		switch {
		case r == rounds/4:
			peakEarly = n
		case r > rounds/4 && n > peakLate:
			peakLate = n
		}
		d.ForceReencode(nil)
		if r == rounds/4 {
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			heapEarly = ms.HeapAlloc
		}
	}
	st := d.Stats()
	if st.DAGCollections < rounds/2 {
		t.Fatalf("only %d collections over %d rounds", st.DAGCollections, rounds)
	}
	if st.DAGCollected == 0 {
		t.Fatal("collections freed nothing despite churning contexts")
	}
	if obs.released.Load() == 0 {
		t.Fatal("observer pins were never flushed")
	}
	// Bounded DAG: the pre-collection footprint late in the soak stays
	// within a small factor of the early steady state — it must not grow
	// with round count.
	if peakEarly == 0 {
		t.Fatal("the early round interned no context; the bound is vacuous")
	}
	if peakLate > 2*peakEarly+1024 {
		t.Fatalf("DAG footprint grew with history: %d nodes late vs %d early", peakLate, peakEarly)
	}
	t.Logf("DAG nodes before collection: %d early, %d late peak", peakEarly, peakLate)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if heapEarly > 0 && ms.HeapAlloc > 2*heapEarly+64<<20 {
		t.Fatalf("heap grew with history: %d B late vs %d B early", ms.HeapAlloc, heapEarly)
	}
}
