// Steady-state benchmarks and allocation gates for the lock-free
// runtime paths: the encoded call fast path, capture, and the sampling
// controller. The gates are tests, not benchmarks, so `go test ./...`
// fails if an allocation sneaks back into a path the snapshot design
// made allocation-free; the benchmarks report the same paths' wall
// cost and allocs/op for trend tracking. The wall cost of a whole
// instrumented run is perfbench's encode-steady workload, whose traced
// mode splits it per layer (core.sample_ns, ccprof.observe_ns).
package dacce_test

import (
	"testing"

	"dacce"
	"dacce/internal/ccprof"
	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/prog"
)

// steadyFixture is a warmed single-thread machine parked at
// main → mid, with mid's body blocked on a channel so the benchmark
// goroutine can puppet the thread: drive calls on an already-encoded
// site, take captures, and feed the sampling controller directly. The
// pattern follows BenchmarkCapture; it works because the machine's
// thread is a cooperative executor, not an OS thread, and exactly one
// goroutine drives it at a time.
type steadyFixture struct {
	d    *core.DACCE
	th   *machine.Thread
	site dacce.SiteID
	stop chan struct{}
}

func newSteadyFixture(tb testing.TB) *steadyFixture {
	return newSteadyFixtureOpts(tb, func(*prog.Program) core.Options { return core.Options{} })
}

// newSteadyFixtureOpts builds the fixture with caller-chosen encoder
// options; the callback sees the built program so options can hold
// program-derived state (the streaming profiler, say).
func newSteadyFixtureOpts(tb testing.TB, opts func(*prog.Program) core.Options) *steadyFixture {
	tb.Helper()
	bld := dacce.NewBuilder()
	mainF := bld.Func("main")
	mid := bld.Func("mid")
	leaf := bld.Func("leaf")
	siteMid := bld.CallSite(mainF, mid)
	siteLeaf := bld.CallSite(mid, leaf)
	f := &steadyFixture{stop: make(chan struct{})}
	done := make(chan struct{})
	bld.Body(mainF, func(x dacce.Exec) { x.Call(siteMid, dacce.NoFunc) })
	bld.Body(mid, func(x dacce.Exec) {
		f.th = x.(*machine.Thread)
		close(done)
		<-f.stop
	})
	p := bld.MustBuild()
	f.d = core.New(p, opts(p))
	// Sampling off: the fixture's users sample by hand; Maintain still
	// runs on its default period and must stay allocation-free too.
	m := machine.New(p, f.d, machine.Config{})
	go func() { _, _ = m.Run() }()
	<-done

	// Discover the leaf edge, then re-encode so the site is patched with
	// the zero-cost encoded stub — the steady state under test.
	f.th.Call(siteLeaf, dacce.NoFunc)
	f.d.ForceReencode(f.th)
	f.site = siteLeaf
	if got := f.d.Epoch(); got == 0 {
		tb.Fatal("fixture: forced re-encoding did not advance the epoch")
	}
	return f
}

func (f *steadyFixture) close() { close(f.stop) }

// encodedCall drives one full call+return through the encoded stub:
// prologue safepoint, id arithmetic, empty leaf body, epilogue.
func (f *steadyFixture) encodedCall() { f.th.Call(f.site, dacce.NoFunc) }

// sampleOnce exercises the full steady-state sampling path the machine
// runs every SampleEvery calls: pooled capture, lock-free decode on the
// thread's scratch buffers, heat credit, trigger check, release.
func (f *steadyFixture) sampleOnce() {
	c := f.d.Capture(f.th)
	f.d.OnSample(f.th, c)
	f.d.ReleaseCapture(c)
}

// TestEncodedFastPathNoAllocs gates the tentpole invariant: a call
// through an encoded site in steady state performs zero heap
// allocations. This is the path the paper's near-zero overhead claim
// rests on — one add on call, one subtract on return.
func TestEncodedFastPathNoAllocs(t *testing.T) {
	f := newSteadyFixture(t)
	defer f.close()
	for i := 0; i < 64; i++ { // warm pools and thread-local buffers
		f.encodedCall()
	}
	if avg := testing.AllocsPerRun(1000, f.encodedCall); avg != 0 {
		t.Fatalf("encoded call fast path allocates %v allocs/op, want 0", avg)
	}
}

// TestOnSampleNoAllocs gates the sampling controller: capture, decode,
// heat estimation and trigger check run without heap allocation once
// the capture pool and the thread's decoder scratch are warm. Before
// the snapshot rework this path allocated a Decoder, a ccStack copy
// and two decode buffers per sample while holding the global mutex.
func TestOnSampleNoAllocs(t *testing.T) {
	f := newSteadyFixture(t)
	defer f.close()
	for i := 0; i < 64; i++ {
		f.sampleOnce()
	}
	if avg := testing.AllocsPerRun(1000, f.sampleOnce); avg != 0 {
		t.Fatalf("steady-state sampling allocates %v allocs/op, want 0", avg)
	}
}

// TestDecodeSampleNodeNoAllocs gates the DAG decode path: once a
// context has been interned, re-decoding a sample of it into its
// canonical node touches neither the heap nor any lock — the pooled
// scratch and the DAG's lock-free read path cover the whole decode.
// This is the invariant a streaming consumer's per-sample cost rests
// on.
func TestDecodeSampleNodeNoAllocs(t *testing.T) {
	f := newSteadyFixture(t)
	defer f.close()
	c := f.d.CaptureTyped(f.th)
	s := machine.Sample{Thread: 0, Fn: c.Fn, Capture: c}
	for i := 0; i < 64; i++ { // warm the scratch pool and intern the context
		if _, err := f.d.DecodeSampleNode(s); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := f.d.DecodeSampleNode(s); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("warm DecodeSampleNode allocates %v allocs/op, want 0", avg)
	}
}

// BenchmarkDecodeSampleNode measures the warm node decode against
// BenchmarkOnSample's slice path — the per-sample cost a streaming
// consumer pays for a canonical pointer instead of a frame slice.
func BenchmarkDecodeSampleNode(b *testing.B) {
	f := newSteadyFixture(b)
	defer f.close()
	c := f.d.CaptureTyped(f.th)
	s := machine.Sample{Thread: 0, Fn: c.Fn, Capture: c}
	for i := 0; i < 64; i++ {
		if _, err := f.d.DecodeSampleNode(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.d.DecodeSampleNode(s); err != nil {
			b.Fatal(err)
		}
	}
}

// newProfiledFixture is the steady fixture with the always-on streaming
// profiler attached as the encoder's context observer.
func newProfiledFixture(tb testing.TB) (*steadyFixture, *ccprof.Streaming) {
	var s *ccprof.Streaming
	f := newSteadyFixtureOpts(tb, func(p *prog.Program) core.Options {
		s = ccprof.NewStreaming(p)
		return core.Options{ContextObserver: s}
	})
	return f, s
}

// TestEncodedFastPathNoAllocsProfiled re-runs the fast-path gate with
// the streaming profiler attached: the observer rides the sample path
// only, so the encoded call must be bit-for-bit as free as without it.
func TestEncodedFastPathNoAllocsProfiled(t *testing.T) {
	f, _ := newProfiledFixture(t)
	defer f.close()
	for i := 0; i < 64; i++ {
		f.encodedCall()
	}
	if avg := testing.AllocsPerRun(1000, f.encodedCall); avg != 0 {
		t.Fatalf("encoded call with profiler allocates %v allocs/op, want 0", avg)
	}
}

// TestOnSampleNoAllocsProfiled gates the always-on profiler's headline
// claim: streaming context aggregation adds zero allocations to the
// steady-state sampling path once its shard tree is warm.
func TestOnSampleNoAllocsProfiled(t *testing.T) {
	f, s := newProfiledFixture(t)
	defer f.close()
	samples := 0
	sample := func() {
		f.sampleOnce()
		samples++
	}
	for i := 0; i < 64; i++ {
		sample()
	}
	if avg := testing.AllocsPerRun(1000, sample); avg != 0 {
		t.Fatalf("sampling with streaming profiler allocates %v allocs/op, want 0", avg)
	}
	// Every sample must reach the profiler: a total short of the samples
	// taken means the gate proved the wrong path.
	if got := s.Total(); got != int64(samples) {
		t.Fatalf("profiler total %d, want one observation per sample (%d)", got, samples)
	}
}

// BenchmarkOnSampleProfiled measures the sampling path with the
// streaming profiler attached — the delta against BenchmarkOnSample is
// the profiler's per-sample cost.
func BenchmarkOnSampleProfiled(b *testing.B) {
	f, _ := newProfiledFixture(b)
	defer f.close()
	for i := 0; i < 64; i++ {
		f.sampleOnce()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.sampleOnce()
	}
}

// BenchmarkEncodedCall measures the encoded call+return fast path.
func BenchmarkEncodedCall(b *testing.B) {
	f := newSteadyFixture(b)
	defer f.close()
	for i := 0; i < 64; i++ {
		f.encodedCall()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.encodedCall()
	}
}

// BenchmarkOnSample measures the steady-state sampling path
// (capture + lock-free decode + heat credit + release).
func BenchmarkOnSample(b *testing.B) {
	f := newSteadyFixture(b)
	defer f.close()
	for i := 0; i < 64; i++ {
		f.sampleOnce()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.sampleOnce()
	}
}
