package telemetry

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dacce/internal/prog"
)

// TestHistogramQuantiles checks the snapshot estimator: quantiles come
// from cumulative bucket interpolation, the max is exact, and the
// ordering p50 ≤ p90 ≤ p99 ≤ max always holds.
func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	// 90 values in [0,10), 9 in [10,100), 1 at 500.
	for i := 0; i < 90; i++ {
		h.Observe(5)
	}
	for i := 0; i < 9; i++ {
		h.Observe(50)
	}
	h.Observe(500)

	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != 500 {
		t.Errorf("max = %d, want exact 500", s.Max)
	}
	if s.P50 <= 0 || s.P50 > 10 {
		t.Errorf("p50 = %d, want in (0,10] (all mass in first bucket)", s.P50)
	}
	if s.P90 > 100 {
		t.Errorf("p90 = %d, want ≤ 100", s.P90)
	}
	if !(s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max) {
		t.Errorf("quantiles not ordered: %+v", s)
	}
	if q := h.Quantile(1); q != 500 {
		t.Errorf("Quantile(1) = %d, want exact max 500", q)
	}
}

// TestHistogramQuantileCappedAtMax: interpolation inside a sparsely
// filled wide bucket must never report a value larger than any
// observation.
func TestHistogramQuantileCappedAtMax(t *testing.T) {
	h := NewHistogram([]int64{1 << 20, 1 << 21, 1 << 22})
	// One observation near the bottom of the [2^21, 2^22) bucket.
	h.Observe(1<<21 + 7)
	for _, q := range []float64{0.5, 0.9, 0.99, 1} {
		if got := h.Quantile(q); got != 1<<21+7 {
			t.Errorf("Quantile(%v) = %d, want the single observation", q, got)
		}
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	s := h.Snapshot()
	if s != (HistSnapshot{}) {
		t.Errorf("empty snapshot = %+v, want zero", s)
	}
}

func TestObserveDuration(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	h.ObserveDuration(3 * time.Millisecond)
	if h.Count() != 1 || h.Max() != (3*time.Millisecond).Nanoseconds() {
		t.Errorf("count=%d max=%d", h.Count(), h.Max())
	}
}

// TestPrometheusHistogramConformance is the promtext gate: buckets are
// cumulative and monotone, the +Inf bucket is present and equals
// _count, and each family has exactly one TYPE line.
func TestPrometheusHistogramConformance(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", []int64{100, 1000}, "route", "a")
	h.Observe(50)
	h.Observe(500)
	h.Observe(5000)
	h2 := r.Histogram("lat_ns", []int64{100, 1000}, "route", "b")
	h2.Observe(70)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if n := strings.Count(text, "# TYPE lat_ns histogram"); n != 1 {
		t.Errorf("TYPE line appears %d times:\n%s", n, text)
	}

	// Per series: collect bucket values in order, check monotone
	// cumulative, +Inf present, _count == +Inf.
	type series struct {
		buckets []int64
		inf     int64
		hasInf  bool
		count   int64
	}
	byRoute := map[string]*series{"a": {}, "b": {}}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "lat_ns") {
			continue
		}
		var route string
		for r := range byRoute {
			if strings.Contains(line, fmt.Sprintf(`route="%s"`, r)) {
				route = r
			}
		}
		if route == "" {
			t.Fatalf("series without route label: %q", line)
		}
		s := byRoute[route]
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad sample line %q", line)
		}
		switch {
		case strings.Contains(line, `le="+Inf"`):
			s.inf, s.hasInf = v, true
		case strings.Contains(line, "_bucket"):
			s.buckets = append(s.buckets, v)
		case strings.Contains(line, "_count"):
			s.count = v
		}
	}
	for route, s := range byRoute {
		if !s.hasInf {
			t.Fatalf("route %s: no +Inf bucket", route)
		}
		prev := int64(0)
		for i, v := range s.buckets {
			if v < prev {
				t.Errorf("route %s: bucket %d not cumulative: %v", route, i, s.buckets)
			}
			prev = v
		}
		if s.inf < prev {
			t.Errorf("route %s: +Inf %d < last bucket %d", route, s.inf, prev)
		}
		if s.count != s.inf {
			t.Errorf("route %s: _count %d != +Inf bucket %d", route, s.count, s.inf)
		}
	}
	if byRoute["a"].inf != 3 || byRoute["b"].inf != 1 {
		t.Errorf("totals: a=%d b=%d", byRoute["a"].inf, byRoute["b"].inf)
	}
}

// TestSLOWatchdog: rules fire only above their threshold, honor the
// cooldown, and emit EvSLOBreach with the observed value and limit.
func TestSLOWatchdog(t *testing.T) {
	var sink CountingSink
	w := NewWatchdog(&sink)
	pause := NewHistogram(DurationBuckets())
	var backlog int64
	w.Add(SLORule{Name: "pause_p99_ns", Source: QuantileSource(pause, 0.99), Max: 1000})
	w.Add(SLORule{Name: "trap_backlog", Source: func() int64 { return backlog }, Max: 10})
	// Disabled rules are dropped (flag value 0 / nil source).
	w.Add(SLORule{Name: "off", Source: func() int64 { return 1 }, Max: 0})
	w.Add(SLORule{Name: "nil", Max: 5})
	if got := w.NumRules(); got != 2 {
		t.Fatalf("NumRules = %d, want 2", got)
	}

	if br := w.Check(); len(br) != 0 {
		t.Fatalf("empty state breached: %+v", br)
	}
	pause.Observe(50_000) // p99 way above 1000ns
	backlog = 3           // under limit
	br := w.Check()
	if len(br) != 1 || br[0].Rule != "pause_p99_ns" {
		t.Fatalf("breaches = %+v, want pause only", br)
	}
	if br[0].Value <= br[0].Max {
		t.Errorf("breach value %d not above max %d", br[0].Value, br[0].Max)
	}
	if n := sink.Count(EvSLOBreach); n != 1 {
		t.Errorf("EvSLOBreach emitted %d times, want 1", n)
	}

	// Cooldown: an immediately repeated check re-reports the breach but
	// does not re-emit the event.
	if br = w.Check(); len(br) != 1 {
		t.Fatalf("repeat check: %+v", br)
	}
	if n := sink.Count(EvSLOBreach); n != 1 {
		t.Errorf("cooldown violated: %d events", n)
	}
	if got := w.Breaches()["pause_p99_ns"]; got != 2 {
		t.Errorf("Breaches() = %d, want 2 (cooldown suppresses events, not counts)", got)
	}
}

// TestGaugeSource adapts a registry gauge into a rule source.
func TestGaugeSource(t *testing.T) {
	g := NewRegistry().Gauge("backlog")
	g.Set(42)
	if got := GaugeSource(g)(); got != 42 {
		t.Errorf("GaugeSource = %d", got)
	}
}

// TestSLOBreachTriggersFlightDump is the acceptance proof: a breach
// event lands in a FlightRecorder and auto-dumps the ring.
func TestSLOBreachTriggersFlightDump(t *testing.T) {
	var buf strings.Builder
	fr := NewFlightRecorder(64, &buf)
	w := NewWatchdog(fr)
	hot := NewHistogram(DurationBuckets())
	w.Add(SLORule{Name: "decode_p99_ns", Source: QuantileSource(hot, 0.99), Max: 100})

	// Some ordinary traffic first, so the dump has context.
	for i := 0; i < 5; i++ {
		fr.Emit(Event{Kind: EvSample, Thread: 0, Site: prog.NoSite, Fn: prog.NoFunc, DurNanos: 80})
	}
	hot.Observe(10_000)
	if br := w.Check(); len(br) != 1 {
		t.Fatalf("no breach: %+v", br)
	}
	if fr.Dumps() != 1 {
		t.Fatalf("flight recorder dumped %d times, want 1", fr.Dumps())
	}
	dump := buf.String()
	if !strings.Contains(dump, "slo_breach") {
		t.Errorf("dump missing the breach event:\n%s", dump)
	}
	if !strings.Contains(dump, `"dur_ns"`) {
		t.Errorf("dump lines missing dur_ns:\n%s", dump)
	}
}

// TestWatch runs the background ticker once and stops it.
func TestWatch(t *testing.T) {
	var sink CountingSink
	w := NewWatchdog(&sink)
	w.SetCooldown(0)
	fired := make(chan struct{}, 1)
	w.Add(SLORule{
		Name: "always",
		Source: func() int64 {
			select {
			case fired <- struct{}{}:
			default:
			}
			return 2
		},
		Max: 1,
	})
	stop := w.Watch(time.Millisecond)
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog ticker never checked")
	}
	stop()
	stop() // idempotent
	if n := sink.Count(EvSLOBreach); n == 0 {
		t.Error("no breach emitted by background watch")
	}
}

// TestWatchStopWaitsForCheck: stop must not return while a Check is
// in flight, and the breach that Check finds must be in the sink by the
// time stop returns.
func TestWatchStopWaitsForCheck(t *testing.T) {
	var sink CountingSink
	w := NewWatchdog(&sink)
	w.SetCooldown(0)
	entered, release := make(chan struct{}), make(chan struct{})
	var enterOnce, releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	w.Add(SLORule{
		Name: "blocked",
		Source: func() int64 {
			enterOnce.Do(func() {
				close(entered)
				<-release
			})
			return 2
		},
		Max: 1,
	})
	stop := w.Watch(time.Millisecond)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog ticker never checked")
	}
	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("stop returned while a Check was still running")
	case <-time.After(20 * time.Millisecond):
	}
	unblock()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("stop did not return after the Check finished")
	}
	if n := sink.Count(EvSLOBreach); n == 0 {
		t.Error("the in-flight Check's breach is not in the sink when stop returns")
	}
	stop() // idempotent
}

// TestMetricsSinkLatencyHistograms: events carrying DurNanos feed the
// per-kind latency histograms.
func TestMetricsSinkLatencyHistograms(t *testing.T) {
	m := NewMetrics()
	m.Emit(Event{Kind: EvReencodeEnd, Thread: -1, Site: prog.NoSite, Fn: prog.NoFunc, DurNanos: 2_000_000})
	m.Emit(Event{Kind: EvHandlerTrap, Thread: 0, Site: prog.NoSite, Fn: prog.NoFunc, DurNanos: 900})
	m.Emit(Event{Kind: EvDecodeRequest, Thread: 0, Site: prog.NoSite, Fn: prog.NoFunc, DurNanos: 1500})
	m.Emit(Event{Kind: EvSample, Thread: 0, Site: prog.NoSite, Fn: prog.NoFunc, DurNanos: 70})
	m.Emit(Event{Kind: EvSLOBreach, Thread: -1, Site: prog.NoSite, Fn: prog.NoFunc, Err: true})

	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"dacce_reencode_pause_ns_count 1",
		"dacce_trap_latency_ns_count 1",
		"dacce_decode_latency_ns_count 1",
		"dacce_sample_latency_ns_count 1",
		"dacce_slo_breach_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Events without a duration don't pollute the histograms.
	m.Emit(Event{Kind: EvSample, Thread: 0, Site: prog.NoSite, Fn: prog.NoFunc})
	sampleHist := m.Registry().Histogram("dacce_sample_latency_ns", DurationBuckets())
	if got := sampleHist.Count(); got != 1 {
		t.Errorf("zero-duration sample counted: %d", got)
	}
}

func TestEventStringDur(t *testing.T) {
	ev := Event{Kind: EvReencodeEnd, Thread: -1, Site: prog.NoSite, Fn: prog.NoFunc, DurNanos: 420}
	if !strings.Contains(ev.String(), "dur=420ns") {
		t.Errorf("String() = %q", ev.String())
	}
}
