package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRegistryCountersGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("x_total") != c {
		t.Error("same name should return the same counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Errorf("gauge = %d, want 5", g.Value())
	}
	g.SetUint(1 << 63) // saturates
	if g.Value() != 1<<63-1 {
		t.Errorf("saturated gauge = %d", g.Value())
	}
	if r.Counter("x_total", "k", "a") == r.Counter("x_total", "k", "b") {
		t.Error("different labels must be different instances")
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{1, 4, 16})
	for _, v := range []int64{0, 1, 2, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 108 {
		t.Errorf("count=%d sum=%d, want 5/108", h.Count(), h.Sum())
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`h_bucket{le="1"} 2`,  // 0, 1
		`h_bucket{le="4"} 3`,  // + 2
		`h_bucket{le="16"} 4`, // + 5
		`h_bucket{le="+Inf"} 5`,
		"h_sum 108",
		"h_count 5",
		"# TYPE h histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []int64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "reason", "y").Inc()
	r.Counter("b_total", "reason", "x").Add(2)
	r.Counter("a_total").Inc()
	r.Gauge("z_gauge").Set(3)
	r.Help("a_total", "the a counter")
	var b1, b2 bytes.Buffer
	if err := r.WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("exposition is not deterministic")
	}
	out := b1.String()
	if !strings.Contains(out, "# HELP a_total the a counter") {
		t.Errorf("missing HELP line:\n%s", out)
	}
	ix := strings.Index(out, `b_total{reason="x"} 2`)
	iy := strings.Index(out, `b_total{reason="y"} 1`)
	ia := strings.Index(out, "a_total 1")
	if ix < 0 || iy < 0 || ia < 0 || !(ia < ix && ix < iy) {
		t.Errorf("families/labels not sorted:\n%s", out)
	}
	// One TYPE header per family even with several label sets.
	if strings.Count(out, "# TYPE b_total counter") != 1 {
		t.Errorf("duplicated TYPE header:\n%s", out)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(3)
	r.Gauge("g").Set(-1)
	r.Histogram("h", []int64{2}).Observe(1)
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters   map[string]int64         `json:"counters"`
		Gauges     map[string]int64         `json:"gauges"`
		Histograms map[string]jsonHistogram `json:"histograms"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if doc.Counters["c_total"] != 3 || doc.Gauges["g"] != -1 {
		t.Errorf("unexpected JSON values: %+v", doc)
	}
	h := doc.Histograms["h"]
	if h.Count != 1 || len(h.Buckets) != 2 || h.Buckets[0] != 1 {
		t.Errorf("unexpected histogram JSON: %+v", h)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c_total").Inc()
				r.Histogram("h", []int64{8, 64}).Observe(int64(i))
				r.Gauge("g").Set(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total").Value(); got != 4000 {
		t.Errorf("concurrent counter = %d, want 4000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 4000 {
		t.Errorf("concurrent histogram count = %d, want 4000", got)
	}
}

func TestMetricsSink(t *testing.T) {
	m := NewMetrics()
	m.Emit(Event{Kind: EvEncoderInit, Value: 1 << 40, Aux: 1})
	for i := 0; i < 3; i++ {
		m.Emit(Event{Kind: EvEdgeDiscovered, Site: 1, Fn: 2})
	}
	m.Emit(Event{Kind: EvReencodeEnd, Reason: ReasonNewEdges, Epoch: 1, Value: 9000, Aux: 77})
	m.Emit(Event{Kind: EvReencodeEnd, Reason: ReasonUnencodedCalls, Epoch: 2, Value: 100, Aux: 80})
	// An aborted pass closes its span but publishes nothing.
	m.Emit(Event{Kind: EvReencodeEnd, Reason: ReasonNewEdges, Epoch: 7, Aux: 999, Err: true, DurNanos: 5})
	m.Emit(Event{Kind: EvCCStackPush, Value: 4})
	m.Emit(Event{Kind: EvCCStackPop, Value: 3})
	m.Emit(Event{Kind: EvHandlerTrap, Site: 5})
	m.Emit(Event{Kind: EvHandlerTrap, Site: 5})
	m.Emit(Event{Kind: EvHandlerTrap, Site: 6})
	m.Emit(Event{Kind: EvDecodeRequest, Err: true})
	m.Emit(Event{Kind: EvDecodeRequest, Value: 12})
	m.Emit(Event{Kind: EvIDOverflow, Value: 1 << 62, Aux: 1 << 40})

	var b bytes.Buffer
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"dacce_edges_discovered_total 3",
		`dacce_reencode_total{reason="new_edges"} 1`,
		`dacce_reencode_total{reason="unencoded_calls"} 1`,
		`dacce_reencode_total{reason="forced"} 0`,
		"dacce_ccstack_push_total 1",
		"dacce_ccstack_pop_total 1",
		"dacce_handler_traps_total 3",
		`dacce_handler_hits{site="s5"} 2`,
		"dacce_handler_sites 2",
		`dacce_decode_requests_total{outcome="error"} 1`,
		`dacce_decode_requests_total{outcome="ok"} 1`,
		"dacce_id_overflow_total 1",
		"dacce_max_id 80",
		"dacce_epoch 2",
		"dacce_id_budget 1099511627776",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full output:\n%s", out)
	}
	var jb bytes.Buffer
	if err := m.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(jb.Bytes()) {
		t.Error("WriteJSON produced invalid JSON")
	}
}
