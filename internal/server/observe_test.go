package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"dacce/internal/ccprof"
	"dacce/internal/telemetry"
)

// TestDebugCcprof exercises the live profile endpoint: decode a batch,
// then pull the tenant's aggregate as pprof protobuf and folded text
// and check both account for exactly the decoded contexts.
func TestDebugCcprof(t *testing.T) {
	f := newServeFixture(t, Config{}, 30_000, 17)
	n := min(400, len(f.captures))
	if _, dr := f.decode(t, "serve", f.captures[:n]); dr == nil {
		t.Fatal("decode failed")
	}

	// Single tenant registered: the tenant parameter may be omitted.
	resp, err := http.Get(f.ts.URL + "/debug/ccprof")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/ccprof: HTTP %d", resp.StatusCode)
	}
	samples, total, err := ccprof.PprofTotals(resp.Body)
	if err != nil {
		t.Fatalf("parsing pprof: %v", err)
	}
	if total != int64(n) {
		t.Errorf("pprof value sum = %d, want %d decoded contexts", total, n)
	}
	if samples == 0 || samples > n {
		t.Errorf("pprof samples = %d", samples)
	}

	// Folded view, addressed by explicit tenant key.
	resp, err = http.Get(f.ts.URL + "/debug/ccprof?tenant=serve@" + f.hash + "&format=folded")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	folded, _ := io.ReadAll(resp.Body)
	tenantP := f.srv.resolve("serve").dec.P
	back, err := ccprof.ParseFolded(tenantP, strings.NewReader(string(folded)))
	if err != nil {
		t.Fatalf("folded output does not parse: %v", err)
	}
	if back.Total() != int64(n) {
		t.Errorf("folded total = %d, want %d", back.Total(), n)
	}
}

func TestDebugCcprofErrors(t *testing.T) {
	f := newServeFixture(t, Config{}, 5_000, 29)
	resp, err := http.Get(f.ts.URL + "/debug/ccprof?tenant=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown tenant: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestDebugVars checks the JSON exposition: histogram entries carry
// quantile snapshots and the request middleware populated the per-route
// duration histogram and in-flight gauge.
func TestDebugVars(t *testing.T) {
	f := newServeFixture(t, Config{}, 5_000, 29)
	n := min(50, len(f.captures))
	f.decode(t, "serve", f.captures[:n])

	resp, err := http.Get(f.ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]int64 `json:"gauges"`
		Histograms map[string]struct {
			Bounds     []int64 `json:"bounds"`
			Cumulative []int64 `json:"cumulative"`
			Count      int64   `json:"count"`
			P50        int64   `json:"p50"`
			P99        int64   `json:"p99"`
			Max        int64   `json:"max"`
		} `json:"histograms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	h, ok := vars.Histograms[`dacced_request_duration_ns{route="/v1/decode"}`]
	if !ok {
		t.Fatalf("missing decode route duration histogram; have %d histograms", len(vars.Histograms))
	}
	if h.Count == 0 {
		t.Error("decode route histogram empty")
	}
	if h.Max <= 0 || h.P99 <= 0 || h.P50 > h.P99 || h.P99 > h.Max {
		t.Errorf("quantile snapshot not ordered: p50=%d p99=%d max=%d", h.P50, h.P99, h.Max)
	}
	if len(h.Cumulative) != len(h.Bounds)+1 {
		t.Errorf("cumulative has %d entries for %d bounds", len(h.Cumulative), len(h.Bounds))
	}
	if _, ok := vars.Gauges["dacced_http_inflight"]; !ok {
		t.Error("missing dacced_http_inflight gauge")
	}
	if vars.Histograms["dacced_decode_latency_us"].Count == 0 {
		t.Error("decode latency histogram empty")
	}
}

// TestMetricsRequestDuration checks the Prometheus exposition of the
// middleware histogram: route label present, +Inf bucket equal to
// _count.
func TestMetricsRequestDuration(t *testing.T) {
	f := newServeFixture(t, Config{}, 5_000, 29)
	n := min(50, len(f.captures))
	f.decode(t, "serve", f.captures[:n])
	// An unknown path lands in the "other" route bucket.
	if resp, err := http.Get(f.ts.URL + "/no/such/path"); err == nil {
		resp.Body.Close()
	}

	resp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`dacced_request_duration_ns_bucket{route="/v1/decode",le="+Inf"}`,
		`dacced_request_duration_ns_bucket{route="other",le="+Inf"}`,
		"dacced_http_inflight",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestEveryMetricFamilyHasHelp renders the encoder's Metrics sink after
// one event of every kind, and dacced's registry after one decode, and
// requires a HELP line for every family either exposes.
func TestEveryMetricFamilyHasHelp(t *testing.T) {
	m := telemetry.NewMetrics()
	for k := telemetry.Kind(0); k < telemetry.NumKinds; k++ {
		m.Emit(telemetry.Event{Kind: k, Reason: telemetry.ReasonNewEdges, Epoch: 1, Site: 1, Fn: 1, Value: 1, Aux: 1, DurNanos: 1})
	}
	var sink bytes.Buffer
	if err := m.WritePrometheus(&sink); err != nil {
		t.Fatal(err)
	}

	f := newServeFixture(t, Config{}, 5_000, 29)
	if _, dr := f.decode(t, "serve", f.captures[:1]); dr == nil {
		t.Fatal("decode failed")
	}
	resp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dacced, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	for name, text := range map[string]string{"Metrics sink": sink.String(), "dacced": string(dacced)} {
		typed, helped := map[string]bool{}, map[string]bool{}
		for _, line := range strings.Split(text, "\n") {
			if w := strings.Fields(line); len(w) >= 3 && w[0] == "#" {
				switch w[1] {
				case "TYPE":
					typed[w[2]] = true
				case "HELP":
					helped[w[2]] = true
				}
			}
		}
		if len(typed) == 0 {
			t.Fatalf("%s exposes no metric family", name)
		}
		for fam := range typed {
			if !helped[fam] {
				t.Errorf("%s: family %s has no HELP line", name, fam)
			}
		}
	}
}
