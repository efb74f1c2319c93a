package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors the parts of ../BENCHMARK.json the runner must
// agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the runner %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, runner %q", i, w.Name, specs[i].Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the runner %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, runner %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the runner %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s %s, runner %s %s", i, m.Name, m.Unit, d.Name, d.Unit)
		}
	}
}

// TestReadmeDefinesEveryMetric keeps README.md, which defines each
// metric and maps the per-layer ones to what they should move, in step
// with the catalogue.
func TestReadmeDefinesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	var names []string
	for _, list := range [][]metricDef{endToEnd, reported, perLayer} {
		for _, d := range list {
			names = append(names, d.Name)
		}
	}
	for _, sp := range specs {
		names = append(names, sp.Name)
	}
	for _, n := range names {
		if !strings.Contains(readme, "`"+n+"`") {
			t.Errorf("README.md does not mention `%s`", n)
		}
	}
}

// runOnce runs the runner in-process, in a temporary directory (a
// traced run writes its span log under the working directory), and
// returns the envelope and the result line.
func runOnce(t *testing.T, workload string, seed string, trace string) (envelope, resultLine) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	var out, errb bytes.Buffer
	args := []string{"--workload", workload, "--seed", seed, "--seconds", "0.3", "--trace", trace}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%s trace=%s: exit %d\n%s", workload, trace, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: want envelope and result lines, got %q", workload, out.String())
	}
	var env map[string]envelope
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &env); err != nil {
		t.Fatal(err)
	}
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return env["envelope"], res
}

// TestEveryMetricReported runs every workload briefly, untraced and
// traced, and checks that the result line carries exactly the
// catalogue's metrics with their units, that every value is finite, and
// that no operation failed.
func TestEveryMetricReported(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, sp := range specs {
		for _, trace := range []string{"0", "1"} {
			env, res := runOnce(t, sp.Name, "3", trace)
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v failed=%d attempted=%d", sp.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", sp.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", sp.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%s: %s unit %q, want %q", sp.Name, trace, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%s: %s = %v", sp.Name, trace, d.Name, m.Value)
				}
				if _, ok := env.Samples[d.Name]; !ok {
					t.Errorf("%s trace=%s: no sample count for %s", sp.Name, trace, d.Name)
				}
			}
			if trace == "0" {
				for _, d := range reported {
					if m, ok := env.Reported[d.Name]; !ok || m.Unit != d.Unit || m.Value <= 0 || m.Samples < 1 {
						t.Errorf("%s: reported metric %s = %+v", sp.Name, d.Name, m)
					}
				}
			}
			if trace == "0" {
				for _, d := range endToEnd {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", sp.Name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
			if env.GoMaxProcs < 1 || env.NumCPU < 1 || env.GoVersion == "" || env.Revision == "" {
				t.Errorf("%s: incomplete envelope %+v", sp.Name, env)
			}
		}
	}
}

// TestCountsRepeat is the determinism guard across runs: two runs of an
// encode workload at one seed report identical exact counts (each run
// already fails on a mismatch between its own rounds).
func TestCountsRepeat(t *testing.T) {
	for _, name := range []string{"encode-steady", "encode-adapt"} {
		a, _ := runOnce(t, name, "5", "0")
		b, _ := runOnce(t, name, "5", "0")
		if len(a.Counts) != subSeeds || !slices.Equal(a.Counts, b.Counts) {
			t.Errorf("%s: counts differ between runs at one seed: %+v vs %+v", name, a.Counts, b.Counts)
		}
		for _, c := range a.Counts {
			if name == "encode-steady" && c.Traps != 0 {
				t.Errorf("encode-steady: %d handler traps on a warm start", c.Traps)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

// TestRecorderSelfTime checks the layer accounting's base: a span's
// self time excludes its children, and parents are linked.
func TestRecorderSelfTime(t *testing.T) {
	r := newRecorder(time.Now(), 8)
	r.begin(spanOnSample)
	r.begin(spanObserve)
	time.Sleep(2 * time.Millisecond)
	child := r.end()
	parent := r.end()
	on, ob := r.get(spanOnSample), r.get(spanObserve)
	if on.Total != parent || ob.Total != child || on.Self != parent-child || ob.Self != child {
		t.Errorf("aggregates: parent %+v child %+v (durations %d, %d)", on, ob, parent, child)
	}
	if len(r.log) != 2 || r.log[1].Parent != 0 || r.log[0].Parent != -1 {
		t.Errorf("span log %+v", r.log)
	}
}
