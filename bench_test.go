// Benchmarks regenerating the paper's evaluation (one per table/figure,
// DESIGN.md §4) plus microbenchmarks and ablations of DACCE's design
// choices. Wall time here measures this implementation; the paper-shape
// numbers (overhead %, maxID, gTS, depths) are attached to each result
// via b.ReportMetric, so `go test -bench . -benchmem` prints the same
// quantities the paper reports.
//
// The per-figure benchmarks run a representative subset of the 41
// workloads to keep `go test -bench .` short; `cmd/daccebench` runs the
// full suite.
package dacce_test

import (
	"testing"

	"dacce"
	"dacce/internal/core"
	"dacce/internal/experiments"
	"dacce/internal/machine"
	"dacce/internal/pcce"
	"dacce/internal/stats"
	"dacce/internal/workload"
)

const benchCalls = 120_000

// representative covers the paper's discussion points: tiny (mcf),
// recursion-heavy (gobmk), indirect-heavy OO (xalancbmk), many-target
// indirect + threads (x264), static-friendly (sjeng, milc), dlopen
// (perlbench).
var representative = []string{
	"429.mcf", "445.gobmk", "483.xalancbmk", "x264", "458.sjeng", "433.milc", "400.perlbench",
}

func mustProfile(b *testing.B, name string) workload.Profile {
	b.Helper()
	pr, ok := workload.ByName(name)
	if !ok {
		b.Fatalf("unknown benchmark %q", name)
	}
	pr.TotalCalls = benchCalls
	return pr
}

// BenchmarkTable1Characteristics regenerates Table 1 rows: per
// benchmark, both encoders' graph sizes, maxID, ccStack traffic and
// re-encoding counts.
func BenchmarkTable1Characteristics(b *testing.B) {
	for _, name := range representative {
		b.Run(name, func(b *testing.B) {
			var r *experiments.BenchResult
			for i := 0; i < b.N; i++ {
				var err error
				r, err = experiments.RunBenchmark(mustProfile(b, name), experiments.RunConfig{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.PCCE.Edges), "pcceEdges")
			b.ReportMetric(float64(r.DACCE.Edges), "dacceEdges")
			b.ReportMetric(float64(r.DACCE.MaxID), "dacceMaxID")
			b.ReportMetric(float64(r.DACCE.GTS), "gTS")
			b.ReportMetric(r.DACCE.CCPerSec, "ccStack/s")
		})
	}
}

// BenchmarkFig8Overhead regenerates Figure 8: steady-state runtime
// overhead of PCCE vs DACCE (cost model, attached as metrics) while
// measuring the real wall time per simulated call of each scheme.
func BenchmarkFig8Overhead(b *testing.B) {
	for _, name := range representative {
		pr := mustProfile(b, name)
		w := workload.MustBuild(pr)
		prof, err := w.CollectProfile()
		if err != nil {
			b.Fatal(err)
		}
		steady := pr.TotalCalls / int64(pr.Threads) / 3

		b.Run(name+"/pcce", func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				s := pcce.New(w.P, pcce.Profile(prof), pcce.Options{})
				m := machine.New(w.P, s, machine.Config{SampleEvery: 256, DropSamples: true, SteadyAfterCalls: steady, Seed: pr.Seed + 1})
				rs, err := m.Run()
				if err != nil {
					b.Fatal(err)
				}
				last = rs.SteadyOverhead()
			}
			b.ReportMetric(100*last, "overhead%")
			b.ReportMetric(float64(pr.TotalCalls)*float64(b.N)/b.Elapsed().Seconds(), "simcalls/s")
		})
		b.Run(name+"/dacce", func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				d := core.New(w.P, core.Options{})
				m := machine.New(w.P, d, machine.Config{SampleEvery: 256, DropSamples: true, SteadyAfterCalls: steady, Seed: pr.Seed + 1})
				rs, err := m.Run()
				if err != nil {
					b.Fatal(err)
				}
				last = rs.SteadyOverhead()
			}
			b.ReportMetric(100*last, "overhead%")
			b.ReportMetric(float64(pr.TotalCalls)*float64(b.N)/b.Elapsed().Seconds(), "simcalls/s")
		})
	}
}

// BenchmarkFig9Progress regenerates Figure 9: the growth of the encoded
// graph over time for the four benchmarks the paper plots.
func BenchmarkFig9Progress(b *testing.B) {
	for _, name := range experiments.Fig9Names {
		b.Run(name, func(b *testing.B) {
			var s *stats.Series
			for i := 0; i < b.N; i++ {
				var err error
				s, err = experiments.Fig9(name, experiments.RunConfig{Calls: benchCalls})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.Len()), "points")
		})
	}
}

// BenchmarkFig10StackDepth regenerates Figure 10: the cumulative
// distributions of call-stack depth and ccStack depth.
func BenchmarkFig10StackDepth(b *testing.B) {
	for _, name := range experiments.Fig10Names {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig10(name, experiments.RunConfig{Calls: benchCalls}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchemes compares the per-call wall cost of every scheme on
// one mid-size workload — the related-work spectrum (§7): nothing <
// pcc < encoding schemes < cct, with stackwalk paying at capture time.
func BenchmarkSchemes(b *testing.B) {
	pr := mustProfile(b, "456.hmmer")
	w := workload.MustBuild(pr)
	prof, err := w.CollectProfile()
	if err != nil {
		b.Fatal(err)
	}
	mk := map[string]func() machine.Scheme{
		"null":      func() machine.Scheme { return machine.NullScheme{} },
		"pcc":       func() machine.Scheme { return dacce.NewPCC() },
		"stackwalk": func() machine.Scheme { return dacce.NewStackWalk() },
		"dacce":     func() machine.Scheme { return core.New(w.P, core.Options{}) },
		"pcce":      func() machine.Scheme { return pcce.New(w.P, pcce.Profile(prof), pcce.Options{}) },
		"cct":       func() machine.Scheme { return dacce.NewCCT() },
	}
	for _, name := range []string{"null", "pcc", "stackwalk", "dacce", "pcce", "cct"} {
		b.Run(name, func(b *testing.B) {
			var overhead float64
			for i := 0; i < b.N; i++ {
				m := machine.New(w.P, mk[name](), machine.Config{SampleEvery: 256, DropSamples: true, Seed: pr.Seed + 1})
				rs, err := m.Run()
				if err != nil {
					b.Fatal(err)
				}
				overhead = rs.Overhead()
			}
			b.ReportMetric(100*overhead, "overhead%")
		})
	}
}

// BenchmarkAblationRecursionCompression measures the Fig. 5e counter
// compression: ccStack traffic and max depth with and without it on the
// recursion-heavy gobmk workload.
func BenchmarkAblationRecursionCompression(b *testing.B) {
	pr := mustProfile(b, "445.gobmk")
	w := workload.MustBuild(pr)
	for _, cfg := range []struct {
		name string
		opt  core.Options
	}{
		{"compress", core.Options{CompressMinPushes: 16}},
		{"nocompress", core.Options{CompressMinPushes: 1 << 60}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var rs *machine.RunStats
			for i := 0; i < b.N; i++ {
				d := core.New(w.P, cfg.opt)
				m := machine.New(w.P, d, machine.Config{SampleEvery: 256, DropSamples: true, Seed: pr.Seed + 1})
				var err error
				rs, err = m.Run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rs.C.MaxCCDepth), "maxCCDepth")
			b.ReportMetric(float64(rs.C.CCPush), "ccPushes")
			b.ReportMetric(100*rs.Overhead(), "overhead%")
		})
	}
}

// BenchmarkAblationIndirectHash measures the Fig. 4 hash dispatch
// against pure inline comparison chains on the many-target x264
// workload (the paper's §6.4 x264 discussion).
func BenchmarkAblationIndirectHash(b *testing.B) {
	pr := mustProfile(b, "x264")
	w := workload.MustBuild(pr)
	for _, cfg := range []struct {
		name string
		opt  core.Options
	}{
		{"hash", core.Options{InlineThreshold: 4}},
		{"inlineonly", core.Options{InlineThreshold: 1 << 30}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var rs *machine.RunStats
			for i := 0; i < b.N; i++ {
				d := core.New(w.P, cfg.opt)
				m := machine.New(w.P, d, machine.Config{SampleEvery: 256, DropSamples: true, Seed: pr.Seed + 1})
				var err error
				rs, err = m.Run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rs.C.Compares), "compares")
			b.ReportMetric(float64(rs.C.HashProbes), "probes")
			b.ReportMetric(100*rs.Overhead(), "overhead%")
		})
	}
}

// BenchmarkAblationHotFirst measures the hottest-edge-gets-code-0
// ordering (§4): without it, hot paths keep their id arithmetic.
func BenchmarkAblationHotFirst(b *testing.B) {
	pr := mustProfile(b, "458.sjeng")
	w := workload.MustBuild(pr)
	for _, cfg := range []struct {
		name string
		opt  core.Options
	}{
		{"hotfirst", core.Options{}},
		{"unordered", core.Options{NoHotFirst: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var rs *machine.RunStats
			for i := 0; i < b.N; i++ {
				d := core.New(w.P, cfg.opt)
				m := machine.New(w.P, d, machine.Config{SampleEvery: 256, DropSamples: true, Seed: pr.Seed + 1})
				var err error
				rs, err = m.Run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*rs.Overhead(), "overhead%")
		})
	}
}

// BenchmarkAblationAdaptivity caps re-encoding after the first pass
// ("dynamic but not adaptive"): later-discovered and phase-shifted hot
// edges stay on the ccStack, inflating traffic — the reason the paper
// is *adaptive*, not just dynamic.
func BenchmarkAblationAdaptivity(b *testing.B) {
	pr := mustProfile(b, "483.xalancbmk")
	w := workload.MustBuild(pr)
	for _, cfg := range []struct {
		name string
		opt  core.Options
	}{
		{"adaptive", core.Options{}},
		{"frozen", core.Options{MaxReencodes: 1}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var rs *machine.RunStats
			for i := 0; i < b.N; i++ {
				d := core.New(w.P, cfg.opt)
				m := machine.New(w.P, d, machine.Config{SampleEvery: 256, DropSamples: true, Seed: pr.Seed + 1})
				var err error
				rs, err = m.Run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rs.C.CCPush), "ccPushes")
			b.ReportMetric(100*rs.Overhead(), "overhead%")
		})
	}
}

// BenchmarkEncodePass measures one re-encoding pass (numbering +
// back-edge classification) on the largest discovered graph — the
// latency every stop-the-world pays.
func BenchmarkEncodePass(b *testing.B) {
	pr := mustProfile(b, "403.gcc")
	w := workload.MustBuild(pr)
	d := core.New(w.P, core.Options{})
	m := machine.New(w.P, d, machine.Config{SampleEvery: 512, DropSamples: true, Seed: pr.Seed + 1})
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(d.Graph().NumEdges()), "edges")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ForceReencode(nil)
	}
}

// BenchmarkDecode measures decoding captures back into call paths — the
// offline analysis cost.
func BenchmarkDecode(b *testing.B) {
	pr := mustProfile(b, "445.gobmk")
	w := workload.MustBuild(pr)
	d := core.New(w.P, core.Options{})
	m := machine.New(w.P, d, machine.Config{SampleEvery: 64, Seed: pr.Seed + 1})
	rs, err := m.Run()
	if err != nil {
		b.Fatal(err)
	}
	if len(rs.Samples) == 0 {
		b.Fatal("no samples")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := rs.Samples[i%len(rs.Samples)]
		if _, err := d.DecodeSample(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCapture measures taking one context snapshot, the operation
// client tools (race detectors, event loggers) perform on their hot
// paths — the reason encoding beats stack walking (§1).
func BenchmarkCapture(b *testing.B) {
	bld := dacce.NewBuilder()
	mainF := bld.Func("main")
	leaf := bld.Func("leaf")
	site := bld.CallSite(mainF, leaf)
	var d *core.DACCE
	var th *machine.Thread
	stop := make(chan struct{})
	done := make(chan struct{})
	bld.Body(mainF, func(x dacce.Exec) { x.Call(site, dacce.NoFunc) })
	bld.Body(leaf, func(x dacce.Exec) {
		th = x.(*machine.Thread)
		close(done)
		<-stop
	})
	p := bld.MustBuild()
	d = core.New(p, core.Options{})
	m := machine.New(p, d, machine.Config{})
	go func() { _, _ = m.Run() }()
	<-done
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Capture(th)
	}
	b.StopTimer()
	close(stop)
}

// BenchmarkTelemetry quantifies the cost of the telemetry layer on a
// full DACCE workload run. The nil-sink variant is the library default
// and must stay within noise of no telemetry at all — every emission
// site guards on the sink before constructing an event, so disabled
// telemetry costs one predicted branch. The counting variant bounds the
// per-event cost of the cheapest real sink, and the metrics variant the
// full registry pipeline.
func BenchmarkTelemetry(b *testing.B) {
	pr := mustProfile(b, "445.gobmk")
	w := workload.MustBuild(pr)
	run := func(b *testing.B, sink dacce.Sink) {
		for i := 0; i < b.N; i++ {
			d := core.New(w.P, core.Options{Sink: sink})
			m := machine.New(w.P, machine.Instrument(d, sink), machine.Config{SampleEvery: 256, DropSamples: true, Seed: pr.Seed + 1})
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(pr.TotalCalls)*float64(b.N)/b.Elapsed().Seconds(), "simcalls/s")
	}
	b.Run("NilSink", func(b *testing.B) { run(b, nil) })
	b.Run("Counting", func(b *testing.B) { run(b, &dacce.CountingSink{}) })
	b.Run("Metrics", func(b *testing.B) { run(b, dacce.NewTelemetry()) })
}
