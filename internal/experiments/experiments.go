// Package experiments regenerates the paper's evaluation: Table 1
// (benchmark characteristics under PCCE and DACCE), Figure 8 (runtime
// overhead), Figure 9 (encoding progress over time) and Figure 10
// (cumulative stack-depth distributions). The same entry points back
// the daccebench binary and the root-level Go benchmarks.
package experiments

import (
	"fmt"
	"io"

	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/pcce"
	"dacce/internal/stats"
	"dacce/internal/telemetry"
	"dacce/internal/workload"
)

// RunConfig scales the experiments.
type RunConfig struct {
	// Calls overrides each profile's TotalCalls when > 0.
	Calls int64
	// SampleEvery is the sampling period in calls (default 256); DACCE's
	// adaptive controller consumes the samples, as in the paper.
	SampleEvery int64
	// KeepSamples retains samples for depth CDFs (Fig. 10).
	KeepSamples bool
	// Sink receives telemetry events from every run when non-nil: the
	// DACCE encoder's event stream plus, via machine.Instrument, thread
	// lifecycle and sampling events from the baselines too.
	Sink telemetry.Sink
}

func (c *RunConfig) fill() {
	if c.SampleEvery == 0 {
		c.SampleEvery = 256
	}
}

// SchemeResult is one scheme's view of one benchmark run.
type SchemeResult struct {
	Nodes    int
	Edges    int
	MaxID    uint64
	Overflow bool
	CCPerSec float64
	CCDepth  float64
	Overhead float64
	GTS      int     // DACCE only
	CostUs   float64 // DACCE only: total re-encoding cost
}

// BenchResult is one benchmark's Table 1 row.
type BenchResult struct {
	Profile     workload.Profile
	Paper       workload.PaperRow
	PCCE        SchemeResult
	DACCE       SchemeResult
	CallsPerSec float64

	// DACCEStats/Samples are retained for the figure harnesses.
	DACCEStats   *core.Stats
	DACCESamples []machine.Sample
	DACCE_       *core.DACCE
}

// RunBenchmark executes one benchmark under PCCE and DACCE and collects
// the Table 1 columns.
func RunBenchmark(pr workload.Profile, cfg RunConfig) (*BenchResult, error) {
	cfg.fill()
	if cfg.Calls > 0 {
		pr.TotalCalls = cfg.Calls
	}
	w, err := workload.Build(pr)
	if err != nil {
		return nil, err
	}
	res := &BenchResult{Profile: pr}
	for _, p := range workload.PaperRows() {
		if p.Name == pr.Name {
			res.Paper = p
		}
	}

	// PCCE: profiling run first, then the measured run.
	prof, err := w.CollectProfile()
	if err != nil {
		return nil, fmt.Errorf("%s: profiling run: %w", pr.Name, err)
	}
	steady := pr.TotalCalls / int64(pr.Threads) / 2
	ps := pcce.New(w.P, pcce.Profile(prof), pcce.Options{})
	pm := w.NewMachine(machine.Instrument(ps, cfg.Sink), machine.Config{SampleEvery: cfg.SampleEvery, DropSamples: !cfg.KeepSamples, SteadyAfterCalls: steady})
	prs, err := pm.Run()
	if err != nil {
		return nil, fmt.Errorf("%s: pcce run: %w", pr.Name, err)
	}
	res.PCCE = SchemeResult{
		Nodes:    ps.Graph().NumNodes(),
		Edges:    ps.Graph().NumEdges(),
		MaxID:    ps.Assignment().UnrestrictedMaxID,
		Overflow: ps.Overflowed(),
		CCPerSec: prs.CCOpsPerSecond(),
		CCDepth:  prs.C.AvgCCDepth(),
		Overhead: prs.SteadyOverhead(),
	}

	// DACCE.
	d := core.New(w.P, core.Options{TrackProgress: true, Sink: cfg.Sink})
	dm := w.NewMachine(machine.Instrument(d, cfg.Sink), machine.Config{SampleEvery: cfg.SampleEvery, DropSamples: !cfg.KeepSamples, SteadyAfterCalls: steady})
	drs, err := dm.Run()
	if err != nil {
		return nil, fmt.Errorf("%s: dacce run: %w", pr.Name, err)
	}
	st := d.Stats()
	res.DACCE = SchemeResult{
		Nodes:    st.Nodes,
		Edges:    st.Edges,
		MaxID:    st.MaxID,
		Overflow: st.Overflowed,
		CCPerSec: drs.CCOpsPerSecond(),
		CCDepth:  drs.C.AvgCCDepth(),
		Overhead: drs.SteadyOverhead(),
		GTS:      st.GTS,
		CostUs:   st.ReencodeCostMicros(),
	}
	res.CallsPerSec = drs.CallsPerSecond()
	res.DACCEStats = st
	res.DACCESamples = drs.Samples
	res.DACCE_ = d
	return res, nil
}

// Table1 runs every profile (or the named subset) and returns the rows.
func Table1(profiles []workload.Profile, cfg RunConfig, progress io.Writer) ([]*BenchResult, error) {
	var out []*BenchResult
	for _, pr := range profiles {
		r, err := RunBenchmark(pr, cfg)
		if err != nil {
			return nil, err
		}
		if progress != nil {
			fmt.Fprintf(progress, "  %-16s done (dacce %d nodes / %d edges, gTS %d)\n",
				pr.Name, r.DACCE.Nodes, r.DACCE.Edges, r.DACCE.GTS)
		}
		out = append(out, r)
	}
	return out, nil
}

// RenderTable1 prints the Table 1 analog.
func RenderTable1(rows []*BenchResult, w io.Writer) error {
	t := stats.NewTable("benchmark",
		"pcceNodes", "pcceEdges", "pcceMaxID", "pcceCC/s", "pcceDep",
		"dNodes", "dEdges", "dMaxID", "dCC/s", "dDep", "gTS", "cost(us)", "calls/s")
	for _, r := range rows {
		t.Row(r.Profile.Name,
			fmt.Sprintf("%d", r.PCCE.Nodes),
			fmt.Sprintf("%d", r.PCCE.Edges),
			stats.SciNotation(r.PCCE.MaxID, r.PCCE.Overflow),
			fmt.Sprintf("%.0f", r.PCCE.CCPerSec),
			fmt.Sprintf("%.2f", r.PCCE.CCDepth),
			fmt.Sprintf("%d", r.DACCE.Nodes),
			fmt.Sprintf("%d", r.DACCE.Edges),
			stats.SciNotation(r.DACCE.MaxID, false),
			fmt.Sprintf("%.0f", r.DACCE.CCPerSec),
			fmt.Sprintf("%.2f", r.DACCE.CCDepth),
			fmt.Sprintf("%d", r.DACCE.GTS),
			fmt.Sprintf("%.0f", r.DACCE.CostUs),
			fmt.Sprintf("%.0f", r.CallsPerSec),
		)
	}
	return t.Write(w)
}

// RenderFig8 prints the runtime-overhead comparison with the geomean
// rows the paper reports (≈2.5% PCCE, ≈2% DACCE).
func RenderFig8(rows []*BenchResult, w io.Writer) error {
	t := stats.NewTable("benchmark", "PCCE", "DACCE", "winner")
	var po, do []float64
	for _, r := range rows {
		winner := "dacce"
		if r.PCCE.Overhead < r.DACCE.Overhead {
			winner = "pcce"
		}
		t.Row(r.Profile.Name, stats.Pct(r.PCCE.Overhead), stats.Pct(r.DACCE.Overhead), winner)
		po = append(po, r.PCCE.Overhead)
		do = append(do, r.DACCE.Overhead)
	}
	t.Row("geomean", stats.Pct(overheadGeoMean(po)), stats.Pct(overheadGeoMean(do)), "")
	return t.Write(w)
}

// overheadGeoMean floors each overhead at 0.2% before the geometric
// mean: many low-call-rate benchmarks measure ≈0%, and a geometric mean
// over true zeros is meaningless (the paper's bars bottom out at a
// visible fraction of a percent too).
func overheadGeoMean(xs []float64) float64 {
	fl := make([]float64, len(xs))
	for i, x := range xs {
		if x < 0.002 {
			x = 0.002
		}
		fl[i] = x
	}
	return stats.GeoMean(fl)
}

// Fig9Names are the four benchmarks the paper plots.
var Fig9Names = []string{"445.gobmk", "483.xalancbmk", "458.sjeng", "433.milc"}

// Fig9 runs one benchmark with progress tracking and returns the
// (sample, nodes, edges, maxID) series.
func Fig9(name string, cfg RunConfig) (*stats.Series, error) {
	cfg.fill()
	pr, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
	if cfg.Calls > 0 {
		pr.TotalCalls = cfg.Calls
	}
	w, err := workload.Build(pr)
	if err != nil {
		return nil, err
	}
	d := core.New(w.P, core.Options{TrackProgress: true, ProgressEvery: 4, Sink: cfg.Sink})
	m := w.NewMachine(machine.Instrument(d, cfg.Sink), machine.Config{SampleEvery: cfg.SampleEvery, DropSamples: true})
	if _, err := m.Run(); err != nil {
		return nil, err
	}
	s := stats.NewSeries("sample", "nodes", "edges", "maxID", "epoch")
	for _, p := range d.Stats().Progress {
		s.Add(float64(p.Sample), float64(p.Nodes), float64(p.Edges), float64(p.MaxID), float64(p.Epoch))
	}
	return s, nil
}

// Fig10Names are the four benchmarks the paper plots.
var Fig10Names = []string{"x264", "445.gobmk", "459.GemsFDTD", "483.xalancbmk"}

// Fig10 runs one benchmark retaining samples and returns the cumulative
// distributions of call-stack depth and ccStack depth.
func Fig10(name string, cfg RunConfig) (*stats.Series, error) {
	cfg.fill()
	cfg.KeepSamples = true
	pr, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
	if cfg.Calls > 0 {
		pr.TotalCalls = cfg.Calls
	}
	w, err := workload.Build(pr)
	if err != nil {
		return nil, err
	}
	d := core.New(w.P, core.Options{Sink: cfg.Sink})
	m := w.NewMachine(machine.Instrument(d, cfg.Sink), machine.Config{SampleEvery: cfg.SampleEvery})
	rs, err := m.Run()
	if err != nil {
		return nil, err
	}
	callH, ccH := stats.NewHist(), stats.NewHist()
	for _, s := range rs.Samples {
		callH.Add(len(s.Shadow))
		if c, ok := s.Capture.(*core.Capture); ok {
			ccH.Add(len(c.CC))
		}
	}
	ser := stats.NewSeries("depth", "callstackCDF", "ccstackCDF")
	maxD := callH.Max()
	if ccH.Max() > maxD {
		maxD = ccH.Max()
	}
	points := 40
	if maxD < points {
		points = maxD + 1
	}
	for i := 0; i < points; i++ {
		dep := maxD * i / maxInt(points-1, 1)
		ser.Add(float64(dep), callH.CDFAt(dep), ccH.CDFAt(dep))
	}
	return ser, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
