package experiments

import (
	"fmt"
	"runtime"
	"sort"

	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/prog"
)

// PauseConfig parameterizes the pause-vs-graph-size suite: how long a
// re-encoding pass stops the world as the graph grows, for a fixed
// small delta of newly discovered edges. The suite stages synthetic
// graphs of 10k–1M edges, injects a delta through the same bookkeeping
// a runtime-handler trap performs, and measures one pass per rep under
// two regimes:
//
//   - incremental: bounded-pause pass (core.ReencodeNow with
//     incremental renumbering) — concurrent prepare, delta stub
//     rebuild, delta decode index, selective thread translation. The
//     pause should scale with the delta, not the graph.
//   - full: concurrent prepare with full renumbering — the assignment
//     and index are still computed off-pause, but every site is rebuilt
//     inside the pause. Isolates the delta-rebuild win from the
//     concurrent-prepare win.
//
// No application threads run: the measured pause is the runtime's own
// work, which is exactly the quantity that must stop scaling with graph
// size.
type PauseConfig struct {
	// Edges lists the base graph sizes to sweep (default 10k, 100k, 1M).
	Edges []int
	// Deltas lists the per-pass injection sizes (default 64, 4096).
	Deltas []int
	// Reps is how many delta+pass rounds are measured per configuration
	// (default 5).
	Reps int
	// Modes selects the regimes (default incremental, full).
	Modes []string
	// SLOPauseP99Us, when > 0, makes the suite fail if any incremental
	// row's p99 pause exceeds this many microseconds — the CI smoke
	// gate.
	SLOPauseP99Us float64
}

func (c *PauseConfig) fill() {
	if len(c.Edges) == 0 {
		c.Edges = []int{10_000, 100_000, 1_000_000}
	}
	if len(c.Deltas) == 0 {
		c.Deltas = []int{64, 4096}
	}
	if c.Reps == 0 {
		c.Reps = 5
	}
	if len(c.Modes) == 0 {
		c.Modes = []string{"incremental", "full"}
	}
}

// PauseRow is one measured (edges, delta, mode) configuration. Pause
// quantiles come from the per-pass PauseNanos of the measured epochs
// only — the staging passes (cold Install, the epoch-1 seed encode) are
// excluded.
type PauseRow struct {
	Edges int    `json:"edges"`
	Delta int    `json:"delta"`
	Mode  string `json:"mode"`
	// Passes is the number of measured passes (== Reps), and
	// IncrementalPasses how many of them the incremental renumbering
	// actually served (should equal Passes in incremental mode: the
	// staged deltas never force a fallback).
	Passes            int `json:"passes"`
	IncrementalPasses int `json:"incremental_passes"`

	PauseP50Us float64 `json:"pause_p50_us"`
	PauseP99Us float64 `json:"pause_p99_us"`
	PauseMaxUs float64 `json:"pause_max_us"`
	// PrepareMeanUs is the mean off-pause prepare duration.
	PrepareMeanUs float64 `json:"prepare_mean_us"`

	// Mean per-phase wall time across the measured passes. Renumber and
	// index run off-pause; stub and translate run inside the pause.
	RenumberMeanUs  float64 `json:"renumber_mean_us"`
	IndexMeanUs     float64 `json:"index_mean_us"`
	StubMeanUs      float64 `json:"stub_mean_us"`
	TranslateMeanUs float64 `json:"translate_mean_us"`

	// Mean per-pass work volume.
	ChangedEdges float64 `json:"changed_edges"`
	SitesRebuilt float64 `json:"sites_rebuilt"`
}

// PauseReport is the suite's result, serialized as BENCH_pause.json.
type PauseReport struct {
	Config     PauseConfig `json:"config"`
	GoMaxProcs int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`
	Rows       []PauseRow  `json:"rows"`
	// P99RatioFullOverIncr maps "edges/delta" to the full/incremental
	// p99 pause ratio — the headline bounded-pause number (present when
	// both modes were run).
	P99RatioFullOverIncr map[string]float64 `json:"p99_ratio_full_over_incremental,omitempty"`
}

// pauseProgram is the staged topology: main calls every function of a
// caller tier; each caller owns the direct sites of a slice of the leaf
// tier. Base edges: main→caller (W) plus caller→leaf (E−W), every one
// through its own site. On top, reps×delta reserved direct sites —
// undiscovered at seed time — target existing leaves round-robin, so a
// delta injection adds exactly delta new edges whose affected set is
// leaf-only (leaves have no out-edges, so incremental renumbering never
// cascades past them — the small-delta regime the bounded-pause pass is
// built for).
type pauseProgram struct {
	p          *prog.Program
	baseSites  []prog.SiteID // base edges, in injection order
	baseFns    []prog.FuncID
	deltaSites []prog.SiteID // reserved delta edges, consumed reps at a time
	deltaFns   []prog.FuncID
}

func buildPauseProgram(edges, delta, reps int) (*pauseProgram, error) {
	callers := 256
	if callers > edges/4 {
		callers = edges / 4
	}
	if callers < 1 {
		callers = 1
	}
	leaves := edges - callers
	if leaves < 1 {
		return nil, fmt.Errorf("pause: %d edges leave no room for a leaf tier", edges)
	}

	b := prog.NewBuilder()
	main := b.Func("main")
	pp := &pauseProgram{}

	callerFns := make([]prog.FuncID, callers)
	for i := range callerFns {
		callerFns[i] = b.Func(fmt.Sprintf("c%d", i))
		pp.baseSites = append(pp.baseSites, b.CallSite(main, callerFns[i]))
		pp.baseFns = append(pp.baseFns, callerFns[i])
	}
	leafFns := make([]prog.FuncID, leaves)
	for i := range leafFns {
		leafFns[i] = b.Func(fmt.Sprintf("l%d", i))
		caller := callerFns[i%callers]
		pp.baseSites = append(pp.baseSites, b.CallSite(caller, leafFns[i]))
		pp.baseFns = append(pp.baseFns, leafFns[i])
	}
	for i := 0; i < delta*reps; i++ {
		target := leafFns[i%leaves]
		caller := callerFns[(i/leaves)%callers]
		pp.deltaSites = append(pp.deltaSites, b.CallSite(caller, target))
		pp.deltaFns = append(pp.deltaFns, target)
	}
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	pp.p = p
	return pp, nil
}

func (pp *pauseProgram) discoveries(sites []prog.SiteID, fns []prog.FuncID) []core.Discovery {
	ds := make([]core.Discovery, len(sites))
	for i := range sites {
		ds[i] = core.Discovery{Site: sites[i], Fn: fns[i], Freq: 1}
	}
	return ds
}

// quantileNs returns the nearest-rank q-quantile of ns in microseconds.
func quantileNs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / 1e3
}

func meanUs(total int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / 1e3
}

// Pause runs the pause-vs-graph-size suite and returns the report.
func Pause(cfg PauseConfig) (*PauseReport, error) {
	cfg.fill()
	rep := &PauseReport{
		Config:               cfg,
		GoMaxProcs:           runtime.GOMAXPROCS(0),
		NumCPU:               runtime.NumCPU(),
		P99RatioFullOverIncr: map[string]float64{},
	}

	for _, edges := range cfg.Edges {
		for _, delta := range cfg.Deltas {
			pp, err := buildPauseProgram(edges, delta, cfg.Reps)
			if err != nil {
				return nil, err
			}
			p99ByMode := map[string]float64{}
			for _, mode := range cfg.Modes {
				row, err := runPauseMode(pp, edges, delta, mode, cfg.Reps)
				if err != nil {
					return nil, err
				}
				rep.Rows = append(rep.Rows, *row)
				p99ByMode[mode] = row.PauseP99Us
				if cfg.SLOPauseP99Us > 0 && mode == "incremental" && row.PauseP99Us > cfg.SLOPauseP99Us {
					return rep, fmt.Errorf(
						"pause: SLO breach: incremental p99 pause %.1fus > %.1fus at edges=%d delta=%d",
						row.PauseP99Us, cfg.SLOPauseP99Us, edges, delta)
				}
			}
			if incr, ok := p99ByMode["incremental"]; ok && incr > 0 {
				if full, ok := p99ByMode["full"]; ok {
					rep.P99RatioFullOverIncr[fmt.Sprintf("%d/%d", edges, delta)] = full / incr
				}
			}
			// The staged programs are large; drop each before building the
			// next so peak memory stays one configuration's worth.
			pp = nil
			runtime.GC()
		}
	}
	return rep, nil
}

// runPauseMode stages one encoder — base graph injected, machine
// installed, one full seed pass so an incremental chain has a previous
// epoch — then measures cfg.Reps delta+pass rounds under the given
// mode.
func runPauseMode(pp *pauseProgram, edges, delta int, mode string, reps int) (*PauseRow, error) {
	d := core.New(pp.p, core.Options{})
	// Base edges first, with no machine installed: no stubs exist yet, so
	// staging skips reps×thousands of per-site rebuilds.
	d.InjectDiscoveries(pp.discoveries(pp.baseSites, pp.baseFns))
	m := machine.New(pp.p, d, machine.Config{})
	d.Install(m)
	// Seed pass: epoch 1, full encode. Gives the incremental mode the
	// previous assignment Refresh chains from, and all modes an equal
	// starting state.
	d.ForceReencode(nil)

	for rep := 0; rep < reps; rep++ {
		batch := pp.discoveries(
			pp.deltaSites[rep*delta:(rep+1)*delta],
			pp.deltaFns[rep*delta:(rep+1)*delta])
		d.InjectDiscoveries(batch)
		switch mode {
		case "incremental":
			d.ReencodeNow(nil, true)
		case "full":
			d.ReencodeNow(nil, false)
		default:
			return nil, fmt.Errorf("pause: unknown mode %q", mode)
		}
	}

	st := d.Stats()
	if len(st.History) < reps {
		return nil, fmt.Errorf("pause: %s: %d passes ran, want >= %d", mode, len(st.History), reps)
	}
	measured := st.History[len(st.History)-reps:]
	row := &PauseRow{Edges: edges, Delta: delta, Mode: mode, Passes: len(measured)}
	var pauses []int64
	var prep, renum, index, stub, translate, changed, rebuilt int64
	for _, er := range measured {
		pauses = append(pauses, er.PauseNanos)
		prep += er.PrepareNanos
		renum += er.RenumberNanos
		index += er.IndexNanos
		stub += er.StubNanos
		translate += er.TranslateNanos
		changed += int64(er.ChangedEdges)
		rebuilt += int64(er.SitesRebuilt)
		if er.Incremental {
			row.IncrementalPasses++
		}
	}
	n := len(measured)
	row.PauseP50Us = quantileNs(pauses, 0.50)
	row.PauseP99Us = quantileNs(pauses, 0.99)
	row.PauseMaxUs = quantileNs(pauses, 1.0)
	row.PrepareMeanUs = meanUs(prep, n)
	row.RenumberMeanUs = meanUs(renum, n)
	row.IndexMeanUs = meanUs(index, n)
	row.StubMeanUs = meanUs(stub, n)
	row.TranslateMeanUs = meanUs(translate, n)
	row.ChangedEdges = float64(changed) / float64(n)
	row.SitesRebuilt = float64(rebuilt) / float64(n)
	return row, nil
}
