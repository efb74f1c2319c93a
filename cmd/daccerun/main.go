// Command daccerun executes one synthetic benchmark under a chosen
// calling-context scheme and prints the full counter breakdown — the
// quickest way to inspect what an encoder does on a workload.
//
//	daccerun -bench 483.xalancbmk -scheme dacce [-calls N] [-sample N]
//
// Schemes: null, dacce, pcce, stackwalk, cct, pcc.
//
// Persistence: -save-state writes the warmed encoder snapshot after the
// run; -load-state warm-starts from one, re-installing the discovered
// graph and every epoch's dictionary so the replay executes zero
// handler traps (dacce only).
//
// Offline decode: -dump DIR writes DIR/state.snap, the encoder snapshot
// (the same bytes -save-state writes), and DIR/captures.json, the
// sampled captures, for daccedecode (dacce only).
//
// Telemetry: -metrics prints a metrics snapshot after the run,
// -trace-out writes a Chrome trace-event file (load it in
// chrome://tracing or Perfetto), -flight-recorder keeps a ring buffer
// of the last N events and dumps it on id overflow or decode failure.
//
// Profiling (dacce only): the streaming context profiler rides every
// sample; -ccprof-out writes the aggregate at exit (pprof protobuf, or
// folded text with a .folded name), -debug-listen serves it live at
// /debug/ccprof. -slo-pause-p99/-slo-decode-p99/-slo-trap-backlog arm
// the SLO watchdog: a breach emits an slo_breach event and auto-dumps
// the flight recorder (enabled implicitly when thresholds are set).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dacce/internal/cct"
	"dacce/internal/cliutil"
	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/pcc"
	"dacce/internal/pcce"
	"dacce/internal/persist"
	"dacce/internal/stackwalk"
	"dacce/internal/stats"
	"dacce/internal/workload"
)

func main() {
	bench := flag.String("bench", "429.mcf", "benchmark name (see -list)")
	scheme := flag.String("scheme", "dacce", "null|dacce|pcce|stackwalk|cct|pcc")
	calls := flag.Int64("calls", 0, "total calls (0 = profile default)")
	sample := flag.Int64("sample", 256, "sampling period (0 = off)")
	dump := flag.String("dump", "", "directory to write state.snap + captures.json for daccedecode (dacce only)")
	validate := flag.Bool("validate", false, "cross-validate every sampled context against the shadow stack (dacce/pcce)")
	list := flag.Bool("list", false, "list benchmarks and exit")
	tel := cliutil.AddTelemetry(flag.CommandLine)
	state := cliutil.AddState(flag.CommandLine)
	prof := cliutil.AddProfiler(flag.CommandLine)
	version := cliutil.AddVersion(flag.CommandLine)
	flag.Parse()

	if *version {
		cliutil.PrintVersion("daccerun")
		return
	}
	if *list {
		for _, n := range workload.Names() {
			fmt.Println(n)
		}
		return
	}
	if err := run(*bench, *scheme, *calls, *sample, *dump, *validate, tel, state, prof); err != nil {
		fmt.Fprintln(os.Stderr, "daccerun:", err)
		os.Exit(1)
	}
}

func run(bench, schemeName string, calls, sample int64, dump string, validate bool, tel *cliutil.Telemetry, state *cliutil.State, prof *cliutil.Profiler) error {
	pr, ok := workload.ByName(bench)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", bench)
	}
	if calls > 0 {
		pr.TotalCalls = calls
	}
	w, err := workload.Build(pr)
	if err != nil {
		return err
	}

	// Assemble the telemetry pipeline. All enabled sinks see the same
	// event stream: DACCE emits encoder events through Options.Sink,
	// and Instrument adds thread lifecycle and sampling events for
	// every scheme, baselines included. Armed SLO thresholds implicitly
	// enable the flight recorder so a breach has history to dump.
	prof.EnsureFlight(tel)
	sink := tel.Sink()

	if state.Active() && schemeName != "dacce" {
		return fmt.Errorf("-save-state/-load-state require -scheme dacce")
	}

	var sch machine.Scheme
	var d *core.DACCE
	var ps *pcce.Scheme
	switch schemeName {
	case "null":
		sch = machine.NullScheme{}
	case "dacce":
		d, err = state.NewEncoder(w.P, core.Options{
			TrackProgress:   true,
			Sink:            sink,
			ContextObserver: prof.Observer(w.P),
		})
		if err != nil {
			return err
		}
		if _, err := prof.Start(d, sink, tel.Metrics()); err != nil {
			return err
		}
		if state.Load != "" {
			st := d.Stats()
			fmt.Printf("warm start     %s: epoch %d, %d nodes, %d edges\n", state.Load, d.Epoch(), st.Nodes, st.Edges)
		}
		sch = d
	case "pcce":
		prof, err := w.CollectProfile()
		if err != nil {
			return fmt.Errorf("profiling run: %w", err)
		}
		ps = pcce.New(w.P, pcce.Profile(prof), pcce.Options{})
		sch = ps
	case "stackwalk":
		sch = stackwalk.New()
	case "cct":
		sch = cct.New()
	case "pcc":
		sch = pcc.New()
	default:
		return fmt.Errorf("unknown scheme %q", schemeName)
	}
	sch = machine.Instrument(sch, sink)

	m := w.NewMachine(sch, machine.Config{
		SampleEvery:      sample,
		DropSamples:      dump == "" && !validate,
		SteadyAfterCalls: pr.TotalCalls / int64(pr.Threads) / 3,
	})
	rs, err := m.Run()
	if err != nil {
		return err
	}

	c := rs.C
	fmt.Printf("benchmark      %s (%s), %d threads, seed %d\n", pr.Name, pr.Suite, pr.Threads, pr.Seed)
	fmt.Printf("scheme         %s\n", rs.Scheme)
	fmt.Printf("wall time      %v\n", rs.Elapsed)
	fmt.Printf("calls          %d (%d tail, %d spawns)\n", c.Calls, c.TailCalls, c.Spawns)
	fmt.Printf("model calls/s  %.0f\n", rs.CallsPerSecond())
	fmt.Printf("base cost      %d cycles\n", c.BaseCost)
	fmt.Printf("instr cost     %d cycles\n", c.InstrCost)
	fmt.Printf("overhead       %s whole-run, %s steady-state\n",
		stats.Pct(rs.Overhead()), stats.Pct(rs.SteadyOverhead()))
	fmt.Printf("ccStack        %d push / %d pop / %d peek (%.0f ops/s, avg depth %.2f, max %d)\n",
		c.CCPush, c.CCPop, c.CCPeek, rs.CCOpsPerSecond(), c.AvgCCDepth(), c.MaxCCDepth)
	fmt.Printf("tc saves       %d\n", c.TcSaves)
	fmt.Printf("handler traps  %d\n", c.HandlerTraps)
	fmt.Printf("ind. dispatch  %d compares, %d hash probes\n", c.Compares, c.HashProbes)
	fmt.Printf("stack depth    max %d\n", c.MaxShadowDepth)
	fmt.Printf("samples        %d\n", c.Samples)

	if d != nil {
		st := d.Stats()
		fmt.Printf("dacce          %d nodes, %d edges, maxID %s, gTS %d, re-encode cost %.0f us, tail fixups %d\n",
			st.Nodes, st.Edges, stats.SciNotation(st.MaxID, st.Overflowed), st.GTS, st.ReencodeCostMicros(), st.TailFixups)
		if ph := d.PauseHist().Snapshot(); ph.Count > 0 {
			fmt.Printf("stw pause      %d passes, p50 %v, p99 %v, max %v\n",
				ph.Count, time.Duration(ph.P50), time.Duration(ph.P99), time.Duration(ph.Max))
		}
	}
	if ps != nil {
		fmt.Printf("pcce           %d nodes, %d edges, maxID %s, %d unknown indirect targets\n",
			ps.Graph().NumNodes(), ps.Graph().NumEdges(),
			stats.SciNotation(ps.Assignment().UnrestrictedMaxID, ps.Overflowed()), ps.UnknownTargets())
	}
	if validate {
		decode := func(s machine.Sample) (core.Context, error) {
			switch {
			case d != nil:
				return d.DecodeSample(s)
			case ps != nil:
				return ps.DecodeSample(s)
			default:
				return nil, fmt.Errorf("-validate requires -scheme dacce or pcce")
			}
		}
		spawnShadow := map[int][]machine.ShadowFrame{}
		for _, th := range m.Threads() {
			spawnShadow[th.ID()] = th.SpawnShadow
		}
		bad := 0
		for _, s := range rs.Samples {
			ctx, err := decode(s)
			if err != nil {
				return fmt.Errorf("validation: sample %d/%d: %w", s.Thread, s.Seq, err)
			}
			if !ctx.Equal(core.ShadowContext(spawnShadow[s.Thread], s.Shadow)) {
				bad++
			}
		}
		if bad > 0 {
			return fmt.Errorf("validation FAILED: %d of %d samples mis-decoded", bad, len(rs.Samples))
		}
		fmt.Printf("validation     all %d sampled contexts decode to the exact call path\n", len(rs.Samples))
	}
	if dump != "" {
		if d == nil {
			return fmt.Errorf("-dump requires -scheme dacce")
		}
		if err := writeDump(dump, d, rs.Samples); err != nil {
			return err
		}
		fmt.Printf("dump           snapshot + %d captures written to %s\n", len(rs.Samples), dump)
	}
	if d != nil {
		if err := state.SaveIfSet(d); err != nil {
			return err
		}
	}
	if w := prof.Watchdog(); w != nil {
		if br := w.Breaches(); len(br) > 0 {
			total := int64(0)
			for _, n := range br {
				total += n
			}
			fmt.Printf("slo            %d breach check(s) over threshold: %v\n", total, br)
		} else {
			fmt.Printf("slo            all rules within threshold\n")
		}
	}
	if fr := tel.Flight(); fr != nil && fr.Dumps() == 0 {
		fmt.Printf("flight rec.    %d events buffered, no overflow or decode failure\n", fr.Len())
	}
	if err := prof.Finish(); err != nil {
		return err
	}
	if tel.PrintMetrics {
		fmt.Println()
	}
	return tel.Finish(os.Stdout)
}

// writeDump writes the encoder snapshot and the sampled captures, the
// offline error-reporting pipeline daccedecode consumes.
func writeDump(dir string, d *core.DACCE, samples []machine.Sample) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := persist.SaveEncoder(filepath.Join(dir, "state.snap"), d); err != nil {
		return err
	}
	var captures []*core.Capture
	for _, s := range samples {
		if c, ok := s.Capture.(*core.Capture); ok {
			captures = append(captures, c)
		}
	}
	cf, err := os.Create(filepath.Join(dir, "captures.json"))
	if err != nil {
		return err
	}
	defer cf.Close()
	return json.NewEncoder(cf).Encode(captures)
}
