// Command daccebench regenerates the paper's evaluation artifacts:
//
//	daccebench table1 [-calls N] [-bench name,name]   Table 1
//	daccebench fig8   [-calls N] [-bench ...]         Figure 8 overhead
//	daccebench fig9   [-calls N] [-bench ...]         Figure 9 progress series
//	daccebench fig10  [-calls N] [-bench ...]         Figure 10 depth CDFs
//	daccebench steady [-threads 1,2,4,8]              steady-state scalability suite
//	daccebench warmup [-threads 1,2,4,8]              cold-start scalability suite
//	daccebench obs    [-threads 1,2,4]                observability-overhead suite
//	daccebench stream [-samples 1000000]              streaming-decode firehose suite
//	daccebench evict  [-rounds 120]                   epoch-retirement reclamation suite
//	daccebench adversarial [-targets 2,16,1024]       adversarial-workload suite
//	daccebench pause  [-edges 10000,1000000]          pause-vs-graph-size suite
//	daccebench all    [-calls N]                      everything
//
// Every subcommand accepts -cpuprofile/-memprofile (pprof output) and
// -bench-json (machine-readable results; the steady suite's JSON is
// the committed BENCH_steady_state.json format, the obs suite's the
// committed BENCH_observability.json format). Results print to stdout;
// progress goes to stderr.
//
// `steady -ccprof-out FILE` attaches the always-on streaming context
// profiler to the measured encoder and writes the aggregated context
// profile at exit (pprof protobuf; folded text when the name ends in
// .folded) — the quickest way to flame-graph what the suite executed.
// The warmup table reports the STW re-encode pause p50/p99/max each
// configuration paid, from the encoder's always-on pause histogram.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"dacce/internal/cliutil"
	"dacce/internal/experiments"
	"dacce/internal/workload"
)

func main() {
	// Dispatch through run so deferred profile writers flush before the
	// process exits — os.Exit skips defers.
	os.Exit(run())
}

func run() int {
	if len(os.Args) < 2 {
		usage()
		return 2
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	calls := fs.Int64("calls", 0, "calls per benchmark (0 = profile default)")
	benchList := fs.String("bench", "", "comma-separated benchmark subset")
	sample := fs.Int64("sample", 256, "sampling period in calls")
	profileFile := fs.String("profiles", "", "JSON file of custom workload profiles (see 'daccebench dump-profiles')")
	tel := cliutil.AddTelemetry(fs)
	state := cliutil.AddState(fs)
	version := cliutil.AddVersion(fs)
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := fs.String("memprofile", "", "write a heap profile to this file on exit")
	benchJSON := fs.String("bench-json", "", "write machine-readable results (JSON) to this file")
	threadsFlag := fs.String("threads", "", "steady: comma-separated thread counts (default 1,2,4,8)")
	noReplay := fs.Bool("no-replay", false, "warmup: skip the warm-start replay rows")
	ccprofOut := fs.String("ccprof-out", "", "steady: write the streaming context profile to this file (pprof protobuf; folded text for .folded names)")
	reps := fs.Int("reps", 0, "obs: steady runs per cell, fastest reported (default 3); pause: measured passes per cell (default 5)")
	samples := fs.Int64("samples", 0, "stream: firehose decodes per timed pass (default 1000000)")
	rounds := fs.Int("rounds", 0, "evict: epoch retirements per plane (default 120)")
	targets := fs.String("targets", "", "adversarial: comma-separated mega-indirect target counts (default 2,4,8,16,64,256,1024)")
	depth := fs.Int("depth", 0, "adversarial: recursion-torture depth (default 100000)")
	edgesFlag := fs.String("edges", "", "pause: comma-separated base graph sizes (default 10000,100000,1000000)")
	deltasFlag := fs.String("deltas", "", "pause: comma-separated per-pass injection sizes (default 64,4096)")
	modesFlag := fs.String("modes", "", "pause: comma-separated modes (default incremental,full)")
	sloPauseP99 := fs.Float64("slo-pause-p99", 0, "pause: fail if any incremental p99 pause exceeds this many microseconds (0 = off)")
	_ = fs.Parse(os.Args[2:])

	if *version || cmd == "-version" || cmd == "version" {
		cliutil.PrintVersion("daccebench")
		return 0
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "daccebench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "daccebench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "daccebench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "daccebench:", err)
			}
		}()
	}

	if cmd == "dump-profiles" {
		if err := workload.WriteProfiles(os.Stdout, workload.Profiles()); err != nil {
			fmt.Fprintln(os.Stderr, "daccebench:", err)
			return 1
		}
		return 0
	}

	// Telemetry sinks aggregate across every benchmark run the
	// subcommand performs; snapshots are written once on the way out.
	cfg := experiments.RunConfig{Calls: *calls, SampleEvery: *sample, Sink: tel.Sink()}
	var err error
	profiles := func() []workload.Profile {
		if *profileFile != "" {
			ps, err := workload.LoadProfilesFile(*profileFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "daccebench:", err)
				os.Exit(1)
			}
			return ps
		}
		return selectProfiles(*benchList)
	}

	if state.Active() && cmd != "steady" {
		fmt.Fprintln(os.Stderr, "daccebench: -save-state/-load-state only apply to the steady subcommand")
		return 2
	}

	switch cmd {
	case "table1":
		err = runTable1(profiles(), cfg, false)
	case "fig8":
		err = runTable1(profiles(), cfg, true)
	case "fig9":
		err = runFig9(names(*benchList, experiments.Fig9Names), cfg)
	case "fig10":
		err = runFig10(names(*benchList, experiments.Fig10Names), cfg)
	case "report":
		out := "EXPERIMENTS.md"
		if args := fs.Args(); len(args) > 0 {
			out = args[0]
		}
		err = runReport(out, cfg)
	case "steady":
		err = runSteady(*threadsFlag, *calls, *sample, *benchJSON, *ccprofOut, state)
	case "warmup":
		err = runWarmup(*threadsFlag, *calls, *sample, *noReplay, *benchJSON)
	case "obs":
		err = runObs(*threadsFlag, *calls, *sample, *reps, *benchJSON)
	case "stream":
		err = runStream(*threadsFlag, *samples, *calls, *sample, *benchJSON)
	case "evict":
		err = runEvict(*threadsFlag, *rounds, *calls, *sample, *benchJSON)
	case "adversarial":
		err = runAdversarial(*targets, *threadsFlag, *calls, *sample, *depth, *benchJSON)
	case "pause":
		err = runPause(*edgesFlag, *deltasFlag, *modesFlag, *reps, *sloPauseP99, *benchJSON)
	case "all":
		if err = runTable1(profiles(), cfg, true); err == nil {
			if err = runFig9(experiments.Fig9Names, cfg); err == nil {
				err = runFig10(experiments.Fig10Names, cfg)
			}
		}
	default:
		usage()
		return 2
	}
	if err == nil {
		err = tel.Finish(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "daccebench:", err)
		return 1
	}
	return 0
}

// runSteady drives the multi-threaded steady-state scalability suite
// and renders a summary table; -bench-json additionally writes the full
// report in the BENCH_steady_state.json format.
func runSteady(threadsCSV string, callsPerThread, sampleEvery int64, jsonOut, ccprofOut string, state *cliutil.State) error {
	cfg := experiments.SteadyConfig{
		CallsPerThread: callsPerThread,
		SampleEvery:    sampleEvery,
		LoadState:      state.Load,
		SaveState:      state.Save,
		CcprofOut:      ccprofOut,
	}
	// The shared -sample default (256) suits the figure benchmarks; the
	// steady suite wants its own aggressive default so the sampling
	// controller is part of the measured load.
	if sampleEvery == 256 {
		cfg.SampleEvery = 0
	}
	// -ccprof-out needs one thread count (each generates its own
	// program); default to the largest swept elsewhere.
	if ccprofOut != "" && threadsCSV == "" {
		cfg.Threads = []int{4}
	}
	var err error
	if cfg.Threads, err = parseThreads(threadsCSV, cfg.Threads); err != nil {
		return err
	}
	rep, err := experiments.SteadyState(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# Steady-state scalability (GOMAXPROCS=%d, NumCPU=%d)\n", rep.GoMaxProcs, rep.NumCPU)
	fmt.Printf("%-8s %-7s %14s %14s %8s %7s\n",
		"threads", "phase", "calls/s", "allocs/call", "traps", "epochs")
	for _, r := range rep.Rows {
		fmt.Printf("%-8d %-7s %14.0f %14.4f %8d %7d\n",
			r.Threads, r.Phase, r.CallsPerSec, r.AllocsPerCall, r.HandlerTraps, r.Epochs)
	}
	for _, n := range rep.Config.Threads {
		k := fmt.Sprint(n)
		if s, ok := rep.Scaling[k]; ok {
			fmt.Printf("threads=%s scaling=%.2fx\n", k, s)
		}
	}
	if ccprofOut != "" {
		fmt.Fprintf(os.Stderr, "ccprof: %d contexts written to %s\n", rep.CcprofContexts, ccprofOut)
	}
	return writeReport(jsonOut, "steady", rep)
}

// runWarmup drives the cold-start scalability suite and renders a
// summary table; -bench-json additionally writes the full report in the
// BENCH_warmup.json format.
func runWarmup(threadsCSV string, callsPerThread, sampleEvery int64, noReplay bool, jsonOut string) error {
	cfg := experiments.WarmupConfig{
		CallsPerThread: callsPerThread,
		NoReplay:       noReplay,
	}
	// The shared -sample default (256) suits the figure benchmarks; the
	// warmup suite has its own default (64).
	if sampleEvery != 256 {
		cfg.SampleEvery = sampleEvery
	}
	var err error
	if cfg.Threads, err = parseThreads(threadsCSV, cfg.Threads); err != nil {
		return err
	}
	rep, err := experiments.Warmup(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# Cold-start scalability (GOMAXPROCS=%d, NumCPU=%d)\n", rep.GoMaxProcs, rep.NumCPU)
	fmt.Printf("%-8s %-7s %12s %8s %7s %7s %12s %14s %10s %10s %10s\n",
		"threads", "phase", "traps/s", "traps", "edges", "passes", "stable-ms", "calls/s",
		"pause-p50", "pause-p99", "pause-max")
	for _, r := range rep.Rows {
		fmt.Printf("%-8d %-7s %12.0f %8d %7d %7d %12.2f %14.0f %8.1fus %8.1fus %8.1fus\n",
			r.Threads, r.Phase, r.TrapsPerSec, r.HandlerTraps, r.EdgesDiscovered,
			r.Passes, r.TimeToStableMs, r.CallsPerSec, r.PauseP50Us, r.PauseP99Us, r.PauseMaxUs)
	}
	for _, n := range rep.Config.Threads {
		k := fmt.Sprint(n)
		if tr, ok := rep.ReplayTraps[k]; ok {
			fmt.Printf("threads=%s replay-traps=%d\n", k, tr)
		}
	}
	return writeReport(jsonOut, "warmup", rep)
}

// runObs drives the observability-overhead suite — the steady workload
// with the plane off, with the streaming context profiler attached, and
// with the full plane — and renders a summary table; -bench-json
// additionally writes the full report in the BENCH_observability.json
// format.
func runObs(threadsCSV string, callsPerThread, sampleEvery int64, reps int, jsonOut string) error {
	cfg := experiments.ObservabilityConfig{
		CallsPerThread: callsPerThread,
		Reps:           reps,
	}
	// The shared -sample default (256) suits the figure benchmarks; the
	// obs suite has its own default (64) — the plane's cost is
	// per-sample, so -sample directly sets how hard the suite leans on
	// it.
	if sampleEvery != 256 {
		cfg.SampleEvery = sampleEvery
	}
	var err error
	if cfg.Threads, err = parseThreads(threadsCSV, cfg.Threads); err != nil {
		return err
	}
	rep, err := experiments.Observability(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# Observability overhead (GOMAXPROCS=%d, NumCPU=%d, best of %d)\n",
		rep.GoMaxProcs, rep.NumCPU, rep.Config.Reps)
	fmt.Printf("%-8s %-8s %14s %14s %12s %10s\n",
		"threads", "mode", "calls/s", "allocs/call", "contexts", "overhead")
	for _, r := range rep.Rows {
		fmt.Printf("%-8d %-8s %14.0f %14.4f %12d %9.2f%%\n",
			r.Threads, r.Mode, r.CallsPerSec, r.AllocsPerCall, r.ContextsObserved, r.OverheadPct)
	}
	fmt.Printf("max profiler overhead: %.2f%%\n", rep.MaxProfilerOverheadPct)
	return writeReport(jsonOut, "observability", rep)
}

// runStream drives the streaming-decode firehose suite — a real capture
// corpus replayed through the slice and node decode paths far past DAG
// saturation — and renders a summary; -bench-json additionally writes
// the full report in the BENCH_dag.json format.
func runStream(threadsCSV string, samples, callsPerThread, sampleEvery int64, jsonOut string) error {
	cfg := experiments.StreamConfig{
		Samples:        samples,
		CallsPerThread: callsPerThread,
	}
	// The shared -sample default (256) suits the figure benchmarks; the
	// stream suite wants a dense corpus (default 16).
	if sampleEvery != 256 {
		cfg.SampleEvery = sampleEvery
	}
	threads, err := parseThreads(threadsCSV, nil)
	if err != nil {
		return err
	}
	if len(threads) > 0 {
		cfg.Threads = threads[0]
	}
	rep, err := experiments.Stream(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# Streaming decode firehose (GOMAXPROCS=%d, NumCPU=%d)\n", rep.GoMaxProcs, rep.NumCPU)
	fmt.Printf("corpus: %d captures, %d distinct contexts\n", rep.CorpusCaptures, rep.DistinctContexts)
	fmt.Printf("decoded %d samples per pass:\n", rep.Decoded)
	fmt.Printf("  slice path: %8.1f ns/sample\n", rep.SliceNsPerSample)
	fmt.Printf("  node path:  %8.1f ns/sample  (%.2fx, %.4f allocs/sample warm)\n",
		rep.NodeNsPerSample, rep.NodeSpeedupVsSlice, rep.AllocsPerSampleWarm)
	fmt.Printf("DAG: %d nodes, %.4f intern hit rate, ~%d bytes (%.1f bytes/distinct context)\n",
		rep.DAGNodes, rep.InternHitRate, rep.DAGBytesEstimate, rep.BytesPerDistinctContext)
	fmt.Printf("equality @ depth %d: pointer %0.3f ns/op vs DiffContexts %0.1f ns/op (%.0fx)\n",
		rep.EqualityDepth, rep.PointerEqNsPerOp, rep.DiffContextsNsPerOp, rep.PointerEqSpeedup)
	return writeReport(jsonOut, "stream", rep)
}

// runEvict drives the epoch-retirement reclamation suite — encoder
// plane (generation collection after forced passes) and dacced plane
// (epoch-bucketed memo + /v1/retire) — and renders a summary;
// -bench-json writes the full report in the BENCH_evict.json format.
func runEvict(threadsCSV string, rounds int, callsPerRound, sampleEvery int64, jsonOut string) error {
	cfg := experiments.EvictConfig{
		Rounds:        rounds,
		CallsPerRound: callsPerRound,
	}
	// The shared -sample default (256) suits the figure benchmarks; the
	// evict suite wants dense churn (default 5).
	if sampleEvery != 256 {
		cfg.SampleEvery = sampleEvery
	}
	threads, err := parseThreads(threadsCSV, nil)
	if err != nil {
		return err
	}
	if len(threads) > 0 {
		cfg.Threads = threads[0]
	}
	rep, err := experiments.Evict(cfg)
	if err != nil {
		return err
	}
	verdict := func(ok bool) string {
		if ok {
			return "flat"
		}
		return "GROWING"
	}
	fmt.Printf("# Epoch-retirement reclamation (GOMAXPROCS=%d, NumCPU=%d)\n", rep.GoMaxProcs, rep.NumCPU)
	fmt.Printf("encoder plane: %d retirements, DAG nodes early %d / late peak %d / final %d [%s]\n",
		rep.EncoderRounds, rep.EncoderDAGNodesEarly, rep.EncoderDAGNodesLate,
		rep.EncoderDAGNodesFinal, verdict(rep.EncoderFlat))
	fmt.Printf("  %d collections freed %d nodes\n", rep.EncoderCollections, rep.EncoderCollected)
	fmt.Printf("server plane:  %d retirements, DAG nodes early %d / late peak %d / final %d [%s]\n",
		rep.ServerRounds, rep.ServerDAGNodesEarly, rep.ServerDAGNodesLate,
		rep.ServerDAGNodesFinal, verdict(rep.ServerFlat))
	fmt.Printf("  memo peak %d, final %d, dropped %d entries; DAG collected %d nodes\n",
		rep.ServerMemoPeak, rep.ServerMemoFinal, rep.ServerMemoDropped, rep.ServerCollected)
	fmt.Printf("warm decode with collection enabled: %.4f allocs/decode over %d decodes\n",
		rep.AllocsPerWarmDecode, rep.WarmDecodes)
	if err := writeReport(jsonOut, "evict", rep); err != nil {
		return err
	}
	if !rep.EncoderFlat || !rep.ServerFlat {
		return fmt.Errorf("evict: footprint grew with history (encoder flat=%v, server flat=%v)",
			rep.EncoderFlat, rep.ServerFlat)
	}
	return nil
}

// runAdversarial drives the adversarial-workload suite — the
// inline-chain-vs-hash dispatch crossover sweep, the 64-thread module
// churn run, and the recursion-torture decode-latency probe — and
// renders a summary; -bench-json additionally writes the full report in
// the BENCH_adversarial.json format.
func runAdversarial(targetsCSV, threadsCSV string, calls, sampleEvery int64, depth int, jsonOut string) error {
	cfg := experiments.AdversarialConfig{
		CrossoverCalls: calls,
		TortureDepth:   depth,
	}
	// The shared -sample default (256) suits the figure benchmarks; the
	// adversarial suite has its own default (64).
	if sampleEvery != 256 {
		cfg.SampleEvery = sampleEvery
	}
	var err error
	if cfg.Targets, err = parseThreads(targetsCSV, cfg.Targets); err != nil {
		return fmt.Errorf("bad -targets list: %w", err)
	}
	// -threads picks the churn leg's thread count (first value wins).
	churn, err := parseThreads(threadsCSV, nil)
	if err != nil {
		return err
	}
	if len(churn) > 0 {
		cfg.ChurnThreads = churn[0]
	}
	rep, err := experiments.Adversarial(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# Adversarial workloads (GOMAXPROCS=%d, NumCPU=%d)\n", rep.GoMaxProcs, rep.NumCPU)
	fmt.Println("## Mega-indirect dispatch: inline chain vs hash")
	fmt.Printf("%-8s %-6s %12s %14s %12s %16s %8s\n",
		"targets", "mode", "calls", "compares/call", "probes/call", "instr-cost/call", "traps")
	for _, r := range rep.Crossover {
		fmt.Printf("%-8d %-6s %12d %14.3f %12.3f %16.3f %8d\n",
			r.Targets, r.Mode, r.Calls, r.ComparesPerCall, r.ProbesPerCall, r.InstrCostPerCall, r.HandlerTraps)
	}
	if rep.CrossoverTargets > 0 {
		fmt.Printf("crossover: hash dispatch wins from %d targets\n", rep.CrossoverTargets)
	} else {
		fmt.Println("crossover: inline chain won at every swept fan-out")
	}
	c := rep.Churn
	fmt.Printf("## Module churn @ %d threads: %d loads, %d unloads, %d threads total, %d traps (%.0f traps/s), %d epochs, pause p50/p99/max %.1f/%.1f/%.1fus\n",
		c.Threads, c.ModuleLoads, c.ModuleUnloads, c.SpawnedTotal, c.HandlerTraps, c.TrapsPerSec,
		c.Epochs, c.PauseP50Us, c.PauseP99Us, c.PauseMaxUs)
	tr := rep.Torture
	fmt.Printf("## Recursion torture @ depth %d: max sampled depth %d, ccStack max %d, %d decodes (p50/p99/max %.1f/%.1f/%.1fus), %d mismatches\n",
		tr.Depth, tr.MaxDepth, tr.CcStackMax, tr.Decodes, tr.DecodeP50Us, tr.DecodeP99Us, tr.DecodeMaxUs, tr.Mismatches)
	if err := writeReport(jsonOut, "adversarial", rep); err != nil {
		return err
	}
	if tr.Mismatches > 0 {
		return fmt.Errorf("adversarial: %d torture decodes disagreed with the shadow stack", tr.Mismatches)
	}
	return nil
}

// runPause drives the pause-vs-graph-size suite and renders a summary
// table; -bench-json additionally writes the full report in the
// BENCH_pause.json format. With -slo-pause-p99 the suite exits non-zero
// when any incremental row's p99 pause exceeds the budget — the CI
// smoke gate.
func runPause(edgesCSV, deltasCSV, modesCSV string, reps int, sloPauseP99 float64, jsonOut string) error {
	cfg := experiments.PauseConfig{
		Reps:          reps,
		SLOPauseP99Us: sloPauseP99,
	}
	var err error
	if cfg.Edges, err = parseThreads(edgesCSV, nil); err != nil {
		return fmt.Errorf("bad -edges list: %w", err)
	}
	if cfg.Deltas, err = parseThreads(deltasCSV, nil); err != nil {
		return fmt.Errorf("bad -deltas list: %w", err)
	}
	if modesCSV != "" {
		for _, m := range strings.Split(modesCSV, ",") {
			cfg.Modes = append(cfg.Modes, strings.TrimSpace(m))
		}
	}
	rep, sloErr := experiments.Pause(cfg)
	if rep == nil {
		return sloErr
	}
	fmt.Printf("# Re-encoding pause vs graph size (GOMAXPROCS=%d, NumCPU=%d, %d passes per cell)\n",
		rep.GoMaxProcs, rep.NumCPU, rep.Config.Reps)
	fmt.Printf("%-9s %-7s %-12s %11s %11s %11s %11s %10s %10s\n",
		"edges", "delta", "mode", "pause-p50", "pause-p99", "pause-max", "prep-mean", "changed", "rebuilt")
	for _, r := range rep.Rows {
		fmt.Printf("%-9d %-7d %-12s %9.1fus %9.1fus %9.1fus %9.1fus %10.0f %10.0f\n",
			r.Edges, r.Delta, r.Mode, r.PauseP50Us, r.PauseP99Us, r.PauseMaxUs,
			r.PrepareMeanUs, r.ChangedEdges, r.SitesRebuilt)
	}
	for _, r := range rep.Rows {
		if r.Mode != "incremental" {
			continue
		}
		if v, ok := rep.P99RatioFullOverIncr[fmt.Sprintf("%d/%d", r.Edges, r.Delta)]; ok {
			fmt.Printf("edges=%d delta=%d p99-full/incr=%.1fx\n", r.Edges, r.Delta, v)
		}
	}
	if err := writeReport(jsonOut, "pause", rep); err != nil {
		return err
	}
	return sloErr
}

// writeReport writes a suite's full report as indented JSON to path
// (-bench-json; a no-op when path is empty). Suites call it before
// checking their gates, so a failing run still leaves its report.
func writeReport(path, suite string, rep any) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, suite, "report written to", path)
	return nil
}

// parseThreads parses a -threads CSV, returning def untouched when the
// flag was not given.
func parseThreads(csv string, def []int) ([]int, error) {
	if csv == "" {
		return def, nil
	}
	var out []int
	for _, part := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -threads value %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: daccebench {table1|fig8|fig9|fig10|steady|warmup|obs|stream|evict|adversarial|pause|all|report [file]|dump-profiles|version} [-calls N] [-bench a,b] [-sample N] [-threads 1,2,4,8] [-no-replay] [-reps N] [-samples N] [-rounds N] [-targets 2,16,1024] [-depth N] [-edges 10000,1000000] [-deltas 64,4096] [-modes incremental,full] [-slo-pause-p99 US] [-ccprof-out file] [-save-state file] [-load-state file] [-profiles file.json] [-metrics] [-metrics-format prom|json] [-trace-out file.json] [-flight-recorder N] [-cpuprofile file] [-memprofile file] [-bench-json file]")
}

func runReport(path string, cfg experiments.RunConfig) error {
	if cfg.Calls == 0 {
		cfg.Calls = 300_000
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := experiments.WriteReport(f, cfg, os.Stderr); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "report written to", path)
	return nil
}

func selectProfiles(list string) []workload.Profile {
	if list == "" {
		return workload.Profiles()
	}
	var out []workload.Profile
	for _, n := range strings.Split(list, ",") {
		pr, ok := workload.ByName(strings.TrimSpace(n))
		if !ok {
			fmt.Fprintf(os.Stderr, "daccebench: unknown benchmark %q (see workload.Names)\n", n)
			os.Exit(2)
		}
		out = append(out, pr)
	}
	return out
}

func names(list string, def []string) []string {
	if list == "" {
		return def
	}
	parts := strings.Split(list, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func runTable1(profiles []workload.Profile, cfg experiments.RunConfig, fig8 bool) error {
	rows, err := experiments.Table1(profiles, cfg, os.Stderr)
	if err != nil {
		return err
	}
	if fig8 {
		fmt.Println("# Figure 8: runtime overhead (cost model), PCCE vs DACCE")
		return experiments.RenderFig8(rows, os.Stdout)
	}
	fmt.Println("# Table 1: characteristics under PCCE and DACCE")
	return experiments.RenderTable1(rows, os.Stdout)
}

func runFig9(benchNames []string, cfg experiments.RunConfig) error {
	for _, n := range benchNames {
		s, err := experiments.Fig9(n, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("# Figure 9: encoding progress — %s\n", n)
		if err := s.Write(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func runFig10(benchNames []string, cfg experiments.RunConfig) error {
	for _, n := range benchNames {
		s, err := experiments.Fig10(n, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("# Figure 10: cumulative stack-depth distribution — %s\n", n)
		if err := s.Write(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}
