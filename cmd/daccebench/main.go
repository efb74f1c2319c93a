// Command daccebench regenerates the paper's evaluation artifacts:
//
//	daccebench table1 [-calls N] [-bench name,name]   Table 1
//	daccebench fig8   [-calls N] [-bench ...]         Figure 8 overhead
//	daccebench fig9   [-calls N] [-bench ...]         Figure 9 progress series
//	daccebench fig10  [-calls N] [-bench ...]         Figure 10 depth CDFs
//	daccebench evict  [-rounds 120]                   epoch-retirement reclamation suite
//	daccebench adversarial [-targets 2,16,1024]       adversarial-workload suite
//	daccebench pause  [-edges 10000,1000000]          pause-vs-graph-size suite
//	daccebench all    [-calls N]                      everything
//
// Every subcommand accepts -cpuprofile/-memprofile (pprof output) and
// -bench-json (machine-readable results; the evict, adversarial and
// pause suites write the committed BENCH_evict.json,
// BENCH_adversarial.json and BENCH_pause.json formats). Results print
// to stdout; progress goes to stderr. Wall-clock throughput of an
// instrumented run and of dacced is perfbench's job (perfbench/).
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
	os.Exit(run(os.Args[1:]))
}

// run executes one subcommand (args[0]) with its flags and returns the
// process exit code.
func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	calls := fs.Int64("calls", 0, "calls per benchmark (0 = profile default)")
	benchList := fs.String("bench", "", "comma-separated benchmark subset")
	sample := fs.Int64("sample", 256, "sampling period in calls")
	profileFile := fs.String("profiles", "", "JSON file of custom workload profiles (see 'daccebench dump-profiles')")
	tel := cliutil.AddTelemetry(fs)
	version := cliutil.AddVersion(fs)
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := fs.String("memprofile", "", "write a heap profile to this file on exit")
	benchJSON := fs.String("bench-json", "", "write machine-readable results (JSON) to this file")
	threadsFlag := fs.String("threads", "", "evict: machine threads (default 2); adversarial: churn-leg threads (default 64); a comma-separated list uses its first value")
	reps := fs.Int("reps", 0, "pause: measured passes per cell (default 5)")
	rounds := fs.Int("rounds", 0, "evict: epoch retirements per plane (default 120)")
	targets := fs.String("targets", "", "adversarial: comma-separated mega-indirect target counts (default 2,4,8,16,64,256,1024)")
	depth := fs.Int("depth", 0, "adversarial: recursion-torture depth (default 100000)")
	edgesFlag := fs.String("edges", "", "pause: comma-separated base graph sizes (default 10000,100000,1000000)")
	deltasFlag := fs.String("deltas", "", "pause: comma-separated per-pass injection sizes (default 64,4096)")
	modesFlag := fs.String("modes", "", "pause: comma-separated modes (default incremental,full)")
	sloPauseP99 := fs.Float64("slo-pause-p99", 0, "pause: fail if any incremental p99 pause exceeds this many microseconds (0 = off)")
	_ = fs.Parse(args[1:])

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
	switch cmd {
	case "table1", "fig8":
		err = runTable1(*profileFile, *benchList, cfg, cmd == "fig8")
	case "fig9":
		err = runFig9(names(*benchList, experiments.Fig9Names), cfg)
	case "fig10":
		err = runFig10(names(*benchList, experiments.Fig10Names), cfg)
	case "report":
		out := "EXPERIMENTS.md"
		if rest := fs.Args(); len(rest) > 0 {
			out = rest[0]
		}
		err = runReport(out, cfg)
	case "evict":
		err = runEvict(*threadsFlag, *rounds, *calls, *sample, *benchJSON)
	case "adversarial":
		err = runAdversarial(*targets, *threadsFlag, *calls, *sample, *depth, *benchJSON)
	case "pause":
		err = runPause(*edgesFlag, *deltasFlag, *modesFlag, *reps, *sloPauseP99, *benchJSON)
	case "all":
		if err = runTable1(*profileFile, *benchList, cfg, true); err == nil {
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
	fmt.Fprintln(os.Stderr, "usage: daccebench {table1|fig8|fig9|fig10|evict|adversarial|pause|all|report [file]|dump-profiles|version} [-calls N] [-bench a,b] [-sample N] [-threads N] [-reps N] [-rounds N] [-targets 2,16,1024] [-depth N] [-edges 10000,1000000] [-deltas 64,4096] [-modes incremental,full] [-slo-pause-p99 US] [-profiles file.json] [-metrics] [-metrics-format prom|json] [-trace-out file.json] [-flight-recorder N] [-cpuprofile file] [-memprofile file] [-bench-json file]")
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

// loadProfiles returns the workloads a Table 1 run covers: the
// -profiles file when given, else the -bench subset (all profiles when
// empty).
func loadProfiles(file, list string) ([]workload.Profile, error) {
	if file != "" {
		return workload.LoadProfilesFile(file)
	}
	if list == "" {
		return workload.Profiles(), nil
	}
	var out []workload.Profile
	for _, n := range strings.Split(list, ",") {
		pr, ok := workload.ByName(strings.TrimSpace(n))
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q (see workload.Names)", n)
		}
		out = append(out, pr)
	}
	return out, nil
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

func runTable1(profileFile, benchList string, cfg experiments.RunConfig, fig8 bool) error {
	profiles, err := loadProfiles(profileFile, benchList)
	if err != nil {
		return err
	}
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
