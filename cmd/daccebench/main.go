// Command daccebench regenerates the paper's evaluation artifacts:
//
//	daccebench table1 [-calls N] [-bench name,name]   Table 1
//	daccebench fig8   [-calls N] [-bench ...]         Figure 8 overhead
//	daccebench fig9   [-calls N] [-bench ...]         Figure 9 progress series
//	daccebench fig10  [-calls N] [-bench ...]         Figure 10 depth CDFs
//	daccebench all    [-calls N]                      everything
//
// Every subcommand accepts -cpuprofile/-memprofile (pprof output).
// Results print to stdout; progress goes to stderr. Wall-clock
// throughput of an instrumented run and of dacced is perfbench's job
// (perfbench/); the re-encoding pause, epoch-retirement and
// adversarial-workload gates are Go tests.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
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

func usage() {
	fmt.Fprintln(os.Stderr, "usage: daccebench {table1|fig8|fig9|fig10|all|report [file]|dump-profiles|version} [-calls N] [-bench a,b] [-sample N] [-profiles file.json] [-metrics] [-metrics-format prom|json] [-trace-out file.json] [-flight-recorder N] [-cpuprofile file] [-memprofile file]")
}

// runReport regenerates the report at path: the header and the Table 1
// and Figure 8–10 sections are rewritten, every later section is kept.
func runReport(path string, cfg experiments.RunConfig) error {
	if cfg.Calls == 0 {
		cfg.Calls = 300_000
	}
	err := updateReport(path, func(w io.Writer) error {
		return experiments.WriteReport(w, cfg, os.Stderr)
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "report written to", path)
	return nil
}

// updateReport replaces the generated block of the report at path with
// generate's output and carries the hand-written tail (reportTail) over
// byte for byte. The tail is read before generating, so a file that is
// not a report fails fast. The result goes to a temporary file beside
// path that is renamed over it, so a failed or interrupted run leaves
// path as it was.
func updateReport(path string, generate func(io.Writer) error) error {
	tail, mode, err := reportTail(path)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := generate(&buf); err != nil {
		return err
	}
	buf.Write(tail)
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(buf.Bytes())
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp.Name(), mode)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// reportTail returns the hand-written part of the report at path —
// everything from the first "## " heading after the last generated
// section's heading on — and the file's mode. A missing file has no
// tail (mode 0644). An existing file without the generated block's
// last heading is not a report, and rewriting it would destroy it.
func reportTail(path string) ([]byte, fs.FileMode, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0o644, nil
	}
	if err != nil {
		return nil, 0, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, 0, err
	}
	last := []byte("\n" + experiments.LastGeneratedHeading + "\n")
	i := bytes.Index(data, last)
	if i < 0 {
		return nil, 0, fmt.Errorf("%s has no %q section; not overwriting it", path, experiments.LastGeneratedHeading)
	}
	rest := data[i+len(last):]
	if j := bytes.Index(rest, []byte("\n## ")); j >= 0 {
		return rest[j+1:], info.Mode().Perm(), nil
	}
	return nil, info.Mode().Perm(), nil
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
