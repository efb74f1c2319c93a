// Package cliutil holds the flag plumbing the CLIs share, so flags with
// identical semantics — the telemetry set (-metrics, -metrics-format,
// -trace-out, -flight-recorder), the persistence pair (-save-state,
// -load-state) and -version — are registered and interpreted in exactly
// one place instead of drifting per command.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dacce/internal/buildinfo"
	"dacce/internal/core"
	"dacce/internal/persist"
	"dacce/internal/prog"
	"dacce/internal/telemetry"
)

// Telemetry is the shared observability flag set.
type Telemetry struct {
	PrintMetrics  bool
	MetricsFormat *MetricsFormat
	TraceOut      string
	FlightN       int

	built bool
	sink  telemetry.Sink
	mts   *telemetry.Metrics
	ctr   *telemetry.ChromeTrace
	fr    *telemetry.FlightRecorder
}

// AddTelemetry registers the telemetry flags on fs.
func AddTelemetry(fs *flag.FlagSet) *Telemetry {
	t := &Telemetry{}
	fs.BoolVar(&t.PrintMetrics, "metrics", false, "print a telemetry metrics snapshot after the run")
	t.MetricsFormat = AddMetricsFormat(fs)
	fs.StringVar(&t.TraceOut, "trace-out", "", "write a Chrome trace-event JSON file (chrome://tracing)")
	fs.IntVar(&t.FlightN, "flight-recorder", 0, "keep a flight-recorder ring of the last N events, dumped to stderr on overflow or decode failure")
	return t
}

// Sink assembles the sink pipeline the flags ask for (once; later calls
// return the same pipeline). All enabled sinks see the same stream.
func (t *Telemetry) Sink() telemetry.Sink {
	if t.built {
		return t.sink
	}
	t.built = true
	var sinks []telemetry.Sink
	if t.PrintMetrics {
		t.mts = telemetry.NewMetrics()
		sinks = append(sinks, t.mts)
	}
	if t.TraceOut != "" {
		t.ctr = telemetry.NewChromeTrace()
		sinks = append(sinks, t.ctr)
	}
	if t.FlightN > 0 {
		t.fr = telemetry.NewFlightRecorder(t.FlightN, os.Stderr)
		sinks = append(sinks, t.fr)
	}
	t.sink = telemetry.Multi(sinks...)
	return t.sink
}

// Flight returns the flight recorder, or nil when -flight-recorder is
// off (call after Sink).
func (t *Telemetry) Flight() *telemetry.FlightRecorder { return t.fr }

// Metrics returns the metrics sink, or nil when -metrics is off (call
// after Sink).
func (t *Telemetry) Metrics() *telemetry.Metrics { return t.mts }

// Finish flushes the file-producing sinks: the Chrome trace goes to
// -trace-out (with a notice on stderr), the metrics snapshot to
// metricsOut in the chosen format.
func (t *Telemetry) Finish(metricsOut io.Writer) error {
	if t.ctr != nil {
		f, err := os.Create(t.TraceOut)
		if err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		if err := t.ctr.Export(f); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events written to %s (open in chrome://tracing)\n", t.ctr.Len(), t.TraceOut)
	}
	if t.mts != nil {
		if err := t.MetricsFormat.Write(metricsOut, t.mts); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	return nil
}

// MetricsFormat is the -metrics-format flag's value, prom or json. Set
// rejects any other value, so a bad format fails flag parsing instead
// of a finished run.
type MetricsFormat string

// AddMetricsFormat registers -metrics-format on fs, defaulting to prom.
func AddMetricsFormat(fs *flag.FlagSet) *MetricsFormat {
	f := MetricsFormat("prom")
	fs.Var(&f, "metrics-format", "metrics snapshot `format`: prom|json")
	return &f
}

// String implements flag.Value.
func (f *MetricsFormat) String() string { return string(*f) }

// Set implements flag.Value.
func (f *MetricsFormat) Set(s string) error {
	if s != "prom" && s != "json" {
		return fmt.Errorf("want prom or json")
	}
	*f = MetricsFormat(s)
	return nil
}

// Write writes m's snapshot to w in format f.
func (f *MetricsFormat) Write(w io.Writer, m *telemetry.Metrics) error {
	if *f == "json" {
		return m.WriteJSON(w)
	}
	return m.WritePrometheus(w)
}

// State is the shared persistence flag pair.
type State struct {
	// Save is the path -save-state writes the encoder snapshot to after
	// the run; empty means don't save.
	Save string
	// Load is the snapshot path -load-state warm-starts from; empty
	// means a cold start.
	Load string
}

// AddState registers -save-state and -load-state on fs.
func AddState(fs *flag.FlagSet) *State {
	s := &State{}
	fs.StringVar(&s.Save, "save-state", "", "write the warmed encoder state to this snapshot file after the run")
	fs.StringVar(&s.Load, "load-state", "", "warm-start the encoder from this snapshot file (zero handler traps on replay)")
	return s
}

// Active reports whether either persistence flag was used.
func (s *State) Active() bool { return s.Save != "" || s.Load != "" }

// NewEncoder builds the run's DACCE encoder: warm-started from
// -load-state when given, cold otherwise.
func (s *State) NewEncoder(p *prog.Program, opt core.Options) (*core.DACCE, error) {
	if s.Load == "" {
		return core.New(p, opt), nil
	}
	d, err := persist.WarmStart(s.Load, p, opt)
	if err != nil {
		return nil, fmt.Errorf("warm start from %s: %w", s.Load, err)
	}
	return d, nil
}

// SaveIfSet writes the encoder's snapshot to -save-state when given.
func (s *State) SaveIfSet(d *core.DACCE) error {
	if s.Save == "" {
		return nil
	}
	if err := persist.SaveEncoder(s.Save, d); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "state: encoder snapshot written to %s\n", s.Save)
	return nil
}

// AddVersion registers -version on fs; when the returned flag is set,
// callers print VersionString and exit.
func AddVersion(fs *flag.FlagSet) *bool {
	return fs.Bool("version", false, "print version and build info, then exit")
}

// PrintVersion writes the standard -version line for a tool.
func PrintVersion(tool string) { buildinfo.Print(os.Stdout, tool) }
