package cliutil

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"dacce/internal/ccprof"
	"dacce/internal/core"
	"dacce/internal/prog"
	"dacce/internal/telemetry"
)

// Profiler is the shared observability-plane flag set: the always-on
// streaming context profiler (-ccprof-out, -debug-listen) and the SLO
// watchdog thresholds (-slo-*). It is wired in three steps: Observer
// hands the profiler to core.Options.ContextObserver, Start arms the
// watchdog and debug endpoints once the encoder exists, Finish writes
// -ccprof-out and tears the background pieces down.
type Profiler struct {
	CcprofOut   string
	DebugListen string
	PauseP99    time.Duration
	DecodeP99   time.Duration
	TrapBacklog int64
	CheckEvery  time.Duration

	prof     *ccprof.Streaming
	watchdog *telemetry.Watchdog
	stopFns  []func()
}

// AddProfiler registers the profiler and SLO flags on fs.
func AddProfiler(fs *flag.FlagSet) *Profiler {
	p := &Profiler{}
	fs.StringVar(&p.CcprofOut, "ccprof-out", "", "write the aggregated context profile to this file at exit (pprof protobuf; folded text when the name ends in .folded)")
	fs.StringVar(&p.DebugListen, "debug-listen", "", "serve /debug/ccprof and /debug/vars on this address (e.g. localhost:6060) for the duration of the run")
	fs.DurationVar(&p.PauseP99, "slo-pause-p99", 0, "SLO: breach when the re-encode pause p99 exceeds this duration (0 disables)")
	fs.DurationVar(&p.DecodeP99, "slo-decode-p99", 0, "SLO: breach when the decode latency p99 exceeds this duration (0 disables)")
	fs.Int64Var(&p.TrapBacklog, "slo-trap-backlog", 0, "SLO: breach when the pending-trap backlog exceeds this count (0 disables)")
	fs.DurationVar(&p.CheckEvery, "slo-check-every", time.Second, "how often the SLO watchdog samples its rules")
	return p
}

// SLOActive reports whether any SLO threshold is armed.
func (p *Profiler) SLOActive() bool {
	return p.PauseP99 > 0 || p.DecodeP99 > 0 || p.TrapBacklog > 0
}

// EnsureFlight turns on t's flight recorder when SLO rules are armed
// but -flight-recorder was not given, so a breach always has a ring of
// recent events to dump. Call before the first t.Sink().
func (p *Profiler) EnsureFlight(t *Telemetry) {
	if p.SLOActive() && t.FlightN == 0 {
		t.FlightN = telemetry.DefaultFlightCapacity
	}
}

// Observer returns the streaming profiler over prg, creating it on
// first call — place it in core.Options.ContextObserver.
func (p *Profiler) Observer(prg *prog.Program) *ccprof.Streaming {
	if p.prof == nil {
		p.prof = ccprof.NewStreaming(prg)
	}
	return p.prof
}

// Watchdog returns the armed watchdog, or nil before Start (or when no
// SLO threshold was given).
func (p *Profiler) Watchdog() *telemetry.Watchdog { return p.watchdog }

// Start arms the observability plane around a live encoder: SLO rules
// over the encoder's always-on pause/decode histograms and trap
// backlog checked every -slo-check-every into sink, and the debug HTTP
// listener when -debug-listen is set. mts may be nil (no /debug/vars
// content beyond a pointer to -metrics). Returns p for chaining.
func (p *Profiler) Start(d *core.DACCE, sink telemetry.Sink, mts *telemetry.Metrics) (*Profiler, error) {
	if p.SLOActive() {
		w := telemetry.NewWatchdog(sink)
		w.Add(telemetry.SLORule{
			Name:   "pause_p99_ns",
			Source: telemetry.QuantileSource(d.PauseHist(), 0.99),
			Max:    p.PauseP99.Nanoseconds(),
		})
		w.Add(telemetry.SLORule{
			Name:   "decode_p99_ns",
			Source: telemetry.QuantileSource(d.DecodeHist(), 0.99),
			Max:    p.DecodeP99.Nanoseconds(),
		})
		w.Add(telemetry.SLORule{Name: "trap_backlog", Source: d.TrapBacklog, Max: p.TrapBacklog})
		p.watchdog = w
		p.stopFns = append(p.stopFns, w.Watch(p.CheckEvery))
	}
	if p.DebugListen != "" {
		mux := http.NewServeMux()
		if p.prof != nil {
			mux.Handle("/debug/ccprof", p.prof.Handler())
		}
		mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
			if mts == nil {
				http.Error(w, "metrics sink not enabled; run with -metrics", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = mts.WriteJSON(w)
		})
		ln, err := net.Listen("tcp", p.DebugListen)
		if err != nil {
			return nil, fmt.Errorf("debug listener: %w", err)
		}
		srv := &http.Server{Handler: mux}
		go func() { _ = srv.Serve(ln) }()
		fmt.Fprintf(os.Stderr, "debug: serving /debug/ccprof and /debug/vars on http://%s\n", ln.Addr())
		p.stopFns = append(p.stopFns, func() { _ = srv.Close() })
	}
	return p, nil
}

// Finish stops the watchdog and debug listener and writes -ccprof-out.
func (p *Profiler) Finish() error {
	for _, stop := range p.stopFns {
		stop()
	}
	p.stopFns = nil
	if p.CcprofOut == "" || p.prof == nil {
		return nil
	}
	pr := p.prof.Profile()
	if err := pr.WriteFile(p.CcprofOut); err != nil {
		return fmt.Errorf("writing context profile: %w", err)
	}
	fmt.Fprintf(os.Stderr, "ccprof: %d contexts written to %s\n", pr.Total(), p.CcprofOut)
	return nil
}
