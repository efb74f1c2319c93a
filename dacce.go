// Package dacce is a library implementation of DACCE — Dynamic and
// Adaptive Calling Context Encoding (Li, Wang, Wu, Hsu, Xu; CGO 2014) —
// together with the substrate it needs (an instrumentable execution
// machine and a program model) and the baselines it is evaluated
// against (PCCE, stack walking, calling-context trees, probabilistic
// calling context).
//
// A calling context — the call path from main to the current point — is
// encoded online into a single integer id per thread, maintained by
// instrumentation on call edges. DACCE discovers call edges at run
// time, encodes only what actually executes, adapts the encoding to the
// program's behaviour, and can decode any captured (id, ccStack) pair
// back into the exact call path.
//
// # Quick start
//
//	b := dacce.NewBuilder()
//	main := b.Func("main")
//	f := b.Func("f")
//	site := b.CallSite(main, f)
//	b.Body(main, func(x dacce.Exec) { x.Call(site, dacce.NoFunc) })
//	b.Body(f, func(x dacce.Exec) { /* ... */ })
//	p := b.MustBuild()
//
//	enc := dacce.NewEncoder(p, dacce.Options{})
//	m := dacce.NewMachine(p, enc, dacce.MachineConfig{SampleEvery: 100})
//	stats, _ := m.Run()
//	for _, s := range stats.Samples {
//	    ctx, _ := enc.DecodeSample(s)
//	    fmt.Println(ctx.Pretty(p))
//	}
//
// The examples/ directory contains runnable programs: a quickstart, a
// data-race reporter, an event-log deduplicator and an adaptive hot-path
// profiler. The cmd/daccebench binary regenerates the paper's Table 1
// and Figures 8–10 on synthetic SPEC CPU2006 / Parsec 2.1 workloads.
package dacce

import (
	"io"

	"dacce/internal/ccdag"
	"dacce/internal/ccprof"
	"dacce/internal/cct"
	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/pcc"
	"dacce/internal/pcce"
	"dacce/internal/persist"
	"dacce/internal/prog"
	"dacce/internal/stackwalk"
	"dacce/internal/telemetry"
	"dacce/internal/trace"
	"dacce/internal/workload"
)

// Program model: build programs with a Builder, give functions bodies
// written against Exec, then run them on a Machine.
type (
	// Program is an immutable executable program.
	Program = prog.Program
	// Builder constructs Programs.
	Builder = prog.Builder
	// Exec is the interface function bodies are written against.
	Exec = prog.Exec
	// Body is a function's behaviour.
	Body = prog.Body
	// FuncID identifies a function.
	FuncID = prog.FuncID
	// SiteID identifies a call site.
	SiteID = prog.SiteID
	// ModuleID identifies a module (executable or shared library).
	ModuleID = prog.ModuleID
	// Site is a call site.
	Site = prog.Site
	// CallKind classifies call sites (normal, indirect, tail, PLT).
	CallKind = prog.Kind
)

// Sentinel identifiers.
const (
	NoFunc = prog.NoFunc
	NoSite = prog.NoSite
)

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder { return prog.NewBuilder() }

// Execution machine: the instrumentable substrate encoders run on.
type (
	// Machine executes one Program under one Scheme.
	Machine = machine.Machine
	// MachineConfig configures sampling, seeding and steady-state
	// accounting.
	MachineConfig = machine.Config
	// Scheme is an installable calling-context encoding scheme.
	Scheme = machine.Scheme
	// RunStats is the result of a run.
	RunStats = machine.RunStats
	// Sample pairs an encoder capture with the ground-truth shadow
	// stack.
	Sample = machine.Sample
	// Thread is an executing thread (the concrete Exec).
	Thread = machine.Thread
	// NullScheme runs without any instrumentation (baseline).
	NullScheme = machine.NullScheme
)

// NewMachine creates a machine running p under scheme.
func NewMachine(p *Program, scheme Scheme, cfg MachineConfig) *Machine {
	return machine.New(p, scheme, cfg)
}

// The DACCE encoder (the paper's contribution).
type (
	// Encoder is the dynamic and adaptive calling-context encoder.
	Encoder = core.DACCE
	// Options configures the encoder (id budget, indirect dispatch
	// thresholds, adaptive triggers).
	Options = core.Options
	// Triggers are the adaptive re-encoding thresholds.
	Triggers = core.Triggers
	// Capture is a snapshot of a thread's encoded context.
	Capture = core.Capture
	// CCEntry is one saved entry on the ccStack.
	CCEntry = core.CCEntry
	// Context is a decoded calling context, root first.
	Context = core.Context
	// ContextFrame is one step of a decoded context.
	ContextFrame = core.ContextFrame
	// EncoderStats reports graph size, re-encoding count (gTS) and
	// costs.
	EncoderStats = core.Stats
)

// NewEncoder returns a DACCE encoder for p.
func NewEncoder(p *Program, opt Options) *Encoder { return core.New(p, opt) }

// ShadowContext converts machine shadow stacks into a Context, the
// ground truth decodes are validated against.
func ShadowContext(spawn, shadow []machine.ShadowFrame) Context {
	return core.ShadowContext(spawn, shadow)
}

// Baselines evaluated against DACCE.
type (
	// PCCE is the static Precise Calling Context Encoding baseline.
	PCCE = pcce.Scheme
	// PCCEProfile is the offline edge-frequency profile PCCE consumes.
	PCCEProfile = pcce.Profile
	// PCCEOptions configures the PCCE baseline.
	PCCEOptions = pcce.Options
	// StackWalk is the walk-on-demand baseline.
	StackWalk = stackwalk.Scheme
	// CCT is the calling-context-tree baseline.
	CCT = cct.Scheme
	// PCC is the probabilistic-calling-context baseline.
	PCC = pcc.Scheme
)

// NewPCCE builds the static PCCE encoding for p under a profile.
func NewPCCE(p *Program, prof PCCEProfile, opt pcce.Options) *PCCE {
	return pcce.New(p, prof, opt)
}

// NewStackWalk returns the stack-walking baseline.
func NewStackWalk() *StackWalk { return stackwalk.New() }

// Trace recording and replay: capture a run's exact call event stream
// and re-execute it under a different scheme.
type (
	// Trace is a recorded per-thread event stream.
	Trace = trace.Trace
	// TraceRecorder is a Scheme that records the event stream.
	TraceRecorder = trace.Recorder
)

// NewTraceRecorder returns a recording scheme.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// ReplayProgram builds a program that replays a recorded trace.
func ReplayProgram(p *Program, tr *Trace) (*Program, error) {
	return trace.ReplayProgram(p, tr)
}

// NewCCT returns the calling-context-tree baseline.
func NewCCT() *CCT { return cct.New() }

// NewPCC returns the probabilistic-calling-context baseline.
func NewPCC() *PCC { return pcc.New() }

// Calling-context profiling: aggregate decoded contexts into hot-path
// rankings, context trees and run-to-run diffs (the paper's §1
// performance-analysis application).
type (
	// CCProfile is an aggregated calling-context profile.
	CCProfile = ccprof.Profile
	// HotContext is one ranked profile entry.
	HotContext = ccprof.HotContext
	// CCDiffEntry is one context whose weight changed between runs.
	CCDiffEntry = ccprof.DiffEntry
)

// NewCCProfile returns an empty context profile over p.
func NewCCProfile(p *Program) *CCProfile { return ccprof.New(p) }

// DiffCCProfiles ranks contexts by weight change between two profiles.
func DiffCCProfiles(a, b *CCProfile) []CCDiffEntry { return ccprof.Diff(a, b) }

// Always-on profiling and SLO observability: the streaming profiler
// aggregates every context the live sampling controller decodes into
// per-thread shards (allocation-free once warm) and exports pprof
// protobuf, folded stacks or an HTTP handler at any point of the run;
// the watchdog checks quantile rules over the encoder's always-on
// pause/decode histograms and emits breach events.
type (
	// CCStreaming is the always-on streaming context profiler; attach
	// it via Options.ContextObserver.
	CCStreaming = ccprof.Streaming
	// ContextObserver consumes the sampling path's decoded contexts
	// as interned CCNodes; the encoder calls its ReleaseNodes before
	// each DAG collection so it can drop its node pins.
	ContextObserver = core.ContextObserver
	// Histogram is a lock-free log-bucketed histogram with estimated
	// p50/p90/p99 and exact-max snapshots.
	Histogram = telemetry.Histogram
	// HistSnapshot is one histogram quantile snapshot.
	HistSnapshot = telemetry.HistSnapshot
	// Watchdog periodically evaluates SLO rules and emits EvSLOBreach
	// events into its sink on violation.
	Watchdog = telemetry.Watchdog
	// SLORule is one watchdog threshold over a gauge-valued source.
	SLORule = telemetry.SLORule
)

// NewCCStreaming returns a streaming context profiler over p.
func NewCCStreaming(p *Program) *CCStreaming { return ccprof.NewStreaming(p) }

// Hash-consed context DAG: every decoded context interned as an
// immutable node so a full calling context is one pointer, equality is
// pointer comparison, contexts share suffix storage, and a warm
// re-decode allocates nothing. Encoder.DecodeNode / DecodeSampleNode
// return interned nodes from the encoder's own DAG; NodeContext
// materializes a node back into a Context. The DAG is bounded, not
// append-only: the encoder collects generations below the oldest
// still-referenced epoch after each re-encoding pass (release captures
// with Encoder.ReleaseCapture to let the floor advance), preserving
// survivor pointer identity across collections.
type (
	// CCNode is one interned context node; pointer-equal CCNodes are
	// equal contexts.
	CCNode = ccdag.Node
	// CCDAG is a concurrency-safe hash-consed context DAG.
	CCDAG = ccdag.DAG
	// CCDAGStats is a DAG health snapshot (nodes, intern hit rate,
	// memory estimate).
	CCDAGStats = ccdag.Stats
	// CCDAGCollectStats reports one DAG collection: the generation
	// floor, the node count before, and how many nodes were freed or
	// rescued by racing readers.
	CCDAGCollectStats = ccdag.CollectStats
)

// NewCCDAG returns an empty context DAG, for interning contexts
// decoded through a standalone Decoder. Live encoders already carry
// one (Encoder.DAG).
func NewCCDAG() *CCDAG { return ccdag.New() }

// NodeContext materializes an interned context node into a root-first
// Context.
func NodeContext(n *CCNode) Context { return core.NodeContext(n) }

// AppendNodeContext materializes n into a caller-reused buffer,
// allocating only when dst is too small.
func AppendNodeContext(dst Context, n *CCNode) Context { return core.AppendNodeContext(dst, n) }

// NewWatchdog returns an SLO watchdog emitting breaches into sink.
func NewWatchdog(sink Sink) *Watchdog { return telemetry.NewWatchdog(sink) }

// QuantileSource adapts a histogram quantile into an SLORule source.
func QuantileSource(h *Histogram, q float64) func() int64 {
	return telemetry.QuantileSource(h, q)
}

// Synthetic benchmarks: the 41 SPEC CPU2006 / Parsec 2.1 workload
// profiles calibrated from the paper's Table 1.
type (
	// Workload is a generated benchmark program with its driver.
	Workload = workload.Workload
	// WorkloadProfile parameterizes a synthetic benchmark.
	WorkloadProfile = workload.Profile
)

// Benchmarks returns all 41 benchmark profiles in Table 1 order.
func Benchmarks() []WorkloadProfile { return workload.Profiles() }

// BenchmarkByName returns one benchmark profile.
func BenchmarkByName(name string) (WorkloadProfile, bool) { return workload.ByName(name) }

// BuildWorkload generates the program for a benchmark profile.
func BuildWorkload(pr WorkloadProfile) (*Workload, error) { return workload.Build(pr) }

// Telemetry: a structured event stream, a metrics registry with
// Prometheus-style and JSON exposition, a Chrome trace-event exporter
// and a flight recorder. Pass a Sink via Options.Sink (DACCE) or wrap
// any baseline with Instrument to put it on the same stream.
type (
	// Sink consumes telemetry events. Implementations must be safe for
	// concurrent use and must not call back into the emitting encoder.
	Sink = telemetry.Sink
	// Event is one telemetry event.
	Event = telemetry.Event
	// EventKind discriminates telemetry events.
	EventKind = telemetry.Kind
	// ReencodeReason attributes a re-encoding pass to its trigger.
	ReencodeReason = telemetry.Reason
	// Telemetry is a metrics-registry sink: it aggregates the event
	// stream into counters, gauges and histograms and writes
	// Prometheus-style text or JSON snapshots.
	Telemetry = telemetry.Metrics
	// ChromeTrace is a sink that renders the event stream as a Chrome
	// trace-event JSON file (chrome://tracing, Perfetto), with one
	// duration span per re-encoding epoch.
	ChromeTrace = telemetry.ChromeTrace
	// FlightRecorder is a bounded ring-buffer sink that dumps the last
	// N events on id overflow or decode failure.
	FlightRecorder = telemetry.FlightRecorder
	// CountingSink counts events by kind (useful in tests).
	CountingSink = telemetry.CountingSink
)

// NewTelemetry returns a metrics-registry sink.
func NewTelemetry() *Telemetry { return telemetry.NewMetrics() }

// NewChromeTrace returns a Chrome trace-event sink.
func NewChromeTrace() *ChromeTrace { return telemetry.NewChromeTrace() }

// NewFlightRecorder returns a flight-recorder sink holding the last n
// events (n <= 0 selects the default capacity) and auto-dumping to out
// on id overflow or decode failure. out may be nil to disable
// auto-dumps.
func NewFlightRecorder(n int, out io.Writer) *FlightRecorder {
	return telemetry.NewFlightRecorder(n, out)
}

// MultiSink fans events out to several sinks; nils are dropped.
func MultiSink(sinks ...Sink) Sink { return telemetry.Multi(sinks...) }

// Instrument wraps any scheme so thread lifecycle and sampling events
// flow into sink, putting baselines on the same event stream as DACCE.
// A nil sink returns s unchanged.
func Instrument(s Scheme, sink Sink) Scheme { return machine.Instrument(s, sink) }

// Persistence: snapshot the full encoder state to a self-describing
// binary blob (magic, version, CRC) and warm-start a later process from
// it — the restarted encoder re-installs the discovered graph and every
// epoch's dictionary, so replaying the same workload executes zero
// handler traps. Snapshots also rehydrate into standalone decoders,
// which is what the dacced decode service serves per tenant.
type (
	// EncoderState is the complete persisted encoder state.
	EncoderState = core.EncoderState
	// Decoder decodes captures offline, without a live encoder.
	Decoder = core.Decoder
)

// MarshalState serializes a state snapshot to the versioned,
// checksummed binary format.
func MarshalState(st *EncoderState) ([]byte, error) { return persist.Marshal(st) }

// UnmarshalState parses and validates a snapshot blob.
func UnmarshalState(data []byte) (*EncoderState, error) { return persist.Unmarshal(data) }

// StateHash returns the canonical content hash of a snapshot blob, the
// tenant-distinguishing suffix of the dacced registry key.
func StateHash(data []byte) string { return persist.Hash(data) }

// SaveState atomically writes enc's snapshot to path
// (write-to-temp + rename).
func SaveState(path string, enc *Encoder) error { return persist.SaveEncoder(path, enc) }

// LoadState reads and validates a snapshot file.
func LoadState(path string) (*EncoderState, error) { return persist.Load(path) }

// WarmStart builds an encoder for p pre-loaded with the snapshot at
// path: the graph, dictionaries and adaptive counters resume where the
// saving process left off.
func WarmStart(path string, p *Program, opt Options) (*Encoder, error) {
	return persist.WarmStart(path, p, opt)
}
