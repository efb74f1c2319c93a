// Command perfbench is the end-to-end benchmark of the DACCE encoder and
// the dacced decode service. One run measures one workload:
//
//	go run . --workload encode-steady --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (metrics.go,
// endToEnd); with --trace 1 it re-runs the same workload with spans
// around every layer call and reports the per-layer metrics (perLayer).
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The line before it is the run's envelope: environment, seed, rounds,
// the exact per-round counts, the measured but unbounded metrics
// (reported) and the sample count behind every metric. A readable report
// goes to standard error. README.md defines the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dacce/internal/buildinfo"
	"dacce/internal/machine"
	"dacce/internal/workload"
)

// spec is one workload: which program it runs, whether it starts warm,
// and which family of end-to-end path it measures.
type spec struct {
	Name  string
	Bench string
	Serve bool // dacced path (serve-*) rather than the instrumented program (encode-*)
	Warm  bool // warm start / warm corpus (steady, hot) rather than cold (adapt, churn)
}

var specs = []spec{
	{Name: "encode-steady", Bench: "445.gobmk", Warm: true},
	{Name: "encode-adapt", Bench: "445.gobmk"},
	{Name: "serve-hot", Bench: "483.xalancbmk", Serve: true, Warm: true},
	{Name: "serve-churn", Bench: "483.xalancbmk", Serve: true},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

const (
	// roundCalls is one program round's call budget.
	roundCalls = 200_000
	// corpusCalls is the call budget of the runs that make the serve
	// workloads' capture corpus (50,000 captures). Context depth is
	// heavy-tailed (deep recursion chains), so a smaller corpus makes
	// the work per capture depend on the seed.
	corpusCalls = 800_000
	// subSeeds is how many call sequences an encode run rotates through,
	// one per bracket, so a run's median does not hinge on one sequence.
	subSeeds = 4
	// sampleEvery is the sampling period in calls: dense enough that
	// the sample→decode→intern→profile path is a real share of a round.
	sampleEvery = 16
	// batchSize is the captures per /v1/decode request, the batch
	// daccedecode -remote sends.
	batchSize = 512
	// connections is the closed-loop client count (one per vCPU of the
	// reference machine), as dacced's synchronous clients behave.
	connections = 2
	// spanLimit caps the span log a traced run keeps in memory.
	spanLimit = 1 << 18
)

// config is one invocation.
type config struct {
	Spec    spec
	Seed    uint64
	Seconds float64
	Trace   bool
}

// result is what a run measured. Values holds every reported metric;
// Samples the number of observations behind each.
type result struct {
	Values    map[string]float64
	Samples   map[string]int
	Attempted int64
	Failed    int64
	Rounds    int
	Notes     []string
	Counts    []counts // exact per-round counts of each call sequence
}

func newResult() *result {
	return &result{Values: map[string]float64{}, Samples: map[string]int{}}
}

func (r *result) set(name string, v float64, n int) {
	r.Values[name] = v
	r.Samples[name] = n
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// counts are the exact per-round quantities of a single-threaded
// program round. They must repeat across rounds and across runs at a
// fixed seed (the determinism guard).
type counts struct {
	Calls   int64 `json:"calls"`
	Traps   int64 `json:"traps"`
	Passes  int64 `json:"passes"`
	CCOps   int64 `json:"cc_ops"`
	Patches int64 `json:"patches"`
	Samples int64 `json:"samples"`
}

// mix is splitmix64's finalizer: it spreads the seed argument over the
// machine's PRNG seeds so nearby seeds give unrelated call sequences.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// buildWorkload generates the workload's program with the given call
// budget, on one machine thread so every count repeats exactly at a
// fixed seed. The program itself is the benchmark profile's (its
// generator seed is the profile's own), so every seed measures the same
// code.
func buildWorkload(sp spec, calls int64) (*workload.Workload, error) {
	pr, ok := workload.ByName(sp.Bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark profile %q", sp.Bench)
	}
	pr.Threads = 1
	pr.TotalCalls = calls
	return workload.Build(pr)
}

// machineSeeds derives n machine PRNG seeds from the seed argument. The
// machine PRNG draws every call target, recursion depth and phase, so
// each seed runs a different call sequence and captures a different
// corpus.
func machineSeeds(w *workload.Workload, seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = mix(w.Prof.Seed ^ mix(seed+uint64(i)<<32))
	}
	return out
}

// nullConfig is the uninstrumented baseline: no sampling, nothing
// retained.
func nullConfig(seed uint64) machine.Config {
	return machine.Config{Seed: seed, DropSamples: true}
}

// sampledConfig samples every sampleEvery calls; keep retains the
// samples (with their shadow stacks) for verification.
func sampledConfig(seed uint64, keep bool) machine.Config {
	return machine.Config{Seed: seed, SampleEvery: sampleEvery, DropSamples: !keep}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: encode-steady, encode-adapt, serve-hot or serve-churn")
	seed := fs.Uint64("seed", 1, "input seed (program generator, machine PRNG, request order)")
	seconds := fs.Float64("seconds", 10, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{Spec: sp, Seed: *seed, Seconds: *seconds, Trace: *trace == 1}

	start := time.Now()
	res, rec, err := measure(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", sp.Name, err)
		return 1
	}
	if rec != nil {
		// The span log goes where the build does, inside the checkout.
		path := filepath.Join(".bench_build", "spans-"+sp.Name+".jsonl")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = rec.writeSpans(path)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		res.notef("spans: %d written to %s (%d beyond the cap not logged)", len(rec.log), path, rec.dropped)
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	if err := report(stdout, stderr, cfg, res, defs, time.Since(start)); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// measure runs the workload's family.
func measure(cfg config) (*result, *recorder, error) {
	if cfg.Spec.Serve {
		return measureServe(cfg)
	}
	return measureEncode(cfg)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// measuredOut is a metric printed in the envelope with its sample count.
type measuredOut struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"n"`
}

type envelope struct {
	Workload   string         `json:"workload"`
	Bench      string         `json:"bench"`
	Seed       uint64         `json:"seed"`
	Trace      bool           `json:"trace"`
	Seconds    float64        `json:"seconds"`
	Rounds     int            `json:"rounds"`
	GoMaxProcs int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	GoVersion  string         `json:"go_version"`
	Revision   string         `json:"revision"`
	Modified   bool           `json:"modified,omitempty"`
	Counts     []counts       `json:"counts,omitempty"`
	Samples    map[string]int `json:"samples"`
	// Reported holds the measured but unbounded metrics (reported).
	Reported   map[string]measuredOut `json:"reported,omitempty"`
	FailedFrac float64                `json:"failed_frac"`
	WallS      float64                `json:"wall_s"`
}

// report prints the readable report to stderr, then the envelope line
// and the result line to stdout. Every metric in defs must have been
// measured; an untraced run also prints the reported metrics.
func report(stdout, stderr io.Writer, cfg config, res *result, defs []metricDef, wall time.Duration) error {
	out := resultLine{
		Correct:   res.Failed == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   map[string]metricOut{},
	}
	var missing []string
	samples := map[string]int{}
	for _, d := range defs {
		v, ok := res.Values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
		samples[d.Name] = res.Samples[d.Name]
	}
	var extra []metricDef
	rep := map[string]measuredOut{}
	if !cfg.Trace {
		extra = reported
		for _, d := range reported {
			v, ok := res.Values[d.Name]
			if !ok {
				missing = append(missing, d.Name)
				continue
			}
			rep[d.Name] = measuredOut{Value: v, Unit: d.Unit, Samples: res.Samples[d.Name]}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return errors.New("metrics not measured: " + fmt.Sprint(missing))
	}
	for _, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("non-finite metric value %v", m.Value)
		}
	}
	if out.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	bi := buildinfo.Get()
	rev := bi.Revision
	if rev == "" {
		rev = "unknown"
	}
	env := envelope{
		Workload: cfg.Spec.Name, Bench: cfg.Spec.Bench, Seed: cfg.Seed, Trace: cfg.Trace,
		Seconds: cfg.Seconds, Rounds: res.Rounds,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Revision: rev, Modified: bi.Modified,
		Counts: res.Counts, Samples: samples, Reported: rep,
		FailedFrac: float64(res.Failed) / float64(res.Attempted),
		WallS:      wall.Seconds(),
	}

	fmt.Fprintf(stderr, "perfbench %s (%s) seed=%d trace=%v seconds=%g rounds=%d gomaxprocs=%d numcpu=%d %s rev=%s wall=%.1fs\n",
		env.Workload, env.Bench, env.Seed, env.Trace, env.Seconds, env.Rounds,
		env.GoMaxProcs, env.NumCPU, env.GoVersion, rev, env.WallS)
	for _, d := range defs {
		fmt.Fprintf(stderr, "  %-24s %16.6g %-8s n=%d\n", d.Name, res.Values[d.Name], d.Unit, samples[d.Name])
	}
	for _, d := range extra {
		fmt.Fprintf(stderr, "  %-24s %16.6g %-8s n=%d (reported, not bounded)\n", d.Name, res.Values[d.Name], d.Unit, res.Samples[d.Name])
	}
	fmt.Fprintf(stderr, "  %-24s %16.6g %-8s (%d failed of %d attempted)\n", "failed_frac", env.FailedFrac, "ratio", res.Failed, res.Attempted)
	for _, n := range res.Notes {
		fmt.Fprintln(stderr, "  "+n)
	}

	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]envelope{"envelope": env}); err != nil {
		return err
	}
	return enc.Encode(out)
}
