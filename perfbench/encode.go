package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"dacce/internal/ccdag"
	"dacce/internal/ccprof"
	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/persist"
	"dacce/internal/prog"
	"dacce/internal/workload"
)

// encodeBench runs one program's rounds: uninstrumented (NullScheme)
// baselines and DACCE rounds, warm-started from a cold-run snapshot or
// cold from an empty call graph. It rotates through a few call
// sequences (machine seeds), one per bracket.
type encodeBench struct {
	w    *workload.Workload
	warm bool
	seqs []*sequence
}

// sequence is one machine seed's call sequence and what is fixed about
// it: the warm-start snapshot (its own cold run's exported state) and
// the exact counts every round of it must repeat.
type sequence struct {
	seed uint64
	snap []byte
	// coldTrapNs is the trap-latency p50 of the cold run that made snap:
	// the trap cost of this program when a warm round has none.
	coldTrapNs float64
	ref        *counts
}

// newEncodeBench prepares one sequence per seed; for warm starts each
// gets its snapshot from one untimed cold round.
func newEncodeBench(w *workload.Workload, warm bool, seeds []uint64) (*encodeBench, error) {
	b := &encodeBench{w: w, warm: warm}
	for _, seed := range seeds {
		q := &sequence{seed: seed}
		if warm {
			d := core.New(w.P, core.Options{})
			if _, err := w.NewMachine(d, sampledConfig(seed, false)).Run(); err != nil {
				return nil, err
			}
			snap, err := persist.Marshal(d.ExportState())
			if err != nil {
				return nil, err
			}
			q.snap = snap
			q.coldTrapNs = float64(d.TrapHist().Quantile(0.5))
		}
		b.seqs = append(b.seqs, q)
	}
	return b, nil
}

// nullRound runs the uninstrumented program and returns its wall time
// and call count.
func (b *encodeBench) nullRound(q *sequence) (time.Duration, int64, error) {
	runtime.GC()
	m := b.w.NewMachine(machine.NullScheme{}, nullConfig(q.seed))
	start := time.Now()
	rs, err := m.Run()
	wall := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	return wall, rs.C.Calls, nil
}

// instrRound is one DACCE round's outcome.
type instrRound struct {
	Wall   time.Duration // warm: Run; cold: core.New through Run's return
	Setup  time.Duration // warm: Unmarshal + Restore; cold: core.New
	Counts counts
	Passes []core.EpochRecord // this round's passes
	Stats  *core.Stats
	D      *core.DACCE
	RS     *machine.RunStats
	Scheme *tracedScheme // nil when untraced
}

// pauseNs sums the round's stop-the-world time.
func (r *instrRound) pauseNs() int64 {
	var t int64
	for _, h := range r.Passes {
		t += h.PauseNanos
	}
	return t
}

// instrRound runs sequence q under a fresh encoder with the streaming
// profiler attached. keep retains the samples (untimed verification);
// rec, when non-nil, spans every scheme and observer call.
func (b *encodeBench) instrRound(q *sequence, keep bool, rec *recorder) (*instrRound, error) {
	runtime.GC()
	p := b.w.P
	prof := ccprof.NewStreaming(p)
	var obs core.ContextObserver = prof
	if rec != nil {
		obs = &tracedObserver{s: prof, rec: rec}
	}
	opt := core.Options{ContextObserver: obs}

	var d *core.DACCE
	var setup time.Duration
	start := time.Now()
	if b.warm {
		st, err := persist.Unmarshal(q.snap)
		if err != nil {
			return nil, err
		}
		if d, err = core.Restore(p, opt, st); err != nil {
			return nil, err
		}
		setup = time.Since(start)
	} else {
		d = core.New(p, opt)
		setup = time.Since(start)
	}
	gts0 := len(d.Stats().History)

	var scheme machine.Scheme = d
	var ts *tracedScheme
	if rec != nil {
		ts = &tracedScheme{d: d, rec: rec, passIn: map[uint32]string{}}
		scheme = ts
	}
	m := b.w.NewMachine(scheme, sampledConfig(q.seed, keep))
	if b.warm {
		start = time.Now()
	}
	rs, err := m.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	st := d.Stats()
	passes := st.History[gts0:]
	return &instrRound{
		Wall:  wall,
		Setup: setup,
		Counts: counts{
			Calls: rs.C.Calls, Traps: rs.C.HandlerTraps, Passes: int64(len(passes)),
			CCOps: rs.C.CCOps(), Patches: rs.Patches, Samples: rs.C.Samples,
		},
		Passes: passes, Stats: st, D: d, RS: rs, Scheme: ts,
	}, nil
}

// check applies the round's failure rules and the determinism guard:
// a warm round must not trap, the uninstrumented round must make the
// same calls, and every round of a sequence must repeat its first
// round's exact counts. It returns a description of each violation.
func (b *encodeBench) check(q *sequence, r *instrRound, nullCalls int64) []string {
	var bad []string
	if b.warm && r.Counts.Traps != 0 {
		bad = append(bad, fmt.Sprintf("warm round took %d handler traps", r.Counts.Traps))
	}
	if nullCalls != r.Counts.Calls {
		bad = append(bad, fmt.Sprintf("uninstrumented round made %d calls, instrumented %d", nullCalls, r.Counts.Calls))
	}
	if q.ref == nil {
		c := r.Counts
		q.ref = &c
	} else if *q.ref != r.Counts {
		bad = append(bad, fmt.Sprintf("nondeterministic round: counts %+v, first round %+v", r.Counts, *q.ref))
	}
	return bad
}

// counts returns every sequence's reference counts.
func (b *encodeBench) counts() []counts {
	var out []counts
	for _, q := range b.seqs {
		if q.ref != nil {
			out = append(out, *q.ref)
		}
	}
	return out
}

// verify decodes every retained sample of a round to its interned node
// and compares the materialized context with the shadow stack. It
// returns the number of samples checked and the number that mismatched.
func verify(d *core.DACCE, samples []machine.Sample) (int64, int64) {
	var bad int64
	for _, s := range samples {
		n, err := d.DecodeSampleNode(s)
		if err != nil || !core.NodeContext(n).Equal(core.ShadowContext(nil, s.Shadow)) {
			bad++
		}
	}
	return int64(len(samples)), bad
}

// measureEncode runs an encode-* workload. Untraced, it brackets every
// instrumented round between two uninstrumented rounds of the same call
// sequence until the time is up. Traced, each bracket also holds a
// traced round, and the run ends with the off-path probes (set-up
// layers, and the serve layers on this program's captures).
func measureEncode(cfg config) (*result, *recorder, error) {
	w, err := buildWorkload(cfg.Spec, roundCalls)
	if err != nil {
		return nil, nil, err
	}
	b, err := newEncodeBench(w, cfg.Spec.Warm, machineSeeds(w, cfg.Seed, subSeeds))
	if err != nil {
		return nil, nil, err
	}
	res := newResult()

	// Untimed verification round of every sequence: decode each
	// retained sample against its shadow stack. The first sequence's
	// captures and exported state also feed the serve-layer probe of the
	// traced run.
	var probe *serveProbeInput
	for i, q := range b.seqs {
		vr, err := b.instrRound(q, true, nil)
		if err != nil {
			return nil, nil, err
		}
		n, bad := verify(vr.D, vr.RS.Samples)
		res.Attempted += n
		res.Failed += bad
		if bad > 0 {
			res.notef("verification: %d of %d sampled contexts mismatched their shadow stacks", bad, n)
		}
		if b.warm && vr.Counts.Traps != 0 {
			res.Failed++
			res.notef("verification round took %d handler traps", vr.Counts.Traps)
		}
		if cfg.Trace && i == 0 {
			if probe, err = newServeProbeInput(cfg.Spec.Bench, w.P, vr.D, vr.RS.Samples); err != nil {
				return nil, nil, err
			}
		}
	}
	debug.FreeOSMemory()
	peakReset := resetPeakRSS()

	var rec *recorder
	if cfg.Trace {
		rec = newRecorder(time.Now(), spanLimit)
	}
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	acc, err := b.runRounds(res, rec, deadline, len(b.seqs))
	if err != nil {
		return nil, nil, err
	}
	res.Rounds = len(acc.ratio)
	res.Counts = b.counts()
	if !peakReset {
		res.notef("rss_mb covers the whole process: the peak counter could not be reset")
	}
	if !cfg.Trace {
		acc.endToEnd(res, peakRSSMB())
		return res, nil, nil
	}
	acc.perLayer(res, b, true)
	snap := probe.snap
	if b.warm {
		snap = b.seqs[0].snap
	}
	if err := probeSetup(res, rec, w.P, snap); err != nil {
		return nil, nil, err
	}
	if err := probe.run(res, rec); err != nil {
		return nil, nil, err
	}
	return res, rec, nil
}

// runRounds runs brackets N I N — an instrumented round between two
// uninstrumented rounds of the same call sequence, with rec also a
// traced round inside — rotating through the sequences, until the
// deadline has passed and at least minRounds brackets ran.
func (b *encodeBench) runRounds(res *result, rec *recorder, deadline time.Time, minRounds int) (*encodeAcc, error) {
	acc := &encodeAcc{}
	for k := 0; k < minRounds || time.Now().Before(deadline); k++ {
		q := b.seqs[k%len(b.seqs)]
		before, nullCalls, err := b.nullRound(q)
		if err != nil {
			return nil, err
		}
		r, err := b.instrRound(q, false, nil)
		if err != nil {
			return nil, err
		}
		var tr *instrRound
		if rec != nil {
			rec.req++
			if tr, err = b.instrRound(q, false, rec); err != nil {
				return nil, err
			}
		}
		after, _, err := b.nullRound(q)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		bad := b.check(q, r, nullCalls)
		if tr != nil {
			bad = append(bad, b.check(q, tr, nullCalls)...)
		}
		if len(bad) > 0 {
			res.Failed++
			for _, s := range bad {
				res.notef("round %d: %s", k+1, s)
			}
		}
		acc.add(r, tr, (before+after)/2, r.Counts.Calls)
	}
	return acc, nil
}

// encodeAcc accumulates bracketed rounds.
type encodeAcc struct {
	ratio, wallUS, setupS, stw []float64
	samples                    int64
	instrNs                    float64   // total instrumented wall
	callNs, instrCallNs        []float64 // per round: null / calls, (instr - null) / calls
	pausesUS                   []float64
	perRound                   map[string][]float64
	traced                     []*instrRound
	tracedNull                 []float64
	overhead                   []float64
	hitRate, collected         []float64
}

// add records one bracket: r and (traced run) tr against the mean of
// the bracket's uninstrumented rounds.
func (a *encodeAcc) add(r, tr *instrRound, null time.Duration, calls int64) {
	a.ratio = append(a.ratio, float64(r.Wall)/float64(null))
	a.wallUS = append(a.wallUS, float64(r.Wall.Nanoseconds())/1e3)
	a.setupS = append(a.setupS, r.Setup.Seconds())
	a.samples += r.Counts.Samples
	a.instrNs += float64(r.Wall.Nanoseconds())
	a.callNs = append(a.callNs, float64(null.Nanoseconds())/float64(calls))
	a.instrCallNs = append(a.instrCallNs, float64((r.Wall-null).Nanoseconds())/float64(calls))
	a.stw = append(a.stw, float64(r.pauseNs())/float64(r.Wall.Nanoseconds()))
	if a.perRound == nil {
		a.perRound = map[string][]float64{}
	}
	var prep, ren, idx, stub, tra float64
	for _, h := range r.Passes {
		a.pausesUS = append(a.pausesUS, float64(h.PauseNanos)/1e3)
		prep += float64(h.PrepareNanos)
		ren += float64(h.RenumberNanos)
		idx += float64(h.IndexNanos)
		stub += float64(h.StubNanos)
		tra += float64(h.TranslateNanos)
	}
	for k, v := range map[string]float64{
		"core.prepare_ms": prep, "blenc.renumber_ms": ren, "core.index_ms": idx,
		"core.stub_ms": stub, "core.translate_ms": tra,
	} {
		a.perRound[k] = append(a.perRound[k], v/1e6)
	}
	a.perRound["core.trap_ns_p50"] = append(a.perRound["core.trap_ns_p50"], float64(r.D.TrapHist().Quantile(0.5)))
	a.hitRate = append(a.hitRate, r.D.DAG().Stats().HitRate())
	a.collected = append(a.collected, float64(r.Stats.DAGCollected))
	if tr != nil {
		a.traced = append(a.traced, tr)
		a.tracedNull = append(a.tracedNull, float64(null.Nanoseconds()))
		a.overhead = append(a.overhead, float64(tr.Wall)/float64(r.Wall)-1)
	}
}

// endToEnd reports the untraced metrics.
func (a *encodeAcc) endToEnd(res *result, rss float64) {
	n := len(a.ratio)
	res.set("slowdown", median(a.ratio), n)
	res.set("decode_per_s", float64(a.samples)/(a.instrNs/1e9), int(a.samples))
	res.set("req_p50_us", median(a.wallUS), n)
	res.set("req_p90_us", quantile(a.wallUS, 0.9), n)
	res.set("setup_s", median(a.setupS), n)
	res.set("rss_mb", rss, 1)
	res.notef("stw_frac (per-layer core.stw_frac): %.4g median over %d rounds", median(a.stw), n)
}

// perLayer reports the traced run's encode-side layer metrics and its
// layer accounting.
//
// onPath is false when the program rounds are an off-path probe (the
// serve workloads price the encoder on the program that produced their
// corpus): the serve path then reports the observer cost and the layer
// accounting.
func (a *encodeAcc) perLayer(res *result, b *encodeBench, onPath bool) {
	n := len(a.ratio)
	// Exact counts are the first call sequence's; the envelope lists
	// every sequence's.
	c := b.seqs[0].ref
	res.set("machine.calls", float64(c.Calls), n)
	res.set("machine.samples", float64(c.Samples), n)
	res.set("machine.call_ns", median(a.callNs), n)
	res.set("machine.cc_ops_per_call", float64(c.CCOps)/float64(c.Calls), n)
	res.set("machine.traps", float64(c.Traps), n)
	res.set("machine.patches", float64(c.Patches), n)
	res.set("core.instr_ns", median(a.instrCallNs), n)
	res.set("core.passes", float64(c.Passes), n)
	res.set("core.pause_us_p50", quantile(a.pausesUS, 0.5), len(a.pausesUS))
	res.set("core.pause_us_p90", quantile(a.pausesUS, 0.9), len(a.pausesUS))
	res.set("core.stw_frac", median(a.stw), n)
	for _, k := range []string{"core.prepare_ms", "blenc.renumber_ms", "core.index_ms", "core.stub_ms", "core.translate_ms"} {
		res.set(k, median(a.perRound[k]), n)
	}
	if b.warm {
		var cold []float64
		for _, q := range b.seqs {
			cold = append(cold, q.coldTrapNs)
		}
		res.set("core.trap_ns_p50", median(cold), len(cold))
	} else {
		res.set("core.trap_ns_p50", median(a.perRound["core.trap_ns_p50"]), n)
	}
	res.set("ccdag.intern_hit_rate", median(a.hitRate), n)
	res.set("ccdag.collected", median(a.collected), n)
	a.account(res, onPath)
}

// account splits the traced rounds' wall time into layers. Spans give
// the scheme and observer calls; a pass's time (EpochRecord prepare +
// pause) is moved from the span it ran inside — or from the trap
// handler when no span enclosed it — to core.reencode; the handler's
// own time is TrapHist's sum. The uninstrumented round prices machine
// dispatch. What remains is the encoded stubs plus the tracing cost:
// the unattributed remainder.
func (a *encodeAcc) account(res *result, onPath bool) {
	var total, machineNs, reencode, traps float64
	layer := map[string]float64{}
	var samples int64
	for i, tr := range a.traced {
		total += float64(tr.Wall.Nanoseconds())
		machineNs += a.tracedNull[i]
		samples += tr.Counts.Samples
		traps += float64(tr.D.TrapHist().Sum())
		for _, h := range tr.Passes {
			ns := float64(h.PrepareNanos + h.PauseNanos)
			reencode += ns
			if name, ok := tr.Scheme.passIn[h.Epoch]; ok {
				layer[name] -= ns
			} else {
				traps -= ns
			}
		}
	}
	rec := a.traced[0].Scheme.rec
	for _, name := range []string{spanCapture, spanOnSample, spanMaintain, spanRelease, spanObserve} {
		layer[name] += float64(rec.get(name).Self)
	}
	layer["machine.dispatch"] = machineNs
	layer["core.reencode"] = reencode
	layer["core.trap"] = traps
	attributed := 0.0
	for _, v := range layer {
		attributed += v
	}
	remainder := total - attributed
	cs, on := rec.get(spanCapture), rec.get(spanOnSample)
	res.set("core.sample_ns", float64(cs.Total+on.Total)/float64(max(samples, 1)), int(samples))
	if !onPath {
		return
	}
	ob := rec.get(spanObserve)
	res.set("ccprof.observe_ns", float64(ob.Total)/float64(max(ob.Count, 1)), int(ob.Count))
	res.set("trace.unattributed_frac", remainder/total, len(a.traced))
	res.set("trace.overhead_frac", median(a.overhead), len(a.overhead))
	res.notef("layer accounting over %d traced rounds (%.1f ms): %s", len(a.traced), total/1e6, formatLayers(layer, remainder, total))
	res.notef("tracing overhead: traced rounds are %.2f%% slower than untraced (median of %d pairs)", 100*median(a.overhead), len(a.overhead))
}

// Span names of the traced scheme and observer.
const (
	spanCapture  = "core.Capture"
	spanOnSample = "core.OnSample"
	spanMaintain = "core.Maintain"
	spanRelease  = "core.ReleaseCapture"
	spanObserve  = "ccprof.ObserveContextNode"
)

// tracedScheme delegates every machine.Scheme method, and every
// optional interface the encoder implements, to the *core.DACCE, so the
// machine drives it exactly as it drives the encoder; it spans the
// sampling and maintenance calls. Stubs stay the encoder's own. A pass
// that publishes an epoch inside a spanned call is recorded in passIn
// so the accounting can move its time out of that span.
type tracedScheme struct {
	d      *core.DACCE
	rec    *recorder
	passIn map[uint32]string // epoch → span that ran its pass
}

func (s *tracedScheme) Name() string                          { return s.d.Name() }
func (s *tracedScheme) Install(m *machine.Machine)            { s.d.Install(m) }
func (s *tracedScheme) ThreadStart(t, parent *machine.Thread) { s.d.ThreadStart(t, parent) }
func (s *tracedScheme) ThreadExit(t *machine.Thread)          { s.d.ThreadExit(t) }

func (s *tracedScheme) OnModuleLoad(t *machine.Thread, id prog.ModuleID) {
	s.d.OnModuleLoad(t, id)
}

func (s *tracedScheme) OnModuleUnload(t *machine.Thread, id prog.ModuleID) {
	s.d.OnModuleUnload(t, id)
}

func (s *tracedScheme) Capture(t *machine.Thread) any {
	s.rec.begin(spanCapture)
	c := s.d.Capture(t)
	s.rec.end()
	return c
}

func (s *tracedScheme) OnSample(t *machine.Thread, capture any) {
	e0 := s.d.Epoch()
	s.rec.begin(spanOnSample)
	s.d.OnSample(t, capture)
	s.rec.end()
	s.notePasses(e0, spanOnSample)
}

func (s *tracedScheme) Maintain(t *machine.Thread) {
	e0 := s.d.Epoch()
	s.rec.begin(spanMaintain)
	s.d.Maintain(t)
	s.rec.end()
	s.notePasses(e0, spanMaintain)
}

func (s *tracedScheme) ReleaseCapture(capture any) {
	s.rec.begin(spanRelease)
	s.d.ReleaseCapture(capture)
	s.rec.end()
}

func (s *tracedScheme) notePasses(e0 uint32, name string) {
	for e := e0 + 1; e <= s.d.Epoch(); e++ {
		s.passIn[e] = name
	}
}

// tracedObserver wraps the streaming profiler with spans. It implements
// the same observer interfaces (context, node, node release), so the
// encoder feeds it interned nodes exactly as it feeds the profiler.
type tracedObserver struct {
	s   *ccprof.Streaming
	rec *recorder
}

func (o *tracedObserver) ObserveContext(thread int, ctx core.Context) {
	o.rec.begin(spanObserve)
	o.s.ObserveContext(thread, ctx)
	o.rec.end()
}

func (o *tracedObserver) ObserveContextNode(thread int, n *ccdag.Node) {
	o.rec.begin(spanObserve)
	o.s.ObserveContextNode(thread, n)
	o.rec.end()
}

// ReleaseNodes runs inside the collection that follows a pass, so it
// is left to the enclosing span.
func (o *tracedObserver) ReleaseNodes() { o.s.ReleaseNodes() }
