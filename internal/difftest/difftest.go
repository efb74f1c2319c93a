package difftest

import (
	"fmt"
	"strings"

	"dacce/internal/ccdag"
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

// Options configures a harness run.
type Options struct {
	// Sink receives the telemetry of every replay — the DACCE encoder's
	// own events plus one EvDivergence per recorded mismatch, which is
	// what makes a flight recorder auto-dump on a found divergence.
	Sink telemetry.Sink
	// MaxDivergences caps how many divergences are recorded (and
	// emitted) in detail; the per-encoder counts keep counting past the
	// cap. Default 64.
	MaxDivergences int
}

// Divergence is one disagreement between a tracker and the oracle at
// one query point.
type Divergence struct {
	Encoder string `json:"encoder"`
	Thread  int    `json:"thread"`
	Seq     int64  `json:"seq"`
	Fn      int    `json:"fn"`
	Epoch   uint32 `json:"epoch,omitempty"`
	// Kind classifies the failure: "decode-error", "context-mismatch",
	// "value-mismatch" (PCC), "alignment" (a replay failed to
	// reproduce the query point itself), or one of the DAG leg's kinds —
	// "node-decode-error" (DecodeCaptureNode failed where the slice
	// decode did not), "node-mismatch" (node materialization disagreed
	// with the slice context), "node-split" (equal contexts interned to
	// distinct nodes) and "node-alias" (one node stood for two contexts).
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s sample %d/%d at f%d epoch %d: %s: %s",
		d.Encoder, d.Thread, d.Seq, d.Fn, d.Epoch, d.Kind, d.Detail)
}

// EncoderReport summarizes one tracker's replay.
type EncoderReport struct {
	Queries     int `json:"queries"`
	Divergences int `json:"divergences"`
}

// Result is the outcome of one harness run.
type Result struct {
	Spec    Spec `json:"spec"`
	Events  int  `json:"events"`
	Threads int  `json:"threads"`
	// Samples is the number of query points checked per tracker.
	Samples int `json:"samples"`
	// Epochs is how many re-encoding passes the DACCE replay went
	// through — the epoch-boundary coverage of the run.
	Epochs uint32 `json:"epochs"`
	// ArchivedSnapshots is how many persisted encoder snapshots the
	// DACCE replay archived and rehydrated (mid-trace checkpoints plus
	// the final state); ArchiveQueries counts the query points
	// re-decoded through them. Both are 0 when Spec.SnapshotEvery is 0.
	ArchivedSnapshots int                       `json:"archived_snapshots,omitempty"`
	ArchiveQueries    int                       `json:"archive_queries,omitempty"`
	Encoders          map[string]*EncoderReport `json:"encoders"`
	Divergences       []Divergence              `json:"divergences,omitempty"`
	// Dropped counts divergences beyond Options.MaxDivergences that
	// were counted but not recorded in detail.
	Dropped       int   `json:"dropped_divergences,omitempty"`
	PCCCollisions int64 `json:"pcc_collisions"`
	PCCDistinct   int64 `json:"pcc_distinct"`
	// IncrementalPasses is how many of the DACCE replay's re-encoding
	// passes ran as subgraph renumberings (the gate that blenc.Refresh
	// is actually exercised by the sweep's incremental leg).
	IncrementalPasses int `json:"incremental_passes,omitempty"`
}

// Diverged reports whether any tracker disagreed at any query point.
func (r *Result) Diverged() bool {
	for _, rep := range r.Encoders {
		if rep.Divergences > 0 {
			return true
		}
	}
	return false
}

// aggressiveOptions returns the DACCE options the harness replays
// under: the property-test trigger levels, tuned so that small runs
// still exercise re-encoding, recursion compression and indirect
// promotion.
func aggressiveOptions(sink telemetry.Sink) core.Options {
	return core.Options{
		Trig:              core.Triggers{NewEdges: 4, UnencodedCalls: 64, HotMissSamples: 4},
		CompressMinPushes: 4,
		InlineThreshold:   2,
		Sink:              sink,
	}
}

// Run executes one full differential check: build the spec's workload,
// record its trace once, then replay the identical trace under every
// selected tracker, checking each query point against the oracle.
func Run(spec Spec, opt Options) (*Result, error) {
	spec = spec.withDefaults()
	w, err := workload.Build(spec.Profile)
	if err != nil {
		return nil, err
	}

	rec := trace.NewRecorder()
	rm := w.NewMachine(rec, machine.Config{DropSamples: true})
	if _, err := rm.Run(); err != nil {
		return nil, fmt.Errorf("difftest: recording run: %w", err)
	}
	tr := rec.Trace()
	truncateTrace(tr, spec.MaxEvents)

	var prof pcce.Profile
	if spec.wants("pcce") {
		p, err := w.CollectProfile()
		if err != nil {
			return nil, fmt.Errorf("difftest: profiling run: %w", err)
		}
		prof = pcce.Profile(p)
	}
	return runTrace(w.P, tr, prof, spec, opt)
}

// RunTrace checks an explicit trace (synthesized or loaded) instead of
// recording one from the spec's workload; the spec supplies the
// harness knobs. The trace must replay on p (trace.ReplayProgram
// validates it). PCCE replays without a profile here, as a purely
// static encoder.
func RunTrace(p *prog.Program, tr *trace.Trace, spec Spec, opt Options) (*Result, error) {
	spec = spec.withDefaults()
	return runTrace(p, tr, nil, spec, opt)
}

// truncateTrace cuts each thread's stream to at most max events. Any
// prefix of a valid stream is valid: calls left open at the cut unwind
// naturally when the replay bodies run out of events.
func truncateTrace(tr *trace.Trace, max int) {
	if max <= 0 {
		return
	}
	for i, s := range tr.Streams {
		if len(s) > max {
			tr.Streams[i] = s[:max]
		}
	}
}

// sampleKey identifies one query point across replays: the sampled
// thread's spawn-tree ident (numeric thread ids are scheduling-
// dependent under concurrent spawning) and its per-thread sample
// sequence number.
type sampleKey struct {
	ident uint64
	seq   int64
}

func runTrace(p *prog.Program, tr *trace.Trace, prof pcce.Profile, spec Spec, opt Options) (*Result, error) {
	if opt.MaxDivergences <= 0 {
		opt.MaxDivergences = 64
	}
	res := &Result{
		Spec:     spec,
		Events:   tr.NumEvents(),
		Threads:  tr.NumThreads(),
		Encoders: make(map[string]*EncoderReport),
	}
	// truth pins the ground-truth context of every query point, set by
	// the first replay: all trackers are checked against the same
	// instants, so agreement with truth at every key is cross-encoder
	// equivalence, and a key mismatch is itself a divergence.
	truth := make(map[sampleKey]string)
	for _, name := range spec.Encoders {
		if err := runEncoder(name, p, tr, prof, spec, opt, res, truth); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func runEncoder(name string, p *prog.Program, tr *trace.Trace, prof pcce.Profile, spec Spec, opt Options, res *Result, truth map[sampleKey]string) error {
	rp, err := trace.ReplayProgram(p, tr)
	if err != nil {
		return fmt.Errorf("difftest: %s: %w", name, err)
	}
	rep := &EncoderReport{}
	res.Encoders[name] = rep

	var sch machine.Scheme
	var d *core.DACCE
	var ps *pcce.Scheme
	var cs *cct.Scheme
	var sw *stackwalk.Scheme
	var pc *pcc.Scheme
	var archive *Archive
	switch name {
	case "dacce", "dacce-full":
		d = core.New(rp, aggressiveOptions(opt.Sink))
		// dacce-full is the full-pass control leg: same spec, same trace,
		// but every forced boundary recomputes the assignment from scratch
		// where the dacce leg splices incrementally. The truth map pins
		// each query point to the first replay's shadow context, so
		// agreement of both legs with truth is exactly the delta-vs-full
		// equivalence gate.
		sch = forceEpochs(d, spec.ForceEpochEvery, name == "dacce-full")
		if name == "dacce" {
			sch, archive = SnapshotArchive(sch, d, spec.SnapshotEvery)
			if spec.Mutation != "" {
				sch = Mutate(sch, Mutation(spec.Mutation))
			}
		}
	case "pcce":
		ps = pcce.New(rp, prof, pcce.Options{})
		sch = ps
	case "cct":
		cs = cct.New()
		sch = cs
	case "stackwalk":
		sw = stackwalk.New()
		sch = sw
	case "pcc":
		pc = pcc.New()
		sch = pc
	default:
		return fmt.Errorf("difftest: unknown encoder %q (want one of %v or dacce-full)", name, AllEncoders)
	}

	m := machine.New(rp, sch, machine.Config{SampleEvery: spec.SampleEvery, Seed: spec.Profile.Seed + 1})
	rs, err := m.Run()
	if err != nil {
		return fmt.Errorf("difftest: %s replay: %w", name, err)
	}

	spawnShadow := make(map[uint64][]machine.ShadowFrame)
	for _, th := range m.Threads() {
		spawnShadow[th.Ident()] = th.SpawnShadow
	}

	var cctModel [][]core.Context
	if name == "cct" {
		cctModel, err = cctExpected(rp, tr, spec.SampleEvery)
		if err != nil {
			return fmt.Errorf("difftest: cct model: %w", err)
		}
	}
	// The DAG leg's interning invariants, per encoder instance (nodes
	// from different DAGs are never comparable): one canonical node per
	// context string, one context string per node.
	var nodeOf map[string]*ccdag.Node
	var nodeSeen map[*ccdag.Node]string
	if d != nil {
		nodeOf = make(map[string]*ccdag.Node)
		nodeSeen = make(map[*ccdag.Node]string)
	}

	// cctModel (and legacy traces generally) index by recorded stream;
	// map a live sample's ident back to its stream index, falling back
	// to the numeric id for ident-less traces.
	identIdx := identIndexOf(tr)
	streamOf := func(s machine.Sample) int {
		if idx, ok := identIdx[s.Ident]; ok {
			return idx
		}
		return s.Thread
	}

	report := func(s machine.Sample, epoch uint32, kind, detail string) {
		rep.Divergences++
		if len(res.Divergences) >= opt.MaxDivergences {
			res.Dropped++
			return
		}
		div := Divergence{
			Encoder: name, Thread: s.Thread, Seq: s.Seq, Fn: int(s.Fn),
			Epoch: epoch, Kind: kind, Detail: detail,
		}
		res.Divergences = append(res.Divergences, div)
		if opt.Sink != nil {
			opt.Sink.Emit(telemetry.Event{
				Kind: telemetry.EvDivergence, Thread: int32(s.Thread),
				Epoch: epoch, Site: prog.NoSite, Fn: s.Fn,
				Err: true, Value: uint64(s.Seq),
			})
		}
	}

	for _, s := range rs.Samples {
		rep.Queries++
		want := core.ShadowContext(spawnShadow[s.Ident], s.Shadow)
		k := sampleKey{ident: s.Ident, seq: s.Seq}
		if prev, ok := truth[k]; !ok {
			truth[k] = want.String()
		} else if prev != want.String() {
			report(s, 0, "alignment", fmt.Sprintf("replay reached %s here, first replay saw %s", want.Compact(), prev))
			continue
		}

		switch name {
		case "dacce", "dacce-full":
			epoch := uint32(0)
			if c, ok := s.Capture.(*core.Capture); ok {
				epoch = c.Epoch
			}
			ctx, err := d.DecodeCapture(s.Capture)
			if err != nil {
				report(s, epoch, "decode-error", err.Error())
			} else if msg := core.DiffContexts(ctx, want); msg != "" {
				report(s, epoch, "context-mismatch", msg)
			}
			// The DAG leg: the same capture decoded through the interning
			// path must materialize to the slice context, and the intern
			// table must stay a bijection between contexts and nodes —
			// across epochs too, since nodes are keyed by decoded frames,
			// not encoded ids.
			n, nerr := d.DecodeCaptureNode(s.Capture)
			switch {
			case nerr != nil && err == nil:
				report(s, epoch, "node-decode-error", nerr.Error())
			case nerr == nil:
				nctx := core.NodeContext(n)
				if msg := core.DiffContexts(nctx, want); msg != "" {
					report(s, epoch, "node-mismatch", msg)
				}
				// Context.String() renders functions only; the intern
				// bijection is over full (site, fn) frames.
				key := ctxKey(nctx)
				if prev, ok := nodeOf[key]; ok && prev != n {
					report(s, epoch, "node-split", fmt.Sprintf("context %s interned twice: node %d and node %d", nctx.Compact(), prev.ID(), n.ID()))
				}
				nodeOf[key] = n
				if prevKey, ok := nodeSeen[n]; ok && prevKey != key {
					report(s, epoch, "node-alias", fmt.Sprintf("node %d stood for %q, now materializes %q", n.ID(), prevKey, key))
				}
				nodeSeen[n] = key
			}
		case "pcce":
			ctx, err := ps.DecodeCapture(s.Capture)
			if err != nil {
				report(s, 0, "decode-error", err.Error())
			} else if msg := core.DiffContexts(ctx, want); msg != "" {
				report(s, 0, "context-mismatch", msg)
			}
		case "stackwalk":
			ctx, err := sw.DecodeCapture(s.Capture)
			wantPhys := physicalContext(spawnShadow[s.Ident], s.Shadow)
			if err != nil {
				report(s, 0, "decode-error", err.Error())
			} else if msg := core.DiffContexts(ctx, wantPhys); msg != "" {
				report(s, 0, "context-mismatch", msg)
			}
		case "cct":
			ctx, err := cs.DecodeCapture(s.Capture)
			si := streamOf(s)
			switch {
			case err != nil:
				report(s, 0, "decode-error", err.Error())
			case si >= len(cctModel) || s.Seq >= int64(len(cctModel[si])):
				report(s, 0, "alignment", fmt.Sprintf("no model context for sample %d/%d", s.Thread, s.Seq))
			default:
				if msg := core.DiffContexts(ctx, cctModel[si][s.Seq]); msg != "" {
					report(s, 0, "context-mismatch", msg)
				}
			}
		case "pcc":
			v, ok := s.Capture.(pcc.Value)
			if !ok {
				report(s, 0, "decode-error", fmt.Sprintf("capture is %T, not a pcc.Value", s.Capture))
				break
			}
			if exp := pcc.Expected(openSites(want)); v != exp {
				report(s, 0, "value-mismatch", fmt.Sprintf("hash %d, expected fold %d over %s", v, exp, want.Compact()))
			}
			pc.Observe(v, want.String())
		}
	}

	if rep.Queries > res.Samples {
		res.Samples = rep.Queries
	}
	switch name {
	case "dacce":
		res.Epochs = d.Epoch()
		res.IncrementalPasses = d.Stats().IncrementalPasses
		if archive != nil {
			final, err := persist.Marshal(d.ExportState())
			if err != nil {
				return fmt.Errorf("difftest: exporting final state: %w", err)
			}
			snaps, queries, err := checkArchive(archive, final, rs.Samples, spawnShadow, report)
			if err != nil {
				return err
			}
			res.ArchivedSnapshots = snaps
			res.ArchiveQueries = queries
		}
	case "pcc":
		res.PCCCollisions, res.PCCDistinct = pc.Collisions()
	}
	return nil
}

// ctxKey renders a context with both sites and functions — the exact
// identity the intern table's bijection is checked against.
func ctxKey(ctx core.Context) string {
	var b strings.Builder
	for _, f := range ctx {
		fmt.Fprintf(&b, "(%d,%d)", f.Site, f.Fn)
	}
	return b.String()
}

// identIndexOf maps each recorded thread ident to its stream index;
// empty (every lookup misses) for ident-less traces.
func identIndexOf(tr *trace.Trace) map[uint64]int {
	m := make(map[uint64]int, len(tr.Idents))
	if len(tr.Idents) != len(tr.Streams) {
		return m
	}
	for i, id := range tr.Idents {
		m[id] = i
	}
	return m
}

// physicalContext is what a stack walker must report at a query point:
// the shadow stack (and the spawn prefix) with every frame that
// tail-called onward removed, since tail calls reuse their caller's
// physical frame. The filter runs per slice, matching how the
// stackwalk scheme captured the spawn prefix from the parent thread.
func physicalContext(spawn, shadow []machine.ShadowFrame) core.Context {
	phys := func(fs []machine.ShadowFrame) []machine.ShadowFrame {
		out := make([]machine.ShadowFrame, 0, len(fs))
		for i, f := range fs {
			if i+1 < len(fs) && fs[i+1].Tail {
				continue
			}
			out = append(out, f)
		}
		return out
	}
	return core.ShadowContext(phys(spawn), phys(shadow))
}

// openSites lists the call sites of every non-root frame of a true
// context, in order — the fold input for pcc.Expected. The spawn
// inheritance of PCC (a child starts from the parent's hash) falls out
// naturally: the true context already prepends the spawn path.
func openSites(ctx core.Context) []prog.SiteID {
	out := make([]prog.SiteID, 0, len(ctx))
	for _, f := range ctx {
		if f.Site != prog.NoSite {
			out = append(out, f.Site)
		}
	}
	return out
}
