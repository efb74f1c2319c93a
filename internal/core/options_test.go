package core

import (
	"testing"

	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/telemetry"
)

// discoveringProgram keeps exposing new edges so adaptive triggers keep
// having material.
func discoveringProgram(tb testing.TB, nLeaves, rounds int) *prog.Program {
	tb.Helper()
	b := prog.NewBuilder()
	mainF := b.Func("main")
	var sites []prog.SiteID
	for i := 0; i < nLeaves; i++ {
		f := b.Func("leaf" + string(rune('A'+i%26)) + string(rune('a'+i/26)))
		sites = append(sites, b.CallSite(mainF, f))
		b.Leaf(f, 1)
	}
	b.Body(mainF, func(x prog.Exec) {
		for r := 0; r < rounds; r++ {
			for i, s := range sites {
				if i <= r*nLeaves/rounds {
					x.Call(s, prog.NoFunc)
				}
			}
		}
	})
	return b.MustBuild()
}

func TestMaxReencodesCapsAdaptivity(t *testing.T) {
	p := discoveringProgram(t, 40, 60)
	run := func(cap int) (*Stats, *machine.RunStats) {
		d := New(p, Options{Trig: Triggers{NewEdges: 4}, MaxReencodes: cap})
		m := machine.New(p, d, machine.Config{SampleEvery: 16, DropSamples: true})
		rs, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return d.Stats(), rs
	}
	free, _ := run(0)
	capped, cappedRS := run(2)
	if free.GTS <= 2 {
		t.Fatalf("uncapped run re-encoded only %d times; test needs churn", free.GTS)
	}
	if capped.GTS != 2 {
		t.Errorf("capped run re-encoded %d times, want exactly 2", capped.GTS)
	}
	// Frozen encoding leaves later edges on the ccStack.
	if cappedRS.C.CCPush == 0 {
		t.Error("capped run never pushed despite frozen encoding")
	}
}

func TestMaintainTriggersWithoutSampling(t *testing.T) {
	p := discoveringProgram(t, 30, 40)
	d := New(p, Options{Trig: Triggers{NewEdges: 8}})
	// No sampling at all: only the Maintain hook can fire the triggers.
	m := machine.New(p, d, machine.Config{MaintainEvery: 64})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().GTS == 0 {
		t.Error("maintenance hook never re-encoded despite edge churn")
	}
}

func TestNoHotFirstStillDecodes(t *testing.T) {
	p := discoveringProgram(t, 20, 20)
	d := New(p, Options{NoHotFirst: true, Trig: Triggers{NewEdges: 6}})
	m := machine.New(p, d, machine.Config{SampleEvery: 5})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rs.Samples {
		ctx, err := d.DecodeSample(s)
		if err != nil {
			t.Fatalf("sample %d: %v", s.Seq, err)
		}
		if want := ShadowContext(nil, s.Shadow); !ctx.Equal(want) {
			t.Errorf("sample %d: %v != %v", s.Seq, ctx, want)
		}
	}
}

// TestEncodingBudgetExclusion gives DACCE a tiny id budget: the encoder
// must keep ids within it by leaving cold edges on the ccStack, and
// decoding must keep working.
func TestEncodingBudgetExclusion(t *testing.T) {
	// Diamond chains multiply contexts beyond the tiny budget.
	b := prog.NewBuilder()
	prev := b.Func("main")
	type lay struct {
		sl, sr prog.SiteID
		j      prog.FuncID
	}
	var lays []lay
	for i := 0; i < 8; i++ {
		l := b.Func("l" + string(rune('a'+i)))
		r := b.Func("r" + string(rune('a'+i)))
		j := b.Func("j" + string(rune('a'+i)))
		sl := b.CallSite(prev, l)
		sr := b.CallSite(prev, r)
		slj := b.CallSite(l, j)
		srj := b.CallSite(r, j)
		b.Body(l, func(x prog.Exec) { x.Call(slj, prog.NoFunc) })
		b.Body(r, func(x prog.Exec) { x.Call(srj, prog.NoFunc) })
		lays = append(lays, lay{sl, sr, j})
		prev = j
	}
	// Chain the layers: j_i calls into layer i+1's sides.
	for i := 0; i+1 < len(lays); i++ {
		next := lays[i+1]
		b.Body(lays[i].j, func(x prog.Exec) {
			if x.Rand().Float64() < 0.5 {
				x.Call(next.sl, prog.NoFunc)
			} else {
				x.Call(next.sr, prog.NoFunc)
			}
		})
	}
	mainID := b.ID("main")
	b.Body(mainID, func(x prog.Exec) {
		for k := 0; k < 400; k++ {
			if x.Rand().Float64() < 0.5 {
				x.Call(lays[0].sl, prog.NoFunc)
			} else {
				x.Call(lays[0].sr, prog.NoFunc)
			}
		}
	})
	p := b.MustBuild()

	d := New(p, Options{Budget: 20, Trig: Triggers{NewEdges: 4}})
	m := machine.New(p, d, machine.Config{SampleEvery: 7, Seed: 11})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := d.MaxID(); got > 20 {
		t.Errorf("maxID %d exceeds budget 20", got)
	}
	if !d.Stats().Overflowed {
		t.Error("budget pressure not reported as overflow")
	}
	for _, s := range rs.Samples {
		ctx, err := d.DecodeSample(s)
		if err != nil {
			t.Fatalf("sample %d: %v", s.Seq, err)
		}
		if want := ShadowContext(nil, s.Shadow); !ctx.Equal(want) {
			t.Errorf("sample %d: %v != %v", s.Seq, ctx, want)
		}
	}
}

// TestIDRangeInvariantUnderBudget: even with exclusions, captured ids
// stay within 2*maxID+1 of their epoch.
func TestIDRangeInvariantUnderBudget(t *testing.T) {
	p := discoveringProgram(t, 25, 30)
	d := New(p, Options{Budget: 8, Trig: Triggers{NewEdges: 4}})
	m := machine.New(p, d, machine.Config{SampleEvery: 3})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rs.Samples {
		c := s.Capture.(*Capture)
		dict := d.Dict(c.Epoch)
		if c.ID > 2*dict.MaxID+1 {
			t.Fatalf("id %d out of range for epoch %d (maxID %d)", c.ID, c.Epoch, dict.MaxID)
		}
	}
}

// layeredProgram builds main → mids → leaves with every mid calling
// every leaf, so each leaf has one in-edge per mid and the numbering
// gives them distinct nonzero codes. It returns the program and the
// (site, target) discoveries of its edges, the ones out of the last mid
// separately: that mid's edges are the delta a pass renumbers.
func layeredProgram(tb testing.TB, mids, leaves int) (*prog.Program, []Discovery, []Discovery) {
	tb.Helper()
	b := prog.NewBuilder()
	mainF := b.Func("main")
	var leafFns []prog.FuncID
	for l := 0; l < leaves; l++ {
		lf := b.Func("leaf" + string(rune('a'+l)))
		b.Leaf(lf, 1)
		leafFns = append(leafFns, lf)
	}
	var base, delta []Discovery
	var mainSites []prog.SiteID
	for m := 0; m < mids; m++ {
		mf := b.Func("mid" + string(rune('A'+m)))
		ms := b.CallSite(mainF, mf)
		mainSites = append(mainSites, ms)
		base = append(base, Discovery{Site: ms, Fn: mf, Freq: 10})
		var sites []prog.SiteID
		for _, lf := range leafFns {
			s := b.CallSite(mf, lf)
			sites = append(sites, s)
			disc := Discovery{Site: s, Fn: lf, Freq: int64(1 + m)}
			if m == mids-1 {
				delta = append(delta, disc)
			} else {
				base = append(base, disc)
			}
		}
		b.Body(mf, func(x prog.Exec) {
			for _, s := range sites {
				x.Call(s, prog.NoFunc)
			}
		})
	}
	b.Body(mainF, func(x prog.Exec) {
		for r := 0; r < 20; r++ {
			for _, s := range mainSites {
				x.Call(s, prog.NoFunc)
			}
		}
	})
	return b.MustBuild(), base, delta
}

// TestIncrementalEncoding compares a forced full pass with a forced
// incremental pass over the same InjectDiscoveries delta: the
// incremental one must splice rather than fall back, renumber fewer
// edges and cost less, reach the same maxID, and — like the full one —
// decode every context of a run under the epoch it published exactly.
func TestIncrementalEncoding(t *testing.T) {
	p, base, delta := layeredProgram(t, 4, 6)
	run := func(incremental bool) EpochRecord {
		d := New(p, Options{Trig: quietTriggers})
		m := machine.New(p, d, machine.Config{SampleEvery: 3})
		d.InjectDiscoveries(base)
		d.Install(m)
		d.ForceReencode(nil) // epoch 1: the full baseline both passes build on
		d.InjectDiscoveries(delta)
		d.ReencodeNow(nil, incremental)
		st := d.Stats()
		// Every edge the run executes is already encoded: no trap, no
		// pass, so every sample is captured under the compared epoch.
		rs, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if gts := d.Stats().GTS; gts != st.GTS || len(rs.Samples) == 0 {
			t.Fatalf("run re-encoded %d more times and took %d samples", gts-st.GTS, len(rs.Samples))
		}
		for _, s := range rs.Samples {
			ctx, err := d.DecodeSample(s)
			if err != nil {
				t.Fatalf("sample %d: %v", s.Seq, err)
			}
			if want := ShadowContext(nil, s.Shadow); !ctx.Equal(want) {
				t.Fatalf("sample %d: %v != %v", s.Seq, ctx, want)
			}
		}
		return st.History[len(st.History)-1]
	}
	full, incr := run(false), run(true)
	if full.Incremental {
		t.Fatal("forced full pass renumbered incrementally")
	}
	if !incr.Incremental {
		t.Fatal("forced incremental pass fell back to a full renumbering")
	}
	if incr.ChangedEdges >= full.EncodedEdges {
		t.Errorf("incremental pass changed %d edges, full pass encodes %d", incr.ChangedEdges, full.EncodedEdges)
	}
	if incr.CostCycles >= full.CostCycles {
		t.Errorf("incremental cost %d not below full cost %d", incr.CostCycles, full.CostCycles)
	}
	if incr.MaxID != full.MaxID {
		t.Errorf("incremental maxID %d, full maxID %d", incr.MaxID, full.MaxID)
	}
}

// TestFullPassCountsChangedEdges: a full pass reports as changed every
// edge whose code differs from the previous epoch's, new edges
// included, in its EpochRecord and in its prepared event. The delta's
// edges are hotter than the base's, so hot-first ordering recodes old
// edges too.
func TestFullPassCountsChangedEdges(t *testing.T) {
	p, base, delta := layeredProgram(t, 4, 6)
	sink := &collectSink{}
	d := New(p, Options{Trig: quietTriggers, Sink: sink})
	d.InjectDiscoveries(base)
	d.Install(machine.New(p, d, machine.Config{}))
	d.ForceReencode(nil)
	d.InjectDiscoveries(delta)
	prev := d.Epoch()
	d.ForceReencode(nil)

	before, after := d.Dict(prev), d.Dict(prev+1)
	want := 0
	for i, c := range after.Codes {
		if i >= len(before.Codes) || before.Codes[i] != c {
			want++
		}
	}
	if want <= len(delta) {
		t.Fatalf("the pass recoded %d edges, no more than the %d new ones; the check is vacuous", want, len(delta))
	}
	h := d.Stats().History
	if got := h[len(h)-1]; got.Incremental || got.ChangedEdges != want {
		t.Errorf("full pass recorded %d changed edges (incremental %v), want %d", got.ChangedEdges, got.Incremental, want)
	}
	prepared := sink.byKind(telemetry.EvReencodePrepared)
	if got := prepared[len(prepared)-1].Value; got != uint64(want) {
		t.Errorf("prepared event carries %d changed edges, want %d", got, want)
	}
}

// TestIncrementalOnWorkload cross-validates incremental discovery passes
// on a full synthetic benchmark with recursion, indirects and tail calls.
func TestIncrementalOnWorkload(t *testing.T) {
	// Built via the public profile to avoid an import cycle with
	// workload: replicate a small profile inline instead.
	p := discoveringProgram(t, 45, 50)
	d := New(p, Options{Trig: Triggers{NewEdges: 4}})
	m := machine.New(p, d, machine.Config{SampleEvery: 3})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d.Stats().IncrementalPasses == 0 {
		t.Fatal("no discovery pass renumbered incrementally")
	}
	bad := 0
	for _, s := range rs.Samples {
		ctx, err := d.DecodeSample(s)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if want := ShadowContext(nil, s.Shadow); !ctx.Equal(want) {
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d mis-decodes under incremental encoding", bad)
	}
}
