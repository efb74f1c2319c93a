package core

import (
	"reflect"
	"testing"

	"dacce/internal/machine"
	"dacce/internal/prog"
)

// twoLevelProgram builds main → callers → leaves with every edge
// expressed as a static call site, plus `reserved` extra sites on
// caller 0 targeting otherwise-unreached leaves. No bodies run it; the
// bounded-pause tests drive discovery through InjectDiscoveries and
// passes through ReencodeNow, so the graph shape is fully controlled.
func twoLevelProgram(tb testing.TB, callers, leavesPerCaller, reserved int) (*prog.Program, []Discovery, []Discovery) {
	tb.Helper()
	b := prog.NewBuilder()
	mainF := b.Func("main")
	var base, extra []Discovery
	var callerFns []prog.FuncID
	for c := 0; c < callers; c++ {
		cf := b.Func("c" + string(rune('A'+c)))
		callerFns = append(callerFns, cf)
		base = append(base, Discovery{Site: b.CallSite(mainF, cf), Fn: cf, Freq: 10})
		for l := 0; l < leavesPerCaller; l++ {
			lf := b.Func("l" + string(rune('A'+c)) + string(rune('a'+l)))
			b.Leaf(lf, 1)
			base = append(base, Discovery{Site: b.CallSite(cf, lf), Fn: lf, Freq: 5})
		}
	}
	for r := 0; r < reserved; r++ {
		lf := b.Func("x" + string(rune('a'+r)))
		b.Leaf(lf, 1)
		extra = append(extra, Discovery{Site: b.CallSite(callerFns[0], lf), Fn: lf, Freq: 1})
	}
	b.Body(mainF, func(x prog.Exec) {})
	return b.MustBuild(), base, extra
}

// diffIndexes compares the per-function in-edge lists of two decode
// indexes entry for entry.
func diffIndexes(tb testing.TB, epoch uint32, got, want *decodeIndex) {
	tb.Helper()
	if len(got.in) != len(want.in) {
		tb.Errorf("epoch %d: delta index has %d functions with in-edges, full rebuild has %d", epoch, len(got.in), len(want.in))
	}
	for fn, wlist := range want.in {
		glist, ok := got.in[fn]
		if !ok {
			tb.Errorf("epoch %d: fn %d missing from delta index (want %d in-edges)", epoch, fn, len(wlist))
			continue
		}
		if !reflect.DeepEqual(glist, wlist) {
			tb.Errorf("epoch %d: fn %d in-edges differ:\n delta %+v\n full  %+v", epoch, fn, glist, wlist)
		}
	}
}

// TestDeltaIndexAndStubSetAgainstFullRebuild is the controlled
// delta-vs-full equivalence check: one incremental pass over a known
// delta must produce (a) a decode index identical to a from-scratch
// newDecodeIndex of the same assignment, and (b) a dirty-site set that
// covers every site whose stub action changed — and only a small
// fraction of the program, since the delta touched one caller.
func TestDeltaIndexAndStubSetAgainstFullRebuild(t *testing.T) {
	p, base, extra := twoLevelProgram(t, 8, 4, 6)
	d := New(p, Options{})
	d.InjectDiscoveries(base)
	m := machine.New(p, d, machine.Config{})
	d.Install(m)
	d.ForceReencode(nil) // epoch 1: the full baseline the delta builds on

	d.InjectDiscoveries(extra)
	prev := d.cur()
	d.ReencodeNow(nil, true)
	next := d.cur()

	plan := d.lastPlan
	if plan == nil {
		t.Fatal("no pass ran")
	}
	if !plan.incremental {
		t.Fatal("forced-incremental pass fell back to a full renumbering")
	}
	if next.epoch != prev.epoch+1 {
		t.Fatalf("epoch %d after pass, want %d", next.epoch, prev.epoch+1)
	}

	// (a) The published delta-derived index equals a full rebuild, heat
	// table included (a full pass gives the live index one over every
	// registered edge).
	full := newDecodeIndex(d.g, next.dicts[len(next.dicts)-1])
	got := next.idx[len(next.idx)-1]
	diffIndexes(t, next.epoch, got, full)
	if want := heatTable(d.g.Edges); !reflect.DeepEqual(got.edges, want) {
		t.Errorf("delta index tracks %d heat-table edges, full rebuild %d", len(got.edges), len(want))
	}

	// (b) Every edge whose action changed sits at a dirty site.
	totalSites := 0
	for _, e := range d.g.Edges {
		totalSites++
		ref := edgeRef{site: e.Site, target: e.Target}
		before := d.actionForIn(prev, ref)
		after := d.actionForIn(next, ref)
		if before != after && !plan.dirtySites[e.Site] {
			t.Errorf("site %d (target %d): action changed %+v -> %+v but site not in dirty set", e.Site, e.Target, before, after)
		}
	}
	// The delta touched caller 0 only; the rebuild must not approach a
	// full sweep of the program's sites.
	if len(plan.dirtySites) >= totalSites/2 {
		t.Errorf("dirty set has %d of %d sites — delta rebuild degenerated to a full one", len(plan.dirtySites), totalSites)
	}

	// Re-injecting known edges must not re-register or re-count them.
	edgesBefore := d.Stats().Edges
	d.InjectDiscoveries(extra)
	if got := d.Stats().Edges; got != edgesBefore {
		t.Errorf("re-injecting known edges grew the graph from %d to %d edges", edgesBefore, got)
	}
}

// TestDeltaIndexChainMatchesFullOnWorkload cross-validates every epoch
// of a discovery-heavy incremental run: each published per-epoch decode
// index — most of them delta-derived from the previous epoch — must
// match a from-scratch rebuild of that epoch's assignment.
func TestDeltaIndexChainMatchesFullOnWorkload(t *testing.T) {
	p := discoveringProgram(t, 60, 80)
	d := New(p, Options{Trig: Triggers{NewEdges: 6}})
	m := machine.New(p, d, machine.Config{SampleEvery: 9})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().IncrementalPasses == 0 {
		t.Fatal("run performed no incremental passes; chain check is vacuous")
	}
	snap := d.cur()
	for e := range snap.idx {
		// Edges discovered after epoch e have no code in dicts[e], so a
		// from-scratch rebuild over today's graph reconstructs exactly
		// the in-edge lists the epoch froze.
		diffIndexes(t, uint32(e), snap.idx[e], newDecodeIndex(d.g, snap.dicts[e]))
	}
}

// TestEpochRecordPhaseAttribution checks the satellite cost-model fix:
// every pass's CostCycles decomposes into the four phase costs, each
// phase is priced by its recorded work volume, and stub rebuild and
// thread translation are no longer free.
func TestEpochRecordPhaseAttribution(t *testing.T) {
	p := discoveringProgram(t, 60, 80)
	d := New(p, Options{Trig: Triggers{NewEdges: 6}})
	m := machine.New(p, d, machine.Config{SampleEvery: 9})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if len(st.History) == 0 {
		t.Fatal("no passes recorded")
	}
	sawIncremental, sawStubCost, sawTranslate := false, false, false
	for i, r := range st.History {
		if sum := r.RenumberCost + r.IndexCost + r.StubCost + r.TranslateCost; r.CostCycles != sum {
			t.Errorf("pass %d: CostCycles %d != phase sum %d", i, r.CostCycles, sum)
		}
		if want := int64(machine.CostIndexPerEdge) * int64(r.IndexEntries); r.IndexCost != want {
			t.Errorf("pass %d: IndexCost %d, want %d for %d entries", i, r.IndexCost, want, r.IndexEntries)
		}
		if want := int64(machine.CostStubRebuild) * int64(r.SitesRebuilt); r.StubCost != want {
			t.Errorf("pass %d: StubCost %d, want %d for %d sites", i, r.StubCost, want, r.SitesRebuilt)
		}
		if want := int64(machine.CostTranslatePerFrame) * int64(r.FramesReplayed); r.TranslateCost != want {
			t.Errorf("pass %d: TranslateCost %d, want %d for %d frames", i, r.TranslateCost, want, r.FramesReplayed)
		}
		sawIncremental = sawIncremental || r.Incremental
		sawStubCost = sawStubCost || r.StubCost > 0
		sawTranslate = sawTranslate || r.ThreadsTranslated > 0 || r.ThreadsSkipped > 0
	}
	if !sawIncremental {
		t.Error("no incremental pass in history")
	}
	if !sawStubCost {
		t.Error("stub rebuilds were never priced")
	}
	if !sawTranslate {
		t.Error("no pass saw a live thread; translation accounting untested")
	}
}

// TestSelectiveTranslationSkipsCleanThreads: an incremental pass whose
// delta does not intersect a thread's active frames (and does not move
// maxID past a marker the thread holds) must leave that thread
// untranslated. The controlled pass below runs with no live threads at
// all, so both counters must be zero and the pass must still record a
// consistent epoch; the workload-driven skip case is asserted through
// History in TestEpochRecordPhaseAttribution.
func TestSelectiveTranslationCounters(t *testing.T) {
	p, base, extra := twoLevelProgram(t, 4, 4, 2)
	d := New(p, Options{})
	d.InjectDiscoveries(base)
	m := machine.New(p, d, machine.Config{})
	d.Install(m)
	d.ForceReencode(nil)
	d.InjectDiscoveries(extra)
	d.ReencodeNow(nil, true)

	st := d.Stats()
	last := st.History[len(st.History)-1]
	if !last.Incremental {
		t.Fatalf("expected an incremental pass, got %+v", last)
	}
	if last.ThreadsTranslated != 0 || last.ThreadsSkipped != 0 || last.FramesReplayed != 0 {
		t.Errorf("threadless pass recorded translation work: %+v", last)
	}
	if last.SitesRebuilt == 0 {
		t.Error("delta pass rebuilt no stubs despite changed edges")
	}
	if last.PauseNanos < 0 || last.PrepareNanos <= 0 {
		t.Errorf("concurrent pass timing not recorded: pause %d prep %d", last.PauseNanos, last.PrepareNanos)
	}
}
