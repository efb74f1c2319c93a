package core

import (
	"sync"
	"testing"

	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/progtest"
	"dacce/internal/telemetry"
)

// collectSink records every event, for assertions on ordering/payloads.
type collectSink struct {
	mu  sync.Mutex
	evs []telemetry.Event
}

func (c *collectSink) Emit(ev telemetry.Event) {
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
}

func (c *collectSink) byKind(k telemetry.Kind) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range c.evs {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// TestTelemetryMatchesStats runs a discovery-heavy program with a
// recording sink and cross-checks the event stream against the
// encoder's own statistics — the two are independent accounting paths
// for the same run.
func TestTelemetryMatchesStats(t *testing.T) {
	p := discoveringProgram(t, 40, 60)
	sink := &collectSink{}
	d := New(p, Options{Trig: Triggers{NewEdges: 4}, Sink: sink})
	m := machine.New(p, d, machine.Config{SampleEvery: 16})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := d.Stats()

	if n := len(sink.byKind(telemetry.EvEncoderInit)); n != 1 {
		t.Errorf("EvEncoderInit emitted %d times, want 1", n)
	}
	if n := len(sink.byKind(telemetry.EvEdgeDiscovered)); n != st.EdgesDiscovered {
		t.Errorf("EvEdgeDiscovered count = %d, Stats.EdgesDiscovered = %d", n, st.EdgesDiscovered)
	}
	starts := sink.byKind(telemetry.EvReencodeStart)
	var ends []telemetry.Event // committed passes; aborted ones carry Err
	aborted := 0
	for _, ev := range sink.byKind(telemetry.EvReencodeEnd) {
		if ev.Err {
			aborted++
			continue
		}
		ends = append(ends, ev)
	}
	if len(starts) != len(ends)+aborted {
		t.Errorf("re-encode events = %d start / %d end", len(starts), len(ends)+aborted)
	}
	if len(ends) != st.GTS {
		t.Errorf("committed re-encode ends = %d, Stats.GTS = %d", len(ends), st.GTS)
	}
	for i, ev := range ends {
		if ev.Reason == telemetry.ReasonNone {
			t.Errorf("EvReencodeEnd[%d] has no trigger reason", i)
		}
		if i < len(st.History) && ev.Value != uint64(st.History[i].CostCycles) {
			t.Errorf("EvReencodeEnd[%d].Value = %d, History cost = %d", i, ev.Value, st.History[i].CostCycles)
		}
		if i < len(st.History) && ev.Epoch != st.History[i].Epoch {
			t.Errorf("EvReencodeEnd[%d].Epoch = %d, History epoch = %d", i, ev.Epoch, st.History[i].Epoch)
		}
	}
	if n := len(sink.byKind(telemetry.EvHandlerTrap)); int64(n) != rs.C.HandlerTraps {
		t.Errorf("EvHandlerTrap count = %d, machine counter = %d", n, rs.C.HandlerTraps)
	}

	// Decode every sample: each must emit exactly one EvDecodeRequest
	// with the decoded depth, and none may fail.
	for _, s := range rs.Samples {
		if _, err := d.DecodeSample(s); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	decs := sink.byKind(telemetry.EvDecodeRequest)
	if len(decs) != len(rs.Samples) {
		t.Errorf("EvDecodeRequest count = %d, want %d", len(decs), len(rs.Samples))
	}
	for i, ev := range decs {
		if ev.Err {
			t.Errorf("EvDecodeRequest[%d] flagged an error on a valid capture", i)
		}
		if ev.Value == 0 {
			t.Errorf("EvDecodeRequest[%d] reports empty context", i)
		}
	}
}

// forcingSink records events and, on the first prepared event of an
// adaptive pass, forces a pass of its own: a forced pass publishes an
// epoch between the adaptive pass's prepare and its stop-the-world.
type forcingSink struct {
	collectSink
	d      *DACCE
	forced bool
}

func (s *forcingSink) Emit(ev telemetry.Event) {
	s.collectSink.Emit(ev)
	if ev.Kind == telemetry.EvReencodePrepared && ev.Reason != telemetry.ReasonForced && !s.forced {
		s.forced = true
		s.d.ForceReencode(nil)
	}
}

// TestAbortedPassClosesSpan: an adaptive pass whose plan went stale
// under a forced pass, and whose triggers no longer fire on the
// re-check, publishes nothing but must still pair its EvReencodeStart
// with an EvReencodeEnd, flagged Err and leaving the epoch where the
// forced pass put it.
func TestAbortedPassClosesSpan(t *testing.T) {
	p, base, _ := twoLevelProgram(t, 2, 4, 0)
	sink := &forcingSink{}
	d := New(p, Options{Trig: Triggers{NewEdges: 4}, Sink: sink})
	sink.d = d
	d.InjectDiscoveries(base)
	d.Maintain(nil)
	if !sink.forced {
		t.Fatal("no adaptive pass reached its prepare; the test exercised nothing")
	}

	starts := sink.byKind(telemetry.EvReencodeStart)
	ends := sink.byKind(telemetry.EvReencodeEnd)
	if len(starts) != 2 || len(ends) != 2 {
		t.Fatalf("re-encode events = %d start / %d end, want 2/2", len(starts), len(ends))
	}
	if gts := d.Stats().GTS; gts != 1 {
		t.Fatalf("Stats.GTS = %d, want 1 (only the forced pass commits)", gts)
	}
	forced, aborted := ends[0], ends[1]
	if forced.Err || forced.Reason != telemetry.ReasonForced {
		t.Errorf("first end = %v, want the committed forced pass", forced)
	}
	if !aborted.Err || aborted.Reason != starts[0].Reason {
		t.Errorf("second end = %v, want an aborted end matching start %v", aborted, starts[0])
	}
	if aborted.Epoch != d.Epoch() || aborted.Aux != d.MaxID() || aborted.Value != 0 {
		t.Errorf("aborted end = %v, want epoch %d, maxID %d, no cost", aborted, d.Epoch(), d.MaxID())
	}
}

// TestTelemetryPushPopEvents checks ccStack events against the machine
// counters on a recursion-heavy script that actually exercises the
// ccStack, and that pop events carry a depth one below their push.
func TestTelemetryPushPopEvents(t *testing.T) {
	fx, b := progtest.Fig2()
	sink := &collectSink{}
	var d *DACCE
	root := []progtest.Call{
		progtest.By(fx.S("AC"), progtest.By(fx.S("CD"))),
		{Site: fx.S("AC"), Target: prog.NoFunc, Hook: func(x prog.Exec) { d.ForceReencode(x) }},
		// New edge AD: pushes <id, AD, D> while unencoded.
		progtest.By(fx.S("AD")),
		progtest.By(fx.S("AD")),
	}
	_, rs := runScriptDeferred(t, fx, b, root, Options{Trig: quietTriggers, Sink: sink}, machine.Config{}, &d)

	pushes := sink.byKind(telemetry.EvCCStackPush)
	pops := sink.byKind(telemetry.EvCCStackPop)
	if int64(len(pushes)) != rs.C.CCPush {
		t.Errorf("EvCCStackPush count = %d, machine counter = %d", len(pushes), rs.C.CCPush)
	}
	if int64(len(pops)) != rs.C.CCPop {
		t.Errorf("EvCCStackPop count = %d, machine counter = %d", len(pops), rs.C.CCPop)
	}
	for i, ev := range pushes {
		if ev.Value == 0 {
			t.Errorf("push[%d] depth = 0, want >= 1 (depth after push)", i)
		}
		if ev.Site == prog.NoSite || ev.Fn == prog.NoFunc {
			t.Errorf("push[%d] missing site/target: %v", i, ev)
		}
	}
}

// TestTelemetryNilSinkIdentical verifies the nil-sink fast path is
// behaviour-preserving: the same seeded program produces identical
// statistics with and without a sink attached.
func TestTelemetryNilSinkIdentical(t *testing.T) {
	p := discoveringProgram(t, 40, 60)
	run := func(sink telemetry.Sink) (*Stats, machine.Counters) {
		d := New(p, Options{Trig: Triggers{NewEdges: 4}, Sink: sink})
		m := machine.New(p, d, machine.Config{SampleEvery: 16, DropSamples: true, Seed: 7})
		rs, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return d.Stats(), rs.C
	}
	plain, pc := run(nil)
	counted, cc := run(&telemetry.CountingSink{})
	if plain.GTS != counted.GTS || plain.Edges != counted.Edges ||
		plain.MaxID != counted.MaxID || plain.EdgesDiscovered != counted.EdgesDiscovered {
		t.Errorf("stats diverge with sink: %+v vs %+v", plain, counted)
	}
	if pc.InstrCost != cc.InstrCost {
		t.Errorf("model instrumentation cost diverges with sink: %d vs %d", pc.InstrCost, cc.InstrCost)
	}
}
