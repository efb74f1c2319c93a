package core

import (
	"testing"

	"dacce/internal/graph"
	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/telemetry"
)

// lateEdgeProgram builds a program whose main first calls a → b a few
// times, then forces a pass through *d, then calls c `rounds` times,
// with c calling each of `fanout` leaves: every phase-two edge appears
// after the last forced pass. It returns the program and the phase-two
// edges.
func lateEdgeProgram(tb testing.TB, d **DACCE, fanout, rounds int) (*prog.Program, []graph.EdgeKey) {
	tb.Helper()
	b := prog.NewBuilder()
	mainF := b.Func("main")
	aF, bF, cF := b.Func("a"), b.Func("b"), b.Func("c")
	b.Leaf(bF, 1)
	ab := b.CallSite(aF, bF)
	b.Body(aF, func(x prog.Exec) { x.Call(ab, prog.NoFunc) })
	var late []graph.EdgeKey
	var leafSites []prog.SiteID
	for i := 0; i < fanout; i++ {
		lf := b.Func("leaf" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
		b.Leaf(lf, 1)
		s := b.CallSite(cF, lf)
		leafSites = append(leafSites, s)
		late = append(late, graph.EdgeKey{Site: s, Target: lf})
	}
	b.Body(cF, func(x prog.Exec) {
		for _, s := range leafSites {
			x.Call(s, prog.NoFunc)
		}
	})
	ma, mc := b.CallSite(mainF, aF), b.CallSite(mainF, cF)
	late = append(late, graph.EdgeKey{Site: mc, Target: cF})
	b.Body(mainF, func(x prog.Exec) {
		for i := 0; i < 5; i++ {
			x.Call(ma, prog.NoFunc)
		}
		(*d).ForceReencode(x)
		for r := 0; r < rounds; r++ {
			x.Call(mc, prog.NoFunc)
		}
	})
	return b.MustBuild(), late
}

// TestEachTriggerNamesItsPass fires each trigger alone, the others
// disabled and the fired one at its default threshold, and checks that
// every pass's EpochRecord and EvReencodeEnd both name the trigger.
// The hot_path and unencoded_calls cases also pin convergence's other
// side: a hot edge that appears after the last pass, too few new edges
// for trigger (a), still gets a pass that encodes it.
func TestEachTriggerNamesItsPass(t *testing.T) {
	const off = 1 << 60
	for _, tc := range []struct {
		reason telemetry.Reason
		trig   Triggers
		fanout int
		rounds int
	}{
		{telemetry.ReasonNewEdges, Triggers{UnencodedCalls: off, HotMissSamples: off}, 30, 10},
		{telemetry.ReasonHotPath, Triggers{UnencodedCalls: off}, 1, 3000},
		{telemetry.ReasonUnencodedCalls, Triggers{HotMissSamples: off}, 1, 3000},
	} {
		t.Run(tc.reason.String(), func(t *testing.T) {
			var d *DACCE
			p, late := lateEdgeProgram(t, &d, tc.fanout, tc.rounds)
			sink := &collectSink{}
			d = New(p, Options{Trig: tc.trig, Sink: sink})
			m := machine.New(p, d, machine.Config{SampleEvery: 4, DropSamples: true})
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			ended := map[uint32]telemetry.Reason{}
			for _, ev := range sink.byKind(telemetry.EvReencodeEnd) {
				if !ev.Err {
					ended[ev.Epoch] = ev.Reason
				}
			}
			hist := d.Stats().History
			if len(hist) < 2 {
				t.Fatalf("%d passes, want the forced one and at least one %s pass", len(hist), tc.reason)
			}
			for i, r := range hist {
				want := tc.reason
				if i == 0 {
					want = telemetry.ReasonForced
				}
				if r.Reason != want {
					t.Errorf("pass %d (epoch %d): record says %s, want %s", i, r.Epoch, r.Reason, want)
				}
				if got, ok := ended[r.Epoch]; !ok || got != want {
					t.Errorf("pass %d (epoch %d): EvReencodeEnd says %s (seen %v), want %s", i, r.Epoch, got, ok, want)
				}
			}
			if tc.reason == telemetry.ReasonNewEdges {
				return
			}
			if len(late) >= DefaultNewEdges {
				t.Fatalf("%d late edges reach the new-edges threshold", len(late))
			}
			asn := d.Dict(d.Epoch())
			for _, k := range late {
				e := d.Graph().Edge(k.Site, k.Target)
				if e == nil {
					t.Errorf("late hot edge %+v never discovered", k)
					continue
				}
				if c, ok := asn.CodeOf(e); !ok || !c.Encoded {
					t.Errorf("late hot edge %+v not encoded by epoch %d", k, d.Epoch())
				}
			}
		})
	}
}
