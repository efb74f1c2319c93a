package telemetry

import (
	"strings"
	"sync"
	"testing"

	"dacce/internal/prog"
)

func TestKindAndReasonStrings(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	for r := Reason(0); r < NumReasons; r++ {
		s := r.String()
		if s == "" || strings.HasPrefix(s, "reason(") {
			t.Errorf("reason %d has no name", r)
		}
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Errorf("out-of-range kind = %q", got)
	}
	if got := Reason(200).String(); got != "reason(200)" {
		t.Errorf("out-of-range reason = %q", got)
	}
}

func TestCountingSink(t *testing.T) {
	var c CountingSink
	c.Emit(Event{Kind: EvEdgeDiscovered})
	c.Emit(Event{Kind: EvEdgeDiscovered})
	c.Emit(Event{Kind: EvReencodeEnd, Reason: ReasonNewEdges})
	if got := c.Count(EvEdgeDiscovered); got != 2 {
		t.Errorf("Count(EvEdgeDiscovered) = %d, want 2", got)
	}
	if got := c.Total(); got != 3 {
		t.Errorf("Total() = %d, want 3", got)
	}
}

func TestCountingSinkConcurrent(t *testing.T) {
	var c CountingSink
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Emit(Event{Kind: EvCCStackPush})
			}
		}()
	}
	wg.Wait()
	if got := c.Count(EvCCStackPush); got != workers*per {
		t.Errorf("concurrent count = %d, want %d", got, workers*per)
	}
}

func TestMulti(t *testing.T) {
	var a, b CountingSink
	s := Multi(nil, &a, nil, &b)
	s.Emit(Event{Kind: EvTailFixup})
	if a.Total() != 1 || b.Total() != 1 {
		t.Errorf("multi sink did not fan out: a=%d b=%d", a.Total(), b.Total())
	}
	if Multi() != nil || Multi(nil) != nil {
		t.Error("Multi of no live sinks should be nil")
	}
	if Multi(&a) != Sink(&a) {
		t.Error("Multi of one sink should collapse to it")
	}
}

func TestEventString(t *testing.T) {
	ev := Event{
		Kind: EvEdgeDiscovered, Thread: 3, Epoch: 2,
		Site: prog.SiteID(7), Fn: prog.FuncID(9), Value: 12,
	}
	s := ev.String()
	for _, want := range []string{"edge_discovered", "t3", "s7", "f9", "v=12"} {
		if !strings.Contains(s, want) {
			t.Errorf("Event.String() = %q, missing %q", s, want)
		}
	}
	bare := Event{Kind: EvReencodeEnd, Thread: -1, Site: prog.NoSite, Fn: prog.NoFunc, Reason: ReasonForced}
	if s := bare.String(); !strings.Contains(s, "forced") || strings.Contains(s, " s-1") {
		t.Errorf("bare Event.String() = %q", s)
	}
}
