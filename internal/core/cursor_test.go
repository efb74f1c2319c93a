package core

import (
	"math/rand"
	"slices"
	"testing"

	"dacce/internal/ccdag"
	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/workload"
)

// cursorStream runs 483.xalancbmk cold on one thread for calls calls,
// sampling every 16, and returns the decoder of its exported state with
// the captures in stream order.
func cursorStream(tb testing.TB, calls int64) (*Decoder, []*Capture) {
	tb.Helper()
	pr, ok := workload.ByName("483.xalancbmk")
	if !ok {
		tb.Fatal("no 483.xalancbmk profile")
	}
	pr.Threads, pr.TotalCalls = 1, calls
	w, err := workload.Build(pr)
	if err != nil {
		tb.Fatal(err)
	}
	d := New(w.P, Options{})
	rs, err := w.NewMachine(d, machine.Config{SampleEvery: 16}).Run()
	if err != nil {
		tb.Fatal(err)
	}
	dec, err := d.ExportState().NewDecoder()
	if err != nil {
		tb.Fatal(err)
	}
	caps := make([]*Capture, len(rs.Samples))
	for i, s := range rs.Samples {
		caps[i] = s.Capture.(*Capture)
	}
	return dec, caps
}

// TestDecodeNodeCursorMatchesDecodeNode replays a recorded capture
// stream the way dacced's write path does: 512-capture batches, each
// decoded through one cursor reset at the batch's start, and the epochs
// the stream has left retired before the batch (their nodes unpinned,
// the DAG advanced and collected with the later epochs' nodes pinned).
// Every capture must resolve to the very node DecodeNode interns for it
// in the same DAG, and that node must materialize to Decode's frames.
func TestDecodeNodeCursorMatchesDecodeNode(t *testing.T) {
	calls := int64(300_000)
	if testing.Short() {
		calls = 100_000
	}
	dec, caps := cursorStream(t, calls)
	const batch = 512
	dag := ccdag.New()
	var cur NodeCursor
	live := map[uint32][]*ccdag.Node{}
	retired, retirements := int64(-1), 0
	var reused, frames int64
	nodes := make([]*ccdag.Node, batch)
	for lo := 0; lo+batch <= len(caps); lo += batch {
		b := caps[lo : lo+batch]
		minEpoch := b[0].Epoch
		for _, c := range b {
			minEpoch = min(minEpoch, c.Epoch)
		}
		if e := int64(minEpoch) - 1; e > retired {
			for ep := range live {
				if int64(ep) <= e {
					delete(live, ep)
				}
			}
			dag.Collect(dag.AdvanceGen(), func(mark func(*ccdag.Node)) {
				for _, ns := range live {
					for _, n := range ns {
						mark(n)
					}
				}
			})
			retired = e
			retirements++
		}
		cur.Reset()
		for i, c := range b {
			n, err := dec.DecodeNodeCursor(dag, c, &cur)
			if err != nil {
				t.Fatalf("capture %d: %v", lo+i, err)
			}
			nodes[i] = n
			live[c.Epoch] = append(live[c.Epoch], n)
			frames += int64(n.Depth())
		}
		reused += cur.Reused()
		for i, c := range b {
			n, err := dec.DecodeNode(dag, c)
			if err != nil {
				t.Fatalf("capture %d: DecodeNode: %v", lo+i, err)
			}
			if n != nodes[i] {
				t.Fatalf("capture %d: cursor decode gave node %d, DecodeNode node %d", lo+i, nodes[i].ID(), n.ID())
			}
			want, err := dec.Decode(c)
			if err != nil {
				t.Fatalf("capture %d: Decode: %v", lo+i, err)
			}
			if got := NodeContext(n); !slices.Equal(got, want) {
				t.Fatalf("capture %d: node materializes to %v, Decode gives %v", lo+i, got, want)
			}
		}
	}
	t.Logf("%d captures, %d retirements, %d of %d frames reused from the cursor", len(caps)/batch*batch, retirements, reused, frames)
	if retirements < 2 || reused == 0 {
		t.Fatalf("stream made %d retirements and reused %d frames: it does not exercise the cursor", retirements, reused)
	}
}

// TestNodeCursorPushMatchesInternWalk pushes random paths over a tiny
// alphabet through one cursor, so consecutive paths share root prefixes
// and often differ in a frame's site alone or its function alone: each
// result must be the node an Intern walk from the root gives.
func TestNodeCursorPushMatchesInternWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dag := ccdag.New()
	var cur NodeCursor
	rev := make([]ContextFrame, 0, 12)
	for i := range 5000 {
		rev = rev[:0]
		for range 1 + rng.Intn(12) {
			rev = append(rev, ContextFrame{Site: prog.SiteID(rng.Intn(2)), Fn: prog.FuncID(rng.Intn(2))})
		}
		rev[len(rev)-1].Site = prog.NoSite
		var want *ccdag.Node
		for j := len(rev) - 1; j >= 0; j-- {
			want = dag.Intern(want, rev[j].Site, rev[j].Fn)
		}
		if got := cur.push(dag, rev); got != want {
			t.Fatalf("path %d %v: cursor gave node %d, an Intern walk %d", i, rev, got.ID(), want.ID())
		}
	}
	if cur.Reused() == 0 {
		t.Fatal("no path reused a frame")
	}
}

// TestNodeCursorKeepsState checks the cursor's bookkeeping: a capture
// that fails to decode and one with a spawn chain leave it as it was,
// a decode never leaves a node pointer past the path it describes, and
// Reset clears every node pointer in its backing array.
func TestNodeCursorKeepsState(t *testing.T) {
	dec, caps := cursorStream(t, 20_000)
	dag := ccdag.New()
	var cur NodeCursor
	// Decode the deepest capture, then shallower ones, so the backing
	// array has slots past every later path.
	slices.SortStableFunc(caps, func(a, b *Capture) int {
		da, _ := dec.Decode(a)
		db, _ := dec.Decode(b)
		return len(db) - len(da)
	})
	unchanged := func(what string, frames []ContextFrame, nodes []*ccdag.Node) {
		t.Helper()
		if !slices.Equal(cur.frames, frames) || !slices.Equal(cur.nodes, nodes) {
			t.Fatalf("%s changed the cursor", what)
		}
	}
	for i, c := range caps[:200] {
		n, err := dec.DecodeNodeCursor(dag, c, &cur)
		if err != nil {
			t.Fatal(err)
		}
		if n != cur.nodes[len(cur.nodes)-1] || len(cur.frames) != n.Depth() {
			t.Fatalf("capture %d: cursor does not end at the decoded node", i)
		}
		if tail := cur.nodes[len(cur.nodes):cap(cur.nodes)]; slices.ContainsFunc(tail, func(n *ccdag.Node) bool { return n != nil }) {
			t.Fatalf("capture %d: node pointers left past the cursor's path", i)
		}
		frames, nodes := slices.Clone(cur.frames), slices.Clone(cur.nodes)
		bad := *c
		bad.Fn = -1
		if _, err := dec.DecodeNodeCursor(dag, &bad, &cur); err == nil {
			t.Fatal("capture with an out-of-range function decoded")
		}
		unchanged("a failed decode", frames, nodes)
		spawned := *c
		spawned.Spawn = caps[i+1]
		n, err = dec.DecodeNodeCursor(dag, &spawned, &cur)
		if err != nil {
			t.Fatal(err)
		}
		unchanged("a spawned capture", frames, nodes)
		want, err := dec.Decode(&spawned)
		if err != nil {
			t.Fatal(err)
		}
		if got := NodeContext(n); !slices.Equal(got, want) {
			t.Fatalf("spawned capture %d: node materializes to %v, Decode gives %v", i, got, want)
		}
	}
	cur.Reset()
	if len(cur.frames) != 0 || cur.Reused() != 0 {
		t.Fatal("Reset left frames or a reuse count")
	}
	if slices.ContainsFunc(cur.nodes[:cap(cur.nodes)], func(n *ccdag.Node) bool { return n != nil }) {
		t.Fatal("Reset left node pointers in the backing array")
	}
}
