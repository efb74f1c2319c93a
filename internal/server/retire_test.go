package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dacce/internal/ccdag"
	"dacce/internal/core"
	"dacce/internal/prog"
)

// decodeJSONBody decodes and closes an HTTP response body, failing the
// test on a non-200 status.
func decodeJSONBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestRetireEpochBoundsMemoAndDAG drives the full retirement path over
// HTTP: decode everything (warming memo, DAG and profiler), retire all
// epochs, and check that the memo empties, the DAG shrinks to what the
// (now empty) memo pins, stats expose the reclamation, and decoding the
// same captures afterwards still matches the in-process encoder — a
// retirement is a memory policy, never a data deletion. Then 40 rounds
// of a 512-capture decode, each followed by retiring every epoch, must
// empty the memo every time and keep the DAG's pre-retirement peak
// bounded by the early rounds' instead of growing with history.
func TestRetireEpochBoundsMemoAndDAG(t *testing.T) {
	f := newServeFixture(t, Config{}, 80_000, 5)
	if _, dr := f.decode(t, "serve", f.captures); dr == nil {
		t.Fatal("warm decode failed")
	}
	tn := f.srv.resolve("serve")
	if tn.memoSize.Load() == 0 {
		t.Fatal("warm decode memoized nothing")
	}
	nodesBefore := tn.dag.Len()

	var maxEpoch uint32
	for _, c := range f.captures {
		if c.Epoch > maxEpoch {
			maxEpoch = c.Epoch
		}
	}
	resp, err := http.Post(f.ts.URL+"/v1/retire?tenant=serve&epoch="+
		strconv.FormatUint(uint64(maxEpoch), 10), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var info RetireInfo
	decodeJSONBody(t, resp, &info)
	if info.MemoDropped == 0 || info.Collect.Freed == 0 {
		t.Fatalf("retire dropped %d memo entries, freed %d nodes — want both > 0 (%+v)",
			info.MemoDropped, info.Collect.Freed, info)
	}
	if got := tn.memoSize.Load(); got != 0 {
		t.Fatalf("memo size %d after retiring every epoch, want 0", got)
	}
	if got := tn.dag.Len(); got >= nodesBefore {
		t.Fatalf("DAG holds %d nodes after full retirement, had %d before", got, nodesBefore)
	}

	// Reclamation shows up in /v1/stats.
	var st Stats
	sresp, err := http.Get(f.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	decodeJSONBody(t, sresp, &st)
	ts0 := st.Tenants[0]
	if ts0.DAGCollections == 0 || ts0.DAGCollected == 0 {
		t.Fatalf("stats report %d collections / %d collected, want both > 0",
			ts0.DAGCollections, ts0.DAGCollected)
	}
	if ts0.MemoSize != 0 {
		t.Fatalf("stats memo_size = %d after full retirement", ts0.MemoSize)
	}
	if ts0.DAGNodes != tn.dag.Len() {
		t.Fatalf("stats dag_nodes = %d, live table has %d (stale pre-collection figure?)",
			ts0.DAGNodes, tn.dag.Len())
	}

	// Post-retirement decodes still produce the in-process frames.
	_, dr := f.decode(t, "serve", f.captures[:min(512, len(f.captures))])
	if dr == nil {
		t.Fatal("decode after retirement failed")
	}
	for i, res := range dr.Results {
		want, err := f.d.Decode(f.captures[i])
		if err != nil {
			t.Fatal(err)
		}
		if res.Error != "" || len(res.Frames) != len(want) {
			t.Fatalf("capture %d after retirement: error %q, %d frames want %d",
				i, res.Error, len(res.Frames), len(want))
		}
		for j, fr := range res.Frames {
			if fr.Site != want[j].Site || fr.Fn != want[j].Fn {
				t.Fatalf("capture %d frame %d diverged after retirement", i, j)
			}
		}
	}

	const rounds, batch = 40, 512
	var early, latePeak int64
	for r := 0; r < rounds; r++ {
		caps := make([]*core.Capture, batch)
		for i := range caps {
			caps[i] = f.captures[(r*batch+i)%len(f.captures)]
		}
		if _, dr := f.decode(t, "serve", caps); dr == nil {
			t.Fatalf("round %d: decode failed", r)
		}
		switch n := tn.dag.Len(); {
		case r == rounds/4:
			early = n
		case r > rounds/4 && n > latePeak:
			latePeak = n
		}
		if _, err := f.srv.RetireEpoch("serve", maxEpoch); err != nil {
			t.Fatal(err)
		}
		if got := tn.memoSize.Load(); got != 0 {
			t.Fatalf("round %d: memo holds %d entries after retiring every epoch", r, got)
		}
	}
	if early == 0 {
		t.Fatal("the early round interned no context; the bound is vacuous")
	}
	if latePeak > 2*early+1024 {
		t.Fatalf("DAG footprint grew with history: %d nodes late vs %d early", latePeak, early)
	}
	t.Logf("%d captures; DAG nodes before retirement: %d early, %d late peak", len(f.captures), early, latePeak)
}

// TestMemoizableWithCC checks the exact ccStack key: captures carrying
// a non-empty ccStack are memoizable now, a repeat pass serves them
// from the memo, and distinct ccStacks never collide onto one entry.
func TestMemoizableWithCC(t *testing.T) {
	f := newServeFixture(t, Config{}, 60_000, 17)
	var withCC []*core.Capture
	for _, c := range f.captures {
		if len(c.CC) > 0 && c.Spawn == nil {
			withCC = append(withCC, c)
		}
	}
	if len(withCC) == 0 {
		t.Skip("workload produced no ccStack captures without spawn chains")
	}
	if !memoizable(withCC[0]) {
		t.Fatal("ccStack capture not memoizable")
	}
	first, dr1 := f.decode(t, "serve", withCC)
	if dr1 == nil {
		t.Fatalf("first pass: HTTP %d", first.StatusCode)
	}
	tn := f.srv.resolve("serve")
	missesAfterWarm := tn.memoMisses.Load()
	_, dr2 := f.decode(t, "serve", withCC)
	if dr2 == nil {
		t.Fatal("second pass failed")
	}
	if got := tn.memoMisses.Load(); got != missesAfterWarm {
		t.Fatalf("second pass took %d new misses, want 0 (all from memo)", got-missesAfterWarm)
	}
	for i := range dr1.Results {
		a, b := dr1.Results[i], dr2.Results[i]
		if len(a.Frames) != len(b.Frames) {
			t.Fatalf("capture %d: memoized pass returned %d frames, first %d",
				i, len(b.Frames), len(a.Frames))
		}
		for j := range a.Frames {
			if a.Frames[j] != b.Frames[j] {
				t.Fatalf("capture %d frame %d changed across memoization", i, j)
			}
		}
		// Cross-check against the in-process decode: a key collision
		// between different ccStacks would surface here as wrong frames.
		want, err := f.d.Decode(withCC[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Frames) != len(want) {
			t.Fatalf("capture %d: memoized %d frames, in-process %d", i, len(b.Frames), len(want))
		}
	}
}

// TestMemoMissRaceAccounting hammers one previously unseen capture from
// many goroutines: however the misses race, exactly one insert must win
// (misses == entries created) and hits + misses must equal the decode
// count — the check-then-insert fix.
func TestMemoMissRaceAccounting(t *testing.T) {
	f := newServeFixture(t, Config{}, 30_000, 29)
	tn := f.srv.resolve("serve")
	var target *core.Capture
	for _, c := range f.captures {
		if memoizable(c) {
			target = c
			break
		}
	}
	if target == nil {
		t.Fatal("no memoizable capture in fixture")
	}
	const goroutines = 16
	var wg sync.WaitGroup
	nodes := make([]*ccdag.Node, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var key []byte
			var cur core.NodeCursor
			var run memoRun
			tn.genMu.RLock()
			n, err := tn.decodeNode(target, &key, &cur, &run)
			tn.endMemoRun(&run)
			tn.genMu.RUnlock()
			if err != nil {
				t.Error(err)
				return
			}
			nodes[g] = n
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if nodes[g] != nodes[0] {
			t.Fatalf("goroutine %d resolved a different node", g)
		}
	}
	hits, misses := tn.memoHits.Load(), tn.memoMisses.Load()
	if misses != tn.memoSize.Load() {
		t.Fatalf("misses %d != memo entries %d — double-counted racing misses", misses, tn.memoSize.Load())
	}
	if hits+misses != goroutines {
		t.Fatalf("hits %d + misses %d != %d decodes", hits, misses, goroutines)
	}
}

// TestMemoKeysExact: the memo keys on a capture's exact decode input.
// A variant of a memoized ccStack capture that differs in one ccStack
// field — ID, Site, Target, Count or Rec — gets the answer the
// in-process encoder gives it, never the memoized capture's: a variant
// that decodes gets its own memo entry and its own frames, and one that
// does not decode gets an error. The fixture has no one-field ID or
// Count variant that decodes (its saved ids sit in the marker range and
// no entry is compressed), so those two fields take the error path.
func TestMemoKeysExact(t *testing.T) {
	f := newServeFixture(t, Config{}, 60_000, 17)
	tn := f.srv.resolve("serve")
	mutations := []struct {
		field string
		set   func(e *core.CCEntry, k int)
	}{
		{"ID", func(e *core.CCEntry, k int) { e.ID = uint64(k) }},
		{"Site", func(e *core.CCEntry, k int) { e.Site = prog.SiteID(k) }},
		{"Target", func(e *core.CCEntry, k int) { e.Target = prog.FuncID(k) }},
		{"Count", func(e *core.CCEntry, k int) { e.Count = uint32(k) }},
		{"Rec", func(e *core.CCEntry, k int) { e.Rec = k%2 == 1 }},
	}
	var withCC []*core.Capture
	for _, c := range f.captures {
		if len(c.CC) > 0 && c.Spawn == nil && len(withCC) < 200 {
			withCC = append(withCC, c)
		}
	}
	if len(withCC) == 0 {
		t.Fatal("fixture has no spawn-free ccStack captures")
	}
	for _, m := range mutations {
		// Prefer a variant the in-process encoder decodes; else take the
		// first one that differs.
		var base, variant *core.Capture
		var want core.Context
	search:
		for _, c := range withCC {
			for j := range c.CC {
				for k := range 200 {
					v := *c
					v.CC = slices.Clone(c.CC)
					m.set(&v.CC[j], k)
					if v.CC[j] == c.CC[j] {
						continue
					}
					ctx, err := f.d.Decode(&v)
					if base == nil || err == nil {
						base, variant, want = c, &v, ctx
					}
					if err == nil {
						break search
					}
				}
			}
		}
		if bytes.Equal(appendMemoKey(nil, base), appendMemoKey(nil, variant)) {
			t.Fatalf("%s: variant shares the memoized capture's key", m.field)
		}
		if _, dr := f.decode(t, "serve", []*core.Capture{base}); dr == nil || dr.Results[0].Error != "" {
			t.Fatalf("%s: memoizing the base capture failed", m.field)
		}
		misses, size := tn.memoMisses.Load(), tn.memoSize.Load()
		_, dr := f.decode(t, "serve", []*core.Capture{variant})
		if dr == nil {
			t.Fatalf("%s: variant request failed", m.field)
		}
		res := dr.Results[0]
		if want == nil {
			if res.Error == "" || tn.memoSize.Load() != size {
				t.Fatalf("%s: undecodable variant answered %d frames (error %q), memo %d → %d",
					m.field, len(res.Frames), res.Error, size, tn.memoSize.Load())
			}
			continue
		}
		if tn.memoMisses.Load() != misses+1 || tn.memoSize.Load() != size+1 {
			t.Fatalf("%s: variant did not get its own memo entry (misses %d → %d, size %d → %d)",
				m.field, misses, tn.memoMisses.Load(), size, tn.memoSize.Load())
		}
		if res.Error != "" || len(res.Frames) != len(want) {
			t.Fatalf("%s: variant answered %d frames (error %q), in-process %d", m.field, len(res.Frames), res.Error, len(want))
		}
		for i, fr := range res.Frames {
			if fr.Site != want[i].Site || fr.Fn != want[i].Fn {
				t.Fatalf("%s: variant frame %d is (s%d,f%d), in-process (s%d,f%d)", m.field, i, fr.Site, fr.Fn, want[i].Site, want[i].Fn)
			}
		}
	}
}

// TestRetireEpochFreesProfiledNodes: once every epoch is retired,
// nothing in the tenant keeps a decoded context alive — not the memo,
// not the DAG, and not the streaming profiler, whose per-shard counts
// key every node a decode observed until retireEpoch folds them into
// its frame-keyed tree — and neither does a wire buffer that decoded
// them and was reset, as release resets it before pooling it: a busy
// pool keeps its buffers however often the collector runs. A finalizer
// on every decoded leaf node must run before the deadline.
func TestRetireEpochFreesProfiledNodes(t *testing.T) {
	f := newServeFixture(t, Config{}, 30_000, 29)
	tn := f.srv.resolve("serve")
	if _, dr := f.decode(t, "serve", f.captures); dr == nil {
		t.Fatal("decode failed")
	}
	pooled := new(wireBuf)
	f.srv.decodeBatch(tn, pooled, f.captures, 0)
	pooled.reset()
	defer runtime.KeepAlive(pooled)
	var freed atomic.Int64
	leaves := finalizeMemoNodes(tn, &freed)
	if leaves == 0 || tn.prof.Total() == 0 {
		t.Fatalf("%d memoized leaves, profile total %d: the decode observed nothing", leaves, tn.prof.Total())
	}
	tn.retireEpoch(maxEpochOf(f.captures))
	deadline := time.Now().Add(10 * time.Second)
	for freed.Load() < leaves {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d decoded leaf nodes freed 10 s after retiring every epoch", freed.Load(), leaves)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// finalizeMemoNodes sets a finalizer counting into freed on every
// distinct node the tenant's memo holds and returns how many it set.
// It keeps no node reachable once it returns.
func finalizeMemoNodes(tn *tenant, freed *atomic.Int64) int64 {
	seen := map[*ccdag.Node]bool{}
	tn.memoMu.RLock()
	for _, b := range tn.memo {
		for _, n := range b {
			if !seen[n] {
				seen[n] = true
				runtime.SetFinalizer(n, func(*ccdag.Node) { freed.Add(1) })
			}
		}
	}
	tn.memoMu.RUnlock()
	return int64(len(seen))
}
