package ccdag

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dacce/internal/prog"
)

// internChain interns a depth-long chain derived from seed and returns
// the leaf.
func internChain(d *DAG, seed, depth int) *Node {
	n := d.Root(prog.FuncID(seed % 8))
	for i := 0; i < depth; i++ {
		n = d.Intern(n, prog.SiteID(seed+i), prog.FuncID((seed+i)%64))
	}
	return n
}

func TestCollectDropsStaleKeepsLive(t *testing.T) {
	d := New()
	stale := internChain(d, 1000, 10)
	if g := d.AdvanceGen(); g != 1 {
		t.Fatalf("AdvanceGen = %d, want 1", g)
	}
	live := internChain(d, 2000, 10)
	before := d.Len()

	st := d.Collect(d.Gen(), nil)
	if st.Before != before {
		t.Fatalf("CollectStats.Before = %d, want %d", st.Before, before)
	}
	// The stale chain's 10 frames are gone (its root is shared with the
	// live chain, which re-stamped it), the live one stays, pointer
	// identity intact.
	if st.Freed != 10 {
		t.Fatalf("freed %d nodes, want 10", st.Freed)
	}
	if got := d.Len(); got != before-10 {
		t.Fatalf("Len after collect = %d, want %d", got, before-10)
	}
	if again := internChain(d, 2000, 10); again != live {
		t.Fatalf("live chain lost identity across Collect: %p vs %p", again, live)
	}
	// The stale chain re-interns to fresh nodes (old ones lost
	// canonicality when dropped).
	if again := internChain(d, 1000, 10); again == stale {
		t.Fatal("dropped chain came back with the same leaf pointer")
	}
	s := d.Stats()
	if s.Collections != 1 || s.Collected != 10 {
		t.Fatalf("Stats counters = (%d passes, %d collected), want (1, 10)", s.Collections, s.Collected)
	}
}

func TestCollectPinKeepsChainCanonical(t *testing.T) {
	d := New()
	pinned := internChain(d, 3000, 6)
	d.AdvanceGen()
	st := d.Collect(d.Gen(), func(mark func(*Node)) { mark(pinned) })
	if st.Freed != 0 {
		t.Fatalf("freed %d nodes despite pin, want 0", st.Freed)
	}
	if again := internChain(d, 3000, 6); again != pinned {
		t.Fatalf("pinned chain lost identity: %p vs %p", again, pinned)
	}
}

func TestCollectFloorClampAndZeroFloor(t *testing.T) {
	d := New()
	internChain(d, 4000, 4)
	// Floor above the current generation clamps; generation 0 is live,
	// so nothing is freed.
	if st := d.Collect(99, nil); st.Freed != 0 || st.Floor != 0 {
		t.Fatalf("Collect(99) = %+v, want floor 0, freed 0", st)
	}
	if d.Len() != 5 {
		t.Fatalf("Len = %d after no-op collect, want 5", d.Len())
	}
}

func TestFresh(t *testing.T) {
	d := New()
	n := internChain(d, 5000, 3)
	if !d.Fresh(n) {
		t.Fatal("just-interned node not fresh")
	}
	d.AdvanceGen()
	if d.Fresh(n) {
		t.Fatal("node still fresh after AdvanceGen")
	}
	if m := internChain(d, 5000, 3); m != n || !d.Fresh(n) {
		t.Fatalf("re-interning did not refresh: same=%v fresh=%v", m == n, d.Fresh(n))
	}
	if d.Fresh(nil) {
		t.Fatal("nil node reported fresh")
	}
}

// TestCollectConcurrentIdentity hammers Intern from many goroutines
// while a collector advances generations and sweeps, following the
// low-water contract the encoder implements with capture refcounts:
// each worker registers the generation its walk started in, and the
// collector's floor never passes the oldest registered walk. Under
// that contract — the one real callers obey — a chain interned twice
// within one registration must come back pointer-identical, no matter
// how the sweep interleaves. Run with -race.
func TestCollectConcurrentIdentity(t *testing.T) {
	d := New()
	const (
		workers = 8
		rounds  = 400
		chains  = 32
	)
	var (
		stop      atomic.Bool
		collector sync.WaitGroup
		work      sync.WaitGroup
	)
	// inflight[w] holds 1 + the generation worker w's current walk
	// started in, 0 when idle — the test's stand-in for the encoder's
	// per-epoch capture refcounts.
	inflight := make([]atomic.Uint64, workers)
	floor := func() uint64 {
		f := d.Gen()
		for i := range inflight {
			if s := inflight[i].Load(); s != 0 && s-1 < f {
				f = s - 1
			}
		}
		return f
	}
	// Collector: advance and sweep as fast as it can, floor capped by
	// in-flight walks.
	collector.Add(1)
	go func() {
		defer collector.Done()
		for !stop.Load() {
			d.AdvanceGen()
			d.Collect(floor(), nil)
		}
	}()
	var errMu sync.Mutex
	var firstErr error
	fail := func(format string, args ...any) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = fmt.Errorf(format, args...)
		}
		errMu.Unlock()
	}
	for w := 0; w < workers; w++ {
		work.Add(1)
		go func(w int) {
			defer work.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < rounds; r++ {
				// Register the walk's start generation; the verify loop
				// closes the race with a collector that computed its
				// floor before seeing the registration (the same
				// store-then-recheck shape real refcounting needs).
				for {
					g := d.Gen()
					inflight[w].Store(g + 1)
					if d.Gen() == g {
						break
					}
				}
				seed := 100 * (1 + rng.Intn(chains))
				depth := 3 + rng.Intn(12)
				// Back-to-back interns of the same chain inside one
				// registration: the floor cannot pass the first walk's
				// stamps, so both walks must resolve to one canonical
				// leaf.
				a := internChain(d, seed, depth)
				b := internChain(d, seed, depth)
				inflight[w].Store(0)
				if a != b {
					fail("worker %d round %d: same chain interned twice gave %p vs %p", w, r, a, b)
					return
				}
				if a.Depth() != depth+1 {
					fail("worker %d round %d: leaf depth %d, want %d", w, r, a.Depth(), depth+1)
					return
				}
			}
		}(w)
	}
	// Wait for the workers, then stop the collector.
	work.Wait()
	stop.Store(true)
	collector.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	// Post-stress sanity: the table is internally consistent.
	if err := checkTable(d); err != nil {
		t.Fatal(err)
	}
}

// checkTable walks every shard and verifies each resident node is
// found by its own probe (no nil slot breaks its probe sequence before
// it, and no equal node sits earlier), sits in the shard its hash
// selects, and has its pred resident whenever it is (canonical chains
// stay closed under pred); the table stays within its load limit, and
// Len matches the resident count.
func checkTable(d *DAG) error {
	resident := map[*Node]bool{}
	var count int64
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		err := func() error {
			t := sh.table.Load()
			var inShard int64
			for j := range t.slots {
				n := t.slots[j].Load()
				if n == nil {
					continue
				}
				if n.hash&(shardCount-1) != uint64(i) {
					return fmt.Errorf("node %p in shard %d, hash says %d", n, i, n.hash&(shardCount-1))
				}
				if got := lookup(t, n.hash, n.pred, n.site, n.fn); got != n {
					return fmt.Errorf("node %p in slot %d not found by its own probe from slot %d (got %p)", n, j, t.home(n.hash), got)
				}
				if resident[n] {
					return fmt.Errorf("node %p resident twice", n)
				}
				resident[n] = true
				inShard++
			}
			if inShard != sh.count {
				return fmt.Errorf("shard %d holds %d nodes, count says %d", i, inShard, sh.count)
			}
			if t.full(inShard) {
				return fmt.Errorf("shard %d holds %d nodes in %d slots, past the load limit", i, inShard, len(t.slots))
			}
			count += inShard
			return nil
		}()
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	if got := d.Len(); got != count {
		return fmt.Errorf("Len() = %d, resident count = %d", got, count)
	}
	for n := range resident {
		if n.pred != nil && !resident[n.pred] {
			return fmt.Errorf("resident node %p has non-resident pred %p (broken canonical chain)", n, n.pred)
		}
	}
	return nil
}

// TestCollectChurn drives many advance/intern/collect rounds with a
// rotating context population and asserts the steady-state footprint
// stays bounded by the live set, not by history.
func TestCollectChurn(t *testing.T) {
	d := New()
	for round := 0; round < 200; round++ {
		d.AdvanceGen()
		leaf := internChain(d, 100*(round%7), 8)
		st := d.Collect(d.Gen(), nil)
		// Only this round's chain (root + 8 frames) is live.
		if n := d.Len(); n != 9 {
			t.Fatalf("round %d: %d nodes resident after collect (stats %+v), want 9", round, n, st)
		}
		if !d.Fresh(leaf) {
			t.Fatalf("round %d: just-interned leaf not fresh", round)
		}
	}
	if err := checkTable(d); err != nil {
		t.Fatal(err)
	}
}

// TestProbeClusterSharedHome fills one shard with nodes that all carry
// the same hash, so they share one home slot in every table size and
// form one probe cluster, then checks growth, Collect's rebuild and a
// reader-side rescue against that worst case.
func TestProbeClusterSharedHome(t *testing.T) {
	d := New()
	const h = 0x2468_ace0_0000_0000 // shard 0
	sh := &d.shards[h&(shardCount-1)]
	intern := func(i int, rescue *Node) *Node {
		return sh.intern(d, d.Gen(), h, nil, prog.SiteID(i), prog.FuncID(i), rescue)
	}
	find := func(n *Node) *Node { return lookup(sh.table.Load(), h, nil, n.site, n.fn) }
	// cluster checks the shard's table: its size, and that the resident
	// nodes fill one run of slots from the shared home, in probe order.
	cluster := func(stage string, slots, resident int) {
		t.Helper()
		tb := sh.table.Load()
		if len(tb.slots) != slots {
			t.Fatalf("%s: %d slots, want %d", stage, len(tb.slots), slots)
		}
		for i := range resident + 1 {
			if occupied := tb.slots[(tb.home(h)+uint64(i))&tb.mask].Load() != nil; occupied != (i < resident) {
				t.Fatalf("%s: slot %d occupied=%v, want a run of %d from home", stage, i, occupied, resident)
			}
		}
		if err := checkTable(d); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}

	// 200 nodes pass the 3/4 load limit of 64, 128 and 256 slots.
	const total = 200
	nodes := make([]*Node, total)
	for i := range nodes {
		nodes[i] = intern(i, nil)
		if again := intern(i, nil); again != nodes[i] {
			t.Fatalf("node %d interned twice: %p vs %p", i, again, nodes[i])
		}
	}
	cluster("after growth", 512, total)
	for i, n := range nodes {
		if find(n) != n {
			t.Fatalf("node %d lost after growth", i)
		}
	}

	// Re-stamp the even nodes in a new generation; Collect drops the odd
	// ones and rebuilds the shard at most half full.
	d.AdvanceGen()
	for i := 0; i < total; i += 2 {
		intern(i, nil)
	}
	st := d.Collect(d.Gen(), nil)
	if st.Freed != total/2 || st.Rescued != 0 {
		t.Fatalf("Collect = %+v, want %d freed, 0 rescued", st, total/2)
	}
	cluster("after collect", 256, total/2)
	for i, n := range nodes {
		if got := find(n); (got == n) != (i%2 == 0) {
			t.Fatalf("node %d after collect: found %p, kept=%v", i, got, i%2 == 0)
		}
	}

	// A reader that stamped a dropped node re-inserts that very node: it
	// lands at the end of the cluster and stays canonical.
	odd := nodes[1]
	if got := intern(1, odd); got != odd {
		t.Fatalf("rescue returned %p, want the dropped node %p", got, odd)
	}
	if find(odd) != odd || intern(1, nil) != odd {
		t.Fatal("rescued node not canonical")
	}
	cluster("after rescue", 256, total/2+1)
}
