package ccdag

import (
	"math/rand"
	"sync"
	"testing"

	"dacce/internal/prog"
)

func TestInternCanonical(t *testing.T) {
	d := New()
	r := d.Root(0)
	if r2 := d.Root(0); r2 != r {
		t.Fatalf("Root(0) interned twice: %p vs %p", r, r2)
	}
	a := d.Intern(r, 1, 1)
	b := d.Intern(r, 1, 1)
	if a != b {
		t.Fatalf("equal frames interned to distinct nodes: %p vs %p", a, b)
	}
	if c := d.Intern(r, 2, 1); c == a {
		t.Fatal("distinct sites interned to the same node")
	}
	if c := d.Intern(r, 1, 2); c == a {
		t.Fatal("distinct functions interned to the same node")
	}
	r9 := d.Root(9)
	if c := d.Intern(r9, 1, 1); c == a {
		t.Fatal("distinct predecessors interned to the same node")
	}
	if a.Site() != 1 || a.Fn() != 1 || a.Pred() != r {
		t.Fatalf("node accessors: site=%d fn=%d pred=%p want 1,1,%p", a.Site(), a.Fn(), a.Pred(), r)
	}
}

func TestDepthAndIDs(t *testing.T) {
	d := New()
	n := d.Root(0)
	if n.Depth() != 1 {
		t.Fatalf("root depth %d, want 1", n.Depth())
	}
	seen := map[uint64]bool{n.ID(): true}
	for i := 1; i <= 100; i++ {
		n = d.Intern(n, prog.SiteID(i), prog.FuncID(i))
		if n.Depth() != i+1 {
			t.Fatalf("depth %d at frame %d, want %d", n.Depth(), i, i+1)
		}
		if n.ID() == 0 {
			t.Fatal("node id 0 assigned (ids start at 1)")
		}
		if seen[n.ID()] {
			t.Fatalf("duplicate node id %d", n.ID())
		}
		seen[n.ID()] = true
	}
	// Re-interning the same chain must create nothing new.
	before := d.Len()
	m := d.Root(0)
	for i := 1; i <= 100; i++ {
		m = d.Intern(m, prog.SiteID(i), prog.FuncID(i))
	}
	if m != n {
		t.Fatal("re-interned chain is not pointer-equal to the original")
	}
	if after := d.Len(); after != before {
		t.Fatalf("re-interning grew the DAG: %d -> %d nodes", before, after)
	}
}

func TestStats(t *testing.T) {
	d := New()
	n := d.Root(0)
	for i := 1; i < 50; i++ {
		n = d.Intern(n, prog.SiteID(i), prog.FuncID(i))
	}
	m := d.Root(0)
	for i := 1; i < 50; i++ {
		m = d.Intern(m, prog.SiteID(i), prog.FuncID(i))
	}
	s := d.Stats()
	if s.Nodes != 50 {
		t.Fatalf("Nodes = %d, want 50", s.Nodes)
	}
	if s.Misses != 50 {
		t.Fatalf("Misses = %d, want 50", s.Misses)
	}
	if s.Hits != 50 {
		t.Fatalf("Hits = %d, want 50 (the whole second chain)", s.Hits)
	}
	if s.BytesEstimate <= 0 {
		t.Fatal("BytesEstimate not positive")
	}
	if hr := s.HitRate(); hr != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", hr)
	}
}

// TestGrowth pushes enough distinct nodes through single shards to
// force several table growths and verifies every node stays reachable
// and canonical afterwards.
func TestGrowth(t *testing.T) {
	d := New()
	root := d.Root(0)
	nodes := make([]*Node, 0, 50_000)
	for i := 0; i < 50_000; i++ {
		nodes = append(nodes, d.Intern(root, prog.SiteID(i), prog.FuncID(i%97)))
	}
	for i, want := range nodes {
		if got := d.Intern(root, prog.SiteID(i), prog.FuncID(i%97)); got != want {
			t.Fatalf("node %d lost canonicality after growth: %p vs %p", i, got, want)
		}
	}
	if n := d.Len(); n != 50_001 {
		t.Fatalf("Len = %d, want 50001", n)
	}
}

// TestConcurrentIntern is the -race stress gate: many goroutines intern
// heavily overlapping suffix chains concurrently, then every path is
// re-interned serially and must resolve to the same canonical pointer
// the concurrent phase produced.
func TestConcurrentIntern(t *testing.T) {
	d := New()
	const (
		goroutines = 16
		walks      = 400
		maxDepth   = 40
	)
	// A path is keyed by its (site, fn) steps, one byte per coordinate:
	// the alphabet below is far narrower than a byte.
	var mu sync.Mutex
	canon := make(map[string]*Node)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			local := make(map[string]*Node)
			path := make([]byte, 0, 2*maxDepth)
			for w := 0; w < walks; w++ {
				n := d.Root(0)
				path = path[:0]
				depth := 1 + rng.Intn(maxDepth)
				for i := 0; i < depth; i++ {
					// A small alphabet makes the goroutines collide on
					// the same chains constantly — the contended regime
					// the lock-free read path must get right.
					site := prog.SiteID(rng.Intn(6))
					fn := prog.FuncID(rng.Intn(6))
					n = d.Intern(n, site, fn)
					path = append(path, byte(site), byte(fn))
					if prev, ok := local[string(path)]; !ok {
						local[string(path)] = n
					} else if prev != n {
						t.Errorf("goroutine saw two nodes for one path %v", path)
						return
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for k, n := range local {
				if prev, ok := canon[k]; ok && prev != n {
					t.Errorf("two goroutines interned distinct nodes for path %v", []byte(k))
					return
				}
				canon[k] = n
			}
		}(int64(g))
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Serial re-intern of every observed path must hit the same nodes.
	for k, want := range canon {
		if n := reintern(d, k); n != want {
			t.Fatalf("serial re-intern of %v produced %p, concurrent phase made %p", []byte(k), n, want)
		}
	}
	// Every observed path plus the shared root node.
	st := d.Stats()
	if st.Nodes != int64(len(canon))+1 {
		t.Fatalf("DAG holds %d nodes, %d distinct paths observed (+1 root)", st.Nodes, len(canon))
	}
}

// reintern interns a path from root 0, one (site, fn) step per byte
// pair of its key.
func reintern(d *DAG, key string) *Node {
	n := d.Root(0)
	for i := 0; i+1 < len(key); i += 2 {
		n = d.Intern(n, prog.SiteID(key[i]), prog.FuncID(key[i+1]))
	}
	return n
}

// TestInternNoAllocsWarm verifies the hit path allocates nothing — the
// property the warm decode pipeline's 0-alloc gate builds on.
func TestInternNoAllocsWarm(t *testing.T) {
	d := New()
	n := d.Root(0)
	for i := 0; i < 32; i++ {
		n = d.Intern(n, prog.SiteID(i), prog.FuncID(i))
	}
	leaf := n
	if avg := testing.AllocsPerRun(1000, func() {
		m := d.Root(0)
		for i := 0; i < 32; i++ {
			m = d.Intern(m, prog.SiteID(i), prog.FuncID(i))
		}
		if m != leaf {
			t.Fatal("warm re-intern diverged")
		}
	}); avg != 0 {
		t.Fatalf("warm intern path allocates %v allocs/op, want 0", avg)
	}
}

func BenchmarkInternWarm(b *testing.B) {
	d := New()
	n := d.Root(0)
	for i := 0; i < 64; i++ {
		n = d.Intern(n, prog.SiteID(i), prog.FuncID(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := d.Root(0)
		for j := 0; j < 64; j++ {
			m = d.Intern(m, prog.SiteID(j), prog.FuncID(j))
		}
	}
}

func BenchmarkPointerEqualVsWalk(b *testing.B) {
	d := New()
	n := d.Root(0)
	for i := 0; i < 64; i++ {
		n = d.Intern(n, prog.SiteID(i), prog.FuncID(i))
	}
	m := d.Root(0)
	for i := 0; i < 64; i++ {
		m = d.Intern(m, prog.SiteID(i), prog.FuncID(i))
	}
	b.Run("pointer", func(b *testing.B) {
		eq := 0
		for i := 0; i < b.N; i++ {
			if n == m {
				eq++
			}
		}
		_ = eq
	})
}

// BenchmarkInternCold prices Intern on a table far larger than the CPU
// caches: 1M distinct nodes (4,096 roots with 256 children each), hits
// looked up in shuffled order so consecutive probes share no cache
// lines, and misses that each create a node.
func BenchmarkInternCold(b *testing.B) {
	const roots, fanout = 4096, 256
	d := New()
	nodes := make([]*Node, 0, roots*fanout)
	for r := range roots {
		root := d.Root(prog.FuncID(r))
		for i := range fanout {
			nodes = append(nodes, d.Intern(root, prog.SiteID(i), prog.FuncID(r+i)))
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := nodes[i%len(nodes)]
			if d.Intern(n.pred, n.site, n.fn) != n {
				b.Fatal("hit resolved to another node")
			}
		}
	})
	// Sites from fanout up have never been interned, and each is used
	// once across every run of the miss benchmark.
	fresh := fanout
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := nodes[i%len(nodes)]
			d.Intern(n.pred, prog.SiteID(fresh), n.fn)
			fresh++
		}
	})
}
