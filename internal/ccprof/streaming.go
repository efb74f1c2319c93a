package ccprof

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"dacce/internal/ccdag"
	"dacce/internal/core"
	"dacce/internal/prog"
)

// Streaming is the always-on profiler: a core.ContextObserver that
// aggregates every context the sampling controller decodes, while the
// program runs, into the same calling-context tree an offline Profile
// builds — without adding a contended lock or an allocation to the
// sample path.
//
// The encoder hands it each sample as an interned *ccdag.Node. Each
// machine thread counts into its own shard (a map guarded by a mutex
// only that thread and the merger touch, so steady-state acquisition is
// uncontended): one map increment per sample, no tree descent. The
// tree work happens at merge time, when an export asks for it: each
// distinct node is materialized once and folded in with its
// accumulated weight. Shard registration and first-visit map keys are
// warm-up costs.
type Streaming struct {
	// shards is indexed by machine thread id and grown copy-on-write
	// under mu, so the observe fast path is one atomic load + index.
	shards atomic.Pointer[[]*streamShard]

	// mu serializes shard-registry growth, merging, exports and
	// ObserveContext folds.
	mu     sync.Mutex
	merged *Profile

	// mscratch is the merge-time materialization buffer, reused across
	// nodes and merges.
	mscratch core.Context
}

var _ core.ContextObserver = (*Streaming)(nil)

// streamShard is one thread's private node counts. A merge zeroes the
// counts but keeps the keys, so a steady-state workload re-accumulates
// with zero-allocation map increments.
type streamShard struct {
	mu    sync.Mutex
	nodes map[*ccdag.Node]int64
}

// NewStreaming returns an empty streaming profiler over p. Attach it
// with core.Options.ContextObserver or DACCE.SetContextObserver.
func NewStreaming(p *prog.Program) *Streaming {
	s := &Streaming{merged: New(p)}
	empty := make([]*streamShard, 0)
	s.shards.Store(&empty)
	return s
}

// shard returns the calling thread's shard, creating and registering it
// on first sight of the thread id (copy-on-write growth under mu; the
// loop re-checks because two new threads can race the growth).
func (s *Streaming) shard(thread int) *streamShard {
	for {
		sp := *s.shards.Load()
		if thread < len(sp) && sp[thread] != nil {
			return sp[thread]
		}
		s.mu.Lock()
		sp = *s.shards.Load()
		if thread < len(sp) && sp[thread] != nil {
			s.mu.Unlock()
			return sp[thread]
		}
		grown := make([]*streamShard, max(thread+1, len(sp)))
		copy(grown, sp)
		sh := &streamShard{nodes: make(map[*ccdag.Node]int64)}
		grown[thread] = sh
		s.shards.Store(&grown)
		s.mu.Unlock()
		return sh
	}
}

// ObserveContextNode implements core.ContextObserver: count one
// canonical context node in the calling thread's shard. The whole
// per-sample cost is a map increment — the tree fold happens once per
// distinct node at merge time instead of once per sample, and
// pointer-keyed increments on warm keys allocate nothing.
func (s *Streaming) ObserveContextNode(thread int, n *ccdag.Node) {
	if n == nil || thread < 0 {
		return
	}
	sh := s.shard(thread)
	sh.mu.Lock()
	sh.nodes[n]++
	sh.mu.Unlock()
}

// ObserveContext folds one decoded context straight into the merged
// profile under the profiler's lock, for callers that hold a frame
// slice rather than an interned node. ctx is consumed before return,
// never retained. The encoder never calls it; the sampling path goes
// through ObserveContextNode.
func (s *Streaming) ObserveContext(thread int, ctx core.Context) {
	if len(ctx) == 0 || thread < 0 {
		return
	}
	s.mu.Lock()
	_ = s.merged.Add(ctx) // fails only on an empty context, returned above
	s.mu.Unlock()
}

// mergeLocked drains every shard's accumulated counts into the merged
// profile. Caller holds s.mu. With drop false, shard maps keep their
// (zeroed) entries, so a steady-state workload re-accumulates without
// allocating. With drop true, the keys are deleted after folding —
// inside the same per-shard critical section, so no increment can land
// between the fold and the delete — releasing the shards' *ccdag.Node
// pins for DAG reclamation; the next sample per context re-creates its
// key (one map insert, warm-up cost only).
func (s *Streaming) mergeLocked(drop bool) {
	sp := *s.shards.Load()
	for _, sh := range sp {
		if sh == nil {
			continue
		}
		sh.mu.Lock()
		for n, w := range sh.nodes {
			if w != 0 {
				s.mscratch = core.AppendNodeContext(s.mscratch, n)
				_ = s.merged.addN(s.mscratch, w)
			}
			if !drop {
				sh.nodes[n] = 0
			}
		}
		if drop {
			clear(sh.nodes)
		}
		sh.mu.Unlock()
	}
}

// ReleaseNodes implements core.ContextObserver: fold every shard's
// pending node counts into the merged profile and drop the node keys,
// so the profiler no longer pins any *ccdag.Node and a DAG collection
// can free contexts that are otherwise dead. The merged profile keeps
// the full aggregated tree — it stores frames, not node pointers — so
// no counts are lost. The encoder calls this before each reclamation
// pass; safe concurrently with ObserveContextNode.
func (s *Streaming) ReleaseNodes() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mergeLocked(true)
}

// Profile merges all pending accumulation and returns a deep copy of
// the aggregate — an ordinary offline profile safe for Hot, WriteTree,
// Diff and further Adds, detached from the live profiler.
func (s *Streaming) Profile() *Profile {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mergeLocked(false)
	return s.merged.clone()
}

// Total merges and returns the aggregate context count.
func (s *Streaming) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mergeLocked(false)
	return s.merged.total
}

// WritePprof merges and writes the aggregate as a gzipped pprof
// protobuf profile.
func (s *Streaming) WritePprof(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mergeLocked(false)
	return s.merged.WritePprof(w)
}

// WriteFolded merges and writes the aggregate in folded-stack form.
func (s *Streaming) WriteFolded(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mergeLocked(false)
	return s.merged.WriteFolded(w)
}

// Handler serves the live profile over HTTP: pprof protobuf by default,
// folded text with ?format=folded, the context tree with ?format=tree —
// the /debug/ccprof endpoint of dacced and daccerun.
func (s *Streaming) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("format") {
		case "folded":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = s.WriteFolded(w)
		case "tree":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			pr := s.Profile()
			_ = pr.WriteTree(w, 0.001)
		default:
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Disposition", `attachment; filename="ccprof.pb.gz"`)
			if err := s.WritePprof(w); err != nil {
				http.Error(w, fmt.Sprintf("writing profile: %v", err), http.StatusInternalServerError)
			}
		}
	})
}

// clone deep-copies a profile.
func (pr *Profile) clone() *Profile {
	out := New(pr.p)
	out.total = pr.total
	var rec func(src *Node, dst *Node)
	rec = func(src, dst *Node) {
		dst.Exclusive = src.Exclusive
		dst.Inclusive = src.Inclusive
		for _, c := range src.Children {
			rec(c, out.child(dst, c.Site, c.Fn))
		}
	}
	rec(pr.root, out.root)
	return out
}
