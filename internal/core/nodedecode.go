// Node-interning decode: the allocation-free streaming twin of the
// slice decode path. Instead of materializing a []ContextFrame per
// query, the reverse walk's frames are interned into a hash-consed
// context DAG (internal/ccdag), so the result is a single canonical
// *ccdag.Node — context equality is pointer comparison, repeated
// contexts cost no memory, and once the DAG holds a context its
// re-decode performs zero heap allocations.

package core

import (
	"fmt"
	"sync"
	"time"

	"dacce/internal/ccdag"
	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/telemetry"
)

// nodeScratchPool recycles decode scratch buffers for the external
// DecodeNode entry points (the sampling controller keeps per-thread
// scratch in its tls instead). Pointers in and out, so a warm
// Get/Put cycle allocates nothing.
var nodeScratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// DAG returns the encoder's context DAG — the intern table every
// DecodeNode result lives in. Nodes stay canonical at least as long as
// their capture's epoch is at or above the encoder's low-water epoch;
// after that a reclamation pass may drop them from the table (the
// pointer stays valid memory, but a later decode of the same context
// interns a fresh node — see reclaim.go).
func (d *DACCE) DAG() *ccdag.DAG { return d.dag }

// DecodeNode decodes a capture into its canonical interned context
// node, spawn prefix included — the same frames Decode returns, but as
// one word: pointer-equal nodes are equal contexts, and materializing
// the node (NodeContext) reproduces the slice decode exactly. Lock-free
// like Decode, and allocation-free once the DAG already holds the
// context.
func (d *DACCE) DecodeNode(c *Capture) (*ccdag.Node, error) {
	start := time.Now()
	snap := d.cur()
	dec := &Decoder{P: d.p, Dicts: snap.dicts, idx: snap.idx}
	scratch := nodeScratchPool.Get().(*decodeScratch)
	n, err := dec.decodeNode(d.dag, c, scratch)
	nodeScratchPool.Put(scratch)
	dur := time.Since(start).Nanoseconds()
	d.decodeHist.Observe(dur)
	if d.sink != nil {
		var depth uint64
		if n != nil {
			depth = uint64(n.Depth())
		}
		d.sink.Emit(telemetry.Event{
			Kind: telemetry.EvDecodeRequest, Thread: -1,
			Epoch: c.Epoch, Site: prog.NoSite, Fn: c.Fn,
			Err: err != nil, Value: depth, DurNanos: dur,
		})
	}
	return n, err
}

// DecodeSampleNode decodes the capture of a machine sample into its
// interned context node.
func (d *DACCE) DecodeSampleNode(s machine.Sample) (*ccdag.Node, error) {
	c, ok := s.Capture.(*Capture)
	if !ok {
		return nil, fmt.Errorf("core: sample does not hold a DACCE capture")
	}
	return d.DecodeNode(c)
}

// DecodeCaptureNode is DecodeNode over an untyped scheme capture — the
// node-path twin of DecodeCapture, used by the differential harness.
func (d *DACCE) DecodeCaptureNode(capture any) (*ccdag.Node, error) {
	c, ok := capture.(*Capture)
	if !ok {
		return nil, fmt.Errorf("core: capture is %T, not a DACCE capture", capture)
	}
	return d.DecodeNode(c)
}

// DecodeNode decodes a capture through an external Decoder (a
// rehydrated snapshot, say) into dag. Each decoder client owns its DAG;
// nodes from different DAGs are never comparable.
func (dec *Decoder) DecodeNode(dag *ccdag.DAG, c *Capture) (*ccdag.Node, error) {
	scratch := nodeScratchPool.Get().(*decodeScratch)
	n, err := dec.decodeNode(dag, c, scratch)
	nodeScratchPool.Put(scratch)
	return n, err
}

// decodeNode runs the reverse walk of decodeOneRev and interns the
// frames root-first directly off the scratch buffer — no slice is
// materialized, no frame is copied out. The spawn prefix is decoded
// (and interned) first, sequentially on the same scratch: its frames
// are already safe in the DAG before the body walk reuses the buffers,
// which is what keeps the whole path — spawn included — allocation-free
// once the DAG is warm.
func (dec *Decoder) decodeNode(dag *ccdag.DAG, c *Capture, scratch *decodeScratch) (*ccdag.Node, error) {
	var pred *ccdag.Node
	if c.Spawn != nil {
		p, err := dec.decodeNode(dag, c.Spawn, scratch)
		if err != nil {
			return nil, fmt.Errorf("decoding spawn path: %w", err)
		}
		pred = p
	}
	rev, err := dec.decodeOneRev(c, scratch)
	if err != nil {
		return nil, err
	}
	return internRev(dag, pred, rev), nil
}

// internRev interns a deepest-first frame slice on top of pred,
// returning the leaf node. The root frame of a spawned thread's body
// keeps its NoSite site — the node path mirrors the slice path's
// prefix-concatenation frame for frame.
func internRev(dag *ccdag.DAG, pred *ccdag.Node, rev []ContextFrame) *ccdag.Node {
	for i := len(rev) - 1; i >= 0; i-- {
		pred = dag.Intern(pred, rev[i].Site, rev[i].Fn)
	}
	return pred
}

// internContext interns a root-first context and returns the leaf.
func internContext(dag *ccdag.DAG, ctx Context) *ccdag.Node {
	var n *ccdag.Node
	for _, f := range ctx {
		n = dag.Intern(n, f.Site, f.Fn)
	}
	return n
}

// nodeMatches reports whether n is exactly the interned form of the
// root-first ctx — the memo check the sampling path runs before paying
// for an intern walk. Word compares along the pred chain only; no
// hashing, no atomics.
func nodeMatches(n *ccdag.Node, ctx Context) bool {
	if n == nil || n.Depth() != len(ctx) {
		return false
	}
	for i := len(ctx) - 1; i >= 0; i-- {
		if n.Site() != ctx[i].Site || n.Fn() != ctx[i].Fn {
			return false
		}
		n = n.Pred()
	}
	return true
}

// NodeContext materializes an interned node back into a root-first
// Context — the bridge from the one-word DAG representation to every
// slice-consuming API. NodeContext(DecodeNode(c)) == Decode(c) frame
// for frame.
func NodeContext(n *ccdag.Node) Context {
	if n == nil {
		return nil
	}
	out := make(Context, n.Depth())
	for i := n.Depth() - 1; n != nil; i, n = i-1, n.Pred() {
		out[i] = ContextFrame{Site: n.Site(), Fn: n.Fn()}
	}
	return out
}

// AppendNodeContext is NodeContext into a caller-owned buffer
// (overwritten, grown as needed) — the allocation-free materialization
// for hot consumers that reuse one buffer across nodes.
func AppendNodeContext(dst Context, n *ccdag.Node) Context {
	if n == nil {
		return dst[:0]
	}
	d := n.Depth()
	if cap(dst) < d {
		dst = make(Context, d)
	}
	dst = dst[:d]
	for i := d - 1; n != nil; i, n = i-1, n.Pred() {
		dst[i] = ContextFrame{Site: n.Site(), Fn: n.Fn()}
	}
	return dst
}
