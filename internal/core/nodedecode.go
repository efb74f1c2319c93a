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
	"unsafe"

	"dacce/internal/ccdag"
	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/telemetry"
)

// nodeScratchPool recycles decode scratch buffers for the external
// DecodeNode entry points (the sampler keeps one scratch per thread in
// its sample buffer instead). Pointers in and out, so a warm
// Get/Put cycle allocates nothing.
var nodeScratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// maxPooledFrames caps the scratch nodeScratchPool keeps: a scratch
// whose buffers one very deep capture grew past it is dropped, not
// pinned in the pool for every later decode.
const maxPooledFrames = 1 << 18

// putNodeScratch returns s to nodeScratchPool unless it outgrew
// maxPooledFrames.
func putNodeScratch(s *decodeScratch) {
	if cap(s.rev) <= maxPooledFrames && cap(s.cc) <= maxPooledFrames {
		nodeScratchPool.Put(s)
	}
}

// NodeCursor carries the interned path of the last context decoded
// through it to the next decode, so a run of contexts that share root
// prefixes interns each shared frame once: it holds that context's
// root-first frames and, for each depth, the node interned for the
// frames up to it. DecodeNodeCursor compares a capture's frames with
// the cursor's, root first, and interns only the frames past the common
// prefix, on top of the node at its end.
//
// The cursor's nodes stay canonical only while no Collect runs on the
// DAG: its caller must keep the generation from moving between Reset
// and the last decode through the cursor (dacced holds its tenant's
// retirement read-lock across one batch) and Reset the cursor before
// reusing it after any collection may have run. The zero value is an
// empty cursor.
type NodeCursor struct {
	frames []ContextFrame
	nodes  []*ccdag.Node // nodes[i] is the interned form of frames[:i+1]
	// reused counts the frames taken from the cursor instead of interned
	// since the last Reset.
	reused int64
}

// Reset empties the cursor and its reuse count, and clears every node
// pointer in its backing array, so a retained cursor pins no node.
func (cur *NodeCursor) Reset() {
	clear(cur.nodes)
	cur.frames, cur.nodes, cur.reused = cur.frames[:0], cur.nodes[:0], 0
}

// Reused returns how many frames decodes through the cursor took from
// it instead of interning them, since the last Reset.
func (cur *NodeCursor) Reused() int64 { return cur.reused }

// Bytes returns the cursor's buffer footprint, for callers that bound
// what they retain.
func (cur *NodeCursor) Bytes() int {
	return cap(cur.frames)*int(unsafe.Sizeof(ContextFrame{})) + cap(cur.nodes)*int(unsafe.Sizeof((*ccdag.Node)(nil)))
}

// push interns the deepest-first frames rev, reusing the nodes of the
// longest root prefix rev shares with the cursor's frames, records
// rev's path in the cursor and returns its leaf. The node pointers past
// the shared prefix are cleared before they are overwritten, so the
// backing array never holds a node of a path the cursor no longer
// describes.
func (cur *NodeCursor) push(dag *ccdag.DAG, rev []ContextFrame) *ccdag.Node {
	n := len(rev)
	k := 0
	for k < n && k < len(cur.frames) && cur.frames[k] == rev[n-1-k] {
		k++
	}
	cur.reused += int64(k)
	var pred *ccdag.Node
	if k > 0 {
		pred = cur.nodes[k-1]
	}
	clear(cur.nodes[k:])
	cur.frames, cur.nodes = cur.frames[:k], cur.nodes[:k]
	for i := n - 1 - k; i >= 0; i-- {
		pred = dag.Intern(pred, rev[i].Site, rev[i].Fn)
		cur.frames = append(cur.frames, rev[i])
		cur.nodes = append(cur.nodes, pred)
	}
	return pred
}

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
	dec := &Decoder{P: d.p, idx: snap.idx}
	scratch := nodeScratchPool.Get().(*decodeScratch)
	n, err := dec.decodeNode(d.dag, c, scratch, nil)
	putNodeScratch(scratch)
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
// nodes from different DAGs are never comparable. It is
// DecodeNodeCursor without a cursor: every frame is interned.
func (dec *Decoder) DecodeNode(dag *ccdag.DAG, c *Capture) (*ccdag.Node, error) {
	return dec.DecodeNodeCursor(dag, c, nil)
}

// DecodeNodeCursor is DecodeNode for a run of decodes into one DAG: it
// interns only the frames past the root prefix the capture shares with
// the last context decoded through cur, and leaves the capture's path
// in cur. The result is the node DecodeNode returns, provided the
// caller keeps NodeCursor's contract. A capture that fails to decode
// leaves cur as it was, and one with a spawn chain neither reads nor
// changes it. A nil cur interns every frame and records nothing.
func (dec *Decoder) DecodeNodeCursor(dag *ccdag.DAG, c *Capture, cur *NodeCursor) (*ccdag.Node, error) {
	scratch := nodeScratchPool.Get().(*decodeScratch)
	n, err := dec.decodeNode(dag, c, scratch, cur)
	putNodeScratch(scratch)
	return n, err
}

// decodeNode runs the reverse walk of decodeOneRev and interns the
// frames root-first directly off the scratch buffer — no slice is
// materialized, no frame is copied out — through cur, when given,
// which supplies the nodes of the shared root prefix. The spawn prefix
// is decoded (and interned) first, without the cursor, sequentially on
// the same scratch: its frames are already safe in the DAG before the
// body walk reuses the buffers, which is what keeps the whole path —
// spawn included — allocation-free once the DAG is warm. A spawned
// body sits on its spawn prefix, not on a root, so the cursor cannot
// describe it: it is interned frame by frame on top of the prefix.
func (dec *Decoder) decodeNode(dag *ccdag.DAG, c *Capture, scratch *decodeScratch, cur *NodeCursor) (*ccdag.Node, error) {
	var pred *ccdag.Node
	if c.Spawn != nil {
		p, err := dec.decodeNode(dag, c.Spawn, scratch, nil)
		if err != nil {
			return nil, fmt.Errorf("decoding spawn path: %w", err)
		}
		pred = p
	}
	rev, err := dec.decodeOneRev(c, scratch)
	if err != nil {
		return nil, err
	}
	if cur == nil || pred != nil {
		return internRev(dag, pred, rev), nil
	}
	return cur.push(dag, rev), nil
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

// nodeMatchesRev reports whether n is exactly the interned form of the
// deepest-first frames rev — the memo check the sampler runs before
// paying for an intern walk. Word compares along the pred chain only;
// no hashing, no atomics.
func nodeMatchesRev(n *ccdag.Node, rev []ContextFrame) bool {
	if n == nil || n.Depth() != len(rev) {
		return false
	}
	for _, f := range rev {
		if n.Site() != f.Site || n.Fn() != f.Fn {
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
