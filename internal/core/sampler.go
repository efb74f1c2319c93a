// The sampling controller's hand-off: a sampled machine thread keeps
// only the cheap part of a sample (its count, model cost, trigger (b)'s
// marker-range check and the trigger check) and copies the capture
// into a per-thread batch. Each full batch goes to the encoder's
// sampler goroutine, which decodes it, credits its edge heat and
// interns its contexts off the program's thread. The interned nodes
// come back to the sampled thread, which hands them to the
// ContextObserver at its next hand-off, so observers are only ever
// called from machine threads or from a drain.
//
// Every reader of heat or of the profile drains first: a re-encoding
// pass before it prepares, and ThreadExit, SetContextObserver,
// ExportState, Stats, Graph and FlushSamples. A drain decodes and
// delivers every pending and in-flight batch of every thread, so a
// single-thread run credits exactly the heat the inline decode did, in
// time for the same passes.
//
// Collection safety: each batch holds a capture reference on its first
// capture's epoch, the oldest in the batch, from its first capture
// until it is reset after delivery. The sampler's walks therefore keep
// the collection floor at or below every epoch they decode, as an
// external decode of an un-released capture does (reclaim.go), even
// though they run concurrently with passes and collections.

package core

import (
	"sync"
	"sync/atomic"

	"dacce/internal/ccdag"
	"dacce/internal/machine"
)

// sampleBatchLen is how many captures a thread collects before it
// hands the batch to the sampler goroutine. A batch has room for twice
// as many: the owner keeps filling past sampleBatchLen while the
// sampler is still decoding the batch before, and waits for it only
// once that slack is used up too.
const sampleBatchLen = 64

// newSampleBatch returns an empty batch with room for its slack, so a
// warm thread never grows one.
func newSampleBatch() *sampleBatch {
	return &sampleBatch{caps: make([]Capture, 0, 2*sampleBatchLen), nodes: make([]*ccdag.Node, 0, 2*sampleBatchLen)}
}

// sampleBatch is one batch of a thread's sampled captures and, once
// decoded, their interned contexts.
type sampleBatch struct {
	// caps holds copies of the captures, thread-local part only; each
	// copy's ccStack keeps its backing array across reuses.
	caps []Capture
	// nodes holds the interned context of each capture that decoded,
	// when an observer was attached at decode time.
	nodes []*ccdag.Node
	// obs is the observer the nodes were interned for.
	obs *observer
	// pin is the epoch the batch holds a capture reference on.
	pin     uint32
	decoded bool
}

// push copies c into the batch, pinning its epoch if it is the first.
func (b *sampleBatch) push(d *DACCE, c *Capture) {
	n := len(b.caps)
	if n == 0 {
		d.retainEpoch(c.Epoch)
		b.pin = c.Epoch
	}
	if n < cap(b.caps) {
		b.caps = b.caps[:n+1]
	} else {
		b.caps = append(b.caps, Capture{})
	}
	r := &b.caps[n]
	r.Epoch, r.ID, r.Fn, r.Root = c.Epoch, c.ID, c.Fn, c.Root
	r.CC = append(r.CC[:0], c.CC...)
}

// reset empties the batch and drops its epoch reference. The node
// pointers are cleared so a parked batch pins no node.
func (b *sampleBatch) reset(d *DACCE) {
	if len(b.caps) > 0 {
		d.releaseEpoch(b.pin)
	}
	clear(b.nodes)
	b.caps, b.nodes, b.obs, b.decoded = b.caps[:0], b.nodes[:0], nil, false
}

// sampleBuf is one thread's sample hand-off buffer, registered with the
// encoder at ThreadStart so drains iterate the encoder's own list, as
// they do for discBuf. Lock order: d.mu → work → mu.
type sampleBuf struct {
	// thread is the owner's machine thread id, passed to the observer.
	thread int

	// mu guards which batch is which and their caps, obs and decoded
	// fields. The owner takes it once per sample.
	mu sync.Mutex
	// fill is the batch the owner appends to; handed is the batch
	// handed off before it: queued for the sampler, decoded and
	// awaiting delivery, or empty. The owner swaps them only when
	// handed is decoded or empty. Both are nil until the first sample
	// and after ThreadExit.
	fill, handed *sampleBatch
	// queued marks the buffer as sitting in the sampler's queue, so it
	// is queued at most once.
	queued bool
	// q is the queue of the sampler that runs while the owner lives;
	// nil once the owner has exited.
	q chan *sampleBuf

	// work serializes the decoding of this thread's batches, which
	// share the scratch and the memo below: the sampler, a drainer, or
	// the owner when the sampler has fallen a batch behind.
	work    sync.Mutex
	scratch decodeScratch
	// lastNode memoizes the interned node of the previous decoded
	// capture: consecutive samples usually land in the same context,
	// so the memo is verified with word compares plus one generation
	// probe (dag.Fresh) and re-interned only on a change. The Fresh
	// check guards against reclamation: a node untouched since before
	// the low-water epoch may have left the intern table, and reusing
	// it would fork identity.
	lastNode *ccdag.Node

	// out is the owner's delivery buffer: the nodes of the batch it
	// took back at its last hand-off.
	out []*ccdag.Node
}

// sampler is the encoder's sampler goroutine: it decodes the batches
// machine threads hand off. It runs from the first ThreadStart to the
// last ThreadExit, so it never outlives a machine's Run.
type sampler struct {
	q    chan *sampleBuf
	done chan struct{}
}

// samplerQueueLen is the sampler's queue capacity. A buffer sits in the
// queue at most once, so up to this many threads hand off without
// waiting for the sampler to take an earlier entry; past it, a hand-off
// waits for the sampler, which never waits for a machine thread.
const samplerQueueLen = 64

// startSamplerLocked starts a sampler goroutine. Caller holds d.mu.
func (d *DACCE) startSamplerLocked() {
	s := &sampler{q: make(chan *sampleBuf, samplerQueueLen), done: make(chan struct{})}
	d.sampler = s
	go func() {
		defer close(s.done)
		for sb := range s.q {
			sb.mu.Lock()
			sb.queued = false
			sb.mu.Unlock()
			// Whoever holds work — the owner or a drainer — decodes the
			// handed batch itself, and the owner queues the buffer again
			// at its next hand-off.
			if !sb.work.TryLock() {
				continue
			}
			sb.mu.Lock()
			h := sb.handed
			claim := h != nil && len(h.caps) > 0 && !h.decoded
			sb.mu.Unlock()
			if claim {
				d.decodeHanded(sb, h)
			}
			sb.work.Unlock()
		}
	}()
}

// decodeHanded decodes the buffer's undecoded handed batch h. Caller
// holds sb.work but not sb.mu: the owner leaves an undecoded handed
// batch alone and drainers wait for work, so nothing else touches h's
// captures and nodes meanwhile, and the owner keeps sampling into its
// fill batch.
func (d *DACCE) decodeHanded(sb *sampleBuf, h *sampleBatch) {
	d.decodeBatch(sb, h)
	sb.mu.Lock()
	h.decoded = true
	sb.mu.Unlock()
}

// sample copies a capture into the thread's batch and hands the batch
// off once it holds sampleBatchLen captures.
func (d *DACCE) sample(sb *sampleBuf, c *Capture) {
	sb.mu.Lock()
	if sb.fill == nil {
		sb.fill, sb.handed = newSampleBatch(), newSampleBatch()
		sb.out = make([]*ccdag.Node, 0, 2*sampleBatchLen)
	}
	sb.fill.push(d, c)
	full := len(sb.fill.caps) >= sampleBatchLen
	sb.mu.Unlock()
	if full {
		d.handOff(sb)
	}
}

// handOff queues the owner's full batch for the sampler and delivers
// the nodes of the batch handed off before it. If that batch is still
// undecoded, the owner decodes it itself when the sampler has not
// started on it; while the sampler is decoding it, the owner goes on
// filling its batch into the slack, and waits only once the slack is
// used up. A thread never has more than two batches.
func (d *DACCE) handOff(sb *sampleBuf) {
	sb.mu.Lock()
	if h := sb.handed; len(h.caps) > 0 && !h.decoded {
		if !sb.work.TryLock() {
			if len(sb.fill.caps) < cap(sb.fill.caps) {
				sb.mu.Unlock()
				return
			}
			sb.mu.Unlock()
			sb.work.Lock()
			sb.mu.Lock()
		}
		if len(h.caps) > 0 && !h.decoded {
			sb.mu.Unlock()
			d.decodeHanded(sb, h)
			sb.mu.Lock()
		}
		sb.work.Unlock()
	}
	h := sb.handed
	obs := h.obs
	sb.out, h.nodes = h.nodes, sb.out[:0]
	h.reset(d)
	sb.fill, sb.handed = h, sb.fill
	q := sb.q
	if sb.queued {
		q = nil
	} else if q != nil {
		sb.queued = true
	}
	sb.mu.Unlock()
	if q != nil {
		q <- sb
	}
	if obs != nil {
		obs.deliver(sb.thread, sb.out)
	}
	clear(sb.out)
}

// nodeBatchObserver is implemented by observers that take a batch of
// nodes under one lock (ccprof.Streaming); others get one
// ObserveContextNode call per node.
type nodeBatchObserver interface {
	ObserveContextNodes(thread int, nodes []*ccdag.Node)
}

// observer is an attached ContextObserver with its batch method, if
// any, resolved once at SetContextObserver rather than per delivery.
type observer struct {
	ContextObserver
	batch nodeBatchObserver
}

// deliver hands a batch's nodes to the observer they were interned for.
func (o *observer) deliver(thread int, nodes []*ccdag.Node) {
	if len(nodes) == 0 {
		return
	}
	if o.batch != nil {
		o.batch.ObserveContextNodes(thread, nodes)
		return
	}
	for _, n := range nodes {
		o.ObserveContextNode(thread, n)
	}
}

// decodeBatch decodes a batch's captures on the buffer's scratch,
// credits each frame's call edge with one unit of heat and, when an
// observer is attached, interns each context for it. Caller holds
// sb.work, so nothing else decodes this thread's batches or touches the
// batch's captures and nodes.
//
// Heat estimation credits even instrumentation-free (code 0) edges:
// each frame credits its call edge, found by site among its target's
// entries in the capture epoch's index. The epoch always has an index:
// the capture was taken before the batch was handed off, and snapshots
// only grow.
func (d *DACCE) decodeBatch(sb *sampleBuf, b *sampleBatch) {
	snap := d.cur()
	dec := Decoder{P: d.p, idx: snap.idx}
	op := d.obs.Load()
	b.obs = op
	for i := range b.caps {
		c := &b.caps[i]
		rev, err := dec.decodeOneRev(c, &sb.scratch)
		if err != nil {
			continue
		}
		ix := snap.idx[c.Epoch]
		for _, f := range rev[:len(rev)-1] {
			for _, ent := range ix.in[f.Fn] {
				if ent.e.Site == f.Site {
					atomic.AddInt64(&ent.e.Freq, 1)
					break
				}
			}
		}
		if op != nil {
			nd := sb.lastNode
			if !d.dag.Fresh(nd) || !nodeMatchesRev(nd, rev) {
				nd = internRev(d.dag, nil, rev)
				sb.lastNode = nd
			}
			b.nodes = append(b.nodes, nd)
		}
	}
}

// drainSamples decodes and delivers every batch of one thread's buffer,
// pending and in flight, oldest first. Callers serialize against the
// registry (d.mu) or own the buffer (ThreadExit).
func (d *DACCE) drainSamples(sb *sampleBuf) {
	sb.work.Lock()
	sb.mu.Lock()
	for _, b := range [2]*sampleBatch{sb.handed, sb.fill} {
		if b == nil || len(b.caps) == 0 {
			continue
		}
		if !b.decoded {
			d.decodeBatch(sb, b)
		}
		if b.obs != nil {
			b.obs.deliver(sb.thread, b.nodes)
		}
		b.reset(d)
	}
	sb.mu.Unlock()
	sb.work.Unlock()
}

// drainSamplesLocked drains every thread's sample buffer. Caller holds
// d.mu, which guards the registry.
func (d *DACCE) drainSamplesLocked() {
	for _, sb := range d.sampBufs {
		d.drainSamples(sb)
	}
}

// FlushSamples decodes every sample batch still pending on any thread,
// credits its heat and hands its contexts to the context observer.
// Passes, ThreadExit, SetContextObserver, ExportState, Stats and Graph
// flush on their own; call it before reading a live profile that must
// count every sample taken so far (mid-run, the profile otherwise lags
// by up to one batch per thread).
func (d *DACCE) FlushSamples() {
	d.mu.Lock()
	d.drainSamplesLocked()
	d.mu.Unlock()
}

// registerThreadLocked creates t's sample buffer and counts t as live,
// starting the sampler goroutine for the first live thread. Caller
// holds d.mu.
func (d *DACCE) registerThreadLocked(t *machine.Thread) *sampleBuf {
	if d.live == 0 {
		d.startSamplerLocked()
	}
	d.live++
	sb := &sampleBuf{thread: t.ID(), q: d.sampler.q}
	d.sampBufs = append(d.sampBufs, sb)
	return sb
}

// retireThread drains an exiting thread's sample buffer on its own
// goroutine, frees the buffer's batches, and stops the sampler
// goroutine when the last live thread exits, waiting for it to finish.
func (d *DACCE) retireThread(sb *sampleBuf) {
	d.drainSamples(sb)
	sb.work.Lock()
	sb.mu.Lock()
	sb.fill, sb.handed, sb.out, sb.q = nil, nil, nil, nil
	sb.scratch, sb.lastNode = decodeScratch{}, nil
	sb.mu.Unlock()
	sb.work.Unlock()

	d.mu.Lock()
	d.live--
	var stop *sampler
	if d.live == 0 {
		stop, d.sampler = d.sampler, nil
	}
	d.mu.Unlock()
	if stop != nil {
		close(stop.q)
		<-stop.done
	}
}
