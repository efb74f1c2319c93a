package core

import (
	"fmt"
	"time"

	"dacce/internal/blenc"
	"dacce/internal/graph"
	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/telemetry"
)

// maxDecodeSteps bounds the decoder against corrupted input.
const maxDecodeSteps = 1 << 22

// Decode decodes a capture into the full calling context, root first
// (Algorithm 1 plus the expansion of compressed recursion counts). For
// captures taken on spawned threads the spawning path is prepended
// (paper §5.3). Safe to call during or after the run; lock-free — the
// decode walks the capture epoch's immutable snapshot index, never the
// live graph.
func (d *DACCE) Decode(c *Capture) (Context, error) {
	start := time.Now()
	snap := d.cur()
	dec := &Decoder{P: d.p, Dicts: snap.dicts, idx: snap.idx}
	ctx, err := dec.decode(c, true)
	dur := time.Since(start).Nanoseconds()
	d.decodeHist.Observe(dur)
	if d.sink != nil {
		d.sink.Emit(telemetry.Event{
			Kind: telemetry.EvDecodeRequest, Thread: -1,
			Epoch: c.Epoch, Site: prog.NoSite, Fn: c.Fn,
			Err: err != nil, Value: uint64(len(ctx)), DurNanos: dur,
		})
	}
	return ctx, err
}

// Decoder turns captures back into calling contexts given a program and
// the per-epoch decode dictionaries. Build one with NewDecoder. DACCE
// wraps one internally; the PCCE baseline reuses it with a single
// static epoch.
type Decoder struct {
	P     *prog.Program
	Dicts []*blenc.Assignment

	// idx holds one immutable decode index per epoch, parallel to
	// Dicts. Decoding walks only these, never a call graph, so a
	// Decoder is safe for concurrent use.
	idx []*decodeIndex
}

// NewDecoder builds a decoder for program p from the per-epoch
// dictionaries and a call graph holding every edge they encode. The
// graph is read only while the epoch indexes are built, and must not be
// mutated concurrently with this call.
func NewDecoder(p *prog.Program, g *graph.Graph, dicts []*blenc.Assignment) *Decoder {
	return &Decoder{P: p, Dicts: dicts, idx: newDecodeIndexes(g, dicts)}
}

// decodeScratch holds a thread's reusable decode buffers so the
// sampling controller's per-sample heat-estimation decode allocates
// nothing at steady state. Owned by one thread (it lives in tls),
// reused across samples.
type decodeScratch struct {
	cc  []CCEntry
	rev []ContextFrame
}

// Decode decodes a capture, including the spawn-path prefix.
func (dec *Decoder) Decode(c *Capture) (Context, error) {
	return dec.decode(c, true)
}

// DecodeSample decodes the capture of a machine sample.
func (d *DACCE) DecodeSample(s machine.Sample) (Context, error) {
	c, ok := s.Capture.(*Capture)
	if !ok {
		return nil, fmt.Errorf("core: sample does not hold a DACCE capture")
	}
	return d.Decode(c)
}

// DecodeCapture decodes an untyped scheme capture — the uniform decode
// shape every context tracker in the repository exposes, so the
// differential harness compares them without per-package conversions.
func (d *DACCE) DecodeCapture(capture any) (Context, error) {
	c, ok := capture.(*Capture)
	if !ok {
		return nil, fmt.Errorf("core: capture is %T, not a DACCE capture", capture)
	}
	return d.Decode(c)
}

func (dec *Decoder) decode(c *Capture, withSpawn bool) (Context, error) {
	var prefix Context
	if withSpawn && c.Spawn != nil {
		p, err := dec.decode(c.Spawn, true)
		if err != nil {
			return nil, fmt.Errorf("decoding spawn path: %w", err)
		}
		prefix = p
	}
	body, err := dec.decodeOne(c, nil)
	if err != nil {
		return nil, err
	}
	return append(prefix, body...), nil
}

// step is one decodable in-edge at a given epoch.
type step struct {
	site   prog.SiteID
	caller prog.FuncID
	code   uint64
}

// findEdge returns the unique encoded in-edge of fn whose code range
// contains id at the index's epoch (Algorithm 1 lines 26–33:
// En(e) ≤ id < En(e)+numCC(p)), or ok=false.
func (ix *decodeIndex) findEdge(fn prog.FuncID, id uint64) (step, bool) {
	for _, e := range ix.in[fn] {
		if e.code <= id && id < e.code+e.ncc {
			return step{site: e.site, caller: e.caller, code: e.code}, true
		}
	}
	return step{}, false
}

// decodeOne decodes the thread-local part of a capture (no spawn
// prefix). The result is built deepest-frame-first and reversed at the
// end. A non-nil scratch supplies (and, grown, receives back) the two
// working buffers, making repeated decodes on one thread
// allocation-free; the returned Context then aliases scratch.rev and is
// only valid until the next decode with the same scratch.
func (dec *Decoder) decodeOne(c *Capture, scratch *decodeScratch) (Context, error) {
	rev, err := dec.decodeOneRev(c, scratch)
	if err != nil {
		return nil, err
	}
	// Reverse to root-first order (in place: scratch.rev, when present,
	// aliases rev and stays reversed with it).
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// decodeOneRev is decodeOne without the final reversal: the frames come
// back deepest-first, exactly as the reverse walk of Algorithm 1
// produced them. The node-interning decode path consumes this order
// directly — it walks the slice backwards to intern root-first — so the
// reversal (and with it any touching of the frames after the walk) is
// confined to the slice-materializing path.
func (dec *Decoder) decodeOneRev(c *Capture, scratch *decodeScratch) ([]ContextFrame, error) {
	if int(c.Epoch) >= len(dec.Dicts) || int(c.Epoch) >= len(dec.idx) {
		return nil, fmt.Errorf("core: capture epoch %d has no dictionary", c.Epoch)
	}
	if err := dec.validate(c); err != nil {
		return nil, err
	}
	dict := dec.Dicts[c.Epoch]
	ix := dec.idx[c.Epoch]
	maxID := dict.MaxID

	ifun := c.Fn
	id := c.ID
	var cc []CCEntry
	var rev []ContextFrame
	if scratch != nil {
		cc = append(scratch.cc[:0], c.CC...)
		rev = scratch.rev[:0]
	} else {
		cc = append([]CCEntry(nil), c.CC...)
	}
	onstack := false
	adjust := func() {
		if id > maxID {
			id -= maxID + 1
			onstack = true
		}
	}
	adjust()

	// rev[i].Site is the call site through which rev[i].Fn was entered;
	// filled in when the incoming edge is discovered.
	rev = append(rev, ContextFrame{Site: prog.NoSite, Fn: ifun})
	steps := 0
	for {
		if steps++; steps > maxDecodeSteps {
			return nil, fmt.Errorf("core: decode exceeded %d steps (corrupt capture?)", maxDecodeSteps)
		}

		// Pop phase (Algorithm 1 lines 9–25): at the head of a sub-path
		// whose context was saved, restore the saved encoding.
		for id == 0 && onstack {
			if len(cc) == 0 {
				return nil, fmt.Errorf("core: id marker set at f%d but ccStack is empty", ifun)
			}
			top := cc[len(cc)-1]
			if top.Target != ifun {
				break
			}
			cc = cc[:len(cc)-1]
			onstack = false
			rev[len(rev)-1].Site = top.Site
			caller := dec.P.Site(top.Site).Caller

			// Expand compressed repetitions (Fig. 5e): each count is
			// one more traversal of the back edge, separated by the
			// sub-path whose encoding is the entry's saved id.
			for k := uint32(0); k < top.Count; k++ {
				var err error
				rev, err = dec.segment(rev, dict, ix, top.ID, caller, ifun, top.Site)
				if err != nil {
					return nil, fmt.Errorf("expanding repetition %d of %v: %w", k, top, err)
				}
			}

			ifun = caller
			id = top.ID
			adjust()
			rev = append(rev, ContextFrame{Site: prog.NoSite, Fn: ifun})
		}

		if id == 0 && !onstack && len(cc) == 0 && ifun == c.Root {
			break
		}

		// Acyclic sub-path phase (lines 26–33): follow the unique
		// encoded in-edge whose range contains id.
		st, ok := ix.findEdge(ifun, id)
		if !ok {
			return nil, fmt.Errorf("core: stuck decoding at f%d id=%d onstack=%v |cc|=%d (epoch %d)", ifun, id, onstack, len(cc), c.Epoch)
		}
		rev[len(rev)-1].Site = st.site
		ifun = st.caller
		id -= st.code
		rev = append(rev, ContextFrame{Site: prog.NoSite, Fn: ifun})
	}

	if scratch != nil {
		scratch.cc = cc[:0]
		scratch.rev = rev
	}
	return rev, nil
}

// validate bounds-checks a capture before decoding: captures may come
// from serialized external input (daccedecode), so corruption must
// yield errors, never panics.
func (dec *Decoder) validate(c *Capture) error {
	nf, ns := len(dec.P.Funcs), len(dec.P.Sites)
	if int(c.Fn) < 0 || int(c.Fn) >= nf {
		return fmt.Errorf("core: capture function f%d out of range", c.Fn)
	}
	if int(c.Root) < 0 || int(c.Root) >= nf {
		return fmt.Errorf("core: capture root f%d out of range", c.Root)
	}
	for i, e := range c.CC {
		if int(e.Site) < 0 || int(e.Site) >= ns {
			return fmt.Errorf("core: ccStack[%d] site %d out of range", i, e.Site)
		}
		if int(e.Target) < 0 || int(e.Target) >= nf {
			return fmt.Errorf("core: ccStack[%d] target f%d out of range", i, e.Target)
		}
	}
	return nil
}

// segment decodes one repetition body of a compressed recursive entry:
// the acyclic sub-path from head (the back edge's target) to from (the
// back edge's caller), whose encoding is eid. It appends the frames to
// rev in deepest-first order — from, intermediate nodes, then head
// entered via recSite — and returns the grown slice.
func (dec *Decoder) segment(rev []ContextFrame, dict *blenc.Assignment, ix *decodeIndex, eid uint64, from, head prog.FuncID, recSite prog.SiteID) ([]ContextFrame, error) {
	maxID := dict.MaxID
	if eid <= maxID {
		return nil, fmt.Errorf("core: compressed entry id %d not in marker range (maxID %d)", eid, maxID)
	}
	id := eid - (maxID + 1)
	cur := from
	steps := 0
	for !(cur == head && id == 0) {
		if steps++; steps > maxDecodeSteps {
			return nil, fmt.Errorf("core: repetition segment exceeded %d steps", maxDecodeSteps)
		}
		st, ok := ix.findEdge(cur, id)
		if !ok {
			return nil, fmt.Errorf("core: stuck in segment at f%d id=%d", cur, id)
		}
		rev = append(rev, ContextFrame{Site: st.site, Fn: cur})
		id -= st.code
		cur = st.caller
	}
	rev = append(rev, ContextFrame{Site: recSite, Fn: head})
	return rev, nil
}

// ShadowContext converts a machine shadow stack (optionally preceded by
// the thread's spawn shadow) to a Context, the ground truth a decode is
// validated against.
func ShadowContext(spawn, shadow []machine.Frame) Context {
	out := make(Context, 0, len(spawn)+len(shadow))
	for _, f := range spawn {
		out = append(out, ContextFrame{Site: f.Site, Fn: f.Fn})
	}
	for _, f := range shadow {
		out = append(out, ContextFrame{Site: f.Site, Fn: f.Fn})
	}
	return out
}

// Equal reports whether two contexts are identical frame for frame.
func (c Context) Equal(o Context) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}
