// Package core implements DACCE, the paper's contribution: dynamic and
// adaptive calling-context encoding (§3–§5). It is a machine.Scheme:
// every call site starts as a runtime-handler trap; invoked edges are
// added to the call graph and patched with instrumentation; an adaptive
// controller re-encodes the growing graph when its triggers fire,
// translating all live thread state to the new encoding and keeping one
// decode dictionary per epoch so every capture ever taken stays
// decodable (Fig. 6).
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dacce/internal/graph"
	"dacce/internal/prog"
)

// CCEntry is one ccStack entry: the encoding context saved before
// invoking an unencoded call edge (paper §3, Fig. 2b). Recursive (back
// edge) entries additionally carry the repetition count used by the
// compression of Fig. 5e.
type CCEntry struct {
	// ID is the context id saved before the call.
	ID uint64
	// Site is the call site of the unencoded edge.
	Site prog.SiteID
	// Target is the invoked function: the head of the sub-path that the
	// unencoded edge starts.
	Target prog.FuncID
	// Count is the number of compressed repetitions beyond the first
	// (Fig. 5e); always 0 for non-recursive entries.
	Count uint32
	// Rec marks entries pushed by a back-edge stub.
	Rec bool
}

func (e CCEntry) String() string {
	if e.Rec {
		return fmt.Sprintf("<%d,s%d,f%d,#%d>", e.ID, e.Site, e.Target, e.Count)
	}
	return fmt.Sprintf("<%d,s%d,f%d>", e.ID, e.Site, e.Target)
}

// tls is the per-thread encoder state the paper keeps in thread-local
// storage (§5.3): the context identifier and the ccStack, plus the
// thread's edge publication buffer and its sample hand-off buffer.
type tls struct {
	id uint64
	cc []CCEntry

	// disc is this thread's edge publication buffer. The owner appends
	// under its mutex and flushes a full batch itself; drainAllLocked
	// empties every buffer before any pass, export or registry read.
	disc *discBuf
	// samp is this thread's sample hand-off buffer (sampler.go).
	samp *sampleBuf
	// spare is one released capture of this thread, reused by its next
	// Capture before the pool is asked (see capturePool).
	spare atomic.Pointer[Capture]
}

// discBuf is one thread's edge publication buffer. DACCE registers
// every buffer it hands out in its own d.mu-guarded list, so mid-run
// drains iterate that list and never read another thread's State field
// (which the spawning goroutine writes with no synchronization the
// drainer could order against). The buffer's own mutex — never held
// together with anything but d.mu on the draining side — keeps mid-run
// exports safe without stopping the world.
type discBuf struct {
	mu    sync.Mutex
	edges []*graph.Edge
}

// Capture is an immutable snapshot of a thread's context encoding,
// tagged with the epoch whose decode dictionary interprets it (paper
// §4.1).
type Capture struct {
	// Epoch is the gTimeStamp at capture time.
	Epoch uint32
	// ID is the context identifier.
	ID uint64
	// Fn is the function the thread was in.
	Fn prog.FuncID
	// Root is the thread's entry function, where decoding stops.
	Root prog.FuncID
	// CC is a copy of the ccStack.
	CC []CCEntry
	// Spawn is the parent thread's context at spawn time, or nil for
	// the initial thread; a full decode prepends its decode (paper
	// §5.3: "the sub-path to create the current thread is also
	// decoded").
	Spawn *Capture

	// home is the TLS of the thread that took the capture, which
	// ReleaseCapture hands it back to; nil for captures built by hand.
	home *tls
}

// Fingerprint returns a stable 64-bit hash of the capture — epoch, id,
// function, every ccStack entry and the spawn chain — suitable for
// deduplicating contexts (event logging, race reports) without decoding
// them.
func (c *Capture) Fingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	mix(uint64(c.Epoch))
	mix(c.ID)
	mix(uint64(uint32(c.Fn)))
	mix(uint64(uint32(c.Root)))
	for _, e := range c.CC {
		mix(e.ID)
		mix(uint64(uint32(e.Site)))
		mix(uint64(uint32(e.Target)))
		v := uint64(e.Count)
		if e.Rec {
			v |= 1 << 63
		}
		mix(v)
	}
	if c.Spawn != nil {
		mix(c.Spawn.Fingerprint())
	}
	return h
}

// OnStack reports whether the capture's id lies in the marker range
// (maxID, 2*maxID+1] that indicates saved context on the ccStack.
func (c *Capture) OnStack(maxID uint64) bool { return c.ID > maxID }

func (c *Capture) String() string {
	return fmt.Sprintf("capture{ts=%d id=%d fn=%d cc=%v}", c.Epoch, c.ID, c.Fn, c.CC)
}

// ContextFrame is one step of a decoded calling context: function Fn
// entered through call site Site of its caller (prog.NoSite for the
// root).
type ContextFrame struct {
	Site prog.SiteID
	Fn   prog.FuncID
}

// Context is a decoded calling context, root first. It matches the
// machine's shadow-stack representation frame for frame.
type Context []ContextFrame

// Funcs returns just the function ids of the context.
func (c Context) Funcs() []prog.FuncID {
	out := make([]prog.FuncID, len(c))
	for i, f := range c {
		out[i] = f.Fn
	}
	return out
}

// String renders the context as "main→f1→f7".
func (c Context) String() string {
	s := ""
	for i, f := range c {
		if i > 0 {
			s += "→"
		}
		s += fmt.Sprintf("f%d", f.Fn)
	}
	return s
}

// Pretty renders the context with function names resolved from p.
func (c Context) Pretty(p *prog.Program) string {
	s := ""
	for i, f := range c {
		if i > 0 {
			s += " → "
		}
		s += p.Funcs[f.Fn].Name
	}
	return s
}

// Run is a maximal run of identical consecutive frames in a context —
// the normal form deep self-recursion compresses to. Count is the
// total number of occurrences (≥ 1).
type Run struct {
	Frame ContextFrame
	Count int
}

// Runs returns the context in run-length form: every maximal streak of
// identical (site, fn) frames collapsed to one Run. Two contexts are
// Equal iff their Runs are identical, but Runs survive rendering deep
// recursion without producing thousand-frame strings, which is what
// the differential harness diffs and reports.
func (c Context) Runs() []Run {
	var out []Run
	for _, f := range c {
		if n := len(out); n > 0 && out[n-1].Frame == f {
			out[n-1].Count++
			continue
		}
		out = append(out, Run{Frame: f, Count: 1})
	}
	return out
}

// Compact renders the context run-length compressed: "f0→(f7)x12→f9".
func (c Context) Compact() string {
	s := ""
	for i, r := range c.Runs() {
		if i > 0 {
			s += "→"
		}
		if r.Count > 1 {
			s += fmt.Sprintf("(f%d)x%d", r.Frame.Fn, r.Count)
		} else {
			s += fmt.Sprintf("f%d", r.Frame.Fn)
		}
	}
	return s
}

// DiffContexts returns "" when got and want are identical frame for
// frame, and otherwise a one-line description of the first divergence:
// the differing index, both frames at it, and both contexts in compact
// form. Every cross-encoder comparison in the repository reports
// through this helper so mismatches read the same regardless of which
// baseline produced them.
func DiffContexts(got, want Context) string {
	if got.Equal(want) {
		return ""
	}
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	at := n
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			at = i
			break
		}
	}
	frame := func(c Context, i int) string {
		if i >= len(c) {
			return "<end>"
		}
		return fmt.Sprintf("(s%d,f%d)", c[i].Site, c[i].Fn)
	}
	return fmt.Sprintf("first diff at frame %d: got %s want %s; got=%s (%d frames) want=%s (%d frames)",
		at, frame(got, at), frame(want, at), got.Compact(), len(got), want.Compact(), len(want))
}
