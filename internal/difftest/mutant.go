package difftest

import (
	"sync/atomic"

	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/prog"
)

// Mutation names a deterministic fault injected into a scratch wrapper
// around the DACCE encoder. Mutations perturb only the captures a
// wrapped scheme hands out — the encoder's real state is untouched —
// so a mutated run models exactly the class of bug the harness exists
// to catch: an id/ccStack snapshot that no longer decodes to the true
// calling context.
type Mutation string

const (
	// MutNone injects nothing.
	MutNone Mutation = ""
	// MutSkewID adds one to every third capture's context id — the
	// capture then decodes to a sibling path, or errors out of range.
	MutSkewID Mutation = "skew-id"
	// MutDropRepetition decrements the first compressed recursion
	// count on the ccStack, losing one repetition of a recursive
	// sub-path (a Fig. 5e bookkeeping bug).
	MutDropRepetition Mutation = "drop-repetition"
	// MutStaleEpoch tags captures with the previous epoch, decoding
	// them against an outdated dictionary (a Fig. 6 versioning bug).
	MutStaleEpoch Mutation = "stale-epoch"
)

// Mutate wraps a scheme whose captures are *core.Capture so that they
// are perturbed per m before the harness sees them. MutNone returns
// inner unchanged.
func Mutate(inner machine.Scheme, m Mutation) machine.Scheme {
	if m == MutNone {
		return inner
	}
	return &mutant{Scheme: inner, kind: m}
}

// mutant perturbs captures on their way out; everything else delegates
// to the embedded scheme.
type mutant struct {
	machine.Scheme
	kind Mutation
	n    atomic.Int64
}

// Capture implements machine.Scheme. The returned capture is a fresh
// snapshot owned by the caller, so mutating it in place corrupts only
// what the harness observes, never the encoder.
func (mu *mutant) Capture(t *machine.Thread) any {
	snap := mu.Scheme.Capture(t)
	c, ok := snap.(*core.Capture)
	if !ok {
		return snap
	}
	k := mu.n.Add(1)
	switch mu.kind {
	case MutSkewID:
		if k%3 == 0 {
			c.ID++
		}
	case MutDropRepetition:
		for i := range c.CC {
			if c.CC[i].Count > 0 {
				c.CC[i].Count--
				break
			}
		}
	case MutStaleEpoch:
		if c.Epoch > 0 {
			c.Epoch--
		}
	}
	return c
}

// OnSample implements machine.SampleObserver when the inner scheme
// observes samples (the DACCE adaptive controller does).
func (mu *mutant) OnSample(t *machine.Thread, capture any) {
	if so, ok := mu.Scheme.(machine.SampleObserver); ok {
		so.OnSample(t, capture)
	}
}

// Maintain implements machine.Maintainer when the inner scheme does.
func (mu *mutant) Maintain(t *machine.Thread) {
	if ma, ok := mu.Scheme.(machine.Maintainer); ok {
		ma.Maintain(t)
	}
}

// OnModuleLoad implements machine.ModuleObserver when the inner scheme
// tracks module lifecycle. The embedded interface only promotes core
// Scheme methods, so the optional surface must forward explicitly.
func (mu *mutant) OnModuleLoad(t *machine.Thread, id prog.ModuleID) {
	if mo, ok := mu.Scheme.(machine.ModuleObserver); ok {
		mo.OnModuleLoad(t, id)
	}
}

// OnModuleUnload implements machine.ModuleObserver.
func (mu *mutant) OnModuleUnload(t *machine.Thread, id prog.ModuleID) {
	if mo, ok := mu.Scheme.(machine.ModuleObserver); ok {
		mo.OnModuleUnload(t, id)
	}
}
