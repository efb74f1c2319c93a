package difftest

import (
	"sync/atomic"

	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/prog"
)

// ForceEpochs wraps a DACCE encoder so that every everySamples-th
// sample (counted across all threads) forces a re-encoding pass right
// after the sample was taken. The capture preceding the pass decodes
// under the old epoch and the next one under the new epoch, which
// plants query points immediately on both sides of every epoch
// boundary — the exact transition the per-epoch dictionaries of paper
// §4.1 must keep decodable. The forced pass asks for incremental
// renumbering: an encoder with Options.Incremental exercises its delta
// path at every boundary, and any other encoder renumbers fully, so a
// full-pass control leg is unchanged. everySamples <= 0 returns d
// unchanged.
func ForceEpochs(d *core.DACCE, everySamples int64) machine.Scheme {
	if everySamples <= 0 {
		return d
	}
	return &epochForcer{d: d, every: everySamples}
}

// epochForcer delegates the full Scheme surface to the encoder and
// adds the forced passes in OnSample — a clean point, the same context
// the encoder's own hot-miss trigger re-encodes from.
type epochForcer struct {
	d     *core.DACCE
	every int64
	n     atomic.Int64
}

func (f *epochForcer) Name() string                          { return f.d.Name() }
func (f *epochForcer) Install(m *machine.Machine)            { f.d.Install(m) }
func (f *epochForcer) ThreadStart(t, parent *machine.Thread) { f.d.ThreadStart(t, parent) }
func (f *epochForcer) ThreadExit(t *machine.Thread)          { f.d.ThreadExit(t) }
func (f *epochForcer) Capture(t *machine.Thread) any         { return f.d.Capture(t) }
func (f *epochForcer) Maintain(t *machine.Thread)            { f.d.Maintain(t) }
func (f *epochForcer) ReleaseCapture(capture any)            { f.d.ReleaseCapture(capture) }

// Module lifecycle forwards too: without it the machine would not see
// the encoder as a ModuleObserver and churned modules would keep stale
// stubs across unload/reload.
func (f *epochForcer) OnModuleLoad(t *machine.Thread, id prog.ModuleID)   { f.d.OnModuleLoad(t, id) }
func (f *epochForcer) OnModuleUnload(t *machine.Thread, id prog.ModuleID) { f.d.OnModuleUnload(t, id) }

// OnSample implements machine.SampleObserver.
func (f *epochForcer) OnSample(t *machine.Thread, capture any) {
	f.d.OnSample(t, capture)
	if f.n.Add(1)%f.every == 0 {
		f.d.ReencodeNow(t, true)
	}
}

// Unwrap returns the wrapped encoder.
func (f *epochForcer) Unwrap() *core.DACCE { return f.d }
