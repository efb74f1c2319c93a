package difftest

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/persist"
	"dacce/internal/prog"
)

// maxArchivedSnapshots bounds how many mid-trace blobs one replay
// keeps; later snapshot points past the cap are skipped (the final
// state is always archived separately).
const maxArchivedSnapshots = 12

// SnapshotArchive wraps the DACCE replay scheme so that every
// everySamples-th query point (counted across threads) archives the
// encoder's persisted snapshot, exactly as a live process checkpointing
// with -save-state mid-run would. After the replay the harness
// rehydrates each blob into a standalone decoder and re-checks every
// query point whose epochs were already closed at archive time — the
// persistence analogue of the epoch-boundary property: captures taken
// before a re-encoding pass must stay decodable from state saved after
// it. everySamples <= 0 returns sch unchanged with a nil archive.
func SnapshotArchive(sch machine.Scheme, d *core.DACCE, everySamples int64) (machine.Scheme, *Archive) {
	if everySamples <= 0 {
		return sch, nil
	}
	ar := &Archive{}
	return &snapshotter{Scheme: sch, d: d, every: everySamples, ar: ar}, ar
}

// Archive collects the snapshot blobs of one replay.
type Archive struct {
	mu    sync.Mutex
	blobs [][]byte
	errs  []string
}

func (a *Archive) add(blob []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.blobs) < maxArchivedSnapshots {
		a.blobs = append(a.blobs, blob)
	}
}

func (a *Archive) fail(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.errs = append(a.errs, err.Error())
}

// snapshotter delegates the Scheme surface and archives in OnSample,
// the same clean point the epoch forcer uses — so with both wrappers
// active, snapshots land immediately after forced re-encoding passes.
type snapshotter struct {
	machine.Scheme
	d     *core.DACCE
	every int64
	n     atomic.Int64
	ar    *Archive
}

// OnSample implements machine.SampleObserver.
func (f *snapshotter) OnSample(t *machine.Thread, capture any) {
	if so, ok := f.Scheme.(machine.SampleObserver); ok {
		so.OnSample(t, capture)
	}
	if f.n.Add(1)%f.every == 0 {
		blob, err := persist.Marshal(f.d.ExportState())
		if err != nil {
			f.ar.fail(fmt.Errorf("snapshot at sample %d: %w", f.n.Load(), err))
			return
		}
		f.ar.add(blob)
	}
}

// OnModuleLoad implements machine.ModuleObserver when the wrapped
// scheme tracks module lifecycle (interface embedding does not promote
// the optional surface).
func (f *snapshotter) OnModuleLoad(t *machine.Thread, id prog.ModuleID) {
	if mo, ok := f.Scheme.(machine.ModuleObserver); ok {
		mo.OnModuleLoad(t, id)
	}
}

// OnModuleUnload implements machine.ModuleObserver.
func (f *snapshotter) OnModuleUnload(t *machine.Thread, id prog.ModuleID) {
	if mo, ok := f.Scheme.(machine.ModuleObserver); ok {
		mo.OnModuleUnload(t, id)
	}
}

// Maintain implements machine.Maintainer when the wrapped scheme needs
// periodic control (DACCE's adaptive triggers do).
func (f *snapshotter) Maintain(t *machine.Thread) {
	if ma, ok := f.Scheme.(machine.Maintainer); ok {
		ma.Maintain(t)
	}
}

// captureMaxEpoch is the newest epoch a capture's decode touches: its
// own and every epoch along the spawn chain.
func captureMaxEpoch(c *core.Capture) uint32 {
	e := uint32(0)
	for ; c != nil; c = c.Spawn {
		if c.Epoch > e {
			e = c.Epoch
		}
	}
	return e
}

// checkArchive rehydrates every archived blob (mid-trace checkpoints
// plus the final state) into a standalone decoder and re-decodes the
// query points it must be able to serve, reporting any disagreement
// with the oracle through report. A mid-trace blob with n epochs owes
// correct decodes for captures touching only epochs < n-1 (closed
// before the checkpoint); the final blob owes every capture. Returns
// (snapshots checked, query decodes performed).
func checkArchive(ar *Archive, final []byte, samples []machine.Sample,
	spawnShadow map[uint64][]machine.ShadowFrame,
	report func(s machine.Sample, epoch uint32, kind, detail string)) (int, int, error) {

	type entry struct {
		blob  []byte
		final bool
	}
	var entries []entry
	if ar != nil {
		ar.mu.Lock()
		errs, blobs := ar.errs, ar.blobs
		ar.mu.Unlock()
		if len(errs) > 0 {
			return 0, 0, fmt.Errorf("difftest: %s", errs[0])
		}
		for _, b := range blobs {
			entries = append(entries, entry{blob: b})
		}
	}
	entries = append(entries, entry{blob: final, final: true})

	snapshots, queries := 0, 0
	for _, e := range entries {
		st, err := persist.Unmarshal(e.blob)
		if err != nil {
			return snapshots, queries, fmt.Errorf("difftest: archived snapshot corrupt: %w", err)
		}
		dec, err := st.NewDecoder()
		if err != nil {
			return snapshots, queries, fmt.Errorf("difftest: rehydrating archived snapshot: %w", err)
		}
		snapshots++
		closed := uint32(len(st.Epochs) - 1) // epochs strictly below this were frozen at archive time
		for _, s := range samples {
			c, ok := s.Capture.(*core.Capture)
			if !ok {
				continue
			}
			if !e.final && captureMaxEpoch(c) >= closed {
				continue
			}
			queries++
			want := core.ShadowContext(spawnShadow[s.Ident], s.Shadow)
			ctx, err := dec.Decode(c)
			if err != nil {
				report(s, c.Epoch, "archive-decode-error", err.Error())
			} else if msg := core.DiffContexts(ctx, want); msg != "" {
				report(s, c.Epoch, "archive-mismatch", msg)
			}
		}
	}
	return snapshots, queries, nil
}
