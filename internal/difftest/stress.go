package difftest

import (
	"fmt"
	"sync"
	"time"

	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/workload"
)

// liveGate delegates the full scheme surface to the DACCE encoder and
// closes started on the first sample, the signal that the machine is
// fully live and external ForceReencode calls are safe.
type liveGate struct {
	d       *core.DACCE
	started chan struct{}
	once    sync.Once
}

func (g *liveGate) Name() string                          { return g.d.Name() }
func (g *liveGate) Install(m *machine.Machine)            { g.d.Install(m) }
func (g *liveGate) ThreadStart(t, parent *machine.Thread) { g.d.ThreadStart(t, parent) }
func (g *liveGate) ThreadExit(t *machine.Thread)          { g.d.ThreadExit(t) }
func (g *liveGate) Capture(t *machine.Thread) any         { return g.d.Capture(t) }
func (g *liveGate) Maintain(t *machine.Thread)            { g.d.Maintain(t) }
func (g *liveGate) ReleaseCapture(capture any)            { g.d.ReleaseCapture(capture) }

// OnSample implements machine.SampleObserver.
func (g *liveGate) OnSample(t *machine.Thread, capture any) {
	g.d.OnSample(t, capture)
	g.once.Do(func() { close(g.started) })
}

// StressReport is the outcome of one Stress run.
type StressReport struct {
	Threads int   `json:"threads"`
	Calls   int64 `json:"calls"`
	// Samples is the number of query points validated after the run.
	Samples int `json:"samples"`
	// Epochs counts re-encoding passes: the adaptive triggers plus every
	// forced pass that actually ran.
	Epochs uint32 `json:"epochs"`
	// ForcedPasses is how many ForceReencode calls the external forcer
	// goroutines issued.
	ForcedPasses int64        `json:"forced_passes"`
	Divergences  []Divergence `json:"divergences,omitempty"`
	Dropped      int          `json:"dropped_divergences,omitempty"`
}

// Diverged reports whether any consistency check failed.
func (r *StressReport) Diverged() bool {
	return len(r.Divergences) > 0 || r.Dropped > 0
}

// Stress runs the spec's workload live — real goroutines, not a replay
// — under an aggressive DACCE encoder while dedicated forcer goroutines
// hammer ForceReencode from outside any workload thread, so stop-the-
// world re-encoding passes interleave with calls, captures and epoch
// translation on every thread. It is meant to run under the race
// detector; after the run every retained sample is checked for
// per-thread (id, ccStack) consistency:
//
//   - the capture decodes to the shadow-stack truth at that instant;
//   - the id is in range for the capture's epoch (id <= 2*maxID+1);
//   - a marker id (id > maxID) comes with a non-empty ccStack, since a
//     marker's sub-path lives on the stack by construction (§4.2).
//
// forcers <= 0 means 2. The workload profile should enable multiple
// threads for the run to stress anything.
func Stress(spec Spec, forcers int) (*StressReport, error) {
	spec = spec.withDefaults()
	if forcers <= 0 {
		forcers = 2
	}
	w, err := workload.Build(spec.Profile)
	if err != nil {
		return nil, err
	}
	d := core.New(w.P, aggressiveOptions(nil))
	gate := &liveGate{d: d, started: make(chan struct{})}
	m := w.NewMachine(gate, machine.Config{SampleEvery: spec.SampleEvery, Seed: spec.Profile.Seed + 1})

	// The forcers race the workload until it finishes, with a pass cap as
	// a backstop so a stalled run cannot spin re-encoding forever. They
	// wait for the first sample before the first pass: its delivery
	// happens after scheme installation and the entry-thread spawn, the
	// only machine activity stop-the-world does not cover.
	const maxPasses = 2000
	var (
		forced int64
		mu     sync.Mutex
		done   = make(chan struct{})
		wg     sync.WaitGroup
	)
	for i := 0; i < forcers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-gate.started:
			case <-done:
				return
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				stop := forced >= maxPasses
				if !stop {
					forced++
				}
				mu.Unlock()
				if stop {
					return
				}
				d.ForceReencode(nil)
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}
	rs, runErr := m.Run()
	close(done)
	wg.Wait()
	if runErr != nil {
		return nil, fmt.Errorf("difftest: stress run: %w", runErr)
	}

	rep := &StressReport{
		Threads:      rs.Threads,
		Calls:        rs.C.Calls,
		Epochs:       d.Epoch(),
		ForcedPasses: forced,
	}
	spawnShadow := make(map[int][]machine.ShadowFrame)
	for _, th := range m.Threads() {
		spawnShadow[th.ID()] = th.SpawnShadow
	}
	const maxDetail = 64
	report := func(s machine.Sample, epoch uint32, kind, detail string) {
		if len(rep.Divergences) >= maxDetail {
			rep.Dropped++
			return
		}
		rep.Divergences = append(rep.Divergences, Divergence{
			Encoder: "dacce", Thread: s.Thread, Seq: s.Seq, Fn: int(s.Fn),
			Epoch: epoch, Kind: kind, Detail: detail,
		})
	}
	for _, s := range rs.Samples {
		rep.Samples++
		c, ok := s.Capture.(*core.Capture)
		if !ok {
			report(s, 0, "decode-error", fmt.Sprintf("capture is %T, not *core.Capture", s.Capture))
			continue
		}
		if dict := d.Dict(c.Epoch); dict == nil {
			report(s, c.Epoch, "decode-error", "no dictionary retained for capture's epoch")
			continue
		} else {
			if c.ID > 2*dict.MaxID+1 {
				report(s, c.Epoch, "value-mismatch",
					fmt.Sprintf("id %d out of range for epoch %d (maxID %d)", c.ID, c.Epoch, dict.MaxID))
			}
			if c.ID > dict.MaxID && len(c.CC) == 0 {
				report(s, c.Epoch, "value-mismatch",
					fmt.Sprintf("marker id %d with empty ccStack", c.ID))
			}
		}
		want := core.ShadowContext(spawnShadow[s.Thread], s.Shadow)
		ctx, err := d.Decode(c)
		if err != nil {
			report(s, c.Epoch, "decode-error", err.Error())
		} else if msg := core.DiffContexts(ctx, want); msg != "" {
			report(s, c.Epoch, "context-mismatch", msg)
		}
	}
	return rep, nil
}
