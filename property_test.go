package dacce_test

import (
	"testing"
	"testing/quick"

	"dacce"
	"dacce/internal/core"
	"dacce/internal/difftest"
	"dacce/internal/machine"
	"dacce/internal/workload"
)

// randomProfile maps arbitrary quick-generated bytes onto a valid
// workload profile; the mapping itself lives in workload.RandomProfile
// so the differential harness and fuzz targets share it.
func randomProfile(seed uint64, a, b, c, d uint8) workload.Profile {
	return workload.RandomProfile(seed, a, b, c, d)
}

// TestPropertyDecodeMatchesShadow is the central soundness property
// (DESIGN.md §5.1): on arbitrary programs, under adaptive re-encoding
// with aggressive triggers, every sampled capture decodes to exactly
// the ground-truth call path.
func TestPropertyDecodeMatchesShadow(t *testing.T) {
	f := func(seed uint64, a, b, c, d uint8) bool {
		pr := randomProfile(seed, a, b, c, d)
		w, err := workload.Build(pr)
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		enc := core.New(w.P, core.Options{
			// Aggressive triggers: maximize re-encoding churn.
			Trig:              core.Triggers{NewEdges: 4, UnencodedCalls: 64, HotMissSamples: 4},
			CompressMinPushes: 4,
			InlineThreshold:   2,
		})
		m := w.NewMachine(enc, machine.Config{SampleEvery: 7})
		rs, err := m.Run()
		if err != nil {
			t.Logf("seed %d: run: %v", seed, err)
			return false
		}
		spawnShadow := map[int][]machine.Frame{}
		for _, th := range m.Threads() {
			spawnShadow[th.ID()] = th.SpawnShadow
		}
		for _, s := range rs.Samples {
			ctx, err := enc.DecodeSample(s)
			if err != nil {
				t.Logf("seed %d sample %d/%d: %v", seed, s.Thread, s.Seq, err)
				return false
			}
			want := core.ShadowContext(spawnShadow[s.Thread], s.Shadow)
			if !ctx.Equal(want) {
				t.Logf("seed %d sample %d/%d: got %v want %v", seed, s.Thread, s.Seq, ctx, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRoundTripAcrossEpochs strengthens the soundness property
// with guaranteed re-encoding churn: the encoder is wrapped in
// difftest.ForceEpochs so a pass is forced every few samples, and the
// run must still cross at least two epochs with every capture — taken
// under whichever epoch was current at its instant — decoding to the
// exact ground-truth path. This pins the decode(encode(path)) round
// trip across the epoch boundaries of paper §4.1, not just within one
// encoding.
func TestPropertyRoundTripAcrossEpochs(t *testing.T) {
	f := func(seed uint64, a, b, c, d uint8) bool {
		pr := randomProfile(seed, a, b, c, d)
		w, err := workload.Build(pr)
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		enc := core.New(w.P, core.Options{
			Trig:              core.Triggers{NewEdges: 4, UnencodedCalls: 64, HotMissSamples: 4},
			CompressMinPushes: 4,
			InlineThreshold:   2,
		})
		m := w.NewMachine(difftest.ForceEpochs(enc, 3), machine.Config{SampleEvery: 7})
		rs, err := m.Run()
		if err != nil {
			t.Logf("seed %d: run: %v", seed, err)
			return false
		}
		if enc.Epoch() < 2 {
			t.Logf("seed %d: only %d epochs; forcing failed", seed, enc.Epoch())
			return false
		}
		spawnShadow := map[int][]machine.Frame{}
		for _, th := range m.Threads() {
			spawnShadow[th.ID()] = th.SpawnShadow
		}
		epochsSeen := map[uint32]bool{}
		for _, s := range rs.Samples {
			cap := s.Capture.(*core.Capture)
			epochsSeen[cap.Epoch] = true
			ctx, err := enc.Decode(cap)
			if err != nil {
				t.Logf("seed %d sample %d/%d epoch %d: %v", seed, s.Thread, s.Seq, cap.Epoch, err)
				return false
			}
			want := core.ShadowContext(spawnShadow[s.Thread], s.Shadow)
			if msg := core.DiffContexts(ctx, want); msg != "" {
				t.Logf("seed %d sample %d/%d epoch %d: %s", seed, s.Thread, s.Seq, cap.Epoch, msg)
				return false
			}
		}
		if len(epochsSeen) < 2 {
			t.Logf("seed %d: all %d samples captured under one epoch", seed, len(rs.Samples))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestPropertyIDWithinRange checks invariant 2 of DESIGN.md §5: every
// captured id lies in [0, 2*maxID+1] of its epoch, and ids above maxID
// coincide with saved ccStack context.
func TestPropertyIDWithinRange(t *testing.T) {
	f := func(seed uint64, a, b, c, d uint8) bool {
		pr := randomProfile(seed, a, b, c, d)
		pr.Threads = 1
		w, err := workload.Build(pr)
		if err != nil {
			return false
		}
		enc := core.New(w.P, core.Options{})
		m := w.NewMachine(enc, machine.Config{SampleEvery: 11})
		rs, err := m.Run()
		if err != nil {
			return false
		}
		for _, s := range rs.Samples {
			cap := s.Capture.(*core.Capture)
			dict := enc.Dict(cap.Epoch)
			if dict == nil {
				t.Logf("seed %d: no dictionary for epoch %d", seed, cap.Epoch)
				return false
			}
			if cap.ID > 2*dict.MaxID+1 {
				t.Logf("seed %d: id %d out of range (maxID %d)", seed, cap.ID, dict.MaxID)
				return false
			}
			if cap.ID > dict.MaxID && len(cap.CC) == 0 {
				t.Logf("seed %d: marker id %d with empty ccStack", seed, cap.ID)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPropertyUniqueness checks invariant 3: within one epoch, captures
// with identical fingerprints always denote identical call paths.
func TestPropertyUniqueness(t *testing.T) {
	f := func(seed uint64, a, b, c, d uint8) bool {
		pr := randomProfile(seed, a, b, c, d)
		pr.Threads = 1
		w, err := workload.Build(pr)
		if err != nil {
			return false
		}
		enc := core.New(w.P, core.Options{})
		m := w.NewMachine(enc, machine.Config{SampleEvery: 5})
		rs, err := m.Run()
		if err != nil {
			return false
		}
		byFP := map[uint64]string{}
		for _, s := range rs.Samples {
			cap := s.Capture.(*core.Capture)
			truth := core.ShadowContext(nil, s.Shadow).String()
			if prev, ok := byFP[cap.Fingerprint()]; ok {
				if prev != truth {
					t.Logf("seed %d: fingerprint aliases %q and %q", seed, prev, truth)
					return false
				}
			} else {
				byFP[cap.Fingerprint()] = truth
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDeterminism checks invariant 7: identical profiles and
// seeds give identical runs and statistics.
func TestPropertyDeterminism(t *testing.T) {
	f := func(seed uint64, a, b, c, d uint8) bool {
		pr := randomProfile(seed, a, b, c, d)
		pr.Threads = 1
		run := func() (int64, int64, int, uint64) {
			w, err := workload.Build(pr)
			if err != nil {
				return -1, 0, 0, 0
			}
			enc := core.New(w.P, core.Options{})
			m := w.NewMachine(enc, machine.Config{SampleEvery: 16, DropSamples: true})
			rs, err := m.Run()
			if err != nil {
				return -2, 0, 0, 0
			}
			st := enc.Stats()
			return rs.C.Calls, rs.C.InstrCost, st.GTS, st.MaxID
		}
		a1, b1, c1, d1 := run()
		a2, b2, c2, d2 := run()
		if a1 != a2 || b1 != b2 || c1 != c2 || d1 != d2 {
			t.Logf("seed %d: runs differ: (%d,%d,%d,%d) vs (%d,%d,%d,%d)", seed, a1, b1, c1, d1, a2, b2, c2, d2)
			return false
		}
		return a1 > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPCCEDecodes runs the same soundness property for the
// static baseline on single-threaded programs.
func TestPropertyPCCEDecodes(t *testing.T) {
	f := func(seed uint64, a, b, c, d uint8) bool {
		pr := randomProfile(seed, a, b, c, d)
		pr.Threads = 1
		w, err := workload.Build(pr)
		if err != nil {
			return false
		}
		prof, err := w.CollectProfile()
		if err != nil {
			return false
		}
		ps := dacce.NewPCCE(w.P, prof, dacce.PCCEOptions{})
		m := dacce.NewMachine(w.P, ps, dacce.MachineConfig{SampleEvery: 9, Seed: pr.Seed + 1})
		rs, err := m.Run()
		if err != nil {
			return false
		}
		for _, s := range rs.Samples {
			ctx, err := ps.DecodeSample(s)
			if err != nil {
				t.Logf("seed %d sample %d: %v", seed, s.Seq, err)
				return false
			}
			if want := core.ShadowContext(nil, s.Shadow); !ctx.Equal(want) {
				t.Logf("seed %d sample %d: %v != %v", seed, s.Seq, ctx, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
