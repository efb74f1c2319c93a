// Package difftest is the differential oracle harness of the
// repository: it drives one deterministic workload trace through every
// context tracker side by side — DACCE, PCCE, CCT, PCC, with the
// shadow stack (and its stack-walking view) as ground truth — and
// asserts that all of them agree about the calling context at every
// sampled query point. Query points land at a fixed per-thread call
// cadence, so the same instants are checked under every scheme,
// including instants immediately before and after forced re-encoding
// epochs, inside deep recursion, and at freshly promoted indirect
// sites.
//
// A run is described by a Spec: a workload profile plus harness knobs,
// serializable to a single JSON seed file. Failing specs shrink to
// minimal reproducers (Shrink) and print as ready-to-paste regression
// tests (WriteRegressionTest). Stress adds the concurrency angle:
// live multi-threaded runs with re-encoding forced from outside
// goroutines, intended to run under the race detector.
package difftest

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"dacce/internal/workload"
)

// AllEncoders lists every context tracker the harness drives, in
// replay order. The DACCE replay goes first: it establishes the
// canonical query points every later replay is checked against.
// "dacce-full" — a second DACCE instance whose forced passes renumber
// fully — is not in the default set; withDefaults adds it to
// Incremental specs so the sweep's incremental leg always carries its
// own full-pass control.
var AllEncoders = []string{"dacce", "pcce", "cct", "stackwalk", "pcc"}

// Spec describes one differential run completely: the workload whose
// trace is recorded once and replayed under every encoder, the query
// density, and the failure-injection knobs. A Spec round-trips through
// JSON, so one small seed file committed under testdata/ reproduces a
// failing run exactly.
type Spec struct {
	// Profile generates the workload; its Seed fixes both program
	// structure and run-time behaviour.
	Profile workload.Profile `json:"profile"`
	// SampleEvery is the query density: a context query every n calls
	// per thread (default 7).
	SampleEvery int64 `json:"sample_every,omitempty"`
	// ForceEpochEvery forces a DACCE re-encoding pass after every n-th
	// query (counted across threads), guaranteeing queries on both
	// sides of epoch boundaries. 0 leaves re-encoding to the adaptive
	// triggers alone.
	ForceEpochEvery int64 `json:"force_epoch_every,omitempty"`
	// SnapshotEvery archives the DACCE encoder's persisted snapshot
	// (persist.Marshal of the full state) after every n-th query,
	// counted across threads; after the replay each archived blob is
	// rehydrated into a standalone decoder and the query points whose
	// epochs were closed at archive time are re-decoded against the
	// oracle. 0 disables mid-trace archiving.
	SnapshotEvery int64 `json:"snapshot_every,omitempty"`
	// MaxEvents truncates each thread's recorded event stream before
	// replay; 0 keeps everything. The shrinker halves this to cut a
	// reproducer's trace without touching the workload.
	MaxEvents int `json:"max_events,omitempty"`
	// Encoders selects which trackers replay (default AllEncoders).
	Encoders []string `json:"encoders,omitempty"`
	// Mutation injects a deterministic fault into a scratch wrapper
	// around the DACCE encoder (see Mutation) — the harness's
	// self-test that seeded divergences are caught.
	Mutation string `json:"mutation,omitempty"`
	// Incremental marks the sweep's second leg, asserting that
	// splice-renumbered epochs decode identically to full passes. The
	// DACCE replay always renumbers incrementally at forced boundaries
	// and on discovery-only passes; when Encoders is left to the
	// default, an Incremental spec also gains a "dacce-full" leg: the
	// same trace replayed with every forced boundary a full pass, so
	// incremental-vs-full equivalence is asserted directly (both legs
	// must match the truth pinned at every query point).
	Incremental bool `json:"incremental,omitempty"`
}

// withDefaults fills the zero knobs.
func (s Spec) withDefaults() Spec {
	if s.SampleEvery <= 0 {
		s.SampleEvery = 7
	}
	if len(s.Encoders) == 0 {
		s.Encoders = AllEncoders
		if s.Incremental {
			s.Encoders = append(s.Encoders[:len(s.Encoders):len(s.Encoders)], "dacce-full")
		}
	}
	return s
}

// wants reports whether the spec replays the named encoder.
func (s Spec) wants(name string) bool {
	for _, e := range s.Encoders {
		if e == name {
			return true
		}
	}
	return false
}

// splitmix is the SplitMix64 finalizer, used to derive independent
// profile shape bytes from one seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// RandomSpec returns spec #seed of the harness's randomized family:
// the profile shape comes from workload.RandomProfile fed with bytes
// derived from the seed, and the harness knobs vary with it. The
// mapping is pure, so a seed number alone reproduces a run.
func RandomSpec(seed uint64) Spec {
	h := func(k uint64) uint64 { return splitmix(seed ^ splitmix(k)) }
	pr := workload.RandomProfile(seed, uint8(h(1)), uint8(h(2)), uint8(h(3)), uint8(h(4)))
	pr.Name = fmt.Sprintf("diff-%d", seed)
	// Half the seeds overlay one adversarial family (ISSUE 7), so every
	// sweep exercises module churn, mega-indirect dispatch, recursion
	// torture, and spawn churn alongside the plain profiles.
	switch h(8) % 8 {
	case 0:
		pr.ChurnModules = 1 + int(h(9)%3)
		pr.ChurnEvery = 400 + int64(h(9)%1200)
	case 1:
		pr.MegaSites = 1 + int(h(9)%3)
		pr.MegaTargets = 16 + int(h(9)%241)
	case 2:
		pr.TortureDepth = 256 + int(h(9)%1793)
	case 3:
		pr.SpawnChurn = 8 + int(h(9)%57)
		pr.SpawnRate = 0.05
	}
	return Spec{
		Profile:         pr,
		SampleEvery:     3 + int64(h(5)%11),
		ForceEpochEvery: 16 + int64(h(6)%48),
		SnapshotEvery:   8 + int64(h(7)%32),
	}
}

// WriteSpec serializes a spec as indented JSON.
func WriteSpec(w io.Writer, s Spec) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSpec deserializes a spec written by WriteSpec.
func ReadSpec(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("difftest: reading spec: %w", err)
	}
	return s, nil
}

// SaveSpec writes a spec seed file.
func SaveSpec(path string, s Spec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSpec(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadSpec reads a spec seed file.
func LoadSpec(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	return ReadSpec(f)
}
