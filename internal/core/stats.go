package core

import (
	"dacce/internal/machine"
	"dacce/internal/telemetry"
)

// EpochRecord summarizes one re-encoding pass: what it produced,
// whether it ran incrementally, how much work each phase did, and what
// each phase cost — both in model cycles (CostCycles is the sum of the
// four phase costs, so Table 1's "costs" column still adds up) and in
// measured wall time. Renumbering and index construction run off-pause;
// stub rebuild and thread translation run inside the stop-the-world
// window.
type EpochRecord struct {
	Epoch        uint32
	Reason       telemetry.Reason // trigger that admitted the pass, or ReasonForced
	AtSample     int64            // samplesSeen when the pass ran (Fig. 9 x-axis)
	Nodes        int
	Edges        int
	EncodedEdges int
	MaxID        uint64
	Overflowed   bool
	CostCycles   int64

	// Incremental: the pass renumbered only the affected subgraph
	// (blenc.Refresh without fallback).
	Incremental bool

	// Per-phase work volume.
	ChangedEdges      int // edges whose code differs from the previous epoch, new ones included
	IndexEntries      int // decode-index in-edge entries (re)built
	SitesRebuilt      int // call-site stubs regenerated
	ThreadsTranslated int // threads whose TLS/frames were replayed
	ThreadsSkipped    int // live threads left untouched (selective translation)
	FramesReplayed    int // active frames rewritten across translated threads

	// Per-phase model cost; CostCycles is their sum.
	RenumberCost  int64
	IndexCost     int64
	StubCost      int64
	TranslateCost int64

	// Per-phase wall time. PrepareNanos is the off-pause portion
	// (renumber + index); PauseNanos is the stop-the-world window.
	RenumberNanos  int64
	IndexNanos     int64
	StubNanos      int64
	TranslateNanos int64
	PrepareNanos   int64
	PauseNanos     int64
}

// ProgressPoint is one point of the Fig. 9 progress series: how many
// nodes/edges are encoded and the maximum context id, per sample tick.
type ProgressPoint struct {
	Sample int64
	Nodes  int
	Edges  int
	MaxID  uint64
	Epoch  uint32
}

// Stats are the DACCE-side run statistics backing Table 1's DACCE
// columns and Fig. 9.
type Stats struct {
	// GTS is the number of re-encoding passes (Table 1 "gTS").
	GTS int
	// ReencodeCost is the total model cost of all passes (Table 1
	// "costs", reported in µs via ReencodeCostMicros).
	ReencodeCost int64
	// EdgesDiscovered counts first invocations seen by the handler.
	EdgesDiscovered int
	// TailFixups counts functions discovered to contain tail calls.
	TailFixups int
	// TailHeals counts threads that re-translated their own frames on
	// executing a tail call under a stale (pre-tail-discovery)
	// enclosing frame.
	TailHeals int
	// IncrementalPasses counts re-encodings served by the incremental
	// renumbering (blenc.Refresh without fallback). After the first
	// pass, every pass fired by edge discovery alone and every
	// ReencodeNow(exec, true) renumbers this way unless the splice falls
	// back to a full renumbering.
	IncrementalPasses int
	// DAGCollections/DAGCollected count DAG reclamation passes run by
	// maybeCollect and the total context nodes they freed.
	DAGCollections int
	DAGCollected   int64
	// Nodes/Edges/MaxID describe the final dynamic call graph.
	Nodes      int
	Edges      int
	MaxID      uint64
	Overflowed bool
	// History holds one record per re-encoding pass.
	History []EpochRecord
	// Progress is the sampled Fig. 9 series (when TrackProgress is on).
	Progress []ProgressPoint
}

// ReencodeCostMicros converts the total re-encoding cost to
// microseconds at the machine's nominal clock, matching Table 1's
// "costs(us)" units.
func (s *Stats) ReencodeCostMicros() float64 {
	return float64(s.ReencodeCost) / machine.NominalHz * 1e6
}
