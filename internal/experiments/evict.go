package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"

	"dacce/internal/ccprof"
	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/persist"
	"dacce/internal/server"
	"dacce/internal/workload"
)

// EvictConfig parameterizes the reclamation suite: the regime a
// week-long deployment lives in, where epochs keep retiring and the
// question is whether the decode plane's memory tracks the live set or
// the history. The suite exercises both planes the PR-10 reclamation
// covers — the encoder's context DAG (generation collection after each
// pass, driven by the capture-refcount low-water epoch) and dacced's
// epoch-bucketed memo plus per-tenant DAG (RetireEpoch) — and re-checks
// the warm node decode's 0-alloc claim with collection enabled.
type EvictConfig struct {
	// Rounds is how many epoch retirements each plane performs
	// (default 120; the acceptance floor is 100).
	Rounds int
	// Threads is the churn workload's thread count (default 2).
	Threads int
	// CallsPerRound is the churn workload's call budget per encoder
	// round (default 20k).
	CallsPerRound int64
	// SampleEvery is the sampling period in calls (default 5 — dense,
	// so every round interns fresh chains).
	SampleEvery int64
	// DecodeBatch is how many captures dacced decodes per round before
	// retiring the epoch (default 512).
	DecodeBatch int
	// WarmDecodes sizes the final 0-alloc warm-decode measurement
	// (default 200k).
	WarmDecodes int64
}

func (c *EvictConfig) fill() {
	if c.Rounds == 0 {
		c.Rounds = 120
	}
	if c.Threads == 0 {
		c.Threads = 2
	}
	if c.CallsPerRound == 0 {
		c.CallsPerRound = 20_000
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 5
	}
	if c.DecodeBatch == 0 {
		c.DecodeBatch = 512
	}
	if c.WarmDecodes == 0 {
		c.WarmDecodes = 200_000
	}
}

// EvictReport is the suite's result, serialized as BENCH_evict.json.
// "Early" figures are taken a quarter of the way in — past warm-up,
// long before the end — and "late" figures are the maximum over the
// remaining rounds, so Flat* compare steady state against steady state:
// a leak shows up as late ≫ early. The early/late series sample the
// pre-collection working set (live chains plus at most one round of
// garbage); if reclamation regressed, garbage would accumulate across
// rounds and the late peak would grow with history. Final figures are
// post-collection.
type EvictReport struct {
	Config     EvictConfig `json:"config"`
	GoMaxProcs int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`

	// Encoder plane: one long-lived DACCE, one churn run + forced pass
	// (= one epoch retirement) per round, streaming profiler attached
	// so its shard pins exercise ReleaseNodes.
	EncoderRounds        int   `json:"encoder_rounds"`
	EncoderDAGNodesEarly int64 `json:"encoder_dag_nodes_early"`
	EncoderDAGNodesLate  int64 `json:"encoder_dag_nodes_late_peak"`
	EncoderDAGNodesFinal int64 `json:"encoder_dag_nodes_final"`
	EncoderCollections   int   `json:"encoder_collections"`
	EncoderCollected     int64 `json:"encoder_collected"`
	EncoderFlat          bool  `json:"encoder_footprint_flat"`

	// Server plane: one dacced tenant, one decode batch + RetireEpoch
	// per round.
	ServerRounds        int   `json:"server_rounds"`
	ServerMemoPeak      int64 `json:"server_memo_peak"`
	ServerMemoFinal     int64 `json:"server_memo_final"`
	ServerMemoDropped   int64 `json:"server_memo_dropped_total"`
	ServerDAGNodesEarly int64 `json:"server_dag_nodes_early"`
	ServerDAGNodesLate  int64 `json:"server_dag_nodes_late_peak"`
	ServerDAGNodesFinal int64 `json:"server_dag_nodes_final"`
	ServerCollected     int64 `json:"server_dag_collected"`
	ServerFlat          bool  `json:"server_footprint_flat"`

	// Warm decode with collection machinery live: allocations per
	// DecodeNode over an already-interned corpus.
	WarmDecodes         int64   `json:"warm_decodes"`
	AllocsPerWarmDecode float64 `json:"allocs_per_warm_decode"`
}

// evictProfile is the churn workload: a mid-size single-phase program
// with indirect and recursive sites, small per round so a hundred
// rounds stay cheap.
func evictProfile(threads int, calls int64) workload.Profile {
	return workload.Profile{
		Name:          fmt.Sprintf("evict-%dt", threads),
		Seed:          0xE71C7,
		ExecFuncs:     64,
		ExecEdges:     150,
		Layers:        8,
		IndirectSites: 3,
		ActualTargets: 3,
		RecSites:      2,
		RecProb:       0.3,
		RecStartProb:  0.05,
		Threads:       threads,
		TotalCalls:    calls,
		Phases:        1,
	}
}

// flat reports whether the late steady-state peak stays within a small
// factor of the early steady state — the "bounded by the live set, not
// the history" claim. The additive slack absorbs tiny absolute counts.
func flat(early, late int64) bool {
	return late <= 2*early+1024
}

// Evict runs the reclamation suite and returns the report.
func Evict(cfg EvictConfig) (*EvictReport, error) {
	cfg.fill()
	rep := &EvictReport{
		Config:     cfg,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if err := evictEncoderPlane(cfg, rep); err != nil {
		return nil, err
	}
	if err := evictServerPlane(cfg, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// evictEncoderPlane churns one encoder through cfg.Rounds epoch
// retirements. Each round runs a freshly seeded machine (different
// sampled call paths, so new chains every round) with DropSamples on —
// captures release at sample time, the low-water epoch tracks the
// current epoch, and the forced pass after the run both retires the
// epoch and collects the DAG.
func evictEncoderPlane(cfg EvictConfig, rep *EvictReport) error {
	w, err := workload.Build(evictProfile(cfg.Threads, cfg.CallsPerRound))
	if err != nil {
		return err
	}
	d := core.New(w.P, core.Options{})
	d.SetContextObserver(ccprof.NewStreaming(w.P))

	quarter := cfg.Rounds / 4
	for r := 0; r < cfg.Rounds; r++ {
		m := w.NewMachine(d, machine.Config{
			SampleEvery: cfg.SampleEvery,
			Seed:        uint64(r + 1),
			DropSamples: true,
		})
		if _, err := m.Run(); err != nil {
			return err
		}
		// Sample before the forced pass: this is the round's working set
		// plus whatever earlier rounds failed to reclaim, so a broken
		// collector shows up here as unbounded growth.
		n := d.DAG().Len()
		switch {
		case r == quarter:
			rep.EncoderDAGNodesEarly = n
		case r > quarter && n > rep.EncoderDAGNodesLate:
			rep.EncoderDAGNodesLate = n
		}
		d.ForceReencode(nil)
	}
	rep.EncoderRounds = cfg.Rounds
	rep.EncoderDAGNodesFinal = d.DAG().Len()
	st := d.Stats()
	rep.EncoderCollections = st.DAGCollections
	rep.EncoderCollected = st.DAGCollected
	rep.EncoderFlat = flat(rep.EncoderDAGNodesEarly, rep.EncoderDAGNodesLate)

	// Warm-decode alloc check, collection machinery live: build a held
	// corpus (samples retained, epochs pinned), intern it once, then
	// measure repeat decodes.
	m := w.NewMachine(d, machine.Config{SampleEvery: cfg.SampleEvery})
	rs, err := m.Run()
	if err != nil {
		return err
	}
	if len(rs.Samples) == 0 {
		return fmt.Errorf("evict: corpus run retained no captures")
	}
	captures := make([]*core.Capture, 0, len(rs.Samples))
	for _, s := range rs.Samples {
		captures = append(captures, s.Capture.(*core.Capture))
	}
	for _, c := range captures {
		if _, err := d.DecodeNode(c); err != nil {
			return err
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := int64(0); i < cfg.WarmDecodes; i++ {
		if _, err := d.DecodeNode(captures[i%int64(len(captures))]); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	rep.WarmDecodes = cfg.WarmDecodes
	rep.AllocsPerWarmDecode = float64(after.Mallocs-before.Mallocs) / float64(cfg.WarmDecodes)
	return nil
}

// evictServerPlane drives a dacced tenant through cfg.Rounds epoch
// retirements over HTTP: each round decodes a batch (repopulating memo,
// DAG and profiler pins) and then retires through /v1/retire, the
// operator's "no captures this old can still arrive" signal.
func evictServerPlane(cfg EvictConfig, rep *EvictReport) error {
	// The tenant's snapshot comes from one longer multi-epoch run with
	// samples retained — those captures are the decode traffic.
	w, err := workload.Build(evictProfile(cfg.Threads, 8*cfg.CallsPerRound))
	if err != nil {
		return err
	}
	d := core.New(w.P, core.Options{})
	m := w.NewMachine(d, machine.Config{SampleEvery: cfg.SampleEvery})
	rs, err := m.Run()
	if err != nil {
		return err
	}
	captures := make([]*core.Capture, 0, len(rs.Samples))
	for _, s := range rs.Samples {
		captures = append(captures, s.Capture.(*core.Capture))
	}
	if len(captures) == 0 {
		return fmt.Errorf("evict: server corpus retained no captures")
	}
	snap, err := persist.Marshal(d.ExportState())
	if err != nil {
		return err
	}
	srv := server.New(server.Config{})
	if _, err := srv.Register("evict", snap); err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	maxEpoch := uint32(0)
	for _, c := range captures {
		if c.Epoch > maxEpoch {
			maxEpoch = c.Epoch
		}
	}
	tenantStats := func() (server.TenantStats, error) {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			return server.TenantStats{}, err
		}
		defer resp.Body.Close()
		var st server.Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return server.TenantStats{}, err
		}
		if len(st.Tenants) != 1 {
			return server.TenantStats{}, fmt.Errorf("evict: %d tenants in stats", len(st.Tenants))
		}
		return st.Tenants[0], nil
	}

	quarter := cfg.Rounds / 4
	pos := 0
	for r := 0; r < cfg.Rounds; r++ {
		batch := make([]*core.Capture, 0, cfg.DecodeBatch)
		for i := 0; i < cfg.DecodeBatch; i++ {
			batch = append(batch, captures[pos%len(captures)])
			pos++
		}
		body, err := json.Marshal(server.DecodeRequest{Tenant: "evict", Captures: batch})
		if err != nil {
			return err
		}
		resp, err := http.Post(ts.URL+"/v1/decode", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("evict: round %d decode: HTTP %d", r, resp.StatusCode)
		}

		// Pre-retirement stats: memo and DAG at their in-use peak for the
		// round. A reclamation regression accumulates here across rounds.
		st, err := tenantStats()
		if err != nil {
			return err
		}
		if st.MemoSize > rep.ServerMemoPeak {
			rep.ServerMemoPeak = st.MemoSize
		}
		switch {
		case r == quarter:
			rep.ServerDAGNodesEarly = st.DAGNodes
		case r > quarter && st.DAGNodes > rep.ServerDAGNodesLate:
			rep.ServerDAGNodesLate = st.DAGNodes
		}

		// Retire every epoch the snapshot has: production would retire
		// trailing epochs as the source process re-encodes; retiring the
		// whole range each round is the same O(buckets) operation and the
		// strictest flatness test — nothing may survive but what the next
		// batch re-creates.
		info, err := srv.RetireEpoch("evict", maxEpoch)
		if err != nil {
			return err
		}
		rep.ServerMemoDropped += info.MemoDropped
		rep.ServerCollected += info.Collect.Freed

		if r == cfg.Rounds-1 {
			st, err = tenantStats()
			if err != nil {
				return err
			}
			rep.ServerMemoFinal = st.MemoSize
			rep.ServerDAGNodesFinal = st.DAGNodes
		}
	}
	rep.ServerRounds = cfg.Rounds
	rep.ServerFlat = flat(rep.ServerDAGNodesEarly, rep.ServerDAGNodesLate) &&
		rep.ServerMemoFinal == 0
	return nil
}
