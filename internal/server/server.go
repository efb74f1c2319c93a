// Package server implements dacced's decode-as-a-service core: a
// multi-tenant registry of persisted encoder states and an HTTP/JSON
// API that resolves captured contexts against them. Each tenant is one
// snapshot — keyed by program name plus content hash, so multiple
// encodings of the same program coexist and a client can pin the exact
// state its captures were taken under. Decodes run on the snapshot's
// immutable per-epoch indexes, so any number of requests decode
// concurrently; per-tenant concurrency caps with a bounded wait queue
// turn overload into fast 429s instead of collapse.
//
// Endpoints:
//
//	GET  /healthz                   liveness + tenant count
//	POST /v1/decode                 batched decode: {tenant, captures[]}
//	GET  /v1/snapshot?tenant=NAME   download the tenant's raw snapshot
//	POST /v1/snapshot?tenant=NAME   register a snapshot (body = bytes)
//	POST /v1/retire?tenant=N&epoch=E retire epochs ≤ E (drop memo, collect DAG)
//	GET  /v1/stats                  build info + per-tenant statistics
//	GET  /metrics                   Prometheus metrics
//	GET  /debug/ccprof?tenant=NAME  live context profile (pprof/folded/tree)
//	GET  /debug/vars                metrics as JSON, with quantile snapshots
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dacce/internal/buildinfo"
	"dacce/internal/ccdag"
	"dacce/internal/ccprof"
	"dacce/internal/core"
	"dacce/internal/persist"
	"dacce/internal/prog"
	"dacce/internal/telemetry"
)

// Config parameterizes a Server.
type Config struct {
	// MaxConcurrent caps in-flight decode requests per tenant
	// (default 4).
	MaxConcurrent int
	// QueueDepth bounds how many requests may wait for a slot per
	// tenant; the queue full, further requests get 429 (default 64).
	QueueDepth int
	// MaxBodyBytes caps request bodies (default 64 MiB).
	MaxBodyBytes int64
	// Registry receives the server's metrics; a private registry is
	// created when nil, so /metrics always serves.
	Registry *telemetry.Registry
}

func (c *Config) fill() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
}

// tenant is one registered snapshot and its admission state.
type tenant struct {
	name string
	hash string
	key  string

	dec *core.Decoder
	st  *core.EncoderState
	raw []byte

	// wire holds the tenant's pre-escaped /v1/decode response fragments.
	wire wireNames

	// prof aggregates every context this tenant decodes into a live
	// calling-context profile, served from /debug/ccprof. profShard
	// spreads concurrent requests across accumulation shards.
	prof      *ccprof.Streaming
	profShard atomic.Int64

	// dag interns every context this tenant decodes; repeated contexts
	// across requests share suffix storage and feed the profiler as
	// canonical nodes. It is bounded: RetireEpoch advances its
	// generation and sweeps nodes not pinned by the surviving memo.
	dag *ccdag.DAG

	// genMu orders decodes against epoch retirement: every batch holds
	// the read side across its decodes' memo-lookup/walk/insert, so a
	// retirement (write side) never collects the DAG while a decode's
	// freshly interned chain is mid-flight or the batch's cursor holds
	// nodes — the server-side analogue of the encoder's capture
	// refcounts.
	genMu sync.RWMutex

	// memo caches fully-determined decodes, bucketed by capture epoch so
	// RetireEpoch drops a retired epoch's entries by unlinking its
	// bucket — O(1) per epoch, not a scan. A capture with no spawn chain
	// decodes to exactly one context per (epoch, id, fn, root, ccStack),
	// and the bucket key is that input itself (appendMemoKey), so a hit
	// means an identical, already validated capture. Captures with a
	// spawn prefix carry decode input outside the key and are never
	// memoized.
	memoMu     sync.RWMutex
	memo       map[uint32]map[string]*ccdag.Node
	memoSize   atomic.Int64 // live entries across all epoch buckets
	memoHits   atomic.Int64
	memoMisses atomic.Int64

	// slots is the concurrency cap: a request holds one slot for the
	// duration of its decode work.
	slots chan struct{}
	// queued counts requests waiting for a slot; bounded by QueueDepth.
	queued atomic.Int64

	requests atomic.Int64
	decoded  atomic.Int64
	errors   atomic.Int64
	rejected atomic.Int64

	// framesReused counts the frames decodes took from their batch's
	// cursor instead of interning them in the DAG.
	framesReused atomic.Int64
}

// memoizable reports whether a capture's decode is determined by its
// epoch and memo key alone. Only a spawn prefix disqualifies: the spawn
// chain is a linked structure of further captures the key leaves out.
func memoizable(c *core.Capture) bool {
	return c.Spawn == nil
}

// memoRun is one batch's pass over its tenant's memo: whether it holds
// memoMu's read side, and the hits and misses it has yet to add to the
// tenant's counters. endMemoRun releases the one and adds the others.
type memoRun struct {
	held         bool
	hits, misses int64
}

// releaseMemo releases the read side of memoMu if r holds it.
func (t *tenant) releaseMemo(r *memoRun) {
	if r.held {
		t.memoMu.RUnlock()
		r.held = false
	}
}

// endMemoRun releases r's read lock and adds its hits and misses to the
// tenant's counters.
func (t *tenant) endMemoRun(r *memoRun) {
	t.releaseMemo(r)
	t.memoHits.Add(r.hits)
	t.memoMisses.Add(r.misses)
	r.hits, r.misses = 0, 0
}

// decodeNode resolves a capture to its interned context node, through
// the memo when the capture is memoizable; a walk interns through cur.
// The memo key is built in *key, the caller's scratch; only an insert
// copies it. A lookup takes memoMu's read side unless r holds it, and
// a hit keeps it, so a run of hits takes the lock once; it is released
// before any walk or insert, as an RWMutex cannot be upgraded. Caller
// holds t.genMu.RLock (decodeBatch takes it per batch), so no
// retirement can sweep the DAG mid-walk or between the decodes that
// share cur, and calls endMemoRun once its run is over.
func (t *tenant) decodeNode(c *core.Capture, key *[]byte, cur *core.NodeCursor, r *memoRun) (*ccdag.Node, error) {
	if !memoizable(c) {
		t.releaseMemo(r)
		return t.dec.DecodeNodeCursor(t.dag, c, cur)
	}
	*key = appendMemoKey((*key)[:0], c)
	if !r.held {
		t.memoMu.RLock()
		r.held = true
	}
	if n, ok := t.memo[c.Epoch][string(*key)]; ok {
		r.hits++
		return n, nil
	}
	t.releaseMemo(r)
	n, err := t.dec.DecodeNodeCursor(t.dag, c, cur)
	if err != nil {
		return nil, err
	}
	// Re-check under the write lock: two concurrent misses both decode,
	// but only the first insert wins — the loser adopts the resident
	// node (identical by interning, but adopting keeps the accounting
	// exact) and counts a hit, so misses always equals entries created.
	t.memoMu.Lock()
	b := t.memo[c.Epoch]
	if b == nil {
		b = map[string]*ccdag.Node{}
		t.memo[c.Epoch] = b
	}
	if prev, ok := b[string(*key)]; ok {
		t.memoMu.Unlock()
		r.hits++
		return prev, nil
	}
	b[string(*key)] = n
	t.memoMu.Unlock()
	t.memoSize.Add(1)
	r.misses++
	return n, nil
}

// retireEpoch declares every capture of epochs ≤ epoch dead: the
// profiler's node pins are flushed, the retired epochs' memo buckets
// are unlinked, and the DAG is swept with the surviving memo entries as roots.
// Returns the number of memo entries dropped and the collection's
// statistics. Blocks until in-flight decodes drain (genMu write side)
// and excludes new ones for the duration, so no mid-walk chain can be
// swept.
func (t *tenant) retireEpoch(epoch uint32) (int64, ccdag.CollectStats) {
	// Fold the profiler's pending per-node counts into its merged tree
	// and drop the node keys; without this the shard maps would pin
	// every node ever sampled and the sweep below would free nothing.
	// The fold runs before the write lock, so decodes wait only for the
	// sweep: a node observed between the fold and the lock carries the
	// current generation and the next retirement folds it, and no count
	// is lost, because the merged tree keys contexts by frames, not by
	// node.
	t.prof.ReleaseNodes()
	t.genMu.Lock()
	defer t.genMu.Unlock()
	var dropped int64
	t.memoMu.Lock()
	for e, b := range t.memo {
		if e <= epoch {
			dropped += int64(len(b))
			delete(t.memo, e)
		}
	}
	t.memoMu.Unlock()
	t.memoSize.Add(-dropped)
	// Everything not reachable from a surviving memo entry is garbage:
	// non-memoized decodes materialize their frames inside the request,
	// so the memo is the only long-lived canonical pin. Advancing the
	// generation first makes the whole current table stale except what
	// the pin callback re-marks.
	floor := t.dag.AdvanceGen()
	st := t.dag.Collect(floor, func(mark func(*ccdag.Node)) {
		for _, b := range t.memo {
			for _, n := range b {
				mark(n)
			}
		}
	})
	return dropped, st
}

// RetireEpoch retires epochs ≤ epoch of the referenced tenant (name or
// name@hash): memo buckets for retired epochs are dropped in O(1) each,
// profiler node pins are released, and the tenant's context DAG is
// collected down to the entries the surviving memo still pins. Safe
// against concurrent decodes. Exposed over HTTP as POST /v1/retire.
func (s *Server) RetireEpoch(ref string, epoch uint32) (RetireInfo, error) {
	t := s.resolve(ref)
	if t == nil {
		return RetireInfo{}, fmt.Errorf("server: unknown tenant %q", ref)
	}
	dropped, st := t.retireEpoch(epoch)
	return RetireInfo{
		Tenant: t.name, Hash: t.hash, Epoch: epoch,
		MemoDropped: dropped, Collect: st,
	}, nil
}

// Server is the decode service. Create with New, serve via Handler.
type Server struct {
	cfg Config

	mu      sync.RWMutex
	tenants map[string]*tenant // key: "name@hash"
	latest  map[string]string  // name → most recently registered key

	inflight atomic.Int64
	mux      *http.ServeMux

	// httpInflight counts requests inside the handler on any route
	// (inflight counts only decode requests holding a slot).
	httpInflight atomic.Int64

	mRequests     func(endpoint, code string) *telemetry.Counter
	mReqDuration  func(route string) *telemetry.Histogram
	mLatency      *telemetry.Histogram
	mDecoded      *telemetry.Counter
	mErrors       *telemetry.Counter
	mRejected     *telemetry.Counter
	mInflight     *telemetry.Gauge
	mHTTPInflight *telemetry.Gauge

	// mDecodeOK and mDecodeDuration cache /v1/decode's series of
	// mRequests' and mReqDuration's families, looked up on first use: a
	// decode skips the registry's label rendering and lock, and /metrics
	// lists the series only once a decode has been served, as it does
	// for every route.
	mDecodeOK       atomic.Pointer[telemetry.Counter]
	mDecodeDuration atomic.Pointer[telemetry.Histogram]
}

// New creates a Server.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:     cfg,
		tenants: map[string]*tenant{},
		latest:  map[string]string{},
	}
	reg := cfg.Registry
	reg.Help("dacced_requests_total", "HTTP requests by endpoint and status code")
	reg.Help("dacced_decode_latency_us", "Batched decode request latency (µs)")
	reg.Help("dacced_contexts_decoded_total", "Captures successfully decoded")
	reg.Help("dacced_decode_errors_total", "Captures that failed to decode")
	reg.Help("dacced_rejected_total", "Requests rejected by backpressure (429)")
	reg.Help("dacced_inflight", "Decode requests currently holding a slot")
	reg.Help("dacced_queue_depth", "Requests waiting for a tenant slot")
	reg.Help("dacced_request_duration_ns", "Wall time per HTTP request by route (ns)")
	reg.Help("dacced_http_inflight", "HTTP requests currently in the handler, any route")
	reg.Help("dacced_dag_nodes", "Interned context-DAG nodes per tenant")
	reg.Help("dacced_dag_intern_hits", "Context-DAG intern lookups that found an existing node")
	reg.Help("dacced_dag_intern_misses", "Context-DAG intern lookups that created a node")
	reg.Help("dacced_dag_frames_reused", "Decoded frames taken from the batch's decode cursor instead of interned")
	reg.Help("dacced_dag_bytes_estimate", "Estimated context-DAG memory footprint per tenant (bytes)")
	reg.Help("dacced_memo_hits", "Decodes served from the per-tenant node memo")
	reg.Help("dacced_memo_misses", "Memoizable decodes that had to walk the snapshot")
	reg.Help("dacced_memo_size", "Live decode-memo entries per tenant, all epoch buckets")
	reg.Help("dacced_dag_collected_total", "Context-DAG nodes freed by epoch retirement per tenant")
	reg.Help("dacced_dag_collections_total", "Context-DAG reclamation passes per tenant")
	s.mRequests = func(endpoint, code string) *telemetry.Counter {
		return reg.Counter("dacced_requests_total", "endpoint", endpoint, "code", code)
	}
	s.mReqDuration = func(route string) *telemetry.Histogram {
		return reg.Histogram("dacced_request_duration_ns", telemetry.DurationBuckets(), "route", route)
	}
	s.mLatency = reg.Histogram("dacced_decode_latency_us", telemetry.ExpBuckets(10, 4, 10))
	s.mDecoded = reg.Counter("dacced_contexts_decoded_total")
	s.mErrors = reg.Counter("dacced_decode_errors_total")
	s.mRejected = reg.Counter("dacced_rejected_total")
	s.mInflight = reg.Gauge("dacced_inflight")
	s.mHTTPInflight = reg.Gauge("dacced_http_inflight")

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/decode", s.handleDecode)
	s.mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/v1/retire", s.handleRetire)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/ccprof", s.handleCcprof)
	s.mux.HandleFunc("/debug/vars", s.handleVars)
	return s
}

// routeLabel normalizes a request path to a bounded metric label — the
// fixed route set, or "other" — so arbitrary client paths can't explode
// the label space.
func routeLabel(path string) string {
	switch path {
	case "/healthz", "/v1/decode", "/v1/snapshot", "/v1/retire", "/v1/stats",
		"/metrics", "/debug/ccprof", "/debug/vars":
		return path
	}
	return "other"
}

// Handler returns the server's HTTP handler: the route mux wrapped in
// timing middleware that feeds the per-route request-duration histogram
// and the whole-server in-flight gauge.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mHTTPInflight.Set(s.httpInflight.Add(1))
		start := time.Now()
		defer func() {
			var h *telemetry.Histogram
			if route := routeLabel(r.URL.Path); route == "/v1/decode" {
				h = cachedMetric(&s.mDecodeDuration, func() *telemetry.Histogram { return s.mReqDuration(route) })
			} else {
				h = s.mReqDuration(route)
			}
			h.ObserveDuration(time.Since(start))
			s.mHTTPInflight.Set(s.httpInflight.Add(-1))
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// DecodeLatency returns the decode-request latency histogram (µs) — the
// source for dacced's decode-p99 SLO rule.
func (s *Server) DecodeLatency() *telemetry.Histogram { return s.mLatency }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *telemetry.Registry { return s.cfg.Registry }

// Register installs a snapshot under the given program name and returns
// the tenant's content hash. Registering the same bytes twice is
// idempotent; a different snapshot under the same name becomes the
// name's new default while the old one stays addressable as name@hash.
func (s *Server) Register(name string, data []byte) (string, error) {
	if name == "" {
		return "", fmt.Errorf("server: tenant name must not be empty")
	}
	st, err := persist.Unmarshal(data)
	if err != nil {
		return "", err
	}
	dec, err := st.NewDecoder()
	if err != nil {
		return "", err
	}
	hash := persist.Hash(data)
	t := &tenant{
		name:  name,
		hash:  hash,
		key:   name + "@" + hash,
		dec:   dec,
		st:    st,
		raw:   data,
		prof:  ccprof.NewStreaming(dec.P),
		dag:   ccdag.New(),
		wire:  newWireNames(name, hash, dec.P),
		memo:  map[uint32]map[string]*ccdag.Node{},
		slots: make(chan struct{}, s.cfg.MaxConcurrent),
	}
	s.mu.Lock()
	s.tenants[t.key] = t
	s.latest[name] = t.key
	s.mu.Unlock()
	return hash, nil
}

// Tenants returns the registered tenant keys, sorted.
func (s *Server) Tenants() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.tenants))
	for k := range s.tenants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// resolve finds a tenant by exact "name@hash" key or bare name (the
// name's most recently registered snapshot).
func (s *Server) resolve(ref string) *tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t, ok := s.tenants[ref]; ok {
		return t
	}
	if key, ok := s.latest[ref]; ok {
		return s.tenants[key]
	}
	return nil
}

// acquire admits a request into the tenant's decode slots: immediately
// when a slot is free, after a bounded wait while the queue has room,
// not at all (429) when the queue is full or the client went away.
func (s *Server) acquire(r *http.Request, t *tenant) bool {
	select {
	case t.slots <- struct{}{}:
		return true
	default:
	}
	if t.queued.Add(1) > int64(s.cfg.QueueDepth) {
		t.queued.Add(-1)
		return false
	}
	defer t.queued.Add(-1)
	select {
	case t.slots <- struct{}{}:
		return true
	case <-r.Context().Done():
		return false
	}
}

func (s *Server) release(t *tenant) { <-t.slots }

// --- wire types ---

// DecodeRequest is the /v1/decode request body. Captures use the same
// JSON shape daccerun -dump writes (core.Capture's field names), so a
// captures.json can be posted as-is. The server reads it with the strict
// parser in wire.go, which accepts a subset of encoding/json's input.
type DecodeRequest struct {
	// Tenant is a program name or name@hash key.
	Tenant string `json:"tenant"`
	// Captures are the contexts to decode, in order.
	Captures []*core.Capture `json:"captures"`
}

// Frame is one decoded calling-context frame, root first.
type Frame struct {
	Site prog.SiteID `json:"site"`
	Fn   prog.FuncID `json:"fn"`
	Name string      `json:"name"`
}

// DecodeResult is one capture's outcome: frames or an error.
type DecodeResult struct {
	Frames []Frame `json:"frames,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// DecodeResponse is the /v1/decode response body. Results are parallel
// to the request's captures. The server appends its bytes directly
// (wire.go) without building one; they equal json.Encoder's output.
type DecodeResponse struct {
	Tenant  string         `json:"tenant"`
	Hash    string         `json:"hash"`
	Results []DecodeResult `json:"results"`
}

// RetireInfo is the POST /v1/retire response body: what one epoch
// retirement dropped from the tenant's memo and reclaimed from its DAG.
type RetireInfo struct {
	Tenant      string             `json:"tenant"`
	Hash        string             `json:"hash"`
	Epoch       uint32             `json:"epoch"`
	MemoDropped int64              `json:"memo_dropped"`
	Collect     ccdag.CollectStats `json:"collect"`
}

// SnapshotInfo is the POST /v1/snapshot response body.
type SnapshotInfo struct {
	Tenant string `json:"tenant"`
	Hash   string `json:"hash"`
	Epochs int    `json:"epochs"`
	Funcs  int    `json:"funcs"`
	Edges  int    `json:"edges"`
	MaxID  uint64 `json:"max_id"`
}

// TenantStats is one tenant's entry in /v1/stats.
type TenantStats struct {
	Name      string `json:"name"`
	Hash      string `json:"hash"`
	Epochs    int    `json:"epochs"`
	Funcs     int    `json:"funcs"`
	Edges     int    `json:"edges"`
	MaxID     uint64 `json:"max_id"`
	Requests  int64  `json:"requests"`
	Decoded   int64  `json:"decoded"`
	Errors    int64  `json:"errors"`
	Rejected  int64  `json:"rejected"`
	Queued    int64  `json:"queued"`
	SnapBytes int    `json:"snapshot_bytes"`

	// Context-DAG and decode-memo health. DAGNodes and DAGBytesEst are
	// post-collection figures — the live intern table, not cumulative
	// interning; DAGCollections/DAGCollected show reclamation working.
	// DAGHitRate covers only the Intern calls decodes still make: the
	// frames a decode takes from its batch's cursor are counted in
	// DAGFramesReused instead.
	DAGNodes        int64   `json:"dag_nodes"`
	DAGHitRate      float64 `json:"dag_hit_rate"`
	DAGFramesReused int64   `json:"dag_frames_reused"`
	DAGBytesEst     int64   `json:"dag_bytes_estimate"`
	DAGCollections  int64   `json:"dag_collections"`
	DAGCollected    int64   `json:"dag_collected"`
	MemoHits        int64   `json:"memo_hits"`
	MemoMisses      int64   `json:"memo_misses"`
	MemoSize        int64   `json:"memo_size"`
}

// Stats is the /v1/stats response body.
type Stats struct {
	Build    buildinfo.Info `json:"build"`
	Inflight int64          `json:"inflight"`
	Tenants  []TenantStats  `json:"tenants"`
}

// --- handlers ---

func (s *Server) count(endpoint string, code int) {
	if endpoint == "decode" && code == http.StatusOK {
		cachedMetric(&s.mDecodeOK, func() *telemetry.Counter { return s.mRequests(endpoint, "200") }).Inc()
		return
	}
	s.mRequests(endpoint, strconv.Itoa(code)).Inc()
}

// cachedMetric returns the handle *p holds, storing lookup's there on
// first use. The registry returns one handle per series, so racing
// first uses store the same one.
func cachedMetric[T any](p *atomic.Pointer[T], lookup func() *T) *T {
	if m := p.Load(); m != nil {
		return m
	}
	m := lookup()
	p.Store(m)
	return m
}

func (s *Server) writeJSON(w http.ResponseWriter, endpoint string, code int, v any) {
	s.count(endpoint, code)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers {"error": message}, the bytes json.Encoder would
// write for it.
func (s *Server) writeError(w http.ResponseWriter, endpoint string, code int, format string, args ...any) {
	s.count(endpoint, code)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(appendErrorObject(nil, fmt.Sprintf(format, args...)), '\n'))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.tenants)
	s.mu.RUnlock()
	s.writeJSON(w, "healthz", http.StatusOK, map[string]any{"status": "ok", "tenants": n})
}

// handleDecode serves POST /v1/decode. The body is parsed by the wire
// codec into pooled slabs and the response is appended straight from
// each decoded node; see wire.go for the accepted grammar.
func (s *Server) handleDecode(w http.ResponseWriter, r *http.Request) {
	const ep = "decode"
	if r.Method != http.MethodPost {
		s.writeError(w, ep, http.StatusMethodNotAllowed, "POST required")
		return
	}
	wb := wirePool.Get().(*wireBuf)
	defer wb.release()
	if _, err := wb.body.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, ep, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		s.writeError(w, ep, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	var req DecodeRequest
	if err := wb.parseRequest(&req); err != nil {
		s.writeError(w, ep, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	t := s.resolve(req.Tenant)
	if t == nil {
		s.writeError(w, ep, http.StatusNotFound, "unknown tenant %q", req.Tenant)
		return
	}
	if !s.acquire(r, t) {
		t.rejected.Add(1)
		s.mRejected.Inc()
		w.Header().Set("Retry-After", "1")
		s.writeError(w, ep, http.StatusTooManyRequests, "tenant %s at capacity", t.key)
		return
	}
	defer s.release(t)
	s.inflight.Add(1)
	s.mInflight.Set(s.inflight.Load())
	defer func() {
		s.inflight.Add(-1)
		s.mInflight.Set(s.inflight.Load())
	}()

	start := time.Now()
	t.requests.Add(1)
	// Each request accumulates into one profiler shard for its whole
	// batch; round-robin over the slot count keeps concurrent requests
	// off each other's shard locks.
	shard := int(t.profShard.Add(1)-1) % s.cfg.MaxConcurrent
	wb.out = s.decodeBatch(t, wb, req.Captures, shard)
	s.mLatency.Observe(time.Since(start).Microseconds())
	s.count(ep, http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(wb.out)
}

// decodeBatch decodes one request's captures into wb.out's response
// body and returns it. The whole batch runs under the tenant's
// retirement read-lock: a concurrent RetireEpoch drains the batch
// instead of sweeping a chain some capture here is mid-walk on, and the
// nodes wb.cur carries from one capture's walk to the next stay
// canonical. The cursors are emptied first, because a retirement may
// have run since they were last filled. The batch resolves every
// capture to a node first, so memoMu's read side covers lookups only,
// and hands the nodes to its profiler shard under one lock; it renders
// them after releasing the read-lock, since a node's frames never
// change, and adds its counts to the tenant's and the server's counters
// once.
func (s *Server) decodeBatch(t *tenant, wb *wireBuf, caps []*core.Capture, shard int) []byte {
	t.genMu.RLock()
	wb.cur.Reset()
	wb.clearBatch()
	var run memoRun
	for _, c := range caps {
		var n *ccdag.Node
		err := errNullCapture
		if c != nil {
			n, err = t.decodeNode(c, &wb.key, &wb.cur, &run)
		}
		wb.nodes = append(wb.nodes, n)
		wb.errs = append(wb.errs, err)
	}
	t.endMemoRun(&run)
	t.framesReused.Add(wb.cur.Reused())
	t.prof.ObserveContextNodes(shard, wb.nodes)
	t.genMu.RUnlock()

	out := append(wb.out[:0], t.wire.head...)
	var failed int64
	for i, n := range wb.nodes {
		if i > 0 {
			out = append(out, ',')
		}
		if err := wb.errs[i]; err != nil {
			out = appendErrorObject(out, err.Error())
			failed++
			continue
		}
		out = wb.render.appendResult(out, &t.wire, n)
	}
	decoded := int64(len(caps)) - failed
	t.decoded.Add(decoded)
	s.mDecoded.Add(decoded)
	if failed > 0 {
		t.errors.Add(failed)
		s.mErrors.Add(failed)
	}
	return append(out, "]}\n"...)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	const ep = "snapshot"
	name := r.URL.Query().Get("tenant")
	switch r.Method {
	case http.MethodGet:
		t := s.resolve(name)
		if t == nil {
			s.writeError(w, ep, http.StatusNotFound, "unknown tenant %q", name)
			return
		}
		s.count(ep, http.StatusOK)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Dacce-State-Hash", t.hash)
		_, _ = w.Write(t.raw)
	case http.MethodPost, http.MethodPut:
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			s.writeError(w, ep, http.StatusBadRequest, "reading snapshot: %v", err)
			return
		}
		hash, err := s.Register(name, data)
		if err != nil {
			s.writeError(w, ep, http.StatusBadRequest, "registering snapshot: %v", err)
			return
		}
		t := s.resolve(name + "@" + hash)
		s.writeJSON(w, ep, http.StatusOK, SnapshotInfo{
			Tenant: name, Hash: hash,
			Epochs: len(t.st.Epochs), Funcs: len(t.st.Funcs),
			Edges: len(t.st.Edges), MaxID: t.st.Epochs[len(t.st.Epochs)-1].MaxID,
		})
	default:
		s.writeError(w, ep, http.StatusMethodNotAllowed, "GET, POST or PUT required")
	}
}

// handleRetire serves POST /v1/retire?tenant=NAME&epoch=N: retire every
// epoch ≤ N of the tenant — drop their memo buckets and collect the
// context DAG down to the surviving memo's pins.
func (s *Server) handleRetire(w http.ResponseWriter, r *http.Request) {
	const ep = "retire"
	if r.Method != http.MethodPost {
		s.writeError(w, ep, http.StatusMethodNotAllowed, "POST required")
		return
	}
	ref := r.URL.Query().Get("tenant")
	epoch, err := strconv.ParseUint(r.URL.Query().Get("epoch"), 10, 32)
	if err != nil {
		s.writeError(w, ep, http.StatusBadRequest, "epoch parameter: %v", err)
		return
	}
	info, err := s.RetireEpoch(ref, uint32(epoch))
	if err != nil {
		s.writeError(w, ep, http.StatusNotFound, "%v", err)
		return
	}
	s.writeJSON(w, ep, http.StatusOK, &info)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := Stats{Build: buildinfo.Get(), Inflight: s.inflight.Load()}
	s.mu.RLock()
	keys := make([]string, 0, len(s.tenants))
	for k := range s.tenants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		t := s.tenants[key]
		dst := t.dag.Stats()
		st.Tenants = append(st.Tenants, TenantStats{
			DAGNodes:        dst.Nodes,
			DAGHitRate:      dst.HitRate(),
			DAGFramesReused: t.framesReused.Load(),
			DAGBytesEst:     dst.BytesEstimate,
			DAGCollections:  dst.Collections,
			DAGCollected:    dst.Collected,
			MemoHits:        t.memoHits.Load(),
			MemoMisses:      t.memoMisses.Load(),
			MemoSize:        t.memoSize.Load(),
			Name:            t.name,
			Hash:            t.hash,
			Epochs:          len(t.st.Epochs),
			Funcs:           len(t.st.Funcs),
			Edges:           len(t.st.Edges),
			MaxID:           t.st.Epochs[len(t.st.Epochs)-1].MaxID,
			Requests:        t.requests.Load(),
			Decoded:         t.decoded.Load(),
			Errors:          t.errors.Load(),
			Rejected:        t.rejected.Load(),
			Queued:          t.queued.Load(),
			SnapBytes:       len(t.raw),
		})
	}
	s.mu.RUnlock()
	s.writeJSON(w, "stats", http.StatusOK, &st)
}

// refreshTenantGauges recomputes the per-tenant scrape-time gauges:
// queue depth plus the context-DAG and decode-memo health counters.
func (s *Server) refreshTenantGauges() {
	reg := s.cfg.Registry
	s.mu.RLock()
	for _, t := range s.tenants {
		reg.Gauge("dacced_queue_depth", "tenant", t.name).Set(t.queued.Load())
		st := t.dag.Stats()
		reg.Gauge("dacced_dag_nodes", "tenant", t.name).Set(st.Nodes)
		reg.Gauge("dacced_dag_intern_hits", "tenant", t.name).Set(st.Hits)
		reg.Gauge("dacced_dag_intern_misses", "tenant", t.name).Set(st.Misses)
		reg.Gauge("dacced_dag_frames_reused", "tenant", t.name).Set(t.framesReused.Load())
		reg.Gauge("dacced_dag_bytes_estimate", "tenant", t.name).Set(st.BytesEstimate)
		reg.Gauge("dacced_dag_collected_total", "tenant", t.name).Set(st.Collected)
		reg.Gauge("dacced_dag_collections_total", "tenant", t.name).Set(st.Collections)
		reg.Gauge("dacced_memo_hits", "tenant", t.name).Set(t.memoHits.Load())
		reg.Gauge("dacced_memo_misses", "tenant", t.name).Set(t.memoMisses.Load())
		reg.Gauge("dacced_memo_size", "tenant", t.name).Set(t.memoSize.Load())
	}
	s.mu.RUnlock()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.refreshTenantGauges()
	s.count("metrics", http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.cfg.Registry.WritePrometheus(w)
}

// handleCcprof serves a tenant's live context profile. With one tenant
// registered the tenant parameter may be omitted; formats follow
// ccprof.Streaming.Handler (pprof protobuf, ?format=folded, ?format=tree).
func (s *Server) handleCcprof(w http.ResponseWriter, r *http.Request) {
	const ep = "ccprof"
	ref := r.URL.Query().Get("tenant")
	var t *tenant
	if ref == "" {
		s.mu.RLock()
		if len(s.tenants) == 1 {
			for _, only := range s.tenants {
				t = only
			}
		}
		n := len(s.tenants)
		s.mu.RUnlock()
		if t == nil {
			s.writeError(w, ep, http.StatusBadRequest,
				"tenant parameter required (%d tenants registered)", n)
			return
		}
	} else if t = s.resolve(ref); t == nil {
		s.writeError(w, ep, http.StatusNotFound, "unknown tenant %q", ref)
		return
	}
	s.count(ep, http.StatusOK)
	t.prof.Handler().ServeHTTP(w, r)
}

// handleVars serves every registered metric as JSON, histograms with
// their quantile snapshots — the machine-readable twin of /metrics.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	s.refreshTenantGauges()
	s.count("vars", http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	_ = s.cfg.Registry.WriteJSON(w)
}
