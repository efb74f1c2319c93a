package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dacce/internal/ccdag"
	"dacce/internal/ccprof"
	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/persist"
	"dacce/internal/prog"
	"dacce/internal/server"
)

// Span names of the serve path.
const (
	spanRoundtrip  = "server.roundtrip"
	spanRetire     = "server.retire"
	spanHandler    = "server.handler"
	spanWireDecode = "server.wire_decode"
	spanWireEncode = "server.wire_encode"
	spanDecode     = "core.DecodeNode"
	spanMaterial   = "core.materialize"
	spanUnmarshal  = "persist.Unmarshal"
	spanRestore    = "core.Restore"
	spanNewDecoder = "core.NewDecoder"
)

// corpus is a capture stream cut into 512-capture /v1/decode request
// bodies, with the ground truth every body's response must match. The
// bodies are encoded once, so the load generator spends its CPU on
// sending and byte-comparing, not on JSON.
type corpus struct {
	tenant   string
	names    []string // FuncID → name, as the response must carry it
	batches  [][]*core.Capture
	truth    [][]core.Context // dropped once every body is verified
	bodies   [][]byte
	minEpoch []uint32
	maxEpoch uint32
	refs     [][]byte // verified response of each body
	verified []bool
}

// newCorpus cuts samples (in stream order) into full batches; a partial
// last batch is dropped.
func newCorpus(tenant string, p *prog.Program, samples []machine.Sample) (*corpus, error) {
	nb := len(samples) / batchSize
	if nb == 0 {
		return nil, fmt.Errorf("corpus: %d samples, fewer than one %d-capture batch", len(samples), batchSize)
	}
	c := &corpus{tenant: tenant, refs: make([][]byte, nb), verified: make([]bool, nb)}
	for _, f := range p.Funcs {
		c.names = append(c.names, f.Name)
	}
	for b := 0; b < nb; b++ {
		batch := make([]*core.Capture, batchSize)
		truth := make([]core.Context, batchSize)
		lo := uint32(1<<32 - 1)
		for j, s := range samples[b*batchSize : (b+1)*batchSize] {
			cp, ok := s.Capture.(*core.Capture)
			if !ok {
				return nil, fmt.Errorf("corpus: sample %d has no DACCE capture", b*batchSize+j)
			}
			batch[j] = cp
			truth[j] = core.ShadowContext(nil, s.Shadow)
			lo = min(lo, cp.Epoch)
			c.maxEpoch = max(c.maxEpoch, cp.Epoch)
		}
		body, err := json.Marshal(server.DecodeRequest{Tenant: tenant, Captures: batch})
		if err != nil {
			return nil, err
		}
		c.batches = append(c.batches, batch)
		c.truth = append(c.truth, truth)
		c.bodies = append(c.bodies, body)
		c.minEpoch = append(c.minEpoch, lo)
	}
	return c, nil
}

func (c *corpus) captures() int { return len(c.bodies) * batchSize }

// check validates the response to body b. The first response is
// decoded and compared frame by frame with the shadow stacks (sites,
// functions and names); it becomes the reference every later response
// must equal byte for byte.
func (c *corpus) check(b int, resp []byte) error {
	if c.verified[b] {
		if !bytes.Equal(resp, c.refs[b]) {
			return fmt.Errorf("batch %d: response differs from its verified reference", b)
		}
		return nil
	}
	var dr server.DecodeResponse
	if err := json.Unmarshal(resp, &dr); err != nil {
		return fmt.Errorf("batch %d: %v", b, err)
	}
	if len(dr.Results) != batchSize {
		return fmt.Errorf("batch %d: %d results for %d captures", b, len(dr.Results), batchSize)
	}
	for i, r := range dr.Results {
		want := c.truth[b][i]
		if r.Error != "" || len(r.Frames) != len(want) {
			return fmt.Errorf("batch %d capture %d: error %q, %d frames, want %d", b, i, r.Error, len(r.Frames), len(want))
		}
		for k, f := range r.Frames {
			if f.Site != want[k].Site || f.Fn != want[k].Fn || int(f.Fn) >= len(c.names) || f.Name != c.names[f.Fn] {
				return fmt.Errorf("batch %d capture %d frame %d: got %+v, want %+v", b, i, k, f, want[k])
			}
		}
	}
	c.refs[b] = append([]byte(nil), resp...)
	c.verified[b] = true
	return nil
}

// dropTruth releases the shadow stacks once every body is verified, so
// the runner's retention stays out of the measured peak.
func (c *corpus) dropTruth() error {
	for b, ok := range c.verified {
		if !ok {
			return fmt.Errorf("batch %d never verified", b)
		}
	}
	c.truth = nil
	return nil
}

// loopback serves a handler on a 127.0.0.1 listener inside the process.
type loopback struct {
	url  string
	hs   *http.Server
	done chan error
}

func listen(h http.Handler) (*loopback, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{url: "http://" + l.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { lb.done <- lb.hs.Serve(l) }()
	return lb, nil
}

// close stops the server and waits for its accept loop to return.
func (l *loopback) close() {
	_ = l.hs.Close()
	<-l.done
}

// client is one closed-loop connection: a private transport keeps one
// keep-alive connection per server.
type client struct {
	tr  *http.Transport
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends body to url and returns the status and the response bytes
// (valid until the next post).
func (c *client) post(url string, batch int, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Batch", strconv.Itoa(batch))
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

// retire sends POST /v1/retire for epochs ≤ epoch.
func (c *client) retire(base, tenant string, epoch uint32) error {
	status, body, err := c.post(fmt.Sprintf("%s/v1/retire?tenant=%s&epoch=%d", base, tenant, epoch), -1, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("retire: status %d: %s", status, body)
	}
	return err
}

// tenantStats fetches the tenant's /v1/stats entry.
func (c *client) tenantStats(base, tenant string) (server.TenantStats, error) {
	resp, err := c.hc.Get(base + "/v1/stats")
	if err != nil {
		return server.TenantStats{}, err
	}
	defer resp.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return server.TenantStats{}, err
	}
	for _, t := range st.Tenants {
		if t.Name == tenant {
			return t, nil
		}
	}
	return server.TenantStats{}, fmt.Errorf("stats: no tenant %q", tenant)
}

// echoHandler is the transport baseline: it reads the request body and
// answers with the verified response of the same batch, so an echo
// request moves exactly the bytes a decode request moves and does none
// of dacced's work.
func echoHandler(c *corpus) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := strconv.Atoi(r.Header.Get("X-Batch"))
		if _, cerr := io.Copy(io.Discard, r.Body); err != nil || cerr != nil || b < 0 || b >= len(c.refs) {
			http.Error(w, "bad echo request", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(c.refs[b])
	})
}

// serveBench is one serve workload: a dacced tenant on a loopback
// listener, an echo listener, and the closed-loop clients.
type serveBench struct {
	cfg     config
	corpus  *corpus
	snap    []byte
	srv     *server.Server
	dacced  *loopback
	echo    *loopback
	clients []*client

	// Churn stream state: the next batch, the highest epoch retired in
	// the current pass over the stream (-1: none), and completed passes.
	mu      sync.Mutex
	cursor  int
	retired int64
	passes  int
	rngs    []*rand.Rand
	reqID   atomic.Int64
}

// newServeBench generates the corpus and the snapshot from seeded
// single-threaded runs (untimed): a cold run, whose capture stream is
// serve-churn's corpus, then a warm run on the same encoder, whose
// captures are serve-hot's. The snapshot is exported after both, so it
// decodes either stream.
func newServeBench(cfg config) (*serveBench, error) {
	w, err := buildWorkload(cfg.Spec, corpusCalls)
	if err != nil {
		return nil, err
	}
	seed := machineSeeds(w, cfg.Seed, 1)[0]
	d := core.New(w.P, core.Options{})
	cold, err := w.NewMachine(d, sampledConfig(seed, !cfg.Spec.Warm)).Run()
	if err != nil {
		return nil, err
	}
	warm, err := w.NewMachine(d, sampledConfig(seed, cfg.Spec.Warm)).Run()
	if err != nil {
		return nil, err
	}
	snap, err := persist.Marshal(d.ExportState())
	if err != nil {
		return nil, err
	}
	stream := cold.Samples
	if cfg.Spec.Warm {
		stream = warm.Samples
	}
	c, err := newCorpus(tenantName(cfg.Spec.Bench), w.P, stream)
	if err != nil {
		return nil, err
	}
	s := &serveBench{cfg: cfg, corpus: c, snap: snap, retired: -1}
	for i := 0; i < connections; i++ {
		s.clients = append(s.clients, newClient())
		s.rngs = append(s.rngs, rand.New(rand.NewPCG(cfg.Seed, uint64(i))))
	}
	return s, nil
}

func tenantName(bench string) string { return "bench-" + bench }

func (s *serveBench) close() {
	for _, c := range s.clients {
		c.close()
	}
	if s.dacced != nil {
		s.dacced.close()
	}
	if s.echo != nil {
		s.echo.close()
	}
}

// next picks the batch a connection sends next and, on serve-churn, the
// epoch to retire first (-1 for none). serve-hot draws batches uniformly
// from the warm corpus. serve-churn walks the cold stream in epoch
// order: when the stream leaves an epoch it is retired, and when the
// stream runs out it starts over after retiring everything left.
func (s *serveBench) next(conn int) (int, int64) {
	if s.cfg.Spec.Warm {
		return s.rngs[conn].IntN(len(s.corpus.bodies)), -1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.cursor
	s.cursor = (s.cursor + 1) % len(s.corpus.bodies)
	retire := int64(-1)
	if b == 0 {
		if s.passes > 0 {
			retire = int64(s.corpus.maxEpoch)
		}
		s.passes++
		s.retired = -1
	} else if e := int64(s.corpus.minEpoch[b]) - 1; e > s.retired {
		retire = e
		s.retired = e
	}
	return b, retire
}

// loadOut is one closed-loop segment's outcome.
type loadOut struct {
	lat       []float64 // µs per decode (or echo) request
	retireMs  []float64
	captures  int64
	wall      time.Duration
	attempted int64
	failed    int64
	rejected  int64
	errs      []string
}

func (o *loadOut) merge(p *loadOut) {
	o.lat = append(o.lat, p.lat...)
	o.retireMs = append(o.retireMs, p.retireMs...)
	o.captures += p.captures
	o.attempted += p.attempted
	o.failed += p.failed
	o.rejected += p.rejected
	if len(o.errs) < 5 {
		o.errs = append(o.errs, p.errs...)
	}
}

// load runs the closed loop — each connection sends its next request
// only after the previous response arrived — against base for dur.
// echo targets the echo listener instead of dacced. recs, when
// non-nil, holds one span recorder per connection.
func (s *serveBench) load(dur time.Duration, echo bool, recs []*recorder) *loadOut {
	url := s.dacced.url + "/v1/decode"
	if echo {
		url = s.echo.url + "/echo"
	}
	outs := make([]*loadOut, connections)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < connections; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &loadOut{}
			outs[i] = o
			cl := s.clients[i]
			var rec *recorder
			if recs != nil {
				rec = recs[i]
			}
			fail := func(err error) {
				o.failed++
				if len(o.errs) < 5 {
					o.errs = append(o.errs, err.Error())
				}
			}
			for time.Now().Before(deadline) {
				var b int
				retire := int64(-1)
				if echo {
					b = s.rngs[i].IntN(len(s.corpus.bodies))
				} else {
					b, retire = s.next(i)
				}
				if retire >= 0 {
					if rec != nil {
						rec.req = s.reqID.Add(1)
						rec.begin(spanRetire)
					}
					t0 := time.Now()
					err := cl.retire(s.dacced.url, s.corpus.tenant, uint32(retire))
					o.retireMs = append(o.retireMs, float64(time.Since(t0).Nanoseconds())/1e6)
					if rec != nil {
						rec.end()
					}
					o.attempted++
					if err != nil {
						fail(err)
					}
				}
				if rec != nil {
					rec.req = s.reqID.Add(1)
					rec.begin(spanRoundtrip)
				}
				t0 := time.Now()
				status, resp, err := cl.post(url, b, s.corpus.bodies[b])
				lat := time.Since(t0)
				if rec != nil {
					rec.end()
				}
				o.attempted++
				switch {
				case err != nil:
					fail(err)
				case status == http.StatusTooManyRequests:
					o.rejected++
					fail(fmt.Errorf("batch %d: 429", b))
				case status != http.StatusOK:
					fail(fmt.Errorf("batch %d: status %d", b, status))
				default:
					if err := s.corpus.check(b, resp); err != nil {
						fail(err)
						continue
					}
					o.lat = append(o.lat, float64(lat.Nanoseconds())/1e3)
					o.captures += batchSize
				}
			}
		}(i)
	}
	wg.Wait()
	out := &loadOut{wall: time.Since(start)}
	for _, o := range outs {
		out.merge(o)
	}
	return out
}

// measureServe runs a serve-* workload: cycles of closed-loop load on
// dacced, each bracketed by short echo segments (slowdown's transport
// baseline), with fresh tenant registrations (setup_s) timed between
// cycles. Traced, every other cycle spans its requests, and the run ends
// with the layer probes.
func measureServe(cfg config) (*result, *recorder, error) {
	s, err := newServeBench(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer s.close()
	res := newResult()
	var setupS []float64

	s.srv = server.New(server.Config{})
	t0 := time.Now()
	if _, err := s.srv.Register(s.corpus.tenant, s.snap); err != nil {
		return nil, nil, err
	}
	setupS = append(setupS, time.Since(t0).Seconds())
	if s.dacced, err = listen(s.srv.Handler()); err != nil {
		return nil, nil, err
	}
	if s.echo, err = listen(echoHandler(s.corpus)); err != nil {
		return nil, nil, err
	}

	// Verification pass over the whole stream, in order, on one
	// connection: every body's first response is checked against the
	// shadow stacks. On serve-hot it also warms the memo with the whole
	// corpus; on serve-churn everything is retired afterwards so the
	// measured stream starts from an empty memo.
	if err := verifyBodies(res, s.corpus, s.clients[0], s.dacced.url); err != nil {
		return nil, nil, err
	}
	if !cfg.Spec.Warm {
		if err := s.clients[0].retire(s.dacced.url, s.corpus.tenant, s.corpus.maxEpoch); err != nil {
			return nil, nil, err
		}
	}
	var probeBatches [][]*core.Capture
	if cfg.Trace {
		probeBatches = s.corpus.batches
	}
	s.corpus.batches = nil
	if err := s.corpus.dropTruth(); err != nil {
		return nil, nil, err
	}
	debug.FreeOSMemory()
	peakReset := resetPeakRSS()

	// The measured time is split into cycles of closed-loop load on
	// dacced, each bracketed by short echo segments (slowdown's
	// baseline); a fresh tenant registration (setup_s) is timed between
	// every registerEvery-th cycle, outside the measured time.
	const cycles, registerEvery = 40, 5
	measured := time.Duration(cfg.Seconds * float64(time.Second))
	segDur := measured * 9 / 10 / cycles
	echoDur := measured / 10 / (cycles + 1)
	var rec *recorder
	var traced, untraced []float64
	if cfg.Trace {
		rec = newRecorder(time.Now(), spanLimit)
	}

	all := &loadOut{}
	var wall time.Duration
	var ratio, echoMeds []float64
	prevEcho, err := s.echoMedian(echoDur, res)
	if err != nil {
		return nil, nil, err
	}
	for k := 0; k < cycles; k++ {
		if k%registerEvery == 0 {
			sec, err := s.registerProbe()
			if err != nil {
				return nil, nil, err
			}
			setupS = append(setupS, sec)
		}
		var recs []*recorder
		if rec != nil && k%2 == 0 {
			for i := 0; i < connections; i++ {
				recs = append(recs, newRecorder(rec.origin, spanLimit/connections))
			}
		}
		o := s.load(segDur, false, recs)
		for _, r := range recs {
			rec.merge(r)
		}
		if recs != nil {
			traced = append(traced, o.lat...)
		} else {
			untraced = append(untraced, o.lat...)
		}
		all.merge(o)
		wall += o.wall
		echoMed, err := s.echoMedian(echoDur, res)
		if err != nil {
			return nil, nil, err
		}
		if len(o.lat) > 0 {
			ratio = append(ratio, median(o.lat)/((prevEcho+echoMed)/2))
		}
		echoMeds = append(echoMeds, echoMed)
		prevEcho = echoMed
	}
	res.Attempted += all.attempted
	res.Failed += all.failed
	for _, e := range all.errs {
		res.notef("failure: %s", e)
	}
	res.Rounds = cycles
	if !peakReset {
		res.notef("rss_mb covers the whole process: the peak counter could not be reset")
	}
	if len(all.lat) == 0 {
		return nil, nil, errors.New("no decode request succeeded")
	}
	st, err := s.clients[0].tenantStats(s.dacced.url, s.corpus.tenant)
	if err != nil {
		return nil, nil, err
	}
	if !cfg.Trace {
		res.set("slowdown", median(ratio), len(ratio))
		res.set("decode_per_s", float64(all.captures)/wall.Seconds(), int(all.captures))
		res.set("req_p50_us", quantile(all.lat, 0.5), len(all.lat))
		res.set("req_p90_us", quantile(all.lat, 0.9), len(all.lat))
		res.set("setup_s", median(setupS), len(setupS))
		res.set("rss_mb", peakRSSMB(), 1)
		res.notef("echo median %.1f us, decode median %.1f us", median(echoMeds), median(all.lat))
		res.notef("tenant: memo hits %d misses %d, dag hit rate %.3f, collected %d, rejected %d, retires %d",
			st.MemoHits, st.MemoMisses, st.DAGHitRate, st.DAGCollected, st.Rejected, len(all.retireMs))
		return res, nil, nil
	}

	// Traced run: price the encoder on the corpus's program (a few
	// bracketed rounds of one call sequence at the encode workloads'
	// round size, warm or cold as the corpus), the set-up layers on the
	// snapshot, then each dacced layer on the same request bodies.
	w, err := buildWorkload(cfg.Spec, roundCalls)
	if err != nil {
		return nil, nil, err
	}
	eb, err := newEncodeBench(w, cfg.Spec.Warm, machineSeeds(w, cfg.Seed, 1))
	if err != nil {
		return nil, nil, err
	}
	eres := newResult()
	erec := newRecorder(rec.origin, spanLimit/4)
	acc, err := eb.runRounds(eres, erec, time.Now(), 3)
	if err != nil {
		return nil, nil, err
	}
	acc.perLayer(eres, eb, false)
	for k, v := range eres.Values {
		res.set(k, v, eres.Samples[k])
	}
	res.Attempted += eres.Attempted
	res.Failed += eres.Failed
	res.Notes = append(res.Notes, eres.Notes...)
	res.Counts = eb.counts()
	if err := probeSetup(res, rec, w.P, s.snap); err != nil {
		return nil, nil, err
	}
	s.corpus.batches = probeBatches
	onPath := pathStats{
		traced: traced, untraced: untraced, retireMs: all.retireMs, rejected: all.rejected,
	}
	if cfg.Spec.Warm {
		// serve-hot never retires: price one retirement on a probe tenant.
		ms, err := retireProbe(s.corpus, s.snap)
		if err != nil {
			return nil, nil, err
		}
		onPath.retireMs = []float64{ms}
	} else {
		// Replay the handler over the stream from its start, retiring as
		// the load did.
		s.cursor, s.retired, s.passes = 0, -1, 1
		onPath.retire = func(int) error {
			if _, e := s.next(0); e >= 0 {
				_, err := s.srv.RetireEpoch(s.corpus.tenant, uint32(e))
				return err
			}
			return nil
		}
	}
	if err := serveLayers(res, rec, s.srv.Handler(), s.snap, s.corpus, st, &onPath); err != nil {
		return nil, nil, err
	}
	rec.merge(erec)
	return res, rec, nil
}

// verifyBodies sends every body once, in stream order, and verifies each
// response against the shadow stacks.
func verifyBodies(res *result, c *corpus, cl *client, base string) error {
	for b, body := range c.bodies {
		status, resp, err := cl.post(base+"/v1/decode", b, body)
		res.Attempted++
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			res.Failed++
			res.notef("verification: batch %d: status %d", b, status)
			continue
		}
		if err := c.check(b, resp); err != nil {
			res.Failed++
			res.notef("verification: %v", err)
		}
	}
	return nil
}

// echoMedian runs one echo segment and returns its median latency.
func (s *serveBench) echoMedian(dur time.Duration, res *result) (float64, error) {
	o := s.load(dur, true, nil)
	res.Attempted += o.attempted
	res.Failed += o.failed
	if len(o.lat) == 0 {
		return 0, fmt.Errorf("echo segment: no request succeeded: %v", o.errs)
	}
	return median(o.lat), nil
}

// registerProbe times one fresh tenant registration on a throwaway
// server: the set-up a dacced user waits for before the first decode.
func (s *serveBench) registerProbe() (float64, error) {
	scratch := server.New(server.Config{})
	t0 := time.Now()
	_, err := scratch.Register(s.corpus.tenant, s.snap)
	sec := time.Since(t0).Seconds()
	runtime.GC() // drop the scratch tenant before the next load cycle
	return sec, err
}

// retireProbe prices POST /v1/retire on a probe tenant that has decoded
// the corpus once: the retirement cost of a workload whose path has none.
func retireProbe(c *corpus, snap []byte) (float64, error) {
	srv := server.New(server.Config{})
	if _, err := srv.Register(c.tenant, snap); err != nil {
		return 0, err
	}
	lb, err := listen(srv.Handler())
	if err != nil {
		return 0, err
	}
	defer lb.close()
	cl := newClient()
	defer cl.close()
	for b, body := range c.bodies {
		if _, _, err := cl.post(lb.url+"/v1/decode", b, body); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	err = cl.retire(lb.url, c.tenant, c.maxEpoch)
	return float64(time.Since(t0).Nanoseconds()) / 1e6, err
}

// serveProbeInput is an encode workload's own captures and exported
// state, which its traced run pushes through dacced's layers.
type serveProbeInput struct {
	snap   []byte
	corpus *corpus
}

func newServeProbeInput(bench string, p *prog.Program, d *core.DACCE, samples []machine.Sample) (*serveProbeInput, error) {
	snap, err := persist.Marshal(d.ExportState())
	if err != nil {
		return nil, err
	}
	c, err := newCorpus(tenantName(bench), p, samples)
	if err != nil {
		return nil, err
	}
	return &serveProbeInput{snap: snap, corpus: c}, nil
}

// run registers the snapshot on a probe dacced, verifies every body,
// spans one more loopback pass, prices a retirement, and replays the
// layers.
func (in *serveProbeInput) run(res *result, rec *recorder) error {
	srv := server.New(server.Config{})
	if _, err := srv.Register(in.corpus.tenant, in.snap); err != nil {
		return err
	}
	lb, err := listen(srv.Handler())
	if err != nil {
		return err
	}
	defer lb.close()
	cl := newClient()
	defer cl.close()
	if err := verifyBodies(res, in.corpus, cl, lb.url); err != nil {
		return err
	}
	var rt []float64
	for b, body := range in.corpus.bodies {
		rec.req++
		rec.begin(spanRoundtrip)
		status, resp, err := cl.post(lb.url+"/v1/decode", b, body)
		rt = append(rt, float64(rec.end())/1e3)
		res.Attempted++
		if err != nil || status != http.StatusOK || in.corpus.check(b, resp) != nil {
			res.Failed++
		}
	}
	st, err := cl.tenantStats(lb.url, in.corpus.tenant)
	if err != nil {
		return err
	}
	rec.begin(spanRetire)
	err = cl.retire(lb.url, in.corpus.tenant, in.corpus.maxEpoch)
	retire := float64(rec.end()) / 1e6
	if err != nil {
		return err
	}
	if err := in.corpus.dropTruth(); err != nil {
		return err
	}
	res.set("server.roundtrip_us", median(rt), len(rt))
	res.set("server.retire_ms", retire, 1)
	res.set("server.rejected", float64(st.Rejected), 1)
	return serveLayers(res, rec, srv.Handler(), in.snap, in.corpus, st, nil)
}

// pathStats carries what a serve workload's own traced load measured.
type pathStats struct {
	traced, untraced []float64 // request latencies with and without client spans (µs)
	retireMs         []float64
	rejected         int64
	// retire, when set, runs before the handler replay of batch b, so the
	// replay sees the memo the load saw (serve-churn's retirement cadence).
	retire func(b int) error
}

// serveLayers replays each dacced layer's public function on the
// corpus's request bodies, spanning every call: request JSON decode,
// the decode walk on a warm DAG, the profiler, node materialization and
// frame build, response JSON encode, and the whole handler through
// httptest.NewRecorder. On a serve workload (path != nil) it also
// splits the loopback round trip into those layers; the handler time
// no replayed layer covers is the unattributed remainder.
func serveLayers(res *result, rec *recorder, h http.Handler, snap []byte, c *corpus, st server.TenantStats, path *pathStats) error {
	es, err := persist.Unmarshal(snap)
	if err != nil {
		return err
	}
	dec, err := es.NewDecoder()
	if err != nil {
		return err
	}
	dag := ccdag.New()
	prof := ccprof.NewStreaming(dec.P)
	for _, batch := range c.batches {
		for _, cp := range batch {
			if _, err := dec.DecodeNode(dag, cp); err != nil {
				return err
			}
		}
	}
	// The whole handler first, on a freshly collected heap, so the
	// per-layer replay's garbage does not land in its time.
	runtime.GC()
	for b, body := range c.bodies {
		if path != nil && path.retire != nil {
			if err := path.retire(b); err != nil {
				return err
			}
		}
		rr := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/decode", bytes.NewReader(body))
		rec.req++
		rec.begin(spanHandler)
		h.ServeHTTP(rr, req)
		rec.end()
		if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), c.refs[b]) {
			return fmt.Errorf("handler replay of batch %d: status %d or response differs from the verified one", b, rr.Code)
		}
	}
	var reqBytes, respBytes int64
	var mctx core.Context
	for b, body := range c.bodies {
		rec.req++
		rec.begin(spanWireDecode)
		var req server.DecodeRequest
		err := json.Unmarshal(body, &req)
		rec.end()
		if err != nil {
			return err
		}
		resp := server.DecodeResponse{Tenant: c.tenant, Results: make([]server.DecodeResult, 0, len(req.Captures))}
		for _, cp := range req.Captures {
			rec.begin(spanDecode)
			n, err := dec.DecodeNode(dag, cp)
			rec.end()
			if err != nil {
				return err
			}
			rec.begin(spanObserve)
			prof.ObserveContextNode(0, n)
			rec.end()
			rec.begin(spanMaterial)
			mctx = core.AppendNodeContext(mctx, n)
			frames := make([]server.Frame, 0, len(mctx))
			for _, f := range mctx {
				frames = append(frames, server.Frame{Site: f.Site, Fn: f.Fn, Name: dec.P.Funcs[f.Fn].Name})
			}
			rec.end()
			resp.Results = append(resp.Results, server.DecodeResult{Frames: frames})
		}
		rec.begin(spanWireEncode)
		_, err = json.Marshal(&resp)
		rec.end()
		if err != nil {
			return err
		}
		reqBytes += int64(len(body))
		respBytes += int64(len(c.refs[b]))
	}
	nc := float64(c.captures())
	nr := float64(len(c.bodies))
	per := func(name string, scale float64) float64 { return float64(rec.get(name).Total) / scale }
	res.set("core.decode_ns", per(spanDecode, nc), int(nc))
	res.set("core.materialize_ns", per(spanMaterial, nc), int(nc))
	res.set("server.wire_decode_ns", per(spanWireDecode, nc), int(nc))
	res.set("server.wire_encode_ns", per(spanWireEncode, nc), int(nc))
	res.set("server.req_bytes", float64(reqBytes)/nc, int(nc))
	res.set("server.resp_bytes", float64(respBytes)/nc, int(nc))
	res.set("server.handler_us", per(spanHandler, nr*1e3), int(nr))
	hits := float64(st.MemoHits) / float64(max(st.MemoHits+st.MemoMisses, 1))
	res.set("server.memo_hit_rate", hits, int(st.MemoHits+st.MemoMisses))
	if path == nil {
		return nil
	}

	// The workload's own path.
	obs := rec.get(spanObserve)
	res.set("ccprof.observe_ns", float64(obs.Total)/float64(max(obs.Count, 1)), int(obs.Count))
	res.set("ccdag.intern_hit_rate", st.DAGHitRate, 1)
	res.set("ccdag.collected", float64(st.DAGCollected), 1)
	res.set("server.rejected", float64(path.rejected), 1)
	res.set("server.retire_ms", median(path.retireMs), len(path.retireMs))
	rt := rec.get(spanRoundtrip)
	res.set("server.roundtrip_us", quantile(path.traced, 0.5), len(path.traced))
	overhead := quantile(path.traced, 0.5)/quantile(path.untraced, 0.5) - 1
	res.set("trace.overhead_frac", overhead, len(path.traced)+len(path.untraced))

	// Accounting: the traced round trips split into transport (round trip
	// minus handler) and the handler's replayed layers; a decode walk runs
	// only on memo misses.
	reqs := float64(rt.Count)
	total := float64(rt.Total)
	handler := per(spanHandler, nr)
	layer := map[string]float64{
		"http+socket":  total - reqs*handler,
		spanWireDecode: reqs * per(spanWireDecode, nr),
		spanDecode:     reqs * per(spanDecode, nr) * (1 - hits),
		spanObserve:    reqs * per(spanObserve, nr),
		spanMaterial:   reqs * per(spanMaterial, nr),
		spanWireEncode: reqs * per(spanWireEncode, nr),
	}
	attributed := 0.0
	for _, v := range layer {
		attributed += v
	}
	remainder := total - attributed
	res.set("trace.unattributed_frac", remainder/total, int(reqs))
	res.notef("layer accounting over %d traced requests (%.1f ms): %s", int(reqs), total/1e6, formatLayers(layer, remainder, total))
	res.notef("tracing overhead: traced requests are %.2f%% slower than untraced (median latency)", 100*overhead)
	return nil
}

// probeSetup spans the set-up layers on the workload's snapshot:
// persist.Unmarshal, core.Restore against the program, and
// EncoderState.NewDecoder, three times each; it reports medians.
func probeSetup(res *result, rec *recorder, p *prog.Program, snap []byte) error {
	var un, re, nd []float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		rec.begin(spanUnmarshal)
		st, err := persist.Unmarshal(snap)
		un = append(un, float64(rec.end())/1e6)
		if err != nil {
			return err
		}
		rec.begin(spanRestore)
		_, err = core.Restore(p, core.Options{}, st)
		re = append(re, float64(rec.end())/1e6)
		if err != nil {
			return err
		}
		rec.begin(spanNewDecoder)
		_, err = st.NewDecoder()
		nd = append(nd, float64(rec.end())/1e6)
		if err != nil {
			return err
		}
	}
	res.set("persist.unmarshal_ms", median(un), len(un))
	res.set("core.restore_ms", median(re), len(re))
	res.set("core.new_decoder_ms", median(nd), len(nd))
	return nil
}
