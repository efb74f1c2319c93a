package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/persist"
	"dacce/internal/workload"
)

// serveFixture is a warmed encoder, its snapshot registered on a test
// server, plus the retained samples for decode comparison.
type serveFixture struct {
	d        *core.DACCE
	captures []*core.Capture
	snap     []byte
	hash     string
	srv      *Server
	ts       *httptest.Server
}

func newServeFixture(t testing.TB, cfg Config, totalCalls, sampleEvery int64) *serveFixture {
	t.Helper()
	w, err := workload.Build(workload.Profile{
		Name:          "serve",
		Seed:          0x5E12E,
		ExecFuncs:     64,
		ExecEdges:     150,
		Layers:        8,
		IndirectSites: 3,
		ActualTargets: 3,
		RecSites:      2,
		RecProb:       0.3,
		RecStartProb:  0.05,
		Threads:       2,
		TotalCalls:    totalCalls,
		Phases:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := core.New(w.P, core.Options{})
	m := w.NewMachine(d, machine.Config{SampleEvery: sampleEvery})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	f := &serveFixture{d: d}
	for _, s := range rs.Samples {
		f.captures = append(f.captures, s.Capture.(*core.Capture))
	}
	f.snap, err = persist.Marshal(d.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	f.srv = New(cfg)
	f.hash, err = f.srv.Register("serve", f.snap)
	if err != nil {
		t.Fatal(err)
	}
	f.ts = httptest.NewServer(f.srv.Handler())
	t.Cleanup(f.ts.Close)
	return f
}

func (f *serveFixture) decode(t *testing.T, tenant string, caps []*core.Capture) (*http.Response, *DecodeResponse) {
	t.Helper()
	body, err := json.Marshal(DecodeRequest{Tenant: tenant, Captures: caps})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.ts.URL+"/v1/decode", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var dr DecodeResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	return resp, &dr
}

// TestRemoteDecodeMatchesInProcess is the acceptance gate: a dacced
// round trip over ≥10k captured contexts spanning at least two distinct
// epochs decodes every capture to exactly the frames the in-process
// encoder produces.
func TestRemoteDecodeMatchesInProcess(t *testing.T) {
	f := newServeFixture(t, Config{}, 150_000, 13)
	if len(f.captures) < 10_000 {
		t.Fatalf("workload retained %d captures, want ≥ 10000", len(f.captures))
	}
	epochs := map[uint32]bool{}
	for _, c := range f.captures {
		epochs[c.Epoch] = true
	}
	if len(epochs) < 2 {
		t.Fatalf("captures span %d epoch(s), want ≥ 2", len(epochs))
	}

	const batch = 512
	checked := 0
	for lo := 0; lo < len(f.captures); lo += batch {
		hi := min(lo+batch, len(f.captures))
		resp, dr := f.decode(t, "serve", f.captures[lo:hi])
		if dr == nil {
			t.Fatalf("batch %d: HTTP %d", lo/batch, resp.StatusCode)
		}
		if dr.Hash != f.hash {
			t.Fatalf("response hash %s, registered %s", dr.Hash, f.hash)
		}
		if len(dr.Results) != hi-lo {
			t.Fatalf("batch %d: %d results for %d captures", lo/batch, len(dr.Results), hi-lo)
		}
		for i, res := range dr.Results {
			c := f.captures[lo+i]
			want, err := f.d.Decode(c)
			if err != nil {
				t.Fatalf("capture %d: in-process decode: %v", lo+i, err)
			}
			if res.Error != "" {
				t.Fatalf("capture %d (epoch %d): remote error %q", lo+i, c.Epoch, res.Error)
			}
			if len(res.Frames) != len(want) {
				t.Fatalf("capture %d (epoch %d): remote %d frames, local %d", lo+i, c.Epoch, len(res.Frames), len(want))
			}
			for j, fr := range res.Frames {
				if fr.Site != want[j].Site || fr.Fn != want[j].Fn {
					t.Fatalf("capture %d frame %d: remote (s%d,f%d), local (s%d,f%d)",
						lo+i, j, fr.Site, fr.Fn, want[j].Site, want[j].Fn)
				}
			}
			checked++
		}
	}
	if checked < 10_000 {
		t.Fatalf("checked only %d captures", checked)
	}
}

// TestDecodeMemoAndDAG verifies the node-decode plumbing behind
// /v1/decode: repeated batches hit the per-tenant memo instead of
// re-walking the snapshot, results stay identical, and the DAG/memo
// health shows up in /v1/stats and on /metrics and /debug/vars.
func TestDecodeMemoAndDAG(t *testing.T) {
	f := newServeFixture(t, Config{}, 30_000, 29)
	caps := f.captures
	if len(caps) > 512 {
		caps = caps[:512]
	}
	memoable := 0
	for _, c := range caps {
		if memoizable(c) {
			memoable++
		}
	}
	if memoable == 0 {
		t.Fatal("fixture produced no memoizable captures")
	}

	_, first := f.decode(t, "serve", caps)
	_, second := f.decode(t, "serve", caps)
	if first == nil || second == nil {
		t.Fatal("decode batches failed")
	}
	for i := range first.Results {
		if fmt.Sprint(first.Results[i]) != fmt.Sprint(second.Results[i]) {
			t.Fatalf("capture %d decoded differently on the memoized pass", i)
		}
	}

	tn := f.srv.resolve("serve")
	hits, misses := tn.memoHits.Load(), tn.memoMisses.Load()
	// The second pass resolves every memoizable capture from the memo;
	// the first pass may already have hit on duplicate captures.
	if hits < int64(memoable) {
		t.Fatalf("memo hits = %d, want ≥ %d (memoizable per batch)", hits, memoable)
	}
	if misses == 0 || misses > int64(memoable) {
		t.Fatalf("memo misses = %d, want in [1, %d]", misses, memoable)
	}
	if n := tn.dag.Len(); n == 0 {
		t.Fatal("tenant DAG is empty after decodes")
	}

	// Stats surface the DAG and memo fields.
	resp, err := http.Get(f.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Tenants) != 1 {
		t.Fatalf("stats lists %d tenants", len(st.Tenants))
	}
	ts := st.Tenants[0]
	if ts.DAGNodes == 0 || ts.DAGBytesEst == 0 {
		t.Fatalf("stats missing DAG health: %+v", ts)
	}
	if ts.MemoHits != hits || ts.MemoMisses != misses {
		t.Fatalf("stats memo hits/misses %d/%d, tenant counters %d/%d",
			ts.MemoHits, ts.MemoMisses, hits, misses)
	}

	// The scrape-time gauges appear on /metrics and /debug/vars.
	for _, path := range []string{"/metrics", "/debug/vars"} {
		resp, err := http.Get(f.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, metric := range []string{"dacced_dag_nodes", "dacced_memo_hits"} {
			if !strings.Contains(string(body), metric) {
				t.Fatalf("%s missing %s:\n%s", path, metric, body)
			}
		}
	}
}

// TestBackpressure verifies the bounded queue: with one slot held and
// the one queue position taken, the next request is rejected with 429
// and a Retry-After header, and the queued request completes once the
// slot frees.
func TestBackpressure(t *testing.T) {
	f := newServeFixture(t, Config{MaxConcurrent: 1, QueueDepth: 1}, 30_000, 29)
	tn := f.srv.resolve("serve")
	if tn == nil {
		t.Fatal("tenant not registered")
	}
	// Occupy the only slot from outside, as an in-flight request would.
	tn.slots <- struct{}{}

	queued := make(chan *http.Response, 1)
	go func() {
		resp, _ := f.decode(t, "serve", f.captures[:1])
		queued <- resp
	}()
	deadline := time.Now().Add(5 * time.Second)
	for tn.queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, _ := f.decode(t, "serve", f.captures[:1])
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full request got HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}

	<-tn.slots // free the slot; the queued request proceeds
	if resp := <-queued; resp.StatusCode != http.StatusOK {
		t.Fatalf("queued request got HTTP %d after slot freed, want 200", resp.StatusCode)
	}
	if tn.rejected.Load() != 1 {
		t.Fatalf("tenant counted %d rejections, want 1", tn.rejected.Load())
	}
}

// TestConcurrentDecodes hammers one tenant from many goroutines; every
// response must be a well-formed 200 or 429, and the decoded results
// must match the in-process decode (run with -race in CI).
func TestConcurrentDecodes(t *testing.T) {
	f := newServeFixture(t, Config{MaxConcurrent: 2, QueueDepth: 4}, 30_000, 29)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			caps := f.captures[g*16%len(f.captures):]
			if len(caps) > 64 {
				caps = caps[:64]
			}
			body, _ := json.Marshal(DecodeRequest{Tenant: "serve", Captures: caps})
			resp, err := http.Post(f.ts.URL+"/v1/decode", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				errs <- fmt.Errorf("goroutine %d: HTTP %d", g, resp.StatusCode)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	f := newServeFixture(t, Config{}, 30_000, 29)

	// Download must return the registered bytes verbatim.
	resp, err := http.Get(f.ts.URL + "/v1/snapshot?tenant=serve")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET snapshot: HTTP %d, err %v", resp.StatusCode, err)
	}
	if !bytes.Equal(data, f.snap) {
		t.Fatal("downloaded snapshot differs from registered bytes")
	}
	if got := resp.Header.Get("X-Dacce-State-Hash"); got != f.hash {
		t.Fatalf("snapshot hash header %q, want %q", got, f.hash)
	}

	// Upload under a new name; the tenant must appear and serve decodes.
	resp, err = http.Post(f.ts.URL+"/v1/snapshot?tenant=other", "application/octet-stream", bytes.NewReader(f.snap))
	if err != nil {
		t.Fatal(err)
	}
	var info SnapshotInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || info.Hash != f.hash || info.Epochs < 2 {
		t.Fatalf("POST snapshot: HTTP %d, info %+v", resp.StatusCode, info)
	}
	if r2, dr := f.decode(t, "other@"+f.hash, f.captures[:8]); dr == nil {
		t.Fatalf("decode against uploaded tenant: HTTP %d", r2.StatusCode)
	}

	// Corrupt upload must be rejected.
	bad := bytes.Clone(f.snap)
	bad[len(bad)/2] ^= 0xFF
	resp, err = http.Post(f.ts.URL+"/v1/snapshot?tenant=corrupt", "application/octet-stream", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt snapshot upload: HTTP %d, want 400", resp.StatusCode)
	}
}

func TestStatsHealthzMetrics(t *testing.T) {
	f := newServeFixture(t, Config{}, 30_000, 29)
	if _, dr := f.decode(t, "serve", f.captures[:32]); dr == nil {
		t.Fatal("warmup decode failed")
	}

	resp, err := http.Get(f.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status  string `json:"status"`
		Tenants int    `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "ok" || hz.Tenants != 1 {
		t.Fatalf("healthz: %+v", hz)
	}

	resp, err = http.Get(f.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Tenants) != 1 {
		t.Fatalf("stats lists %d tenants, want 1", len(st.Tenants))
	}
	ts := st.Tenants[0]
	if ts.Name != "serve" || ts.Hash != f.hash || ts.Decoded != 32 || ts.Requests != 1 || ts.Epochs < 2 {
		t.Fatalf("tenant stats: %+v", ts)
	}
	if st.Build.Version == "" || st.Build.GoVersion == "" {
		t.Fatalf("stats carries no build info: %+v", st.Build)
	}

	resp, err = http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dacced_requests_total", "dacced_decode_latency_us", "dacced_contexts_decoded_total", "dacced_queue_depth"} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("/metrics output lacks %s", want)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	f := newServeFixture(t, Config{}, 30_000, 29)

	if resp, _ := f.decode(t, "nosuch", f.captures[:1]); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant: HTTP %d, want 404", resp.StatusCode)
	}

	resp, err := http.Post(f.ts.URL+"/v1/decode", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: HTTP %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(f.ts.URL + "/v1/decode")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET decode: HTTP %d, want 405", resp.StatusCode)
	}

	// A capture with an out-of-range function must produce a per-capture
	// error, not a failed request.
	badCap := &core.Capture{Fn: 1 << 20, Root: 0}
	if _, dr := f.decode(t, "serve", []*core.Capture{badCap, f.captures[0]}); dr == nil {
		t.Fatal("mixed batch failed outright")
	} else if dr.Results[0].Error == "" || dr.Results[1].Error != "" {
		t.Fatalf("mixed batch results: %+v", dr.Results)
	}
}

// TestSnapshotUploadRejectsGappedEpoch posts FuzzSnapshotLoad's
// gapped-epoch seed: a snapshot intact in framing and CRC whose epoch
// codes skip an edge. Loading it would decode captures against codes
// sitting on the wrong edges, so the upload must fail with 400 and
// register nothing.
func TestSnapshotUploadRejectsGappedEpoch(t *testing.T) {
	raw, err := os.ReadFile("../persist/testdata/fuzz/FuzzSnapshotLoad/gapped-epoch")
	if err != nil {
		t.Fatal(err)
	}
	header, lit, _ := strings.Cut(string(raw), "\n")
	lit = strings.TrimSpace(lit)
	if header != "go test fuzz v1" || !strings.HasPrefix(lit, "[]byte(") || !strings.HasSuffix(lit, ")") {
		t.Fatalf("unexpected corpus file layout:\n%s", raw)
	}
	blob, err := strconv.Unquote(lit[len("[]byte(") : len(lit)-1])
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/snapshot?tenant=gapped", "application/octet-stream", strings.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "codes must list edges") {
		t.Fatalf("gapped snapshot upload: HTTP %d %s, want 400 naming the gap", resp.StatusCode, msg)
	}
	resp, err = http.Get(ts.URL + "/v1/snapshot?tenant=gapped")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rejected tenant is downloadable: HTTP %d", resp.StatusCode)
	}
}
