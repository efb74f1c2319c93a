package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"dacce/internal/ccdag"
	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/persist"
	"dacce/internal/workload"
)

// maxEpochOf returns the highest capture epoch in caps.
func maxEpochOf(caps []*core.Capture) uint32 {
	var e uint32
	for _, c := range caps {
		e = max(e, c.Epoch)
	}
	return e
}

// TestCursorBatchAfterRetirement decodes a batch, retires every epoch,
// which sweeps every node the batch interned, and decodes the same
// batch again through the same wire buffer, never released in between.
// The second batch's nodes must be the canonical ones — a fresh Intern
// walk over each one's frames returns the same pointer — so the cursor
// must not carry the first batch's swept nodes across the retirement.
func TestCursorBatchAfterRetirement(t *testing.T) {
	f := newServeFixture(t, Config{}, 30_000, 29)
	tn := f.srv.resolve("serve")
	var batch []*core.Capture
	for _, c := range f.captures {
		if memoizable(c) && len(batch) < 512 {
			batch = append(batch, c)
		}
	}
	wb := new(wireBuf)
	f.srv.decodeBatch(tn, wb, batch, 0)
	if wb.cur.Reused() == 0 {
		t.Fatal("the batch reused no frame from its cursor")
	}
	if _, st := tn.retireEpoch(maxEpochOf(batch)); st.Freed == 0 {
		t.Fatalf("retirement freed nothing: %+v", st)
	}
	f.srv.decodeBatch(tn, wb, batch, 0)
	var key []byte
	for i, c := range batch {
		key = appendMemoKey(key[:0], c)
		n := tn.memo[c.Epoch][string(key)]
		if n == nil {
			t.Fatalf("capture %d: no memo entry after the second batch", i)
		}
		var fresh *ccdag.Node
		for _, fr := range core.NodeContext(n) {
			fresh = tn.dag.Intern(fresh, fr.Site, fr.Fn)
		}
		if fresh != n {
			t.Fatalf("capture %d: decoded node %d is not canonical (a fresh walk gives %d)", i, n.ID(), fresh.ID())
		}
	}
}

// TestRetireRacingDecodesKeepsProfile runs decode requests on several
// goroutines while another retires every epoch over and over. The
// profiler folds before a retirement takes the write lock, so nodes
// observed in between stay keyed until the next fold: no count may be
// lost (the profile's total equals the captures decoded), and once the
// decodes stop, a last retirement must still collect every node.
func TestRetireRacingDecodesKeepsProfile(t *testing.T) {
	f := newServeFixture(t, Config{}, 30_000, 29)
	tn := f.srv.resolve("serve")
	h := f.srv.Handler()
	maxEpoch := maxEpochOf(f.captures)
	var bodies [][]byte
	for lo := 0; lo < len(f.captures); lo += 128 {
		body, err := json.Marshal(DecodeRequest{Tenant: "serve", Captures: f.captures[lo:min(lo+128, len(f.captures))]})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	const workers, rounds = 3, 4
	var (
		decoders, retirer sync.WaitGroup
		stop              atomic.Bool
		retirements       atomic.Int64
	)
	retirer.Add(1)
	go func() {
		defer retirer.Done()
		for !stop.Load() {
			if _, err := f.srv.RetireEpoch("serve", maxEpoch); err != nil {
				t.Error(err)
				return
			}
			retirements.Add(1)
		}
	}()
	for w := range workers {
		decoders.Add(1)
		go func() {
			defer decoders.Done()
			for r := range rounds {
				for b := w; b < len(bodies); b += workers {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decode", bytes.NewReader(bodies[b])))
					if rec.Code != http.StatusOK {
						t.Errorf("worker %d round %d batch %d: HTTP %d", w, r, b, rec.Code)
						return
					}
				}
			}
		}()
	}
	decoders.Wait()
	stop.Store(true)
	retirer.Wait()
	if t.Failed() {
		return
	}
	want := int64(rounds * len(f.captures))
	if got := tn.decoded.Load(); got != want || tn.errors.Load() != 0 {
		t.Fatalf("decoded %d captures with %d errors, want %d and 0", got, tn.errors.Load(), want)
	}
	if total := tn.prof.Total(); total != want {
		t.Fatalf("profile total %d after %d racing retirements, want %d decodes", total, retirements.Load(), want)
	}
	if _, st := tn.retireEpoch(maxEpoch); tn.dag.Len() != 0 {
		t.Fatalf("%d nodes resident after retiring every epoch (%+v)", tn.dag.Len(), st)
	}
	if tn.dag.Collected() == 0 {
		t.Fatal("no retirement collected a node")
	}
	t.Logf("%d retirements raced %d decodes", retirements.Load(), want)
}

// TestWireBufCursorBounded: the decode cursor's buffers, the batch's
// node list and the render cursor count toward the footprint release
// checks against maxPooledBytes, and reset empties them all, leaving
// no node in the node list's or the render cursor's backing arrays.
func TestWireBufCursorBounded(t *testing.T) {
	f := newServeFixture(t, Config{}, 30_000, 29)
	tn := f.srv.resolve("serve")
	wb := new(wireBuf)
	for _, c := range f.captures[:64] {
		if _, err := tn.dec.DecodeNodeCursor(tn.dag, c, &wb.cur); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := wb.footprint(), wb.cur.Bytes(); want == 0 || got != want {
		t.Fatalf("footprint %d of a buffer holding only a cursor of %d bytes", got, want)
	}
	wb.reset()
	if _, err := tn.dec.DecodeNodeCursor(tn.dag, f.captures[63], &wb.cur); err != nil {
		t.Fatal(err)
	}
	if wb.cur.Reused() != 0 {
		t.Fatal("reset left the cursor's path in place")
	}

	wb = new(wireBuf)
	f.srv.decodeBatch(tn, wb, f.captures[:64], 0)
	batch := cap(wb.nodes)*int(unsafe.Sizeof(&ccdag.Node{})) + cap(wb.errs)*int(unsafe.Sizeof(error(nil))) +
		cap(wb.render.path)*int(unsafe.Sizeof(&ccdag.Node{})) + cap(wb.render.ends)*int(unsafe.Sizeof(0))
	if rest := wb.footprint() - wb.cur.Bytes() - cap(wb.out) - cap(wb.key); len(wb.render.path) == 0 || rest != batch {
		t.Fatalf("footprint counts %d bytes besides the decode cursor, key and response, want the %d the node list and render cursor hold", rest, batch)
	}
	wb.reset()
	if len(wb.nodes) != 0 || len(wb.render.path) != 0 {
		t.Fatal("reset left the batch's nodes in place")
	}
	for _, n := range slices.Concat(wb.nodes[:cap(wb.nodes)], wb.render.path[:cap(wb.render.path)]) {
		if n != nil {
			t.Fatal("a reset wire buffer still holds a decoded node")
		}
	}
}

// BenchmarkDecodeChurn replays serve-churn's write path in process: a
// cold 483.xalancbmk stream cut into 512-capture /v1/decode bodies,
// sent in stream order through Handler().ServeHTTP, with the epochs the
// stream has left retired before each batch and every epoch retired
// before each pass. One op is one pass over the stream; ns/capture is
// the op's time per capture, and shared-frames/frame as in
// BenchmarkDecodeHot.
func BenchmarkDecodeChurn(b *testing.B) {
	pr, ok := workload.ByName("483.xalancbmk")
	if !ok {
		b.Fatal("no 483.xalancbmk profile")
	}
	pr.Threads, pr.TotalCalls = 1, 300_000
	w, err := workload.Build(pr)
	if err != nil {
		b.Fatal(err)
	}
	d := core.New(w.P, core.Options{})
	rs, err := w.NewMachine(d, machine.Config{SampleEvery: 16}).Run()
	if err != nil {
		b.Fatal(err)
	}
	snap, err := persist.Marshal(d.ExportState())
	if err != nil {
		b.Fatal(err)
	}
	srv := New(Config{})
	if _, err := srv.Register("churn", snap); err != nil {
		b.Fatal(err)
	}
	const batch = 512
	var (
		bodies   [][]byte
		minEpoch []uint32
		maxEpoch uint32
		stream   []*core.Capture
	)
	for lo := 0; lo+batch <= len(rs.Samples); lo += batch {
		caps := make([]*core.Capture, batch)
		lowest := ^uint32(0)
		for i, s := range rs.Samples[lo : lo+batch] {
			caps[i] = s.Capture.(*core.Capture)
			lowest = min(lowest, caps[i].Epoch)
		}
		body, err := json.Marshal(DecodeRequest{Tenant: "churn", Captures: caps})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
		minEpoch = append(minEpoch, lowest)
		maxEpoch = max(maxEpoch, maxEpochOf(caps))
		stream = append(stream, caps...)
	}
	share := sharedFrameShare(b, srv.resolve("churn").dec, stream, batch)
	h := srv.Handler()
	retire := func(e uint32) {
		if _, err := srv.RetireEpoch("churn", e); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		retire(maxEpoch)
		retired := int64(-1)
		for i, body := range bodies {
			if e := int64(minEpoch[i]) - 1; e > retired {
				retire(uint32(e))
				retired = e
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decode", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("batch %d: HTTP %d", i, rec.Code)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bodies)*batch), "ns/capture")
	b.ReportMetric(share, "shared-frames/frame")
}

// recordXalancbmk records 483.xalancbmk as perfbench's serve workloads
// do: one single-threaded run cold, then one warm on the same encoder,
// each sampled every 16 calls. The snapshot is exported after both, so
// it decodes either stream. It returns the snapshot, the cold stream
// (serve-churn's corpus) and the warm one (serve-hot's).
func recordXalancbmk(tb testing.TB, calls int64) (snap []byte, cold, warm []*core.Capture) {
	tb.Helper()
	pr, ok := workload.ByName("483.xalancbmk")
	if !ok {
		tb.Fatal("no 483.xalancbmk profile")
	}
	pr.Threads, pr.TotalCalls = 1, calls
	w, err := workload.Build(pr)
	if err != nil {
		tb.Fatal(err)
	}
	d := core.New(w.P, core.Options{})
	var streams [2][]*core.Capture
	for i := range streams {
		rs, err := w.NewMachine(d, machine.Config{SampleEvery: 16}).Run()
		if err != nil {
			tb.Fatal(err)
		}
		for _, s := range rs.Samples {
			streams[i] = append(streams[i], s.Capture.(*core.Capture))
		}
	}
	snap, err = persist.Marshal(d.ExportState())
	if err != nil {
		tb.Fatal(err)
	}
	return snap, streams[0], streams[1]
}

// replayWriter is a reusable http.ResponseWriter that keeps the status
// and the body, so a replay loop measures the handler, not a recorder.
type replayWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *replayWriter) Header() http.Header         { return w.header }
func (w *replayWriter) WriteHeader(code int)        { w.code = code }
func (w *replayWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// BenchmarkDecodeHot replays serve-hot's read path in process: the
// warm 483.xalancbmk stream cut into 512-capture /v1/decode bodies,
// each sent once to warm the memo, then replayed through
// Handler().ServeHTTP with a reused ResponseWriter, every response
// byte-compared with the body's first. One op is one pass over the
// stream; ns/capture is the op's time per capture, and
// shared-frames/frame the share of the frames the response copies from
// the result before instead of rendering.
func BenchmarkDecodeHot(b *testing.B) { benchmarkDecodeHot(b, false) }

// BenchmarkDecodeHotShuffled is BenchmarkDecodeHot on the same warm
// stream shuffled before it is cut into bodies, so neighbouring
// captures share little more than the root frame: the render cursor's
// no-sharing case.
func BenchmarkDecodeHotShuffled(b *testing.B) { benchmarkDecodeHot(b, true) }

func benchmarkDecodeHot(b *testing.B, shuffle bool) {
	const batch = 512
	snap, _, warm := recordXalancbmk(b, 300_000)
	warm = warm[:len(warm)/batch*batch]
	if shuffle {
		rand.New(rand.NewPCG(1, 2)).Shuffle(len(warm), func(i, j int) { warm[i], warm[j] = warm[j], warm[i] })
	}
	srv := New(Config{})
	if _, err := srv.Register("hot", snap); err != nil {
		b.Fatal(err)
	}
	var bodies [][]byte
	for lo := 0; lo < len(warm); lo += batch {
		body, err := json.Marshal(DecodeRequest{Tenant: "hot", Captures: warm[lo : lo+batch]})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	h := srv.Handler()
	w := &replayWriter{header: http.Header{}}
	req := httptest.NewRequest(http.MethodPost, "/v1/decode", nil)
	var rd bytes.Reader
	serve := func(i int) []byte {
		rd.Reset(bodies[i])
		req.Body = io.NopCloser(&rd)
		w.body.Reset()
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("batch %d: HTTP %d: %.200s", i, w.code, w.body.Bytes())
		}
		return w.body.Bytes()
	}
	refs := make([][]byte, len(bodies))
	for i := range bodies {
		refs[i] = bytes.Clone(serve(i))
	}
	share := sharedFrameShare(b, srv.resolve("hot").dec, warm, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i := range bodies {
			if !bytes.Equal(serve(i), refs[i]) {
				b.Fatalf("batch %d: response differs from its first", i)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(warm)), "ns/capture")
	b.ReportMetric(share, "shared-frames/frame")
}

// sharedFrameShare decodes caps into a private DAG and returns the share
// of their frames that each capture shares, root first, with the last
// capture before it in its batch that decoded: the share a response
// copies instead of rendering. It compares materialized frames, not
// nodes, so it does not rely on the render cursor's pointer rule.
func sharedFrameShare(tb testing.TB, dec *core.Decoder, caps []*core.Capture, batch int) float64 {
	tb.Helper()
	dag := ccdag.New()
	var shared, total int
	var prev core.Context
	for i, c := range caps {
		if i%batch == 0 {
			prev = nil
		}
		n, err := dec.DecodeNode(dag, c)
		if err != nil || n == nil {
			continue
		}
		ctx := core.NodeContext(n)
		k := 0
		for k < len(ctx) && k < len(prev) && ctx[k] == prev[k] {
			k++
		}
		shared += k
		total += len(ctx)
		prev = ctx
	}
	if total == 0 {
		tb.Fatal("no capture decoded to a frame")
	}
	return float64(shared) / float64(total)
}
