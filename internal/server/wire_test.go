package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dacce/internal/ccdag"
	"dacce/internal/core"
	"dacce/internal/persist"
	"dacce/internal/prog"
)

// raceEnabled is set under the race detector (race_test.go), whose
// sync.Pool drops a random share of Puts and so defeats alloc counts.
var raceEnabled bool

// checkAgainstJSON parses body with the wire parser and, if it accepts,
// requires encoding/json to accept it too and to decode the identical
// DecodeRequest. It reports whether the parser accepted.
func checkAgainstJSON(t testing.TB, wb *wireBuf, body []byte) (bool, error) {
	t.Helper()
	defer wb.reset()
	wb.body.Write(body)
	var got DecodeRequest
	if err := wb.parseRequest(&got); err != nil {
		return false, err
	}
	var want DecodeRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
		t.Fatalf("parser accepted a body encoding/json rejects (%v):\n%.300q", err, body)
	}
	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		t.Fatalf("parser and encoding/json disagree on\n%.300q\nparser:        %.300s\nencoding/json: %.300s", body, g, w)
	}
	return true, nil
}

// fixtureBodies marshals requests built from the fixture's captures the
// way clients build them: every capture in 512-capture batches, then a
// batch mixing null entries, nil and empty ccStacks and spawn chains
// under a tenant name that needs escaping, and the empty requests.
func fixtureBodies(t testing.TB, caps []*core.Capture) [][]byte {
	var reqs []DecodeRequest
	for lo := 0; lo < len(caps); lo += 512 {
		reqs = append(reqs, DecodeRequest{Tenant: "serve", Captures: caps[lo:min(lo+512, len(caps))]})
	}
	var mixed []*core.Capture
	for i, c := range caps[:min(48, len(caps))] {
		v := *c
		switch i % 4 {
		case 0:
			mixed = append(mixed, nil)
		case 1:
			v.CC = nil
		case 2:
			v.CC = []core.CCEntry{}
		case 3:
			spawn := *caps[(i+1)%len(caps)]
			spawn.Spawn = &core.Capture{Epoch: c.Epoch, Fn: c.Root, CC: []core.CCEntry{}}
			v.Spawn = &spawn
		}
		mixed = append(mixed, &v)
	}
	reqs = append(reqs,
		DecodeRequest{Tenant: "se<r>ve & \u2028 \"\\ \xff", Captures: mixed},
		DecodeRequest{},
		DecodeRequest{Captures: []*core.Capture{}})
	var bodies [][]byte
	for _, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	return bodies
}

// decodeRequestSeeds exercise each parser rule: key case, non-ASCII
// keys, duplicates, null everywhere, integer edge cases, string
// escapes, trailing data and the nesting limit.
var decodeRequestSeeds = []string{
	`{"tenant":"serve","captures":[{"Epoch":1,"ID":2,"Fn":3,"Root":0,"CC":[{"ID":4,"Site":5,"Target":6,"Count":1,"Rec":true}]}]}`,
	`{"TENANT":"serve","CAPTURES":[{"EPOCH":1,"id":2,"fN":3,"rOOT":0,"cc":[{"id":4,"SITE":5,"target":6,"COUNT":1,"rec":true}],"spawn":{"ID":1}}]}`,
	`{"tenant":"serve","captures":[{"ſpawn":{"ID":1}}]}`,
	`{"tenant":"serve","captures":[{"Spawn":{"ID":1,"Spawn":{"Fn":2,"CC":[]}}}]}`,
	`{"tenant":"serve","captures":[{"ID":1,"K":2}]}`,
	`{"tenant":"serve","captures":[{"I\u0044":1}]}`,
	`{"tenant":"a","tenant":"b"}`,
	`{"tenant":"a","Tenant":"b"}`,
	`{"captures":[{"ID":1,"ID":2}]}`,
	`{"captures":[{"CC":[{"ID":1,"id":2}]}]}`,
	`null`,
	` {"tenant":null,"captures":null} `,
	`{"tenant":"serve","captures":[null]}`,
	`{"captures":[{"Epoch":null,"ID":null,"Fn":null,"Root":null,"CC":null,"Spawn":null}]}`,
	`{"captures":[{"CC":[null,{"ID":null,"Site":null,"Target":null,"Count":null,"Rec":null}]}]}`,
	`{"captures":[{"Epoch":1.0}]}`,
	`{"captures":[{"ID":1e3}]}`,
	`{"captures":[{"ID":-0}]}`,
	`{"captures":[{"Fn":-0,"Root":-2147483648}]}`,
	`{"captures":[{"ID":18446744073709551616}]}`,
	`{"captures":[{"ID":18446744073709551615,"Epoch":4294967295}]}`,
	`{"captures":[{"Epoch":4294967296}]}`,
	`{"captures":[{"Fn":2147483648}]}`,
	`{"captures":[{"ID":01}]}`,
	"{\"tenant\":\"\xff\xfe\"}",
	`{"tenant":"a\u00e9\ud83d\ude00\ud800\"\\\/\b\f\n\r\t"}`,
	`{"tenant":"serve"} x`,
	`{"tenant":"serve"}{}`,
	`{"tenant":"serve","x":{"y":[1,-2.5e+3,0.0,true,false,null,"z\u0000",{"":{}}]}}`,
	`{"x":` + strings.Repeat("[", maxNesting),
}

// FuzzDecodeRequest checks the wire parser's soundness against
// encoding/json: whatever body the parser accepts, encoding/json
// accepts too and decodes to the identical DecodeRequest. Every body a
// client marshals from real captures must parse. Each input also checks
// the writer's string escaping against json.Marshal.
func FuzzDecodeRequest(f *testing.F) {
	fx := newServeFixture(f, Config{}, 30_000, 29)
	wb := new(wireBuf)
	for i, body := range fixtureBodies(f, fx.captures) {
		if ok, err := checkAgainstJSON(f, wb, body); !ok {
			f.Fatalf("parser rejects marshaled fixture body %d: %v", i, err)
		}
		if len(body) < 4096 {
			f.Add(body)
		}
	}
	for _, s := range decodeRequestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, _ := json.Marshal(string(body))
		if got := appendJSONString(nil, string(body)); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, json.Marshal = %s", body, got, want)
		}
		checkAgainstJSON(t, wb, body)
	})
}

// postBody posts a raw /v1/decode body and returns status and response.
func postBody(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/decode", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// parentResponse builds the /v1/decode response the encoding/json way:
// each capture decoded to a node, materialized into a []Frame with
// names, errors as strings.
func parentResponse(tn *tenant, caps []*core.Capture) DecodeResponse {
	resp := DecodeResponse{Tenant: tn.name, Hash: tn.hash, Results: make([]DecodeResult, 0, len(caps))}
	dag := ccdag.New()
	for _, c := range caps {
		var res DecodeResult
		if c == nil {
			res.Error = "null capture"
		} else if n, err := tn.dec.DecodeNode(dag, c); err != nil {
			res.Error = err.Error()
		} else {
			for _, f := range core.NodeContext(n) {
				res.Frames = append(res.Frames, Frame{Site: f.Site, Fn: f.Fn, Name: tn.dec.P.Funcs[f.Fn].Name})
			}
		}
		resp.Results = append(resp.Results, res)
	}
	return resp
}

// appendFrames is the rendering the render cursor replaced, kept as
// its reference: a decoded context, materialized, as one DecodeResult
// object, every frame rendered from the slabs. An empty context has no
// frames, which omitempty drops.
func (w *wireNames) appendFrames(dst []byte, ctx core.Context) []byte {
	if len(ctx) == 0 {
		return append(dst, "{}"...)
	}
	dst = append(dst, `{"frames":[`...)
	for i, f := range ctx {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, w.sites.at(int(f.Site)+1)...)
		dst = append(dst, w.funcs.at(int(f.Fn))...)
	}
	return append(dst, "]}"...)
}

// Render-cursor fuzz program: each byte is an op in its low three bits
// and an argument in the rest.
const (
	rcRoot    = iota // start a new root context: Root(fn arg)
	rcPush           // push a frame (site arg, NoSite for 0; fn the next byte)
	rcEmit           // emit the current context as a result (nil: empty)
	rcError          // emit an error object
	rcEmpty          // emit an empty context
	rcPop            // return arg%4+1 frames towards the root
	rcRevisit        // make an earlier result current again
	rcCollect        // collect the whole DAG and re-intern the current context
)

// FuzzRenderCursor checks the render cursor against the rendering it
// replaced: for any run of results, error objects and empty contexts,
// the bytes it appends equal appendFrames over each node's materialized
// frames. The run is built from the input in a fresh DAG: roots,
// shared prefixes, NoSite frames inside a path (a spawn boundary
// leaves one), returns to earlier results, and collections, after which
// the current context is re-interned as a new chain with the same
// frames while results from before stay in play. The run is rendered
// twice through one cursor, reset in between as each batch resets it,
// and both passes must give the same bytes.
func FuzzRenderCursor(f *testing.F) {
	p := &prog.Program{}
	for i := range 13 {
		p.Funcs = append(p.Funcs, &prog.Function{ID: prog.FuncID(i), Name: strings.Repeat("f<", i%4) + strconv.Itoa(i)})
	}
	for i := range 11 {
		p.Sites = append(p.Sites, &prog.Site{ID: prog.SiteID(i)})
	}
	w := newWireNames("fuzz", "0", p)
	op := func(code, arg int) byte { return byte(code | arg<<3) }
	push := func(site, fn int) []byte { return []byte{op(rcPush, site), byte(fn)} }
	var deep []byte
	for i := range 24 {
		deep = append(deep, push(i%12, i)...)
		if i%3 == 2 {
			deep = append(deep, op(rcEmit, 0))
		}
	}
	for _, seed := range [][]byte{
		{},
		{op(rcEmit, 0), op(rcEmpty, 0), op(rcError, 0)},
		slices.Concat([]byte{op(rcRoot, 1)}, push(3, 4), push(5, 6), []byte{op(rcEmit, 0)},
			push(7, 8), []byte{op(rcEmit, 0), op(rcPop, 1), op(rcEmit, 0)}, push(2, 9), []byte{op(rcEmit, 0)}),
		slices.Concat([]byte{op(rcRoot, 2)}, push(1, 3), []byte{op(rcEmit, 0), op(rcError, 0)}, push(4, 5),
			[]byte{op(rcEmit, 0), op(rcEmpty, 0)}, push(6, 7), []byte{op(rcEmit, 0), op(rcRoot, 3)}, push(1, 3),
			[]byte{op(rcEmit, 0)}),
		slices.Concat([]byte{op(rcRoot, 0)}, push(2, 1), push(0, 5), push(3, 2), []byte{op(rcEmit, 0)},
			push(0, 7), []byte{op(rcEmit, 0), op(rcPop, 2), op(rcEmit, 0)}),
		slices.Concat([]byte{op(rcRoot, 4)}, push(8, 9), push(9, 10), []byte{op(rcEmit, 0), op(rcCollect, 0),
			op(rcEmit, 0), op(rcRevisit, 0), op(rcEmit, 0), op(rcCollect, 0), op(rcEmit, 0)}, push(1, 2),
			[]byte{op(rcEmit, 0), op(rcRevisit, 1), op(rcEmit, 0)}),
		slices.Concat([]byte{op(rcRoot, 5)}, deep, []byte{op(rcPop, 3), op(rcEmit, 0), op(rcRevisit, 2), op(rcEmit, 0),
			op(rcRevisit, 5), op(rcEmit, 0), op(rcRevisit, 1), op(rcEmit, 0)}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Rendering is quadratic in the run's length (each result can be
		// as deep as the run), so longer inputs only slow the search.
		if len(ops) > 256 {
			t.Skip()
		}
		dag := ccdag.New()
		type result struct {
			n   *ccdag.Node
			err bool
		}
		var (
			cur  *ccdag.Node
			run  []result
			done []*ccdag.Node // emitted nodes, for rcRevisit
		)
		for i := 0; i < len(ops); i++ {
			arg := int(ops[i] >> 3)
			switch ops[i] & 7 {
			case rcRoot:
				cur = dag.Root(prog.FuncID(arg % len(p.Funcs)))
			case rcPush:
				fn := 0
				if i+1 < len(ops) {
					i++
					fn = int(ops[i])
				}
				cur = dag.Intern(cur, prog.SiteID(arg%(len(p.Sites)+1)-1), prog.FuncID(fn%len(p.Funcs)))
			case rcEmit:
				run = append(run, result{n: cur})
				done = append(done, cur)
			case rcError:
				run = append(run, result{err: true})
			case rcEmpty:
				run = append(run, result{})
			case rcPop:
				for range arg%4 + 1 {
					if cur != nil {
						cur = cur.Pred()
					}
				}
			case rcRevisit:
				if len(done) > 0 {
					cur = done[arg%len(done)]
				}
			case rcCollect:
				dag.Collect(dag.AdvanceGen(), nil)
				var fresh *ccdag.Node
				for _, fr := range core.NodeContext(cur) {
					fresh = dag.Intern(fresh, fr.Site, fr.Fn)
				}
				cur = fresh
			}
		}
		var want []byte
		var ctx core.Context
		for i, r := range run {
			if i > 0 {
				want = append(want, ',')
			}
			if r.err {
				want = appendErrorObject(want, "e")
				continue
			}
			ctx = core.AppendNodeContext(ctx, r.n)
			want = w.appendFrames(want, ctx)
		}
		var rc renderCursor
		for pass := range 2 {
			rc.reset()
			got := slices.Clone(w.head)
			for i, r := range run {
				if i > 0 {
					got = append(got, ',')
				}
				if r.err {
					got = appendErrorObject(got, "e")
					continue
				}
				got = rc.appendResult(got, &w, r.n)
			}
			if got = got[len(w.head):]; !bytes.Equal(got, want) {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Fatalf("pass %d: the render cursor's bytes differ from appendFrames' at byte %d of %d:\ngot  %.200q\nwant %.200q",
					pass, i, len(want), got[i:], want[i:])
			}
		}
	})
}

// TestDecodeResponseBytesUnchanged pins the writer to the bytes
// json.Encoder writes for the same DecodeResponse, trailing newline
// included: on a fixture batch with valid captures, a null, an
// out-of-range function and an unknown epoch, and on a tenant whose
// name and function names all need escaping. Each batch is sent twice,
// so memo misses and memo hits are both compared.
func TestDecodeResponseBytesUnchanged(t *testing.T) {
	f := newServeFixture(t, Config{}, 30_000, 29)
	st, err := persist.Unmarshal(f.snap)
	if err != nil {
		t.Fatal(err)
	}
	odd := []string{"<", ">", "&", `"`, `\`, "\u2028", "\u2029", "\xff", "\t\x01", "é"}
	for i := range st.Funcs {
		st.Funcs[i] = fmt.Sprintf("%s%s%d", st.Funcs[i], odd[i%len(odd)], i)
	}
	snap, err := persist.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	const escTenant = `esc<"&">`
	if _, err := f.srv.Register(escTenant, snap); err != nil {
		t.Fatal(err)
	}

	caps := slices.Clone(f.captures[:min(200, len(f.captures))])
	c0 := *caps[0]
	c0.Epoch = 9999
	caps = append(caps, nil, &core.Capture{Fn: 1 << 20}, &c0)
	for _, tenant := range []string{"serve", escTenant} {
		tn := f.srv.resolve(tenant)
		body, err := json.Marshal(DecodeRequest{Tenant: tenant, Captures: caps})
		if err != nil {
			t.Fatal(err)
		}
		resp := parentResponse(tn, caps)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&resp); err != nil {
			t.Fatal(err)
		}
		for pass := range 2 {
			code, got := postBody(t, f.ts.URL, body)
			if code != http.StatusOK {
				t.Fatalf("%s pass %d: HTTP %d: %s", tenant, pass, code, got)
			}
			if !bytes.Equal(got, want.Bytes()) {
				i := 0
				for i < min(len(got), len(want.Bytes())) && got[i] == want.Bytes()[i] {
					i++
				}
				t.Fatalf("%s pass %d: response differs from encoding/json at byte %d:\ngot  %.120q\nwant %.120q",
					tenant, pass, i, got[i:], want.Bytes()[i:])
			}
		}
	}

	// Error responses keep encoding/json's bytes too.
	code, got := postBody(t, f.ts.URL, []byte(`{"tenant":"<no&such>"}`))
	var want bytes.Buffer
	_ = json.NewEncoder(&want).Encode(map[string]string{"error": `unknown tenant "<no&such>"`})
	if code != http.StatusNotFound || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("unknown tenant: HTTP %d %q, want 404 %q", code, got, want.Bytes())
	}
}

// TestDecodeHandlerAllocs gates the per-capture cost of a warm request:
// a spawn-free batch allocates a constant amount whatever its size, so
// 512 captures may cost at most 16 allocations more than 64.
func TestDecodeHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	f := newServeFixture(t, Config{}, 60_000, 13)
	var spawnFree []*core.Capture
	for _, c := range f.captures {
		if c.Spawn == nil {
			spawnFree = append(spawnFree, c)
		}
	}
	if len(spawnFree) < 512 {
		t.Fatalf("fixture has %d spawn-free captures, want ≥ 512", len(spawnFree))
	}
	h := f.srv.Handler()
	allocs := func(n int) float64 {
		body, err := json.Marshal(DecodeRequest{Tenant: "serve", Captures: spawnFree[:n]})
		if err != nil {
			t.Fatal(err)
		}
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decode", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
			}
		}
		for range 8 { // warm the memo, the DAG and every profiler shard
			serve()
		}
		return testing.AllocsPerRun(20, serve)
	}
	a64, a512 := allocs(64), allocs(512)
	t.Logf("allocs per request: %.0f for 64 captures, %.0f for 512", a64, a512)
	if a512-a64 > 16 {
		t.Fatalf("512-capture request allocates %.0f more than a 64-capture one, want ≤ 16", a512-a64)
	}
}

// TestDecodeRejectsMalformedBodies: bodies encoding/json would accept
// with a silent guess — trailing data, repeated keys, Unicode-folded
// keys — and integers it would reject all answer 400. Case-insensitive
// ASCII keys and a null capture still decode.
func TestDecodeRejectsMalformedBodies(t *testing.T) {
	f := newServeFixture(t, Config{}, 30_000, 29)
	for name, body := range map[string]string{
		"trailing data":      `{"tenant":"serve","captures":[]} {}`,
		"trailing garbage":   `{"tenant":"serve","captures":[]}x`,
		"duplicate tenant":   `{"tenant":"serve","tenant":"serve","captures":[]}`,
		"duplicate by case":  `{"tenant":"serve","Tenant":"serve","captures":[]}`,
		"duplicate ID":       `{"tenant":"serve","captures":[{"ID":1,"ID":2}]}`,
		"duplicate CC field": `{"tenant":"serve","captures":[{"CC":[{"Rec":true,"rec":false}]}]}`,
		"non-ASCII key":      `{"tenant":"serve","captures":[{"ſpawn":null}]}`,
		"escaped key":        `{"tenant":"serve","captures":[{"\u0049D":1}]}`,
		"fraction":           `{"tenant":"serve","captures":[{"Epoch":1.0}]}`,
		"exponent":           `{"tenant":"serve","captures":[{"ID":1e3}]}`,
		"negative unsigned":  `{"tenant":"serve","captures":[{"ID":-0}]}`,
		"overflow":           `{"tenant":"serve","captures":[{"ID":18446744073709551616}]}`,
	} {
		if code, resp := postBody(t, f.ts.URL, []byte(body)); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d (%s), want 400", name, code, resp)
		}
	}

	var c *core.Capture
	for _, c = range f.captures {
		if len(c.CC) > 0 && c.Spawn == nil {
			break
		}
	}
	canon, _ := json.Marshal(DecodeRequest{Tenant: "serve", Captures: []*core.Capture{c}})
	folded := strings.NewReplacer(`"tenant"`, `"TENANT"`, `"captures"`, `"Captures"`, `"Epoch"`, `"epoch"`,
		`"ID"`, `"id"`, `"Fn"`, `"FN"`, `"Root"`, `"root"`, `"CC"`, `"cc"`, `"Site"`, `"site"`,
		`"Target"`, `"TARGET"`, `"Count"`, `"count"`, `"Rec"`, `"REC"`, `"Spawn"`, `"x":[{}],"spawn"`).Replace(string(canon))
	_, want := postBody(t, f.ts.URL, canon)
	if code, got := postBody(t, f.ts.URL, []byte(folded)); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("case-folded keys: HTTP %d %s, want %s", code, got, want)
	}
	code, got := postBody(t, f.ts.URL, []byte(`{"tenant":"serve","captures":[null]}`))
	if code != http.StatusOK || !bytes.Contains(got, []byte(`{"error":"null capture"}`)) {
		t.Fatalf("null capture: HTTP %d %s", code, got)
	}
}

// TestDecodeHostileBodies: nesting past the limit — 20000 brackets
// under an unknown key, or a spawn chain deeper than 10000 — answers
// 400 instead of recursing without bound, and the server keeps
// decoding afterwards. Nesting exactly at the limit parses, as it does
// for encoding/json.
func TestDecodeHostileBodies(t *testing.T) {
	f := newServeFixture(t, Config{}, 30_000, 29)
	atLimit := `{"x":` + strings.Repeat("[", maxNesting-1) + strings.Repeat("]", maxNesting-1) + `}`
	if ok, err := checkAgainstJSON(t, new(wireBuf), []byte(atLimit)); !ok {
		t.Fatalf("body nested %d deep: %v", maxNesting, err)
	}
	deepSpawn := `{"tenant":"serve","captures":[` + strings.Repeat(`{"Spawn":`, maxNesting) + `{}` +
		strings.Repeat(`}`, maxNesting) + `]}`
	for name, body := range map[string]string{
		"nested brackets": `{"tenant":"serve","x":` + strings.Repeat("[", 20000) + strings.Repeat("]", 20000) + `,"captures":[]}`,
		"deep spawn":      deepSpawn,
	} {
		code, resp := postBody(t, f.ts.URL, []byte(body))
		if code != http.StatusBadRequest || !bytes.Contains(resp, []byte("nesting deeper than 10000")) {
			t.Fatalf("%s: HTTP %d %.200s, want 400 naming the nesting limit", name, code, resp)
		}
	}
	if resp, dr := f.decode(t, "serve", f.captures[:64]); dr == nil {
		t.Fatalf("decode after hostile bodies: HTTP %d", resp.StatusCode)
	} else {
		for i, r := range dr.Results {
			if r.Error != "" {
				t.Fatalf("capture %d after hostile bodies: %s", i, r.Error)
			}
		}
	}
}

// TestDecodeBodyTooLarge: a body over MaxBodyBytes answers 413 naming
// the limit, and server.Client does not retry it.
func TestDecodeBodyTooLarge(t *testing.T) {
	f := newServeFixture(t, Config{MaxBodyBytes: 4096}, 30_000, 29)
	req := &DecodeRequest{Tenant: "serve", Captures: f.captures[:200]}
	body, _ := json.Marshal(req)
	if len(body) <= 4096 {
		t.Fatalf("test body is only %d bytes", len(body))
	}
	code, resp := postBody(t, f.ts.URL, body)
	if code != http.StatusRequestEntityTooLarge || !bytes.Contains(resp, []byte("4096")) {
		t.Fatalf("oversized body: HTTP %d %s, want 413 naming the 4096-byte limit", code, resp)
	}

	var hits atomic.Int32
	h := f.srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL, HTTPClient: ts.Client(), Sleep: func(time.Duration) {}}
	if _, err := c.Decode(req); err == nil || !strings.Contains(err.Error(), "413") {
		t.Fatalf("client error %v, want the 413", err)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("client sent %d attempts for a 413, want 1", n)
	}
}

// slabState is what parsing one top-level capture leaves in a wire
// buffer: the capture and ccStack slabs, the capture's slot and the
// offset where parsing stopped.
type slabState struct {
	caps []core.Capture
	cc   []core.CCEntry
	slot capSlot
	end  int
}

// parseCapture parses the top-level capture at the start of b, with the
// one-pass path (onePass) or the general parser, into a buffer whose
// slabs already hold one capture and one ccStack entry, and reports the
// state it leaves. A capture the one-pass path declines must leave the
// buffer and the offset as they were.
func parseCapture(t testing.TB, b []byte, onePass bool) (slabState, error) {
	t.Helper()
	wb := &wireBuf{caps: []core.Capture{{ID: 7}}, cc: []core.CCEntry{{ID: 9}}}
	p := parser{b: b, wb: wb}
	slot := capSlot{cap: -1, ccLo: -1}
	var err error
	if onePass {
		if !p.marshaledCapture(&slot) {
			if p.i != 0 || len(wb.caps) != 1 || len(wb.cc) != 1 {
				t.Fatalf("declined %q but left offset %d, %d captures, %d ccStack entries", b, p.i, len(wb.caps), len(wb.cc))
			}
			err = errors.New("declined")
		}
	} else {
		wb.caps = append(wb.caps, core.Capture{})
		slot.cap = len(wb.caps) - 1
		err = p.capture(&wb.caps[slot.cap], &slot)
	}
	return slabState{caps: wb.caps, cc: wb.cc, slot: slot, end: p.i}, err
}

// marshaledCaptureSeeds returns captures as json.Marshal writes them,
// covering every branch of the one-pass path, then near misses of each
// that it must decline.
func marshaledCaptureSeeds(t testing.TB) (marshaled, nearMisses [][]byte) {
	deep := make([]core.CCEntry, 40)
	for i := range deep {
		deep[i] = core.CCEntry{ID: uint64(i) * 1e15, Site: prog.SiteID(i), Target: prog.FuncID(i + 1), Count: uint32(i % 3), Rec: i%2 == 1}
	}
	for _, c := range []core.Capture{
		{},
		{Epoch: 3, ID: 17, Fn: 4, Root: 1, CC: []core.CCEntry{}},
		{Epoch: 2, ID: 5, Fn: 9, CC: deep},
		{ID: 1, CC: []core.CCEntry{{ID: 2, Site: 3, Target: 4, Count: 5, Rec: true}}},
		{Epoch: 1<<32 - 1, ID: 1234567890123456789, Fn: -1, Root: -2147483648,
			CC: []core.CCEntry{{ID: 1<<64 - 1, Site: -7, Target: 2147483647, Count: 1<<32 - 1}}},
		{ID: 10000000000000000000},
		{ID: 1<<64 - 1},
	} {
		b, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		marshaled = append(marshaled, b)
	}
	withSpawn, err := json.Marshal(&core.Capture{ID: 1, Spawn: &core.Capture{Epoch: 1}})
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(&core.Capture{CC: deep[:2]}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	nearMisses = append(nearMisses, withSpawn, indented)
	for _, s := range []string{
		`{"Epoch":0, "ID":0,"Fn":0,"Root":0,"CC":null,"Spawn":null}`,
		`{"ID":0,"Epoch":0,"Fn":0,"Root":0,"CC":null,"Spawn":null}`,
		`{"epoch":0,"ID":0,"Fn":0,"Root":0,"CC":null,"Spawn":null}`,
		`{"Epoch":0,"ID":0,"Fn":0,"Root":0,"CC":[{"ID":0,"Site":0,"Target":0,"count":0,"Rec":false}],"Spawn":null}`,
		`{"Epoch":0,"ID":0,"Fn":0,"Root":0,"CC":null}`,
		`{"Epoch":0,"ID":0,"Fn":0,"Root":0,"CC":null,"Spawn":{"ID":1}}`,
		`{"Epoch":01,"ID":0,"Fn":0,"Root":0,"CC":null,"Spawn":null}`,
		`{"Epoch":0,"ID":00,"Fn":0,"Root":0,"CC":null,"Spawn":null}`,
		`{"Epoch":1.0,"ID":0,"Fn":0,"Root":0,"CC":null,"Spawn":null}`,
		`{"Epoch":0,"ID":1e3,"Fn":0,"Root":0,"CC":null,"Spawn":null}`,
		`{"Epoch":0,"ID":0,"Fn":-0,"Root":0,"CC":null,"Spawn":null}`,
		`{"Epoch":0,"ID":-1,"Fn":0,"Root":0,"CC":null,"Spawn":null}`,
		`{"Epoch":0,"ID":0,"Fn":2147483648,"Root":0,"CC":null,"Spawn":null}`,
		`{"Epoch":0,"ID":0,"Fn":0,"Root":-2147483649,"CC":null,"Spawn":null}`,
		`{"Epoch":4294967296,"ID":0,"Fn":0,"Root":0,"CC":null,"Spawn":null}`,
		`{"Epoch":0,"ID":18446744073709551616,"Fn":0,"Root":0,"CC":null,"Spawn":null}`,
		`{"Epoch":0,"ID":99999999999999999999,"Fn":0,"Root":0,"CC":null,"Spawn":null}`,
		`{"Epoch":0,"ID":100000000000000000000,"Fn":0,"Root":0,"CC":null,"Spawn":null}`,
		`{"Epoch":0,"ID":0,"Fn":0,"Root":0,"CC":[{"ID":0,"Site":0,"Target":0,"Count":4294967296,"Rec":false}],"Spawn":null}`,
		`{"Epoch":0,"ID":0,"Fn":0,"Root":0,"CC":[null],"Spawn":null}`,
		`{"Epoch":0,"ID":0,"Fn":0,"Root":0,"CC":[{"ID":0,"Site":0,"Target":0,"Count":0,"Rec":false},],"Spawn":null}`,
		`{"Epoch":0,"ID":0,"Fn":0,"Root":0,"CC":[{"ID":0,"Site":0,"Target":0,"Count":0,"Rec":true}`,
		`{"Epoch":0,"ID":0,"Fn":0,"Root":0,"CC":[{"ID":0,"Site":0,"Target":0,"Count":0,"Rec":null}],"Spawn":null}`,
		`{"Epoch":0,"ID":0,"Fn":0,"Root":0,"CC":null,"Spawn":null`,
		`null`,
	} {
		nearMisses = append(nearMisses, []byte(s))
	}
	return marshaled, nearMisses
}

// FuzzCaptureFastPath checks the one-pass path against the general
// parser: whatever bytes it accepts, the general parser accepts too,
// leaving the same capture, ccStack slab and slot (CC null and CC []
// stay distinct) and stopping at the same offset. A declined capture
// leaves the buffer untouched. Every json.Marshal'd seed must take the
// path and every near-miss seed must not.
func FuzzCaptureFastPath(f *testing.F) {
	marshaled, nearMisses := marshaledCaptureSeeds(f)
	for _, b := range marshaled {
		if _, err := parseCapture(f, b, true); err != nil {
			f.Fatalf("one-pass path declines json.Marshal's %s", b)
		}
		f.Add(b)
	}
	for _, b := range nearMisses {
		if _, err := parseCapture(f, b, true); err == nil {
			f.Fatalf("one-pass path accepts the near miss %s", b)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fast, err := parseCapture(t, b, true)
		if err != nil {
			return
		}
		general, err := parseCapture(t, b, false)
		if err != nil {
			t.Fatalf("one-pass path accepts %q, the general parser rejects it: %v", b, err)
		}
		if !reflect.DeepEqual(fast, general) {
			t.Fatalf("on %q\none-pass: %+v\ngeneral:  %+v", b, fast, general)
		}
	})
}

// TestClientCapturesTakeOnePass measures the share of each serve
// workload's captures that take the one-pass path: both 483.xalancbmk
// streams perfbench serves, sent through server.Client in 512-capture
// batches, must take it for every capture.
func TestClientCapturesTakeOnePass(t *testing.T) {
	snap, cold, warm := recordXalancbmk(t, 100_000)
	srv := New(Config{})
	if _, err := srv.Register("x", snap); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	var (
		mu     sync.Mutex
		bodies [][]byte // as the server received them
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		bodies = append(bodies, body)
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
	for name, stream := range map[string][]*core.Capture{"cold": cold, "warm": warm} {
		for lo := 0; lo < len(stream); lo += 512 {
			if _, err := c.Decode(&DecodeRequest{Tenant: "x", Captures: stream[lo:min(lo+512, len(stream))]}); err != nil {
				t.Fatal(err)
			}
		}
		mu.Lock()
		sent := bodies
		bodies = nil
		mu.Unlock()
		onePass := 0
		for i, body := range sent {
			p := parser{b: body, wb: new(wireBuf)}
			p.i = bytes.Index(body, []byte(`"captures":[`)) + len(`"captures":[`)
			for n := 0; ; n++ {
				more, err := p.next(']', n)
				if err != nil {
					t.Fatalf("%s body %d: %v", name, i, err)
				}
				if !more {
					break
				}
				var slot capSlot
				if !p.marshaledCapture(&slot) {
					t.Fatalf("%s body %d: capture %d declined: %.300s", name, i, n, body[p.i:])
				}
				onePass++
			}
		}
		if onePass != len(stream) {
			t.Fatalf("%s stream: %d of %d captures took the one-pass path", name, onePass, len(stream))
		}
		t.Logf("%s stream: %d of %d captures took the one-pass path", name, onePass, len(stream))
	}
}
