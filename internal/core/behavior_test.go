package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"dacce/internal/machine"
	"dacce/internal/prog"
	"dacce/internal/progtest"
)

// compressedRecursion runs main → f → f … to depth 60 with Fig. 5e
// compression switched on for f → f by a pass in between, and returns
// the encoder, the capture taken at the deepest frame, its shadow stack
// and the run's stats.
func compressedRecursion(t *testing.T) (*DACCE, *Capture, []machine.ShadowFrame, *machine.RunStats) {
	t.Helper()
	b := prog.NewBuilder()
	mainF := b.Func("main")
	f := b.Func("f")
	mf := b.CallSite(mainF, f)
	ff := b.CallSite(f, f)

	var d *DACCE
	const deep = 60
	limit := 2
	var capDeep *Capture
	var shadowDeep []machine.ShadowFrame

	b.Body(mainF, func(x prog.Exec) {
		x.Call(mf, prog.NoFunc) // phase 1: discover main→f, f→f shallowly
		d.ForceReencode(x)
		limit = deep
		x.Call(mf, prog.NoFunc) // phase 2: deep recursion under compression
	})
	b.Body(f, func(x prog.Exec) {
		if x.Depth() < limit+1 {
			x.Call(ff, prog.NoFunc)
			return
		}
		th := x.(*machine.Thread)
		if limit == deep && capDeep == nil {
			capDeep = d.CaptureTyped(th)
			shadowDeep = th.ShadowCopy()
		}
	})
	p := b.MustBuild()
	d = New(p, Options{Trig: quietTriggers, CompressMinPushes: 1})
	m := machine.New(p, d, machine.Config{})
	rs, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if capDeep == nil {
		t.Fatal("deep capture never taken")
	}
	return d, capDeep, shadowDeep, rs
}

// TestRecursionCompression checks that a hot self-recursive edge gets
// the Fig. 5e counter compression after a re-encoding, that deep
// recursion keeps the ccStack shallow, and that the compressed capture
// still decodes to the exact expanded path.
func TestRecursionCompression(t *testing.T) {
	d, capDeep, shadowDeep, rs := compressedRecursion(t)
	if len(capDeep.CC) > 3 {
		t.Errorf("compressed ccStack has %d entries for depth-60 recursion, want ≤ 3", len(capDeep.CC))
	}
	var compressed bool
	for _, e := range capDeep.CC {
		if e.Count > 0 {
			compressed = true
		}
	}
	if !compressed {
		t.Error("no ccStack entry carries a repetition count")
	}
	ctx, err := d.Decode(capDeep)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := ShadowContext(nil, shadowDeep)
	if !ctx.Equal(want) {
		t.Errorf("decoded %d frames, want %d; got %v", len(ctx), len(want), ctx)
	}
	if rs.C.MaxCCDepth > 3 {
		t.Errorf("MaxCCDepth = %d, want ≤ 3 with compression", rs.C.MaxCCDepth)
	}
}

// TestForgedRepetitionCountFailsFast: a capture whose compressed entry
// claims 2^32−1 repetitions, the most the wire format admits, must fail
// with the step error after at most maxDecodeSteps frames, through both
// decode paths, instead of expanding every repetition.
func TestForgedRepetitionCountFailsFast(t *testing.T) {
	d, capDeep, _, _ := compressedRecursion(t)
	forged := *capDeep
	forged.CC = append([]CCEntry(nil), capDeep.CC...)
	found := false
	for i := range forged.CC {
		if forged.CC[i].Count > 0 {
			forged.CC[i].Count = math.MaxUint32
			found = true
		}
	}
	if !found {
		t.Fatal("capture has no compressed entry to forge")
	}
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"Decode", func() error { _, err := d.Decode(&forged); return err }},
		{"DecodeNode", func() error { _, err := d.DecodeNode(&forged); return err }},
	} {
		done := make(chan error, 1)
		go func() { done <- tc.decode() }()
		select {
		case err := <-done:
			if !errors.Is(err, errDecodeSteps) {
				t.Errorf("%s of a forged count: err = %v, want %v", tc.name, err, errDecodeSteps)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s of a forged count still running after 10s", tc.name)
		}
	}
}

// TestRecursionUncompressed checks the pre-adaptation behaviour: without
// compression every recursive call pushes, and decoding still works.
func TestRecursionUncompressed(t *testing.T) {
	b := prog.NewBuilder()
	mainF := b.Func("main")
	f := b.Func("f")
	mf := b.CallSite(mainF, f)
	ff := b.CallSite(f, f)

	var d *DACCE
	const deep = 20
	var capDeep *Capture
	var shadowDeep []machine.ShadowFrame
	b.Body(mainF, func(x prog.Exec) { x.Call(mf, prog.NoFunc) })
	b.Body(f, func(x prog.Exec) {
		if x.Depth() < deep {
			x.Call(ff, prog.NoFunc)
			return
		}
		th := x.(*machine.Thread)
		capDeep = d.CaptureTyped(th)
		shadowDeep = th.ShadowCopy()
	})
	p := b.MustBuild()
	d = New(p, Options{Trig: quietTriggers})
	m := machine.New(p, d, machine.Config{})
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := len(capDeep.CC); got != deep-1 {
		t.Errorf("uncompressed ccStack has %d entries, want %d", got, deep-1)
	}
	ctx, err := d.Decode(capDeep)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if want := ShadowContext(nil, shadowDeep); !ctx.Equal(want) {
		t.Errorf("decoded %v, want %v", ctx, want)
	}
}

// TestTailCallRestore reproduces the Fig. 7 scenario: after ACDF runs
// (CD is a tail call, so D returns past C), the encoding state in A
// must be restored so the next path ABDF is encoded correctly.
func TestTailCallRestore(t *testing.T) {
	fx, b := progtest.Fig7()
	var d *DACCE
	var caps []*Capture
	var shadows [][]machine.ShadowFrame
	capHook := func(x prog.Exec) {
		th := x.(*machine.Thread)
		caps = append(caps, d.CaptureTyped(th))
		shadows = append(shadows, th.ShadowCopy())
	}
	root := []progtest.Call{
		// Discovery: both paths once (first CD execution triggers the
		// mid-flight tail fix-up of A's active frame).
		progtest.By(fx.S("AC"), progtest.By(fx.S("CD"), progtest.By(fx.S("DF")))),
		progtest.By(fx.S("AB"), progtest.By(fx.S("BD"), progtest.By(fx.S("DF")))),
		{Site: fx.S("AB"), Target: prog.NoFunc, Hook: func(x prog.Exec) { d.ForceReencode(x) },
			Sub: []progtest.Call{progtest.By(fx.S("BD"))}},
		// Exercise: ACDF then ABDF with captures in F.
		progtest.By(fx.S("AC"), progtest.By(fx.S("CD"),
			progtest.Call{Site: fx.S("DF"), Target: prog.NoFunc, Hook: capHook})),
		progtest.By(fx.S("AB"), progtest.By(fx.S("BD"),
			progtest.Call{Site: fx.S("DF"), Target: prog.NoFunc, Hook: capHook})),
	}
	runScriptDeferred(t, fx, b, root, Options{Trig: quietTriggers}, machine.Config{}, &d)

	if len(caps) != 2 {
		t.Fatalf("took %d captures, want 2", len(caps))
	}
	for i, c := range caps {
		ctx, err := d.Decode(c)
		if err != nil {
			t.Fatalf("capture %d: decode: %v", i, err)
		}
		want := ShadowContext(nil, shadows[i])
		if !ctx.Equal(want) {
			t.Errorf("capture %d: decoded %v, want %v", i, ctx, want)
		}
	}
	// The tail-called path must include C (the call path, not the
	// physical stack).
	want0 := ctxOf(fx, "A", "AC", "C", "CD", "D", "DF", "F")
	if ctx0, _ := d.Decode(caps[0]); !ctx0.Equal(want0) {
		t.Errorf("tail path decoded %v, want %v", ctx0, want0)
	}
}

// TestReencodeMidRecursion forces a re-encoding while frames are live
// deep inside a recursion; the translation must rewrite the ccStack and
// the active frames so both earlier and later captures decode.
func TestReencodeMidRecursion(t *testing.T) {
	b := prog.NewBuilder()
	mainF := b.Func("main")
	f := b.Func("f")
	g := b.Func("g")
	mf := b.CallSite(mainF, f)
	fg := b.CallSite(f, g)
	gf := b.CallSite(g, f) // cycle f→g→f

	var d *DACCE
	const deep = 30
	type probe struct {
		c      *Capture
		shadow []machine.ShadowFrame
	}
	var probes []probe
	take := func(th *machine.Thread) {
		probes = append(probes, probe{d.CaptureTyped(th), th.ShadowCopy()})
	}
	b.Body(mainF, func(x prog.Exec) { x.Call(mf, prog.NoFunc) })
	b.Body(f, func(x prog.Exec) {
		th := x.(*machine.Thread)
		switch {
		case x.Depth() == 20: // f sits at even depths in the f→g→f cycle
			take(th) // pre-re-encode capture at depth 20
			d.ForceReencode(x)
			take(th) // post-re-encode capture, same stack
			x.Call(fg, prog.NoFunc)
		case x.Depth() < deep:
			x.Call(fg, prog.NoFunc)
		default:
			take(th)
		}
	})
	b.Body(g, func(x prog.Exec) { x.Call(gf, prog.NoFunc) })
	p := b.MustBuild()
	d = New(p, Options{Trig: quietTriggers})
	m := machine.New(p, d, machine.Config{})
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}

	if len(probes) < 3 {
		t.Fatalf("took %d probes, want ≥ 3", len(probes))
	}
	if probes[0].c.Epoch == probes[1].c.Epoch {
		t.Error("re-encoding did not advance the epoch")
	}
	for i, pr := range probes {
		ctx, err := d.Decode(pr.c)
		if err != nil {
			t.Fatalf("probe %d (epoch %d): decode: %v", i, pr.c.Epoch, err)
		}
		want := ShadowContext(nil, pr.shadow)
		if !ctx.Equal(want) {
			t.Errorf("probe %d (epoch %d): decoded %v, want %v", i, pr.c.Epoch, ctx, want)
		}
	}
}

// TestMultiThreadSpawnContexts spawns workers and checks that every
// sampled context, including the spawn path, decodes to the combined
// ground truth (paper §5.3).
func TestMultiThreadSpawnContexts(t *testing.T) {
	b := prog.NewBuilder()
	mainF := b.Func("main")
	launch := b.Func("launch")
	worker := b.Func("worker")
	g := b.Func("g")
	h := b.Func("h")
	ml := b.CallSite(mainF, launch)
	wg := b.CallSite(worker, g)
	wh := b.CallSite(worker, h)
	gh := b.CallSite(g, h)

	b.Body(mainF, func(x prog.Exec) { x.Call(ml, prog.NoFunc) })
	b.Body(launch, func(x prog.Exec) {
		for i := 0; i < 3; i++ {
			x.Spawn(worker)
		}
	})
	b.Body(worker, func(x prog.Exec) {
		for i := 0; i < 50; i++ {
			x.Call(wg, prog.NoFunc)
			x.Call(wh, prog.NoFunc)
		}
	})
	b.Body(g, func(x prog.Exec) { x.Call(gh, prog.NoFunc) })
	b.Leaf(h, 1)
	p := b.MustBuild()

	d := New(p, Options{})
	m := machine.New(p, d, machine.Config{SampleEvery: 3, Seed: 7})
	rs, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rs.Threads != 4 {
		t.Fatalf("ran %d threads, want 4", rs.Threads)
	}
	spawnShadow := map[int][]machine.ShadowFrame{}
	for _, th := range m.Threads() {
		spawnShadow[th.ID()] = th.SpawnShadow
	}
	if len(rs.Samples) == 0 {
		t.Fatal("no samples")
	}
	for _, s := range rs.Samples {
		ctx, err := d.DecodeSample(s)
		if err != nil {
			t.Fatalf("thread %d sample %d: %v", s.Thread, s.Seq, err)
		}
		want := ShadowContext(spawnShadow[s.Thread], s.Shadow)
		if !ctx.Equal(want) {
			t.Errorf("thread %d sample %d: decoded %v, want %v", s.Thread, s.Seq, ctx, want)
		}
	}
}

// TestPLTAndLazyModule checks lazy PLT binding into a dlopen-style
// module: the edges are encodable only because DACCE is dynamic.
func TestPLTAndLazyModule(t *testing.T) {
	b := prog.NewBuilder()
	mainF := b.Func("main")
	lib := b.Module("libplugin.so", true)
	pf := b.FuncIn("plugin_entry", lib)
	pg := b.FuncIn("plugin_helper", lib)
	mp := b.PLTSite(mainF, pf)
	pp := b.CallSite(pf, pg)

	var d *DACCE
	var c *Capture
	var shadow []machine.ShadowFrame
	b.Body(mainF, func(x prog.Exec) {
		for i := 0; i < 5; i++ {
			x.Call(mp, prog.NoFunc)
		}
		d.ForceReencode(x)
		x.Call(mp, prog.NoFunc)
	})
	b.Body(pf, func(x prog.Exec) { x.Call(pp, prog.NoFunc) })
	b.Body(pg, func(x prog.Exec) {
		th := x.(*machine.Thread)
		c = d.CaptureTyped(th)
		shadow = th.ShadowCopy()
	})
	p := b.MustBuild()
	d = New(p, Options{Trig: quietTriggers})
	m := machine.New(p, d, machine.Config{})
	if m.ModuleLoaded(lib) {
		t.Fatal("lazy module loaded before any call")
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !m.ModuleLoaded(lib) {
		t.Error("lazy module not marked loaded")
	}
	ctx, err := d.Decode(c)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if want := ShadowContext(nil, shadow); !ctx.Equal(want) {
		t.Errorf("decoded %v, want %v", ctx, want)
	}
	// After the re-encoding the PLT edges are plainly encoded: the
	// final capture's id must be in the normal range.
	if maxID := d.Dict(c.Epoch).MaxID; c.ID > maxID {
		t.Errorf("post-re-encoding PLT path still in marker range (id %d, maxID %d)", c.ID, maxID)
	}
}

// TestIndirectHashTable drives one indirect site through more targets
// than the inline threshold and checks the hash-table dispatch still
// encodes and decodes correctly.
func TestIndirectHashTable(t *testing.T) {
	b := prog.NewBuilder()
	mainF := b.Func("main")
	targets := make([]prog.FuncID, 12)
	for i := range targets {
		targets[i] = b.Func("t" + string(rune('A'+i)))
	}
	ind := b.IndirectSite(mainF, targets...)

	var d *DACCE
	round := 0
	var caps []*Capture
	var shadows [][]machine.ShadowFrame
	b.Body(mainF, func(x prog.Exec) {
		for _, tg := range targets {
			x.Call(ind, tg)
		}
		d.ForceReencode(x)
		round = 1
		for _, tg := range targets {
			x.Call(ind, tg)
		}
	})
	for _, tg := range targets {
		b.Body(tg, func(x prog.Exec) {
			if round == 1 {
				th := x.(*machine.Thread)
				caps = append(caps, d.CaptureTyped(th))
				shadows = append(shadows, th.ShadowCopy())
			}
		})
	}
	p := b.MustBuild()
	d = New(p, Options{Trig: quietTriggers, InlineThreshold: 4})
	m := machine.New(p, d, machine.Config{})
	rs, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rs.C.HashProbes == 0 {
		t.Error("hash table never probed despite 12 targets > threshold 4")
	}
	if len(caps) != len(targets) {
		t.Fatalf("took %d captures, want %d", len(caps), len(targets))
	}
	for i, c := range caps {
		ctx, err := d.Decode(c)
		if err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
		if want := ShadowContext(nil, shadows[i]); !ctx.Equal(want) {
			t.Errorf("capture %d: decoded %v, want %v", i, ctx, want)
		}
	}
}

// TestAdaptiveReencodeTriggers lets the controller fire on its own: a
// program that keeps discovering edges must re-encode at least once,
// and every sample must stay decodable across epochs.
func TestAdaptiveReencodeTriggers(t *testing.T) {
	b := prog.NewBuilder()
	mainF := b.Func("main")
	var fns []prog.FuncID
	var sites []prog.SiteID
	for i := 0; i < 40; i++ {
		f := b.Func("f" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
		fns = append(fns, f)
		sites = append(sites, b.CallSite(mainF, f))
		b.Leaf(f, 1)
	}
	b.Body(mainF, func(x prog.Exec) {
		for round := 0; round < 50; round++ {
			for i, s := range sites {
				if i <= round { // edges appear gradually
					x.Call(s, prog.NoFunc)
				}
			}
		}
	})
	p := b.MustBuild()
	d := New(p, Options{Trig: Triggers{NewEdges: 8}})
	m := machine.New(p, d, machine.Config{SampleEvery: 5})
	rs, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	st := d.Stats()
	if st.GTS == 0 {
		t.Fatal("adaptive controller never re-encoded")
	}
	if st.GTS > 10 {
		t.Errorf("controller re-encoded %d times for 40 edges, suspiciously many", st.GTS)
	}
	for _, s := range rs.Samples {
		ctx, err := d.DecodeSample(s)
		if err != nil {
			t.Fatalf("sample seq %d: %v", s.Seq, err)
		}
		if want := ShadowContext(nil, s.Shadow); !ctx.Equal(want) {
			t.Errorf("sample seq %d: decoded %v, want %v", s.Seq, ctx, want)
		}
	}
	if d.Epoch() != uint32(st.GTS) {
		t.Errorf("epoch %d != gTS %d", d.Epoch(), st.GTS)
	}
}

// TestTailIndirect exercises indirect tail calls (paper §5.2: "to
// handle tail calls via indirect branches ... treated as tail call"):
// the target varies per invocation, no epilogue runs, and the caller of
// the tail-containing function restores the encoding context.
func TestTailIndirect(t *testing.T) {
	b := prog.NewBuilder()
	mainF := b.Func("main")
	disp := b.Func("dispatch")
	h1 := b.Func("handler1")
	h2 := b.Func("handler2")
	md := b.CallSite(mainF, disp)
	ti := b.TailIndirectSite(disp, h1, h2)

	var d *DACCE
	var caps []*Capture
	var shadows [][]machine.ShadowFrame
	b.Body(mainF, func(x prog.Exec) {
		for i := 0; i < 30; i++ {
			x.Call(md, prog.NoFunc)
		}
		d.ForceReencode(x)
		for i := 0; i < 30; i++ {
			x.Call(md, prog.NoFunc)
		}
	})
	b.Body(disp, func(x prog.Exec) {
		tgt := h1
		if x.CallCount()%3 == 0 {
			tgt = h2
		}
		x.TailCall(ti, tgt)
	})
	grab := func(x prog.Exec) {
		th := x.(*machine.Thread)
		caps = append(caps, d.CaptureTyped(th))
		shadows = append(shadows, th.ShadowCopy())
	}
	b.Body(h1, grab)
	b.Body(h2, grab)
	p := b.MustBuild()
	d = New(p, Options{Trig: quietTriggers})
	m := machine.New(p, d, machine.Config{})
	rs, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rs.C.TailCalls != 60 {
		t.Fatalf("tail calls = %d, want 60", rs.C.TailCalls)
	}
	if len(caps) != 60 {
		t.Fatalf("captures = %d, want 60", len(caps))
	}
	for i, c := range caps {
		ctx, err := d.Decode(c)
		if err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
		want := ShadowContext(nil, shadows[i])
		if !ctx.Equal(want) {
			t.Fatalf("capture %d: decoded %v, want %v", i, ctx, want)
		}
	}
}
