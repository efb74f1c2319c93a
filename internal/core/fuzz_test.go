package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dacce/internal/machine"
	"dacce/internal/prog"
)

// fuzzEncoder builds a small program with several epochs, recursion and
// an indirect site, returning the encoder — the decode target for the
// fuzzers.
func fuzzEncoder(tb testing.TB) (*DACCE, *prog.Program) {
	tb.Helper()
	b := prog.NewBuilder()
	mainF := b.Func("main")
	f := b.Func("f")
	g := b.Func("g")
	h := b.Func("h")
	mf := b.CallSite(mainF, f)
	fg := b.CallSite(f, g)
	gf := b.CallSite(g, f) // back edge
	ind := b.IndirectSite(f, g, h)
	var d *DACCE
	b.Body(mainF, func(x prog.Exec) {
		for i := 0; i < 6; i++ {
			x.Call(mf, prog.NoFunc)
			if i == 2 || i == 4 {
				d.ForceReencode(x)
			}
		}
	})
	b.Body(f, func(x prog.Exec) {
		if x.Depth() < 8 {
			x.Call(fg, prog.NoFunc)
		}
		tgt := g
		if x.CallCount()%2 == 0 {
			tgt = h
		}
		x.Call(ind, tgt)
	})
	b.Body(g, func(x prog.Exec) {
		if x.Depth() < 8 {
			x.Call(gf, prog.NoFunc)
		}
	})
	b.Leaf(h, 1)
	p := b.MustBuild()
	d = New(p, Options{Trig: Triggers{NewEdges: 2}, CompressMinPushes: 1})
	m := machine.New(p, d, machine.Config{SampleEvery: 3, DropSamples: true})
	if _, err := m.Run(); err != nil {
		tb.Fatal(err)
	}
	return d, p
}

// captureFromBytes deterministically maps fuzz input onto a capture.
func captureFromBytes(data []byte) *Capture {
	if len(data) < 12 {
		return nil
	}
	rd := bytes.NewReader(data)
	u64 := func() uint64 {
		var v uint64
		binary.Read(rd, binary.LittleEndian, &v)
		return v
	}
	u8 := func() uint8 {
		b, _ := rd.ReadByte()
		return b
	}
	c := &Capture{
		Epoch: uint32(u8()) % 8,
		ID:    u64(),
		Fn:    prog.FuncID(int32(u8()) - 2),
		Root:  prog.FuncID(int32(u8()) - 2),
	}
	n := int(u8()) % 12
	for i := 0; i < n; i++ {
		c.CC = append(c.CC, CCEntry{
			ID:     u64(),
			Site:   prog.SiteID(int32(u8()) - 2),
			Target: prog.FuncID(int32(u8()) - 2),
			Count:  uint32(u8()) % 64,
			Rec:    u8()%2 == 0,
		})
	}
	return c
}

// FuzzDecodeArbitraryCapture feeds arbitrary (mostly corrupt) captures
// to the decoder: it must return errors, never panic or loop.
func FuzzDecodeArbitraryCapture(f *testing.F) {
	d, _ := fuzzEncoder(f)
	f.Add([]byte("seed-capture-material-000000000000000000"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(bytes.Repeat([]byte{0x01, 0x80, 0x00}, 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := captureFromBytes(data)
		if c == nil {
			return
		}
		ctx, err := d.Decode(c)
		if err == nil && len(ctx) == 0 {
			t.Error("successful decode returned empty context")
		}
	})
}

// TestDecodeRejectsCorruption pins specific corruption classes.
func TestDecodeRejectsCorruption(t *testing.T) {
	d, p := fuzzEncoder(t)
	nf := prog.FuncID(p.NumFuncs())
	ns := prog.SiteID(p.NumSites())
	bad := []*Capture{
		{Epoch: 99, ID: 0, Fn: 0, Root: 0},                                                // unknown epoch
		{Epoch: 0, ID: 0, Fn: nf, Root: 0},                                                // fn out of range
		{Epoch: 0, ID: 0, Fn: 0, Root: -2},                                                // root out of range
		{Epoch: 0, ID: 1 << 60, Fn: 0, Root: 0},                                           // id far out of range
		{Epoch: 0, ID: 0, Fn: 0, Root: 0, CC: []CCEntry{{Site: ns}}},                      // bad site
		{Epoch: 0, ID: 0, Fn: 0, Root: 0, CC: []CCEntry{{Target: -5}}},                    // bad target
		{Epoch: 1, ID: 3, Fn: 3, Root: 0, CC: []CCEntry{{ID: 9999, Count: 3, Rec: true}}}, // nonsense entry
	}
	for i, c := range bad {
		if _, err := d.Decode(c); err == nil {
			t.Errorf("corrupt capture %d decoded without error: %v", i, c)
		}
	}
}
