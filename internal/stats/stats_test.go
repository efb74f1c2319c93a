package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", got)
	}
	// A zero must not zero the whole mean (clamped to eps).
	if got := GeoMean([]float64{0, 4}); got <= 0 {
		t.Errorf("GeoMean with zero = %v, want > 0", got)
	}
}

func TestHistBasics(t *testing.T) {
	h := NewHist()
	if h.Max() != 0 || h.CDFAt(0) != 0 {
		t.Fatalf("empty hist: max %d, CDF(0) %v", h.Max(), h.CDFAt(0))
	}
	for _, v := range []int{0, 0, 1, 2, 2, 2, 5} {
		h.Add(v)
	}
	if h.Max() != 5 {
		t.Fatalf("max = %d", h.Max())
	}
	if got := h.CDFAt(0); math.Abs(got-2.0/7) > 1e-9 {
		t.Errorf("CDF(0) = %v", got)
	}
	if got := h.CDFAt(2); math.Abs(got-6.0/7) > 1e-9 {
		t.Errorf("CDF(2) = %v", got)
	}
	if got := h.CDFAt(5); got != 1 {
		t.Errorf("CDF(max) = %v, want 1", got)
	}
}

func TestHistCDFMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		h := NewHist()
		for _, v := range raw {
			h.Add(int(v % 64))
		}
		if len(raw) == 0 {
			return true
		}
		for v := 1; v <= h.Max(); v++ {
			if h.CDFAt(v) < h.CDFAt(v-1) {
				return false
			}
		}
		return h.CDFAt(h.Max()) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSciNotation(t *testing.T) {
	cases := []struct {
		v        uint64
		overflow bool
		want     string
	}{
		{42, false, "42"},
		{999999, false, "999999"},
		{140_000_000_000, false, "1.4E+11"},
		{0, true, "overflow"},
	}
	for _, c := range cases {
		if got := SciNotation(c.v, c.overflow); got != c.want {
			t.Errorf("SciNotation(%d,%v) = %q, want %q", c.v, c.overflow, got, c.want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.0213); got != "2.1%" {
		t.Errorf("Pct = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.Row("alpha", "1")
	tb.Row("b", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header line %q", lines[0])
	}
	// Numbers right-aligned: "1" should end both data lines' value col.
	if !strings.HasSuffix(lines[2], "1") || !strings.HasSuffix(lines[3], "22") {
		t.Errorf("alignment wrong:\n%s", out)
	}
}

func TestSeriesRendering(t *testing.T) {
	s := NewSeries("x", "y")
	s.Add(1, 0.5)
	s.Add(2, 1)
	out := s.String()
	want := "x\ty\n1\t0.5\n2\t1\n"
	if out != want {
		t.Errorf("series = %q, want %q", out, want)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
}
