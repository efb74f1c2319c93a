package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the two nearest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// resetPeakRSS restarts the kernel's peak-resident-set counter, so the
// peak read at the end of a run excludes the runner's own set-up
// (workload generation, corpus runs with retained shadow stacks). It
// reports whether the reset took effect; without it the peak covers the
// whole process lifetime.
func resetPeakRSS() bool {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, err = f.WriteString("5")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err == nil
}

// peakRSSMB returns the process's peak resident set in MiB: VmHWM from
// /proc/self/status, or getrusage's lifetime maximum where /proc is
// unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// span is one traced interval: a call into a layer's public function,
// timed from outside the program. Times are nanoseconds since the
// recorder's origin; Parent indexes the enclosing span in the same
// recorder (-1 for none); Req groups the spans of one request or round.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// spanAgg accumulates one span name: count, total duration and self
// time (duration minus the part covered by child spans).
type spanAgg struct {
	Count int64
	Total int64
	Self  int64
}

// recorder keeps spans in memory for one goroutine (it is not safe for
// concurrent use; give each goroutine its own and merge afterwards).
// Aggregates cover every span; the span log itself is capped so a long
// traced run cannot grow without bound.
type recorder struct {
	origin  time.Time
	req     int64
	log     []span
	limit   int
	dropped int64
	open    []openSpan
	agg     map[string]*spanAgg
}

type openSpan struct {
	idx   int32 // index in log, -1 when not logged
	name  string
	start time.Time
	child int64
}

func newRecorder(origin time.Time, limit int) *recorder {
	return &recorder{origin: origin, limit: limit, agg: map[string]*spanAgg{}}
}

// begin opens a span named name, nested in the innermost open span.
func (r *recorder) begin(name string) {
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1].idx
	}
	now := time.Now()
	idx := int32(-1)
	if len(r.log) < r.limit {
		idx = int32(len(r.log))
		r.log = append(r.log, span{Name: name, Start: now.Sub(r.origin).Nanoseconds(), Parent: parent, Req: r.req})
	} else {
		r.dropped++
	}
	r.open = append(r.open, openSpan{idx: idx, name: name, start: now})
}

// end closes the innermost open span and returns its duration in ns.
func (r *recorder) end() int64 {
	now := time.Now()
	n := len(r.open) - 1
	o := r.open[n]
	r.open = r.open[:n]
	dur := now.Sub(o.start).Nanoseconds()
	if o.idx >= 0 {
		r.log[o.idx].End = now.Sub(r.origin).Nanoseconds()
	}
	a := r.agg[o.name]
	if a == nil {
		a = &spanAgg{}
		r.agg[o.name] = a
	}
	a.Count++
	a.Total += dur
	a.Self += dur - o.child
	if n > 0 {
		r.open[n-1].child += dur
	}
	return dur
}

// get returns the aggregate for name (zero when never recorded).
func (r *recorder) get(name string) spanAgg {
	if a := r.agg[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// merge folds o's aggregates and span log into r (o's parents are
// re-based onto r's log).
func (r *recorder) merge(o *recorder) {
	for name, a := range o.agg {
		b := r.agg[name]
		if b == nil {
			b = &spanAgg{}
			r.agg[name] = b
		}
		b.Count += a.Count
		b.Total += a.Total
		b.Self += a.Self
	}
	base := int32(len(r.log))
	for _, s := range o.log {
		if len(r.log) >= r.limit {
			r.dropped++
			continue
		}
		if s.Parent >= 0 {
			s.Parent += base
		}
		r.log = append(r.log, s)
	}
	r.dropped += o.dropped
}

// writeSpans writes the span log as JSON lines.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.log {
		if err := enc.Encode(&r.log[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// formatLayers renders a layer → self-time breakdown with shares.
func formatLayers(layer map[string]float64, remainder, total float64) string {
	s := ""
	for _, name := range sortedKeys(layer) {
		s += fmt.Sprintf("%s=%.2fms(%.1f%%) ", name, layer[name]/1e6, 100*layer[name]/total)
	}
	return s + fmt.Sprintf("unattributed=%.2fms(%.1f%%)", remainder/1e6, 100*remainder/total)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
