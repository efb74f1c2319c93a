package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"dacce/internal/prog"
)

// maxTrackedSites bounds the per-site handler-hit map so a pathological
// program cannot grow the sink without bound.
const maxTrackedSites = 1 << 12

// topSites is how many hottest handler sites are exposed as labeled
// gauges in the exposition.
const topSites = 8

// Metrics is a Sink that aggregates the event stream into a Registry:
// counters for every discrete event, per-trigger re-encode counts, a
// ccStack depth histogram, a per-pass re-encode cost histogram, and
// gauges for epoch, maxID and the id budget ("ids consumed vs budget").
type Metrics struct {
	reg *Registry

	edges      *Counter
	reencode   [NumReasons]*Counter
	push, pop  *Counter
	depth      *Histogram
	cost       *Histogram
	promoted   *Counter
	overflow   *Counter
	fixups     *Counter
	traps      *Counter
	decodeOK   *Counter
	decodeErr  *Counter
	started    *Counter
	exited     *Counter
	samples    *Counter
	divergence *Counter
	sloBreach  *Counter

	pauseNs  *Histogram
	trapNs   *Histogram
	decodeNs *Histogram
	sampleNs *Histogram

	epoch  *Gauge
	maxID  *Gauge
	budget *Gauge

	siteMu   sync.Mutex
	siteHits map[prog.SiteID]int64
}

// NewMetrics returns a metrics sink over a fresh registry.
func NewMetrics() *Metrics {
	reg := NewRegistry()
	m := &Metrics{
		reg:        reg,
		edges:      reg.Counter("dacce_edges_discovered_total"),
		push:       reg.Counter("dacce_ccstack_push_total"),
		pop:        reg.Counter("dacce_ccstack_pop_total"),
		depth:      reg.Histogram("dacce_ccstack_depth", ExpBuckets(1, 2, 11)),
		cost:       reg.Histogram("dacce_reencode_cost_cycles", ExpBuckets(1<<10, 4, 11)),
		promoted:   reg.Counter("dacce_indirect_promoted_total"),
		overflow:   reg.Counter("dacce_id_overflow_total"),
		fixups:     reg.Counter("dacce_tail_fixup_total"),
		traps:      reg.Counter("dacce_handler_traps_total"),
		decodeOK:   reg.Counter("dacce_decode_requests_total", "outcome", "ok"),
		decodeErr:  reg.Counter("dacce_decode_requests_total", "outcome", "error"),
		started:    reg.Counter("dacce_threads_started_total"),
		exited:     reg.Counter("dacce_threads_exited_total"),
		samples:    reg.Counter("dacce_samples_total"),
		divergence: reg.Counter("dacce_divergences_total"),
		sloBreach:  reg.Counter("dacce_slo_breach_total"),
		pauseNs:    reg.Histogram("dacce_reencode_pause_ns", DurationBuckets()),
		trapNs:     reg.Histogram("dacce_trap_latency_ns", DurationBuckets()),
		decodeNs:   reg.Histogram("dacce_decode_latency_ns", DurationBuckets()),
		sampleNs:   reg.Histogram("dacce_sample_latency_ns", DurationBuckets()),
		epoch:      reg.Gauge("dacce_epoch"),
		maxID:      reg.Gauge("dacce_max_id"),
		budget:     reg.Gauge("dacce_id_budget"),
		siteHits:   make(map[prog.SiteID]int64),
	}
	for r := Reason(0); r < NumReasons; r++ {
		if r == ReasonNone {
			continue
		}
		m.reencode[r] = reg.Counter("dacce_reencode_total", "reason", r.String())
	}
	reg.Help("dacce_edges_discovered_total", "Call edges first seen by the runtime handler.")
	reg.Help("dacce_reencode_total", "Adaptive re-encoding passes by trigger reason.")
	reg.Help("dacce_ccstack_push_total", "ccStack pushes by unencoded or recursive calls.")
	reg.Help("dacce_ccstack_pop_total", "ccStack pops by call epilogues.")
	reg.Help("dacce_ccstack_depth", "ccStack depth observed at each push.")
	reg.Help("dacce_indirect_promoted_total", "Indirect sites promoted from the inline compare chain to hash dispatch.")
	reg.Help("dacce_id_overflow_total", "Encoding passes that exceeded the id budget and excluded cold edges.")
	reg.Help("dacce_tail_fixup_total", "Functions found to make a tail call, whose callers were patched.")
	reg.Help("dacce_handler_traps_total", "Call-site invocations of the runtime handler.")
	reg.Help("dacce_handler_sites", fmt.Sprintf("Distinct call sites that trapped into the runtime handler (at most %d tracked).", maxTrackedSites))
	reg.Help("dacce_handler_hits", "Runtime-handler traps at each of the hottest trapping sites.")
	reg.Help("dacce_decode_requests_total", "External decode requests by outcome.")
	reg.Help("dacce_threads_started_total", "Machine threads started.")
	reg.Help("dacce_threads_exited_total", "Machine threads finished.")
	reg.Help("dacce_samples_total", "Periodic samples that captured a context.")
	reg.Help("dacce_epoch", "Current encoding epoch (gTimeStamp).")
	reg.Help("dacce_reencode_cost_cycles", "Model cost of each re-encoding pass.")
	reg.Help("dacce_max_id", "Maximum context id of the current epoch.")
	reg.Help("dacce_id_budget", "Configured context-id budget.")
	reg.Help("dacce_divergences_total", "Cross-encoder divergences found by the differential checker.")
	reg.Help("dacce_slo_breach_total", "SLO watchdog rules found over threshold.")
	reg.Help("dacce_reencode_pause_ns", "Stop-the-world pause of each re-encoding pass (wall ns).")
	reg.Help("dacce_trap_latency_ns", "Runtime-handler trap latency (wall ns).")
	reg.Help("dacce_decode_latency_ns", "External decode-request latency (wall ns).")
	reg.Help("dacce_sample_latency_ns", "Sampling-controller latency per sample (wall ns).")
	return m
}

// Registry returns the backing registry, for composing extra metrics.
func (m *Metrics) Registry() *Registry { return m.reg }

// Emit implements Sink.
func (m *Metrics) Emit(ev Event) {
	switch ev.Kind {
	case EvEncoderInit:
		m.budget.SetUint(ev.Value)
		m.maxID.SetUint(ev.Aux)
	case EvEdgeDiscovered:
		m.edges.Inc()
	case EvReencodeStart:
		// Counted at end so aborted passes never show.
	case EvReencodeEnd:
		if ev.Err {
			return // aborted: the pass published no epoch
		}
		if c := m.reencode[ev.Reason]; c != nil {
			c.Inc()
		}
		m.cost.Observe(int64(ev.Value))
		m.epoch.Set(int64(ev.Epoch))
		m.maxID.SetUint(ev.Aux)
		if ev.DurNanos > 0 {
			m.pauseNs.Observe(ev.DurNanos)
		}
	case EvCCStackPush:
		m.push.Inc()
		m.depth.Observe(int64(ev.Value))
	case EvCCStackPop:
		m.pop.Inc()
	case EvIndirectPromoted:
		m.promoted.Inc()
	case EvIDOverflow:
		m.overflow.Inc()
	case EvTailFixup:
		m.fixups.Inc()
	case EvHandlerTrap:
		m.traps.Inc()
		if ev.DurNanos > 0 {
			m.trapNs.Observe(ev.DurNanos)
		}
		m.siteMu.Lock()
		if _, ok := m.siteHits[ev.Site]; ok || len(m.siteHits) < maxTrackedSites {
			m.siteHits[ev.Site]++
		}
		m.siteMu.Unlock()
	case EvDecodeRequest:
		if ev.Err {
			m.decodeErr.Inc()
		} else {
			m.decodeOK.Inc()
		}
		if ev.DurNanos > 0 {
			m.decodeNs.Observe(ev.DurNanos)
		}
	case EvThreadStart:
		m.started.Inc()
	case EvThreadExit:
		m.exited.Inc()
	case EvSample:
		m.samples.Inc()
		if ev.DurNanos > 0 {
			m.sampleNs.Observe(ev.DurNanos)
		}
	case EvDivergence:
		m.divergence.Inc()
	case EvSLOBreach:
		m.sloBreach.Inc()
	}
}

// syncDerived publishes metrics computed from accumulated state: the
// hottest handler sites as labeled gauges.
func (m *Metrics) syncDerived() {
	m.siteMu.Lock()
	type hit struct {
		site prog.SiteID
		n    int64
	}
	hits := make([]hit, 0, len(m.siteHits))
	for s, n := range m.siteHits {
		hits = append(hits, hit{s, n})
	}
	m.siteMu.Unlock()
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].n != hits[j].n {
			return hits[i].n > hits[j].n
		}
		return hits[i].site < hits[j].site
	})
	m.reg.Gauge("dacce_handler_sites").Set(int64(len(hits)))
	for i := 0; i < topSites && i < len(hits); i++ {
		m.reg.Gauge("dacce_handler_hits", "site", fmt.Sprintf("s%d", hits[i].site)).Set(hits[i].n)
	}
}

// WritePrometheus renders the current metrics in the Prometheus text
// exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	m.syncDerived()
	return m.reg.WritePrometheus(w)
}

// WriteJSON renders the current metrics as JSON.
func (m *Metrics) WriteJSON(w io.Writer) error {
	m.syncDerived()
	return m.reg.WriteJSON(w)
}
