package telemetry

import (
	"sync"
	"time"

	"dacce/internal/prog"
)

// SLORule is one watched invariant: Source is sampled at every check
// and a reading above Max is a breach. Sources are pull-based so rules
// can watch quantiles (recomputed from live bucket counts), backlogs or
// any other instantaneous reading without coupling the watchdog to the
// producer.
type SLORule struct {
	// Name labels the rule in breach reports and metrics.
	Name string
	// Source returns the current reading.
	Source func() int64
	// Max is the largest acceptable reading.
	Max int64
}

// QuantileSource adapts a histogram quantile into an SLORule source.
func QuantileSource(h *Histogram, q float64) func() int64 {
	return func() int64 { return h.Quantile(q) }
}

// GaugeSource adapts a gauge into an SLORule source.
func GaugeSource(g *Gauge) func() int64 {
	return func() int64 { return g.Value() }
}

// Breach reports one rule found over threshold by a check.
type Breach struct {
	Rule  string `json:"rule"`
	Value int64  `json:"value"`
	Max   int64  `json:"max"`
}

// Watchdog evaluates SLO rules against live readings. Every breached
// rule emits an EvSLOBreach event into the sink — wiring a
// FlightRecorder in gives the auto-dump: the ring holding the events
// that led up to the breach is written out the moment the threshold is
// crossed. A per-rule cooldown keeps a persistently-breached rule from
// flooding the stream with one event (and one dump) per check.
type Watchdog struct {
	mu       sync.Mutex
	rules    []SLORule
	sink     Sink
	cooldown time.Duration
	lastFire []time.Time
	breaches []int64
}

// DefaultSLOCooldown is the default minimum spacing between two breach
// emissions of the same rule.
const DefaultSLOCooldown = 10 * time.Second

// NewWatchdog returns a watchdog emitting breaches into sink (which may
// be nil: Check still reports breaches to its caller).
func NewWatchdog(sink Sink) *Watchdog {
	return &Watchdog{sink: sink, cooldown: DefaultSLOCooldown}
}

// SetCooldown overrides the per-rule emission cooldown; 0 disables it.
func (w *Watchdog) SetCooldown(d time.Duration) {
	w.mu.Lock()
	w.cooldown = d
	w.mu.Unlock()
}

// Add registers a rule. Rules with a nil source or a non-positive
// threshold are ignored, so callers can pass optional thresholds
// straight from flag values.
func (w *Watchdog) Add(r SLORule) {
	if r.Source == nil || r.Max <= 0 {
		return
	}
	w.mu.Lock()
	w.rules = append(w.rules, r)
	w.lastFire = append(w.lastFire, time.Time{})
	w.breaches = append(w.breaches, 0)
	w.mu.Unlock()
}

// NumRules returns how many rules are registered.
func (w *Watchdog) NumRules() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.rules)
}

// Check samples every rule once and returns the rules found over
// threshold. Each breach past its cooldown is emitted as an EvSLOBreach
// into the sink.
func (w *Watchdog) Check() []Breach {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []Breach
	now := time.Now()
	for i := range w.rules {
		r := &w.rules[i]
		v := r.Source()
		if v <= r.Max {
			continue
		}
		out = append(out, Breach{Rule: r.Name, Value: v, Max: r.Max})
		w.breaches[i]++
		if w.sink == nil || (w.cooldown > 0 && now.Sub(w.lastFire[i]) < w.cooldown) {
			continue
		}
		w.lastFire[i] = now
		w.sink.Emit(Event{
			Kind: EvSLOBreach, Thread: -1,
			Site: prog.NoSite, Fn: prog.NoFunc,
			Err: true, Value: uint64(v), Aux: uint64(r.Max),
		})
	}
	return out
}

// Breaches returns the total breach count per rule name (including
// breaches suppressed by the cooldown).
func (w *Watchdog) Breaches() map[string]int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]int64, len(w.rules))
	for i := range w.rules {
		out[w.rules[i].Name] += w.breaches[i]
	}
	return out
}

// Watch runs Check every interval on a background goroutine until the
// returned stop function is called. Stop waits for the goroutine to
// exit, so no Check runs or emits after it returns, and it is
// idempotent.
func (w *Watchdog) Watch(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	var once sync.Once
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				w.Check()
			case <-done:
				return
			}
		}
	}()
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}
