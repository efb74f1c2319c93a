// Package telemetry is the live observability layer of the DACCE
// runtime: a structured event stream describing what the adaptive
// encoder does while it runs (edges discovered, re-encoding passes with
// their trigger reason, ccStack traffic, indirect-dispatch promotions,
// id overflows, tail fix-ups, decode requests), consumers of that
// stream (a metrics registry with Prometheus-style and JSON exposition,
// a Chrome trace-event exporter, a flight recorder), and the plumbing
// to compose them.
//
// Emission is pull-free and pluggable: producers hold a Sink and emit
// events through it. A nil Sink is the fast path — producers guard
// every emission with a single nil check, so an uninstrumented run pays
// one predictable branch per event site and constructs no Event values.
//
// Sinks must be safe for concurrent use: machine threads emit from
// their own goroutines. Sinks must not call back into the emitting
// encoder (events may be emitted under its internal lock).
package telemetry

import (
	"fmt"
	"sync/atomic"

	"dacce/internal/prog"
)

// Kind identifies what an Event describes.
type Kind uint8

// Event kinds. The Value/Aux fields of an Event are kind-specific; the
// meaning for each kind is documented here.
const (
	// EvEncoderInit: an encoder was created. Value is the id budget,
	// Aux the epoch-0 maxID.
	EvEncoderInit Kind = iota
	// EvEdgeDiscovered: the runtime handler saw a call edge for the
	// first time. Site/Fn name the edge; Value is the total number of
	// discovered edges including this one.
	EvEdgeDiscovered
	// EvReencodeStart: a re-encoding pass is starting. Reason carries
	// the trigger; Epoch is the epoch being left; Value is the graph's
	// edge count. The world is still running; it stops only after
	// EvReencodePrepared. Every start is paired with exactly one
	// EvReencodeEnd on the same thread.
	EvReencodeStart
	// EvReencodePrepared: a pass finished computing the new assignment
	// and decode index off-pause and is about to stop the world. Epoch
	// is the epoch being left; Value is the number of changed edges, Aux
	// the number of renumbered edges; DurNanos the prepare duration.
	EvReencodePrepared
	// EvReencodeEnd: the pass finished. Reason matches the start event;
	// Epoch is the new epoch; Value is the pass's model cost in cycles;
	// Aux is the new maxID; DurNanos the stop-the-world pause. Err marks
	// an aborted adaptive pass: another pass published an epoch while
	// this one prepared, and its triggers no longer fired, so it
	// published nothing — Epoch and Aux are the current epoch and maxID
	// and Value is 0.
	EvReencodeEnd
	// EvCCStackPush: an unencoded or recursive call pushed on the
	// ccStack. Site/Fn name the edge; Value is the depth after the push.
	EvCCStackPush
	// EvCCStackPop: an epilogue popped the ccStack. Value is the depth
	// after the pop.
	EvCCStackPop
	// EvIndirectPromoted: an indirect site outgrew its inline compare
	// chain and got the one-probe hash table (Fig. 4). Site names it;
	// Value is the number of known targets.
	EvIndirectPromoted
	// EvIDOverflow: an encoding pass exceeded the id budget and excluded
	// cold edges to fit. Value is the unrestricted maxID (saturating),
	// Aux the budget.
	EvIDOverflow
	// EvTailFixup: a function was first discovered to contain a tail
	// call and its callers were patched (§5.2). Fn names it.
	EvTailFixup
	// EvHandlerTrap: a call site invoked the runtime handler. Site/Fn
	// name the invocation.
	EvHandlerTrap
	// EvDecodeRequest: a capture was decoded (or failed to). Epoch is
	// the capture's epoch, Fn its leaf function; Err reports failure;
	// Value is the decoded context length on success.
	EvDecodeRequest
	// EvThreadStart: a machine thread started. Fn is its entry function.
	EvThreadStart
	// EvThreadExit: a machine thread finished.
	EvThreadExit
	// EvSample: a periodic sample captured a context. Value is the
	// per-thread sample sequence number.
	EvSample
	// EvDivergence: a differential checker found two context trackers
	// disagreeing about the same instant. Fn is the sampled leaf
	// function, Value the per-thread sample sequence number, Err is
	// always set (a divergence is a failure), and Aux distinguishes the
	// checker-specific divergence class.
	EvDivergence
	// EvSLOBreach: an SLO watchdog rule found its source over threshold.
	// Value is the observed value, Aux the configured maximum, Err is
	// always set (a breach is a failure). A FlightRecorder auto-dumps on
	// it, so the events leading up to the breach are preserved.
	EvSLOBreach
	// EvModuleLoad: a dlopen-style module transitioned to loaded. Value
	// is the module id.
	EvModuleLoad
	// EvModuleUnload: a module was unloaded (dlclose). Value is the
	// module id. Contexts captured in earlier epochs must remain
	// decodable after this event.
	EvModuleUnload

	// NumKinds is the number of event kinds (for per-kind tables).
	NumKinds
)

var kindNames = [NumKinds]string{
	EvEncoderInit:      "encoder_init",
	EvEdgeDiscovered:   "edge_discovered",
	EvReencodeStart:    "reencode_start",
	EvReencodePrepared: "reencode_prepared",
	EvReencodeEnd:      "reencode_end",
	EvCCStackPush:      "ccstack_push",
	EvCCStackPop:       "ccstack_pop",
	EvIndirectPromoted: "indirect_promoted",
	EvIDOverflow:       "id_overflow",
	EvTailFixup:        "tail_fixup",
	EvHandlerTrap:      "handler_trap",
	EvDecodeRequest:    "decode_request",
	EvThreadStart:      "thread_start",
	EvThreadExit:       "thread_exit",
	EvSample:           "sample",
	EvDivergence:       "divergence",
	EvSLOBreach:        "slo_breach",
	EvModuleLoad:       "module_load",
	EvModuleUnload:     "module_unload",
}

// String returns the kind's snake_case name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Reason classifies what fired an adaptive re-encoding pass (paper §4
// names three triggers; the encoder runs two, one of them through two
// counters, and forced passes come from the API). Reasons are exported
// by name (metric labels, trace and flight-recorder fields), never by
// number.
type Reason uint8

const (
	// ReasonNone: not a re-encoding event.
	ReasonNone Reason = iota
	// ReasonNewEdges is trigger (a): enough newly discovered edges.
	ReasonNewEdges
	// ReasonHotPath is trigger (b) as sampled: enough samples landed in
	// saved sub-paths a pass can encode.
	ReasonHotPath
	// ReasonUnencodedCalls is trigger (b) as counted: enough calls
	// through unencoded, non-back edges. It also covers the paper's
	// trigger (c), ccStack traffic, since that is the only traffic a
	// pass can remove.
	ReasonUnencodedCalls
	// ReasonForced: an explicit ForceReencode or ReencodeNow call.
	ReasonForced

	// NumReasons is the number of reason values.
	NumReasons
)

var reasonNames = [NumReasons]string{
	ReasonNone:           "none",
	ReasonNewEdges:       "new_edges",
	ReasonHotPath:        "hot_path",
	ReasonUnencodedCalls: "unencoded_calls",
	ReasonForced:         "forced",
}

// String returns the reason's snake_case name.
func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Event is one occurrence in the encoder's life. Kind determines which
// fields are meaningful (see the kind constants); unused fields are
// zero. Events are values — sinks may retain them.
type Event struct {
	// Kind says what happened.
	Kind Kind
	// Thread is the machine thread id the event occurred on, or -1 when
	// no thread was executing (API calls, idle re-encodes).
	Thread int32
	// Epoch is the encoder epoch (gTimeStamp) the event refers to.
	Epoch uint32
	// Site is the call site involved, or prog.NoSite.
	Site prog.SiteID
	// Fn is the function involved, or prog.NoFunc.
	Fn prog.FuncID
	// Reason is the re-encoding trigger for reencode events.
	Reason Reason
	// Err marks failures: failed decode requests, aborted re-encoding
	// passes, divergences and SLO breaches.
	Err bool
	// Value and Aux carry kind-specific quantities.
	Value uint64
	Aux   uint64
	// DurNanos is the wall-clock duration of the work the event
	// describes, in nanoseconds, or 0 when the producer does not time
	// it: re-encoding pause for EvReencodeEnd, handler latency for
	// EvHandlerTrap, decode latency for EvDecodeRequest, and sampling
	// controller latency for EvSample (set by machine.Instrument).
	DurNanos int64
}

func (e Event) String() string {
	s := fmt.Sprintf("%s t%d e%d", e.Kind, e.Thread, e.Epoch)
	if e.Site != prog.NoSite {
		s += fmt.Sprintf(" s%d", e.Site)
	}
	if e.Fn != prog.NoFunc {
		s += fmt.Sprintf(" f%d", e.Fn)
	}
	if e.Reason != ReasonNone {
		s += " " + e.Reason.String()
	}
	if e.Err {
		s += " err"
	}
	s = fmt.Sprintf("%s v=%d a=%d", s, e.Value, e.Aux)
	if e.DurNanos != 0 {
		s += fmt.Sprintf(" dur=%dns", e.DurNanos)
	}
	return s
}

// Sink consumes the event stream. Implementations must be safe for
// concurrent Emit calls and must not call back into the emitter.
type Sink interface {
	Emit(Event)
}

// CountingSink counts events per kind — the cheapest non-nil sink,
// useful as a liveness check and as the benchmark upper bound for
// emission overhead.
type CountingSink struct {
	counts [NumKinds]atomic.Int64
}

// Emit implements Sink.
func (c *CountingSink) Emit(ev Event) {
	if ev.Kind < NumKinds {
		c.counts[ev.Kind].Add(1)
	}
}

// Count returns how many events of kind k were emitted.
func (c *CountingSink) Count(k Kind) int64 {
	if k >= NumKinds {
		return 0
	}
	return c.counts[k].Load()
}

// Total returns the total number of events emitted.
func (c *CountingSink) Total() int64 {
	var n int64
	for i := range c.counts {
		n += c.counts[i].Load()
	}
	return n
}

// multiSink fans one stream out to several sinks.
type multiSink []Sink

func (m multiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// Multi composes sinks: every event goes to each of them in order. Nil
// entries are dropped; zero or one live sink collapses to itself.
func Multi(sinks ...Sink) Sink {
	var live multiSink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
