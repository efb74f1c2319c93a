package main

// metricDef names one metric. README.md defines each.
type metricDef struct {
	Name   string
	Unit   string
	Better string // end-to-end only: "lower" or "higher"
}

// endToEnd is every metric a --trace 0 run reports in its result line,
// on every workload: the metrics BENCHMARK.json bounds. Each cancels or
// averages out the host's drift, or (setup_s) is a median of repeated
// set-ups.
var endToEnd = []metricDef{
	{Name: "slowdown", Unit: "ratio", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "rss_mb", Unit: "MiB", Better: "lower"},
}

// reported is every further metric a --trace 0 run measures and prints
// (envelope and report, with sample counts) but does not bound: they
// are absolute rates and latencies, and on a shared 2-vCPU host their
// run-to-run spread is wider than any bound BENCHMARK.json allows.
var reported = []metricDef{
	{Name: "decode_per_s", Unit: "1/s"},
	{Name: "req_p50_us", Unit: "us"},
	{Name: "req_p90_us", Unit: "us"},
}

// perLayer is every metric a --trace 1 run reports, on every workload.
// A layer that is off a workload's measured path is still measured, on
// that workload's own program and captures, so no value is a
// placeholder. README.md maps each to the end-to-end metric it should
// move, the workloads where it does the work and where it stays flat.
var perLayer = []metricDef{
	{Name: "machine.calls", Unit: "count"},
	{Name: "machine.samples", Unit: "count"},
	{Name: "machine.call_ns", Unit: "ns"},
	{Name: "machine.cc_ops_per_call", Unit: "ops/call"},
	{Name: "machine.traps", Unit: "count"},
	{Name: "machine.patches", Unit: "count"},
	{Name: "core.instr_ns", Unit: "ns"},
	{Name: "core.sample_ns", Unit: "ns"},
	{Name: "core.trap_ns_p50", Unit: "ns"},
	{Name: "core.passes", Unit: "count"},
	{Name: "core.pause_us_p50", Unit: "us"},
	{Name: "core.pause_us_p90", Unit: "us"},
	{Name: "core.stw_frac", Unit: "ratio"},
	{Name: "core.prepare_ms", Unit: "ms"},
	{Name: "blenc.renumber_ms", Unit: "ms"},
	{Name: "core.index_ms", Unit: "ms"},
	{Name: "core.stub_ms", Unit: "ms"},
	{Name: "core.translate_ms", Unit: "ms"},
	{Name: "ccdag.intern_hit_rate", Unit: "ratio"},
	{Name: "ccdag.collected", Unit: "count"},
	{Name: "ccprof.observe_ns", Unit: "ns"},
	{Name: "persist.unmarshal_ms", Unit: "ms"},
	{Name: "core.restore_ms", Unit: "ms"},
	{Name: "core.new_decoder_ms", Unit: "ms"},
	{Name: "core.decode_ns", Unit: "ns"},
	{Name: "core.materialize_ns", Unit: "ns"},
	{Name: "server.wire_decode_ns", Unit: "ns"},
	{Name: "server.wire_encode_ns", Unit: "ns"},
	{Name: "server.req_bytes", Unit: "B"},
	{Name: "server.resp_bytes", Unit: "B"},
	{Name: "server.handler_us", Unit: "us"},
	{Name: "server.roundtrip_us", Unit: "us"},
	{Name: "server.memo_hit_rate", Unit: "ratio"},
	{Name: "server.retire_ms", Unit: "ms"},
	{Name: "server.rejected", Unit: "count"},
	{Name: "trace.unattributed_frac", Unit: "ratio"},
	{Name: "trace.overhead_frac", Unit: "ratio"},
}
