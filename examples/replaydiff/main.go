// replaydiff records one run's exact call event stream, then replays
// the identical stream under every calling-context scheme — the fairest
// possible comparison, with zero run-to-run variance. It prints the
// cost-model overhead ladder: nothing < PCC < encoders < CCT, with
// stack walking cheap to run but expensive per capture.
package main

import (
	"fmt"
	"log"

	"dacce"
)

func main() {
	pr, ok := dacce.BenchmarkByName("456.hmmer")
	if !ok {
		log.Fatal("unknown benchmark")
	}
	pr.TotalCalls = 150_000
	w, err := dacce.BuildWorkload(pr)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Record.
	rec := dacce.NewTraceRecorder()
	m := dacce.NewMachine(w.P, rec, dacce.MachineConfig{Seed: pr.Seed + 1})
	if _, err := m.Run(); err != nil {
		log.Fatal(err)
	}
	tr := rec.Trace()
	tr.SyntheticWork = w.WorkPerCall() // replays re-add the application work
	fmt.Printf("recorded %s: %d threads, %d events\n\n", pr.Name, tr.NumThreads(), tr.NumEvents())

	// 2. Replay under each scheme.
	prof, err := w.CollectProfile()
	if err != nil {
		log.Fatal(err)
	}

	type entry struct {
		name string
		mk   func(p *dacce.Program) dacce.Scheme
	}
	schemes := []entry{
		{"null", func(p *dacce.Program) dacce.Scheme { return dacce.NullScheme{} }},
		{"pcc", func(p *dacce.Program) dacce.Scheme { return dacce.NewPCC() }},
		{"stackwalk", func(p *dacce.Program) dacce.Scheme { return dacce.NewStackWalk() }},
		{"dacce", func(p *dacce.Program) dacce.Scheme { return dacce.NewEncoder(p, dacce.Options{}) }},
		{"pcce", func(p *dacce.Program) dacce.Scheme { return dacce.NewPCCE(p, prof, dacce.PCCEOptions{}) }},
		{"cct", func(p *dacce.Program) dacce.Scheme { return dacce.NewCCT() }},
	}

	fmt.Printf("%-12s %10s %12s %12s\n", "scheme", "overhead", "instrCycles", "ccStackOps")
	for _, e := range schemes {
		// Each replay needs a fresh program copy: replay cursors are
		// stateful per run.
		rp2, err := dacce.ReplayProgram(w.P, tr)
		if err != nil {
			log.Fatal(err)
		}
		m := dacce.NewMachine(rp2, e.mk(rp2), dacce.MachineConfig{SampleEvery: 256, DropSamples: true})
		rs, err := m.Run()
		if err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		fmt.Printf("%-12s %9.2f%% %12d %12d\n",
			e.name, 100*rs.Overhead(), rs.C.InstrCost, rs.C.CCOps())
	}
	fmt.Println("\nevery scheme observed the identical call stream — differences are pure instrumentation cost")
}
