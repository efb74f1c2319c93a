package experiments

import (
	"fmt"
	"io"

	"dacce/internal/stats"
	"dacce/internal/workload"
)

// LastGeneratedHeading heads the last section WriteReport writes.
const LastGeneratedHeading = "## Figure 10 — cumulative stack-depth distributions"

// WriteReport runs the full evaluation and writes the generated part of
// EXPERIMENTS.md to w: paper-versus-measured for Table 1 and Figures 8–10, with the headline
// checks computed from the data. progress receives per-benchmark status
// lines.
//
// The report ends with the section headed LastGeneratedHeading; a report
// file continues with hand-written sections, which cmd/daccebench's
// report command carries over when it regenerates the file.
func WriteReport(w io.Writer, cfg RunConfig, progress io.Writer) error {
	cfg.fill()
	rows, err := Table1(workload.Profiles(), cfg, progress)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, `# EXPERIMENTS — paper vs. measured

Reproduction of the evaluation of *Dynamic and Adaptive Calling Context
Encoding* (CGO 2014) on the synthetic workload substrate described in
DESIGN.md. Absolute numbers are not expected to match — the paper ran
SPEC CPU2006 (ref) and Parsec 2.1 (native) for minutes on a Xeon
E7-4807 under binary instrumentation; this repository runs calibrated
synthetic workloads for milliseconds of model time under a documented
cost model. What must match is the *shape*: who wins, by roughly what
factor, and where the qualitative crossovers fall. Divergences and
their causes are listed per experiment.

Regenerate this header and the Table 1 and Figure 8–10 sections with:

    go run ./cmd/daccebench report -calls %d

The command rewrites only those; the sections after Figure 10 are
written by hand and kept byte for byte.

`, cfg.Calls)

	writeTable1Section(w, rows)
	writeFig8Section(w, rows)
	if err := writeFig9Section(w, cfg); err != nil {
		return err
	}
	if err := writeFig10Section(w, cfg, rows); err != nil {
		return err
	}
	return nil
}

func writeTable1Section(w io.Writer, rows []*BenchResult) {
	fmt.Fprintf(w, `## Table 1 — benchmark characteristics under PCCE and DACCE

Paper columns per benchmark: static graph size and maxID under PCCE;
dynamic graph size, maxID, ccStack rate/depth, re-encoding count (gTS)
and re-encoding cost under DACCE; call rate.

| benchmark | paper PCCE N/E | meas. PCCE N/E | paper DACCE N/E | meas. DACCE N/E | paper dMaxID | meas. dMaxID | paper gTS | meas. gTS | meas. costs(µs) | paper depth | meas. depth |
|---|---|---|---|---|---|---|---|---|---|---|---|
`)
	for _, r := range rows {
		p := r.Paper
		fmt.Fprintf(w, "| %s | %d/%d | %d/%d | %d/%d | %d/%d | — | %s | %d | %d | %.0f | %.2f | %.2f |\n",
			r.Profile.Name,
			p.PCCENodes, p.PCCEEdges, r.PCCE.Nodes, r.PCCE.Edges,
			p.DACCENodes, p.DACCEEdges, r.DACCE.Nodes, r.DACCE.Edges,
			stats.SciNotation(r.DACCE.MaxID, false),
			p.GTS, r.DACCE.GTS, r.DACCE.CostUs, p.Depth, r.DACCE.CCDepth)
	}

	// Headline checks.
	smallerNodes, smallerMaxID, overflows := 0, 0, 0
	for _, r := range rows {
		if r.DACCE.Nodes < r.PCCE.Nodes && r.DACCE.Edges < r.PCCE.Edges {
			smallerNodes++
		}
		if r.PCCE.Overflow || r.DACCE.MaxID < r.PCCE.MaxID {
			smallerMaxID++
		}
		if r.PCCE.Overflow {
			overflows++
		}
	}
	fmt.Fprintf(w, `
**Shape checks.** Dynamic graph strictly smaller than static on
%d/%d benchmarks (paper: all); DACCE maxID below PCCE's on %d/%d
(paper: all); PCCE's unrestricted encoding overflows 64-bit ids on
%d benchmarks (paper: 2 — 400.perlbench and 403.gcc; here the
points-to-inflated static graphs of the other indirect-heavy benchmarks
also overflow, because the synthetic declared-target fan multiplies
paths somewhat more aggressively than the originals' — same mechanism,
wider blast radius). Static nodes/edges match the paper by
construction (the generator is calibrated to them); the dynamic graph
is *discovered*, so measured DACCE nodes/edges landing within ~±20%%
of the paper's confirms the executed-core calibration. gTS counts land
in the paper's range (single digits for stable benchmarks, tens to ~100
for phase-heavy ones). The costs column is the summed model cost of
all passes (DESIGN.md §6). A pass fired by edge discovery alone
renumbers incrementally, so most passes are priced by the changed
region, not the whole graph; passes fired by a hot unencoded path
still pay for a full renumbering. The PARSEC rows run several machine
threads, so their gTS, maxID, costs and depth change from run to run
(the table is one run); the SPEC rows repeat exactly.

`, smallerNodes, len(rows), smallerMaxID, len(rows), overflows)
}

func writeFig8Section(w io.Writer, rows []*BenchResult) {
	fmt.Fprintf(w, `## Figure 8 — runtime overhead, PCCE vs DACCE

Overhead here is the cost model's steady-state instrumentation overhead
(DESIGN.md §6): per-call instrumentation cycles over application
cycles, measured after the one-time discovery warm-up, with re-encoding
cost accounted separately (it is Table 1's "costs" column; over the
paper's minute-long runs it amortizes below 0.1%%, which a
millisecond-long model run cannot reproduce by summation).

| benchmark | PCCE | DACCE | winner |
|---|---|---|---|
`)
	var po, do []float64
	dacceWins, measurable := 0, 0
	for _, r := range rows {
		winner := "—"
		if r.PCCE.Overhead >= 0.005 || r.DACCE.Overhead >= 0.005 {
			measurable++
			if r.PCCE.Overhead < r.DACCE.Overhead {
				winner = "PCCE"
			} else {
				winner = "DACCE"
				dacceWins++
			}
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s |\n", r.Profile.Name,
			stats.Pct(r.PCCE.Overhead), stats.Pct(r.DACCE.Overhead), winner)
		po = append(po, r.PCCE.Overhead)
		do = append(do, r.DACCE.Overhead)
	}
	gp, gd := overheadGeoMean(po), overheadGeoMean(do)
	fmt.Fprintf(w, "| **geomean** | **%s** | **%s** | |\n", stats.Pct(gp), stats.Pct(gd))
	fmt.Fprintf(w, `
Geomeans floor each benchmark at 0.2%% — many low-call-rate benchmarks
measure ≈0%% for both schemes, and a geometric mean over true zeros is
meaningless.

**Paper:** geomean ≈ 2.5%% (PCCE) vs ≈ 2%% (DACCE); DACCE clearly ahead
on 400.perlbench, 483.xalancbmk and x264; PCCE slightly ahead on
458.sjeng, 433.milc, 434.zeusmp.

**Measured:** geomean %s (PCCE) vs %s (DACCE); among the %d benchmarks
with measurable (≥0.5%%) overhead, DACCE is ahead on %d — the rest tie
at ≈0%% because their per-call application work dwarfs any
instrumentation (the paper's low bars).
The showcase benchmarks reproduce: 400.perlbench (false back edges
from cold static cycles push PCCE onto the ccStack), 445.gobmk and
453.povray, and x264 (PCCE's inline compare chain over many indirect
targets vs DACCE's one-probe hash); 458.sjeng goes to PCCE exactly as
in the paper (static profiling is representative there, and DACCE pays
for its dynamic profiling). Known divergences: 483.xalancbmk is a
near-tie here instead of a DACCE win — our synthetic run is too short
for its late edge discovery to amortize fully — and on milc/zeusmp the
paper shows DACCE marginally *worse* while both round to ~0%% here,
because the model prices DACCE's dynamic profiling but not the
microarchitectural side effects of dynamic binary patching.

`, stats.Pct(gp), stats.Pct(gd), measurable, dacceWins)
}

func writeFig9Section(w io.Writer, cfg RunConfig) error {
	fmt.Fprintf(w, `## Figure 9 — progress of encoding over time

The paper plots, for 445.gobmk / 483.xalancbmk / 458.sjeng / 433.milc,
the number of encoded nodes/edges and the maximum context id per sample
tick: re-encoding fires frequently at the beginning, the encoding
reaches a steady state quickly, and later adjustments track new call
paths and hot-path changes.

`)
	for _, name := range Fig9Names {
		s, err := Fig9(name, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "### %s\n\n```\n%s```\n\n", name, s.String())
	}
	fmt.Fprintf(w, `**Shape check.** In every series the node/edge counts rise steeply in
the first few samples and flatten (the epoch column shows the same
early clustering of re-encodings the paper describes); maxID moves with
the discovered graph. The paper's 483.xalancbmk anecdote — maxID
*decreasing* after a re-encoding when a newly found cycle turned an
encoded edge into a back edge — is possible in this implementation for
the same reason (back edges are dropped from the numbering each pass)
and visible in some seeds as a non-monotone maxID step.

`)
	return nil
}

func writeFig10Section(w io.Writer, cfg RunConfig, rows []*BenchResult) error {
	fmt.Fprintf(w, LastGeneratedHeading+`

The paper plots, for x264 / 445.gobmk / 459.GemsFDTD / 483.xalancbmk,
the CDF of the call-stack depth and of the ccStack depth at sampled
context instances.

`)
	for _, name := range Fig10Names {
		s, err := Fig10(name, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "### %s\n\n```\n%s```\n\n", name, s.String())
	}
	fmt.Fprintf(w, `**Shape check.** For most benchmarks (459.GemsFDTD typical) the
ccStack CDF is at ~100%% by depth 0–1 — contexts fit in the single id —
while the call-stack CDF climbs gradually; that is the paper's central
claim about encoding compactness. The recursion-heavy pair keeps a
ccStack tail: 483.xalancbmk's ccStack CDF reaches 100%% only at depth
tens (paper: ~44 with adaptive encoding), and its call-stack depth has
much larger magnitude than the others, as in the paper (we do not reach
the paper's extreme ~7200-frame xalancbmk stacks — the synthetic
recursion is depth-bounded — but the ordering and the
"ccStack ≪ call stack" gap reproduce).
`)
	return nil
}
