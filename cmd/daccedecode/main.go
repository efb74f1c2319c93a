// Command daccedecode decodes captured calling contexts offline, from
// the encoder snapshot and the capture file `daccerun -dump` writes —
// the error-reporting pipeline of the paper's §1: the instrumented
// process ships tiny (id, ccStack) records; the analyst decodes them
// later against the per-epoch dictionaries.
//
//	daccerun -bench 445.gobmk -dump /tmp/run        # writes state.snap + captures.json
//	daccedecode -dir /tmp/run [-n 10]
//
// With -remote the captures are posted to a dacced decode server
// instead of being decoded in-process; the output lines are identical,
// so `daccedecode -remote` can be diffed against a local decode. A bare
// -tenant name is pinned to the dump's encoding (NAME@hash of
// state.snap), so a server holding another generation of the name
// answers 404 instead of decoding against the wrong dictionaries.
//
//	daccedecode -dir /tmp/run -remote http://localhost:8357 -tenant myprog
//
// -ccprof-out aggregates every decoded context into a calling-context
// profile and writes it (pprof protobuf, or folded text when the name
// ends in .folded) — the offline twin of the live /debug/ccprof
// endpoint, for dumps collected without a profiler attached.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dacce/internal/ccprof"
	"dacce/internal/cliutil"
	"dacce/internal/core"
	"dacce/internal/persist"
	"dacce/internal/prog"
	"dacce/internal/server"
)

// remoteBatch bounds how many captures each /v1/decode request carries;
// remoteTimeout bounds each request attempt.
const (
	remoteBatch   = 512
	remoteTimeout = 30 * time.Second
)

func main() {
	dir := flag.String("dir", "", "directory holding state.snap and captures.json (daccerun -dump)")
	n := flag.Int("n", 0, "decode only the first n captures (0 = all)")
	tree := flag.Bool("tree", false, "aggregate all captures into a calling-context profile tree instead of listing them")
	remote := flag.String("remote", "", "decode via a dacced server at this base URL instead of in-process")
	tenant := flag.String("tenant", "", "tenant name or name@hash for -remote; a bare name is pinned to the hash of the dump's state.snap")
	ccprofOut := flag.String("ccprof-out", "", "aggregate the decoded contexts into a profile and write it to this file (pprof protobuf; folded text for .folded names)")
	version := cliutil.AddVersion(flag.CommandLine)
	flag.Parse()
	if *version {
		cliutil.PrintVersion("daccedecode")
		return
	}
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "usage: daccedecode -dir <dump-dir> [-n N] [-tree] [-ccprof-out file] [-remote URL -tenant NAME]")
		os.Exit(2)
	}
	if *remote != "" && *tree {
		fmt.Fprintln(os.Stderr, "daccedecode: -remote and -tree are mutually exclusive")
		os.Exit(2)
	}
	if *remote != "" && *ccprofOut != "" {
		fmt.Fprintln(os.Stderr, "daccedecode: -ccprof-out needs the local decode (drop -remote)")
		os.Exit(2)
	}
	if *remote != "" && *tenant == "" {
		fmt.Fprintln(os.Stderr, "daccedecode: -remote requires -tenant")
		os.Exit(2)
	}
	if err := run(os.Stdout, *dir, *n, *tree, *remote, *tenant, *ccprofOut); err != nil {
		fmt.Fprintln(os.Stderr, "daccedecode:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, dir string, n int, tree bool, remote, tenant, ccprofOut string) error {
	captures, err := readCaptures(dir)
	if err != nil {
		return err
	}
	if n > 0 && n < len(captures) {
		captures = captures[:n]
	}
	snapPath := filepath.Join(dir, "state.snap")

	if remote != "" {
		if !strings.Contains(tenant, "@") {
			data, err := os.ReadFile(snapPath)
			if err != nil {
				return err
			}
			tenant += "@" + persist.Hash(data)
		}
		return runRemote(out, remote, tenant, captures)
	}

	st, err := persist.Load(snapPath)
	if err != nil {
		return err
	}
	dec, err := st.NewDecoder()
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "snapshot: %d funcs, %d edges, %d epochs; decoding %d captures\n\n",
		len(st.Funcs), len(st.Edges), len(st.Epochs), len(captures))

	// -ccprof-out aggregates into a profile in either print mode; -tree
	// prints the same aggregation as a tree.
	var prof *ccprof.Profile
	if tree || ccprofOut != "" {
		prof = ccprof.New(dec.P)
	}

	if tree {
		failures := 0
		for _, c := range captures {
			ctx, err := dec.Decode(c)
			if err != nil {
				failures++
				continue
			}
			if err := prof.Add(ctx); err != nil {
				failures++
			}
		}
		fmt.Fprintf(out, "calling-context profile: %d contexts, %d distinct\n\n", prof.Total(), prof.NumContexts())
		if err := prof.WriteTree(out, 0.01); err != nil {
			return err
		}
		fmt.Fprintln(out, "\nhottest contexts:")
		for _, h := range prof.Hot(10) {
			fmt.Fprintf(out, "  %5.1f%%  %s\n", 100*h.Frac, pretty(dec.P, h.Context))
		}
		if err := writeCcprof(ccprofOut, prof); err != nil {
			return err
		}
		if failures > 0 {
			return fmt.Errorf("%d captures failed to decode", failures)
		}
		return nil
	}

	failures := 0
	for i, c := range captures {
		ctx, err := dec.Decode(c)
		if err != nil {
			failures++
			fmt.Fprintf(out, "%4d  epoch=%-3d id=%-8d  DECODE ERROR: %v\n", i, c.Epoch, c.ID, err)
			continue
		}
		fmt.Fprintf(out, "%4d  epoch=%-3d id=%-8d |cc|=%-3d %s\n", i, c.Epoch, c.ID, len(c.CC), pretty(dec.P, ctx))
		if prof != nil {
			if err := prof.Add(ctx); err != nil {
				return fmt.Errorf("aggregating context %d: %w", i, err)
			}
		}
	}
	if err := writeCcprof(ccprofOut, prof); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d captures failed to decode", failures, len(captures))
	}
	return nil
}

// writeCcprof writes the aggregated profile to path (no-op when path is
// empty) in the format its name selects (ccprof.Profile.WriteFile).
func writeCcprof(path string, prof *ccprof.Profile) error {
	if path == "" {
		return nil
	}
	if err := prof.WriteFile(path); err != nil {
		return fmt.Errorf("writing context profile: %w", err)
	}
	fmt.Fprintf(os.Stderr, "ccprof: %d contexts written to %s\n", prof.Total(), path)
	return nil
}

// runRemote posts the captures to a dacced server in batches and prints
// the same per-capture lines the in-process path does, frame names
// taken from the server's response. The client bounds each request with
// a timeout and retries transient failures, honoring the server's
// Retry-After back-pressure, so a dead or briefly saturated dacced does
// not hang or hard-fail the CLI.
func runRemote(out io.Writer, base, tenant string, captures []*core.Capture) error {
	c := &server.Client{BaseURL: base, Timeout: remoteTimeout}
	fmt.Fprintf(out, "remote: %s tenant %s; decoding %d captures\n\n", base, tenant, len(captures))
	failures := 0
	for off := 0; off < len(captures); off += remoteBatch {
		batch := captures[off:min(off+remoteBatch, len(captures))]
		dr, err := c.Decode(&server.DecodeRequest{Tenant: tenant, Captures: batch})
		if err != nil {
			return err
		}
		for j, res := range dr.Results {
			i, c := off+j, batch[j]
			if res.Error != "" {
				failures++
				fmt.Fprintf(out, "%4d  epoch=%-3d id=%-8d  DECODE ERROR: %v\n", i, c.Epoch, c.ID, res.Error)
				continue
			}
			s := ""
			for k, f := range res.Frames {
				if k > 0 {
					s += " → "
				}
				s += f.Name
			}
			fmt.Fprintf(out, "%4d  epoch=%-3d id=%-8d |cc|=%-3d %s\n", i, c.Epoch, c.ID, len(c.CC), s)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d captures failed to decode", failures, len(captures))
	}
	return nil
}

func readCaptures(dir string) ([]*core.Capture, error) {
	cf, err := os.Open(filepath.Join(dir, "captures.json"))
	if err != nil {
		return nil, err
	}
	defer cf.Close()
	var captures []*core.Capture
	if err := json.NewDecoder(cf).Decode(&captures); err != nil {
		return nil, fmt.Errorf("reading captures: %w", err)
	}
	return captures, nil
}

func pretty(p *prog.Program, ctx core.Context) string {
	s := ""
	for i, f := range ctx {
		if i > 0 {
			s += " → "
		}
		s += p.Funcs[f.Fn].Name
	}
	return s
}
