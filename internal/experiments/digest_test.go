package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dacce/internal/ccprof"
	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/persist"
	"dacce/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.txt from this build's outputs")

const digestFile = "testdata/digests.txt"

// TestOutputDigests rebuilds the outputs a change is checked against
// and compares their SHA-256 digests with testdata/digests.txt:
//   - the snapshot `daccerun -bench B -sample 16 -calls 400000
//     -save-state F` writes for 445.gobmk, 483.xalancbmk and
//     400.perlbench;
//   - every value of `daccebench table1 -bench
//     445.gobmk,483.xalancbmk,403.gcc -calls 300000`, one digest per
//     row and column, since a column's printed width follows its widest
//     value;
//   - each series `daccebench fig9 -calls 300000` prints.
//
// A change that moves an output on purpose reruns the test with
// -update and names each moved digest and its cause.
func TestOutputDigests(t *testing.T) {
	got := outputDigests(t)
	if *update {
		writeDigests(t, got)
		return
	}
	want := readDigests(t)
	seen := make(map[string]bool, len(got))
	for _, d := range got {
		seen[d.key] = true
		w, ok := want[d.key]
		switch {
		case !ok:
			t.Errorf("%s: no committed digest", d.key)
		case w != d.sum:
			t.Errorf("%s: digest %s, committed %s", d.key, d.sum, w)
		}
	}
	for k := range want {
		if !seen[k] {
			t.Errorf("%s: committed digest for an output the test no longer builds", k)
		}
	}
	if t.Failed() {
		t.Log("an output moved; if on purpose, rerun with -update and name the digest and the cause")
	}
}

type digest struct{ key, sum string }

func sum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func outputDigests(t *testing.T) []digest {
	t.Helper()
	var out []digest
	for _, name := range []string{"445.gobmk", "483.xalancbmk", "400.perlbench"} {
		snap, err := daccerunSnapshot(name, 400_000, 16)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, digest{"snapshot " + name, sum(snap)})
	}

	var profiles []workload.Profile
	for _, name := range []string{"445.gobmk", "483.xalancbmk", "403.gcc"} {
		pr, _ := workload.ByName(name)
		profiles = append(profiles, pr)
	}
	cfg := RunConfig{Calls: 300_000, SampleEvery: 256}
	rows, err := Table1(profiles, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// A one-row table prints the row's own values; its header line
		// names the columns.
		var sb strings.Builder
		if err := RenderTable1([]*BenchResult{r}, &sb); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(sb.String(), "\n")
		cols, vals := strings.Fields(lines[0]), strings.Fields(lines[2])
		if len(cols) != len(vals) {
			t.Fatalf("table1 %s: %d columns, %d values", r.Profile.Name, len(cols), len(vals))
		}
		for i := 1; i < len(cols); i++ {
			out = append(out, digest{"table1 " + r.Profile.Name + " " + cols[i], sum([]byte(vals[i]))})
		}
	}

	for _, name := range Fig9Names {
		s, err := Fig9(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, digest{"fig9 " + name, sum([]byte(s.String()))})
	}
	return out
}

// daccerunSnapshot runs one benchmark with daccerun's encoder options
// and machine config and returns the snapshot -save-state would write.
func daccerunSnapshot(name string, calls, sample int64) ([]byte, error) {
	pr, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
	pr.TotalCalls = calls
	w, err := workload.Build(pr)
	if err != nil {
		return nil, err
	}
	d := core.New(w.P, core.Options{TrackProgress: true, ContextObserver: ccprof.NewStreaming(w.P)})
	m := w.NewMachine(d, machine.Config{
		SampleEvery:      sample,
		DropSamples:      true,
		SteadyAfterCalls: pr.TotalCalls / int64(pr.Threads) / 3,
	})
	if _, err := m.Run(); err != nil {
		return nil, err
	}
	return persist.Marshal(d.ExportState())
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, key, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, line)
		}
		want[key] = s
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func writeDigests(t *testing.T, ds []digest) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("# SHA-256 of each output TestOutputDigests builds; regenerate with\n")
	sb.WriteString("# go test ./internal/experiments -run TestOutputDigests -update\n")
	for _, d := range ds {
		fmt.Fprintf(&sb, "%s  %s\n", d.sum, d.key)
	}
	if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(digestFile, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
