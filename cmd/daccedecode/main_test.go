package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dacce/internal/core"
	"dacce/internal/machine"
	"dacce/internal/persist"
	"dacce/internal/server"
	"dacce/internal/workload"
)

// mcfRun runs 429.mcf under DACCE with the given machine seed and
// returns the encoder snapshot and the sampled captures. Different
// seeds take different call paths, so they discover edges in a
// different order: two generations of the same program's encoding.
func mcfRun(t *testing.T, seed uint64) ([]byte, []*core.Capture) {
	t.Helper()
	pr, _ := workload.ByName("429.mcf")
	pr.TotalCalls = 20_000
	w := workload.MustBuild(pr)
	d := core.New(w.P, core.Options{})
	rs, err := w.NewMachine(d, machine.Config{SampleEvery: 16, Seed: seed}).Run()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := persist.Marshal(d.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var captures []*core.Capture
	for _, s := range rs.Samples {
		captures = append(captures, s.Capture.(*core.Capture))
	}
	return snap, captures
}

// writeDump lays a run out the way `daccerun -dump` does.
func writeDump(t *testing.T, dir string, snap []byte, captures []*core.Capture) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "state.snap"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(captures)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "captures.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// epochLines keeps the per-capture lines, the part of the output that
// must not depend on where the decode ran.
func epochLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, " epoch=") {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestRemoteDecodePinsDumpSnapshot checks that a bare -tenant name is
// pinned to the dump's own encoding: against a dacced holding only
// another generation of the name the run fails, and with the dump's
// snapshot registered the remote decode prints exactly the local
// decode's lines, even when the other generation is the name's latest.
func TestRemoteDecodePinsDumpSnapshot(t *testing.T) {
	dir := t.TempDir()
	own, captures := mcfRun(t, 1)
	other, _ := mcfRun(t, 2)
	if persist.Hash(own) == persist.Hash(other) {
		t.Fatal("the two generations have the same encoding")
	}
	writeDump(t, dir, own, captures)

	var local bytes.Buffer
	if err := run(&local, dir, 0, false, "", "", ""); err != nil {
		t.Fatalf("local decode: %v", err)
	}
	want := epochLines(local.String())
	if len(want) != len(captures) || len(want) == 0 {
		t.Fatalf("local decode printed %d capture lines for %d captures", len(want), len(captures))
	}

	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	otherHash, err := srv.Register("mcf", other)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, dir, 0, false, ts.URL, "mcf", ""); err == nil {
		t.Fatalf("remote decode against another generation succeeded:\n%s", out.String())
	}

	// The hazard the pin removes: the other generation's dictionaries
	// do not decode the dump's captures to the same contexts.
	out.Reset()
	_ = run(&out, dir, 0, false, ts.URL, "mcf@"+otherHash, "")
	if got := epochLines(out.String()); strings.Join(got, "\n") == strings.Join(want, "\n") {
		t.Fatal("the other generation decodes the dump identically; the test cannot tell the pin apart")
	}

	// Register the dump's snapshot, then the other generation again so
	// the bare name resolves to it.
	if _, err := srv.Register("mcf", own); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Register("mcf", other); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(&out, dir, 0, false, ts.URL, "mcf", ""); err != nil {
		t.Fatalf("remote decode against the dump's own snapshot: %v", err)
	}
	got := epochLines(out.String())
	if len(got) != len(want) {
		t.Fatalf("remote printed %d capture lines, local %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d differs:\nlocal:  %s\nremote: %s", i, want[i], got[i])
		}
	}
}
