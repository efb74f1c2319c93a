package main

import (
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dacce/internal/experiments"
)

// TestErrorExitFlushesProfiles: a subcommand that fails after the CPU
// profile has started (an unknown -bench name, an unreadable -profiles
// file) must return through run, so the deferred writers still leave a
// complete CPU and heap profile behind.
func TestErrorExitFlushesProfiles(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown-bench", []string{"-bench", "nope"}},
		{"missing-profiles-file", []string{"-profiles", "does-not-exist.json"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cpu := filepath.Join(dir, "cpu.pprof")
			mem := filepath.Join(dir, "mem.pprof")
			args := append([]string{"table1"}, tc.args...)
			args = append(args, "-cpuprofile", cpu, "-memprofile", mem)
			if code := run(args); code == 0 {
				t.Fatalf("run(%q) exited 0, want non-zero", args)
			}
			for _, path := range []string{cpu, mem} {
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				zr, err := gzip.NewReader(f)
				if err != nil {
					f.Close()
					t.Fatalf("%s: not a gzip stream: %v", filepath.Base(path), err)
				}
				n, err := io.Copy(io.Discard, zr)
				f.Close()
				if err != nil || n == 0 {
					t.Fatalf("%s: %d bytes decompressed, err %v", filepath.Base(path), n, err)
				}
			}
		})
	}
}

// TestUpdateReportKeepsHandWrittenSections: regenerating a report
// rewrites only the generated block (header through the last generated
// section) and carries every later section over byte for byte; a failed
// generation, or a file that is not a report, leaves the file as it
// was. The generator is a stub, so no evaluation runs.
func TestUpdateReportKeepsHandWrittenSections(t *testing.T) {
	last := experiments.LastGeneratedHeading
	hand := "## Differential oracle harness\n\nhand-written *A*\n\n## Bounded pauses\n\nhand-written B, no final newline"
	old := "# EXPERIMENTS\n\nold header\n\n## Table 1\n\nold rows\n\n" + last + "\n\nold CDFs\n\n" + hand
	gen := "# EXPERIMENTS\n\nnew header\n\n## Table 1\n\nnew rows\n\n" + last + "\n\nnew CDFs\n\n"
	generate := func(w io.Writer) error {
		_, err := io.WriteString(w, gen)
		return err
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "EXPERIMENTS.md")
	if err := os.WriteFile(path, []byte(old), 0o640); err != nil {
		t.Fatal(err)
	}

	if err := updateReport(path, generate); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != gen+hand {
		t.Fatalf("regenerated report:\n%s\nwant:\n%s", got, gen+hand)
	}
	if info, err := os.Stat(path); err != nil || info.Mode().Perm() != 0o640 {
		t.Fatalf("report mode after rewrite: %v, %v; want 0640", info.Mode(), err)
	}

	// A second regeneration is a fixed point.
	if err := updateReport(path, generate); err != nil {
		t.Fatal(err)
	}
	if again, _ := os.ReadFile(path); string(again) != gen+hand {
		t.Fatal("second regeneration changed the report")
	}

	// A failing generation leaves the file untouched and no temp file.
	boom := errors.New("evaluation failed")
	if err := updateReport(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("updateReport with failing generator = %v", err)
	}
	if after, _ := os.ReadFile(path); string(after) != gen+hand {
		t.Fatal("failed generation modified the report")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("%d files in the report directory after a failed run, want 1", len(ents))
	}

	// A file without the generated block is not a report: refuse it
	// before generating anything.
	other := filepath.Join(dir, "notes.md")
	os.WriteFile(other, []byte("# notes\n\n## mine\n"), 0o644)
	ran := false
	if err := updateReport(other, func(w io.Writer) error { ran = true; return nil }); err == nil || ran {
		t.Fatalf("updateReport on a non-report: err %v, generator ran %v", err, ran)
	}
	if b, _ := os.ReadFile(other); string(b) != "# notes\n\n## mine\n" {
		t.Fatal("non-report file was modified")
	}

	// A missing file is created with the generated block alone.
	fresh := filepath.Join(dir, "fresh.md")
	if err := updateReport(fresh, generate); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(fresh); string(b) != gen {
		t.Fatalf("fresh report %q, want %q", b, gen)
	}
}

// TestRetiredSuitesExitWithUsage: the pause, evict and adversarial
// suites are Go tests now; naming one is an unknown subcommand.
func TestRetiredSuitesExitWithUsage(t *testing.T) {
	for _, cmd := range []string{"pause", "evict", "adversarial"} {
		if code := run([]string{cmd}); code != 2 {
			t.Errorf("daccebench %s exited %d, want 2", cmd, code)
		}
	}
}

// TestBadMetricsFormatFailsBeforeRun: an unknown -metrics-format is a
// usage error caught when the flags are parsed, so `all` exits 2
// before it runs a benchmark. The CPU profile, which starts right
// after parsing, is never created.
func TestBadMetricsFormatFailsBeforeRun(t *testing.T) {
	cpu := filepath.Join(t.TempDir(), "cpu.pprof")
	args := []string{"all", "-bench", "429.mcf", "-calls", "2000", "-metrics", "-metrics-format", "xml", "-cpuprofile", cpu}
	if code := run(args); code != 2 {
		t.Fatalf("run(%q) exited %d, want 2", args, code)
	}
	if _, err := os.Stat(cpu); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("CPU profile exists (stat err %v): the run started before the bad flag was rejected", err)
	}
}
