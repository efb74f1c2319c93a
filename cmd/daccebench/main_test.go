package main

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"
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
