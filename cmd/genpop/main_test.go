package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: with
// GENPOP_MAIN=1 it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("GENPOP_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func command(t *testing.T, args ...string) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GENPOP_MAIN=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("genpop %s: %v", strings.Join(args, " "), err)
	}
	return string(out)
}

// TestSummaryDeterministic: two -summary runs of one seed print the same
// bytes, the per-CA and per-server sections included.
func TestSummaryDeterministic(t *testing.T) {
	first := command(t, "-size", "3000", "-summary")
	if !strings.Contains(first, "by CA:") || !strings.Contains(first, "by server:") {
		t.Fatalf("summary lacks its breakdowns:\n%s", first)
	}
	if second := command(t, "-size", "3000", "-summary"); second != first {
		t.Fatalf("-summary differs between runs:\n--- first\n%s\n--- second\n%s", first, second)
	}
}

// TestStdoutIsOutFile: the TSV a run prints is the file -out writes.
func TestStdoutIsOutFile(t *testing.T) {
	stdout := command(t, "-size", "500")
	path := filepath.Join(t.TempDir(), "pop.tsv")
	if rest := command(t, "-size", "500", "-out", path); rest != "" {
		t.Fatalf("-out run printed to stdout:\n%s", rest)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(stdout, "\n"); lines != 501 {
		t.Fatalf("stdout holds %d lines, want a header and 500 rows", lines)
	}
	if string(file) != stdout {
		t.Fatal("-out file differs from stdout")
	}
}
