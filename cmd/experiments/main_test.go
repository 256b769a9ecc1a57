package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: with
// EXPERIMENTS_MAIN=1 it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// execute runs the command on args and returns its stdout and exit error.
func execute(t *testing.T, args ...string) (string, error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_MAIN=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	return string(out), err
}

// command runs the command on args and returns its stdout, failing the test
// if it exits non-zero.
func command(t *testing.T, args ...string) string {
	t.Helper()
	out, err := execute(t, args...)
	if err != nil {
		t.Fatalf("experiments %s: %v", strings.Join(args, " "), err)
	}
	return out
}

var timing = regexp.MustCompile(`\[d1 took [^\]]*\]`)

// TestStdoutSameInBothModes: -run d1 alone and -run d1 with a checkpoint and
// an out-file print the same report, differing only in the timing line, and
// neither prints the verdict JSONL, which goes to -out or nowhere.
func TestStdoutSameInBothModes(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "verdicts.jsonl")
	plain := timing.ReplaceAllString(command(t, "-size", "600", "-run", "d1"), "")
	recorded := timing.ReplaceAllString(command(t, "-size", "600", "-run", "d1",
		"-checkpoint", filepath.Join(dir, "d1.ckpt"), "-out", out), "")
	if !strings.HasPrefix(plain, "population: 600 domains, seed 1\n\n") {
		t.Fatalf("header changed:\n%s", plain)
	}
	if plain != recorded {
		t.Fatalf("stdout differs between modes:\n--- -run d1\n%s\n--- -run d1 -checkpoint -out\n%s", plain, recorded)
	}
	if strings.Contains(plain, `{"rank"`) {
		t.Fatalf("verdict JSONL on stdout without -out:\n%s", plain)
	}
	if lines, err := os.ReadFile(out); err != nil || !strings.Contains(string(lines), `{"rank"`) {
		t.Fatalf("no verdict JSONL in -out (%v)", err)
	}
}

// TestD1FlagsNeedD1: a flag only the differential evaluation reads fails a
// run of any other experiment instead of being ignored.
func TestD1FlagsNeedD1(t *testing.T) {
	dir := t.TempDir()
	for _, flags := range [][]string{
		{"-dedup"},
		{"-reuse", "0.9"},
		{"-pool", "10"},
		{"-out", filepath.Join(dir, "v.jsonl")},
		{"-checkpoint", filepath.Join(dir, "d1.ckpt")},
	} {
		args := append([]string{"-size", "600", "-run", "t3"}, flags...)
		if out, err := execute(t, args...); err == nil {
			t.Errorf("experiments %s exited 0:\n%s", strings.Join(args, " "), out)
		}
	}
}

// TestReuseShapesD1: -reuse reshapes the population d1 grades, so it
// changes the d1 table.
func TestReuseShapesD1(t *testing.T) {
	plain := timing.ReplaceAllString(command(t, "-size", "600", "-run", "d1"), "")
	reused := timing.ReplaceAllString(command(t, "-size", "600", "-run", "d1", "-reuse", "0.9"), "")
	if plain == reused {
		t.Fatalf("-reuse 0.9 left the d1 table unchanged:\n%s", plain)
	}
}
