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

// execute runs the command on args and returns its stdout, its stderr and
// its exit error.
func execute(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	return string(out), stderr.String(), err
}

// command runs the command on args and returns its stdout, failing the test
// if it exits non-zero.
func command(t *testing.T, args ...string) string {
	t.Helper()
	out, stderr, err := execute(t, args...)
	if err != nil {
		t.Fatalf("experiments %s: %v\n%s", strings.Join(args, " "), err, stderr)
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
		if out, _, err := execute(t, args...); err == nil {
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

// TestUnknownExperimentID: an id outside the experiment list fails the run
// and is named, instead of yielding an empty report that exits 0.
func TestUnknownExperimentID(t *testing.T) {
	for _, ids := range []string{"t99", "t3,t99", "d1,t99"} {
		out, stderr, err := execute(t, "-size", "600", "-run", ids)
		if err == nil {
			t.Errorf("experiments -run %s exited 0:\n%s", ids, out)
		}
		if !strings.Contains(stderr, `"t99"`) {
			t.Errorf("experiments -run %s does not name the unknown id: %q", ids, stderr)
		}
		if out != "" {
			t.Errorf("experiments -run %s printed a report:\n%s", ids, out)
		}
	}
}
