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

func command(t *testing.T, args ...string) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_MAIN=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("experiments %s: %v", strings.Join(args, " "), err)
	}
	return string(out)
}

// TestStdoutSameInBothModes: -stream alone and -stream with a checkpoint and
// an out-file print the same report, differing only in the timing line, and
// neither prints the verdict JSONL, which goes to -out or nowhere.
func TestStdoutSameInBothModes(t *testing.T) {
	timing := regexp.MustCompile(`\[d1 took [^\]]*\]`)
	dir := t.TempDir()
	out := filepath.Join(dir, "verdicts.jsonl")
	stream := timing.ReplaceAllString(command(t, "-size", "600", "-stream"), "")
	recorded := timing.ReplaceAllString(command(t, "-size", "600", "-stream",
		"-checkpoint", filepath.Join(dir, "d1.ckpt"), "-out", out), "")
	if !strings.Contains(stream, "(streaming)") {
		t.Fatalf("missing mode suffix:\n%s", stream)
	}
	if stream != recorded {
		t.Fatalf("stdout differs between modes:\n--- -stream\n%s\n--- -stream -checkpoint -out\n%s", stream, recorded)
	}
	if strings.Contains(stream, `{"rank"`) {
		t.Fatalf("verdict JSONL on stdout without -out:\n%s", stream)
	}
	if lines, err := os.ReadFile(out); err != nil || !strings.Contains(string(lines), `{"rank"`) {
		t.Fatalf("no verdict JSONL in -out (%v)", err)
	}
}
