package main

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: with
// EXPERIMENTS_MAIN=1 it runs main on its arguments, which is also how the
// -distribute coordinator's fork/exec'd -worker copies of it start.
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

// TestStdoutSameInBothModes: without -out, -stream and -distribute print the
// same report — no verdict JSONL in either — differing only in the header's
// mode suffix and the timing line.
func TestStdoutSameInBothModes(t *testing.T) {
	normalize := strings.NewReplacer(" (streaming)", "", " (distributed over 2 workers)", "")
	timing := regexp.MustCompile(`\[d1 took [^\]]*\]`)
	stream := command(t, "-size", "600", "-stream")
	distributed := command(t, "-size", "600", "-distribute", "2")
	if !strings.Contains(stream, "(streaming)") || !strings.Contains(distributed, "(distributed over 2 workers)") {
		t.Fatalf("missing mode suffix:\n%s\n%s", stream, distributed)
	}
	a := timing.ReplaceAllString(normalize.Replace(stream), "")
	b := timing.ReplaceAllString(normalize.Replace(distributed), "")
	if a != b {
		t.Fatalf("stdout differs between modes:\n--- -stream\n%s\n--- -distribute 2\n%s", a, b)
	}
	if strings.Contains(a, `{"rank"`) {
		t.Fatalf("verdict JSONL on stdout without -out:\n%s", a)
	}
}
