package grid

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestSubstitution(t *testing.T) {
	vars := map[string]any{
		"sites": float64(100000), "workers": float64(8),
		"rate": 0.5, "name": "pr7", "lease": "${sites}/${workers}",
	}
	cases := []struct {
		in   string
		want string
	}{
		{"${sites}", "100000"},
		{"w${workers}.jsonl", "w8.jsonl"},
		{"${name}-${workers}", "pr7-8"},
		{"${rate}", "0.5"},
		{"${lease}", "100000/8"}, // nested references resolve
	}
	for _, c := range cases {
		got, err := substString(c.in, vars)
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("%s = %q, want %q", c.in, got, c.want)
		}
	}
	// Typed whole-string result: numbers stay numbers.
	v, err := subst("${sites}", vars)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v.(float64); !ok {
		t.Fatalf("whole-string subst lost the numeric type: %T", v)
	}
	if _, err := substString("${missing}", vars); err == nil {
		t.Fatal("undefined variable accepted")
	}
	if _, err := substString("${unterminated", vars); err == nil {
		t.Fatal("unterminated reference accepted")
	}
}

func TestCellExpansionExplicit(t *testing.T) {
	s := Spec{
		Name:  "x",
		Steps: []Step{{ID: "a", Run: []string{"true"}}},
		Cells: []map[string]any{
			{"name": "base", "ledger": float64(0)},
			{"name": "ledgered", "ledger": float64(1024)},
		},
	}
	if err := s.validate(); err != nil {
		t.Fatal(err)
	}
	cells, err := s.cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || cells[0].name != "base" || cells[1].vars["ledger"] != float64(1024) {
		t.Fatalf("cells: %+v", cells)
	}
}

// TestRunnerEndToEnd drives a two-axis grid of shell steps: per-cell files,
// a when-gated step, captures, json/jsonl/identical asserts, and a final
// wall_ratio — the whole surface minus real tools.
func TestRunnerEndToEnd(t *testing.T) {
	work := t.TempDir()
	spec := &Spec{
		Name:    "e2e",
		Vars:    map[string]any{"payload": "hello"},
		Repeats: 2,
		Axes: []Axis{
			{Name: "n", Values: []any{float64(2), float64(3)}},
			{Name: "mode", Values: []any{"plain", "extra"}},
		},
		Setup: []Step{
			{ID: "seed", Run: []string{"sh", "-c", `printf '{"ok":true,"count":7}' > ${setup}/seed.json`}},
		},
		Steps: []Step{
			{
				ID:  "emit",
				Run: []string{"sh", "-c", `for i in $(seq 1 ${n}); do echo "{\"rank\":$i}"; done > ${dir}/out.jsonl; echo "made ${n} lines"`},
				Captures: []Capture{
					{Var: "made", Regex: `made (\d+) lines`},
				},
				Asserts: []Assert{
					{Kind: "exists", File: "${dir}/out.jsonl"},
					{Kind: "jsonl_count", File: "${dir}/out.jsonl", Op: "==", Value: "${n}"},
					{Kind: "json", File: "${setup}/seed.json", Path: "count", Op: ">=", Value: float64(7)},
				},
			},
			{
				ID:   "extra",
				When: map[string]any{"mode": "extra"},
				Run:  []string{"sh", "-c", `cp ${dir}/out.jsonl ${dir}/copy.jsonl`},
				Asserts: []Assert{
					{Kind: "identical", A: "${dir}/out.jsonl", B: "${dir}/copy.jsonl"},
				},
			},
		},
		Final: []Assert{
			{Kind: "wall_ratio", Cell: "n=3,mode=plain", Base: "n=2,mode=plain", Step: "emit", Max: 1000},
		},
	}
	if err := spec.validate(); err != nil {
		t.Fatal(err)
	}
	r := &Runner{Spec: spec, Work: work, Log: io_Discard(t)}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("%d cells, want 4", len(res.Cells))
	}
	for _, c := range res.Cells {
		if len(c.Repeats) != 2 {
			t.Fatalf("cell %s: %d repeats", c.Name, len(c.Repeats))
		}
		for _, rep := range c.Repeats {
			em := rep.Steps["emit"]
			if em == nil || em.Skipped {
				t.Fatalf("cell %s: emit did not run", c.Name)
			}
			if em.Captures["made"] != formatValue(c.Vars["n"]) {
				t.Fatalf("cell %s: capture %q", c.Name, em.Captures["made"])
			}
			ex := rep.Steps["extra"]
			wantSkip := c.Vars["mode"] == "plain"
			if ex == nil || ex.Skipped != wantSkip {
				t.Fatalf("cell %s: extra skipped=%v, want %v", c.Name, ex != nil && ex.Skipped, wantSkip)
			}
		}
	}
	if len(res.Final) != 1 || !res.Final[0].OK {
		t.Fatalf("final asserts: %+v", res.Final)
	}

	// Summary + CSV round-trip.
	outJSON := filepath.Join(work, "res.json")
	outCSV := filepath.Join(work, "res.csv")
	if err := res.WriteJSON(outJSON); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(outCSV); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(outCSV)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	// header + 4 cells x 2 repeats x (1 or 2 executed steps); plain cells
	// run only emit, extra cells run both.
	want := 1 + 2*2*1 + 2*2*2
	if len(lines) != want {
		t.Fatalf("%d CSV rows, want %d:\n%s", len(lines), want, csv)
	}
}

// TestRunnerFailsOnAssert: a failing assertion aborts the run.
func TestRunnerFailsOnAssert(t *testing.T) {
	spec := &Spec{
		Name: "fail",
		Steps: []Step{{
			ID:  "mk",
			Run: []string{"sh", "-c", "echo one > ${dir}/a; echo two > ${dir}/b"},
			Asserts: []Assert{
				{Kind: "identical", A: "${dir}/a", B: "${dir}/b"},
			},
		}},
	}
	if err := spec.validate(); err != nil {
		t.Fatal(err)
	}
	r := &Runner{Spec: spec, Work: t.TempDir(), Log: io_Discard(t)}
	if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "identical") {
		t.Fatalf("want identical-assert failure, got %v", err)
	}
}

// TestRunnerServeDrain: a serve step must publish its ready capture, keep
// running through later steps, and exit cleanly on SIGTERM.
func TestRunnerServeDrain(t *testing.T) {
	spec := &Spec{
		Name: "serve",
		Steps: []Step{
			serveDaemon,
			{
				ID:  "use",
				Run: []string{"sh", "-c", `echo "target was ${addr}"`},
				Captures: []Capture{
					{Var: "target", Regex: `target was (\S+)`},
				},
			},
		},
	}
	if err := spec.validate(); err != nil {
		t.Fatal(err)
	}
	r := &Runner{Spec: spec, Work: t.TempDir(), Log: io_Discard(t)}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Cells[0].Repeats[0]
	if rep.Steps["daemon"].Captures["addr"] != "127.0.0.1:1234" {
		t.Fatalf("ready capture: %+v", rep.Steps["daemon"].Captures)
	}
	if rep.Steps["use"].Captures["target"] != "127.0.0.1:1234" {
		t.Fatalf("addr did not reach the later step: %+v", rep.Steps["use"].Captures)
	}
}

// serveDaemon is a serve step that prints its ready line, then serves until
// SIGTERM.
var serveDaemon = Step{
	ID:    "daemon",
	Serve: true,
	Ready: `listening on (\S+)`,
	Run: []string{"sh", "-c",
		`echo "listening on 127.0.0.1:1234" >&2; trap 'echo bye >&2; exit 0' TERM; while true; do sleep 0.1; done`},
}

// TestRunnerServeEarlyExit: a daemon that exits before its ready line fails
// the run at once, naming its exit status, instead of waiting out the ready
// deadline.
func TestRunnerServeEarlyExit(t *testing.T) {
	spec := &Spec{
		Name: "early",
		Steps: []Step{{
			ID: "daemon", Serve: true, Ready: `listening on (\S+)`,
			Run: []string{"sh", "-c", "echo boom >&2; exit 3"},
		}},
	}
	if err := spec.validate(); err != nil {
		t.Fatal(err)
	}
	r := &Runner{Spec: spec, Work: t.TempDir(), Log: io_Discard(t)}
	start := time.Now()
	_, err := r.Run()
	if err == nil || !strings.Contains(err.Error(), "exit status 3") {
		t.Fatalf("want a failure naming exit status 3, got %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("early exit took %v to report", d)
	}
}

// TestRunnerServeNoGoroutineLeak: every exit path of a run with a serve
// step — a clean drain, a daemon exiting before it is ready, and a later
// step failing while the daemon serves — leaves no goroutine behind.
func TestRunnerServeNoGoroutineLeak(t *testing.T) {
	cases := map[string][]Step{
		"clean-drain": {serveDaemon, {ID: "use", Run: []string{"true"}}},
		"early-exit": {{
			ID: "daemon", Serve: true, Ready: `listening on (\S+)`,
			Run: []string{"sh", "-c", "exit 3"},
		}},
		"later-step-fails": {serveDaemon, {ID: "use", Run: []string{"false"}}},
	}
	for name, steps := range cases {
		t.Run(name, func(t *testing.T) {
			spec := &Spec{Name: name, Steps: steps}
			if err := spec.validate(); err != nil {
				t.Fatal(err)
			}
			base := runtime.NumGoroutine()
			r := &Runner{Spec: spec, Work: t.TempDir(), Log: io_Discard(t)}
			_, err := r.Run()
			if (err == nil) != (name == "clean-drain") {
				t.Fatalf("run error = %v", err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines after the run, %d before", n, base)
			}
		})
	}
}

// io_Discard adapts t's helper-less needs: progress goes nowhere in tests.
func io_Discard(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}
