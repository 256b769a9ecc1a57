package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"chainchaos/internal/obs"
)

// TestHelperWorker is not a test: it is the worker process body for
// TestProcLauncher, selected via the DIST_TEST_WORKER environment variable.
func TestHelperWorker(t *testing.T) {
	if os.Getenv("DIST_TEST_WORKER") != "1" {
		t.Skip("helper process for TestProcLauncher")
	}
	err := ServeStdio(context.Background(), func(payload json.RawMessage) (RangeRunner, *obs.Registry, error) {
		var cfg struct {
			Mod  int `json:"mod"`
			Slot int `json:"slot"`
		}
		if err := json.Unmarshal(payload, &cfg); err != nil {
			return nil, nil, err
		}
		reg := obs.NewRegistry()
		leases := reg.Counter(fmt.Sprintf("helper.slot.%d.leases", cfg.Slot))
		run := testRunner(cfg.Mod)
		return func(ctx context.Context, lo, hi int, emit func(rank int, line []byte) error) (map[string]int64, error) {
			leases.Inc()
			return run(ctx, lo, hi, emit)
		}, reg, nil
	})
	// Exit before the test framework prints its verdict on stdout — stdout
	// is the wire and must carry protocol lines only.
	if err != nil {
		os.Exit(1)
	}
	os.Exit(0)
}

// TestProcLauncher drives real fork/exec'd worker processes (the test binary
// re-invoked as TestHelperWorker) over stdio and checks byte identity, tally
// folding, and that worker-side counters and RSS made it over the wire. A
// worker whose hello arrives after the other has finished every lease
// completes none, and Result documents its RSS as 0, so RSS is checked
// exactly for the slots that completed a lease.
func TestProcLauncher(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	launcher := &ProcLauncher{Path: exe, Args: []string{"-test.run", "^TestHelperWorker$", "-test.v=false"}}
	t.Setenv("DIST_TEST_WORKER", "1")

	reg := obs.NewRegistry()
	var out strings.Builder
	res, err := Run(context.Background(), Config{
		Workers: 2, Total: 300, LeaseSize: 50, Out: &out,
		SinkStage: "test", Launch: launcher, Metrics: reg,
		Payload: func(slot, spawn int) []byte { return []byte(fmt.Sprintf(`{"mod":1,"slot":%d}`, slot)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := expectOutput(0, 300, 1); out.String() != want {
		t.Fatalf("exec output differs from serial run (%d vs %d bytes)", out.Len(), len(want))
	}
	if res.Tallies["ranks"] != 300 {
		t.Fatalf("ranks tally = %d, want 300", res.Tallies["ranks"])
	}
	// Worker counter snapshots fold into the coordinator registry: the
	// per-slot lease counts cover the 6 leases exactly.
	sum := int64(0)
	for slot, rss := range res.WorkerRSSKB {
		leases := reg.Counter(fmt.Sprintf("helper.slot.%d.leases", slot)).Value()
		sum += leases
		if (leases > 0) != (rss > 0) {
			t.Fatalf("worker %d completed %d leases but reported max_rss_kb %d", slot, leases, rss)
		}
	}
	if sum != 6 {
		t.Fatalf("workers completed %d leases, want 6", sum)
	}
	if reg.Gauge("proc.fleet_max_rss_kb").Value() <= 0 {
		t.Fatal("proc.fleet_max_rss_kb not set")
	}
}
