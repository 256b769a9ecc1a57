package experiments

import (
	"context"
	"runtime"
	"testing"
)

// raceEnabled is set in race-detector builds (race_test.go).
var raceEnabled bool

// TestDifferentialStreamAllocs bounds the allocations per domain of the
// streamed differential evaluation, the path of cmd/experiments -run d1 and
// of the perfbench differential workload, at one worker. It measured 25.3
// before a domain allocated only what outlives it (a grader-owned topology
// graph, a one-block synthetic leaf with its key hashed on the stack, an
// inline fingerprint, a deployed list assembled in generator scratch) and
// 8.4 after, so one allocation per domain added back fails it.
func TestDifferentialStreamAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so allocation counts vary")
	}
	const bound = 9.0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sum, err := DifferentialStreamSummary(context.Background(), StreamConfig{Size: 20000, Seed: 1, Workers: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(sum.Total)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(sum.Total)
	t.Logf("%d domains: %.2f allocations, %.0f B per domain", sum.Total, allocs, bytes)
	if allocs > bound {
		t.Errorf("a domain allocates %.2f times, bound %.0f", allocs, bound)
	}
}
