package population

import (
	"runtime"
	"testing"
)

// raceEnabled is set in race-detector builds (race_test.go).
var raceEnabled bool

// TestDomainAllocs bounds the allocations per domain of Generator.Domain
// over the first 20,000 ranks of the seed-1 population. A compliant domain
// takes seven: the Domain, its name, the leaf's serial (the rank's, then
// the issuer's), the leaf with its key identifiers and lists, its Raw, and
// the deployed list, which is assembled in the generator's scratch and
// copied out once. The non-compliant few allocate more.
func TestDomainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const n, bound = 20000, 8.0
	gen := NewSource(Config{Size: n, Seed: 1}).Generator()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for rank := 1; rank <= n; rank++ {
		sinkDomain = gen.Domain(rank)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%d domains: %.2f allocations, %.0f B per domain", n, allocs, bytes)
	if allocs > bound {
		t.Errorf("a domain allocates %.2f times, bound %.0f", allocs, bound)
	}
}

var sinkDomain *Domain
