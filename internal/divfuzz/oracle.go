// The divergence oracle: every mutant is graded by the full client-profile
// matrix, judged in the differential harness's trust context, and the
// per-client verdict classes form the coverage signature.
package divfuzz

import (
	"chainchaos/internal/certmodel"
	"chainchaos/internal/core"
	"chainchaos/internal/difftest"
	"chainchaos/internal/obs"
	"chainchaos/internal/population"
	"chainchaos/internal/rootstore"
	"chainchaos/internal/verdictcache"
)

// Vector is the per-profile verdict classes of one list, in core.Profiles
// order — the fuzzer's coverage coordinate.
type Vector = core.Verdicts

// Oracle grades certificate lists across every client profile. It is
// single-goroutine state (one per worker), kept for a whole campaign: its
// builders' search scratch and its rebuild memo stay warm from one
// generation to the next. The verdict cache and warm store it reads are
// safe to share.
type Oracle struct {
	g     *core.Grader
	cache *verdictcache.Cache[Vector]
	// memo serves the rebuilds of every list this oracle materializes.
	memo                    rebuildMemo
	cRebuilds, cRebuildHits *obs.Counter
}

// NewOracle builds an oracle over the population's client matrix, judged in
// difftest.Trust — the identical context the differential harness grades
// in, so a divergence found here is a divergence the harness would report.
// cache, when non-nil, memoizes vectors by list digest across all oracles
// sharing it: Evaluate has no domain and produces no report, so it needs
// none of core.Memo's per-site rule.
func NewOracle(pop *population.Population, warm *rootstore.Store, cache *verdictcache.Cache[Vector], reg *obs.Registry) *Oracle {
	return &Oracle{
		g:            difftest.Trust(pop, warm, reg).Grader(),
		cache:        cache,
		cRebuilds:    reg.Counter("divfuzz.rebuilds"),
		cRebuildHits: reg.Counter("divfuzz.rebuild_hits"),
	}
}

// FlushMetrics publishes what the oracle has tallied since the last call:
// the builders' batched pathbuild counters and the rebuild memo's
// divfuzz.rebuilds and divfuzz.rebuild_hits. Call it at the end of each
// batch of work and when the oracle retires: a builder flushes on its own
// only every few dozen builds, and the memo never does.
func (o *Oracle) FlushMetrics() {
	o.g.Close()
	o.cRebuilds.Add(o.memo.rebuilds)
	o.cRebuildHits.Add(o.memo.hits)
	o.memo.rebuilds, o.memo.hits = 0, 0
}

// Evaluate returns the list's verdict vector, consulting the shared dedup
// cache first. Cache hit counters race across workers; the vector itself is
// a pure function of the list, so cached and fresh results are identical.
// An empty list is graded like any other: every client rejects it.
func (o *Oracle) Evaluate(list []*certmodel.Certificate) Vector {
	if o.cache == nil {
		return o.g.Verdicts(list, "")
	}
	key := verdictcache.Key{Digest: certmodel.ListDigest(list)}
	if v, ok := o.cache.Get(key); ok {
		return v
	}
	v := o.g.Verdicts(list, "")
	o.cache.Put(key, v)
	return v
}

// Outcomes runs the full construction per profile, bypassing the class
// cache — cause attribution needs the complete outcomes, not just their
// classes. Only confirmed divergences pay this cost.
func (o *Oracle) Outcomes(list []*certmodel.Certificate) []difftest.ClientVerdict {
	return difftest.Outcomes(o.g, list, "")
}
