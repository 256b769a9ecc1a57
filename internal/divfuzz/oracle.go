// The divergence oracle: every mutant is graded by the full client-profile
// matrix, wired exactly as the differential harness wires its graders, and
// the per-client verdict classes form the coverage signature.
package divfuzz

import (
	"strings"

	"chainchaos/internal/certmodel"
	"chainchaos/internal/clients"
	"chainchaos/internal/core"
	"chainchaos/internal/difftest"
	"chainchaos/internal/obs"
	"chainchaos/internal/pathbuild"
	"chainchaos/internal/population"
	"chainchaos/internal/rootstore"
	"chainchaos/internal/verdictcache"
)

// Vector is the per-profile verdict classes of one list, in fixed profile
// order — the fuzzer's coverage coordinate.
type Vector []core.VerdictClass

// Signature joins the classes into the coverage key.
func (v Vector) Signature() string {
	parts := make([]string, len(v))
	for i, c := range v {
		parts[i] = c.String()
	}
	return strings.Join(parts, "|")
}

// Divergent reports whether any two profiles disagree.
func (v Vector) Divergent() bool {
	for i := 1; i < len(v); i++ {
		if v[i] != v[0] {
			return true
		}
	}
	return false
}

// Oracle grades certificate lists across every client profile. It is
// single-goroutine state (one per worker); the verdict cache and warm store
// it reads are safe to share.
type Oracle struct {
	profiles []clients.Profile
	builders []*pathbuild.Builder
	cache    *verdictcache.Cache[Vector]
	scope    certmodel.FP
}

// NewOracle builds an oracle over the population's client matrix: one
// pathbuild.Builder per profile with the client's vendor store, the
// population's AIA repository, and the shared read-only warm intermediate
// cache — the identical context internal/difftest grades in, so a divergence
// found here is a divergence the harness would report. cache, when non-nil,
// memoizes vectors by list digest across all oracles sharing it.
func NewOracle(pop *population.Population, warm *rootstore.Store, cache *verdictcache.Cache[Vector], reg *obs.Registry) *Oracle {
	profiles := clients.All()
	return &Oracle{
		profiles: profiles,
		builders: difftest.Builders(pop, profiles, warm, reg),
		cache:    cache,
		scope:    clients.Fingerprint(profiles),
	}
}

// FlushMetrics publishes the builders' batched pathbuild counters. Call it
// when the oracle retires: a builder flushes on its own only every few
// dozen builds, so its last partial batch is otherwise lost.
func (o *Oracle) FlushMetrics() {
	for _, b := range o.builders {
		b.FlushMetrics()
	}
}

// Evaluate returns the list's verdict vector, consulting the shared dedup
// cache first. Cache hit counters race across workers; the vector itself is
// a pure function of the list, so cached and fresh results are identical.
func (o *Oracle) Evaluate(list []*certmodel.Certificate) Vector {
	if len(list) == 0 {
		return nil
	}
	var key verdictcache.Key
	if o.cache != nil {
		key = verdictcache.Key{Digest: certmodel.ListDigest(list), Scope: o.scope}
		if v, ok := o.cache.Get(key); ok {
			return v
		}
	}
	v := make(Vector, len(o.builders))
	for i, b := range o.builders {
		v[i] = core.Classify(b.Build(list, ""))
	}
	if o.cache != nil {
		o.cache.Put(key, v)
	}
	return v
}

// Outcomes runs the full construction per profile, bypassing the class
// cache — cause attribution needs the complete outcomes, not just their
// classes. Only confirmed divergences pay this cost.
func (o *Oracle) Outcomes(list []*certmodel.Certificate) []difftest.ClientVerdict {
	out := make([]difftest.ClientVerdict, len(o.builders))
	for i, b := range o.builders {
		out[i] = difftest.ClientVerdict{
			Client:  o.profiles[i].Name,
			Kind:    o.profiles[i].Kind,
			Outcome: b.Build(list, ""),
		}
	}
	return out
}
