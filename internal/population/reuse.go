// Chain-reuse skew: when Config.ChainReuse > 0, a fraction of sites present
// a chain drawn from a shared pool of slot templates instead of minting their
// own — the population shape the paper measured, where the Top-1M presents
// only a few thousand distinct certificate lists, dominated by a handful of
// hosting-provider chains.
//
// Determinism contract (the PR 1 rule): every decision here derives from
// (Config.Seed, rank) through its own salted splitmix64 stream. The reuse
// coin and the slot pick never touch the per-domain rng, so a ChainReuse=0
// run stays byte-identical to the pre-reuse generator, and reuse runs are
// worker-invariant — the cache-hit rate is a property of the population, not
// of the worker schedule.
package population

// Stream salts separate the reuse decisions from the per-domain seed stream
// (domainSeed) and from each other.
const (
	reuseCoinSalt = 0x5D4C5E55C0117A6B
	reuseSlotSalt = 0x1F8B08BADC0FFEE5
	slotSeedSalt  = 0x7E57AB1E5EEDF00D
)

// Unit derives a uniform [0,1) draw for (seed, rank) on the salted stream —
// the splitmix64 finalizer over the combined words, matching domainSeed's
// mixing but cheaper than seeding a rand.Rand per rank. The study's farm
// draws its own decisions here too, on its own salts.
func Unit(seed int64, rank int, salt uint64) float64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(rank)*0xD1B54A32D192ED03 + salt + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Pick maps the salted draw for (seed, key) uniformly onto [0, n).
func Pick(n int, seed int64, key int, salt uint64) int {
	return min(int(Unit(seed, key, salt)*float64(n)), n-1)
}

// PickSkewed maps the salted draw u for (seed, key) onto [0, n) as n·u³,
// the power-law slot pick: slot 0 alone serves ~⅒ of the picks at n = 3000,
// with a long tail — "realistic chain-reuse skew" rather than a uniform
// pool.
func PickSkewed(n int, seed int64, key int, salt uint64) int {
	u := Unit(seed, key, salt)
	return min(int(float64(n)*u*u*u), n-1)
}

// reusePlan decides, per rank, whether the site reuses a pooled chain and
// which slot it draws (PickSkewed).
func (c *Config) reusePlan(rank int) (bool, int) {
	if c.ChainReuse <= 0 || Unit(c.Seed, rank, reuseCoinSalt) >= c.ChainReuse {
		return false, 0
	}
	return true, PickSkewed(c.ChainPool, c.Seed, rank, reuseSlotSalt)
}

// slotZone is the DNS zone a slot's sites share; the template leaf is the
// zone wildcard, so every site of the slot matches it (the shared-hosting
// shape: one certificate, many customer vhosts).
func slotZone(slot int) string {
	return Padded("shard-", slot, 4, ".hosting.example")
}

// slotTemplate returns (memoized per generator) the slot's template domain.
// The template is produced by the ordinary defect-injection machinery on a
// virtual negative rank with its own salted seed, so slot chains carry the
// same misconfiguration mix as the rest of the population; the only
// difference is the wildcard leaf name.
func (g *Generator) slotTemplate(slot int) *Domain {
	if d, ok := g.slots[slot]; ok {
		return d
	}
	gen := g.gen
	gen.rng.Seed(domainSeed(gen.cfg.Seed^slotSeedSalt, slot+1))
	gen.nameOverride = "*." + slotZone(slot)
	d := gen.domain(-(slot + 1))
	gen.nameOverride = ""
	g.slots[slot] = d
	return d
}

// sharedDomain materializes one reusing site from its slot template: own
// rank and name (a vhost under the slot zone, so it matches the wildcard
// leaf), the template's chain and ground truth.
func (g *Generator) sharedDomain(rank, slot int) *Domain {
	tpl := g.slotTemplate(slot)
	d := *tpl
	d.Rank = rank
	d.Name = Padded("site-", rank, 6, "."+slotZone(slot))
	d.Shared = true
	return &d
}
