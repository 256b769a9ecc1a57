// Chain-reuse slots for the study farm: under Config.Reuse, a fraction of
// sites serve their slot's shared chain (one wildcard leaf, one deployment)
// instead of minting their own — the shared-hosting shape that makes a 10M-
// site run tractable on one box, because the physical cost (keygen, listener,
// handshake) is paid per distinct chain, not per site.
//
// Determinism contract: the reuse coin, the slot pick, and each slot's defect
// and server-model assignment derive from (Config.Seed, rank|slot) through
// salted splitmix64 streams that never touch the deploy source's serial rng,
// so a Reuse=0 run is byte-identical to the pre-reuse study and reuse runs
// are invariant under worker count, queue depth, and resume rank.
package study

import (
	"sync"

	"chainchaos/internal/certgen"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/httpserver"
	"chainchaos/internal/population"
)

// Stream salts keep each decision on its own independent stream.
const (
	studyCoinSalt  = 0xC0117A6B5D4C5E55
	studySlotSalt  = 0xDC0FFEE51F8B08BA
	slotDefectSalt = 0x5EEDF00D7E57AB1E
	slotServerSalt = 0xA11CE5B0B5CAFE17
	siteDefectSalt = 0x9E11F15CA1DED00D
	siteServerSalt = 0x0DDBA11FEEDC0DE5

	studyScenarioCoinSalt = 0xFEE1DEADC0DEBA5E
	studyScenarioPickSalt = 0xBEEFCAFEF01DAB1E
)

// reusePlan decides, per rank, whether the site serves a pooled chain and
// which slot it draws: population's power-law skewed pick on the study's
// own salts.
func (c *Config) reusePlan(rank int) (bool, int) {
	if c.Reuse <= 0 || population.Unit(c.Seed, rank, studyCoinSalt) >= c.Reuse {
		return false, 0
	}
	return true, population.PickSkewed(c.DistinctChains, c.Seed, rank, studySlotSalt)
}

// scenarioPlan decides, per rank, whether the site replays an injected
// scenario and which one. The draws live on their own salted streams, so a
// run with no scenarios loaded is byte-identical to one before replay
// existed. Scenario replay preempts the reuse plan: a scenario rank never
// consults the reuse coin's outcome.
func (c *Config) scenarioPlan(rank int) (bool, int) {
	if len(c.Scenarios) == 0 || c.ScenarioRate <= 0 {
		return false, 0
	}
	if population.Unit(c.Seed, rank, studyScenarioCoinSalt) >= c.ScenarioRate {
		return false, 0
	}
	return true, population.Pick(len(c.Scenarios), c.Seed, rank, studyScenarioPickSalt)
}

// slotZone is the DNS zone a slot's sites share; the slot leaf is the zone
// wildcard, so every vhost of the slot matches it.
func slotZone(slot int) string {
	return population.Padded("shard-", slot, 4, ".study.example")
}

// studySlot is one pooled deployment: the wildcard leaf, the wire chain as
// the slot's server model emitted it, and — under Dedup — the once-only
// physical scan every slot site reuses. Under Dedup that scan clears leaf
// and wire (see siteScanner.scanSite).
type studySlot struct {
	zone  string
	leaf  *certgen.Leaf
	inj   defect
	model httpserver.Model
	wire  []*certmodel.Certificate

	// Dedup-mode scan state. The first slot site to reach the scan stage
	// serves and scans the slot under once; the capture's scan tallies and
	// listener fault ledger are folded into the run totals after the drain,
	// never into per-site records. err is the listener's start error, which
	// fails every site of the slot.
	once sync.Once
	capture
	err error
}
