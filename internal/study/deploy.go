// The deploy source: the study PKI, the AIA repository and sealed trust store
// it publishes, the reuse slots, and the minting of each rank's deployment.
// The deployer runs as the pipeline's serial source, so its slot map needs no
// lock.
package study

import (
	"fmt"

	"chainchaos/internal/aia"
	"chainchaos/internal/certgen"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/core"
	"chainchaos/internal/httpserver"
	"chainchaos/internal/obs"
	"chainchaos/internal/population"
	"chainchaos/internal/rootstore"
)

// studyServers are the server models a deployment is drawn from: Table 4's.
var studyServers = httpserver.Models()

// studyDefects is the defect draw: six in eleven deployments are clean.
var studyDefects = []defect{
	defectNone, defectNone, defectNone, defectNone, defectNone, defectNone,
	defectReversed, defectDuplicateLeaf, defectIncomplete, defectIrrelevant, defectStaleLeaf,
}

// ca2URI is where the AIA repository serves Study CA 2, the issuer Study
// CA 1's AIA extension names.
const ca2URI = "http://repo.study.example/ca2.der"

// deployed is one minted site between the deploy source and the scan stage.
type deployed struct {
	site *site
	// leaf and wire are the deployment the scan stage serves: the leaf's
	// key and the certificate list as the server model emitted it.
	leaf *certgen.Leaf
	wire []*certmodel.Certificate
	// slot is non-nil for a Dedup-mode shared site: the scan stage then
	// reuses the slot's once-only physical scan instead of serving leaf/wire.
	slot *studySlot
	// replay is non-nil for a scenario-replay site: the synthetic chain
	// cannot complete a real handshake, so it bypasses the listener and scan
	// and is graded as captured.
	replay []*certmodel.Certificate
	// minted records whether this rank minted a leaf (always true for
	// unique sites; true for the slot site that materialized its slot).
	minted bool
}

// deployer is the deploy source's state: a real PKI (a root with two
// AIA-wired intermediates, plus a stray root for irrelevant-certificate
// deployments), the replayed scenarios, the AIA repository and trust store
// graders judge in, and the reuse slots materialized so far.
type deployer struct {
	cfg                   Config
	root, ca2, ca1, stray *certgen.Authority
	scenarios             []*population.MaterializedScenario
	repo                  *aia.Repository
	roots                 *rootstore.Store
	slots                 map[int]*studySlot
	leaves                *obs.Counter
}

// newDeployer generates the study PKI and materializes cfg's scenarios, so
// their trust anchors land in the store before it seals and their AIA
// entries are served alongside the study's own.
func newDeployer(cfg Config) (*deployer, error) {
	d := &deployer{cfg: cfg, slots: map[int]*studySlot{}, leaves: cfg.Metrics.Counter("study.leaves_generated")}
	var err error
	if d.root, err = certgen.NewRoot("Study Root"); err != nil {
		return nil, err
	}
	if d.ca2, err = d.root.NewIntermediate("Study CA 2"); err != nil {
		return nil, err
	}
	if d.ca1, err = d.ca2.NewIntermediate("Study CA 1", certgen.WithAIA(ca2URI)); err != nil {
		return nil, err
	}
	if d.stray, err = certgen.NewRoot("Study Stray Root"); err != nil {
		return nil, err
	}
	for _, s := range cfg.Scenarios {
		m, err := s.Materialize()
		if err != nil {
			return nil, fmt.Errorf("study: scenario %q: %w", s.Name, err)
		}
		d.scenarios = append(d.scenarios, m)
	}

	d.repo = aia.NewRepository().Instrument(cfg.Metrics)
	d.repo.Put(ca2URI, d.ca2.Cert)
	d.roots = rootstore.NewWith("study", d.root.Cert)
	for _, m := range d.scenarios {
		uris, certs := m.AIAEntries()
		for i, uri := range uris {
			d.repo.Put(uri, certs[i])
		}
		for _, r := range m.Roots {
			d.roots.Add(r)
		}
	}
	// The study trust store never grows after this point; sealed, the
	// parallel site-grading workers read it without locking.
	d.roots.Seal()
	return d, nil
}

// trust is the context every site is graded in: the study's sealed roots
// and AIA repository at the certificates' reference time, with hostname
// validation on.
func (d *deployer) trust() core.Trust {
	return core.Trust{Roots: d.roots, Fetcher: d.repo, Now: certgen.Reference, Hostname: true, Metrics: d.cfg.Metrics}
}

// mintDeployment mints one leaf (exactly one — a stale-leaf deployment
// mints its expired leaf directly, the admin who never renewed, instead of a
// fresh leaf plus a discarded second) and runs the server model over it.
// LeavesGenerated proves no cert is wasted.
func (d *deployer) mintDeployment(name string, inj defect, model httpserver.Model) (*certgen.Leaf, []*certmodel.Certificate, defect, error) {
	var leafOpts []certgen.Option
	if inj == defectStaleLeaf {
		leafOpts = append(leafOpts, certgen.WithValidity(
			certgen.Reference.AddDate(-2, 0, 0), certgen.Reference.AddDate(-1, 0, 0)))
	}
	leaf, err := d.ca1.NewLeaf(name, leafOpts...)
	if err != nil {
		return nil, nil, inj, err
	}
	d.leaves.Inc()

	chain := []*certmodel.Certificate{d.ca1.Cert, d.ca2.Cert}
	switch inj {
	case defectReversed:
		chain = []*certmodel.Certificate{d.root.Cert, d.ca2.Cert, d.ca1.Cert}
	case defectDuplicateLeaf:
		chain = append([]*certmodel.Certificate{leaf.Cert}, chain...)
	case defectIncomplete:
		chain = []*certmodel.Certificate{d.ca1.Cert}
	case defectIrrelevant:
		chain = append(chain, d.stray.Cert)
	}

	// The upload follows the model's file scheme: split-scheme servers
	// take CertFile+ChainFile, the rest one Fullchain. Deploy now
	// rejects a Fullchain handed to a split-scheme server, so the input
	// must pick one layout, exactly as an administrator does.
	input := func(chain []*certmodel.Certificate) httpserver.ConfigInput {
		in := httpserver.ConfigInput{PrivateKeyFor: leaf.Cert}
		if model.Scheme == httpserver.SchemeSplit {
			in.CertFile = []*certmodel.Certificate{leaf.Cert}
			in.ChainFile = chain
		} else {
			in.Fullchain = append([]*certmodel.Certificate{leaf.Cert}, chain...)
		}
		return in
	}
	wire, err := model.Deploy(input(chain))
	if err == httpserver.ErrDuplicateLeaf {
		// The server's check fired; the administrator fixes the files.
		inj = defectNone
		wire, err = model.Deploy(input(chain[1:]))
	}
	if err != nil {
		return nil, nil, inj, fmt.Errorf("study: deploy %s on %s: %w", name, model.Name, err)
	}
	return leaf, wire, inj, nil
}

// mintSlot materializes (once, in the serial source) a reuse slot: its
// defect and server model come from slot-salted streams, its leaf is the
// zone wildcard every slot site matches. Under Dedup the slot's first
// scanned site serves and scans it once for all of them.
func (d *deployer) mintSlot(idx int) (*studySlot, bool, error) {
	if s, ok := d.slots[idx]; ok {
		return s, false, nil
	}
	s := &studySlot{
		zone:  slotZone(idx),
		inj:   studyDefects[population.Pick(len(studyDefects), d.cfg.Seed, idx, slotDefectSalt)],
		model: studyServers[population.Pick(len(studyServers), d.cfg.Seed, idx, slotServerSalt)],
	}
	leaf, wire, inj, err := d.mintDeployment("*."+s.zone, s.inj, s.model)
	if err != nil {
		return nil, false, err
	}
	s.leaf, s.wire, s.inj = leaf, wire, inj
	d.slots[idx] = s
	return s, true, nil
}

// next is the deploy source: it deploys rank's site, or reports the end of
// the run past Config.Sites.
func (d *deployer) next(rank int) (deployed, bool, error) {
	cfg := &d.cfg
	if rank >= cfg.Sites {
		return deployed{}, false, nil
	}
	// Each rank's defect and server-model assignment comes from its own
	// salted splitmix64 stream, so a resumed run needs no replay: rank r
	// draws the same pair in every run shape. Shared sites take their
	// assignment from the slot instead.
	inj := studyDefects[population.Pick(len(studyDefects), cfg.Seed, rank, siteDefectSalt)]
	model := studyServers[population.Pick(len(studyServers), cfg.Seed, rank, siteServerSalt)]

	if replay, idx := cfg.scenarioPlan(rank); replay {
		// Scenario sites present a fuzzer-discovered synthetic chain. No
		// leaf is minted and no listener started — the chain cannot
		// handshake — so the site skips the physical scan and its list is
		// graded as captured.
		m := d.scenarios[idx]
		s := &site{Domain: m.Domain, Injected: defectScenario, Server: "scenario", Scenario: m.Name}
		return deployed{site: s, replay: m.List}, true, nil
	}

	if shared, idx := cfg.reusePlan(rank); shared {
		slot, minted, err := d.mintSlot(idx)
		if err != nil {
			return deployed{}, false, err
		}
		s := &site{Domain: population.Padded("site-", rank, 6, "."+slot.zone), Injected: slot.inj, Server: slot.model.Name}
		if cfg.Dedup {
			return deployed{site: s, slot: slot, minted: minted}, true, nil
		}
		// Dedup off: the shared chain still gets its own listener and
		// full physical scan — the baseline the cache is measured
		// against.
		return deployed{site: s, leaf: slot.leaf, wire: slot.wire, minted: minted}, true, nil
	}

	domain := population.Padded("site-", rank, 3, ".study.example")
	leaf, wire, inj, err := d.mintDeployment(domain, inj, model)
	if err != nil {
		return deployed{}, false, err
	}
	s := &site{Domain: domain, Injected: inj, Server: model.Name}
	return deployed{site: s, leaf: leaf, wire: wire, minted: true}, true, nil
}
