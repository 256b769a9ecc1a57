// The study's staged dataflow: deploy → scan (+rescan) → grade, one site per
// rank, on the pipeline engine. Every stage hop is a bounded channel, so a
// run holds O(workers + queue) sites in memory for any site count. A site's
// listener — a real socket plus goroutines — lives only inside its scan: the
// scan worker starts it, captures the chain and closes it, so at most
// Concurrency listeners are open at once at any pipeline depth, and the
// scan and grade stages take the engine's default depth. Run is the batch
// adapter (it keeps Report.Sites); RunStream adds the JSONL record sink and
// checkpoint/resume.
package study

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"

	"chainchaos/internal/aia"
	"chainchaos/internal/certgen"
	"chainchaos/internal/certmodel"
	"chainchaos/internal/compliance"
	"chainchaos/internal/core"
	"chainchaos/internal/faults"
	"chainchaos/internal/httpserver"
	"chainchaos/internal/ledger"
	"chainchaos/internal/parallel"
	"chainchaos/internal/pipeline"
	"chainchaos/internal/population"
	"chainchaos/internal/report"
	"chainchaos/internal/rootstore"
	"chainchaos/internal/tlsscan"
	"chainchaos/internal/tlsserve"
)

// Stream configures the streaming variant of a study run.
type Stream struct {
	// Out, when non-nil, receives one JSONL SiteRecord per site, in rank
	// order. Records carry only rank-deterministic fields (never the
	// ephemeral listener address), so two runs with the same (Seed, Sites)
	// write byte-identical streams for any worker count.
	Out io.Writer
	// Journal, when non-nil, checkpoints per-stage retirement watermarks so
	// an interrupted run can resume.
	Journal *pipeline.Journal
	// Resume is the first site rank to deploy; a resuming caller passes
	// Journal.Last(pipeline.SinkName("grade"))+1. Ranks below Resume are
	// skipped entirely: every per-rank assignment is salted by (Seed, rank),
	// so the remaining sites, and their records, are byte-identical to the
	// same ranks of a full run.
	Resume int
	// Record, when non-nil, receives each site's JSONL record (without
	// trailing newline) in rank order — the tap commands write their
	// out-file and ledger through. It runs in addition to Out, before it.
	// line is valid only during the call: the sink reuses its buffer for
	// the next record.
	Record func(rank int, line []byte) error
	// Ledger, when non-nil, receives each emitted record line as a Merkle
	// leaf after it is written, so batch roots anchor into the checkpoint
	// journal. The sink is dense — every rank emits exactly one line — so
	// rank == leaf index. Nil is inert.
	Ledger *ledger.Batcher
	// KeepSites retains every graded *Site in Report.Sites — the batch
	// behavior. Streaming callers leave it false: the Report then carries
	// only the aggregate tallies and memory stays bounded.
	KeepSites bool
}

// SiteRecord is the JSONL line RunStream emits per site. appendSiteRecord
// writes it field by field, byte for byte as json.Marshal would (the
// FuzzSiteRecord check), so a field added here must be added there too.
type SiteRecord struct {
	Rank         int             `json:"rank"`
	Domain       string          `json:"domain"`
	Injected     string          `json:"injected"`
	Server       string          `json:"server"`
	Scanned      bool            `json:"scanned"`
	Compliant    bool            `json:"compliant"`
	Leaf         string          `json:"leaf,omitempty"`
	OrderOK      bool            `json:"order_ok"`
	Completeness string          `json:"completeness,omitempty"`
	Verdicts     map[string]bool `json:"verdicts,omitempty"`
	ScanErrors   int             `json:"scan_errors,omitempty"`
	Rescanned    bool            `json:"rescanned,omitempty"`
	Scenario     string          `json:"scenario,omitempty"`
}

// deployed is one minted site between the deploy source and the scan stage.
type deployed struct {
	site *Site
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

// listenerFaults is a listener's fault ledger, read when its scan is done.
type listenerFaults struct {
	injected, acceptRetries, deadlineExpiries int
}

// capture is what one target's scan yields: the first list any vantage
// captured, every failed attempt by cause, whether a re-scan pass recovered
// it, whether every attempt missed, and the closed listener's fault ledger.
type capture struct {
	list      []*certmodel.Certificate
	errs      ErrorBreakdown
	rescanned bool
	lost      bool
	faults    listenerFaults
}

// scannedSite is a site with its capture, as the scan stage hands it on.
// The grade stage fills in site.Report and site.Verdicts and passes it to
// the sink unchanged.
type scannedSite struct {
	capture
	site   *Site
	minted bool
}

// Run executes the study. It is the batch adapter over the streaming
// pipeline: same stages, same report, with every site retained.
func Run(cfg Config) (*Report, error) {
	return RunStream(context.Background(), cfg, Stream{KeepSites: true})
}

// RunStream executes the study as a deploy→scan→grade pipeline. Sites flow
// through bounded stage queues: the serial deploy source assigns defects
// from per-rank salted splitmix64 streams (bit-identical to the batch path
// for any worker count) and mints its leaf and wire chain, cfg.Concurrency
// scan workers each start a site's listener, handshake it from every vantage,
// re-scan it if missed and close it, and cfg.Workers grade workers run the
// analyzer plus all eight client models over the captured chain.
// The sink aggregates the Report and, when st.Out is set, writes one JSONL
// SiteRecord per site in rank order.
func RunStream(ctx context.Context, cfg Config, st Stream) (*Report, error) {
	cfg.fillDefaults()
	reg := cfg.Metrics
	if reg != nil && cfg.Clock != nil && reg.Now == nil {
		// Deterministic fault runs: the engine's stage clock ticks on the
		// same injected clock as the faults and backoff it times.
		reg.Now = cfg.Clock.Now
	}
	leavesCounter := reg.Counter("study.leaves_generated")
	rescannedCounter := reg.Counter("study.rescanned")

	// Real PKI: a root with two intermediates, AIA-wired.
	root, err := certgen.NewRoot("Study Root")
	if err != nil {
		return nil, err
	}
	ca2, err := root.NewIntermediate("Study CA 2")
	if err != nil {
		return nil, err
	}
	const ca2URI = "http://repo.study.example/ca2.der"
	ca1, err := ca2.NewIntermediate("Study CA 1", certgen.WithAIA(ca2URI))
	if err != nil {
		return nil, err
	}
	stray, err := certgen.NewRoot("Study Stray Root")
	if err != nil {
		return nil, err
	}
	// Scenario replay: materialize the injected topologies up front so their
	// trust anchors land in the store before it seals and their AIA entries
	// are served alongside the study's own.
	scenarios := make([]*population.MaterializedScenario, 0, len(cfg.Scenarios))
	for _, s := range cfg.Scenarios {
		m, err := s.Materialize()
		if err != nil {
			return nil, fmt.Errorf("study: scenario %q: %w", s.Name, err)
		}
		scenarios = append(scenarios, m)
	}

	repo := aia.NewRepository().Instrument(reg)
	repo.Put(ca2URI, ca2.Cert)
	for _, m := range scenarios {
		uris, certs := m.AIAEntries()
		for i, uri := range uris {
			repo.Put(uri, certs[i])
		}
	}
	roots := rootstore.NewWith("study", root.Cert)
	for _, m := range scenarios {
		for _, r := range m.Roots {
			roots.Add(r)
		}
	}
	// The study trust store never grows after this point; sealed, the
	// parallel site-grading workers read it without locking.
	roots.Seal()

	servers := []httpserver.Model{
		httpserver.ApacheOld(), httpserver.Apache(), httpserver.Nginx(),
		httpserver.AzureAppGateway(), httpserver.IIS(), httpserver.AWSELB(),
	}
	defects := []defect{
		defectNone, defectNone, defectNone, defectNone, defectNone, defectNone,
		defectReversed, defectDuplicateLeaf, defectIncomplete, defectIrrelevant, defectStaleLeaf,
	}

	// mintDeployment mints one leaf (exactly one — a stale-leaf deployment
	// mints its expired leaf directly, the admin who never renewed, instead
	// of a fresh leaf plus a discarded second) and runs the server model
	// over it. LeavesGenerated proves no cert is wasted.
	mintDeployment := func(name string, inj defect, model httpserver.Model) (*certgen.Leaf, []*certmodel.Certificate, defect, error) {
		var leafOpts []certgen.Option
		if inj == defectStaleLeaf {
			leafOpts = append(leafOpts, certgen.WithValidity(
				certgen.Reference.AddDate(-2, 0, 0), certgen.Reference.AddDate(-1, 0, 0)))
		}
		leaf, err := ca1.NewLeaf(name, leafOpts...)
		if err != nil {
			return nil, nil, inj, err
		}
		leavesCounter.Inc()

		chain := []*certmodel.Certificate{ca1.Cert, ca2.Cert}
		switch inj {
		case defectReversed:
			chain = []*certmodel.Certificate{root.Cert, ca2.Cert, ca1.Cert}
		case defectDuplicateLeaf:
			chain = append([]*certmodel.Certificate{leaf.Cert}, chain...)
		case defectIncomplete:
			chain = []*certmodel.Certificate{ca1.Cert}
		case defectIrrelevant:
			chain = append(chain, stray.Cert)
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
	slots := map[int]*studySlot{}
	mintSlot := func(idx int) (*studySlot, bool, error) {
		if s, ok := slots[idx]; ok {
			return s, false, nil
		}
		s := &studySlot{
			zone:  slotZone(idx),
			inj:   defects[population.Pick(len(defects), cfg.Seed, idx, slotDefectSalt)],
			model: servers[population.Pick(len(servers), cfg.Seed, idx, slotServerSalt)],
		}
		leaf, wire, inj, err := mintDeployment("*."+s.zone, s.inj, s.model)
		if err != nil {
			return nil, false, err
		}
		s.leaf, s.wire, s.inj = leaf, wire, inj
		slots[idx] = s
		return s, true, nil
	}

	// The deploy source has depth 2, so it hands off one site per block: a
	// block runs on one worker, and multi-site blocks of freshly minted
	// sites (a keygen and a handshake each) would keep one scan worker busy
	// while the others wait. The scan and grade stages take the engine's
	// default depth; listeners live only inside their scan, so the depth
	// does not change how many are open.
	opts := pipeline.Options{Name: "study", Metrics: reg, Journal: st.Journal, Resume: st.Resume}
	src := pipeline.From(ctx, opts, "deploy", 2, func(rank int) (deployed, bool, error) {
		if rank >= cfg.Sites {
			return deployed{}, false, nil
		}
		// Each rank's defect and server-model assignment comes from its own
		// salted splitmix64 stream, so a resumed run needs no replay: rank r
		// draws the same pair in every run shape. Shared sites take their
		// assignment from the slot instead.
		inj := defects[population.Pick(len(defects), cfg.Seed, rank, siteDefectSalt)]
		model := servers[population.Pick(len(servers), cfg.Seed, rank, siteServerSalt)]

		if replay, idx := cfg.scenarioPlan(rank); replay {
			// Scenario sites present a fuzzer-discovered synthetic chain. No
			// leaf is minted and no listener started — the chain cannot
			// handshake — so the site skips the physical scan and its list is
			// graded as captured.
			m := scenarios[idx]
			site := &Site{Domain: m.Domain, Injected: defectScenario, Server: "scenario", Scenario: m.Name}
			return deployed{site: site, replay: m.List}, true, nil
		}

		if shared, idx := cfg.reusePlan(rank); shared {
			s, minted, err := mintSlot(idx)
			if err != nil {
				return deployed{}, false, err
			}
			site := &Site{Domain: population.Padded("site-", rank, 6, "."+s.zone), Injected: s.inj, Server: s.model.Name}
			if cfg.Dedup {
				return deployed{site: site, slot: s, minted: minted}, true, nil
			}
			// Dedup off: the shared chain still gets its own listener and
			// full physical scan — the baseline the cache is measured
			// against.
			return deployed{site: site, leaf: s.leaf, wire: s.wire, minted: minted}, true, nil
		}

		domain := population.Padded("site-", rank, 3, ".study.example")
		leaf, wire, inj, err := mintDeployment(domain, inj, model)
		if err != nil {
			return deployed{}, false, err
		}
		site := &Site{Domain: domain, Injected: inj, Server: model.Name}
		return deployed{site: site, leaf: leaf, wire: wire, minted: true}, true, nil
	})

	// Multi-vantage scan per site. Transient failures are retried inside the
	// scanner; whatever still fails is counted per cause, and a site every
	// vantage missed gets up to RescanPasses more attempts — the same
	// per-site connection sequence the batch sweeps produced.
	scanner := &tlsscan.Scanner{
		Timeout:     cfg.Timeout,
		Concurrency: cfg.Concurrency,
		Clock:       cfg.Clock,
		Metrics:     cfg.Metrics,
	}
	if cfg.Retries > 0 {
		scanner.Retry = faults.Policy{
			Attempts:  cfg.Retries + 1,
			BaseDelay: 20 * time.Millisecond,
			MaxDelay:  500 * time.Millisecond,
			Seed:      cfg.Seed,
			Clock:     cfg.Clock,
		}
	}
	// scan probes one target from every vantage, then re-scans it up to
	// RescanPasses times while nothing was captured.
	scan := func(ctx context.Context, target tlsscan.Target) capture {
		c := capture{lost: true}
		attempt := func(rescan bool) {
			res := scanner.Scan(ctx, target)
			switch {
			case res.Err != nil:
				c.errs.add(res.Cause)
			case c.lost:
				c.list, c.lost, c.rescanned = res.List, false, rescan
				if rescan {
					rescannedCounter.Inc()
				}
			}
		}
		for v := 0; v < cfg.Vantages; v++ {
			attempt(false)
		}
		for pass := 0; pass < cfg.RescanPasses && c.lost; pass++ {
			attempt(true)
		}
		return c
	}
	// serveScan starts a listener for one deployment, scans it as domain
	// and closes it, so a listener lives only inside its scan and each scan
	// worker holds at most one. The capture carries the listener's fault
	// ledger.
	serveScan := func(ctx context.Context, leaf *certgen.Leaf, wire []*certmodel.Certificate, domain string) (capture, error) {
		srv, err := tlsserve.Start(tlsserve.Config{
			List: wire, Key: leaf.Key, Domain: domain,
			Faults: cfg.Faults, Clock: cfg.Clock, Metrics: cfg.Metrics,
		})
		if err != nil {
			return capture{}, err
		}
		defer srv.Close()
		c := scan(ctx, tlsscan.Target{Addr: srv.Addr(), Domain: domain})
		c.faults = listenerFaults{srv.FaultsInjected(), srv.AcceptRetries(), srv.DeadlineExpiries()}
		return c, nil
	}
	scanned := pipeline.Through(src, pipeline.Stage[deployed, scannedSite]{
		Name:    "scan",
		Workers: cfg.Concurrency,
		Fn: func(ctx context.Context, _, _ int, d deployed) (scannedSite, error) {
			out := scannedSite{site: d.site, minted: d.minted}
			var err error
			switch {
			case d.replay != nil:
				// Scenario replay: the chain is already "captured" verbatim.
				out.list = d.replay
			case d.slot != nil:
				// Shared chain under Dedup: the slot's first site to arrive
				// serves and scans it once. Its scan tallies and fault
				// ledger are folded into the run totals after the drain,
				// never into per-site records.
				s := d.slot
				s.once.Do(func() {
					s.capture, s.err = serveScan(ctx, s.leaf, s.wire, "probe."+s.zone)
				})
				out.list, out.lost, err = s.list, s.lost, s.err
			default:
				out.capture, err = serveScan(ctx, d.leaf, d.wire, d.site.Domain)
			}
			return out, err
		},
	})

	// Grade and differentially test each captured chain.
	trust := core.Trust{Roots: roots, Fetcher: repo, Now: certgen.Reference, Hostname: true, Metrics: cfg.Metrics}
	// Under Dedup the grade stage shares gradings through core.Memo: its
	// hits alias one read-only OK map per (chain, leaf-match bit).
	var memo *core.Memo[map[string]bool]
	if cfg.Dedup {
		memo = core.NewMemo[map[string]bool]("study.vcache", trust)
	}
	graders := make([]*core.Grader, parallel.Workers(cfg.Workers))
	graded := pipeline.Through(scanned, pipeline.Stage[scannedSite, scannedSite]{
		Name:    "grade",
		Workers: len(graders),
		OnWorker: func(worker int) func() {
			graders[worker] = trust.Grader()
			return graders[worker].Close
		},
		Fn: func(ctx context.Context, worker, _ int, sc scannedSite) (scannedSite, error) {
			if !sc.lost {
				gr, domain := graders[worker], sc.site.Domain
				sc.site.Report, sc.site.Verdicts, _ = memo.Grade(ctx, sc.list, domain, func() (compliance.Report, map[string]bool) {
					rep := gr.Analyze(sc.list, domain)
					verdicts := make(map[string]bool, len(core.Profiles))
					for i, p := range core.Profiles {
						verdicts[p.Name] = gr.Class(i, sc.list, domain) == core.VerdictOK
					}
					return rep, verdicts
				})
			}
			return sc, nil
		},
	})

	rep := &Report{Cfg: cfg, Passes: make(map[string]int, len(core.Profiles))}
	var line []byte // the record buffer, reused for every site
	err = graded.Drain(func(rank int, g scannedSite) error {
		if g.minted {
			rep.LeavesGenerated++
		}
		rep.addScan(g.capture)
		rep.Streamed++
		switch {
		case g.lost:
			rep.Lost++
		case g.site.Report.Compliant():
			rep.StreamedCompliant++
		default:
			for name, ok := range g.site.Verdicts {
				if ok {
					rep.Passes[name]++
				}
			}
		}
		if st.KeepSites {
			rep.Sites = append(rep.Sites, g.site)
		}
		if st.Out == nil && st.Record == nil {
			return nil
		}
		line = append(appendSiteRecord(line[:0], rank, g), '\n')
		rec := line[:len(line)-1]
		if st.Record != nil {
			if err := st.Record(rank, rec); err != nil {
				return err
			}
		}
		if st.Out != nil {
			if _, err := st.Out.Write(line); err != nil {
				return err
			}
		}
		return st.Ledger.Append(rec)
	})
	if err != nil {
		return nil, err
	}
	// Fold the slots' once-scan tallies and listener fault ledgers into the
	// run totals: under Dedup each slot was physically scanned once, on
	// behalf of all its sites, so its errors and faults belong to the run,
	// not to any one site record. Safe to read here — the drain has joined
	// every stage, so no once-scan is still in flight.
	for _, s := range slots {
		rep.addScan(s.capture)
	}
	if reg != nil {
		rep.Snapshot = reg.Snapshot()
	}
	return rep, nil
}

// appendSiteRecord appends one site's JSONL line, without the trailing
// newline, to b: the bytes json.Marshal gives for the site's SiteRecord
// (field order, omitempty, sorted verdict keys, HTML-safe escaping), written
// without reflection. The record excludes every nondeterministic field, so
// the byte stream depends only on (Seed, Sites, Resume).
func appendSiteRecord(b []byte, rank int, g scannedSite) []byte {
	s := g.site
	b = strconv.AppendInt(append(b, `{"rank":`...), int64(rank), 10)
	b = report.AppendJSONString(append(b, `,"domain":`...), s.Domain)
	b = report.AppendJSONString(append(b, `,"injected":`...), s.Injected.String())
	b = report.AppendJSONString(append(b, `,"server":`...), s.Server)
	if g.lost {
		b = append(b, `,"scanned":false,"compliant":false,"order_ok":false`...)
	} else {
		b = strconv.AppendBool(append(b, `,"scanned":true,"compliant":`...), s.Report.Compliant())
		b = report.AppendJSONString(append(b, `,"leaf":`...), s.Report.Leaf.String())
		b = strconv.AppendBool(append(b, `,"order_ok":`...), s.Report.Order.SequentialOK)
		b = report.AppendJSONString(append(b, `,"completeness":`...), s.Report.Completeness.Class.String())
		b = appendVerdicts(b, s.Verdicts)
	}
	if n := g.errs.Total(); n != 0 {
		b = strconv.AppendInt(append(b, `,"scan_errors":`...), int64(n), 10)
	}
	if g.rescanned {
		b = append(b, `,"rescanned":true`...)
	}
	if s.Scenario != "" {
		b = report.AppendJSONString(append(b, `,"scenario":`...), s.Scenario)
	}
	return append(b, '}')
}

// appendVerdicts appends the verdicts field with its keys sorted, as
// encoding/json orders a map; an empty map is omitted.
func appendVerdicts(b []byte, v map[string]bool) []byte {
	if len(v) == 0 {
		return b
	}
	var stack [16]string // room for every client profile
	keys := stack[:0]
	for k := range v {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, `,"verdicts":{`...)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendBool(append(report.AppendJSONString(b, k), ':'), v[k])
	}
	return append(b, '}')
}
