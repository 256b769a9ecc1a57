// Package difftest implements the paper's §5.2 evaluation: run every client
// model over every (potentially non-compliant) deployed chain, compare
// verdicts, and attribute disagreements to the four root causes the paper
// isolates — missing order reorganization (I-1), input-list length limits
// (I-2), missing backtracking (I-3), and missing AIA completion (I-4).
package difftest

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"strings"

	"chainchaos/internal/certmodel"
	"chainchaos/internal/clients"
	"chainchaos/internal/compliance"
	"chainchaos/internal/core"
	"chainchaos/internal/obs"
	"chainchaos/internal/parallel"
	"chainchaos/internal/pathbuild"
	"chainchaos/internal/pipeline"
	"chainchaos/internal/population"
	"chainchaos/internal/report"
	"chainchaos/internal/rootstore"
)

// Cause is a root-cause class for client disagreement.
type Cause int

const (
	CauseOther Cause = iota
	// CauseI1Reorder: a client without order reorganization failed a
	// disordered chain that reordering clients validated.
	CauseI1Reorder
	// CauseI2InputLimit: a client rejected the list for its size alone.
	CauseI2InputLimit
	// CauseI3Backtrack: non-backtracking clients committed to an invalid
	// path on a multi-path chain.
	CauseI3Backtrack
	// CauseI4AIA: only clients able to fetch (or recall) missing
	// intermediates validated an incomplete chain.
	CauseI4AIA
)

// String returns the paper's label.
func (c Cause) String() string {
	switch c {
	case CauseI1Reorder:
		return "I-1 order reorganization"
	case CauseI2InputLimit:
		return "I-2 input list limit"
	case CauseI3Backtrack:
		return "I-3 backtracking"
	case CauseI4AIA:
		return "I-4 AIA completion"
	default:
		return "other"
	}
}

// ClientVerdict is one client's result on one chain.
type ClientVerdict struct {
	Client  string
	Kind    clients.Kind
	Outcome pathbuild.Outcome
}

// OK reports whether the client accepted the chain.
func (v ClientVerdict) OK() bool { return v.Outcome.OK() }

// Class buckets the verdict into the paper's error classes (OK,
// unknown-issuer, date-invalid, domain-mismatch, ...).
func (v ClientVerdict) Class() core.VerdictClass { return core.Classify(v.Outcome) }

// ChainRecord is the differential record for one domain.
type ChainRecord struct {
	Domain   *population.Domain
	Report   compliance.Report
	Verdicts []ClientVerdict
	Causes   []Cause
}

// Discrepant reports whether clients of the given kind disagree.
func (r *ChainRecord) Discrepant(kind clients.Kind, exclude ...string) bool {
	pass, fail := 0, 0
	for _, v := range r.Verdicts {
		if v.Kind != kind || slices.Contains(exclude, v.Client) {
			continue
		}
		if v.OK() {
			pass++
		} else {
			fail++
		}
	}
	return pass > 0 && fail > 0
}

// ClassDiscrepant reports whether clients of the given kind produced
// different verdict classes — a finer comparison than pass/fail that mirrors
// the paper's browser-message methodology.
func (r *ChainRecord) ClassDiscrepant(kind clients.Kind, exclude ...string) bool {
	seen := false
	var first core.VerdictClass
	for _, v := range r.Verdicts {
		if v.Kind != kind || slices.Contains(exclude, v.Client) {
			continue
		}
		switch c := v.Class(); {
		case !seen:
			seen, first = true, c
		case c != first:
			return true
		}
	}
	return false
}

// AllPass reports whether every client of the kind accepted the chain.
func (r *ChainRecord) AllPass(kind clients.Kind, exclude ...string) bool {
	for _, v := range r.Verdicts {
		if v.Kind != kind || slices.Contains(exclude, v.Client) {
			continue
		}
		if !v.OK() {
			return false
		}
	}
	return true
}

// Summary aggregates a differential run, mirroring §5.2's result overview.
type Summary struct {
	Total        int
	NonCompliant int

	// Over the non-compliant chains (the paper's focus):
	AllBrowsersPass  int // Safari excluded, as in the paper
	AllLibrariesPass int
	// *Discrepant count pass/fail disagreements; *ClassDiscrepant count
	// verdict-class disagreements (the paper compares browser error
	// messages, not just accept/reject).
	BrowserDiscrepant      int
	LibraryDiscrepant      int
	BrowserClassDiscrepant int
	LibraryClassDiscrepant int
	CauseCounts            map[Cause]int
	PerClientPass          map[string]int // over non-compliant chains
	PerClientBuildFail     map[string]int // construction-phase errors
}

// Harness wires client models to a population.
type Harness struct {
	// Dedup memoizes analysis and verdicts per distinct certificate list
	// (core.Memo): duplicate chains cost a map lookup plus per-site leaf
	// classification instead of a topology build, a compliance analysis and
	// eight client path-builds. Summaries and record streams are
	// bit-identical with the cache on or off.
	Dedup bool
	// Workers shards the population across goroutines; <= 0 means
	// GOMAXPROCS. Per-worker summaries are merged in shard order, so the
	// Summary is bit-identical to a serial run for any worker count.
	Workers int
	// Metrics, when non-nil, receives the run's counters (difftest.chains,
	// difftest.noncompliant) and is propagated to every per-worker Grader
	// for construction metrics. Run and RunAnalyzed also time their
	// pipeline on it — the difftest.domains source and the difftest.verdict
	// stage; RunStream times its pipeline on opts.Metrics.
	Metrics *obs.Registry
	// Record, when non-nil, is called by the single sink goroutine for
	// every retired rank in rank order — the tap through which commands
	// write their out-file and ledger. line is the rank's RecordLine JSON
	// without a trailing newline, or nil for ranks that produce no output
	// (compliant chains): the harness is a sparse sink, and the nil calls
	// let the caller track progress through silent ranks. The lines are
	// deterministic for a (seed, population) pair regardless of worker
	// count. line is valid only during the call: the sink reuses its
	// buffer for the next record.
	Record func(rank int, line []byte) error
}

// RecordLine is the JSONL row the sink emits per non-compliant chain when
// Harness.Record is set: the chain's generated identity, each client's
// verdict class, and the attributed root causes.
type RecordLine struct {
	Rank     int               `json:"rank"`
	Domain   string            `json:"domain"`
	CA       string            `json:"ca"`
	Server   string            `json:"server"`
	Verdicts map[string]string `json:"verdicts"`
	Causes   []string          `json:"causes,omitempty"`
}

// appendRecordLine appends a record's JSONL row, without the trailing
// newline, to b: the bytes json.Marshal gives for its RecordLine (verdict
// keys sorted by client name, HTML-safe escaping, causes omitted when there
// are none), written without reflection (the FuzzRecordLine check). The
// verdicts' client names must be distinct, as they are in every record the
// harness builds: one verdict per core.Profiles entry. The names are sorted
// per record, not in an order fixed once, because a ChainRecord may carry
// any list of clients: perfbench builds its own, and FuzzRecordLine feeds
// arbitrary names.
func appendRecordLine(b []byte, rec *ChainRecord) []byte {
	d := rec.Domain
	b = strconv.AppendInt(append(b, `{"rank":`...), int64(d.Rank), 10)
	b = report.AppendJSONString(append(b, `,"domain":`...), d.Name)
	b = report.AppendJSONString(append(b, `,"ca":`...), d.CA)
	b = report.AppendJSONString(append(b, `,"server":`...), d.Server)
	var stack [16]int // room for every client profile
	order := stack[:0]
	for i := range rec.Verdicts {
		order = append(order, i)
	}
	slices.SortFunc(order, func(i, j int) int { return strings.Compare(rec.Verdicts[i].Client, rec.Verdicts[j].Client) })
	b = append(b, `,"verdicts":{`...)
	for n, i := range order {
		if n > 0 {
			b = append(b, ',')
		}
		v := &rec.Verdicts[i]
		b = report.AppendJSONString(append(report.AppendJSONString(b, v.Client), ':'), v.Class().String())
	}
	b = append(b, '}')
	if len(rec.Causes) > 0 {
		b = append(b, `,"causes":[`...)
		for n, c := range rec.Causes {
			if n > 0 {
				b = append(b, ',')
			}
			b = report.AppendJSONString(b, c.String())
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// Trust is the client context the harness judges every chain in: each
// client's vendor root store, the population's AIA repository, the warm
// Firefox preload, and validation pinned to the population's reference
// time. Clients build without the hostname: the paper's differential
// verdicts compare path construction, not name matching. Graders outside
// the harness (the divergence fuzzer) use it so a divergence they find is
// one the harness would report.
func Trust(pop *population.Population, warm *rootstore.Store, reg *obs.Registry) core.Trust {
	return core.Trust{
		Roots:   pop.Roots(),
		Vendors: pop.Vendors,
		Fetcher: pop.Repo,
		Warm:    warm,
		Now:     pop.Cfg.Base,
		Metrics: reg,
	}
}

// Run executes the differential evaluation over a materialized population.
// Commands stream through RunStream; Run stays for the benchmarks that time
// the harness alone (BenchmarkObsOverheadGuard and the 2k harness
// benchmarks): they grade a population generated before the timer starts,
// and RunStream would put the generation inside the timed region.
func (h *Harness) Run(pop *population.Population) *Summary {
	return h.RunAnalyzed(pop, nil)
}

// verdictMemo is what the harness memoizes per distinct chain beside the
// order and completeness reports: the verdicts and causes of a
// non-compliant chain, nil for a compliant one. Hit records alias these
// slices read-only; absorb and the record sink never mutate them.
type verdictMemo struct {
	Verdicts []ClientVerdict
	Causes   []Cause
}

// grade runs every client over a non-compliant chain; a compliant chain
// touches no builder.
func grade(g *core.Grader, d *population.Domain, rep compliance.Report) verdictMemo {
	if rep.Compliant() {
		return verdictMemo{}
	}
	rec := ChainRecord{Report: rep, Verdicts: Outcomes(g, d.List, d.Name)}
	return verdictMemo{Verdicts: rec.Verdicts, Causes: AttributeCauses(&rec)}
}

// Outcomes runs every client over the list with g and keeps each whole
// Outcome, in core.Profiles order: what cause attribution reads. A caller
// that needs only the verdict classes takes g.Verdicts, which copies no
// outcome out.
func Outcomes(g *core.Grader, list []*certmodel.Certificate, domain string) []ClientVerdict {
	out := make([]ClientVerdict, len(core.Profiles))
	for i, p := range core.Profiles {
		out[i] = ClientVerdict{Client: p.Name, Kind: p.Kind, Outcome: g.Build(i, list, domain)}
	}
	return out
}

// verdictStage builds the one stage every harness pipeline runs after its
// source: analyze each domain (or take its precomputed report, when reports
// is non-nil and index-aligned with the ranks) and grade the non-compliant
// ones across all clients, through the run's memo.
func (h *Harness) verdictStage(pop *population.Population, reports []compliance.Report, workers int) pipeline.Stage[*population.Domain, *ChainRecord] {
	trust := Trust(pop, DefaultWarmCache(pop), h.Metrics)
	var memo *core.Memo[verdictMemo]
	if h.Dedup {
		memo = core.NewMemo[verdictMemo]("difftest.vcache", trust)
	}
	graders := make([]*core.Grader, workers)
	return pipeline.Stage[*population.Domain, *ChainRecord]{
		Name:    "verdict",
		Workers: workers,
		OnWorker: func(worker int) func() {
			graders[worker] = trust.Grader()
			return graders[worker].Close
		},
		Fn: func(ctx context.Context, worker, rank int, d *population.Domain) (*ChainRecord, error) {
			g := graders[worker]
			rep, m, _ := memo.Grade(ctx, d.List, d.Name, func() (compliance.Report, verdictMemo) {
				var rep compliance.Report
				if reports != nil {
					rep = reports[rank]
				} else {
					rep = g.Analyze(d.List, d.Name)
				}
				return rep, grade(g, d, rep)
			})
			if rep.Compliant() {
				return nil, nil
			}
			if m.Verdicts == nil {
				// The digest first graded compliant on a domain whose leaf
				// placement differs from this one's: grade it here and
				// keep the first-seen memo.
				m = grade(g, d, rep)
			}
			return &ChainRecord{Domain: d, Report: rep, Verdicts: m.Verdicts, Causes: m.Causes}, nil
		},
	}
}

// drainSummary terminates a verdict flow: records are absorbed into one
// Summary on the single sink goroutine, in rank order — exactly the order a
// serial run would produce.
func (h *Harness) drainSummary(f *pipeline.Flow[*ChainRecord]) (*Summary, error) {
	sum := newSummary()
	var line []byte // the record buffer, reused for every record
	err := f.Drain(func(rank int, rec *ChainRecord) error {
		sum.Total++
		if rec != nil {
			sum.absorb(rec)
		}
		if h.Record == nil {
			return nil
		}
		if rec == nil {
			return h.Record(rank, nil)
		}
		line = appendRecordLine(line[:0], rec)
		return h.Record(rank, line)
	})
	if err != nil {
		return nil, err
	}
	h.Metrics.Counter("difftest.chains").Add(int64(sum.Total))
	h.Metrics.Counter("difftest.noncompliant").Add(int64(sum.NonCompliant))
	return sum, nil
}

// workerCount caps the harness worker pool at the population size so tiny
// runs do not spin up idle builders.
func (h *Harness) workerCount(size int) int {
	workers := parallel.Workers(h.Workers)
	if size >= 0 && workers > size {
		workers = size
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// RunAnalyzed executes the differential evaluation, reusing precomputed
// compliance reports when reports is non-nil (it must be index-aligned with
// pop.Domains). It is the batch adapter over the verdict pipeline: domains
// stream through per-worker graders and the Summary merges at the sink in
// rank order — bit-identical to a serial run for any worker count or queue
// depth.
func (h *Harness) RunAnalyzed(pop *population.Population, reports []compliance.Report) *Summary {
	workers := h.workerCount(len(pop.Domains))
	opts := pipeline.Options{Name: "difftest", Metrics: h.Metrics}
	src := pipeline.From(context.Background(), opts, "domains", 0, func(rank int) (*population.Domain, bool, error) {
		if rank >= len(pop.Domains) {
			return nil, false, nil
		}
		return pop.Domains[rank], true, nil
	})
	sum, err := h.drainSummary(pipeline.Through(src, h.verdictStage(pop, reports, workers)))
	if err != nil {
		// Reachable only through a Record failure: no stage errors and the
		// context is never cancelled. Batch callers wanting to handle sink
		// errors should use RunStream.
		panic(err)
	}
	return sum
}

// RunStream executes the differential evaluation over a streaming population
// source: domains are generated and graded in flight, so peak memory is
// O(workers · queue) regardless of src.Size(). The Summary is bit-identical
// to Run over the materialized population. opts carries the metrics
// registry, journal, and resume rank shared by every stage.
func (h *Harness) RunStream(ctx context.Context, src *population.Source, opts pipeline.Options) (*Summary, error) {
	workers := h.workerCount(src.Size())
	return h.drainSummary(pipeline.Through(src.Flow(ctx, opts), h.verdictStage(src.Population(), nil, workers)))
}

// newSummary creates a Summary with its maps allocated.
func newSummary() *Summary {
	return &Summary{
		CauseCounts:        make(map[Cause]int),
		PerClientPass:      make(map[string]int),
		PerClientBuildFail: make(map[string]int),
	}
}

// absorb folds one non-compliant chain record into the summary. The sink
// calls it in rank order, so the counts match a serial run exactly.
func (s *Summary) absorb(rec *ChainRecord) {
	s.NonCompliant++
	for _, v := range rec.Verdicts {
		if v.OK() {
			s.PerClientPass[v.Client]++
		}
		if v.Outcome.Err != nil {
			s.PerClientBuildFail[v.Client]++
		}
	}
	if rec.AllPass(clients.Browser, "Safari") {
		s.AllBrowsersPass++
	}
	if rec.AllPass(clients.Library) {
		s.AllLibrariesPass++
	}
	if rec.Discrepant(clients.Browser, "Safari") {
		s.BrowserDiscrepant++
	}
	if rec.Discrepant(clients.Library) {
		s.LibraryDiscrepant++
	}
	if rec.ClassDiscrepant(clients.Browser, "Safari") {
		s.BrowserClassDiscrepant++
	}
	if rec.ClassDiscrepant(clients.Library) {
		s.LibraryClassDiscrepant++
	}
	for _, c := range rec.Causes {
		s.CauseCounts[c]++
	}
}

// AttributeCauses attributes each client disagreement on a record to the
// paper's I-1…I-4 causes. The harness applies it to every graded chain; the
// divergence fuzzer applies it to records it assembles for mutated chains.
//
// A cause is read from the capabilities of the clients involved: the
// Reorder, AIA and Backtrack bits of the policy in each client's profile
// (core.ProfileOf). A client outside core.Profiles has no known policy, so
// it is neither blamed for lacking a capability nor credited with one.
func AttributeCauses(rec *ChainRecord) []Cause {
	if !rec.Discrepant(clients.Library) && !rec.Discrepant(clients.Browser, "Safari") {
		return nil
	}
	var causes []Cause
	var seen uint8 // bit c is set once cause c is in causes
	add := func(c Cause) {
		if seen&(1<<c) == 0 {
			seen |= 1 << c
			causes = append(causes, c)
		}
	}

	for _, v := range rec.Verdicts {
		if v.OK() {
			continue
		}
		p := core.ProfileOf(v.Client)
		switch {
		case errors.Is(v.Outcome.Err, pathbuild.ErrInputListTooLong):
			add(CauseI2InputLimit)
		case lacks(p, reorders) && rec.Report.Order.ReversedAny && passesElsewhere(rec, v.Client):
			add(CauseI1Reorder)
		case rec.Report.Completeness.Class == compliance.Incomplete && capablePasses(rec, fetchesAIA):
			add(CauseI4AIA)
		case rec.Report.Order.MultiplePaths && lacks(p, backtracks) && capablePasses(rec, backtracks):
			add(CauseI3Backtrack)
		default:
			add(CauseOther)
		}
	}
	return causes
}

// The capabilities causes are attributed by.
func reorders(p *pathbuild.Policy) bool   { return p.Reorder }
func fetchesAIA(p *pathbuild.Policy) bool { return p.AIA }
func backtracks(p *pathbuild.Policy) bool { return p.Backtrack }

// lacks reports whether the client profile p is known and its policy lacks
// the capability.
func lacks(p *clients.Profile, capability func(*pathbuild.Policy) bool) bool {
	return p != nil && !capability(&p.Policy)
}

// capablePasses reports whether a client whose policy has the capability
// accepted the chain.
func capablePasses(rec *ChainRecord, capability func(*pathbuild.Policy) bool) bool {
	for _, v := range rec.Verdicts {
		if !v.OK() {
			continue
		}
		if p := core.ProfileOf(v.Client); p != nil && capability(&p.Policy) {
			return true
		}
	}
	return false
}

func passesElsewhere(rec *ChainRecord, except string) bool {
	for _, v := range rec.Verdicts {
		if v.Client != except && v.Kind == clients.Library && v.OK() {
			return true
		}
	}
	return false
}

// DefaultWarmCache builds the harness's Firefox preload over the population,
// sealed: the intermediates of every CCADB-disclosed CA (the "Mozilla caches
// all known CA certificates" design the paper cites). What it cannot know
// are intermediates of the CAs whose profile is Undisclosed — the
// government/regional hierarchies here. Their incomplete chains become the
// SEC_ERROR_UNKNOWN_ISSUER browser discrepancies of finding I-4.
func DefaultWarmCache(pop *population.Population) *rootstore.Store {
	cache := rootstore.New("intermediate-cache")
	for _, iss := range pop.Issuers {
		if iss.Profile.Undisclosed {
			continue
		}
		for _, inter := range iss.Intermediates {
			cache.Add(inter)
		}
	}
	cache.Seal()
	return cache
}

// Builders constructs one pathbuild.Builder per profile judged in the
// harness's Trust over the population with the given warm preload.
func Builders(pop *population.Population, profiles []clients.Profile, cache *rootstore.Store, reg *obs.Registry) []*pathbuild.Builder {
	t := Trust(pop, cache, reg)
	out := make([]*pathbuild.Builder, len(profiles))
	for i, p := range profiles {
		out[i] = t.Builder(p)
	}
	return out
}
