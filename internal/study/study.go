// Package study orchestrates the paper's entire measurement as one run over
// real infrastructure: it generates a real-certificate web population (no
// synthetic back end anywhere), deploys each site through an HTTP-server
// model onto a loopback TLS listener, scans every listener from multiple
// vantage points with the ZGrab2-style scanner, merges the captures, grades
// structural compliance, and differentially tests the eight client models —
// the full RQ1+RQ2 pipeline with actual handshakes on every chain.
//
// It is the end-to-end counterpart of internal/experiments, which runs the
// same analyses at six-figure scale over the synthetic population; the study
// trades scale for full physical fidelity.
package study

import (
	"chainchaos/internal/compliance"
	"chainchaos/internal/core"
	"chainchaos/internal/faults"
	"chainchaos/internal/obs"
	"chainchaos/internal/population"
	"chainchaos/internal/report"
	"chainchaos/internal/tlsscan"
	"chainchaos/internal/tlsserve"
)

// Config parameterizes a study run.
type Config struct {
	// Sites is the number of TLS listeners to stand up (default 40 — each
	// one needs real key generation and a socket).
	Sites int
	// Seed drives defect assignment.
	Seed int64
	// Vantages is the number of scan passes to merge (default 2, the
	// paper's US/AU pair).
	Vantages int
	// Concurrency bounds parallel scanning (default 8).
	Concurrency int
	// Workers bounds the parallel grade-and-difftest loop over scanned
	// sites; <= 0 means GOMAXPROCS. Results are deterministic for any
	// worker count.
	Workers int
	// Retries is the extra handshake attempts the scanner spends on each
	// transport failure (0 = scan once).
	Retries int
	// Faults misconfigures every listener on purpose, so the run exercises
	// the retry/re-scan machinery instead of assuming a polite network.
	Faults tlsserve.FaultConfig
	// Clock paces scan backoff, throttling, and injected server faults;
	// nil means the wall clock.
	Clock faults.Clock
	// Reuse is the fraction of sites that present a chain drawn from a
	// shared slot pool instead of minting their own — the population shape
	// the paper measured, where a handful of hosting-provider chains serve
	// most of the Top-1M. 0 disables (every site mints its own leaf).
	// Decisions derive from (Seed, rank) alone, so the shape is identical
	// for any worker count or resume point.
	Reuse float64
	// DistinctChains is the slot-pool size under Reuse (default 3000). The
	// slot draw is power-law skewed, so the head slots dominate.
	DistinctChains int
	// Dedup memoizes per distinct chain: slot sites share one listener and
	// one physical scan (sync.Once), and the grade stage consults a
	// core.Memo (study.vcache) keyed by (chain digest, leaf-match bit),
	// so a duplicate chain costs a map
	// lookup plus leaf classification instead of keygen + handshake +
	// analysis + eight client path-builds. On a fault-free run the report
	// tables and the streamed JSONL are byte-identical with Dedup on or
	// off; under injected faults only the run-level scan/fault tallies may
	// differ (shared sites are physically scanned once, not per site).
	Dedup bool
	// Scenarios are fuzzer-discovered chain topologies to replay: at
	// ScenarioRate, a site presents a scenario's synthetic chain verbatim
	// instead of minting a deployment (see cmd/divfuzz -scenarios). Synthetic
	// certificates cannot complete a real TLS handshake, so scenario sites
	// skip the physical listener and scan; their lists enter the grade stage
	// directly, against a trust store extended with the scenarios' anchors.
	Scenarios []population.Scenario
	// ScenarioRate is the fraction of sites replaying a scenario when
	// Scenarios is non-empty. The coin and pick are salted per-rank streams
	// (see reuse.go), so replay is worker-invariant and an empty Scenarios
	// leaves the run byte-identical.
	ScenarioRate float64
	// Metrics, when non-nil, instruments the whole pipeline: scanner and
	// listener counters, the open-listener gauge, AIA repository hits,
	// per-client construction metrics, and the engine's per-stage metrics
	// (study.deploy / study.scan / study.grade .items and .latency). The
	// deploy source's busy time covers the minting of leaves and wire
	// chains, not the PKI set-up before the run or listener start, which
	// happens in the scan stage. The final Report carries a Snapshot and
	// its Tables() gain the pipeline stage table. When Clock is also set
	// and the registry has no Now of its own, the registry is put on the
	// same clock, so fault-injection runs snapshot deterministically.
	Metrics *obs.Registry
}

func (c *Config) fillDefaults() {
	if c.Sites <= 0 {
		c.Sites = 40
	}
	if c.Vantages <= 0 {
		c.Vantages = 2
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Reuse > 0 && c.DistinctChains <= 0 {
		c.DistinctChains = 3000
	}
}

// defect enumerates the deployment mutations the study injects.
type defect int

const (
	defectNone defect = iota
	defectReversed
	defectDuplicateLeaf
	defectIncomplete
	defectIrrelevant
	defectStaleLeaf
	// defectScenario marks a site replaying a fuzzer-discovered topology;
	// the actual defect shape is the scenario's, not this enum's.
	defectScenario
)

func (d defect) String() string {
	switch d {
	case defectNone:
		return "compliant"
	case defectReversed:
		return "reversed"
	case defectDuplicateLeaf:
		return "duplicate-leaf"
	case defectIncomplete:
		return "incomplete"
	case defectIrrelevant:
		return "irrelevant"
	case defectStaleLeaf:
		return "stale-leaf"
	case defectScenario:
		return "scenario"
	default:
		return "unknown"
	}
}

// site is one deployed site as it moves through the stages: the deploy
// source names it, the grade stage fills in its report and verdicts, and the
// sink writes its record.
type site struct {
	Domain   string
	Injected defect
	Server   string
	// Scenario names the replayed scenario for defectScenario sites.
	Scenario string

	Report   compliance.Report
	Verdicts core.Verdicts
}

// ErrorBreakdown counts failed scan attempts per cause — the distinction
// between transport loss and cancellation a single integer conflated.
type ErrorBreakdown struct {
	Dial, Handshake, Cancelled int
}

func (b *ErrorBreakdown) add(c tlsscan.ErrorCause) {
	switch c {
	case tlsscan.CauseDial:
		b.Dial++
	case tlsscan.CauseHandshake:
		b.Handshake++
	case tlsscan.CauseCancelled:
		b.Cancelled++
	}
}

// Total is the sum over all causes.
func (b ErrorBreakdown) Total() int {
	return b.Dial + b.Handshake + b.Cancelled
}

// addScan folds one physical scan into the run totals: its failed attempts
// by cause, its re-scan recovery and its listener's fault ledger.
func (r *Report) addScan(c capture) {
	b := c.errs
	r.ScanErrors += b.Total()
	r.ScanErrorCauses.Dial += b.Dial
	r.ScanErrorCauses.Handshake += b.Handshake
	r.ScanErrorCauses.Cancelled += b.Cancelled
	if c.rescanned {
		r.Rescanned++
	}
	r.FaultsInjected += c.faults.injected
	r.AcceptRetries += c.faults.acceptRetries
	r.DeadlineExpiries += c.faults.deadlineExpiries
}

// tally folds one retired site into the run totals: the leaf it minted, its
// scan, and its grade — lost, compliant, or non-compliant with a pass for
// each client that accepted it.
func (r *Report) tally(g scannedSite) {
	if g.minted {
		r.LeavesGenerated++
	}
	r.addScan(g.capture)
	r.Streamed++
	switch {
	case g.lost:
		r.Lost++
	case g.site.Report.Compliant():
		r.StreamedCompliant++
	default:
		for i, c := range g.site.Verdicts {
			if c == core.VerdictOK {
				r.Passes[i]++
			}
		}
	}
}

// Report is a completed study: the sink's tallies over the ranks the run
// retired. Per-site results leave the run as JSONL records (Stream), never
// through the Report.
type Report struct {
	// ScanErrors is the total number of failed scan results across every
	// vantage and re-scan pass (a site recovered by a later pass still
	// counts its earlier failures here).
	ScanErrors int
	// ScanErrorCauses breaks ScanErrors down by cause.
	ScanErrorCauses ErrorBreakdown
	// Rescanned is how many sites were recovered by the bounded re-scan
	// passes after every vantage missed them.
	Rescanned int
	// Lost is how many sites were never captured by any pass; grading
	// skips them, and a healthy run reports zero.
	Lost int
	// FaultsInjected is the total number of misbehaviours the listeners
	// fired (sum over the farm).
	FaultsInjected int
	// AcceptRetries is the total number of temporary Accept errors the
	// listeners retried.
	AcceptRetries int
	// DeadlineExpiries is how many server-side handshakes were cut by the
	// per-connection deadline.
	DeadlineExpiries int
	// LeavesGenerated counts end-entity certificates minted for the farm.
	// Exactly one leaf is generated per site — stale-leaf sites mint their
	// expired leaf directly instead of minting a fresh one first and
	// discarding it — so without Config.Reuse this always equals Streamed.
	// Under Reuse, slot sites share their slot's wildcard leaf, so it
	// equals unique sites + slots materialized.
	LeavesGenerated int
	// Streamed counts the sites the run retired through the pipeline sink,
	// and StreamedCompliant those of them graded compliant.
	Streamed          int
	StreamedCompliant int
	// Passes[i] counts the non-compliant sites (graded, not compliant) that
	// client core.Profiles[i] accepted.
	Passes [len(core.Verdicts{})]int
	// Snapshot is the metrics export taken after the run when Cfg.Metrics
	// was wired; nil otherwise.
	Snapshot *obs.Snapshot
}

// Tables renders the study as report tables: per-client pass rates over the
// non-compliant sites and the scan failures, plus the pipeline stage table
// when the run was instrumented.
func (r *Report) Tables() []*report.Table {
	// Every site is lost, compliant or non-compliant.
	bad := r.Streamed - r.Lost - r.StreamedCompliant
	perClient := report.New("per-client pass rate over non-compliant sites", "Client", "Pass")
	for i, p := range core.Profiles {
		perClient.Add(p.Name, report.Count(r.Passes[i], bad))
	}

	failures := report.New("scan failures by cause (all passes)", "Cause", "Failed attempts")
	failures.Addf("dial", r.ScanErrorCauses.Dial)
	failures.Addf("handshake", r.ScanErrorCauses.Handshake)
	failures.Addf("cancelled", r.ScanErrorCauses.Cancelled)
	failures.Addf("total", r.ScanErrors)
	failures.Addf("sites recovered by re-scan", r.Rescanned)
	failures.Addf("sites lost", r.Lost)
	failures.Addf("server faults injected", r.FaultsInjected)
	failures.Addf("server accept retries", r.AcceptRetries)
	failures.Addf("server deadline expiries", r.DeadlineExpiries)
	tables := []*report.Table{perClient, failures}
	if r.Snapshot != nil {
		if pt := r.Snapshot.PipelineTable(); pt != nil {
			tables = append(tables, pt)
		}
	}
	return tables
}
