// The study's staged dataflow: deploy → scan (+rescan) → grade, one site per
// rank, on the pipeline engine. Every stage hop is a bounded channel, so a
// run holds O(workers + queue) sites in memory for any site count; each
// site leaves the run as one JSONL record, and the Report keeps only the
// sink's tallies. The stages are named parts: the deployer (deploy.go), the
// siteScanner (scan.go), the grade stage and Report.tally; RunStream wires
// them.
package study

import (
	"context"
	"io"
	"slices"
	"strconv"
	"strings"

	"chainchaos/internal/compliance"
	"chainchaos/internal/core"
	"chainchaos/internal/ledger"
	"chainchaos/internal/parallel"
	"chainchaos/internal/pipeline"
	"chainchaos/internal/report"
)

// Stream is where a study run's per-site records go, and its checkpoint.
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

// RunStream executes the study as a deploy→scan→grade pipeline. Sites flow
// through bounded stage queues: the serial deploy source assigns defects
// from per-rank salted splitmix64 streams (bit-identical for any worker
// count) and mints its leaf and wire chain, cfg.Concurrency scan workers
// each start a site's listener, handshake it from every vantage, re-scan it
// if missed and close it, and cfg.Workers grade workers run the analyzer
// plus all eight client models over the captured chain. The sink tallies
// the Report and writes one JSONL SiteRecord per site in rank order to the
// stream's taps.
func RunStream(ctx context.Context, cfg Config, st Stream) (*Report, error) {
	cfg.fillDefaults()
	reg := cfg.Metrics
	if reg != nil && cfg.Clock != nil && reg.Now == nil {
		// Deterministic fault runs: the engine's stage clock ticks on the
		// same injected clock as the faults and backoff it times.
		reg.Now = cfg.Clock.Now
	}
	dep, err := newDeployer(cfg)
	if err != nil {
		return nil, err
	}

	// The deploy source has depth 2, so it hands off one site per block: a
	// block runs on one worker, and multi-site blocks of freshly minted
	// sites (a keygen and a handshake each) would keep one scan worker busy
	// while the others wait. The scan and grade stages take the engine's
	// default depth; listeners live only inside their scan, so the depth
	// does not change how many are open.
	opts := pipeline.Options{Name: "study", Metrics: reg, Journal: st.Journal, Resume: st.Resume}
	src := pipeline.From(ctx, opts, "deploy", 2, dep.next)
	scanned := pipeline.Through(src, newSiteScanner(cfg).stage())
	graded := pipeline.Through(scanned, gradeStage(dep.trust(), cfg.Workers, cfg.Dedup))

	rep := &Report{}
	var line []byte // the record buffer, reused for every site
	err = graded.Drain(func(rank int, g scannedSite) error {
		rep.tally(g)
		if st.Out == nil && st.Record == nil {
			return nil
		}
		line = append(appendSiteRecord(line[:0], rank, g), '\n')
		return st.emit(rank, line)
	})
	if err != nil {
		return nil, err
	}
	// Fold the slots' once-scan tallies and listener fault ledgers into the
	// run totals: under Dedup each slot was physically scanned once, on
	// behalf of all its sites, so its errors and faults belong to the run,
	// not to any one site record. Safe to read here — the drain has joined
	// every stage, so no once-scan is still in flight.
	for _, s := range dep.slots {
		rep.addScan(s.capture)
	}
	if reg != nil {
		rep.Snapshot = reg.Snapshot()
	}
	return rep, nil
}

// gradeStage grades and differentially tests each captured chain: one
// core.Grader per worker runs the analyzer and all eight client models. A
// lost site passes through ungraded. Under dedup the stage shares gradings
// through core.Memo, which keeps one verdict vector per (chain, leaf-match
// bit).
func gradeStage(trust core.Trust, workers int, dedup bool) pipeline.Stage[scannedSite, scannedSite] {
	var memo *core.Memo[core.Verdicts]
	if dedup {
		memo = core.NewMemo[core.Verdicts]("study.vcache", trust)
	}
	graders := make([]*core.Grader, parallel.Workers(workers))
	return pipeline.Stage[scannedSite, scannedSite]{
		Name:    "grade",
		Workers: len(graders),
		OnWorker: func(worker int) func() {
			graders[worker] = trust.Grader()
			return graders[worker].Close
		},
		Fn: func(ctx context.Context, worker, _ int, sc scannedSite) (scannedSite, error) {
			if !sc.lost {
				gr, domain := graders[worker], sc.site.Domain
				sc.site.Report, sc.site.Verdicts, _ = memo.Grade(ctx, sc.list, domain, func() (compliance.Report, core.Verdicts) {
					return gr.Analyze(sc.list, domain), gr.Verdicts(sc.list, domain)
				})
			}
			return sc, nil
		},
	}
}

// emit hands one newline-terminated record line to the stream's taps in
// order: Record, then Out, then the ledger. Record and the ledger take the
// line without its newline.
func (st *Stream) emit(rank int, line []byte) error {
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

// verdictOrder lists the indexes of core.Profiles by client name: the
// order encoding/json writes a map's keys in, which the verdicts field keeps.
var verdictOrder = func() []int {
	order := make([]int, len(core.Profiles))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return strings.Compare(core.Profiles[i].Name, core.Profiles[j].Name) })
	return order
}()

// appendVerdicts appends the verdicts field: each client's name, in
// verdictOrder, and whether it accepted the chain.
func appendVerdicts(b []byte, v core.Verdicts) []byte {
	b = append(b, `,"verdicts":{`...)
	for n, i := range verdictOrder {
		if n > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendBool(append(report.AppendJSONString(b, core.Profiles[i].Name), ':'), v[i] == core.VerdictOK)
	}
	return append(b, '}')
}
