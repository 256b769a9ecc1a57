// study runs the paper's full measurement pipeline over real loopback
// infrastructure: a real-certificate population deployed through HTTP-server
// models onto TLS listeners, scanned from multiple vantages, graded for
// structural compliance, and differentially tested across the eight client
// models.
//
// Usage:
//
//	study [-sites 60] [-seed 1] [-vantages 2] [-workers 0] [-retries 2] [-chaos]
//	      [-reuse 0.9995] [-distinct 3000] [-dedup]
//	      [-stream] [-out sites.jsonl] [-checkpoint study.ckpt]
//	      [-ledger-batch 1024] [-ledger-latency 0] [-ledger-sidecar sites.leaves]
//	      [-distribute 4] [-dist-listen addr | -worker -connect addr]
//	      [-metrics metrics.json] [-pprof localhost:6060]
//
// A run with both -out and -checkpoint is tamper-evident by default: every
// record line becomes a Merkle leaf, batch roots anchor into the checkpoint
// journal as they complete, and cmd/ledgerverify audits the output against
// them afterwards (-ledger-batch 0 opts out). Distributed runs fold
// worker-hashed subtree roots into the identical anchor sequence.
//
// -distribute N runs the study as a coordinator leasing contiguous site
// ranges to N worker processes (copies of this binary run with -worker);
// records merge in rank order, byte-identical to a single-process -stream
// run, resumable through the same -checkpoint. internal/run owns this
// wiring for every record-emitting command.
//
// With -stream the run holds only in-flight sites in memory and writes one
// JSON line per site to -out (stdout by default); -checkpoint journals
// progress so an interrupted run resumes where it stopped, appending to the
// same -out file.
//
// -reuse makes that fraction of sites serve a chain drawn from a pool of
// -distinct slot chains (the paper's shared-hosting skew) and -dedup memoizes
// the physical scan and the verdicts per distinct chain, which is what makes
// a 10M-site run tractable: duplicate chains cost a cache lookup instead of a
// key generation, a handshake, and eight client path-builds.
package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"chainchaos/internal/obs"
	"chainchaos/internal/population"
	"chainchaos/internal/run"
	"chainchaos/internal/study"
	"chainchaos/internal/tlsserve"
)

// job is the study as its flags describe it. It is also the config every
// distributed worker receives, so the same fields reach every process.
type job struct {
	Sites    int     `json:"sites"`
	Seed     int64   `json:"seed"`
	Vantages int     `json:"vantages"`
	Workers  int     `json:"workers"`
	Retries  int     `json:"retries"`
	Reuse    float64 `json:"reuse,omitempty"`
	Distinct int     `json:"distinct,omitempty"`
	Dedup    bool    `json:"dedup,omitempty"`
	Chaos    bool    `json:"chaos,omitempty"`
	// Scenarios ship the replayed fuzzer topologies inline: workers may not
	// share the coordinator's filesystem.
	Scenarios    []population.Scenario `json:"scenarios,omitempty"`
	ScenarioRate float64               `json:"scenario_rate,omitempty"`
}

func (j job) config(metrics *obs.Registry) study.Config {
	cfg := study.Config{
		Sites: j.Sites, Seed: j.Seed, Vantages: j.Vantages,
		Workers: j.Workers, Retries: j.Retries, Metrics: metrics,
		Reuse: j.Reuse, DistinctChains: j.Distinct, Dedup: j.Dedup,
		Scenarios: j.Scenarios, ScenarioRate: j.ScenarioRate,
	}
	if j.Chaos {
		cfg.Faults = tlsserve.FaultConfig{FailFirst: 1, SlowWrite: time.Millisecond}
	}
	return cfg
}

// grade runs sites [s.Lo, s.Hi) of the study: the whole run in one process,
// one lease in a worker.
func grade(ctx context.Context, j job, s run.Span) (map[string]int64, error) {
	rep, err := study.RunStream(ctx, j.config(s.Metrics), study.Stream{
		Journal: s.Journal, Resume: s.Lo, Limit: s.Hi, Record: s.Emit,
	})
	if err != nil {
		return nil, err
	}
	return rep.Tallies(), nil
}

func main() {
	cli := obs.NewCLI("study")
	var j job
	flag.IntVar(&j.Sites, "sites", 60, "number of loopback TLS sites to deploy")
	flag.Int64Var(&j.Seed, "seed", 1, "defect assignment seed")
	flag.IntVar(&j.Vantages, "vantages", 2, "scan passes to merge")
	flag.BoolVar(&j.Chaos, "chaos", false, "inject faults into every listener (reset first connection, slow writes) to exercise the retry path")
	flag.Float64Var(&j.Reuse, "reuse", 0, "fraction of sites serving a pooled (duplicate) chain")
	flag.IntVar(&j.Distinct, "distinct", 0, "distinct-chain pool size under -reuse (0 = default 3000)")
	flag.BoolVar(&j.Dedup, "dedup", false, "share listeners, scans, and verdicts per distinct chain (bit-identical records, duplicate chains cost a lookup)")
	stream := flag.Bool("stream", false, "stream results site by site instead of materializing the run (bounded memory)")
	rec := run.Records{Stage: "grade"}
	rec.Bind("out", "write per-site JSONL records here (default stdout; implies -stream)",
		"checkpoint", "journal progress to this file and resume an interrupted run from it (implies -stream)")
	killAfter := flag.Int("dist-kill-after", 0, "chaos: the first worker SIGKILLs itself after emitting this many records (distributed runs only)")
	scenarioFile := flag.String("scenario-file", "", "replay fuzzer-discovered chain topologies from this scenario file (cmd/divfuzz -scenarios)")
	flag.Float64Var(&j.ScenarioRate, "scenario-rate", 0.02, "fraction of sites replaying an injected scenario under -scenario-file")
	cli.BindWorkers("parallel workers for the grading loop (0 = GOMAXPROCS)")
	cli.BindRetries(2, "extra handshake attempts per transport failure (0 = scan once)")
	cli.BindDistribute()
	cli.BindLedger()
	cli.BindObs()
	flag.Parse()
	ctx := context.Background()
	if cli.Worker {
		if err := run.Serve(ctx, cli, grade); err != nil {
			cli.Fatal(err)
		}
		return
	}
	cli.Start()

	j.Workers, j.Retries = cli.Workers, cli.Retries
	if *scenarioFile != "" {
		scs, err := population.LoadScenarios(*scenarioFile)
		if err != nil {
			cli.Fatal(err)
		}
		j.Scenarios = scs
	}
	cfg := j.config(cli.Metrics)

	start := time.Now()
	var rep *study.Report
	if cli.Distribute > 0 || *stream || rec.Out != "" || rec.Checkpoint != "" {
		out, err := run.Open(cli, rec)
		if err != nil {
			cli.Fatal(err)
		}
		tallies, err := run.Ranks(ctx, cli, out, j.Sites, run.Job[job]{Config: j, KillAfter: *killAfter}, grade)
		if err == nil {
			err = out.Close()
		}
		if err != nil {
			cli.Fatal(err)
		}
		rep = study.ReportFromTallies(cfg, tallies)
		rep.Snapshot = cli.Metrics.Snapshot()
	} else {
		var err error
		if rep, err = study.Run(cfg); err != nil {
			cli.Fatal(err)
		}
	}
	for _, t := range rep.Tables() {
		fmt.Println(t)
	}
	cli.Finish()
	fmt.Printf("%d/%d sites compliant, %d scan errors (dial %d / handshake %d / parse %d / cancelled %d), %d rescanned, %d lost, %v elapsed\n",
		rep.CompliantCount(), rep.SiteCount(), rep.ScanErrors,
		rep.ScanErrorCauses.Dial, rep.ScanErrorCauses.Handshake,
		rep.ScanErrorCauses.Parse, rep.ScanErrorCauses.Cancelled,
		rep.Rescanned, rep.Lost, time.Since(start).Round(time.Millisecond))
	if rep.Snapshot != nil {
		if hits, misses := rep.Snapshot.Counters["study.vcache.hits"], rep.Snapshot.Counters["study.vcache.misses"]; hits+misses > 0 {
			fmt.Printf("verdict cache: %d hits / %d misses (%.2f%% hit rate, %d distinct chains graded)\n",
				hits, misses, 100*float64(hits)/float64(hits+misses), misses)
		}
	}
}
