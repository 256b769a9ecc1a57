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
//	      [-out sites.jsonl] [-checkpoint study.ckpt]
//	      [-ledger-batch 1024] [-ledger-latency 0] [-ledger-sidecar sites.leaves]
//	      [-metrics metrics.json] [-pprof localhost:6060]
//
// The run holds only in-flight sites in memory and writes one JSON line per
// site to -out (stdout by default), then prints the per-client and
// scan-failure tables; -checkpoint journals progress so an interrupted run
// resumes where it stopped, appending to the same -out file.
//
// A run with both -out and -checkpoint is tamper-evident by default: every
// record line becomes a Merkle leaf, batch roots anchor into the checkpoint
// journal as they complete, and cmd/ledgerverify audits the output against
// them afterwards (-ledger-batch 0 opts out). internal/run owns this wiring
// for every record-emitting command.
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

func main() {
	cli := obs.NewCLI("study")
	var cfg study.Config
	flag.IntVar(&cfg.Sites, "sites", 60, "number of loopback TLS sites to deploy")
	flag.Int64Var(&cfg.Seed, "seed", 1, "defect assignment seed")
	flag.IntVar(&cfg.Vantages, "vantages", 2, "scan passes to merge")
	chaos := flag.Bool("chaos", false, "inject faults into every listener (reset first connection, slow writes) to exercise the retry path")
	flag.Float64Var(&cfg.Reuse, "reuse", 0, "fraction of sites serving a pooled (duplicate) chain")
	flag.IntVar(&cfg.DistinctChains, "distinct", 0, "distinct-chain pool size under -reuse (0 = default 3000)")
	flag.BoolVar(&cfg.Dedup, "dedup", false, "share listeners, scans, and verdicts per distinct chain (bit-identical records, duplicate chains cost a lookup)")
	rec := run.Records{Stage: "grade"}
	rec.Bind("out", "write per-site JSONL records here (default stdout)",
		"checkpoint", "journal progress to this file and resume an interrupted run from it")
	scenarioFile := flag.String("scenario-file", "", "replay fuzzer-discovered chain topologies from this scenario file (cmd/divfuzz -scenarios)")
	flag.Float64Var(&cfg.ScenarioRate, "scenario-rate", 0.02, "fraction of sites replaying an injected scenario under -scenario-file")
	cli.BindWorkers("parallel workers for the grading loop (0 = GOMAXPROCS)")
	cli.BindRetries(2, "extra handshake attempts per transport failure (0 = scan once)")
	cli.BindLedger()
	cli.BindObs()
	flag.Parse()
	cli.Start()

	cfg.Workers, cfg.Retries, cfg.Metrics = cli.Workers, cli.Retries, cli.Metrics
	if *chaos {
		cfg.Faults = tlsserve.FaultConfig{FailFirst: 1, SlowWrite: time.Millisecond}
	}
	if *scenarioFile != "" {
		scs, err := population.LoadScenarios(*scenarioFile)
		if err != nil {
			cli.Fatal(err)
		}
		cfg.Scenarios = scs
	}

	start := time.Now()
	rep, err := runStudy(cli, cfg, rec)
	if err != nil {
		cli.Fatal(err)
	}
	for _, t := range rep.Tables() {
		fmt.Println(t)
	}
	cli.Finish()
	fmt.Printf("%d/%d sites compliant, %d scan errors (dial %d / handshake %d / cancelled %d), %d rescanned, %d lost, %v elapsed\n",
		rep.StreamedCompliant, rep.Streamed, rep.ScanErrors,
		rep.ScanErrorCauses.Dial, rep.ScanErrorCauses.Handshake, rep.ScanErrorCauses.Cancelled,
		rep.Rescanned, rep.Lost, time.Since(start).Round(time.Millisecond))
	if rep.Snapshot != nil {
		// Hits and misses race: two grade workers can both miss one chain
		// before either stores it. Lookups (one per graded site) and inserts
		// (one per distinct chain) are exact; hits and misses stay in
		// -metrics.
		c := rep.Snapshot.Counters
		if lookups, inserts := c["study.vcache.hits"]+c["study.vcache.misses"], c["study.vcache.inserts"]; lookups > 0 {
			fmt.Printf("verdict cache: %d distinct chains graded for %d sites (%.2f%% of sites reused a grading)\n",
				inserts, lookups, 100*float64(lookups-inserts)/float64(lookups))
		}
	}
}

// runStudy runs the study from the record path's resume rank, writing each
// site's record through it, and returns the report of the ranks it ran. A
// failed run leaves the path as a kill would, for a rerun to resume: Close
// would seal the ledger over a partial run.
func runStudy(cli *obs.CLI, cfg study.Config, rec run.Records) (*study.Report, error) {
	out, err := run.Open(cli, rec)
	if err != nil {
		return nil, err
	}
	rep, err := study.RunStream(context.Background(), cfg, study.Stream{
		Journal: out.Journal, Resume: out.Resume, Record: out.Emit,
	})
	if err == nil {
		err = out.Close()
	}
	return rep, err
}
