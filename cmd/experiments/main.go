// experiments regenerates every table and figure of the paper's evaluation
// over the synthetic population.
//
// Usage:
//
//	experiments [-size 100000] [-seed 1] [-run t3,t9,d1] [-workers 0]
//	            [-out verdicts.jsonl] [-checkpoint diff.ckpt]
//	            [-reuse 0.9995] [-pool 3000] [-dedup]
//	            [-metrics metrics.json] [-pprof localhost:6060]
//
// Experiment ids: t1 t3 t4 t5 t6 t7 t8 t9 t10 t11 f2 f3 f4 f5 d1 d2 d3 (default:
// all, in paper order).
//
// When the differential evaluation (d1) is the only experiment — -run d1, or
// any of its own flags -out, -checkpoint, -reuse, -pool and -dedup — it runs
// over the streaming population source: domains are generated, analyzed,
// and graded in flight with bounded memory, which is how the paper-scale
// 906,336-chain run fits, writing one JSON line per non-compliant chain to
// -out and checkpointing progress to -checkpoint. The verdict JSONL goes
// only to -out: it is sparse, one line per non-compliant chain, and stdout
// carries the table. The other experiments share one materialized
// population, and a run of several of them grades d1 over its analyses.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"chainchaos/internal/experiments"
	"chainchaos/internal/obs"
	"chainchaos/internal/run"
)

// verdictRank extracts the zero-based pipeline rank from one line of the
// verdict JSONL (difftest.RecordLine carries the domain's 1-based rank).
func verdictRank(line []byte) (int, bool) {
	var rec struct {
		Rank int `json:"rank"`
	}
	if json.Unmarshal(line, &rec) != nil || rec.Rank < 1 {
		return 0, false
	}
	return rec.Rank - 1, true
}

func main() {
	cli := obs.NewCLI("experiments")
	var sc experiments.StreamConfig
	flag.IntVar(&sc.Size, "size", 100000, "population size (906336 = paper scale)")
	flag.Int64Var(&sc.Seed, "seed", 1, "population seed")
	runIDs := flag.String("run", "", "comma-separated experiment ids (default all)")
	rec := run.Records{Stage: "verdict", Rank: verdictRank}
	rec.Bind("out", "d1 only: write per-chain verdict JSONL here",
		"checkpoint", "d1 only: journal progress to this file and resume from it")
	flag.Float64Var(&sc.Reuse, "reuse", 0, "d1 only: fraction of domains presenting a pooled (duplicate) chain")
	flag.IntVar(&sc.Pool, "pool", 0, "d1 only: distinct-chain pool size under -reuse (0 = default 3000)")
	flag.BoolVar(&sc.Dedup, "dedup", false, "d1 only: memoize verdicts per distinct chain (bit-identical output, duplicate chains cost a lookup)")
	cli.BindWorkers("parallel workers for generation/analysis/difftest (0 = GOMAXPROCS)")
	cli.BindLedger()
	cli.BindObs()
	flag.Parse()
	cli.Start()
	sc.Workers, sc.Metrics = cli.Workers, cli.Metrics

	env := experiments.NewEnv(sc.Size, sc.Seed)
	env.Workers = cli.Workers
	env.Metrics = cli.Metrics
	type exp struct {
		id string
		fn func() (fmt.Stringer, error)
	}
	str := func(f func() fmt.Stringer) func() (fmt.Stringer, error) {
		return func() (fmt.Stringer, error) { return f(), nil }
	}
	all := []exp{
		{"t1", func() (fmt.Stringer, error) { return env.CapabilityComparison() }},
		{"t3", str(func() fmt.Stringer { return env.LeafPlacement() })},
		{"t4", str(func() fmt.Stringer { return env.HTTPServerCharacteristics() })},
		{"t5", str(func() fmt.Stringer { return env.IssuanceOrder() })},
		{"t6", str(func() fmt.Stringer { return env.CADeliveryCharacteristics() })},
		{"t7", str(func() fmt.Stringer { return env.Completeness() })},
		{"t8", str(func() fmt.Stringer { return env.RootStoreAIA() })},
		{"t9", func() (fmt.Stringer, error) { return env.ClientCapabilities() }},
		{"t10", str(func() fmt.Stringer { return env.HTTPServerBreakdown() })},
		{"t11", str(func() fmt.Stringer { return env.CABreakdown() })},
		{"f2", str(func() fmt.Stringer { return env.TopologyGallery() })},
		{"f3", func() (fmt.Stringer, error) { return env.CaseLongChain() }},
		{"f4", func() (fmt.Stringer, error) { return env.CaseBacktracking() }},
		{"f5", func() (fmt.Stringer, error) { return env.CaseValidityPriority() }},
		{"d1", str(func() fmt.Stringer { return env.DifferentialOverview() })},
		{"d2", str(func() fmt.Stringer { return env.PrioritizationStats() })},
		{"d3", str(func() fmt.Stringer { return env.CapabilityAblation() })},
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*runIDs, ",") {
		if id = strings.TrimSpace(strings.ToLower(id)); id == "" {
			continue
		}
		if !slices.ContainsFunc(all, func(e exp) bool { return e.id == id }) {
			cli.Fatal(fmt.Errorf("unknown experiment id %q", id))
		}
		want[id] = true
	}
	// d1 alone streams: named by -run, or implied by a flag only d1 reads.
	d1Only, d1Flags := len(want) == 1 && want["d1"], false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "out", "checkpoint", "reuse", "pool", "dedup":
			d1Flags = true
		}
	})
	if d1Flags && len(want) > 0 && !d1Only {
		cli.Fatal(errors.New("-out, -checkpoint, -reuse, -pool and -dedup apply to the differential evaluation only; drop -run or pass -run d1"))
	}
	if d1Only || d1Flags {
		out, err := run.Open(cli, rec)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("population: %d domains, seed %d\n\n", sc.Size, sc.Seed)
		start := time.Now()
		sc.Journal, sc.Resume, sc.Record = out.Journal, out.Resume, out.Emit
		sum, err := experiments.DifferentialStreamSummary(context.Background(), sc)
		if err == nil {
			err = out.Close()
		}
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Println(experiments.DifferentialTable(sum))
		fmt.Printf("[d1 took %v]\n\n", time.Since(start).Round(time.Millisecond))
		cli.Finish()
		return
	}

	fmt.Printf("population: %d domains, seed %d\n\n", sc.Size, sc.Seed)
	for _, e := range all {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		start := time.Now()
		t, err := e.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println(t)
		fmt.Printf("[%s took %v]\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	cli.Finish()
}
