// experiments regenerates every table and figure of the paper's evaluation
// over the synthetic population.
//
// Usage:
//
//	experiments [-size 100000] [-seed 1] [-run t3,t9,d1] [-workers 0]
//	            [-stream] [-out verdicts.jsonl] [-checkpoint diff.ckpt]
//	            [-distribute 4] [-dist-listen addr | -worker -connect addr]
//	            [-metrics metrics.json] [-pprof localhost:6060]
//
// Experiment ids: t1 t3 t4 t5 t6 t7 t8 t9 t10 t11 f2 f3 f4 f5 d1 d2 d3 (default:
// all, in paper order).
//
// With -stream the differential evaluation (d1) runs over the streaming
// population source — domains are generated, analyzed, and graded in flight
// with bounded memory, which is how the paper-scale 906,336-chain run fits —
// writing one JSON line per non-compliant chain to -out and checkpointing
// progress to -checkpoint. The other experiments need the materialized
// population, so -stream runs d1 only.
//
// -distribute N runs d1 as a coordinator leasing contiguous rank ranges to
// N worker processes (copies of this binary run with -worker); verdict
// lines merge in rank order, byte-identical to a single-process -stream
// run, resumable through the same -checkpoint. Both modes send the verdict
// JSONL only to -out: it is sparse, one line per non-compliant chain, and
// stdout carries the tables.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"chainchaos/internal/experiments"
	"chainchaos/internal/obs"
	"chainchaos/internal/run"
)

// job is the streamed differential evaluation as its flags describe it. It
// is also the config every distributed worker receives: the population
// source is rank-deterministic in (Size, Seed), which is what makes leased
// sub-ranges byte-identical to the full run.
type job struct {
	Size    int     `json:"size"`
	Seed    int64   `json:"seed"`
	Workers int     `json:"workers"`
	Reuse   float64 `json:"reuse,omitempty"`
	Pool    int     `json:"pool,omitempty"`
	Dedup   bool    `json:"dedup,omitempty"`
}

// verdicts runs ranks [s.Lo, s.Hi) of the differential evaluation: the
// whole run in one process, one lease in a worker.
func verdicts(ctx context.Context, j job, s run.Span) (map[string]int64, error) {
	sum, err := experiments.DifferentialStreamSummary(ctx, experiments.StreamConfig{
		Size: j.Size, Seed: j.Seed, Workers: j.Workers, Metrics: s.Metrics,
		Reuse: j.Reuse, Pool: j.Pool, Dedup: j.Dedup,
		Journal: s.Journal, Resume: s.Lo, Limit: s.Hi, Record: s.Emit,
	})
	if err != nil {
		return nil, err
	}
	return sum.Tallies(), nil
}

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
	var j job
	flag.IntVar(&j.Size, "size", 100000, "population size (906336 = paper scale)")
	flag.Int64Var(&j.Seed, "seed", 1, "population seed")
	runIDs := flag.String("run", "", "comma-separated experiment ids (default all)")
	stream := flag.Bool("stream", false, "run the differential evaluation (d1) over the streaming source with bounded memory")
	rec := run.Records{Stage: "verdict", Rank: verdictRank}
	rec.Bind("out", "with -stream: write per-chain verdict JSONL here",
		"checkpoint", "with -stream: journal progress to this file and resume from it")
	flag.Float64Var(&j.Reuse, "reuse", 0, "with -stream: fraction of domains presenting a pooled (duplicate) chain")
	flag.IntVar(&j.Pool, "pool", 0, "with -stream: distinct-chain pool size under -reuse (0 = default 3000)")
	flag.BoolVar(&j.Dedup, "dedup", false, "with -stream: memoize verdicts per distinct chain (bit-identical output, duplicate chains cost a lookup)")
	killAfter := flag.Int("dist-kill-after", 0, "chaos: the first worker SIGKILLs itself after processing this many ranks (distributed runs only)")
	cli.BindWorkers("parallel workers for generation/analysis/difftest (0 = GOMAXPROCS)")
	cli.BindDistribute()
	cli.BindLedger()
	cli.BindObs()
	flag.Parse()
	ctx := context.Background()
	if cli.Worker {
		if err := run.Serve(ctx, cli, verdicts); err != nil {
			cli.Fatal(err)
		}
		return
	}
	cli.Start()
	j.Workers = cli.Workers

	if cli.Distribute > 0 || *stream || rec.Out != "" || rec.Checkpoint != "" {
		mode, how := "-stream", "streaming"
		if cli.Distribute > 0 {
			mode, how = "-distribute", fmt.Sprintf("distributed over %d workers", cli.Distribute)
		}
		if *runIDs != "" && strings.TrimSpace(strings.ToLower(*runIDs)) != "d1" {
			cli.Fatal(fmt.Errorf("%s runs the differential evaluation only; drop -run or pass -run d1", mode))
		}
		out, err := run.Open(cli, rec)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("population: %d domains, seed %d (%s)\n\n", j.Size, j.Seed, how)
		start := time.Now()
		tallies, err := run.Ranks(ctx, cli, out, j.Size, run.Job[job]{Config: j, KillAfter: *killAfter}, verdicts)
		if err == nil {
			err = out.Close()
		}
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Println(experiments.DifferentialTableFromTallies(tallies))
		fmt.Printf("[d1 took %v]\n\n", time.Since(start).Round(time.Millisecond))
		cli.Finish()
		return
	}

	env := experiments.NewEnv(j.Size, j.Seed)
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
	if *runIDs != "" {
		for _, id := range strings.Split(*runIDs, ",") {
			want[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}

	fmt.Printf("population: %d domains, seed %d\n\n", j.Size, j.Seed)
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
