// genpop generates a synthetic web population and emits a per-domain
// inventory (TSV) with its ground-truth defect labels, for external analysis
// or as a workload for other tools.
//
// Usage:
//
//	genpop -size 10000 -seed 1 > population.tsv
//	genpop -size 10000 -summary
//	genpop -size 1000000 -out population.tsv -checkpoint population.ckpt
//
// Rows are written as domains are generated, so peak memory is bounded by
// the worker pool, not the population. -checkpoint journals progress so an
// interrupted generation resumes where it stopped, appending to -out.
package main

import (
	"context"
	"flag"
	"fmt"
	"slices"

	"chainchaos/internal/certmodel"
	"chainchaos/internal/obs"
	"chainchaos/internal/pipeline"
	"chainchaos/internal/population"
	"chainchaos/internal/run"
)

const header = "rank\tdomain\tca\tserver\tcerts\tdup\tirrelevant\tmultipath\treversed\tincomplete\tleaf_mismatch\tshared"

func main() {
	cli := obs.NewCLI("genpop")
	var cfg population.Config
	flag.IntVar(&cfg.Size, "size", 10000, "number of domains")
	flag.Int64Var(&cfg.Seed, "seed", 1, "generator seed")
	summary := flag.Bool("summary", false, "print aggregate statistics instead of the TSV")
	flag.Float64Var(&cfg.ChainReuse, "reuse", 0, "fraction of domains presenting a pooled (duplicate) chain — the paper's hosting-provider skew")
	flag.IntVar(&cfg.ChainPool, "pool", 0, "distinct-chain pool size under -reuse (0 = default 3000)")
	rec := run.Records{Stage: "generate", Header: []string{header}}
	rec.Bind("out", "write the TSV here (default stdout)",
		"checkpoint", "journal progress to this file and resume an interrupted run from it")
	scenarioFile := flag.String("scenario-file", "", "inject fuzzer-discovered chain topologies from this scenario file (cmd/divfuzz -scenarios)")
	flag.Float64Var(&cfg.ScenarioRate, "scenario-rate", 0.01, "fraction of domains presenting an injected scenario under -scenario-file")
	cli.BindWorkers("parallel workers for generation (0 = GOMAXPROCS)")
	cli.BindLedger()
	cli.BindObs()
	flag.Parse()
	cli.Start()
	defer cli.Finish()

	cfg.Workers = cli.Workers
	if *scenarioFile != "" {
		scs, err := population.LoadScenarios(*scenarioFile)
		if err != nil {
			cli.Fatal(err)
		}
		cfg.Scenarios = scs
	}
	if *summary {
		// A summary writes no TSV: no header, and -out is left alone.
		rec.Header, rec.Out = nil, ""
	}
	out, err := run.Open(cli, rec)
	if err != nil {
		cli.Fatal(err)
	}
	st := &stats{byCA: map[string]int{}, byServer: map[string]int{}}
	each := func(d *population.Domain) error {
		if *summary {
			st.add(d)
			return nil
		}
		return out.Emit(d.Rank-1, row(d))
	}
	src := population.NewSource(cfg)
	opts := pipeline.Options{Name: "genpop", Metrics: cli.Metrics, Journal: out.Journal, Resume: out.Resume}
	err = src.Each(context.Background(), opts, each)
	if err == nil {
		err = out.Close()
	}
	if err != nil {
		cli.Fatal(err)
	}
	if *summary {
		st.print(src.Population())
	}
}

// row is one domain's TSV line, without the trailing newline.
func row(d *population.Domain) []byte {
	t := d.Truth
	return fmt.Appendf(nil, "%d\t%s\t%s\t%s\t%d\t%v\t%v\t%v\t%v\t%v\t%v\t%v",
		d.Rank, d.Name, d.CA, d.Server, len(d.List),
		t.DuplicateLeaf || t.DuplicateIntermediate || t.DuplicateRoot,
		t.Irrelevant != population.IrrelevantNone,
		t.MultiplePaths, t.Reversed, t.Incomplete, t.LeafMismatch, d.Shared)
}

// stats accumulates the -summary aggregates one domain at a time, so the
// run never holds the population.
type stats struct {
	n                                          int
	dup, irr, multi, rev, inc, mismatch, other int
	nc, shared, scenario                       int
	chains                                     map[certmodel.FP]struct{}
	byCA, byServer                             map[string]int
}

func (s *stats) add(d *population.Domain) {
	t := d.Truth
	s.n++
	s.byCA[d.CA]++
	s.byServer[d.Server]++
	if d.Shared {
		s.shared++
	}
	if d.Scenario != "" {
		s.scenario++
	}
	if s.chains == nil {
		s.chains = map[certmodel.FP]struct{}{}
	}
	s.chains[certmodel.ListDigest(d.List)] = struct{}{}
	if t.DuplicateLeaf || t.DuplicateIntermediate || t.DuplicateRoot {
		s.dup++
	}
	if t.Irrelevant != population.IrrelevantNone {
		s.irr++
	}
	if t.MultiplePaths {
		s.multi++
	}
	if t.Reversed {
		s.rev++
	}
	if t.Incomplete {
		s.inc++
	}
	if t.LeafMismatch {
		s.mismatch++
	}
	if t.LeafOther {
		s.other++
	}
	if t.NonCompliant() {
		s.nc++
	}
}

func (s *stats) print(pop *population.Population) {
	pct := func(v int) string { return fmt.Sprintf("%d (%.2f%%)", v, 100*float64(v)/float64(s.n)) }
	fmt.Printf("domains:              %d\n", s.n)
	fmt.Printf("non-compliant:        %s\n", pct(s.nc))
	fmt.Printf("  duplicates:         %s\n", pct(s.dup))
	fmt.Printf("  irrelevant:         %s\n", pct(s.irr))
	fmt.Printf("  multiple paths:     %s\n", pct(s.multi))
	fmt.Printf("  reversed:           %s\n", pct(s.rev))
	fmt.Printf("  incomplete:         %s\n", pct(s.inc))
	fmt.Printf("leaf mismatch:        %s\n", pct(s.mismatch))
	fmt.Printf("leaf 'other':         %s\n", pct(s.other))
	fmt.Printf("shared chain:         %s\n", pct(s.shared))
	fmt.Printf("injected scenario:    %s\n", pct(s.scenario))
	fmt.Printf("distinct chains:      %d\n", len(s.chains))
	fmt.Printf("issuer hierarchies:   %d, AIA repository entries: %d\n", len(pop.Issuers), pop.Repo.Len())
	fmt.Printf("union root store:     %d roots\n", pop.Roots().Len())
	fmt.Println("\nby CA:")
	for _, name := range sortedNames(s.byCA) {
		fmt.Printf("  %-22s %s\n", name, pct(s.byCA[name]))
	}
	fmt.Println("by server:")
	for _, name := range sortedNames(s.byServer) {
		fmt.Printf("  %-38s %s\n", name, pct(s.byServer[name]))
	}
}

// sortedNames returns counts' keys in order, so -summary prints the same
// bytes on every run.
func sortedNames(counts map[string]int) []string {
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
